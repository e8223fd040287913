//! The event journal: what the INSQ demonstration UI visualises, as data.
//!
//! Each tick records the query position, the processor's outcome and the
//! result set; the journal exposes the state *transitions* (valid ↔
//! invalid) that Figs. 3 and 4 of the paper are screenshots of.

use insq_core::{QueryStats, TickOutcome};
use insq_geom::Point;

/// One timestamp of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord<Id> {
    /// Timestamp index (0-based).
    pub tick: usize,
    /// Display position of the query object.
    pub position: Point,
    /// What the processor had to do.
    pub outcome: TickOutcome,
    /// The kNN result at this tick.
    pub knn: Vec<Id>,
}

/// A complete run of one processor along a trajectory.
#[derive(Debug, Clone)]
pub struct RunRecord<Id> {
    /// Processor name ("INS", "Naive", ...).
    pub method: String,
    /// Per-tick records.
    pub ticks: Vec<TickRecord<Id>>,
    /// Final cumulative statistics.
    pub stats: QueryStats,
    /// Wall-clock duration of the processing calls only (excludes
    /// trajectory bookkeeping).
    pub elapsed: std::time::Duration,
}

impl<Id: Clone + PartialEq> RunRecord<Id> {
    /// Ticks at which the kNN result changed (including the first).
    pub fn result_changes(&self) -> Vec<&TickRecord<Id>> {
        let mut out = Vec::new();
        let mut last: Option<&Vec<Id>> = None;
        for rec in &self.ticks {
            let changed = match last {
                None => true,
                Some(prev) => {
                    prev.len() != rec.knn.len() || !prev.iter().all(|s| rec.knn.contains(s))
                }
            };
            if changed {
                out.push(rec);
            }
            last = Some(&rec.knn);
        }
        out
    }

    /// Number of ticks recorded.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// One summary line per run — the harness's table row.
    pub fn summary(&self) -> String {
        let s = &self.stats;
        format!(
            "{:<10} ticks={:<6} valid={:<6} swap={:<5} rerank={:<5} recompute={:<5} \
             comm={:<7} val_ops={:<8} search_ops={:<8} constr_ops={:<8} time={:?}",
            self.method,
            s.ticks,
            s.valid_ticks,
            s.swaps,
            s.local_reranks,
            s.recomputations,
            s.comm_objects,
            s.validation_ops,
            s.search_ops,
            s.construction_ops,
            self.elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tick: usize, outcome: TickOutcome, knn: Vec<u32>) -> TickRecord<u32> {
        TickRecord {
            tick,
            position: Point::ORIGIN,
            outcome,
            knn,
        }
    }

    #[test]
    fn result_changes_detects_set_changes() {
        let run = RunRecord {
            method: "test".into(),
            ticks: vec![
                rec(0, TickOutcome::Recompute, vec![1, 2]),
                rec(1, TickOutcome::Valid, vec![2, 1]), // same set, reordered
                rec(2, TickOutcome::Swap, vec![2, 3]),
                rec(3, TickOutcome::Valid, vec![2, 3]),
            ],
            stats: QueryStats::default(),
            elapsed: std::time::Duration::ZERO,
        };
        let changes = run.result_changes();
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].tick, 0);
        assert_eq!(changes[1].tick, 2);
    }

    #[test]
    fn summary_mentions_method() {
        let run: RunRecord<u32> = RunRecord {
            method: "INS".into(),
            ticks: vec![],
            stats: QueryStats::default(),
            elapsed: std::time::Duration::ZERO,
        };
        assert!(run.summary().contains("INS"));
        assert!(run.is_empty());
    }
}
