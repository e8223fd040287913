//! Cross-method comparison tables.
//!
//! Collects [`RunRecord`]s from several processors over the same scenario
//! and formats the comparison rows the benchmark harness prints — one line
//! per method, matching the axes of the paper's evaluation (recomputation
//! frequency, validation cost, construction cost, communication, time).

use crate::journal::RunRecord;

/// A comparison of several methods over one scenario.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    rows: Vec<Row>,
}

/// One method's aggregate numbers.
#[derive(Debug, Clone)]
pub struct Row {
    /// Method name.
    pub method: String,
    /// Timestamps simulated.
    pub ticks: u64,
    /// Full recomputations.
    pub recomputations: u64,
    /// Result changes handled locally (swaps + re-ranks).
    pub local_updates: u64,
    /// Objects transmitted.
    pub comm_objects: u64,
    /// Validation + search + construction op counts.
    pub validation_ops: u64,
    /// Search effort.
    pub search_ops: u64,
    /// Safe-region construction effort.
    pub construction_ops: u64,
    /// Wall-clock microseconds per tick.
    pub us_per_tick: f64,
}

impl Comparison {
    /// Creates an empty comparison.
    pub fn new() -> Comparison {
        Comparison::default()
    }

    /// Adds one run.
    pub fn add<Id: Clone + PartialEq>(&mut self, run: &RunRecord<Id>) {
        let stats = &run.stats;
        self.rows.push(Row {
            method: run.method.clone(),
            ticks: stats.ticks,
            recomputations: stats.recomputations,
            local_updates: stats.swaps + stats.local_reranks,
            comm_objects: stats.comm_objects,
            validation_ops: stats.validation_ops,
            search_ops: stats.search_ops,
            construction_ops: stats.construction_ops,
            us_per_tick: if stats.ticks == 0 {
                0.0
            } else {
                run.elapsed.as_secs_f64() * 1e6 / stats.ticks as f64
            },
        });
    }

    /// The rows added so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>7} {:>10} {:>8} {:>9} {:>10} {:>10} {:>11} {:>10}\n",
            "method",
            "ticks",
            "recompute",
            "local",
            "comm",
            "val_ops",
            "search_ops",
            "constr_ops",
            "us/tick"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>7} {:>10} {:>8} {:>9} {:>10} {:>10} {:>11} {:>10.2}\n",
                r.method,
                r.ticks,
                r.recomputations,
                r.local_updates,
                r.comm_objects,
                r.validation_ops,
                r.search_ops,
                r.construction_ops,
                r.us_per_tick
            ));
        }
        out
    }

    /// Looks up a row by method name.
    pub fn row(&self, method: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.method == method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_core::QueryStats;

    fn fake_run(method: &str, recomputes: u64) -> RunRecord<u32> {
        RunRecord {
            method: method.into(),
            ticks: vec![],
            stats: QueryStats {
                ticks: 100,
                recomputations: recomputes,
                comm_objects: recomputes * 8,
                ..Default::default()
            },
            elapsed: std::time::Duration::from_millis(10),
        }
    }

    #[test]
    fn table_contains_all_methods() {
        let mut c = Comparison::new();
        c.add(&fake_run("INS", 3));
        c.add(&fake_run("Naive", 100));
        let t = c.to_table();
        assert!(t.contains("INS"));
        assert!(t.contains("Naive"));
        assert_eq!(c.rows().len(), 2);
        assert_eq!(c.row("INS").unwrap().recomputations, 3);
        assert!(c.row("nope").is_none());
    }

    #[test]
    fn us_per_tick_computed() {
        let mut c = Comparison::new();
        c.add(&fake_run("INS", 1));
        let r = c.row("INS").unwrap();
        assert!((r.us_per_tick - 100.0).abs() < 1.0); // 10ms / 100 ticks
    }
}
