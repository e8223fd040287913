//! Cost accounting shared by every moving-kNN processor.
//!
//! The INSQ evaluation compares methods along two axes (paper §I): the
//! *construction/validation* overhead of safe regions and the
//! *communication* between query client and query processor. The counters
//! here capture both, plus the outcome classification of each timestamp
//! (the three update cases of §III-B).

/// What happened at one timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// The current kNN set is still valid; nothing was recomputed.
    Valid,
    /// The kNN set changed by exactly one object (update case (i): the
    /// query entered a neighboring order-k Voronoi cell) and was repaired
    /// locally.
    Swap,
    /// The kNN set changed by more than one object but the new set was
    /// assembled from already-held (prefetched) objects (update case (ii)).
    LocalRerank,
    /// A full recomputation was required (update case (iii)) — the only
    /// case costing a round trip for fresh objects.
    Recompute,
}

impl TickOutcome {
    /// Whether the kNN result changed at this tick.
    #[inline]
    pub fn changed(self) -> bool {
        !matches!(self, TickOutcome::Valid)
    }
}

/// Cumulative statistics of one moving query run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Timestamps processed.
    pub ticks: u64,
    /// Ticks answered as [`TickOutcome::Valid`].
    pub valid_ticks: u64,
    /// Ticks answered as [`TickOutcome::Swap`].
    pub swaps: u64,
    /// Ticks answered as [`TickOutcome::LocalRerank`].
    pub local_reranks: u64,
    /// Ticks answered as [`TickOutcome::Recompute`].
    pub recomputations: u64,
    /// Elementary validation operations: distance evaluations (Euclidean)
    /// or settled vertices (network) spent deciding whether the current
    /// result is still valid.
    pub validation_ops: u64,
    /// Elementary search operations spent recomputing results: index-node
    /// inspections, heap settles, Dijkstra relaxations.
    pub search_ops: u64,
    /// Elementary safe-region construction operations: half-plane clips
    /// for region-based baselines, neighbor-list unions for INS.
    pub construction_ops: u64,
    /// Data objects transmitted from server to client (the paper's
    /// communication cost).
    pub comm_objects: u64,
}

impl QueryStats {
    /// Records an outcome (does not touch the op counters).
    pub fn record(&mut self, outcome: TickOutcome) {
        self.ticks += 1;
        match outcome {
            TickOutcome::Valid => self.valid_ticks += 1,
            TickOutcome::Swap => self.swaps += 1,
            TickOutcome::LocalRerank => self.local_reranks += 1,
            TickOutcome::Recompute => self.recomputations += 1,
        }
    }

    /// Average validation operations per tick.
    pub fn validation_ops_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.validation_ops as f64 / self.ticks as f64
        }
    }

    /// Average communication (objects) per tick.
    pub fn comm_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.comm_objects as f64 / self.ticks as f64
        }
    }

    /// Recomputation frequency: fraction of ticks needing a full
    /// recomputation.
    pub fn recompute_rate(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.recomputations as f64 / self.ticks as f64
        }
    }

    /// Total elementary operations (validation + search + construction) —
    /// the per-run "CPU cost" proxy reported by the benchmark harness.
    pub fn total_ops(&self) -> u64 {
        self.validation_ops + self.search_ops + self.construction_ops
    }

    /// Merges another run's counters into this one (for aggregating over
    /// repeated trajectories).
    pub fn merge(&mut self, other: &QueryStats) {
        self.ticks += other.ticks;
        self.valid_ticks += other.valid_ticks;
        self.swaps += other.swaps;
        self.local_reranks += other.local_reranks;
        self.recomputations += other.recomputations;
        self.validation_ops += other.validation_ops;
        self.search_ops += other.search_ops;
        self.construction_ops += other.construction_ops;
        self.comm_objects += other.comm_objects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies() {
        let mut s = QueryStats::default();
        s.record(TickOutcome::Valid);
        s.record(TickOutcome::Valid);
        s.record(TickOutcome::Swap);
        s.record(TickOutcome::LocalRerank);
        s.record(TickOutcome::Recompute);
        assert_eq!(s.ticks, 5);
        assert_eq!(s.valid_ticks, 2);
        assert_eq!(s.swaps, 1);
        assert_eq!(s.local_reranks, 1);
        assert_eq!(s.recomputations, 1);
        assert!((s.recompute_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rates_on_empty_stats() {
        let s = QueryStats::default();
        assert_eq!(s.validation_ops_per_tick(), 0.0);
        assert_eq!(s.comm_per_tick(), 0.0);
        assert_eq!(s.recompute_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = QueryStats {
            ticks: 3,
            valid_ticks: 2,
            recomputations: 1,
            comm_objects: 10,
            ..Default::default()
        };
        let b = QueryStats {
            ticks: 2,
            valid_ticks: 1,
            swaps: 1,
            validation_ops: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ticks, 5);
        assert_eq!(a.valid_ticks, 3);
        assert_eq!(a.swaps, 1);
        assert_eq!(a.validation_ops, 7);
        assert_eq!(a.comm_objects, 10);
    }

    #[test]
    fn outcome_changed() {
        assert!(!TickOutcome::Valid.changed());
        assert!(TickOutcome::Swap.changed());
        assert!(TickOutcome::LocalRerank.changed());
        assert!(TickOutcome::Recompute.changed());
    }
}
