//! # insq-bench
//!
//! The experiment harness that regenerates every figure of the INSQ paper
//! and the evaluation axes of its companion paper; [`experiments`] is the
//! index. Results are printed, never stored: the serving stack's numbers
//! are the repository benchmark's (`BENCHMARK.json`, `benchmark/`).
//!
//! Each experiment is a pure function from an [`Effort`] level to a text
//! report; the `report` binary selects and prints them. Kernel timings
//! are rows of the experiment that owns their axis (E8 validation, E9
//! construction, the ablation's kNN search); the `soak` binary (with
//! [`latency`]) is the many-session scale test of the serving layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod euclidean_exp;
pub mod figures;
pub mod latency;
pub mod network_exp;

/// How much work to spend per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced sizes for CI / smoke runs (seconds).
    Quick,
    /// The paper's full parameter ranges (minutes).
    Full,
}

impl Effort {
    /// Scales a tick count.
    pub fn ticks(self, full: usize) -> usize {
        match self {
            Effort::Quick => (full / 10).max(200),
            Effort::Full => full,
        }
    }

    /// Filters a sweep axis (quick keeps every other point plus the last).
    pub fn thin<T: Copy>(self, xs: &[T]) -> Vec<T> {
        match self {
            Effort::Full => xs.to_vec(),
            Effort::Quick => xs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0 || *i == xs.len() - 1)
                .map(|(_, &x)| x)
                .collect(),
        }
    }
}

/// An experiment: id, one-line description, and the runner.
pub struct Experiment {
    /// Short id used on the command line (e.g. "e1", "fig4").
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Produces the text report.
    pub run: fn(Effort) -> String,
}

/// The registry of all experiments, in presentation order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            title: "Fig. 1 — MIS of a 3-NN set via adjacent order-3 Voronoi cells",
            run: figures::fig1,
        },
        Experiment {
            id: "fig2",
            title: "Fig. 2 — order-2 network Voronoi diagram, MIS and mid-point b",
            run: figures::fig2,
        },
        Experiment {
            id: "fig3",
            title: "Fig. 3 — Road Network demo (k = 5): moving query event trace",
            run: figures::fig3,
        },
        Experiment {
            id: "fig4",
            title: "Fig. 4 — 2D Plane demo (k = 5, rho = 1.6): valid/invalid states",
            run: figures::fig4,
        },
        Experiment {
            id: "e1",
            title: "E1 — per-tick processing cost vs k (all methods)",
            run: euclidean_exp::e1_cost_vs_k,
        },
        Experiment {
            id: "e2",
            title: "E2 — communication cost vs k (all methods)",
            run: euclidean_exp::e2_comm_vs_k,
        },
        Experiment {
            id: "e3",
            title: "E3 — cost vs data set size n",
            run: euclidean_exp::e3_cost_vs_n,
        },
        Experiment {
            id: "e4",
            title: "E4 — effect of the prefetch ratio rho",
            run: euclidean_exp::e4_rho,
        },
        Experiment {
            id: "e5",
            title: "E5 — effect of query speed",
            run: euclidean_exp::e5_speed,
        },
        Experiment {
            id: "e6",
            title: "E6 — effect of the data distribution",
            run: euclidean_exp::e6_distribution,
        },
        Experiment {
            id: "e7",
            title: "E7 — road network: cost and communication vs k",
            run: network_exp::e7_network_vs_k,
        },
        Experiment {
            id: "e8",
            title: "E8 — validation micro-cost per tick (INS scan vs region tests)",
            run: euclidean_exp::e8_validation_micro,
        },
        Experiment {
            id: "e9",
            title: "E9 — safe-region construction micro-cost per recomputation",
            run: euclidean_exp::e9_construction_micro,
        },
        Experiment {
            id: "ablation",
            title: "Ablation — INS variants: incremental fetch, VoR-tree vs plain R-tree kNN",
            run: euclidean_exp::ablation,
        },
        Experiment {
            id: "continuous",
            title: "Extension — exact continuous kNN event traces vs tick sampling",
            run: euclidean_exp::continuous,
        },
    ]
}
