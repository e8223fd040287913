//! # insq-core
//!
//! The Influential Neighbor Set (INS) moving-kNN algorithm — the primary
//! contribution of *INSQ: An Influential Neighbor Set Based Moving kNN
//! Query Processing System* (Li et al., ICDE 2016) — implemented **once**,
//! generically over a [`Space`], and instantiated for the paper's two
//! settings:
//!
//! | Space | Setting | Processor alias |
//! |---|---|---|
//! | [`Euclidean`] | 2-D plane, L2 (paper §III) | [`InsProcessor`] |
//! | [`Network`] | road networks, shortest path (paper §IV) | [`NetInsProcessor`] |
//!
//! Map from the paper to the code. This crate is on every served query's
//! path; what the paper defines but a served query never builds — the
//! MIS, order-k cells, safe-region polygons — is in `insq-paper`, which
//! depends on this crate and not the other way round:
//!
//! | Paper concept | Here |
//! |---|---|
//! | Influential set `S` of `O'` (Def. 1) | [`influential::validate_by_distance`] — the guarding predicate |
//! | Order-k Voronoi cell, the safe region (Def. 2, Fig. 1–2) | `insq_paper::order_k` — plane cells and road-network segments (figures, oracles, the OkV baseline) |
//! | Minimal influential set (Def. 2) | `insq_paper::mis` — exact MIS via tagged order-k cells (the oracle Theorem 1 is checked against) |
//! | Voronoi neighbor set (Def. 3) | `insq_voronoi::Voronoi::neighbors` |
//! | Influential neighbor set (Def. 4) | [`Space::influential_into`] per space |
//! | Query processing (§III, §IV) | the generic [`Processor`] |
//! | Theorem-2 validation | [`Space::scoped_knn_into`] per space |
//! | Demo observers (Fig. 4: cyan region, green/red circles) | `insq_paper::{safe_region, validation_circles}` |
//! | Brute-force reference | [`Space::brute_knn`] — a site scan; on [`Network`] one full oracle Dijkstra ranked by `(distance, site)`, never INE |
//!
//! Every processor implements [`MovingKnn`], shared with the baselines in
//! `insq-baselines`, and certifies each returned result via the
//! influential-set predicate — so results provably equal the brute-force
//! kNN at every timestamp, in every space.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod euclidean;
mod held;
pub mod influential;
pub mod metrics;
pub mod network;
pub mod processor;
pub mod space;

pub use euclidean::{Euclidean, InsProcessor};
pub use influential::{
    influential_neighbor_set, influential_neighbor_set_into, validate_by_distance, Validation,
};
pub use metrics::{QueryStats, TickOutcome};
pub use network::{
    influential_neighbor_set_net, influential_neighbor_set_net_into, NetInsProcessor, NetScratch,
    Network,
};
pub use processor::{InsConfig, MovingKnn, Processor};
pub use space::{DeltaIndex, Space, TouchedSet, Verdict};

/// Errors from processor construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Invalid configuration.
    BadConfig {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}
