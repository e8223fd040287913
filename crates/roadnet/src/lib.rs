//! # insq-roadnet
//!
//! The road-network substrate of the INSQ moving-kNN system (paper §IV):
//!
//! * [`RoadNetwork`] — connected undirected weighted graphs in compact CSR
//!   form, with [`NetPosition`]s on vertices or edge interiors;
//! * [`NetworkVoronoi`] — the network Voronoi diagram: vertex/edge
//!   ownership, border ("mid-") points, per-site cell fragments and the
//!   network **Voronoi neighbor sets** the INS is built from; its build
//!   and its three repairs (site insert/remove, edge re-weight) run one
//!   private label-setting kernel;
//! * [`ine`] — Incremental Network Expansion kNN (the recompute path) and
//!   [`subnetwork`] — the same expansion confined to the cells of
//!   `kNN ∪ I(kNN)`, the Theorem-2 validation ("we just need to consider
//!   the (smaller) road network formed by the current kNN set and the
//!   INS"); both are the one kNN expansion on a [`DijkstraScratch`];
//! * [`dijkstra`] — the allocating all-vertex distance oracle the two
//!   above are tested against (it shares no code with them);
//! * [`astar`] — goal-directed point-to-point paths, which route the
//!   rush-hour commuters of `insq-workload`;
//! * [`generators`] / [`trajectory`] — synthetic street networks and
//!   network-constrained query trajectories for the demo and benchmarks.
//!
//! The crate runs one expansion per job — four Dijkstra loops in all (the
//! oracle, the NVD kernel, the kNN expansion, A*) and nothing that selects
//! between them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod astar;
pub mod dijkstra;
pub mod generators;
pub mod graph;
pub mod ine;
pub mod nvd;
pub mod position;
pub mod scratch;
pub mod sites;
pub mod subnetwork;
pub mod trajectory;
pub mod world;

pub use graph::{EdgeId, EdgeRec, EdgeWeight, RoadNetwork, VertexId};
pub use nvd::{BorderPoint, EdgeFragment, EdgeOwnership, NetworkVoronoi};
pub use position::NetPosition;
pub use scratch::{DijkstraScratch, ExpansionStats};
pub use sites::{NetDelta, NetSiteDelta, SiteIdx, SiteSet};
pub use subnetwork::SiteMask;
pub use trajectory::NetTrajectory;
pub use world::NetworkWorld;

/// Errors from road-network construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum RoadNetError {
    /// The network has no vertices.
    Empty,
    /// A vertex coordinate is NaN or infinite.
    NonFiniteCoordinate {
        /// Offending vertex index.
        vertex: usize,
    },
    /// An edge references a vertex out of range.
    EdgeOutOfRange {
        /// Offending edge index.
        edge: usize,
    },
    /// An edge connects a vertex to itself.
    SelfLoop {
        /// Offending edge index.
        edge: usize,
    },
    /// An edge length is non-positive or non-finite.
    BadEdgeLength {
        /// Offending edge index.
        edge: usize,
        /// The bad length.
        len: f64,
    },
    /// The graph is not connected.
    Disconnected,
    /// A position offset is NaN or infinite.
    BadOffset {
        /// The bad offset.
        offset: f64,
    },
    /// A site set was empty.
    NoSites,
    /// A site references a vertex out of range.
    SiteOutOfRange {
        /// Offending site index.
        site: usize,
    },
    /// Two sites share a vertex.
    DuplicateSite {
        /// Index of the first site at the vertex.
        first: usize,
        /// Index of the duplicate.
        second: usize,
    },
    /// A trajectory needs at least two vertices.
    TrajectoryTooShort {
        /// Number of vertices supplied.
        got: usize,
    },
    /// Two consecutive trajectory vertices are not adjacent.
    NotAdjacent {
        /// First vertex.
        u: VertexId,
        /// Second vertex.
        v: VertexId,
    },
    /// A generator was configured with invalid parameters.
    BadGeneratorConfig {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A re-weight batch names the same edge more than once.
    DuplicateEdgeChange {
        /// The edge id changed twice.
        edge: usize,
    },
    /// The site set and the NVD assigned different indices to a newly
    /// inserted site — the snapshot's parts were assembled inconsistently
    /// (e.g. via [`NetworkWorld::from_parts`] with a mismatched diagram).
    SiteIndexDesync {
        /// Index the site set assigned.
        site_set: usize,
        /// Index the NVD assigned.
        nvd: usize,
    },
}

impl std::fmt::Display for RoadNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoadNetError::Empty => write!(f, "network has no vertices"),
            RoadNetError::NonFiniteCoordinate { vertex } => {
                write!(f, "non-finite coordinate at vertex {vertex}")
            }
            RoadNetError::EdgeOutOfRange { edge } => {
                write!(f, "edge {edge} references an out-of-range vertex")
            }
            RoadNetError::SelfLoop { edge } => write!(f, "edge {edge} is a self loop"),
            RoadNetError::BadEdgeLength { edge, len } => {
                write!(f, "edge {edge} has invalid length {len}")
            }
            RoadNetError::Disconnected => write!(f, "network is not connected"),
            RoadNetError::BadOffset { offset } => write!(f, "invalid edge offset {offset}"),
            RoadNetError::NoSites => write!(f, "site set is empty"),
            RoadNetError::SiteOutOfRange { site } => {
                write!(f, "site {site} references an out-of-range vertex")
            }
            RoadNetError::DuplicateSite { first, second } => {
                write!(f, "sites {first} and {second} share a vertex")
            }
            RoadNetError::TrajectoryTooShort { got } => {
                write!(f, "trajectory needs at least 2 vertices, got {got}")
            }
            RoadNetError::NotAdjacent { u, v } => {
                write!(f, "trajectory vertices {u} and {v} are not adjacent")
            }
            RoadNetError::BadGeneratorConfig { reason } => {
                write!(f, "bad generator config: {reason}")
            }
            RoadNetError::DuplicateEdgeChange { edge } => {
                write!(f, "edge {edge} re-weighted more than once in one delta")
            }
            RoadNetError::SiteIndexDesync { site_set, nvd } => {
                write!(
                    f,
                    "site set and NVD disagree on a new site's index: {site_set} vs {nvd}"
                )
            }
        }
    }
}

impl std::error::Error for RoadNetError {}
