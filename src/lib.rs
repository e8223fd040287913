//! # insq
//!
//! A complete Rust implementation of **INSQ: An Influential Neighbor Set
//! Based Moving kNN Query Processing System** (Li, Gu, Qi, Yu, Zhang,
//! Deng — ICDE 2016), including every substrate the system depends on:
//! robust computational geometry, Delaunay/Voronoi construction, R-/VoR-
//! trees, road networks with network Voronoi diagrams, the INS algorithm
//! — implemented once, generically over a [`core::Space`], and
//! instantiated for the Euclidean plane and road networks — the
//! competing baselines, the paper-side geometry and oracles behind its
//! figures ([`paper`]: polygons, order-k cells, the exact MIS), a
//! simulation/benchmark harness reproducing the paper's demonstration
//! and the companion evaluation, and the system layer itself: a concurrent
//! multi-query fleet engine over epoch-versioned worlds ([`server`]),
//! served over TCP by a framed, versioned wire protocol with session
//! management and epoch push ([`net`]).
//!
//! ## Quick start
//!
//! ```
//! use insq::prelude::*;
//!
//! // Data objects and their Voronoi-augmented index.
//! let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
//! let points = Distribution::Uniform.generate(500, &bounds, 7);
//! let index = VorTree::build(points, bounds.inflated(10.0)).unwrap();
//!
//! // A moving 5-NN query with prefetch ratio 1.6 (the demo defaults).
//! let mut query = InsProcessor::new(&index, InsConfig::with_k(5)).unwrap();
//! for step in 0..100 {
//!     let pos = Point::new(10.0 + 0.5 * step as f64, 50.0);
//!     query.tick(pos);
//!     assert_eq!(query.current_knn().len(), 5);
//! }
//! // Most steps validate in O(k) and need no full recomputation:
//! assert!(query.stats().valid_ticks > 60);
//! assert!(query.stats().recomputations < 25);
//! ```
//!
//! ## Road-network mode (paper §IV)
//!
//! ```
//! use std::sync::Arc;
//! use insq::prelude::*;
//! use insq::roadnet::generators::{grid_network, random_site_vertices, GridConfig};
//!
//! let net = Arc::new(grid_network(&GridConfig::default(), 7).unwrap());
//! let stations = SiteSet::new(&net, random_site_vertices(&net, 20, 7).unwrap()).unwrap();
//! // One snapshot value: network + sites + precomputed NVD.
//! let world = NetworkWorld::build(Arc::clone(&net), stations);
//!
//! let mut query = NetInsProcessor::new(&world, InsConfig::with_k(3)).unwrap();
//! let tour = NetTrajectory::random_tour(&net, 6, 1).unwrap();
//! for tick in 0..200 {
//!     // Per tick: one restricted search on the kNN ∪ INS subnetwork
//!     // (Theorem 2) — no server contact while the result stays valid.
//!     query.tick(tour.position_looped(&net, 0.05 * tick as f64));
//! }
//! assert_eq!(query.current_knn().len(), 3);
//! assert!(query.stats().comm_objects < 100); // vs 600 for naive (3/tick)
//! ```
//!
//! ## Anisotropic metrics
//!
//! A per-axis weighted metric `sqrt(wx²·dx² + wy²·dy²)` — travel time
//! where the axes have different speeds — needs no space of its own: it
//! is plain L2 after scaling every coordinate by `(wx, wy)`. Scale the
//! data objects and the clip window, build a [`index::VorTree`], and
//! tick an [`core::InsProcessor`] at the scaled position
//! (`examples/weighted_space.rs`).
//!
//! ## Many queries at once (the INSQ *system*)
//!
//! A server maintaining results for a whole fleet of clients holds the
//! index in an epoch-versioned [`server::World`] and ticks every
//! registered query per timestamp through a [`server::FleetEngine`] —
//! parallel, deterministic, and with data-object updates reduced to one
//! [`server::World::publish`] call (see the README's fleet quick start
//! and `examples/fleet.rs`). All of it is generic over the
//! [`core::Space`]; the `SpaceQuery` fleet client works unchanged in
//! both spaces above.
//!
//! See the `examples/` directory for the demonstration scenarios and
//! `insq-bench` for the full experiment harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use insq_baselines as baselines;
pub use insq_cluster as cluster;
pub use insq_core as core;
pub use insq_geom as geom;
pub use insq_index as index;
pub use insq_net as net;
pub use insq_paper as paper;
pub use insq_roadnet as roadnet;
pub use insq_server as server;
pub use insq_sim as sim;
pub use insq_voronoi as voronoi;
pub use insq_workload as workload;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use insq_baselines::{
        NaiveProcessor, NetNaiveProcessor, OkvProcessor, VStarConfig, VStarProcessor,
    };
    pub use insq_cluster::{ClientId, ClusterPlan, PartitionGroup, RouterConfig, RouterServer};
    pub use insq_core::{
        influential_neighbor_set, Euclidean, InsConfig, InsProcessor, MovingKnn, NetInsProcessor,
        Network, Processor, QueryStats, Space, TickOutcome,
    };
    pub use insq_geom::{Aabb, Circle, Point, Trajectory, Vector};
    pub use insq_index::{RTree, SiteDelta, VorTree};
    pub use insq_net::{
        ClientCore, ClientEvent, Message, NetClient, NetServer, NetServerConfig, SpaceKind,
        WireSpace,
    };
    pub use insq_paper::{
        minimal_influential_set, safe_region, validation_circles, ConvexPolygon, HalfPlane, Segment,
    };
    pub use insq_roadnet::{
        EdgeId, EdgeWeight, NetDelta, NetPosition, NetSiteDelta, NetTrajectory, NetworkVoronoi,
        NetworkWorld, RoadNetwork, SiteIdx, SiteSet, VertexId,
    };
    pub use insq_server::{
        Epoch, FleetConfig, FleetEngine, FleetQuery, FleetStats, InsFleetQuery, NetFleetQuery,
        QueryId, SpaceQuery, TickDisposition, TickPolicy, TickPos, TickSummary, World,
    };
    pub use insq_sim::{run_euclidean, run_network, Comparison, RunRecord};
    pub use insq_voronoi::{SiteId, Voronoi};
    pub use insq_workload::{Distribution, FleetScenario, SpaceWorkload, TrajectoryKind};
}
