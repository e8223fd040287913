//! # insq-server
//!
//! The INSQ query-processing *system* layer (paper §III pitches INSQ as a
//! server maintaining moving kNN results for many clients at once): a
//! concurrent multi-query **fleet engine** over a shared,
//! **epoch-versioned world** — all of it generic over the
//! `insq_core::Space` a deployment runs in.
//!
//! * [`World`] / [`Epoch`] — the server-owned index snapshot (either
//!   space's `Index` type: `VorTree` or [`NetworkWorld`]), published
//!   atomically. Data-object updates become
//!   a [`World::publish`] (full rebuild) or — the cheap path — a **delta
//!   epoch** via [`World::apply`], one generic implementation over
//!   `insq_core::DeltaIndex`: a copy nobody reads — in steady state the
//!   snapshot retired one epoch ago, with the delta it missed replayed —
//!   is patched incrementally, at cost proportional to the delta instead
//!   of O(n log n). Live queries detect the epoch bump at their next
//!   tick and self-rebind either way.
//! * [`SpaceQuery`] — the one fleet-client implementation, wrapping the
//!   generic `insq_core::Processor` over an `Arc` world snapshot.
//!   [`InsFleetQuery`] / [`NetFleetQuery`] are its per-space aliases.
//! * [`FleetEngine`] — a sharded registry of live queries, ticked in
//!   parallel batches on a scoped-thread worker pool (a small fleet on
//!   the calling thread alone) with deterministic per-shard
//!   scheduling: results and statistics are bit-identical to
//!   sequential execution at any thread count, in both spaces
//!   (`tests/space_conformance.rs` runs the same harness over each).
//! * [`FleetStats`] — per-shard [`insq_core::QueryStats`] aggregation
//!   surfacing fleet throughput (ticks/s, validations/tick, recompute
//!   rate).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use insq_core::InsConfig;
//! use insq_geom::{Aabb, Point};
//! use insq_index::VorTree;
//! use insq_server::{FleetConfig, FleetEngine, InsFleetQuery, World};
//!
//! // Server side: the epoch-versioned world.
//! let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
//! let pts = (0..200).map(|i| Point::new((i % 20) as f64 * 5.0, (i / 20) as f64 * 10.0 + 0.5 * (i % 7) as f64)).collect();
//! let world = Arc::new(World::new(VorTree::build(pts, bounds.inflated(10.0)).unwrap()));
//!
//! // Fleet side: register clients, tick them all per timestamp.
//! let mut fleet = FleetEngine::new(Arc::clone(&world), FleetConfig::with_threads(2));
//! for _ in 0..50 {
//!     let q = InsFleetQuery::new(&world, InsConfig::with_k(4)).unwrap();
//!     fleet.register(q);
//! }
//! for tick in 0..20 {
//!     let summary = fleet.tick_all(|id| {
//!         Point::new(5.0 + (id.0 % 90) as f64, 5.0 + 0.4 * tick as f64)
//!     });
//!     assert_eq!(summary.ticked, 50);
//! }
//! assert_eq!(fleet.stats().total.ticks, 50 * 20);
//! ```
//!
//! A mid-run data-object update is one call — `world.publish(new_index)`
//! — and the next `tick_all` rebinds every query exactly once (see
//! `examples/fleet.rs` and the epoch model section of the README).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;
pub mod partition;
pub mod queries;
pub mod util;
pub mod world;

pub use fleet::{
    FleetConfig, FleetEngine, FleetStats, QueryId, TickDisposition, TickPolicy, TickPos, TickSink,
    TickSummary,
};
pub use partition::{GridPartitioner, Partitioner, RegionId};
pub use queries::{FleetQuery, InsFleetQuery, NetFleetQuery, SpaceQuery};
pub use util::parallel_map;
pub use world::{Epoch, NetworkWorld, World};

/// Compile-time thread-safety assertions: every type the fleet engine
/// shares or moves across worker threads must stay `Send + Sync`. A
/// regression (e.g. an `Rc` or `RefCell` slipping into an index) fails
/// compilation here rather than deep inside a scoped-thread bound.
#[allow(dead_code)]
fn assert_thread_safety() {
    fn assert_send_sync<T: Send + Sync>() {}
    use insq_core::{Euclidean, Network, Processor, Space};
    use std::sync::Arc;

    // Substrates.
    assert_send_sync::<insq_index::VorTree>();
    assert_send_sync::<insq_roadnet::RoadNetwork>();
    assert_send_sync::<insq_roadnet::SiteSet>();
    assert_send_sync::<insq_roadnet::NetworkVoronoi>();
    assert_send_sync::<NetworkWorld>();

    // The generic processor, in both borrow flavors, for every space —
    // including any future one: this function is itself generic.
    fn assert_space<S: Space>() {
        assert_send_sync::<Processor<S, &'static S::Index>>();
        assert_send_sync::<Processor<S, Arc<S::Index>>>();
        assert_send_sync::<World<S::Index>>();
        assert_send_sync::<SpaceQuery<S>>();
        assert_send_sync::<FleetEngine<S::Index, SpaceQuery<S>>>();
    }
    assert_space::<Euclidean>();
    assert_space::<Network>();
}
