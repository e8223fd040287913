//! The allocation guard: proves the steady-state tick hot path performs
//! **zero heap allocations** — valid ticks *and* full kNN recomputations
//! — in both spaces, standalone and under the fleet engine (on
//! one worker lane, and under its default configuration, where a fleet
//! below the inline-tick bound spawns no worker).
//!
//! Method: every scenario runs the same deterministic position sequence
//! twice. Pass 1 is the warm-up — scratch arenas and result buffers grow
//! to their steady-state capacities (the two warm-up laps also cover the
//! lap-boundary jump, whose recomputation the counted lap repeats). Pass
//! 2 replays the identical sequence under the counting allocator and
//! must report **zero allocation events** (`alloc`/`alloc_zeroed`/
//! `realloc`) — not merely zero net bytes, so a transient per-tick `Vec`
//! cannot hide by being freed before the end of the window.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test thread can
//! allocate inside a measured window.

use std::sync::Arc;

use insq_core::{InsConfig, InsProcessor, MovingKnn, NetInsProcessor};
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_memprobe::CountingAlloc;
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq_roadnet::{NetPosition, NetTrajectory, NetworkWorld, SiteSet};
use insq_server::{
    FleetConfig, FleetEngine, InsFleetQuery, QueryId, TickDisposition, TickPolicy, TickPos, World,
};

#[global_allocator]
static PROBE: CountingAlloc = CountingAlloc::new();

/// Allocation events inside `f`.
fn events_during<F: FnOnce()>(f: F) -> u64 {
    let before = PROBE.events();
    f();
    PROBE.events() - before
}

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut next = lcg(seed);
    (0..n)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect()
}

/// A deterministic random walk of `steps` positions: long enough legs to
/// force steady-state recomputations, short enough steps that most ticks
/// validate — both hot paths get exercised.
fn walk(steps: usize, seed: u64) -> Vec<Point> {
    let mut next = lcg(seed);
    let mut pos = Point::new(50.0, 50.0);
    let mut target = Point::new(next() * 100.0, next() * 100.0);
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        if pos.distance(target) < 2.0 {
            target = Point::new(next() * 100.0, next() * 100.0);
        }
        let dir = (target - pos)
            .normalized()
            .unwrap_or(insq_geom::Vector::ZERO);
        pos += dir * 1.5;
        out.push(pos);
    }
    out
}

const BOUNDS: (f64, f64, f64, f64) = (-10.0, -10.0, 110.0, 110.0);

fn bounds() -> Aabb {
    Aabb::new(
        Point::new(BOUNDS.0, BOUNDS.1),
        Point::new(BOUNDS.2, BOUNDS.3),
    )
}

#[test]
fn steady_state_ticks_allocate_nothing() {
    // ------------------------------------------------ Euclidean (§III)
    let tree = VorTree::build(random_points(400, 42), bounds()).unwrap();
    let path = walk(300, 7);
    let mut p = InsProcessor::new(&tree, InsConfig::new(5, 1.6)).unwrap();
    for _ in 0..2 {
        for &q in &path {
            p.tick(q);
        }
    }
    let recomp_before = p.stats().recomputations;
    let events = events_during(|| {
        for &q in &path {
            p.tick(q);
        }
    });
    assert!(
        p.stats().recomputations > recomp_before,
        "counted lap must exercise steady-state recomputations"
    );
    assert_eq!(events, 0, "Euclidean tick path allocated");

    // ------------------------------------------- road network (§IV)
    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 12,
                rows: 12,
                ..GridConfig::default()
            },
            3,
        )
        .unwrap(),
    );
    let sv = random_site_vertices(&net, 30, 3).unwrap();
    let sites = SiteSet::new(&net, sv).unwrap();
    let world = NetworkWorld::build(Arc::clone(&net), sites);
    let tour = NetTrajectory::random_tour(&net, 8, 5).unwrap();
    let steps = 250;
    let net_path: Vec<NetPosition> = (0..=steps)
        .map(|i| tour.position(&net, tour.length() * i as f64 / steps as f64))
        .collect();
    let mut np = NetInsProcessor::new(&world, InsConfig::new(4, 1.6)).unwrap();
    // One lap: the tour crosses edges (each crossing re-anchors the
    // Theorem-2 probe), local updates re-anchor it under a new scope,
    // and half-way an epoch rebinds the query (same snapshot: what is
    // measured is the client side of an epoch, not the index build).
    fn lap<'w>(
        np: &mut NetInsProcessor<&'w NetworkWorld>,
        world: &'w NetworkWorld,
        path: &[NetPosition],
    ) {
        for (i, &q) in path.iter().enumerate() {
            if i == path.len() / 2 {
                np.rebind(world);
            }
            np.tick(q);
        }
    }
    for _ in 0..2 {
        lap(&mut np, &world, &net_path);
    }
    let before = *np.stats();
    let events = events_during(|| lap(&mut np, &world, &net_path));
    let edges: std::collections::BTreeSet<_> = net_path.iter().filter_map(|q| q.edge()).collect();
    assert!(edges.len() > 20, "the counted lap crosses edges");
    assert!(np.stats().swaps > before.swaps, "… takes swaps");
    assert!(np.stats().recomputations > before.recomputations + 1);
    assert_eq!(events, 0, "road-network tick path allocated");

    // ------------------------------- fleet engine (single worker lane)
    // The engine's own per-tick machinery — position feed, per-shard
    // summaries, worker-persistent scratch — must be allocation-free too.
    let tree = Arc::new(World::new(
        VorTree::build(random_points(400, 42), bounds()).unwrap(),
    ));
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> = FleetEngine::new(
        Arc::clone(&tree),
        FleetConfig {
            shards: 8,
            threads: 1,
        },
    );
    let n_queries = 32;
    for _ in 0..n_queries {
        fleet.register(InsFleetQuery::new(&tree, InsConfig::new(5, 1.6)).unwrap());
    }
    // One offset point per query; every query replays the shared walk
    // translated by its offset.
    let offsets = random_points(n_queries, 11);
    let feed = |t: usize| {
        let path = &path;
        let offsets = &offsets;
        move |id: QueryId| {
            let o = offsets[id.index()];
            let q = path[t];
            Point::new(
                (q.x + o.x * 0.1).min(BOUNDS.2),
                (q.y + o.y * 0.1).min(BOUNDS.3),
            )
        }
    };
    for _ in 0..2 {
        for t in 0..path.len() {
            fleet.tick_all(feed(t));
        }
    }
    let events = events_during(|| {
        for t in 0..path.len() {
            fleet.tick_all(feed(t));
        }
    });
    assert_eq!(events, 0, "fleet tick_all path allocated");

    // The recording tick every serving layer runs (`NetServer`,
    // `PartitionGroup`): the engine keeps its per-shard disposition
    // buffers, so a caller that reuses its sink pays no allocation
    // either.
    let mut sink: Vec<(QueryId, TickDisposition)> = Vec::with_capacity(n_queries);
    let mut recording_lap = |fleet: &mut FleetEngine<VorTree, InsFleetQuery>| {
        for t in 0..path.len() {
            sink.clear();
            let pos = feed(t);
            fleet.tick(TickPolicy::Barrier, |id| TickPos::Fresh(pos(id)), &mut sink);
            assert_eq!(sink.len(), n_queries);
        }
    };
    recording_lap(&mut fleet);
    let events = events_during(|| recording_lap(&mut fleet));
    assert_eq!(events, 0, "fleet recording tick allocated");

    // ------------------------------- fleet engine (default config)
    // The same fleet built with `FleetConfig::default()`, whose thread
    // cap is the host's parallelism: 32 queries are below the engine's
    // inline-tick bound, so both kinds of tick run on the calling thread
    // and spawn no worker — a spawned thread allocates.
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
        FleetEngine::new(Arc::clone(&tree), FleetConfig::default());
    for _ in 0..n_queries {
        fleet.register(InsFleetQuery::new(&tree, InsConfig::new(5, 1.6)).unwrap());
    }
    for _ in 0..2 {
        for t in 0..path.len() {
            fleet.tick_all(feed(t));
        }
    }
    recording_lap(&mut fleet);
    let events = events_during(|| {
        for t in 0..path.len() {
            fleet.tick_all(feed(t));
        }
    });
    assert_eq!(events, 0, "default-config fleet tick_all allocated");
    let events = events_during(|| recording_lap(&mut fleet));
    assert_eq!(events, 0, "default-config fleet recording tick allocated");
}
