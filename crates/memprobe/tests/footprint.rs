//! Footprint and rebind guards: a query costs what its guard set costs.
//!
//! Five claims, all about memory that must **not** scale with the
//! number of sites in the index beyond what the diagram itself holds:
//!
//! 1. the bytes allocated to register one more query and give it its
//!    first answer are the same on a 1 000-site and on a 100 000-site
//!    index, up to a small constant (buffer-growth steps of a slightly
//!    different guard set);
//! 2. a warm query that is rebound to another snapshot and recomputes —
//!    what every query of a fleet does after a `World::publish`, and the
//!    touched ones after a `World::apply` — performs zero allocation
//!    events;
//! 3. a warm `World::apply` under a ticking fleet — the retired snapshot
//!    reclaimed, the delta it missed replayed — allocates what its delta
//!    needs, and the tick after it frees next to nothing: no snapshot is
//!    copied or dropped per epoch;
//! 4. a copy of the index — what a first-epoch or fallback
//!    `World::apply` makes — allocates the copy of its Voronoi diagram
//!    plus the point-location walk's start table, and nothing else: the
//!    site coordinates are stored once, in the diagram;
//! 5. the shard count does not multiply index-sized memory: a fleet's
//!    first tick allocates the same at 64 shards as at 2 with the same
//!    workers, since the search scratch is held per worker.
//!
//! One `#[test]`, so no concurrent test thread allocates inside a
//! measured window (see `alloc_guard.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::{Euclidean, InsConfig, MovingKnn, Processor};
use insq_geom::{Aabb, Point};
use insq_index::{Entry, SiteDelta, VorTree};
use insq_memprobe::CountingAlloc;
use insq_server::{FleetConfig, FleetEngine, InsFleetQuery, QueryId, World};
use insq_voronoi::SiteId;

#[global_allocator]
static PROBE: CountingAlloc = CountingAlloc::new();

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

fn build(n: usize, seed: u64) -> VorTree {
    let mut next = lcg(seed);
    let points = (0..n)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
    VorTree::build(points, bounds).unwrap()
}

/// Bytes allocated by `register` + the first tick of one query joining
/// a warm single-shard engine over an `n`-site world.
fn bytes_to_join(n: usize) -> u64 {
    let world = Arc::new(World::new(build(n, 0x5eed)));
    let cfg = InsConfig::new(5, 1.6);
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> = FleetEngine::new(
        Arc::clone(&world),
        FleetConfig {
            shards: 1,
            threads: 1,
        },
    );
    // A first query warms what the engine shares per worker (the search
    // scratch *is* sized to the index, once per worker) and its own
    // validation buffers.
    let pos = Point::new(47.0, 53.0);
    fleet.register(InsFleetQuery::new(&world, cfg).unwrap());
    for _ in 0..3 {
        fleet.tick_all(|_| pos);
    }
    let before = PROBE.bytes();
    let id = fleet.register(InsFleetQuery::new(&world, cfg).unwrap());
    fleet.tick_all(|_| pos);
    let bytes = PROBE.bytes() - before;
    assert_eq!(id, QueryId(1));
    assert_eq!(fleet.query(id).unwrap().current_knn().len(), cfg.k);
    bytes
}

#[test]
fn a_query_costs_what_its_guard_set_costs() {
    // ---------------------------------------------------- footprint
    let small = bytes_to_join(1_000);
    let large = bytes_to_join(100_000);
    assert!(
        small.abs_diff(large) < 4096,
        "joining a fleet must not cost memory proportional to the index: \
         {small} B at 1 000 sites, {large} B at 100 000"
    );

    // ------------------------------------- warm rebind + recompute
    let a = Arc::new(build(2_000, 0xa));
    let b = {
        let mut patched = (*a).clone();
        let mut next = lcg(0xb);
        let added = (0..24)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let removed = (0..24).map(|i| SiteId(i * 71)).collect();
        patched.apply(&SiteDelta { added, removed }).unwrap();
        Arc::new(patched)
    };
    let mut next = lcg(0xc);
    let path: Vec<Point> = (0..200)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    let mut p = Processor::<Euclidean, _>::new(Arc::clone(&a), InsConfig::new(5, 1.6)).unwrap();
    // One lap alternates the two snapshots every fifth tick; far-apart
    // positions make the ticks in between recompute too. Two laps warm
    // every buffer to the lap's working set, the third is counted.
    let lap = |p: &mut Processor<Euclidean, Arc<VorTree>>| {
        for (i, &q) in path.iter().enumerate() {
            if i % 5 == 0 {
                p.rebind(Arc::clone(if i % 10 == 0 { &b } else { &a }));
            }
            p.tick(q);
        }
    };
    lap(&mut p);
    lap(&mut p);
    let recomputations = p.stats().recomputations;
    let before = PROBE.events();
    lap(&mut p);
    let events = PROBE.events() - before;
    assert!(p.stats().recomputations >= recomputations + path.len() as u64 / 5);
    assert_eq!(events, 0, "a warm rebind + recompute allocated");

    // ------------------------------------- an epoch costs its delta
    let n = 100_000;
    let world = Arc::new(World::new(build(n, 0xe90c)));
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> = FleetEngine::new(
        Arc::clone(&world),
        FleetConfig {
            shards: 1,
            threads: 1,
        },
    );
    let mut next = lcg(0xd);
    let clients: Vec<Point> = (0..64)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    for _ in &clients {
        fleet.register(InsFleetQuery::new(&world, InsConfig::new(5, 1.6)).unwrap());
    }
    fleet.tick_all(|id| clients[id.index()]);
    let (mut bytes, mut events, mut tick_frees) = (Vec::new(), Vec::new(), 0);
    for epoch in 0..24 {
        let added = (0..16)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let mut removed: Vec<SiteId> = (0..16)
            .map(|_| SiteId((next() * n as f64) as u32))
            .collect();
        removed.sort_unstable();
        removed.dedup();
        let delta = SiteDelta { added, removed };
        let before = (PROBE.bytes(), PROBE.events());
        world.apply(&delta).unwrap();
        let cost = (PROBE.bytes() - before.0, PROBE.events() - before.1);
        let before = PROBE.deallocations();
        fleet.tick_all(|id| clients[id.index()]);
        // The first epochs copy (nothing retired yet) and warm the buffers.
        if epoch >= 4 {
            bytes.push(cost.0);
            events.push(cost.1);
            tick_frees = tick_frees.max(PROBE.deallocations() - before);
        }
    }
    bytes.sort_unstable();
    events.sort_unstable();
    let (bytes, events) = (bytes[bytes.len() / 2], events[events.len() / 2]);
    assert!(
        bytes < 256 * 1024 && events < 2_000,
        "an epoch of 32 changes on {n} sites allocated {bytes} B in {events} events"
    );
    assert!(
        tick_frees < 100,
        "the tick after an epoch freed {tick_frees}"
    );

    // ------------------------------------- a copy is its diagram's copy
    let tree = Arc::new(build(100_000, 0xc0de));
    let before = PROBE.bytes();
    let diagram = tree.voronoi().clone();
    let diagram_bytes = PROBE.bytes() - before;
    drop(diagram);
    let before = PROBE.bytes();
    let copy = (*tree).clone();
    let tree_bytes = PROBE.bytes() - before;
    drop(copy);
    // The start table holds ⌈√n⌉ entries. The sum is exact; 256 B of
    // slack leaves room for a small field, far below a second copy of
    // the site coordinates (1.6 MB at 100 000 sites).
    let starts = (tree.len() as f64).sqrt().ceil() as u64 * std::mem::size_of::<Entry>() as u64;
    assert!(
        tree_bytes <= diagram_bytes + starts + 256,
        "a copy of the index allocated {tree_bytes} B, its diagram {diagram_bytes} B \
         and the start table {starts} B"
    );

    // ------------------------- shards do not multiply the scratch
    // The bytes the first tick allocates, with every query registered
    // beforehand: each query's first answer is a full recomputation, so
    // every shard searches the index. Two workers at 64 shards and at 2
    // hold the same two scratches. The caller's first position request
    // waits (at most ten seconds) until the spawned worker has made one,
    // so each worker drains at least one shard, and grows its scratch,
    // in both runs.
    let parallel = std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2);
    let first_tick_bytes = |shards: usize| {
        let world = Arc::new(World::from_arc(Arc::clone(&tree)));
        let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
            FleetEngine::new(Arc::clone(&world), FleetConfig { shards, threads: 2 });
        let mut next = lcg(0x5ca7);
        let clients: Vec<Point> = (0..192)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        for _ in &clients {
            fleet.register(InsFleetQuery::new(&world, InsConfig::new(5, 1.6)).unwrap());
        }
        let caller = std::thread::current().id();
        let (held, spawned) = (AtomicBool::new(!parallel), AtomicBool::new(false));
        let before = PROBE.bytes();
        let summary = fleet.tick_all(|id| {
            if std::thread::current().id() != caller {
                spawned.store(true, Ordering::Release);
            } else if !held.swap(true, Ordering::Relaxed) {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !spawned.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            clients[id.index()]
        });
        let bytes = PROBE.bytes() - before;
        assert_eq!(summary.recomputations, clients.len() as u64);
        bytes
    };
    let (wide, narrow) = (first_tick_bytes(64), first_tick_bytes(2));
    let scratch = 4 * tree.len() as u64;
    assert!(
        wide.abs_diff(narrow) < scratch,
        "the first tick allocated {wide} B at 64 shards and {narrow} B at 2 \
         with the same two workers; one scratch is {scratch} B"
    );
}
