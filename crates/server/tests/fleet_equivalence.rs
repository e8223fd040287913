//! Fleet-vs-sequential equivalence: `FleetEngine::tick_all` must produce
//! bit-identical results (kNN sets and `QueryStats`, per query and in
//! aggregate) to driving each query sequentially by hand — at every
//! thread count, including across a mid-run epoch swap, whether the
//! fleet is small enough to tick on the calling thread alone or large
//! enough to spawn workers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use insq_core::{InsConfig, InsProcessor, MovingKnn, NetInsProcessor, QueryStats};
use insq_geom::{Point, Trajectory};
use insq_index::{SiteDelta, VorTree};
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq_roadnet::ine::all_site_distances;
use insq_roadnet::{
    EdgeId, EdgeWeight, NetDelta, NetPosition, NetSiteDelta, NetTrajectory, SiteIdx, SiteSet,
};
use insq_server::{
    FleetConfig, FleetEngine, InsFleetQuery, NetFleetQuery, NetworkWorld, QueryId, World,
};
use insq_voronoi::SiteId;
use insq_workload::FleetScenario;

const CLIENTS: usize = 120;
const TICKS: usize = 80;
const SWAP_AT: usize = 40;

fn scenario() -> FleetScenario {
    FleetScenario {
        clients: CLIENTS,
        n: 1_500,
        k: 4,
        ticks: TICKS,
        updates: vec![SWAP_AT],
        seed: 77,
        ..Default::default()
    }
}

struct PerQuery {
    knn: Vec<insq_voronoi::SiteId>,
    stats: QueryStats,
}

/// Watches a fleet run's position feed for a request made off the
/// calling thread, i.e. on a spawned worker.
///
/// The caller is one of a tick's workers, so on a loaded host it can
/// drain every shard before a spawned worker asks for its first
/// position. A probe that `holds` the caller therefore keeps the
/// caller's first request waiting until another thread has made one,
/// for at most ten seconds, so the run cannot hang.
struct SpawnProbe {
    caller: ThreadId,
    holds: bool,
    held: AtomicBool,
    spawned: AtomicBool,
}

impl SpawnProbe {
    fn new(holds: bool) -> SpawnProbe {
        SpawnProbe {
            caller: std::thread::current().id(),
            holds,
            held: AtomicBool::new(false),
            spawned: AtomicBool::new(false),
        }
    }

    /// Called by the position feed on every request.
    fn observe(&self) {
        if std::thread::current().id() != self.caller {
            self.spawned.store(true, Ordering::Release);
        } else if self.holds && !self.held.swap(true, Ordering::Relaxed) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.spawned.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
    }

    /// Whether any position was fed on a spawned worker.
    fn spawned(&self) -> bool {
        self.spawned.load(Ordering::Acquire)
    }
}

/// Whether the host has the cores for a second worker: a fleet above
/// the inline-tick bound spawns one exactly then.
fn parallel_host() -> bool {
    std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2)
}

/// The ground truth: each client driven by hand on one thread, with a
/// manual rebind at the swap tick.
fn run_sequential(
    sc: &FleetScenario,
    idx_v0: &VorTree,
    idx_v1: &VorTree,
    trajs: &[Trajectory],
) -> Vec<PerQuery> {
    (0..sc.clients)
        .map(|c| {
            let mut p = InsProcessor::new(idx_v0, InsConfig::new(sc.k, sc.rho)).unwrap();
            for tick in 0..sc.ticks {
                if tick == SWAP_AT {
                    p.rebind(idx_v1);
                }
                p.tick(sc.position(&trajs[c], c, tick));
            }
            PerQuery {
                knn: p.current_knn(),
                stats: *p.stats(),
            }
        })
        .collect()
}

/// The same run through the fleet engine at `threads` workers; the flag
/// says whether any position was fed off the calling thread, i.e. on a
/// spawned worker (`hold_caller`: see [`SpawnProbe`]).
fn run_fleet(
    sc: &FleetScenario,
    idx_v0: &Arc<VorTree>,
    idx_v1: &Arc<VorTree>,
    trajs: &[Trajectory],
    threads: usize,
    shards: usize,
    hold_caller: bool,
) -> (Vec<PerQuery>, QueryStats, bool) {
    let world = Arc::new(World::from_arc(Arc::clone(idx_v0)));
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
        FleetEngine::new(Arc::clone(&world), FleetConfig { shards, threads });
    for _ in 0..sc.clients {
        let q = InsFleetQuery::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap();
        fleet.register(q);
    }

    let probe = SpawnProbe::new(hold_caller);
    for tick in 0..sc.ticks {
        if tick == SWAP_AT {
            world.publish_arc(Arc::clone(idx_v1));
        }
        let positions: Vec<Point> = (0..sc.clients)
            .map(|c| sc.position(&trajs[c], c, tick))
            .collect();
        let summary = fleet.tick_all(|id| {
            probe.observe();
            positions[id.index()]
        });
        assert_eq!(summary.ticked as usize, sc.clients, "tick {tick}");
        let expected_rebinds = if tick == SWAP_AT { sc.clients } else { 0 };
        assert_eq!(
            summary.rebinds as usize, expected_rebinds,
            "the epoch bump must reach every query exactly once (tick {tick})"
        );
    }

    let per_query: Vec<PerQuery> = (0..sc.clients)
        .map(|c| {
            let q = fleet.query(QueryId(c as u64)).unwrap();
            PerQuery {
                knn: q.current_knn(),
                stats: *q.stats(),
            }
        })
        .collect();
    (per_query, fleet.stats().total, probe.spawned())
}

/// Runs `sc` sequentially and through the fleet engine at each of
/// `thread_counts`, asserting the fleet runs bit-identical to the
/// sequential one and exact in the new epoch. Returns whether any fleet
/// run fed a position on a spawned worker (`hold_caller`: see
/// [`SpawnProbe`]).
fn assert_fleet_matches_sequential(
    sc: &FleetScenario,
    thread_counts: &[usize],
    hold_caller: bool,
) -> bool {
    let idx_v0 = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let idx_v1 = Arc::new(VorTree::build(sc.points(1), sc.clip_window()).unwrap());
    let trajs: Vec<Trajectory> = (0..sc.clients).map(|c| sc.client_trajectory(c)).collect();

    let reference = run_sequential(sc, &idx_v0, &idx_v1, &trajs);
    let mut reference_total = QueryStats::default();
    for r in &reference {
        reference_total.merge(&r.stats);
    }
    // Sanity: the swap really happened and cost each client one extra
    // recomputation (1 initial + 1 post-swap at minimum).
    assert!(reference_total.recomputations >= 2 * sc.clients as u64);

    let mut any_spawned = false;
    for &threads in thread_counts {
        // An uneven shard count exercises chunked scheduling paths.
        for shards in [7usize, 64] {
            let (fleet, fleet_total, spawned) =
                run_fleet(sc, &idx_v0, &idx_v1, &trajs, threads, shards, hold_caller);
            any_spawned |= spawned;
            assert_eq!(
                fleet_total, reference_total,
                "aggregate stats diverged (threads={threads}, shards={shards})"
            );
            for (c, (f, r)) in fleet.iter().zip(&reference).enumerate() {
                assert_eq!(
                    f.knn, r.knn,
                    "kNN diverged for client {c} (threads={threads}, shards={shards})"
                );
                assert_eq!(
                    f.stats, r.stats,
                    "stats diverged for client {c} (threads={threads}, shards={shards})"
                );
            }
        }
    }

    // Exactness across the swap: final results are the brute-force kNN of
    // the *new* world.
    for c in [0usize, 11, 63, sc.clients - 1] {
        let pos = sc.position(&trajs[c], c, sc.ticks - 1);
        let mut got = reference[c].knn.clone();
        got.sort_unstable();
        let mut want = idx_v1.voronoi().knn_brute(pos, sc.k);
        want.sort_unstable();
        assert_eq!(got, want, "client {c} must answer from the new epoch");
    }
    any_spawned
}

#[test]
fn fleet_matches_sequential_at_every_thread_count_across_epoch_swap() {
    let spawned = assert_fleet_matches_sequential(&scenario(), &[1, 2, 8], false);
    assert!(
        !spawned,
        "a fleet of {CLIENTS} queries ticks on the calling thread alone"
    );
}

/// A fleet above the engine's inline-tick bound (128 live queries)
/// spawns workers, and they still produce the sequential run bit for
/// bit. On a single-core host the engine never spawns, and the run is
/// the inline one.
#[test]
fn fleet_above_the_inline_bound_matches_sequential_on_spawned_workers() {
    let sc = FleetScenario {
        clients: 320,
        ticks: 50,
        ..scenario()
    };
    let parallel = parallel_host();
    let spawned = assert_fleet_matches_sequential(&sc, &[2, 8], parallel);
    assert_eq!(
        spawned, parallel,
        "a fleet of 320 queries ticks on spawned workers wherever there are cores for them"
    );
}

#[test]
fn register_binds_the_query_to_the_engines_world() {
    // Epochs are world-relative: a query created against world A carries
    // Epoch(0) just like world B does. register() must rebind it so it
    // answers from the engine's world, not the one it was created with.
    let sc = scenario();
    let idx_a = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let idx_b = Arc::new(VorTree::build(sc.points(1), sc.clip_window()).unwrap());
    let world_a = Arc::new(World::from_arc(idx_a));
    let world_b = Arc::new(World::from_arc(Arc::clone(&idx_b)));

    let stray = InsFleetQuery::new(&world_a, InsConfig::new(sc.k, sc.rho)).unwrap();
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
        FleetEngine::new(Arc::clone(&world_b), FleetConfig::with_threads(1));
    let id = fleet.register(stray);

    let pos = Point::new(42.0, 57.0);
    fleet.tick_all(|_| pos);
    let mut got = fleet.query(id).unwrap().current_knn();
    got.sort_unstable();
    let mut want = idx_b.voronoi().knn_brute(pos, sc.k);
    want.sort_unstable();
    assert_eq!(got, want, "results must come from the engine's world");
}

/// What [`run_fleet_with_update`] observed.
#[derive(PartialEq)]
struct UpdateRun {
    /// Every client's kNN after every tick, `[tick * clients + client]`.
    knn_stream: Vec<Vec<SiteId>>,
    /// Per-client cumulative statistics.
    stats: Vec<QueryStats>,
    total: QueryStats,
}

/// Drives a fleet over `idx_v0`, performing `update` at `SWAP_AT`.
fn run_fleet_with_update(
    sc: &FleetScenario,
    idx_v0: &Arc<VorTree>,
    trajs: &[Trajectory],
    threads: usize,
    update: impl Fn(&World<VorTree>),
) -> UpdateRun {
    let world = Arc::new(World::from_arc(Arc::clone(idx_v0)));
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> = FleetEngine::new(
        Arc::clone(&world),
        FleetConfig {
            shards: 13,
            threads,
        },
    );
    for _ in 0..sc.clients {
        fleet.register(InsFleetQuery::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap());
    }
    let client_ids = || (0..sc.clients).map(|c| QueryId(c as u64));
    let mut knn_stream = Vec::with_capacity(sc.ticks * sc.clients);
    for tick in 0..sc.ticks {
        if tick == SWAP_AT {
            update(&world);
        }
        let positions: Vec<Point> = (0..sc.clients)
            .map(|c| sc.position(&trajs[c], c, tick))
            .collect();
        let summary = fleet.tick_all(|id| positions[id.index()]);
        let expected_rebinds = if tick == SWAP_AT { sc.clients } else { 0 };
        assert_eq!(summary.rebinds as usize, expected_rebinds, "tick {tick}");
        knn_stream.extend(client_ids().map(|id| fleet.query(id).unwrap().current_knn()));
    }
    UpdateRun {
        knn_stream,
        stats: client_ids()
            .map(|id| *fleet.query(id).unwrap().stats())
            .collect(),
        total: fleet.stats().total,
    }
}

/// Delta epochs vs full republish: a mid-run `World::apply` of a
/// `SiteDelta` must give every client, at every tick, the kNN a mid-run
/// `World::publish` of a from-scratch index over the equivalent site set
/// gives it — and must be cheaper: `publish` makes every query drop its
/// guards and recompute, `apply` only the queries holding an object the
/// delta touched. The saving is a fleet total, not a per-client bound (a
/// query that keeps its guards across the epoch recomputes on a
/// different schedule afterwards). The `apply` run itself is
/// bit-identical, statistics included, at every thread count.
#[test]
fn delta_epoch_matches_full_publish_mid_run() {
    let sc = FleetScenario {
        clients: 60,
        n: 900,
        k: 4,
        ticks: TICKS,
        updates: vec![SWAP_AT],
        seed: 1312,
        ..Default::default()
    };
    let idx_v0 = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let trajs: Vec<Trajectory> = (0..sc.clients).map(|c| sc.client_trajectory(c)).collect();

    // A mixed batch: 25 insertions drawn from the epoch-1 point pool
    // (deduplicated against the index) and 15 removals.
    let mut added: Vec<Point> = sc.points(1).into_iter().take(40).collect();
    added.retain(|p| !idx_v0.voronoi().points().contains(p));
    added.truncate(25);
    let removed: Vec<SiteId> = (0..15).map(|i| SiteId(i * 37)).collect();
    let delta = SiteDelta { added, removed };

    // The equivalent full-rebuild index: apply the delta to a clone and
    // rebuild from scratch over the resulting (identically ordered) sites.
    let equivalent = {
        let mut patched = (*Arc::clone(&idx_v0)).clone();
        patched.apply(&delta).unwrap();
        Arc::new(VorTree::build(patched.voronoi().points().to_vec(), sc.clip_window()).unwrap())
    };

    let published = run_fleet_with_update(&sc, &idx_v0, &trajs, 1, |world| {
        world.publish_arc(Arc::clone(&equivalent));
    });
    let applied = run_fleet_with_update(&sc, &idx_v0, &trajs, 1, |world| {
        world.apply(&delta).unwrap();
    });
    for (at, (a, p)) in applied
        .knn_stream
        .iter()
        .zip(&published.knn_stream)
        .enumerate()
    {
        let (tick, client) = (at / sc.clients, at % sc.clients);
        assert_eq!(a, p, "kNN diverged for client {client} at tick {tick}");
    }
    assert!(
        applied.total.recomputations < published.total.recomputations,
        "apply must spare the untouched queries their recomputation: {} vs {}",
        applied.total.recomputations,
        published.total.recomputations
    );
    assert!(
        applied.total.comm_objects < published.total.comm_objects,
        "kept guards are not shipped again: {} vs {}",
        applied.total.comm_objects,
        published.total.comm_objects
    );
    for threads in [2usize, 8] {
        let again = run_fleet_with_update(&sc, &idx_v0, &trajs, threads, |world| {
            world.apply(&delta).unwrap();
        });
        assert!(
            again == applied,
            "the apply run diverged from itself at threads={threads}"
        );
    }
    let last_tick = &applied.knn_stream[(sc.ticks - 1) * sc.clients..];

    // Exactness: final results answer from the post-delta site set.
    let (_, snap) = {
        let world = World::from_arc(Arc::clone(&idx_v0));
        world.apply(&delta).unwrap();
        world.snapshot()
    };
    for c in [0usize, 17, sc.clients - 1] {
        let pos = sc.position(&trajs[c], c, sc.ticks - 1);
        let mut got = last_tick[c].clone();
        got.sort_unstable();
        let mut want = snap.voronoi().knn_brute(pos, sc.k);
        want.sort_unstable();
        assert_eq!(got, want, "client {c} must answer from the delta epoch");
    }
}

/// Graceful degradation under delta epochs: a `remove`-only delta that
/// shrinks the world below `k` must leave every query answering with all
/// surviving sites (PR 2 covered this for full publishes only).
#[test]
fn delta_shrinks_world_below_k_and_queries_degrade_gracefully() {
    let bounds = insq_geom::Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let mut state = 0x5ca1eu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let pts: Vec<Point> = (0..7)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    let k = 5usize;
    let world = Arc::new(World::new(
        VorTree::build(pts, bounds.inflated(10.0)).unwrap(),
    ));
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
        FleetEngine::new(Arc::clone(&world), FleetConfig::with_threads(2));
    for _ in 0..8 {
        fleet.register(InsFleetQuery::new(&world, InsConfig::new(k, 1.6)).unwrap());
    }
    let pos_of = |id: QueryId, tick: usize| {
        Point::new(
            10.0 + (id.0 % 5) as f64 * 17.0,
            10.0 + tick as f64 * 3.0 + (id.0 / 5) as f64 * 11.0,
        )
    };
    for tick in 0..4 {
        fleet.tick_all(|id| pos_of(id, tick));
    }
    for id in fleet.ids() {
        assert_eq!(fleet.query(id).unwrap().current_knn().len(), k);
    }

    // Shrink to 3 sites (< k) with one delta epoch.
    world
        .apply(&SiteDelta::remove(vec![
            SiteId(0),
            SiteId(2),
            SiteId(4),
            SiteId(6),
        ]))
        .unwrap();
    let (_, snap) = world.snapshot();
    assert_eq!(snap.len(), 3);
    for tick in 4..8 {
        let summary = fleet.tick_all(|id| pos_of(id, tick));
        if tick == 4 {
            assert_eq!(summary.rebinds, 8, "the delta epoch reaches every query");
        }
    }
    for id in fleet.ids() {
        let mut got = fleet.query(id).unwrap().current_knn();
        got.sort_unstable();
        let mut want = snap.voronoi().knn_brute(pos_of(id, 7), k);
        want.sort_unstable();
        assert_eq!(got.len(), 3, "all surviving sites are the answer");
        assert_eq!(got, want, "degraded answers stay exact (query {id:?})");
    }

    // Growing back above k with another delta restores full answers.
    let (_, small) = world.snapshot();
    let mut grow = SiteDelta::default();
    while grow.added.len() < 4 {
        let p = Point::new(next() * 100.0, next() * 100.0);
        if !small.voronoi().points().contains(&p) {
            grow.added.push(p);
        }
    }
    world.apply(&grow).unwrap();
    fleet.tick_all(|id| pos_of(id, 8));
    for id in fleet.ids() {
        assert_eq!(fleet.query(id).unwrap().current_knn().len(), k);
    }
}

/// Network delta epochs: `World::apply(NetSiteDelta)` must match a full
/// `publish(with_sites(...))` of the equivalent site set, across thread
/// counts — the road network itself being shared untouched.
#[test]
fn network_delta_epoch_matches_full_publish() {
    let ticks = 40usize;
    let swap_at = 20usize;
    let clients = 20usize;
    let k = 3usize;
    let speed = 0.14;

    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 9,
                rows: 9,
                ..GridConfig::default()
            },
            17,
        )
        .unwrap(),
    );
    let sites_a = SiteSet::new(&net, random_site_vertices(&net, 20, 3).unwrap()).unwrap();
    let world_a = NetworkWorld::build(Arc::clone(&net), sites_a.clone());

    // Delta: remove 5 sites, add 4 fresh vertices.
    let mut sites_delta = NetSiteDelta::remove((0..5).map(|i| SiteIdx(i * 3)).collect());
    let mut cursor = 0u32;
    while sites_delta.added.len() < 4 {
        let v = insq_roadnet::VertexId(cursor);
        cursor += 7;
        if sites_a.site_at(v).is_none() {
            sites_delta.added.push(v);
        }
    }
    let delta = NetDelta::from(sites_delta);
    let equivalent_sites = {
        let patched = world_a.apply_delta(&delta).unwrap();
        (*patched.sites).clone()
    };

    let tours: Vec<NetTrajectory> = (0..clients)
        .map(|c| NetTrajectory::random_tour(&net, 5, 900 + c as u64).unwrap())
        .collect();
    let pos_of = |c: usize, tick: usize| -> NetPosition {
        tours[c].position_looped(&net, speed * tick as f64 + 0.27 * c as f64)
    };

    let mut runs: Vec<Vec<(Vec<SiteIdx>, QueryStats)>> = Vec::new();
    for (threads, use_delta) in [(1usize, false), (1, true), (2, true), (8, true)] {
        let world = Arc::new(World::new(NetworkWorld::build(
            Arc::clone(&net),
            sites_a.clone(),
        )));
        let mut fleet: FleetEngine<NetworkWorld, NetFleetQuery> =
            FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 4, threads });
        for _ in 0..clients {
            fleet.register(NetFleetQuery::new(&world, InsConfig::new(k, 1.6)).unwrap());
        }
        for tick in 0..ticks {
            if tick == swap_at {
                if use_delta {
                    world.apply(&delta).unwrap();
                } else {
                    let (_, snap) = world.snapshot();
                    world.publish(snap.with_sites(equivalent_sites.clone()));
                }
            }
            let positions: Vec<NetPosition> = (0..clients).map(|c| pos_of(c, tick)).collect();
            fleet.tick_all(|id| positions[id.index()]);
        }
        if use_delta {
            let (_, snap) = world.snapshot();
            assert!(
                Arc::ptr_eq(&snap.net, &net),
                "delta epochs share the road network"
            );
        }
        runs.push(
            (0..clients)
                .map(|c| {
                    let q = fleet.query(QueryId(c as u64)).unwrap();
                    (q.current_knn(), *q.stats())
                })
                .collect(),
        );
    }
    let reference = &runs[0];
    for (r, run) in runs.iter().enumerate().skip(1) {
        for c in 0..clients {
            assert_eq!(
                run[c].0, reference[c].0,
                "kNN diverged (run {r}, client {c})"
            );
            assert_eq!(
                run[c].1, reference[c].1,
                "stats diverged (run {r}, client {c})"
            );
        }
    }
}

/// Traffic epochs: a mid-run [`NetDelta`] carrying edge re-weights (a
/// rush-hour congestion storm) *and* site churn must stream bit-identical
/// to a full `publish` of a from-scratch [`NetworkWorld`] over the
/// re-weighted network — at 1, 2 and 8 threads. Client positions are
/// generated against the free-flow network; congestion only scales
/// lengths up, so on-edge offsets stay valid in every epoch.
#[test]
fn network_fleet_streams_through_a_traffic_epoch() {
    let ticks = 40usize;
    let swap_at = 20usize;
    let clients = 20usize;
    let k = 3usize;
    let speed = 0.14;

    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 9,
                rows: 9,
                ..GridConfig::default()
            },
            29,
        )
        .unwrap(),
    );
    let sites_a = SiteSet::new(&net, random_site_vertices(&net, 20, 7).unwrap()).unwrap();
    let world_a = NetworkWorld::build(Arc::clone(&net), sites_a.clone());

    // The rush-hour delta: congest a contiguous block of streets 2.2x,
    // remove 3 sites, add 3 fresh vertices — one atomic epoch.
    let storm: Vec<EdgeWeight> = (0..14)
        .map(|e| EdgeWeight::scaled(&net, EdgeId(e), 2.2))
        .collect();
    let mut sites_delta = NetSiteDelta::remove((0..3).map(|i| SiteIdx(i * 5)).collect());
    let mut cursor = 1u32;
    while sites_delta.added.len() < 3 {
        let v = insq_roadnet::VertexId(cursor);
        cursor += 11;
        if sites_a.site_at(v).is_none() {
            sites_delta.added.push(v);
        }
    }
    let delta = NetDelta::from(sites_delta).with_weights(storm);

    // The publish-mode equivalent: a from-scratch world over the
    // congested network and the post-delta site set.
    let patched = world_a.apply_delta(&delta).unwrap();
    let equivalent = NetworkWorld::build(Arc::clone(&patched.net), (*patched.sites).clone());

    let tours: Vec<NetTrajectory> = (0..clients)
        .map(|c| NetTrajectory::random_tour(&net, 5, 4300 + c as u64).unwrap())
        .collect();
    let pos_of = |c: usize, tick: usize| -> NetPosition {
        tours[c].position_looped(&net, speed * tick as f64 + 0.23 * c as f64)
    };

    let mut runs: Vec<Vec<(Vec<SiteIdx>, QueryStats)>> = Vec::new();
    for (threads, use_delta) in [(1usize, false), (1, true), (2, true), (8, true)] {
        let world = Arc::new(World::new(NetworkWorld::build(
            Arc::clone(&net),
            sites_a.clone(),
        )));
        let mut fleet: FleetEngine<NetworkWorld, NetFleetQuery> =
            FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 4, threads });
        for _ in 0..clients {
            fleet.register(NetFleetQuery::new(&world, InsConfig::new(k, 1.6)).unwrap());
        }
        for tick in 0..ticks {
            if tick == swap_at {
                if use_delta {
                    world.apply(&delta).unwrap();
                } else {
                    world.publish(equivalent.clone());
                }
            }
            let positions: Vec<NetPosition> = (0..clients).map(|c| pos_of(c, tick)).collect();
            fleet.tick_all(|id| positions[id.index()]);
        }
        let (_, snap) = world.snapshot();
        assert!(
            !Arc::ptr_eq(&snap.net, &net),
            "a traffic epoch replaces the network"
        );
        assert_eq!(
            snap.net.edge(EdgeId(0)).len,
            net.edge(EdgeId(0)).len * 2.2,
            "congestion applied"
        );
        runs.push(
            (0..clients)
                .map(|c| {
                    let q = fleet.query(QueryId(c as u64)).unwrap();
                    (q.current_knn(), *q.stats())
                })
                .collect(),
        );
    }
    let reference = &runs[0];
    for (r, run) in runs.iter().enumerate().skip(1) {
        for c in 0..clients {
            assert_eq!(
                run[c].0, reference[c].0,
                "traffic-epoch kNN diverged (run {r}, client {c})"
            );
            assert_eq!(
                run[c].1, reference[c].1,
                "traffic-epoch stats diverged (run {r}, client {c})"
            );
        }
    }
}

/// Traffic *inside* a query's Theorem-2 subnetwork, landing while the
/// query sits mid-edge with warm anchors. The endpoint k-lists the
/// anchored probe holds were expanded over the old weights, so the epoch
/// must void them: every answer before and after each storm equals
/// `brute_knn` on that epoch's snapshot, at 1, 2 and 8 threads, and the
/// streams are identical across thread counts. (Mutation-checked:
/// without the processor's forgets on the rebind path — `invalidate`'s
/// and `recompute`'s — stale lists keep validating dead answers and the
/// brute-force comparison fails.)
#[test]
fn network_fleet_stays_exact_when_traffic_lands_inside_warm_subnetworks() {
    let ticks = 64usize;
    let clients = 24usize;
    let k = 3usize;
    // Slow commuters: ~25 ticks per street, so storms find them mid-edge.
    let speed = 0.04;

    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 9,
                rows: 9,
                ..GridConfig::default()
            },
            29,
        )
        .unwrap(),
    );
    let sites = SiteSet::new(&net, random_site_vertices(&net, 20, 7).unwrap()).unwrap();
    // Storm `i` (before tick 16·(i+1)) quadruples every third street and
    // leaves the rest as they are: no site moves, only distances do.
    let storm = |i: u32| -> NetDelta {
        let edges = (0..net.num_edges() as u32).filter(|e| e % 3 == i);
        let weights = edges.map(|e| EdgeWeight::scaled(&net, EdgeId(e), 4.0));
        NetDelta::from(NetSiteDelta::default()).with_weights(weights.collect())
    };
    let tours: Vec<NetTrajectory> = (0..clients)
        .map(|c| NetTrajectory::random_tour(&net, 5, 8100 + c as u64).unwrap())
        .collect();
    let pos_of = |c: usize, tick: usize| -> NetPosition {
        tours[c].position_looped(&net, speed * tick as f64 + 0.37 * c as f64)
    };

    let mut streams: Vec<Vec<Vec<SiteIdx>>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let world = Arc::new(World::new(NetworkWorld::build(
            Arc::clone(&net),
            sites.clone(),
        )));
        let mut fleet: FleetEngine<NetworkWorld, NetFleetQuery> =
            FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 4, threads });
        for _ in 0..clients {
            fleet.register(NetFleetQuery::new(&world, InsConfig::new(k, 1.6)).unwrap());
        }
        let mut stream = Vec::new();
        let mut hit_warm = 0;
        for tick in 0..ticks {
            if tick > 0 && tick % 16 == 0 {
                let delta = storm(tick as u32 / 16 - 1);
                // The case under test: a mid-edge query, validated from
                // its anchors on the last tick, with a re-weighted street
                // wholly inside the cells of its scope.
                let (_, snap) = world.snapshot();
                hit_warm += (0..clients)
                    .filter(|&c| {
                        let q = fleet.query(QueryId(c as u64)).unwrap();
                        let scope = q.processor().subnetwork_sites();
                        let inside = |w: &EdgeWeight| {
                            let rec = snap.net.edge(w.edge);
                            [rec.u, rec.v]
                                .iter()
                                .all(|&v| scope.contains(&snap.nvd.owner(v)))
                        };
                        pos_of(c, tick - 1).edge().is_some() && delta.weights.iter().any(inside)
                    })
                    .count();
                world.apply(&delta).unwrap();
            }
            let positions: Vec<NetPosition> = (0..clients).map(|c| pos_of(c, tick)).collect();
            fleet.tick_all(|id| positions[id.index()]);
            let (_, snap) = world.snapshot();
            for (c, &pos) in positions.iter().enumerate() {
                let q = fleet.query(QueryId(c as u64)).unwrap();
                let mut got = q.current_knn();
                let mut want = <insq_core::Network as insq_core::Space>::brute_knn(&snap, pos, k);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "client {c} tick {tick} threads {threads}");
                // The distances too: a list expanded over the old weights
                // can name the right sites at the wrong distances.
                let oracle = all_site_distances(&snap.net, &snap.sites, pos);
                for &(s, d) in q.processor().current_knn_with_dists() {
                    assert!(
                        (d - oracle[s.idx()]).abs() <= 1e-9 * (1.0 + d),
                        "client {c} tick {tick}: {s:?} at {d}, oracle {}",
                        oracle[s.idx()]
                    );
                }
                stream.push(got);
            }
        }
        assert!(
            hit_warm >= clients,
            "storms hit warm subnetworks: {hit_warm}"
        );
        streams.push(stream);
    }
    assert!(streams.iter().all(|s| *s == streams[0]));
}

/// Drives `clients` road-network queries through a fleet at each of
/// `thread_counts` across a full-publish epoch swap and asserts every
/// query's kNN and statistics equal a sequential processor's with a
/// manual rebind. Returns whether any fleet run fed a position on a
/// spawned worker (`hold_caller`: see [`SpawnProbe`]).
fn assert_network_fleet_matches_sequential(
    clients: usize,
    thread_counts: &[usize],
    hold_caller: bool,
) -> bool {
    let ticks = 50usize;
    let swap_at = 25usize;
    let k = 3usize;
    let speed = 0.12;

    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 10,
                rows: 10,
                ..GridConfig::default()
            },
            5,
        )
        .unwrap(),
    );
    let sites_a = SiteSet::new(&net, random_site_vertices(&net, 22, 5).unwrap()).unwrap();
    let sites_b = SiteSet::new(&net, random_site_vertices(&net, 18, 91).unwrap()).unwrap();
    let world_a = NetworkWorld::build(Arc::clone(&net), sites_a.clone());
    let world_b = world_a.with_sites(sites_b.clone());

    let tours: Vec<NetTrajectory> = (0..clients)
        .map(|c| NetTrajectory::random_tour(&net, 6, 100 + c as u64).unwrap())
        .collect();
    let pos_of = |c: usize, tick: usize| -> NetPosition {
        tours[c].position_looped(&net, speed * tick as f64 + 0.31 * c as f64)
    };

    // Sequential reference with a manual rebind.
    let reference: Vec<(Vec<insq_roadnet::SiteIdx>, QueryStats)> = (0..clients)
        .map(|c| {
            let mut p = NetInsProcessor::new(&world_a, InsConfig::new(k, 1.6)).unwrap();
            for tick in 0..ticks {
                if tick == swap_at {
                    p.rebind(&world_b);
                }
                p.tick(pos_of(c, tick));
            }
            (p.current_knn(), *p.stats())
        })
        .collect();

    let mut any_spawned = false;
    for &threads in thread_counts {
        let world = Arc::new(World::new(NetworkWorld::build(
            Arc::clone(&net),
            sites_a.clone(),
        )));
        let mut fleet: FleetEngine<NetworkWorld, NetFleetQuery> =
            FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 5, threads });
        for _ in 0..clients {
            fleet.register(NetFleetQuery::new(&world, InsConfig::new(k, 1.6)).unwrap());
        }
        let probe = SpawnProbe::new(hold_caller);
        for tick in 0..ticks {
            if tick == swap_at {
                let (_, snap) = world.snapshot();
                world.publish(snap.with_sites(sites_b.clone()));
            }
            let positions: Vec<NetPosition> = (0..clients).map(|c| pos_of(c, tick)).collect();
            let summary = fleet.tick_all(|id| {
                probe.observe();
                positions[id.index()]
            });
            assert_eq!(summary.ticked as usize, clients);
        }
        any_spawned |= probe.spawned();
        for (c, (ref_knn, ref_stats)) in reference.iter().enumerate() {
            let q = fleet.query(QueryId(c as u64)).unwrap();
            assert_eq!(
                q.current_knn(),
                *ref_knn,
                "client {c} knn, threads={threads}"
            );
            assert_eq!(
                *q.stats(),
                *ref_stats,
                "client {c} stats, threads={threads}"
            );
        }
    }
    any_spawned
}

#[test]
fn network_fleet_matches_sequential_across_epoch_swap() {
    let spawned = assert_network_fleet_matches_sequential(24, &[1, 2, 8], false);
    assert!(
        !spawned,
        "a fleet of 24 queries ticks on the calling thread alone"
    );
}

/// Above the inline-tick bound the five shards are drained by two
/// workers or more, so one `NetScratch` serves several shards on a
/// spawned worker, across the epoch swap, and the run is still the
/// sequential one bit for bit.
#[test]
fn network_fleet_above_the_inline_bound_matches_sequential_on_spawned_workers() {
    let parallel = parallel_host();
    let spawned = assert_network_fleet_matches_sequential(160, &[2, 8], parallel);
    assert_eq!(
        spawned, parallel,
        "a fleet of 160 queries ticks on spawned workers wherever there are cores for them"
    );
}
