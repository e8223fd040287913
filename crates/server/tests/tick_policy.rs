//! The tick contract: `FleetEngine::tick(policy, positions, sink)`.
//!
//! * `Barrier` requires a fresh position from every live query (its
//!   bit-identity to sequential execution at 1/2/8 threads, across an
//!   epoch swap, is `tests/fleet_equivalence.rs`).
//! * `Deadline { max_staleness }` re-serves stale queries (their result
//!   stands, disposition `Stale`), never holds one stale past the
//!   bound (force-tick → `Refreshed`, which also propagates epoch
//!   swaps), stays bit-identical across thread counts, and converges
//!   to exact kNN once position updates resume.
//! * Workers take shards as they become free, the caller among them: a
//!   stalled worker holds back its own shard only.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::{InsConfig, MovingKnn};
use insq_geom::{Point, Trajectory};
use insq_index::VorTree;
use insq_server::{
    FleetConfig, FleetEngine, InsFleetQuery, QueryId, TickDisposition, TickPolicy, TickPos,
    TickSummary, World,
};
use insq_workload::FleetScenario;

const CLIENTS: usize = 60;
const TICKS: usize = 60;
const SWAP_AT: usize = 30;

fn scenario() -> FleetScenario {
    FleetScenario {
        clients: CLIENTS,
        n: 1_000,
        k: 4,
        ticks: TICKS,
        updates: vec![SWAP_AT],
        seed: 4242,
        ..Default::default()
    }
}

fn build_fleet(
    world: &Arc<World<VorTree>>,
    sc: &FleetScenario,
    threads: usize,
    shards: usize,
) -> FleetEngine<VorTree, InsFleetQuery> {
    let mut fleet = FleetEngine::new(Arc::clone(world), FleetConfig { shards, threads });
    for _ in 0..sc.clients {
        fleet.register(InsFleetQuery::new(world, InsConfig::new(sc.k, sc.rho)).unwrap());
    }
    fleet
}

/// A client's tick-`t` position, shared by every run of one test.
fn positions(sc: &FleetScenario, trajs: &[Trajectory], tick: usize) -> Vec<Point> {
    (0..sc.clients)
        .map(|c| sc.position(&trajs[c], c, tick))
        .collect()
}

/// Which clients send no update at `tick`: a deterministic pure pattern
/// so every thread count replays the identical schedule. Roughly a
/// third of the fleet is silent at any time during the outage window.
fn silent(c: usize, tick: usize) -> bool {
    (20..44).contains(&tick) && (c + tick / 6).is_multiple_of(3)
}

struct DeadlineRun {
    dispositions: Vec<Vec<(QueryId, TickDisposition)>>,
    summaries: Vec<TickSummary>,
    final_knn: Vec<Vec<insq_voronoi::SiteId>>,
}

fn run_deadline(
    sc: &FleetScenario,
    idx_v0: &Arc<VorTree>,
    idx_v1: &Arc<VorTree>,
    trajs: &[Trajectory],
    threads: usize,
    shards: usize,
    max_staleness: u64,
) -> DeadlineRun {
    let world = Arc::new(World::from_arc(Arc::clone(idx_v0)));
    let mut fleet = build_fleet(&world, sc, threads, shards);
    // What the serving layer would hold for each client: its last
    // delivered position.
    let mut held: Vec<Point> = positions(sc, trajs, 0);
    let mut dispositions = Vec::new();
    let mut summaries = Vec::new();
    for tick in 0..sc.ticks {
        if tick == SWAP_AT {
            world.publish_arc(Arc::clone(idx_v1));
        }
        let fresh = positions(sc, trajs, tick);
        let feed: Vec<TickPos<Point>> = (0..sc.clients)
            .map(|c| {
                if tick > 0 && silent(c, tick) {
                    TickPos::Held(held[c])
                } else {
                    TickPos::Fresh(fresh[c])
                }
            })
            .collect();
        let mut sink: Vec<(QueryId, TickDisposition)> = Vec::new();
        let summary = fleet.tick(
            TickPolicy::Deadline { max_staleness },
            |id| feed[id.index()],
            &mut sink,
        );
        for c in 0..sc.clients {
            if let TickPos::Fresh(p) = feed[c] {
                held[c] = p;
            }
        }
        dispositions.push(sink);
        summaries.push(summary);
    }
    DeadlineRun {
        dispositions,
        summaries,
        final_knn: (0..sc.clients)
            .map(|c| fleet.query(QueryId(c as u64)).unwrap().current_knn())
            .collect(),
    }
}

#[test]
fn deadline_re_serves_bounds_staleness_and_converges() {
    let sc = scenario();
    let idx_v0 = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let idx_v1 = Arc::new(VorTree::build(sc.points(1), sc.clip_window()).unwrap());
    let trajs: Vec<Trajectory> = (0..sc.clients).map(|c| sc.client_trajectory(c)).collect();
    let max_staleness = 3u64;

    let run = run_deadline(&sc, &idx_v0, &idx_v1, &trajs, 1, 7, max_staleness);

    // Per-tick bookkeeping is self-consistent and some of each kind
    // actually happened.
    let mut saw_stale = 0u64;
    let mut saw_refreshed = 0u64;
    for (tick, (sink, summary)) in run.dispositions.iter().zip(&run.summaries).enumerate() {
        assert_eq!(sink.len(), sc.clients, "one disposition per query");
        let fresh = sink
            .iter()
            .filter(|(_, d)| matches!(d, TickDisposition::Fresh(_)))
            .count() as u64;
        let refreshed = sink
            .iter()
            .filter(|(_, d)| matches!(d, TickDisposition::Refreshed(_)))
            .count() as u64;
        let stale = sink
            .iter()
            .filter(|(_, d)| matches!(d, TickDisposition::Stale))
            .count() as u64;
        assert_eq!(summary.ticked, fresh + refreshed, "t={tick}");
        assert_eq!(summary.refreshed, refreshed, "t={tick}");
        assert_eq!(summary.stale, stale, "t={tick}");
        saw_stale += stale;
        saw_refreshed += refreshed;
    }
    assert!(saw_stale > 0, "the outage produced re-serves");
    assert!(saw_refreshed > 0, "the outage outlasted max_staleness");

    // No client is ever re-served more than max_staleness ticks in a
    // row — the deadline's whole point.
    let mut streak = vec![0u64; sc.clients];
    for sink in &run.dispositions {
        for &(id, d) in sink {
            let s = &mut streak[id.index()];
            match d {
                TickDisposition::Stale => {
                    *s += 1;
                    assert!(
                        *s <= max_staleness,
                        "{id:?} held stale past the deadline ({s} > {max_staleness})"
                    );
                }
                _ => *s = 0,
            }
        }
    }

    // The epoch swap reaches every query within max_staleness ticks of
    // SWAP_AT even though a third of the fleet is silent.
    let rebinds_through_deadline: u64 = run.summaries[SWAP_AT..=SWAP_AT + max_staleness as usize]
        .iter()
        .map(|s| s.rebinds)
        .sum();
    assert_eq!(
        rebinds_through_deadline, sc.clients as u64,
        "force-ticks must propagate the epoch swap to silent queries"
    );

    // Convergence: updates resumed at tick 44; every query's final
    // answer is the exact kNN of its final position on the new epoch.
    for (c, traj) in trajs.iter().enumerate().take(sc.clients) {
        let pos = sc.position(traj, c, sc.ticks - 1);
        let mut got = run.final_knn[c].clone();
        got.sort_unstable();
        let mut want = idx_v1.voronoi().knn_brute(pos, sc.k);
        want.sort_unstable();
        assert_eq!(got, want, "client {c} converged after the outage");
    }
}

#[test]
fn deadline_is_bit_identical_across_thread_counts() {
    let sc = scenario();
    let idx_v0 = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let idx_v1 = Arc::new(VorTree::build(sc.points(1), sc.clip_window()).unwrap());
    let trajs: Vec<Trajectory> = (0..sc.clients).map(|c| sc.client_trajectory(c)).collect();

    let reference = run_deadline(&sc, &idx_v0, &idx_v1, &trajs, 1, 7, 3);
    for threads in [2usize, 8] {
        let run = run_deadline(&sc, &idx_v0, &idx_v1, &trajs, threads, 7, 3);
        assert_eq!(
            run.dispositions, reference.dispositions,
            "dispositions diverged (threads={threads})"
        );
        assert_eq!(
            run.summaries, reference.summaries,
            "summaries diverged (threads={threads})"
        );
        assert_eq!(
            run.final_knn, reference.final_knn,
            "results diverged (threads={threads})"
        );
    }
}

#[test]
fn zero_staleness_always_reticks_held_queries() {
    let sc = scenario();
    let idx = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let world = Arc::new(World::from_arc(Arc::clone(&idx)));
    let mut fleet = build_fleet(&world, &sc, 2, 7);
    let p0 = positions(
        &sc,
        &(0..sc.clients)
            .map(|c| sc.client_trajectory(c))
            .collect::<Vec<_>>(),
        0,
    );
    fleet.tick(
        TickPolicy::Barrier,
        |id| TickPos::Fresh(p0[id.index()]),
        &mut (),
    );
    // Everyone held, max_staleness = 0: every query force-ticks.
    let summary = fleet.tick(
        TickPolicy::Deadline { max_staleness: 0 },
        |id| TickPos::Held(p0[id.index()]),
        &mut (),
    );
    assert_eq!(summary.ticked, sc.clients as u64);
    assert_eq!(summary.refreshed, sc.clients as u64);
    assert_eq!(summary.stale, 0);
}

#[test]
#[should_panic(expected = "TickPolicy::Barrier requires a fresh position")]
fn barrier_panics_on_held_positions() {
    let sc = scenario();
    let idx = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let world = Arc::new(World::from_arc(idx));
    let mut fleet = build_fleet(&world, &sc, 1, 4);
    fleet.tick(
        TickPolicy::Barrier,
        |_| TickPos::<Point>::Held(Point::new(1.0, 1.0)),
        &mut (),
    );
}

/// Spins until `cond` holds; a test that would otherwise hang fails.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

/// A worker that stalls holds back only the shard it is ticking: the
/// other workers — the caller is one of them — take every shard it has
/// not started, and the tick's results are what a sequential engine
/// gives. (With a fixed block of shards per worker the stalled worker's
/// block would wait for it.)
#[test]
fn a_stalled_worker_holds_back_only_its_own_shard() {
    const SHARDS: usize = 6;
    // Above the engine's inline-tick bound (128 live queries): a smaller
    // fleet ticks on the caller alone and spawns no worker to stall.
    let sc = FleetScenario {
        clients: 180,
        ..scenario()
    };
    let per_shard = sc.clients / SHARDS;
    let idx = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).unwrap());
    let trajs: Vec<Trajectory> = (0..sc.clients).map(|c| sc.client_trajectory(c)).collect();
    let pos = positions(&sc, &trajs, 0);

    let world = Arc::new(World::from_arc(Arc::clone(&idx)));
    let mut reference = build_fleet(&world, &sc, 1, SHARDS);
    let mut want: Vec<(QueryId, TickDisposition)> = Vec::new();
    let want_summary = reference.tick(
        TickPolicy::Barrier,
        |id| TickPos::Fresh(pos[id.index()]),
        &mut want,
    );

    // The engine clamps its workers to the cores it found; with one core
    // the caller ticks alone and there is nobody to stall.
    let parallel = std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2);
    let caller = std::thread::current().id();
    let stalled = AtomicBool::new(false);
    let fed = AtomicUsize::new(0);
    let mut fleet = build_fleet(&world, &sc, 2, SHARDS);
    let mut got: Vec<(QueryId, TickDisposition)> = Vec::new();
    let summary = fleet.tick(
        TickPolicy::Barrier,
        |id| {
            if std::thread::current().id() == caller {
                if parallel {
                    wait_until("a second worker takes a shard", || {
                        stalled.load(Ordering::SeqCst)
                    });
                }
            } else if !stalled.swap(true, Ordering::SeqCst) {
                // The spawned worker's first query: stall until every
                // query of every other shard has been fed.
                wait_until("the other shards are ticked meanwhile", || {
                    fed.load(Ordering::SeqCst) == sc.clients - per_shard
                });
            }
            fed.fetch_add(1, Ordering::SeqCst);
            TickPos::Fresh(pos[id.index()])
        },
        &mut got,
    );
    assert_eq!(fed.load(Ordering::SeqCst), sc.clients);
    assert_eq!(summary, want_summary);
    assert_eq!(got, want);
}
