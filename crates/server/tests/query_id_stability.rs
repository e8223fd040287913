//! Regression suite for the documented "`QueryId`s are never reused"
//! invariant: deregistering queries mid-run must not disturb the
//! surviving queries' results or statistics, must keep per-shard stats
//! merging in shard order, and must never hand a departed query's id to
//! a later registration.
//!
//! (The same invariant over a *dropped TCP session* is covered by
//! `insq-net`'s `tests/loopback_soak.rs`.)

use std::collections::HashMap;
use std::sync::Arc;

use insq_core::{InsConfig, MovingKnn, QueryStats, TickOutcome};
use insq_server::{FleetConfig, FleetEngine, InsFleetQuery, QueryId, TickPolicy, TickPos, World};
use insq_workload::{FleetScenario, SpaceWorkload};

type S = insq_core::Euclidean;

fn scenario() -> FleetScenario {
    FleetScenario {
        clients: 12,
        n: 400,
        k: 4,
        ticks: 30,
        updates: vec![],
        seed: 20160720,
        ..Default::default()
    }
}

fn new_engine(
    world: &Arc<World<insq_index::VorTree>>,
    threads: usize,
) -> FleetEngine<insq_index::VorTree, InsFleetQuery> {
    FleetEngine::new(Arc::clone(world), FleetConfig { shards: 5, threads })
}

fn register_n(
    engine: &mut FleetEngine<insq_index::VorTree, InsFleetQuery>,
    world: &Arc<World<insq_index::VorTree>>,
    sc: &FleetScenario,
    n: usize,
) -> Vec<QueryId> {
    (0..n)
        .map(|_| engine.register(InsFleetQuery::new(world, InsConfig::new(sc.k, sc.rho)).unwrap()))
        .collect()
}

#[test]
fn ids_are_sequential_and_never_reused() {
    let sc = scenario();
    let fleet_state = S::make_fleet(&sc);
    let world = Arc::new(World::new(S::build_index(&sc, &fleet_state, 0)));
    let mut engine = new_engine(&world, 1);
    let ids = register_n(&mut engine, &world, &sc, 8);
    assert_eq!(ids, (0..8u64).map(QueryId).collect::<Vec<_>>());

    // Deregister from the middle and both ends.
    for gone in [0u64, 3, 7] {
        assert!(engine.deregister(QueryId(gone)).is_some());
    }
    assert_eq!(engine.len(), 5);
    assert_eq!(
        engine.ids(),
        [1u64, 2, 4, 5, 6].map(QueryId).to_vec(),
        "survivors keep their ids, ascending"
    );
    // Deregistering twice is a no-op, not a panic.
    assert!(engine.deregister(QueryId(3)).is_none());

    // New registrations continue the sequence — departed ids are dead
    // forever, so an id can never silently alias a different query.
    let fresh = register_n(&mut engine, &world, &sc, 3);
    assert_eq!(fresh, [8u64, 9, 10].map(QueryId).to_vec());
    assert_eq!(
        engine.ids(),
        [1u64, 2, 4, 5, 6, 8, 9, 10].map(QueryId).to_vec()
    );
}

/// Mid-run churn (deregister two queries, register one new) leaves every
/// surviving query's kNN stream and statistics bit-identical to the
/// run without churn, and keeps shard-order stats merging intact — at
/// multiple thread counts.
#[test]
fn mid_run_churn_leaves_survivors_bit_identical() {
    let sc = scenario();
    // A spare trajectory for the late query.
    let sc_fleet = FleetScenario {
        clients: sc.clients + 1,
        ..sc.clone()
    };
    let fleet_state = S::make_fleet(&sc_fleet);
    let idx = Arc::new(S::build_index(&sc, &fleet_state, 0));
    let churn_at = sc.ticks / 2;
    let dropped = [QueryId(2), QueryId(9)];

    // Reference: no churn, every query runs the full scenario.
    let world = Arc::new(World::from_arc(Arc::clone(&idx)));
    let mut plain = new_engine(&world, 1);
    register_n(&mut plain, &world, &sc, sc.clients);
    for tick in 0..sc.ticks {
        let positions: Vec<_> = (0..sc.clients)
            .map(|c| S::position(&sc, &fleet_state, c, tick))
            .collect();
        plain.tick_all(|id| positions[id.index()]);
    }
    let reference: HashMap<u64, (Vec<u32>, QueryStats)> = plain
        .ids()
        .into_iter()
        .map(|id| {
            let q = plain.query(id).unwrap();
            let knn = q.current_knn().into_iter().map(|s| s.0).collect();
            (id.0, (knn, *q.stats()))
        })
        .collect();

    for threads in [1usize, 2, 8] {
        let world = Arc::new(World::from_arc(Arc::clone(&idx)));
        let mut engine = new_engine(&world, threads);
        register_n(&mut engine, &world, &sc, sc.clients);
        let mut outcomes: Vec<(QueryId, TickOutcome)> = Vec::new();
        for tick in 0..sc.ticks {
            if tick == churn_at {
                for &gone in &dropped {
                    let q = engine.deregister(gone).expect("was live");
                    // The departed query leaves with its cumulative
                    // stats; they match the reference mid-run.
                    assert_eq!(q.stats().ticks, churn_at as u64);
                }
                let late = engine
                    .register(InsFleetQuery::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap());
                assert_eq!(late, QueryId(sc.clients as u64), "never reused");
            }
            let positions: Vec<_> = (0..=sc.clients)
                .map(|c| S::position(&sc, &fleet_state, c, tick))
                .collect();
            outcomes.clear();
            let summary = engine.tick(
                TickPolicy::Barrier,
                |id| TickPos::Fresh(positions[id.index()]),
                &mut outcomes,
            );
            assert_eq!(summary.ticked as usize, engine.len());
            // The sink hears of exactly the live queries.
            let mut reported: Vec<QueryId> = outcomes.iter().map(|&(q, _)| q).collect();
            reported.sort_unstable();
            assert_eq!(reported, engine.ids());
        }

        // Survivors: identical kNN and stats, as if nothing happened.
        for id in engine.ids() {
            if id.0 == sc.clients as u64 {
                continue; // the late query has no reference twin
            }
            let q = engine.query(id).unwrap();
            let knn: Vec<u32> = q.current_knn().into_iter().map(|s| s.0).collect();
            let (ref_knn, ref_stats) = &reference[&id.0];
            assert_eq!(&knn, ref_knn, "kNN diverged for {id:?} ({threads} threads)");
            assert_eq!(q.stats(), ref_stats, "stats diverged for {id:?}");
        }

        // Shard-order stats merging is reproducible: recompute the
        // per-shard merge from the per-query stats (round-robin by id,
        // registration order within a shard) and compare.
        let stats = engine.stats();
        let shards = stats.per_shard.len();
        let mut expect = vec![QueryStats::default(); shards];
        for id in engine.ids() {
            expect[id.index() % shards].merge(engine.query(id).unwrap().stats());
        }
        assert_eq!(stats.per_shard, expect, "shard merge order");
        let mut total = QueryStats::default();
        for s in &expect {
            total.merge(s);
        }
        assert_eq!(stats.total, total);
        assert_eq!(stats.queries, sc.clients - dropped.len() + 1);
    }
}
