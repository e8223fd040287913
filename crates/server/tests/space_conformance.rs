//! Cross-space conformance: ONE generic harness, both registered
//! `Space`s.
//!
//! For each space the same scenario is driven three ways and must agree:
//!
//! 1. **Brute force** — a sequential single-query run whose result is
//!    checked against `Space::brute_knn` at sampled ticks (including
//!    across the mid-run epoch swap);
//! 2. **Sequential reference** — the same run's final kNN and
//!    `QueryStats`, per client;
//! 3. **Fleet engine** — `tick_all` at thread counts 1/2/8, which must
//!    reproduce the sequential reference bit-for-bit, per client and in
//!    aggregate.
//!
//! The harness body is generic over `insq_workload::SpaceWorkload` and
//! contains no per-space branches; a new space gets this entire suite by
//! adding one `#[test]` instantiation line.

use std::sync::Arc;

use insq_core::{Euclidean, InsConfig, MovingKnn, Network, Processor, QueryStats};
use insq_server::{FleetConfig, FleetEngine, QueryId, SpaceQuery, World};
use insq_workload::{FleetScenario, SpaceWorkload};

/// Runs the full conformance protocol for one space over one scenario.
fn conformance<S: SpaceWorkload>(sc: &FleetScenario) {
    let fleet_state = S::make_fleet(sc);
    let idx_v0 = Arc::new(S::build_index(sc, &fleet_state, 0));
    let idx_v1 = Arc::new(S::build_index(sc, &fleet_state, 1));
    let swap_at = sc.updates.first().copied().unwrap_or(sc.ticks);

    // 1 + 2: sequential reference with brute-force agreement checks.
    let reference: Vec<(Vec<S::SiteId>, QueryStats)> = (0..sc.clients)
        .map(|c| {
            let mut p = Processor::<S, _>::new(Arc::clone(&idx_v0), InsConfig::new(sc.k, sc.rho))
                .expect("valid scenario config");
            for tick in 0..sc.ticks {
                if tick == swap_at {
                    p.rebind(Arc::clone(&idx_v1));
                }
                let pos = S::position(sc, &fleet_state, c, tick);
                p.tick(pos);
                if tick % 7 == 0 || tick + 1 == sc.ticks || tick == swap_at {
                    let live = if tick >= swap_at { &idx_v1 } else { &idx_v0 };
                    let mut got = p.current_knn();
                    got.sort_unstable();
                    let mut want = S::brute(live, pos, sc.k);
                    want.sort_unstable();
                    assert_eq!(
                        got, want,
                        "client {c} diverged from brute force at tick {tick}"
                    );
                }
            }
            (p.current_knn(), *p.stats())
        })
        .collect();

    let mut reference_total = QueryStats::default();
    for (_, s) in &reference {
        reference_total.merge(s);
    }
    // Sanity: the epoch swap really reached every client (1 initial + 1
    // post-swap recomputation at minimum).
    assert!(reference_total.recomputations >= 2 * sc.clients as u64);

    // 3: the fleet engine must be bit-identical at every thread count.
    for threads in [1usize, 2, 8] {
        let world = Arc::new(World::from_arc(Arc::clone(&idx_v0)));
        let mut fleet: FleetEngine<S::Index, SpaceQuery<S>> =
            FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 7, threads });
        for _ in 0..sc.clients {
            fleet.register(
                SpaceQuery::<S>::new(&world, InsConfig::new(sc.k, sc.rho)).expect("valid config"),
            );
        }
        for tick in 0..sc.ticks {
            if tick == swap_at {
                world.publish_arc(Arc::clone(&idx_v1));
            }
            let positions: Vec<S::Pos> = (0..sc.clients)
                .map(|c| S::position(sc, &fleet_state, c, tick))
                .collect();
            let summary = fleet.tick_all(|id| positions[id.index()]);
            assert_eq!(summary.ticked as usize, sc.clients, "tick {tick}");
            let expected_rebinds = if tick == swap_at { sc.clients } else { 0 };
            assert_eq!(
                summary.rebinds as usize, expected_rebinds,
                "the epoch bump must reach every query exactly once (tick {tick})"
            );
        }
        let mut fleet_total = QueryStats::default();
        for (c, (ref_knn, ref_stats)) in reference.iter().enumerate() {
            let q = fleet.query(QueryId(c as u64)).expect("registered");
            assert_eq!(
                q.current_knn(),
                *ref_knn,
                "kNN diverged for client {c} (threads={threads})"
            );
            assert_eq!(
                q.stats(),
                ref_stats,
                "stats diverged for client {c} (threads={threads})"
            );
            fleet_total.merge(q.stats());
        }
        assert_eq!(
            fleet_total, reference_total,
            "aggregate stats diverged (threads={threads})"
        );
    }
}

#[test]
fn euclidean_space_conforms() {
    conformance::<Euclidean>(&FleetScenario {
        clients: 40,
        n: 800,
        k: 4,
        ticks: 60,
        updates: vec![30],
        seed: 20160501,
        ..Default::default()
    });
}

#[test]
fn network_space_conforms() {
    // Network validation runs a Dijkstra per tick — smaller fleet, same
    // protocol, zero special cases in the harness above.
    conformance::<Network>(&FleetScenario {
        clients: 16,
        n: 120,
        k: 3,
        ticks: 40,
        updates: vec![20],
        speed: 0.2,
        seed: 20160502,
        ..Default::default()
    });
}
