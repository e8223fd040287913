//! Loopback determinism soak: N clients over **real TCP**, with a
//! mid-run `World::apply` delta epoch, must produce per-client kNN
//! streams **bit-identical** to the in-process `FleetEngine` run of the
//! same `FleetScenario` — for the Euclidean and road-network spaces, at
//! two engine worker-thread counts each — plus the dropped-session /
//! never-reused-`QueryId` regression over a real socket.
//!
//! The protocol makes this well-defined: the server ticks the fleet only
//! when every live session has a fresh position, so driving the clients
//! in lockstep (send all updates, then read all results) pins exactly
//! which server tick every position lands in, and the test can apply the
//! delta epoch at a deterministic tick boundary (after collecting tick
//! `t-1`'s results, before sending tick `t`'s updates).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::{DeltaIndex, InsConfig, MovingKnn, TickOutcome};
use insq_index::SiteDelta;
use insq_net::{NetClient, NetServer, NetServerConfig, WireOutcome, WireSpace};
use insq_roadnet::{EdgeId, EdgeWeight, NetDelta, NetSiteDelta, SiteIdx, VertexId};
use insq_server::{FleetConfig, FleetEngine, QueryId, SpaceQuery, TickPolicy, TickPos, World};
use insq_workload::{FleetScenario, SpaceWorkload};

/// One client's observed stream: `(epoch, knn wire ids, outcome)` per
/// tick.
type Stream = Vec<(u64, Vec<u32>, WireOutcome)>;

/// The in-process reference: the same scenario through `FleetEngine`
/// directly, recording every client's per-tick result.
fn inproc_streams<S>(
    sc: &FleetScenario,
    fleet_state: &S::Fleet,
    idx0: &Arc<S::Index>,
    threads: usize,
    delta_at: usize,
    delta: &<S::Index as DeltaIndex>::Delta,
) -> Vec<Stream>
where
    S: SpaceWorkload + WireSpace,
    S::Index: DeltaIndex,
    <S::Index as DeltaIndex>::Error: std::fmt::Debug,
{
    let world = Arc::new(World::from_arc(Arc::clone(idx0)));
    let mut engine: FleetEngine<S::Index, SpaceQuery<S>> =
        FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 8, threads });
    let ids: Vec<QueryId> = (0..sc.clients)
        .map(|_| {
            engine.register(
                SpaceQuery::<S>::new(&world, InsConfig::new(sc.k, sc.rho)).expect("valid config"),
            )
        })
        .collect();
    let mut streams: Vec<Stream> = vec![Vec::new(); sc.clients];
    let mut outcomes: Vec<(QueryId, TickOutcome)> = Vec::new();
    for tick in 0..sc.ticks {
        if tick == delta_at {
            world.apply(delta).expect("delta applies");
        }
        let positions: Vec<S::Pos> = (0..sc.clients)
            .map(|c| S::position(sc, fleet_state, c, tick))
            .collect();
        outcomes.clear();
        let summary = engine.tick(
            TickPolicy::Barrier,
            |id| TickPos::Fresh(positions[id.index()]),
            &mut outcomes,
        );
        let by_id: HashMap<u64, TickOutcome> = outcomes.iter().map(|&(q, o)| (q.0, o)).collect();
        for (c, qid) in ids.iter().enumerate() {
            let q = engine.query(*qid).expect("live");
            let knn: Vec<u32> = q.current_knn().into_iter().map(S::id_to_wire).collect();
            streams[c].push((summary.epoch.0, knn, WireOutcome::from(by_id[&qid.0])));
        }
    }
    streams
}

/// Spin-waits for `cond` (session registration/cleanup is asynchronous
/// on the server side; everything it gates is then deterministic).
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The TCP run: same scenario, same engine configuration, over
/// loopback sockets in lockstep.
fn tcp_streams<S>(
    sc: &FleetScenario,
    fleet_state: &S::Fleet,
    idx0: &Arc<S::Index>,
    threads: usize,
    delta_at: usize,
    delta: &<S::Index as DeltaIndex>::Delta,
) -> Vec<Stream>
where
    S: SpaceWorkload + WireSpace,
    S::Index: DeltaIndex,
    <S::Index as DeltaIndex>::Error: std::fmt::Debug,
{
    let world = Arc::new(World::from_arc(Arc::clone(idx0)));
    let server: NetServer<S> = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world),
        NetServerConfig {
            fleet: FleetConfig { shards: 8, threads },
            min_clients: sc.clients,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");

    // Sequential connect + registration barrier per client pins the
    // client-index ↔ QueryId mapping.
    let mut clients: Vec<NetClient> = Vec::with_capacity(sc.clients);
    for c in 0..sc.clients {
        let mut cl = NetClient::connect(server.local_addr()).expect("connect");
        cl.register::<S>(sc.k, sc.rho, S::position(sc, fleet_state, c, 0))
            .expect("register");
        wait_for("registration", || server.live_sessions() == c + 1);
        clients.push(cl);
    }

    let mut streams: Vec<Stream> = vec![Vec::new(); sc.clients];
    for tick in 0..sc.ticks {
        if tick == delta_at {
            // All of tick t-1's results are in: the server is idle at the
            // tick boundary, so this lands before tick t everywhere.
            server.world().apply(delta).expect("delta applies");
        }
        if tick > 0 {
            for (c, cl) in clients.iter_mut().enumerate() {
                cl.update::<S>(S::position(sc, fleet_state, c, tick))
                    .expect("update");
            }
        }
        for (c, cl) in clients.iter_mut().enumerate() {
            let upd = cl.next_result().expect("result");
            // The epoch swap is pushed exactly once, right before the
            // first result of the new epoch.
            let expect_notify: &[u64] = if tick == delta_at { &[1] } else { &[] };
            assert_eq!(upd.notified, expect_notify, "client {c} tick {tick}");
            streams[c].push((upd.epoch, upd.ids, upd.outcome));
        }
    }

    for cl in &mut clients {
        cl.deregister().expect("clean close");
    }
    wait_for("drain", || server.live_sessions() == 0);
    let (bytes_in, bytes_out) = server.wire_bytes();
    assert!(bytes_in > 0 && bytes_out > 0, "bytes actually moved");
    server.shutdown();
    streams
}

/// Full protocol: TCP streams must equal the in-process streams
/// bit-for-bit, at every thread count asked for.
fn soak<S>(sc: &FleetScenario, make_delta: impl Fn(&S::Index) -> <S::Index as DeltaIndex>::Delta)
where
    S: SpaceWorkload + WireSpace,
    S::Index: DeltaIndex,
    <S::Index as DeltaIndex>::Error: std::fmt::Debug,
{
    let fleet_state = S::make_fleet(sc);
    let idx0 = Arc::new(S::build_index(sc, &fleet_state, 0));
    let delta = make_delta(&idx0);
    let delta_at = sc.ticks / 2;

    let reference = inproc_streams::<S>(sc, &fleet_state, &idx0, 1, delta_at, &delta);
    for threads in [1usize, 4] {
        let inproc = inproc_streams::<S>(sc, &fleet_state, &idx0, threads, delta_at, &delta);
        assert_eq!(
            inproc, reference,
            "in-process determinism at {threads} threads"
        );
        let tcp = tcp_streams::<S>(sc, &fleet_state, &idx0, threads, delta_at, &delta);
        for (c, (got, want)) in tcp.iter().zip(reference.iter()).enumerate() {
            assert_eq!(
                got, want,
                "TCP stream diverged for client {c} at {threads} engine threads"
            );
        }
    }
}

fn euclidean_scenario() -> FleetScenario {
    FleetScenario {
        clients: 10,
        n: 400,
        k: 4,
        ticks: 30,
        updates: vec![],
        seed: 20160716,
        ..Default::default()
    }
}

#[test]
fn euclidean_tcp_streams_match_in_process_across_delta_epoch() {
    soak::<insq_core::Euclidean>(&euclidean_scenario(), |_idx| SiteDelta {
        added: vec![
            insq_geom::Point::new(41.5, 58.25),
            insq_geom::Point::new(77.0, 12.5),
        ],
        removed: vec![insq_voronoi::SiteId(7), insq_voronoi::SiteId(120)],
    });
}

#[test]
fn network_tcp_streams_match_in_process_across_delta_epoch() {
    let sc = FleetScenario {
        clients: 6,
        n: 90,
        k: 3,
        ticks: 20,
        speed: 0.25,
        updates: vec![],
        seed: 20160717,
        ..euclidean_scenario()
    };
    soak::<insq_core::Network>(&sc, |idx| {
        // Insert a site at the first free vertex, remove site 1 — both
        // derived deterministically from the shared initial snapshot —
        // and congest two edges 1.8x, so the mid-run epoch is a full
        // traffic delta (site churn + re-weights) over the wire.
        let free = (0..idx.net.num_vertices() as u32)
            .map(VertexId)
            .find(|&v| idx.sites.site_at(v).is_none())
            .expect("a free vertex exists");
        NetDelta::from(NetSiteDelta {
            added: vec![free],
            removed: vec![SiteIdx(1)],
        })
        .with_weights(vec![
            EdgeWeight::scaled(&idx.net, EdgeId(0), 1.8),
            EdgeWeight::scaled(&idx.net, EdgeId(3), 1.8),
        ])
    });
}

/// The "QueryIds are never reused" invariant over a real socket: a
/// session dropped mid-run (raw disconnect, no `Deregister`) frees its
/// query, the surviving sessions' streams and statistics are unaffected
/// (bit-identical to an in-process run doing the same deregistration),
/// and a later registration gets a *fresh* id.
#[test]
fn dropped_tcp_session_keeps_survivor_streams_and_ids_stable() {
    type S = insq_core::Euclidean;
    let sc = FleetScenario {
        clients: 6,
        n: 300,
        k: 3,
        ticks: 20,
        updates: vec![],
        seed: 20160718,
        ..Default::default()
    };
    let drop_client = 2usize;
    let drop_at = 10usize; // ticks the dropped client participates in
    let late_client = sc.clients; // joins for ticks drop_at..
                                  // One spare trajectory for the late client (per-client trajectories
                                  // derive from the client index alone, so 0..clients are unchanged).
    let sc_fleet = FleetScenario {
        clients: sc.clients + 1,
        ..sc.clone()
    };
    let fleet_state = <S as SpaceWorkload>::make_fleet(&sc_fleet);
    let idx0 = Arc::new(<S as SpaceWorkload>::build_index(&sc, &fleet_state, 0));

    // ---- In-process reference doing the same mid-run churn.
    let world = Arc::new(World::from_arc(Arc::clone(&idx0)));
    let mut engine: FleetEngine<<S as insq_core::Space>::Index, SpaceQuery<S>> = FleetEngine::new(
        Arc::clone(&world),
        FleetConfig {
            shards: 4,
            threads: 2,
        },
    );
    for _ in 0..sc.clients {
        engine.register(SpaceQuery::<S>::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap());
    }
    let mut ref_streams: Vec<Stream> = vec![Vec::new(); sc.clients + 1];
    let mut outcomes: Vec<(QueryId, TickOutcome)> = Vec::new();
    for tick in 0..sc.ticks {
        if tick == drop_at {
            let gone = engine.deregister(QueryId(drop_client as u64));
            assert!(gone.is_some());
            let late = engine
                .register(SpaceQuery::<S>::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap());
            assert_eq!(late, QueryId(sc.clients as u64), "fresh id, never reused");
        }
        let positions: Vec<_> = (0..=sc.clients)
            .map(|c| <S as SpaceWorkload>::position(&sc, &fleet_state, c, tick))
            .collect();
        outcomes.clear();
        let summary = engine.tick(
            TickPolicy::Barrier,
            |id| TickPos::Fresh(positions[id.index()]),
            &mut outcomes,
        );
        let by_id: HashMap<u64, TickOutcome> = outcomes.iter().map(|&(q, o)| (q.0, o)).collect();
        for c in 0..=sc.clients {
            if c == drop_client && tick >= drop_at {
                continue;
            }
            let Some(q) = engine.query(QueryId(c as u64)) else {
                continue; // the late client before drop_at
            };
            let knn: Vec<u32> = q
                .current_knn()
                .into_iter()
                .map(<S as WireSpace>::id_to_wire)
                .collect();
            ref_streams[c].push((summary.epoch.0, knn, WireOutcome::from(by_id[&(c as u64)])));
        }
    }
    let ref_stats = engine.stats();

    // ---- The same churn over TCP.
    let world = Arc::new(World::from_arc(Arc::clone(&idx0)));
    let server: NetServer<S> = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world),
        NetServerConfig {
            fleet: FleetConfig {
                shards: 4,
                threads: 2,
            },
            min_clients: sc.clients,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut clients: Vec<Option<NetClient>> = Vec::new();
    for c in 0..sc.clients {
        let mut cl = NetClient::connect(server.local_addr()).unwrap();
        cl.register::<S>(
            sc.k,
            sc.rho,
            <S as SpaceWorkload>::position(&sc, &fleet_state, c, 0),
        )
        .unwrap();
        wait_for("registration", || server.live_sessions() == c + 1);
        clients.push(Some(cl));
    }
    assert_eq!(
        server.query_ids(),
        (0..sc.clients as u64).map(QueryId).collect::<Vec<_>>()
    );

    let mut tcp_streams: Vec<Stream> = vec![Vec::new(); sc.clients + 1];
    for tick in 0..sc.ticks {
        if tick == drop_at {
            // Raw disconnect — no Deregister frame. The server must
            // notice, deregister QueryId(drop_client), and keep ticking
            // the survivors.
            clients[drop_client] = None;
            wait_for("drop cleanup", || server.live_sessions() == sc.clients - 1);
            let mut ids = server.query_ids();
            assert!(!ids.contains(&QueryId(drop_client as u64)), "id freed");
            // A new session gets a fresh id — never drop_client's.
            let mut late = NetClient::connect(server.local_addr()).unwrap();
            late.register::<S>(
                sc.k,
                sc.rho,
                <S as SpaceWorkload>::position(&sc, &fleet_state, late_client, tick),
            )
            .unwrap();
            wait_for("late registration", || server.live_sessions() == sc.clients);
            ids = server.query_ids();
            assert!(ids.contains(&QueryId(sc.clients as u64)), "fresh id");
            assert!(!ids.contains(&QueryId(drop_client as u64)), "no reuse");
            clients.push(Some(late));
        }
        for (c, slot) in clients.iter_mut().enumerate() {
            let Some(cl) = slot else { continue };
            let pos_index = if c == sc.clients { late_client } else { c };
            // The late client's registration already carried this
            // tick's position.
            if tick > 0 && !(c == sc.clients && tick == drop_at) {
                cl.update::<S>(<S as SpaceWorkload>::position(
                    &sc,
                    &fleet_state,
                    pos_index,
                    tick,
                ))
                .unwrap();
            }
        }
        for (c, slot) in clients.iter_mut().enumerate() {
            let Some(cl) = slot else { continue };
            let stream_index = if c == sc.clients { late_client } else { c };
            let upd = cl.next_result().expect("result");
            tcp_streams[stream_index].push((upd.epoch, upd.ids, upd.outcome));
        }
    }

    assert_eq!(tcp_streams, ref_streams, "survivor + late streams");
    // Statistics merge per shard, in shard order, exactly as in-process.
    let tcp_stats = server.stats();
    assert_eq!(tcp_stats.per_shard, ref_stats.per_shard, "shard merge");
    assert_eq!(tcp_stats.total, ref_stats.total, "fleet totals");
    assert_eq!(tcp_stats.queries, ref_stats.queries);
    server.shutdown();
}
