//! The router under descriptor exhaustion. `insq-net`'s suite of the
//! same name pins the accept back-off for `NetServer`; the router adds a
//! second place a descriptor is needed mid-session — a leg's first
//! `connect`, when a session is the first to need that backend (one leg
//! per backend carries all its sessions, so a handoff into a region
//! whose leg is up needs none) — so this pins:
//!
//! * **liveness, no spin**: established sessions keep streaming through
//!   the router while a victim connection sits un-acceptable in its
//!   backlog, and over an idle window the process burns far less CPU
//!   than wall clock;
//! * **isolation**: a handoff into the region nobody has used yet, whose
//!   leg `connect` fails with `EMFILE`, fails only that session, with an
//!   explicit `Unavailable` — and the session's old backend is told, so
//!   its barrier does not wait on the session;
//! * **recovery**: once descriptors free up the backlogged client is
//!   accepted and served without reconnecting.
//!
//! Its own test binary, and one `#[test]`, on purpose: the fd hoard is
//! process-global state, and a test running concurrently would see
//! spurious `EMFILE`.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_cluster::{ClusterPlan, RouterConfig, RouterServer};
use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::wire::{ErrorCode, Message};
use insq_net::{
    sys, FrameBuf, NetClient, NetError, NetServer, NetServerConfig, SpaceKind, WirePos,
};
use insq_server::{GridPartitioner, RegionId, World};
use insq_workload::Distribution;

const EMFILE: i32 = 24;
const K: usize = 4;
const MARGIN: f64 = 30.0;

/// Opens `/dev/null` until the process hits `EMFILE`, then returns the
/// hoard. Dropping entries frees descriptors one by one.
fn hoard_all_fds() -> Vec<File> {
    let mut hoard = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => hoard.push(f),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EMFILE), "hoarding: {e}");
                return hoard;
            }
        }
        assert!(hoard.len() < 100_000, "fd limit never engaged");
    }
}

#[test]
fn router_survives_fd_exhaustion_at_accept_and_at_handoff() {
    sys::set_open_file_limit(256).unwrap();
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let sites = Distribution::Uniform.generate(400, &bounds, 23);

    // Two certifying strip backends (border at x = 50) behind a
    // router.
    let part = Arc::new(GridPartitioner::strips(bounds, 2));
    let plan = ClusterPlan::new(part.clone(), MARGIN, sites.clone());
    let backends: Vec<NetServer<Euclidean>> = (0..plan.regions())
        .map(|r| {
            let pts = plan.region_sites(RegionId(r as u32));
            let index = VorTree::build(pts, bounds.inflated(10.0)).unwrap();
            let cfg = NetServerConfig {
                certify_within: Some(MARGIN),
                ..NetServerConfig::default()
            };
            NetServer::bind("127.0.0.1:0", Arc::new(World::new(index)), cfg).unwrap()
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
    let cfg = RouterConfig {
        tables: plan.tables(),
        ..RouterConfig::new(addrs)
    };
    let router = RouterServer::bind("127.0.0.1:0", part, cfg).unwrap();

    // Two sessions on the left backend, established before the
    // famine: `stay` never leaves, `cross` will walk over the border.
    // The backend ticks at its barrier, so `cross` gets its first
    // answer with `stay`'s next one — sent only once the backend
    // holds both, or it would tick for `stay` alone and strand
    // `cross`.
    let mut stay = NetClient::connect(router.local_addr()).unwrap();
    stay.register::<Euclidean>(K, 1.8, Point::new(20.0, 50.0))
        .unwrap();
    assert_eq!(stay.next_result().unwrap().ids.len(), K);
    let mut cross = NetClient::connect(router.local_addr()).unwrap();
    cross
        .register::<Euclidean>(K, 1.8, Point::new(45.0, 50.0))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while backends[0].live_sessions() < 2 {
        assert!(Instant::now() < deadline, "second session never registered");
        std::thread::sleep(Duration::from_millis(1));
    }
    stay.update::<Euclidean>(Point::new(20.0, 50.0)).unwrap();
    assert_eq!(stay.next_result().unwrap().ids.len(), K);
    assert_eq!(cross.next_result().unwrap().ids.len(), K);

    // Exhaust the process's descriptors and spend the one we free
    // on the client side of a new connection: its handshake
    // completes in the router's backlog, but accept(2) fails.
    let mut hoard = hoard_all_fds();
    drop(hoard.pop());
    let mut late = TcpStream::connect(router.local_addr()).unwrap();
    late.set_nodelay(true).unwrap();

    // Liveness: both sessions keep round-tripping (the backend
    // ticks at its barrier, so they move in lockstep).
    for tick in 1..4u32 {
        let dx = f64::from(tick) * 0.5;
        stay.update::<Euclidean>(Point::new(20.0 + dx, 50.0))
            .unwrap();
        cross
            .update::<Euclidean>(Point::new(45.0 + dx, 50.0))
            .unwrap();
        for session in [&mut stay, &mut cross] {
            let upd = session.next_result().unwrap();
            assert_eq!(upd.ids.len(), K, "starved out at tick {tick}");
        }
    }

    // No spin: a hot accept/EMFILE loop would burn ~the whole
    // window.
    let window = Duration::from_millis(600);
    let cpu0 = sys::process_cpu_time().unwrap();
    std::thread::sleep(window);
    let burned = sys::process_cpu_time().unwrap() - cpu0;
    assert!(
        burned < window / 2,
        "burned {burned:?} CPU over an idle {window:?} starvation window"
    );

    // Isolation: the crossing needs the right backend's leg, never
    // connected so far, and cannot get a descriptor for it. That session alone fails, with a
    // verdict; the other one streams on.
    cross.update::<Euclidean>(Point::new(55.0, 50.0)).unwrap();
    match cross.next_result() {
        Err(NetError::Server { code, detail }) => {
            assert_eq!(code, ErrorCode::Unavailable, "{detail}");
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert_eq!(router.handoffs(), 0, "a failed handoff is not a handoff");
    for tick in 0..3u32 {
        stay.update::<Euclidean>(Point::new(22.0 + f64::from(tick), 50.0))
            .unwrap();
        assert_eq!(stay.next_result().unwrap().ids.len(), K);
    }

    // Recovery: the backlogged connection is accepted once
    // descriptors are back, registers, and is served alongside.
    drop(hoard);
    let register = Message::Register {
        space: SpaceKind::Euclidean,
        k: K as u32,
        rho: 1.8,
        pos: WirePos::Point { x: 30.0, y: 30.0 },
    };
    late.write_all(&register.encode_frame()).unwrap();
    late.set_nonblocking(true).unwrap();
    let (mut rx, mut late_results, mut round) = (FrameBuf::new(), 0usize, 0u32);
    let deadline = Instant::now() + Duration::from_secs(20);
    while late_results < 3 {
        assert!(
            Instant::now() < deadline,
            "recovered session got only {late_results} results"
        );
        round += 1;
        if round > 1 {
            // Keep it fresh so the backend's barrier never stalls
            // on it once it is registered.
            let pos = WirePos::Point {
                x: 30.0 + f64::from(round) * 0.1,
                y: 30.0,
            };
            late.write_all(&Message::PositionUpdate { pos }.encode_frame())
                .unwrap();
        }
        stay.update::<Euclidean>(Point::new(30.0 + f64::from(round) * 0.1, 50.0))
            .unwrap();
        assert_eq!(stay.next_result().unwrap().ids.len(), K);
        let mut chunk = [0u8; 4096];
        loop {
            match late.read(&mut chunk) {
                Ok(0) => panic!("router closed the recovered session"),
                Ok(n) => rx.extend(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("recovered session read: {e}"),
            }
            while let Some((msg, _)) = rx.next_message().unwrap() {
                if let Message::KnnResult { ids, .. } = msg {
                    assert_eq!(ids.len(), K);
                    late_results += 1;
                }
            }
        }
    }
    drop(late);
    router.shutdown();
}
