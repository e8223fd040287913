//! What a routed session costs in descriptors: the router holds one per
//! client session plus one per backend leg (and its listener), however
//! many sessions there are and however often they hand off — counted
//! from `/proc/self/fd`.
//!
//! Its own test binary, and one `#[test]`, on purpose: the count is
//! process-global, and a test running concurrently would move it.

#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_cluster::{ClusterPlan, RouterConfig, RouterServer};
use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::{NetClient, NetServer, NetServerConfig};
use insq_server::{GridPartitioner, RegionId, World};
use insq_workload::Distribution;

const K: usize = 4;
const MARGIN: f64 = 30.0;
const PER_SIDE: usize = 20;

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

#[test]
fn the_router_holds_one_descriptor_per_session_and_one_per_backend() {
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let sites = Distribution::Uniform.generate(400, &bounds, 5);
    let part = Arc::new(GridPartitioner::strips(bounds, 2));
    let plan = ClusterPlan::new(part.clone(), MARGIN, sites);
    let backends: Vec<NetServer<Euclidean>> = (0..2)
        .map(|r| {
            let pts = plan.region_sites(RegionId(r));
            let index = VorTree::build(pts, bounds.inflated(10.0)).unwrap();
            let cfg = NetServerConfig {
                min_clients: PER_SIDE,
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
    let before = open_descriptors();

    // Session i sits at x = 20 (west) or 80 (east), in its own lane.
    let at = |i: usize, x: f64| Point::new(x, 2.0 + 2.3 * (i / 2) as f64);
    let side = |i: usize| if i.is_multiple_of(2) { 20.0 } else { 80.0 };
    let mut clients: Vec<NetClient> = (0..2 * PER_SIDE)
        .map(|i| {
            let mut c = NetClient::connect(router.local_addr()).unwrap();
            c.register::<Euclidean>(K, 1.8, at(i, side(i))).unwrap();
            c
        })
        .collect();
    for c in &mut clients {
        assert_eq!(c.next_result().unwrap().ids.len(), K);
    }
    // This process holds, per session, the client's socket and the
    // router's; per backend, the router's leg and the backend's end.
    let sessions = clients.len();
    let router_held = |now: usize| now - before - sessions - backends.len();
    assert_eq!(
        router_held(open_descriptors()),
        sessions + backends.len(),
        "router descriptors for {sessions} sessions over {} backends",
        backends.len()
    );

    // Two sessions swap sides: a handoff opens no socket.
    for i in [0, 1] {
        clients[i]
            .update::<Euclidean>(at(i, 100.0 - side(i)))
            .unwrap();
    }
    // Both re-register before the others' updates can complete either
    // backend's barrier without them.
    let deadline = Instant::now() + Duration::from_secs(20);
    while router.handoffs() < 2 {
        assert!(Instant::now() < deadline, "handoffs never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
    for (i, c) in clients.iter_mut().enumerate().skip(2) {
        c.update::<Euclidean>(at(i, side(i))).unwrap();
    }
    for c in &mut clients {
        assert_eq!(c.next_result().unwrap().ids.len(), K);
    }
    assert_eq!(router.handoffs(), 2);
    assert_eq!(router_held(open_descriptors()), sessions + backends.len());
}
