//! Descriptor-exhaustion regression: a reactor whose `accept(2)` fails
//! with `EMFILE` must **back off**, not spin.
//!
//! With a level-triggered readiness backend the listener stays readable
//! while a connection it cannot accept waits in the backlog, so
//! returning from the accept loop without disarming it re-wakes the
//! reactor immediately — 100% CPU until a descriptor frees up. The fix
//! pauses accepting (`ACCEPT_ERROR_PAUSE`) and disarms the listener for
//! the duration; this test pins both halves of the contract:
//!
//! * **liveness**: an established session keeps round-tripping while
//!   the process is out of descriptors and a victim connection sits
//!   un-acceptable in the backlog;
//! * **no spin**: across an idle window mid-starvation the process
//!   burns (far) less CPU time than the wall-clock window — a hot
//!   accept loop on this 1-CPU class of container would burn ~all of
//!   it;
//! * **recovery**: once descriptors free up, the backlogged connection
//!   is accepted and served without reconnecting.
//!
//! One `#[test]` on purpose: the fd hoard is process-global state, and
//! a sibling test running concurrently would see spurious `EMFILE`.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::wire::Message;
use insq_net::{sys, FrameBuf, NetClient, NetServer, NetServerConfig, SpaceKind, WirePos};
use insq_server::World;

const EMFILE: i32 = 24;

fn euclid_world() -> Arc<World<VorTree>> {
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = (0..100)
        .map(|i| Point::new((i % 10) as f64 * 10.0 + 0.25, (i / 10) as f64 * 10.0 + 0.5))
        .collect();
    Arc::new(World::new(
        VorTree::build(pts, bounds.inflated(10.0)).unwrap(),
    ))
}

/// Opens `/dev/null` until the process hits `EMFILE`, then returns the
/// hoard. Dropping entries frees descriptors one by one.
fn hoard_all_fds() -> Vec<File> {
    let mut hoard = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => hoard.push(f),
            Err(e) => {
                assert_eq!(
                    e.raw_os_error(),
                    Some(EMFILE),
                    "expected EMFILE while hoarding, got {e}"
                );
                return hoard;
            }
        }
        assert!(hoard.len() < 100_000, "fd limit never engaged");
    }
}

#[test]
fn reactor_survives_fd_exhaustion_without_spinning() {
    // Low enough to exhaust with a small hoard; applies to the whole
    // process.
    sys::set_open_file_limit(256).unwrap();

    let world = euclid_world();
    let server: NetServer<Euclidean> = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world),
        NetServerConfig::default(),
    )
    .unwrap();

    // Session A is established and registered before the famine.
    let mut a = NetClient::connect(server.local_addr()).unwrap();
    a.register::<Euclidean>(3, 1.6, Point::new(50.0, 50.0))
        .unwrap();
    let first = a.next_result().unwrap();
    assert_eq!(first.ids.len(), 3);

    // Exhaust the process's descriptors, then hand the single
    // descriptor we free back to the *client side* of a new
    // connection: the TCP handshake completes in the listener
    // backlog, but the server's accept(2) has nothing left and
    // fails with EMFILE.
    let mut hoard = hoard_all_fds();
    drop(hoard.pop());
    let mut b = TcpStream::connect(server.local_addr()).unwrap();
    b.set_nodelay(true).unwrap();

    // Liveness: the starved reactor keeps serving session A.
    for tick in 1..4u64 {
        a.update::<Euclidean>(Point::new(50.0 + tick as f64, 50.0))
            .unwrap();
        let upd = a.next_result().unwrap();
        assert_eq!(upd.ids.len(), 3, "live session starved out at tick {tick}");
    }

    // No spin: over an idle window the whole process must use far
    // less CPU than wall clock. A hot accept/EMFILE loop would use
    // ~the entire window.
    let window = Duration::from_millis(600);
    let cpu0 = sys::process_cpu_time().unwrap();
    std::thread::sleep(window);
    let burned = sys::process_cpu_time().unwrap() - cpu0;
    assert!(
        burned < window / 2,
        "reactor burned {burned:?} CPU over an idle {window:?} starvation window \
         — accept loop is spinning"
    );

    // Recovery: free the descriptors; the backlogged connection is
    // accepted (the accept pause expires on its own), registers,
    // and is served alongside A.
    drop(hoard);
    let register = Message::Register {
        space: SpaceKind::Euclidean,
        k: 3,
        rho: 1.6,
        pos: WirePos::Point { x: 30.0, y: 30.0 },
    };
    b.write_all(&register.encode_frame()).unwrap();
    b.set_nonblocking(true).unwrap();

    let mut rx = FrameBuf::new();
    let mut b_results = 0usize;
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut round = 0u64;
    while b_results < 3 {
        assert!(
            Instant::now() < deadline,
            "recovered session got only {b_results} results"
        );
        round += 1;
        if round > 1 {
            // Keep B fresh so the barrier never stalls on it once
            // it is registered (ordering of the two updates within
            // a tick is the reactor's problem, not ours).
            let update = Message::PositionUpdate {
                pos: WirePos::Point {
                    x: 30.0 + round as f64 * 0.1,
                    y: 30.0,
                },
            };
            b.write_all(&update.encode_frame()).unwrap();
        }
        a.update::<Euclidean>(Point::new(40.0 + round as f64 * 0.1, 50.0))
            .unwrap();
        let upd = a.next_result().unwrap();
        assert_eq!(upd.ids.len(), 3);
        let mut chunk = [0u8; 4096];
        loop {
            match b.read(&mut chunk) {
                Ok(0) => panic!("server closed the recovered session"),
                Ok(n) => {
                    rx.extend(&chunk[..n]);
                    while let Some((msg, _)) = rx.next_message().unwrap() {
                        if let Message::KnnResult { ids, .. } = msg {
                            assert_eq!(ids.len(), 3);
                            b_results += 1;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("recovered session read: {e}"),
            }
        }
    }
    drop(b);
    server.shutdown();
}
