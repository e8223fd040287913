//! Router end-to-end and failure-isolation tests: real partition
//! backends behind a [`RouterServer`], driven by ordinary blocking
//! `insq-net` clients, plus hostile fake backends — speaking the tagged
//! frames of the router's one leg per backend — for the wire-level fuzz
//! cases: a bad session frame fails that session, unreadable leg bytes
//! fail that backend's sessions, a client flooding a stalled backend
//! fails alone, and nothing else notices.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use insq_cluster::{ClusterPlan, RouterConfig, RouterServer};
use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::wire::{ErrorCode, Message, WireOutcome, WirePos};
use insq_net::{sys, FrameBuf, NetClient, NetError, NetServer, NetServerConfig, SpaceKind};
use insq_server::{GridPartitioner, World};
use insq_workload::Distribution;

const K: usize = 4;
const MARGIN: f64 = 30.0;

fn bounds() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// Brute-force global kNN ids, ascending by `(distance, id)`.
fn brute_knn(sites: &[Point], q: Point, k: usize) -> Vec<u32> {
    let mut with_d: Vec<(f64, u32)> = sites
        .iter()
        .enumerate()
        .map(|(i, &p)| (p.distance(q), i as u32))
        .collect();
    with_d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    with_d.into_iter().take(k).map(|(_, i)| i).collect()
}

/// Spins up `regions` real partition backends over one plan and a
/// router in front of them. Returns (plan, backends, router).
fn cluster(
    regions: u32,
    sites: Vec<Point>,
) -> (ClusterPlan, Vec<NetServer<Euclidean>>, RouterServer) {
    let part = Arc::new(GridPartitioner::strips(bounds(), regions));
    let plan = ClusterPlan::new(part.clone(), MARGIN, sites);
    let clip = bounds().inflated(10.0);
    let backends: Vec<NetServer<Euclidean>> = (0..plan.regions())
        .map(|r| {
            let pts = plan.region_sites(insq_server::RegionId(r as u32));
            let world = Arc::new(World::new(VorTree::build(pts, clip).expect("valid sites")));
            let cfg = NetServerConfig {
                certify_within: Some(MARGIN),
                ..NetServerConfig::default()
            };
            NetServer::bind("127.0.0.1:0", world, cfg).expect("backend binds")
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
    let cfg = RouterConfig {
        tables: plan.tables(),
        ..RouterConfig::new(addrs)
    };
    let router = RouterServer::bind("127.0.0.1:0", part, cfg).expect("router binds");
    (plan, backends, router)
}

#[test]
fn one_session_crosses_the_border_and_stays_exact() {
    let sites = Distribution::Uniform.generate(500, &bounds(), 42);
    let (plan, _backends, router) = cluster(2, sites.clone());

    // One client walks straight across the x=50 border on one
    // uninterrupted connection.
    let mut client = NetClient::connect(router.local_addr()).expect("connect");
    let path: Vec<Point> = (0..30)
        .map(|i| Point::new(20.0 + 2.1 * i as f64, 48.0))
        .collect();
    client
        .register::<Euclidean>(K, 1.8, path[0])
        .expect("register");
    for (i, &pos) in path.iter().enumerate() {
        if i > 0 {
            client.update::<Euclidean>(pos).expect("update");
        }
        let upd = client.next_result().expect("result");
        assert_eq!(upd.flags, 0, "tick {i}: a {MARGIN}-unit margin certifies");
        assert_eq!(
            upd.ids,
            brute_knn(&sites, pos, K),
            "tick {i} at {pos:?}: rewritten global ids must be the exact global kNN"
        );
    }
    assert!(router.handoffs() >= 1, "the walk crosses x=50: {router:?}");
    assert_eq!(router.live_sessions(), 1);
    let _ = plan;
    client.deregister().expect("deregister");
    // The backend confirms the close by ending the stream.
    assert!(matches!(client.next_result(), Err(NetError::Closed)));
}

/// Six shuttle sessions behind `regions` strip backends, a thread each
/// (under the barrier policy a re-homed session's first result waits on
/// its new backend's other sessions, so clients must not take turns).
/// Client `c` is at `x_at(c, t)` in its own lane at tick `t`; every
/// answer must be certified and equal global brute force.
fn shuttles(regions: u32, x_at: fn(u64, usize) -> f64, min_handoffs_each: u64) {
    const SESSIONS: u64 = 6;
    let sites = Distribution::Uniform.generate(400, &bounds(), 7);
    let (_plan, _backends, router) = cluster(regions, sites.clone());

    let addr = router.local_addr();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|c| {
            let sites = sites.clone();
            thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let pos_at = |t: usize| Point::new(x_at(c, t), 10.0 + 13.0 * c as f64);
                client
                    .register::<Euclidean>(K, 1.8, pos_at(0))
                    .expect("register");
                for t in 0..40 {
                    if t > 0 {
                        client.update::<Euclidean>(pos_at(t)).expect("update");
                    }
                    let upd = client.next_result().expect("result");
                    assert_eq!(upd.flags, 0, "client {c} tick {t}: certified");
                    assert_eq!(
                        upd.ids,
                        brute_knn(&sites, pos_at(t), K),
                        "client {c} tick {t} ({regions} regions)"
                    );
                }
                client.deregister().expect("deregister");
                assert!(matches!(client.next_result(), Err(NetError::Closed)));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    assert!(
        router.handoffs() >= min_handoffs_each * SESSIONS,
        "every shuttle crosses ({regions} regions): {router:?}"
    );
}

#[test]
fn fleet_of_shuttles_survives_many_handoffs() {
    // A ping-pong across the one border of two strips.
    shuttles(2, |_, t| 48.0 + 8.0 * (t as f64 * 0.7).sin(), 1);
    // Four strips, full-width sweeps at 7.5 units a tick: three borders
    // a traversal, a handoff every third tick or so, phases spread so
    // each backend's session set keeps changing under the others.
    shuttles(
        4,
        |c, t| {
            let phase = (7.5 * t as f64 + 17.0 * c as f64) % 180.0;
            5.0 + if phase <= 90.0 { phase } else { 180.0 - phase }
        },
        3,
    );
}

/// What a fake backend writes for a session's `Register` or
/// `PositionUpdate`, given the session's place in registration order and
/// its tag.
type Answer = fn(usize, u32) -> Vec<u8>;

/// A hostile backend for the fuzz cases. It speaks the router's tagged
/// frames on each (shared) leg: every `Register`/`PositionUpdate` gets
/// `answer`'s bytes, every `Deregister` a `Drained`.
fn fake_backend(answer: Answer) -> SocketAddr {
    gated_backend(answer, Arc::default())
}

/// A [`fake_backend`] that reads nothing while `stalled` is set — a
/// backend busy in a long tick — behind a small kernel receive buffer,
/// so what the router sends meanwhile piles up on the router's side.
fn gated_backend(answer: Answer, stalled: Arc<AtomicBool>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    sys::set_recv_buffer(sys::raw_fd(&listener), 4096).expect("receive buffer");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            let stalled = Arc::clone(&stalled);
            thread::spawn(move || {
                let mut order: HashMap<u32, usize> = HashMap::new();
                let mut rbuf = FrameBuf::new();
                let mut chunk = [0u8; 4096];
                loop {
                    use std::io::Read;
                    while stalled.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(1));
                    }
                    let n = match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => n,
                    };
                    rbuf.extend(&chunk[..n]);
                    while let Ok(Some((msg, _))) = rbuf.next_message() {
                        let Message::Mux { session, payload } = msg else {
                            return;
                        };
                        let nth = order.len();
                        let nth = *order.entry(session).or_insert(nth);
                        let reply = match Message::decode_inner(&payload) {
                            Ok(Message::Register { .. } | Message::PositionUpdate { .. }) => {
                                answer(nth, session)
                            }
                            Ok(Message::Deregister) => {
                                Message::mux_frame(session, &Message::Drained)
                            }
                            _ => return,
                        };
                        if conn.write_all(&reply).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
    addr
}

/// A valid result frame for session `tag`.
fn result_for(tag: u32, ids: Vec<u32>) -> Vec<u8> {
    let msg = Message::KnnResult {
        epoch: 1,
        ids,
        outcome: WireOutcome::Valid,
        flags: 0,
    };
    Message::mux_frame(tag, &msg)
}

#[test]
fn malformed_backend_frames_poison_only_their_own_session() {
    // The second session's answers are well-framed envelopes whose body
    // does not decode (version byte 0xFF).
    let backend = fake_backend(|nth, tag| match nth {
        0 => result_for(tag, vec![0, 1, 2, 3]),
        _ => Message::Mux {
            session: tag,
            payload: vec![0xFF, 0xFF],
        }
        .encode_frame(),
    });
    let part = Arc::new(GridPartitioner::strips(bounds(), 1));
    let router = RouterServer::bind("127.0.0.1:0", part, RouterConfig::new(vec![backend]))
        .expect("router binds");

    // First session: well served (identity tables — no rewrite).
    let mut good = NetClient::connect(router.local_addr()).expect("connect");
    good.register::<Euclidean>(K, 1.8, Point::new(10.0, 10.0))
        .expect("register");
    assert_eq!(good.next_result().expect("result").ids, vec![0, 1, 2, 3]);

    // Second session, on the same leg: poisoned — fails alone, with a
    // clean error frame.
    let mut bad = NetClient::connect(router.local_addr()).expect("connect");
    bad.register::<Euclidean>(K, 1.8, Point::new(20.0, 20.0))
        .expect("register");
    match bad.next_result() {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error, got {other:?}"),
    }

    // The good session keeps streaming after its neighbor's poisoning.
    for _ in 0..3 {
        good.update::<Euclidean>(Point::new(11.0, 11.0))
            .expect("update");
        assert_eq!(good.next_result().expect("result").ids, vec![0, 1, 2, 3]);
    }
}

#[test]
fn out_of_range_backend_ids_fail_the_session_cleanly() {
    // Tables with a 2-entry row: the second session's ids 2 and 3 have
    // no global mapping — a corrupt backend, surfaced as Malformed.
    let backend = fake_backend(|nth, tag| match nth {
        0 => result_for(tag, vec![0, 1]),
        _ => result_for(tag, vec![0, 1, 2, 3]),
    });
    let part = Arc::new(GridPartitioner::strips(bounds(), 1));
    let router = RouterServer::bind(
        "127.0.0.1:0",
        part,
        RouterConfig {
            tables: vec![vec![40, 41]],
            ..RouterConfig::new(vec![backend])
        },
    )
    .expect("router binds");

    let mut neighbour = NetClient::connect(router.local_addr()).expect("connect");
    neighbour
        .register::<Euclidean>(K, 1.8, Point::new(10.0, 10.0))
        .expect("register");
    assert_eq!(neighbour.next_result().expect("result").ids, vec![40, 41]);

    let mut client = NetClient::connect(router.local_addr()).expect("connect");
    client
        .register::<Euclidean>(K, 1.8, Point::new(10.0, 10.0))
        .expect("register");
    match client.next_result() {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a Malformed error, got {other:?}"),
    }

    for _ in 0..3 {
        neighbour
            .update::<Euclidean>(Point::new(12.0, 10.0))
            .expect("update");
        assert_eq!(neighbour.next_result().expect("result").ids, vec![40, 41]);
    }
}

#[test]
fn unreadable_leg_bytes_end_every_session_of_that_backend_only() {
    // Backend 0 answers its second session with bytes that carry no
    // readable envelope (a frame with version byte 0xFF): the leg's
    // framing is lost, and with it every session the leg carries.
    let left = fake_backend(|nth, tag| match nth {
        0 => result_for(tag, vec![0, 1, 2, 3]),
        _ => vec![0x02, 0x00, 0x00, 0x00, 0xFF, 0xFF],
    });
    let right = fake_backend(|_, tag| result_for(tag, vec![4, 5, 6, 7]));
    let part = Arc::new(GridPartitioner::strips(bounds(), 2));
    let router = RouterServer::bind("127.0.0.1:0", part, RouterConfig::new(vec![left, right]))
        .expect("router binds");

    let session = |x: f64| {
        let mut c = NetClient::connect(router.local_addr()).expect("connect");
        c.register::<Euclidean>(K, 1.8, Point::new(x, 50.0))
            .expect("register");
        c
    };
    let mut first = session(10.0);
    assert_eq!(first.next_result().expect("result").ids, vec![0, 1, 2, 3]);
    let mut east = session(90.0);
    assert_eq!(east.next_result().expect("result").ids, vec![4, 5, 6, 7]);
    let mut second = session(20.0);

    // Both sessions of the lost leg end with an explicit verdict.
    for lost in [&mut second, &mut first] {
        match lost.next_result() {
            Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("expected a Malformed error, got {other:?}"),
        }
    }
    // The other backend's session never notices.
    for i in 0..3 {
        east.update::<Euclidean>(Point::new(90.0 - i as f64, 50.0))
            .expect("update");
        assert_eq!(east.next_result().expect("result").ids, vec![4, 5, 6, 7]);
    }
}

#[test]
fn a_client_flooding_a_stalled_backend_ends_alone() {
    let stalled = Arc::new(AtomicBool::new(false));
    let backend = gated_backend(|_, tag| result_for(tag, vec![0, 1, 2, 3]), stalled.clone());
    let part = Arc::new(GridPartitioner::strips(bounds(), 1));
    let cfg = RouterConfig {
        write_buf: 4096,
        ..RouterConfig::new(vec![backend])
    };
    let router = RouterServer::bind("127.0.0.1:0", part, cfg).expect("router binds");
    let at = |x: f64| WirePos::Point { x, y: 10.0 };

    let mut neighbour = NetClient::connect(router.local_addr()).expect("connect");
    neighbour
        .register::<Euclidean>(K, 1.8, Point::new(10.0, 10.0))
        .expect("register");
    assert_eq!(
        neighbour.next_result().expect("result").ids,
        vec![0, 1, 2, 3]
    );
    let mut flooder = TcpStream::connect(router.local_addr()).expect("connect");
    for timeout in [TcpStream::set_read_timeout, TcpStream::set_write_timeout] {
        timeout(&flooder, Some(Duration::from_secs(20))).expect("timeout");
    }
    let register = Message::Register {
        space: SpaceKind::Euclidean,
        k: K as u32,
        rho: 1.8,
        pos: at(12.0),
    };
    flooder
        .write_all(&register.encode_frame())
        .expect("register");
    let mut rx = FrameBuf::new();
    let answer = next_frame(&mut flooder, &mut rx);
    assert!(
        matches!(answer, Some(Message::KnnResult { .. })),
        "{answer:?}"
    );

    // The backend stalls with the neighbour's next update on the leg,
    // and the flooder never waits for an answer: the kernel's buffers
    // fill, then the router's, and the flooder — not the leg — goes.
    stalled.store(true, Ordering::SeqCst);
    neighbour
        .update::<Euclidean>(Point::new(11.0, 10.0))
        .expect("update");
    let burst = Message::PositionUpdate { pos: at(13.0) }
        .encode_frame()
        .repeat(4096);
    let mut bursts = 0;
    while flooder.write_all(&burst).is_ok() {
        bursts += 1;
        assert!(bursts < 400, "the router took a {bursts}-burst flood");
    }
    if let Some(verdict) = next_frame(&mut flooder, &mut rx) {
        let overloaded = matches!(
            verdict,
            Message::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        );
        assert!(
            overloaded,
            "the flooder must go for its own flood: {verdict:?}"
        );
    }

    // The shared leg survived: the neighbour's update is answered once
    // the backend reads again, and it streams on.
    stalled.store(false, Ordering::SeqCst);
    assert_eq!(
        neighbour.next_result().expect("result").ids,
        vec![0, 1, 2, 3]
    );
    for i in 0..3 {
        neighbour
            .update::<Euclidean>(Point::new(12.0 + i as f64, 10.0))
            .expect("update");
        assert_eq!(
            neighbour.next_result().expect("result").ids,
            vec![0, 1, 2, 3]
        );
    }
    assert_eq!(router.live_sessions(), 1);
}

/// The next frame on a raw client socket; `None` once it ends.
fn next_frame(stream: &mut TcpStream, rx: &mut FrameBuf) -> Option<Message> {
    use std::io::Read;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((msg, _)) = rx.next_message().expect("valid frame") {
            return Some(msg);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => rx.extend(&chunk[..n]),
        }
    }
}

#[test]
fn backend_loss_drops_only_that_partitions_sessions() {
    let sites = Distribution::Uniform.generate(400, &bounds(), 11);
    let (_plan, mut backends, router) = cluster(2, sites);

    // One session per partition, both streaming.
    let mut left = NetClient::connect(router.local_addr()).expect("connect");
    left.register::<Euclidean>(K, 1.8, Point::new(10.0, 50.0))
        .expect("register");
    let mut right = NetClient::connect(router.local_addr()).expect("connect");
    right
        .register::<Euclidean>(K, 1.8, Point::new(90.0, 50.0))
        .expect("register");
    left.next_result().expect("left result");
    right.next_result().expect("right result");

    // Partition 0 dies.
    backends.remove(0).shutdown();

    // The left session ends with a clean Unavailable verdict (whether
    // the router noticed the EOF first or the next forward failed).
    left.update::<Euclidean>(Point::new(11.0, 50.0))
        .expect("update reaches the router");
    match left.next_result() {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        Err(NetError::Closed) => panic!("must carry an explicit Unavailable error"),
        other => panic!("expected Unavailable, got {other:?}"),
    }

    // The right session never notices.
    for i in 0..3 {
        right
            .update::<Euclidean>(Point::new(90.0 - i as f64, 50.0))
            .expect("update");
        right.next_result().expect("right keeps streaming");
    }
}

#[test]
fn bad_configs_are_rejected_not_panicked_on_or_misrouted() {
    let addr: SocketAddr = "127.0.0.1:9".parse().expect("addr");
    let two = || Arc::new(GridPartitioner::strips(bounds(), 2));
    let invalid = |r: std::io::Result<RouterServer>| match r {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(router) => panic!("accepted a bad config: {router:?}"),
    };

    // One backend address for two regions.
    invalid(RouterServer::bind(
        "127.0.0.1:0",
        two(),
        RouterConfig::new(vec![addr]),
    ));
    // Fewer table rows than regions: region 1's local ids would reach
    // clients as if they were global.
    let short = RouterConfig {
        tables: vec![vec![0, 1]],
        ..RouterConfig::new(vec![addr, addr])
    };
    invalid(RouterServer::bind("127.0.0.1:0", two(), short));

    // Identity (no tables) and one row per region are both fine.
    RouterServer::bind("127.0.0.1:0", two(), RouterConfig::new(vec![addr, addr]))
        .expect("identity tables bind");
    let per_region = RouterConfig {
        tables: vec![vec![0, 1], vec![2]],
        ..RouterConfig::new(vec![addr, addr])
    };
    RouterServer::bind("127.0.0.1:0", two(), per_region).expect("a row per region binds");
}
