//! The router's one connection per backend: many sessions share each
//! leg, a handoff is two tagged frames, and a backend's whole tick comes
//! back on one connection.
//!
//! * `handoffs_on_shared_legs_match_a_single_world`: two strip backends,
//!   at least 16 sessions on each leg; one session crosses with a result
//!   still in flight from its old backend, one crosses back during its
//!   own drain, one deregisters mid-drain. Every session's id stream
//!   equals what a single-world `NetServer` answers for the same
//!   positions, in order. The west backend is reached through a relay
//!   that can hold its answers back, which is what keeps a drain open
//!   long enough to act in — and what makes the held frames observable:
//!   the new backend's answer reaches the router first and must wait for
//!   the old backend's `Drained`.
//! * `a_leg_carries_ticks_larger_than_the_write_bound`: 200 sessions
//!   behind backends with a 4 KiB write bound and a 4 KiB kernel send
//!   buffer; every result of every tick arrives.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use insq_cluster::{ClusterPlan, RouterConfig, RouterServer};
use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::{NetClient, NetError, NetServer, NetServerConfig};
use insq_server::{GridPartitioner, RegionId, World};
use insq_workload::Distribution;

const K: usize = 4;
const MARGIN: f64 = 30.0;
/// How long the relay holds back the west backend's bytes while slow.
const DELAY: Duration = Duration::from_millis(300);

fn bounds() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// A TCP relay in front of `upstream`. Bytes toward the upstream pass
/// straight through; bytes back are held for [`DELAY`] per chunk while
/// `slow` is set, in order.
fn relay(upstream: SocketAddr, slow: Arc<AtomicBool>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("relay addr");
    thread::spawn(move || {
        for down in listener.incoming() {
            let Ok(mut down) = down else { continue };
            let mut up = TcpStream::connect(upstream).expect("relay connects");
            for s in [&down, &up] {
                s.set_nodelay(true).expect("nodelay");
            }
            let (mut down_w, mut up_r) = (down.try_clone().unwrap(), up.try_clone().unwrap());
            thread::spawn(move || std::io::copy(&mut down, &mut up));
            let slow = Arc::clone(&slow);
            thread::spawn(move || {
                let mut chunk = [0u8; 64 * 1024];
                loop {
                    let n = match up_r.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => n,
                    };
                    if slow.load(Ordering::SeqCst) {
                        thread::sleep(DELAY);
                    }
                    if down_w.write_all(&chunk[..n]).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// Two certifying strip backends (border at x = 50) behind a router; the
/// west one through a [`relay`] when `slow` is given. Backend `r`'s
/// first tick waits for `min_clients[r]` registrations.
fn cluster(
    sites: &[Point],
    min_clients: [usize; 2],
    write_buf: usize,
    slow: Option<Arc<AtomicBool>>,
) -> (Vec<NetServer<Euclidean>>, RouterServer) {
    let part = Arc::new(GridPartitioner::strips(bounds(), 2));
    let plan = ClusterPlan::new(part.clone(), MARGIN, sites.to_vec());
    let backends: Vec<NetServer<Euclidean>> = (0..2)
        .map(|r| {
            let pts = plan.region_sites(RegionId(r as u32));
            let index = VorTree::build(pts, bounds().inflated(10.0)).expect("valid sites");
            let cfg = NetServerConfig {
                min_clients: min_clients[r],
                write_buf,
                sndbuf: Some(write_buf),
                certify_within: Some(MARGIN),
                ..NetServerConfig::default()
            };
            NetServer::bind("127.0.0.1:0", Arc::new(World::new(index)), cfg).expect("binds")
        })
        .collect();
    let mut addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
    if let Some(slow) = slow {
        addrs[0] = relay(addrs[0], slow);
    }
    let cfg = RouterConfig {
        tables: plan.tables(),
        ..RouterConfig::new(addrs)
    };
    let router = RouterServer::bind("127.0.0.1:0", part, cfg).expect("router binds");
    (backends, router)
}

/// Blocking sessions, each with the positions it was answered for and
/// the ids it got.
struct Fleet {
    clients: Vec<NetClient>,
    asked: Vec<Vec<Point>>,
    got: Vec<Vec<Vec<u32>>>,
    owed: Vec<usize>,
}

impl Fleet {
    /// Connects and registers one session per position.
    fn register(addr: SocketAddr, at: &[Point]) -> Fleet {
        let mut fleet = Fleet {
            clients: Vec::new(),
            asked: vec![Vec::new(); at.len()],
            got: vec![Vec::new(); at.len()],
            owed: vec![0; at.len()],
        };
        for (i, &p) in at.iter().enumerate() {
            let mut c = NetClient::connect(addr).expect("connect");
            c.register::<Euclidean>(K, 1.8, p).expect("register");
            fleet.clients.push(c);
            fleet.asked[i].push(p);
            fleet.owed[i] += 1;
        }
        fleet
    }

    fn update(&mut self, i: usize, p: Point) {
        self.clients[i].update::<Euclidean>(p).expect("update");
        self.asked[i].push(p);
        self.owed[i] += 1;
    }

    /// Receives every result owed.
    fn collect(&mut self) {
        for (i, c) in self.clients.iter_mut().enumerate() {
            for _ in 0..std::mem::take(&mut self.owed[i]) {
                let upd = c.next_result().expect("result");
                assert_eq!(
                    upd.flags, 0,
                    "session {i}: a {MARGIN}-unit margin certifies"
                );
                self.got[i].push(upd.ids);
            }
        }
    }
}

/// What a single-world `NetServer` over `sites` answers each session for
/// its positions, fed in lockstep: round `j` sends every session's `j`-th
/// position; a session with no `j`-th deregisters.
fn single_world(sites: &[Point], asked: &[Vec<Point>]) -> Vec<Vec<Vec<u32>>> {
    let index = VorTree::build(sites.to_vec(), bounds().inflated(10.0)).expect("valid sites");
    let cfg = NetServerConfig::with_min_clients(asked.len());
    let server: NetServer<Euclidean> =
        NetServer::bind("127.0.0.1:0", Arc::new(World::new(index)), cfg).expect("binds");
    let firsts: Vec<Point> = asked.iter().map(|a| a[0]).collect();
    let mut fleet = Fleet::register(server.local_addr(), &firsts);
    fleet.collect();
    let rounds = asked.iter().map(Vec::len).max().unwrap_or(0);
    for j in 1..rounds {
        for (i, a) in asked.iter().enumerate() {
            match a.len() {
                len if j < len => fleet.update(i, a[j]),
                len if j == len => fleet.clients[i].deregister().expect("deregister"),
                _ => {}
            }
        }
        fleet.collect();
    }
    fleet.got
}

#[test]
fn handoffs_on_shared_legs_match_a_single_world() {
    const WEST: usize = 16;
    const EAST: usize = 16;
    // Sessions 0..16 stay west, 16..32 stay east; X, Z and W start west.
    const X: usize = 32;
    const Z: usize = 33;
    const W: usize = 34;
    let sites = Distribution::Uniform.generate(600, &bounds(), 2016);
    let lane = |i: usize| 2.5 + 2.7 * i as f64;
    let home = |i: usize, round: usize| {
        let wiggle = (round % 4) as f64 * 0.9;
        match i {
            i if (WEST..WEST + EAST).contains(&i) => Point::new(72.0 + wiggle, lane(i)),
            _ => Point::new(26.0 + wiggle, lane(i)),
        }
    };
    let west: Vec<usize> = (0..WEST).chain([X, Z, W]).collect();
    let east: Vec<usize> = (WEST..WEST + EAST).collect();
    let slow = Arc::new(AtomicBool::new(false));
    let (backends, router) = cluster(
        &sites,
        [west.len(), east.len()],
        64 * 1024,
        Some(slow.clone()),
    );
    let (a, b) = (&backends[0], &backends[1]);

    let mut fleet = Fleet::register(
        router.local_addr(),
        &(0..=W).map(|i| home(i, 0)).collect::<Vec<_>>(),
    );
    fleet.collect();
    for round in 1..=2 {
        for i in 0..=W {
            fleet.update(i, home(i, round));
        }
        fleet.collect();
    }
    let mut round = 2;
    let (live_a, live_b) = (a.live_sessions(), b.live_sessions());
    assert_eq!((live_a, live_b), (west.len(), east.len()));

    // X crosses with a result still in flight from the west backend: the
    // west tick's answers sit in the relay while the east backend
    // answers X's crossing at once. That answer must wait for the west
    // backend's `Drained`, behind the in-flight one.
    slow.store(true, Ordering::SeqCst);
    round += 1;
    let ticks = a.ticks();
    for &i in &west {
        fleet.update(i, home(i, round));
    }
    wait_for("the west tick", || a.ticks() > ticks);
    fleet.update(X, Point::new(56.0, lane(X)));
    wait_for("X at the east backend", || b.live_sessions() == live_b + 1);
    for &i in &east {
        fleet.update(i, home(i, round));
    }
    fleet.collect();
    slow.store(false, Ordering::SeqCst);
    assert!(router.handoffs() >= 1);

    // Z crosses, and crosses back while its drain is still open: the
    // router keeps feeding the east backend, whose two answers wait for
    // the west backend's `Drained`.
    slow.store(true, Ordering::SeqCst);
    round += 1;
    fleet.update(Z, Point::new(55.0, lane(Z)));
    wait_for("Z at the east backend", || b.live_sessions() == live_b + 2);
    let ticks = b.ticks();
    for &i in &east {
        fleet.update(i, home(i, round));
    }
    fleet.update(X, Point::new(57.0, lane(X)));
    wait_for("the east tick", || b.ticks() > ticks);
    fleet.update(Z, Point::new(46.0, lane(Z)));
    for &i in &east {
        fleet.update(i, home(i, round + 1));
    }
    fleet.update(X, Point::new(58.0, lane(X)));
    for &i in west.iter().filter(|&&i| i != X && i != Z) {
        fleet.update(i, home(i, round));
    }
    fleet.collect();
    slow.store(false, Ordering::SeqCst);
    round += 1;

    // W crosses and deregisters before its drain completes: it hears
    // nothing more (its crossing is never answered), just the end of the
    // stream.
    slow.store(true, Ordering::SeqCst);
    let w = &mut fleet.clients[W];
    w.update::<Euclidean>(Point::new(54.0, lane(W)))
        .expect("update");
    wait_for("W at the east backend", || b.live_sessions() == live_b + 3);
    w.deregister().expect("deregister");
    wait_for("W gone from the east backend", || {
        b.live_sessions() == live_b + 2
    });
    assert!(matches!(w.next_result(), Err(NetError::Closed)));
    slow.store(false, Ordering::SeqCst);

    // Z re-crosses west now its drain is over — registered there before
    // the west sessions' updates complete the west barrier — and
    // everyone left streams on.
    for last in 0..2 {
        round += 1;
        fleet.update(Z, home(Z, round));
        wait_for("Z back at the west backend", || {
            a.live_sessions() == WEST + 1
        });
        for i in (0..Z).filter(|&i| i != X) {
            fleet.update(i, home(i, round));
        }
        fleet.update(X, Point::new(57.0 + last as f64, lane(X)));
        fleet.collect();
    }
    assert_eq!((a.live_sessions(), b.live_sessions()), (WEST + 1, EAST + 1));
    assert!(router.handoffs() >= 4, "{router:?}");

    let expect = single_world(&sites, &fleet.asked);
    for (i, (got, expect)) in fleet.got.iter().zip(&expect).enumerate() {
        assert_eq!(got, expect, "session {i}'s id stream");
    }
}

#[test]
fn a_leg_carries_ticks_larger_than_the_write_bound() {
    const SESSIONS: usize = 200;
    const ROUNDS: usize = 6;
    let sites = Distribution::Uniform.generate(500, &bounds(), 31);
    let at = |i: usize, round: usize| {
        let x = if i.is_multiple_of(2) { 20.0 } else { 80.0 };
        Point::new(x + (round % 3) as f64, 0.25 + 0.49 * (i / 2) as f64)
    };
    let (backends, router) = cluster(&sites, [SESSIONS / 2; 2], 4096, None);
    let mut fleet = Fleet::register(
        router.local_addr(),
        &(0..SESSIONS).map(|i| at(i, 0)).collect::<Vec<_>>(),
    );
    fleet.collect();
    for round in 1..ROUNDS {
        for i in 0..SESSIONS {
            fleet.update(i, at(i, round));
        }
        fleet.collect();
    }
    for b in &backends {
        assert!(
            b.buffer_high_water() > 4096,
            "a tick's output never exceeded the 4 KiB bound ({} B): the case is not exercised",
            b.buffer_high_water()
        );
    }
    assert_eq!(router.live_sessions(), SESSIONS);
    let expect = single_world(&sites, &fleet.asked);
    assert_eq!(fleet.got, expect);
}
