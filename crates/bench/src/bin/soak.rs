//! Loopback soak: many thousands of concurrent sessions against one
//! reactor, under the event-driven `Deadline` tick policy.
//!
//! The reactor's claim is that live sessions are limited by file
//! descriptors, not threads, and that per-session memory stays bounded
//! no matter how clients behave. This binary checks both at scale, as a
//! CI smoke:
//!
//! * the **parent** process raises its fd limit
//!   ([`insq_net::sys::max_open_files`]), binds one `NetServer` with
//!   `TickPolicy::Deadline`, and spawns client-herd **children** (one
//!   process per herd, so the client side's descriptors don't eat the
//!   server's budget);
//! * each child drives its sessions through the non-blocking
//!   [`ClientCore`] — one thread per herd, `try_send` / `poll_event`
//!   only — recording update→result round-trip latency into a
//!   mergeable log2-µs histogram it prints on exit;
//! * the parent aggregates the histograms, prints the latency
//!   distribution, and asserts the invariants: every session completed
//!   its cycles, and the server's peak per-session buffer usage
//!   ([`NetServer::buffer_high_water`]) stayed under the hard
//!   read-buffer + write-buffer bound.
//!
//! Under `Deadline` a round-trip may legitimately be answered by a
//! re-served (stale) result before the fresh one lands — that is the
//! policy's liveness trade, and the histogram deliberately measures
//! "time until the client heard back", not "time until recompute".
//!
//! With `--partitions N` the soak runs the **cluster** topology instead:
//! the parent spawns N backend server **children** (each holding one
//! regional slice of the same deterministic world, regenerated from the
//! shared seed and filtered through the identical [`ClusterPlan`]),
//! binds a [`RouterServer`] in front of them, and drives the herds
//! through the router on **shuttle** walks that flip sides of the space
//! every cycle — so every session forces at least one handoff. The
//! router holds one descriptor per session (plus one leg per backend,
//! which carries all of that backend's sessions), so the cluster soak
//! runs at the same scale. The invariants extend accordingly: every
//! session still completes all its cycles *through* handoffs, each
//! backend's buffers divided by the most sessions its leg carried stay
//! under the same per-session hard bound, and the router performed at
//! least one handoff per session.
//!
//! ```text
//! soak [--sessions N] [--results R] [--herds H] [--partitions P] [--quick]
//! soak --herd <addr> <count> <results> <seed> [shuttle]     (internal child role)
//! soak --backend <region> <partitions>                      (internal child role)
//! ```

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_bench::latency::LatencyHistogram;
use insq_cluster::{ClusterPlan, RouterConfig, RouterServer};
use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::buffer::READ_CHUNK;
use insq_net::{
    ClientCore, ClientEvent, Message, NetServer, NetServerConfig, SpaceKind, WirePos,
    MAX_PAYLOAD_LEN,
};
use insq_server::{FleetConfig, GridPartitioner, RegionId, TickPolicy, World};

const WORLD_SIDE: f64 = 100.0;
/// Overlap margin for the partitioned topology: the soak world's grid
/// spacing is 5 units, so 12 units of overlap certify k=4 everywhere.
const SOAK_MARGIN: f64 = 12.0;

fn usage() -> ! {
    eprintln!("usage: soak [--sessions N] [--results R] [--herds H] [--partitions P] [--quick]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--herd") {
        // Internal role: drive one herd of client sessions.
        if args.len() != 5 && !(args.len() == 6 && args[5] == "shuttle") {
            usage();
        }
        let addr = args[1].clone();
        let count: usize = args[2].parse().unwrap_or_else(|_| usage());
        let results: usize = args[3].parse().unwrap_or_else(|_| usage());
        let seed: u64 = args[4].parse().unwrap_or_else(|_| usage());
        run_herd(&addr, count, results, seed, args.len() == 6);
        return;
    }
    if args.first().map(String::as_str) == Some("--backend") {
        // Internal role: serve one regional slice of the soak world.
        if args.len() != 3 {
            usage();
        }
        let region: u32 = args[1].parse().unwrap_or_else(|_| usage());
        let partitions: u32 = args[2].parse().unwrap_or_else(|_| usage());
        run_backend(region, partitions);
        return;
    }

    let mut sessions = 0usize;
    let mut results = 5usize;
    let mut herds = 0usize;
    let mut partitions = 0u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sessions" => {
                sessions = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage())
            }
            "--results" => {
                results = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage())
            }
            "--herds" => {
                herds = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage())
            }
            "--partitions" => {
                partitions = it
                    .next()
                    .and_then(|s| s.parse::<u32>().ok())
                    .filter(|&p| p >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--quick" => {
                sessions = 1_000;
                results = 3;
            }
            _ => usage(),
        }
    }
    if sessions == 0 {
        sessions = 10_000;
    }
    if herds == 0 {
        // ~1250 sessions per child keeps every process well under
        // typical fd limits while the server holds all N sockets.
        herds = sessions.div_ceil(1_250);
    }
    if partitions > 0 {
        run_cluster_soak(sessions, results, herds, partitions);
    } else {
        run_server(sessions, results, herds);
    }
}

fn soak_bounds() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(WORLD_SIDE, WORLD_SIDE))
}

/// The deterministic global site set: a grid of data objects over the
/// unit square scaled to `WORLD_SIDE` — small on purpose, the soak
/// stresses the serving layer, not the index. Parent and backend
/// children regenerate the identical list independently.
fn soak_points() -> Vec<Point> {
    (0..400)
        .map(|i| {
            Point::new(
                (i % 20) as f64 * 5.0 + 0.5,
                (i / 20) as f64 * 5.0 + 0.25 * (i % 3) as f64,
            )
        })
        .collect()
}

fn soak_world() -> Arc<World<VorTree>> {
    Arc::new(World::new(
        VorTree::build(soak_points(), soak_bounds().inflated(10.0)).expect("soak world"),
    ))
}

/// The shared partition map: any process that knows `partitions` can
/// rebuild the identical plan (same strips, same margin, same global
/// points) and therefore the identical regional site lists and
/// local↔global id tables.
fn soak_plan(partitions: u32) -> (Arc<GridPartitioner>, ClusterPlan) {
    let part = Arc::new(GridPartitioner::strips(soak_bounds(), partitions));
    let plan = ClusterPlan::new(part.clone(), SOAK_MARGIN, soak_points());
    (part, plan)
}

/// Internal child role: one partition backend. Binds a `NetServer` on
/// its regional slice, announces the address on stdout, serves until
/// the parent closes stdin, then reports its buffer high-water mark and
/// the most sessions it served at once (all on the router's one leg).
fn run_backend(region: u32, partitions: u32) {
    let (_, plan) = soak_plan(partitions);
    let pts = plan.region_sites(RegionId(region));
    let world = Arc::new(World::new(
        VorTree::build(pts, soak_bounds().inflated(10.0)).expect("backend world"),
    ));
    let cfg = NetServerConfig {
        fleet: FleetConfig {
            shards: 32,
            threads: 2,
        },
        policy: TickPolicy::Deadline { max_staleness: 3 },
        certify_within: Some(SOAK_MARGIN),
        ..NetServerConfig::default()
    };
    let server: NetServer<Euclidean> =
        NetServer::bind("127.0.0.1:0", world, cfg).expect("bind backend");
    println!("ADDR {}", server.local_addr());
    std::io::stdout().flush().expect("flush addr");
    // Serve until the parent signals shutdown by closing our stdin,
    // sampling the live session count meanwhile.
    let stdin = std::thread::spawn(|| std::io::stdin().read_line(&mut String::new()));
    let mut peak = 0;
    while !stdin.is_finished() {
        peak = peak.max(server.live_sessions());
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("HIGH {} {peak}", server.buffer_high_water());
    server.shutdown();
}

/// The partitioned soak: N backend children behind a router, shuttle
/// herds forcing a handoff from every session on every cycle.
fn run_cluster_soak(sessions: usize, results: usize, herds: usize, partitions: u32) {
    let fd_limit = insq_net::sys::max_open_files().unwrap_or(0);
    // The router (this process) holds one descriptor per session, one
    // leg per backend and its listener.
    let needed = sessions as u64 + u64::from(partitions) + 64;
    assert!(
        fd_limit == 0 || fd_limit >= needed,
        "fd limit {fd_limit} too low for {sessions} routed sessions (need ~{needed}); \
         lower --sessions or raise ulimit -n"
    );

    let exe = std::env::current_exe().expect("current_exe");
    let mut backends: Vec<(Child, BufReader<ChildStdout>)> = (0..partitions)
        .map(|r| {
            let mut child = Command::new(&exe)
                .arg("--backend")
                .arg(r.to_string())
                .arg(partitions.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn backend");
            let reader = BufReader::new(child.stdout.take().expect("backend stdout"));
            (child, reader)
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends
        .iter_mut()
        .map(|(_, reader)| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("backend ADDR line");
            line.strip_prefix("ADDR ")
                .expect("backend announces ADDR")
                .trim()
                .parse()
                .expect("backend address parses")
        })
        .collect();

    let (part, plan) = soak_plan(partitions);
    let router = RouterServer::bind(
        "127.0.0.1:0",
        part,
        RouterConfig {
            tables: plan.tables(),
            ..RouterConfig::new(addrs)
        },
    )
    .expect("bind router");
    let addr = router.local_addr().to_string();
    println!(
        "soak: {sessions} sessions x {results} result cycles through a router over \
         {partitions} partition backends, {herds} herd processes, shuttle walks @ {addr}"
    );

    let t0 = Instant::now();
    let base = sessions / herds;
    let extra = sessions % herds;
    let children: Vec<_> = (0..herds)
        .map(|h| {
            let count = base + usize::from(h < extra);
            Command::new(&exe)
                .arg("--herd")
                .arg(&addr)
                .arg(count.to_string())
                .arg(results.to_string())
                .arg((0x50AC ^ h as u64).to_string())
                .arg("shuttle")
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn herd")
        })
        .collect();

    let mut merged = LatencyHistogram::new();
    for child in children {
        let out = child.wait_with_output().expect("herd exit");
        assert!(out.status.success(), "herd failed: {}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let hist_line = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("HIST "))
            .expect("herd printed no HIST line");
        merged.merge(&LatencyHistogram::parse_line(hist_line).expect("parse herd histogram"));
    }
    let wall = t0.elapsed();

    let reap_deadline = Instant::now() + Duration::from_secs(10);
    while router.live_sessions() > 0 && Instant::now() < reap_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let handoffs = router.handoffs();
    let (bytes_in, bytes_out) = router.wire_bytes();
    let live = router.live_sessions();
    router.shutdown();

    // Graceful backend teardown: closing stdin asks each child to
    // report its high-water mark and peak session count, and exit. A
    // leg's buffers hold a whole tick of its backend's sessions, so the
    // bound is per session: high water ÷ the sessions the leg carried.
    let write_buf_cap = NetServerConfig::default()
        .write_buf
        .max(4 + MAX_PAYLOAD_LEN);
    let buffer_bound = (4 + MAX_PAYLOAD_LEN + READ_CHUNK + write_buf_cap) as u64;
    let mut high_water = 0u64;
    for (mut child, mut reader) in backends {
        drop(child.stdin.take());
        let mut line = String::new();
        reader.read_line(&mut line).expect("backend HIGH line");
        let report: Vec<u64> = line
            .strip_prefix("HIGH ")
            .expect("backend reports HIGH")
            .split_whitespace()
            .map(|v| v.parse().expect("HIGH fields parse"))
            .collect();
        let [hw, peak] = report[..] else {
            panic!("HIGH <bytes> <sessions> expected, got {line:?}")
        };
        high_water = high_water.max(hw / peak.max(1));
        assert!(child.wait().expect("backend exit").success());
    }

    println!("\nupdate -> result round-trip latency (all {herds} herds merged):");
    print!("{}", merged.to_ascii());
    println!(
        "\nrouter: {handoffs} handoffs in {wall:.1?}, {bytes_in} B in / {bytes_out} B out, \
         peak backend buffers per carried session {high_water} B, {live} sessions still live at reap"
    );

    // The invariants this smoke exists for.
    let expected = (sessions * results) as u64;
    assert_eq!(
        merged.count(),
        expected,
        "every session must complete all its result cycles through handoffs"
    );
    assert!(
        handoffs >= sessions as u64,
        "shuttle walks must force >= 1 handoff per session ({handoffs} < {sessions})"
    );
    assert!(
        high_water <= buffer_bound,
        "backend buffer high water per carried session {high_water} exceeds hard bound {buffer_bound}"
    );
    assert_eq!(live, 0, "router sessions leaked past client disconnect");
    println!(
        "\nOK: {expected} round-trips across {sessions} routed sessions with {handoffs} \
         handoffs over {partitions} partitions; buffers bounded ({high_water} <= {buffer_bound} B)"
    );
}

fn run_server(sessions: usize, results: usize, herds: usize) {
    let fd_limit = insq_net::sys::max_open_files().unwrap_or(0);
    let needed = sessions as u64 + 64;
    assert!(
        fd_limit == 0 || fd_limit >= needed,
        "fd limit {fd_limit} too low for {sessions} sessions (need ~{needed}); \
         lower --sessions or raise ulimit -n"
    );

    let cfg = NetServerConfig {
        fleet: FleetConfig {
            shards: 32,
            threads: 2,
        },
        policy: TickPolicy::Deadline { max_staleness: 3 },
        // No tick until the whole fleet has registered: makes the run
        // deterministic in shape (one ramp, then steady cycling).
        min_clients: sessions,
        max_sessions: sessions + 16,
        ..NetServerConfig::default()
    };
    let write_buf_cap = cfg.write_buf.max(4 + MAX_PAYLOAD_LEN);
    let server: NetServer<Euclidean> =
        NetServer::bind("127.0.0.1:0", soak_world(), cfg).expect("bind soak server");
    let addr = server.local_addr().to_string();
    println!(
        "soak: {sessions} sessions x {results} result cycles, {herds} herd processes, \
         Deadline{{max_staleness: 3}} @ {addr}"
    );

    let t0 = Instant::now();
    let exe = std::env::current_exe().expect("current_exe");
    let base = sessions / herds;
    let extra = sessions % herds;
    let children: Vec<_> = (0..herds)
        .map(|h| {
            let count = base + usize::from(h < extra);
            Command::new(&exe)
                .arg("--herd")
                .arg(&addr)
                .arg(count.to_string())
                .arg(results.to_string())
                .arg((0x50AC ^ h as u64).to_string())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn herd")
        })
        .collect();

    let mut merged = LatencyHistogram::new();
    for child in children {
        let out = child.wait_with_output().expect("herd exit");
        assert!(out.status.success(), "herd failed: {}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let hist_line = stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("HIST "))
            .expect("herd printed no HIST line");
        merged.merge(&LatencyHistogram::parse_line(hist_line).expect("parse herd histogram"));
    }
    let wall = t0.elapsed();

    // Sessions close after their last result; give the reactor a
    // moment to reap the EOFs before reading final counters.
    let reap_deadline = Instant::now() + Duration::from_secs(10);
    while server.live_sessions() > 0 && Instant::now() < reap_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    let ticks = server.ticks();
    let (bytes_in, bytes_out) = server.wire_bytes();
    let high_water = server.buffer_high_water();
    let live = server.live_sessions();
    server.shutdown();

    println!("\nupdate -> result round-trip latency (all {herds} herds merged):");
    print!("{}", merged.to_ascii());
    println!(
        "\nserver: {ticks} ticks in {wall:.1?}, {bytes_in} B in / {bytes_out} B out \
         ({:.1} B/tick down), peak per-session buffers {high_water} B, \
         {live} sessions still live at reap",
        bytes_out as f64 / ticks.max(1) as f64,
    );

    // The invariants this smoke exists for.
    let expected = (sessions * results) as u64;
    assert_eq!(
        merged.count(),
        expected,
        "every session must complete all its result cycles"
    );
    let buffer_bound = (4 + MAX_PAYLOAD_LEN + READ_CHUNK + write_buf_cap) as u64;
    assert!(
        high_water <= buffer_bound,
        "per-session buffer high water {high_water} exceeds hard bound {buffer_bound}"
    );
    assert_eq!(live, 0, "sessions leaked past client disconnect");
    println!(
        "\nOK: {expected} round-trips across {sessions} concurrent sessions; \
         per-session buffers bounded ({high_water} <= {buffer_bound} B)"
    );
}

/// One session's client-side state machine.
struct Session {
    core: ClientCore,
    /// Cycles completed (first registration result is not a cycle).
    done: usize,
    /// When the in-flight position update was sent; `None` while idle.
    sent_at: Option<Instant>,
    /// Seen the registration result yet?
    primed: bool,
}

fn herd_pos(seed: u64, idx: usize, cycle: usize, shuttle: bool) -> (f64, f64) {
    // Deterministic, distinct, in-bounds walk per session.
    let h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx as u64);
    if shuttle {
        // Partitioned mode: flip sides of the space every cycle, so the
        // session crosses every vertical partition border each time —
        // one forced handoff per cycle.
        let lane = 1.0 + ((h % 97) as f64 + (cycle as f64 * 0.53) % 2.0).min(WORLD_SIDE - 2.0);
        let x = if cycle.is_multiple_of(2) {
            2.0
        } else {
            WORLD_SIDE - 2.0
        };
        return (x, lane);
    }
    let x = (h % 97) as f64 + (cycle as f64 * 0.37) % 2.0;
    let y = ((h / 97) % 97) as f64 + (cycle as f64 * 0.53) % 2.0;
    (x.min(WORLD_SIDE - 0.01), y.min(WORLD_SIDE - 0.01))
}

fn run_herd(addr: &str, count: usize, results: usize, seed: u64, shuttle: bool) {
    let connect_deadline = Instant::now() + Duration::from_secs(60);
    let mut sessions: Vec<Session> = (0..count)
        .map(|i| {
            let core = loop {
                match ClientCore::connect(addr) {
                    Ok(c) => break c,
                    // Accept backlog overflows under the connect storm
                    // surface as refusals/resets: back off and retry.
                    Err(_) if Instant::now() < connect_deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => panic!("herd connect {i}: {e}"),
                }
            };
            Session {
                core,
                done: 0,
                sent_at: None,
                primed: false,
            }
        })
        .collect();

    // Register everyone, then drive all sessions from this one thread.
    for (i, s) in sessions.iter_mut().enumerate() {
        let (x, y) = herd_pos(seed, i, 0, shuttle);
        send_when_able(&mut s.core, &register_msg(x, y), i);
    }

    let mut hist = LatencyHistogram::new();
    let mut finished = 0usize;
    let deadline = Instant::now() + Duration::from_secs(240);
    while finished < count {
        assert!(
            Instant::now() < deadline,
            "herd stalled: {finished}/{count} sessions finished"
        );
        let mut progressed = false;
        for (i, s) in sessions.iter_mut().enumerate() {
            if s.done >= results {
                continue;
            }
            loop {
                match s.core.poll_event() {
                    Ok(Some(ClientEvent::Result { .. })) => {
                        progressed = true;
                        let now = Instant::now();
                        if let Some(t) = s.sent_at.take() {
                            hist.record(now - t);
                            s.done += 1;
                        } else if !s.primed {
                            s.primed = true;
                        } else {
                            // Deadline re-serve while idle — not a cycle.
                            continue;
                        }
                        if s.done < results {
                            let (x, y) = herd_pos(seed, i, s.done + 1, shuttle);
                            send_when_able(&mut s.core, &update_msg(x, y), i);
                            s.sent_at = Some(Instant::now());
                        } else {
                            finished += 1;
                            let _ = s.core.try_send(&Message::Deregister);
                            let _ = s.core.flush();
                            break;
                        }
                    }
                    Ok(Some(ClientEvent::Epoch(_))) => {}
                    Ok(Some(ClientEvent::ServerError { code, detail })) => {
                        panic!("session {i}: server error {code:?}: {detail}")
                    }
                    Ok(Some(other)) => panic!("session {i}: unexpected {other:?}"),
                    Ok(None) => {
                        let _ = s.core.flush();
                        break;
                    }
                    Err(e) => panic!("session {i}: {e}"),
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Connections drop here; the server reaps the EOFs.
    drop(sessions);
    println!("HIST {}", hist.to_line());
}

fn register_msg(x: f64, y: f64) -> Message {
    Message::Register {
        space: SpaceKind::Euclidean,
        k: 4,
        rho: 1.6,
        pos: WirePos::Point { x, y },
    }
}

fn update_msg(x: f64, y: f64) -> Message {
    Message::PositionUpdate {
        pos: WirePos::Point { x, y },
    }
}

/// `try_send` with bounded retry: the only send failure a healthy soak
/// sees is `WouldBlock` (client write buffer full while the socket is
/// full), which drains as the reactor reads.
fn send_when_able(core: &mut ClientCore, msg: &Message, session: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match core.try_send(msg) {
            Ok(()) => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                assert!(
                    Instant::now() < deadline,
                    "session {session}: send stalled for 60s"
                );
                let _ = core.flush();
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("session {session}: send failed: {e}"),
        }
    }
}
