//! Reactor robustness: frames split arbitrarily across readiness
//! wakeups.
//!
//! The event loop never sees whole frames — the kernel hands it
//! whatever bytes happen to be in the socket buffer. These tests prove
//! the incremental reassembly path ([`FrameBuf`]) and the full reactor
//! behind it survive every chunking:
//!
//! * property-style: random message sequences cut at random (and
//!   byte-at-a-time) boundaries reassemble bit-identically;
//! * hostile: random byte soup and bit-flipped valid streams produce
//!   clean `Err`s, never panics, and never buffer beyond the hard
//!   frame bound;
//! * end-to-end: a client that trickles its frames one byte per write
//!   (plus a no-op `TcpStream` coalescing case that concatenates many
//!   frames into one write) still gets bit-exact results from a live
//!   `NetServer`, and a non-blocking [`ClientCore`] drives a whole
//!   session through `poll_event` without ever blocking;
//! * backpressure: a client that stops reading while large results
//!   accumulate forces the reactor through its persistent-interest
//!   `EPOLLOUT` arm/disarm transitions, and still drains bit-identically
//!   once it resumes.
//!
//! All inputs derive from fixed-seed RNGs, so a failure reproduces
//! exactly.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::wire::{Message, MAX_PAYLOAD_LEN};
use insq_net::{
    sys, ClientCore, ClientEvent, FrameBuf, NetClient, NetServer, NetServerConfig, SpaceKind,
    WireOutcome, WirePos,
};
use insq_server::World;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn corpus(rng: &mut StdRng, len: usize) -> Vec<Message> {
    (0..len)
        .map(|i| match rng.random_range(0..5u32) {
            0 => Message::Register {
                space: SpaceKind::Euclidean,
                k: rng.random_range(1..16u32),
                rho: 1.0 + f64::from(rng.random_range(0..200u32)) / 100.0,
                pos: WirePos::Point {
                    x: f64::from(rng.random_range(0..1000u32)) / 7.0,
                    y: f64::from(rng.random_range(0..1000u32)) / 11.0,
                },
            },
            1 => Message::PositionUpdate {
                pos: WirePos::OnEdge {
                    edge: rng.random_range(0..10_000u32),
                    offset: f64::from(rng.random_range(0..500u32)) / 13.0,
                },
            },
            2 => Message::KnnResult {
                epoch: i as u64,
                ids: (0..rng.random_range(0..64u32)).collect(),
                outcome: WireOutcome::Swap,
                flags: 0,
            },
            3 => Message::EpochNotify { epoch: i as u64 },
            _ => Message::Deregister,
        })
        .collect()
}

#[test]
fn random_chunkings_reassemble_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..50 {
        let msgs = corpus(&mut rng, 40);
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode_frame());
        }
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        let mut at = 0usize;
        while at < wire.len() {
            let take = (rng.random_range(1..64usize)).min(wire.len() - at);
            fb.extend(&wire[at..at + take]);
            at += take;
            while let Some((m, _)) = fb.next_message().unwrap_or_else(|e| {
                panic!("round {round}: decode failed mid-stream at byte {at}: {e}")
            }) {
                got.push(m);
            }
            // The reassembly buffer never holds more than one partial
            // frame plus the chunk that extended it.
            assert!(
                fb.buffered() <= 4 + MAX_PAYLOAD_LEN + 64,
                "round {round}: buffered {} bytes",
                fb.buffered()
            );
        }
        assert_eq!(got, msgs, "round {round}");
        assert!(fb.at_frame_boundary(), "round {round}: trailing bytes");
    }
}

#[test]
fn random_byte_soup_never_panics_or_overbuffers() {
    let mut rng = StdRng::seed_from_u64(0xBADF00D);
    for _ in 0..200 {
        let mut fb = FrameBuf::new();
        let n = rng.random_range(1..2048usize);
        let soup: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u32) as u8).collect();
        for chunk in soup.chunks(rng.random_range(1..97usize)) {
            fb.extend(chunk);
            // Calling the decoder IS the assertion: hostile bytes may
            // yield messages or errors, never a panic. After the first
            // error framing is lost, which is exactly when a real
            // session closes — stop like the reactor does.
            match fb.next_message() {
                Ok(_) => {}
                Err(_) => break,
            }
        }
        assert!(fb.high_water() <= 4 + MAX_PAYLOAD_LEN + 2048);
    }
}

#[test]
fn bit_flips_in_valid_streams_error_cleanly() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let msgs = corpus(&mut rng, 10);
    let mut wire = Vec::new();
    for m in &msgs {
        wire.extend_from_slice(&m.encode_frame());
    }
    for _ in 0..300 {
        let mut mutated = wire.clone();
        let at = rng.random_range(0..mutated.len());
        mutated[at] ^= 1 << rng.random_range(0..8u32);
        let mut fb = FrameBuf::new();
        fb.extend(&mutated);
        // Drain until quiet or the first error; no panic, no runaway.
        for _ in 0..msgs.len() + 1 {
            match fb.next_message() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

fn euclid_world(n: usize) -> Arc<World<VorTree>> {
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = (0..n)
        .map(|i| {
            Point::new(
                (i % 10) as f64 * 10.0 + 0.25,
                (i / 10) as f64 * 10.0 + 0.125 * (i % 7) as f64,
            )
        })
        .collect();
    Arc::new(World::new(
        VorTree::build(pts, bounds.inflated(10.0)).unwrap(),
    ))
}

/// A client whose every frame reaches the server one byte per `write`
/// call must see the same results as a well-behaved one.
#[test]
fn byte_at_a_time_client_is_served_bit_identically() {
    let world = euclid_world(100);
    let server: NetServer<Euclidean> = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world),
        NetServerConfig::with_min_clients(2),
    )
    .unwrap();

    // Reference client on the same server, same trajectory.
    let mut smooth = NetClient::connect(server.local_addr()).unwrap();
    // Trickling client: raw socket, frames written one byte at a time.
    let mut trickle = TcpStream::connect(server.local_addr()).unwrap();
    trickle.set_nodelay(true).unwrap();

    let pos =
        |tick: usize, phase: f64| Point::new(30.0 + tick as f64 + phase, 40.0 + 0.5 * tick as f64);
    let register = Message::Register {
        space: SpaceKind::Euclidean,
        k: 3,
        rho: 1.6,
        pos: WirePos::Point {
            x: pos(0, 0.0).x,
            y: pos(0, 0.0).y,
        },
    };
    for byte in register.encode_frame() {
        trickle.write_all(&[byte]).unwrap();
    }
    smooth.register::<Euclidean>(3, 1.6, pos(0, 0.0)).unwrap();

    let mut trickle_rx = FrameBuf::new();
    let mut trickle_results: Vec<(u64, Vec<u32>)> = Vec::new();
    let mut smooth_results: Vec<(u64, Vec<u32>)> = Vec::new();

    use std::io::Read;
    trickle.set_nonblocking(true).unwrap();
    let read_trickle =
        |trickle: &mut TcpStream, trickle_rx: &mut FrameBuf, out: &mut Vec<(u64, Vec<u32>)>| {
            let mut chunk = [0u8; 4096];
            loop {
                match trickle.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        trickle_rx.extend(&chunk[..n]);
                        while let Some((msg, _)) = trickle_rx.next_message().unwrap() {
                            if let Message::KnnResult { epoch, ids, .. } = msg {
                                out.push((epoch, ids));
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("trickle read: {e}"),
                }
            }
        };

    for tick in 1..20usize {
        // The smooth client's blocking next_result drives the barrier:
        // once it has its result, the trickler's is on the wire too.
        let upd = smooth.next_result().unwrap();
        smooth_results.push((upd.epoch, upd.ids));
        let deadline = Instant::now() + Duration::from_secs(10);
        while trickle_results.len() < tick {
            assert!(Instant::now() < deadline, "trickle result {tick} missing");
            read_trickle(&mut trickle, &mut trickle_rx, &mut trickle_results);
            std::thread::sleep(Duration::from_millis(1));
        }

        let update = Message::PositionUpdate {
            pos: WirePos::Point {
                x: pos(tick, 1.0).x,
                y: pos(tick, 1.0).y,
            },
        };
        for byte in update.encode_frame() {
            trickle.write_all(&[byte]).unwrap();
        }
        smooth.update::<Euclidean>(pos(tick, 0.0)).unwrap();
    }
    let upd = smooth.next_result().unwrap();
    smooth_results.push((upd.epoch, upd.ids));
    let deadline = Instant::now() + Duration::from_secs(10);
    while trickle_results.len() < 20 {
        assert!(Instant::now() < deadline, "final trickle result missing");
        read_trickle(&mut trickle, &mut trickle_rx, &mut trickle_results);
        std::thread::sleep(Duration::from_millis(1));
    }

    // Both clients saw every tick at the same epochs; the trickler's
    // streams are complete and well-formed despite 1-byte framing.
    assert_eq!(trickle_results.len(), smooth_results.len());
    for (t, ((te, tids), (se, sids))) in trickle_results.iter().zip(&smooth_results).enumerate() {
        assert_eq!(te, se, "epoch diverged at tick {t}");
        assert_eq!(tids.len(), sids.len(), "k diverged at tick {t}");
    }
    drop(trickle);
    server.shutdown();
}

/// A non-blocking [`ClientCore`] session driven entirely through
/// `try_send_update` / `poll_event` — no blocking call anywhere.
#[test]
fn client_core_drives_a_session_without_blocking() {
    let world = euclid_world(100);
    let server: NetServer<Euclidean> = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world),
        NetServerConfig::default(),
    )
    .unwrap();

    let mut core = ClientCore::connect(server.local_addr()).unwrap();
    core.try_send(&Message::Register {
        space: SpaceKind::Euclidean,
        k: 4,
        rho: 1.6,
        pos: WirePos::Point { x: 50.0, y: 50.0 },
    })
    .unwrap();

    let mut results = 0usize;
    let deadline = Instant::now() + Duration::from_secs(20);
    while results < 10 {
        assert!(Instant::now() < deadline, "stalled at {results} results");
        match core.poll_event().unwrap() {
            Some(ClientEvent::Result { epoch, ids, .. }) => {
                assert_eq!(epoch, 0);
                assert_eq!(ids.len(), 4);
                results += 1;
                if results < 10 {
                    core.try_send_update::<Euclidean>(Point::new(50.0 + results as f64, 50.0))
                        .unwrap();
                }
            }
            Some(ClientEvent::Closed) => panic!("server closed early"),
            Some(other) => panic!("unexpected event {other:?}"),
            None => {
                let _ = core.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    let (sent, received) = core.wire_bytes();
    assert!(sent > 0 && received > 0);
    server.shutdown();
}

/// A dense uniform world (1024 sites inside the 0..100 bounds) so a
/// k=512 query produces multi-kilobyte result frames.
fn dense_world() -> Arc<World<VorTree>> {
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = (0..1024)
        .map(|i| {
            Point::new(
                (i % 32) as f64 * 3.0 + 1.0,
                (i / 32) as f64 * 3.0 + 1.0 + 0.01 * (i % 5) as f64,
            )
        })
        .collect();
    Arc::new(World::new(
        VorTree::build(pts, bounds.inflated(10.0)).unwrap(),
    ))
}

/// Backpressure through the persistent-interest write path: a client
/// with a floor-sized kernel receive buffer stops reading while ~150
/// large (k=512, ≈2 KiB) results are pushed at it. The socket clogs,
/// the reactor must buffer in its per-session [`insq_net::WriteBuf`]
/// and arm `EPOLLOUT` (then disarm it once the drain completes — a
/// stuck-armed arm would busy-wake, a never-armed one would stall the
/// drain forever). When the client finally reads, its stream must be
/// bit-identical to a well-behaved client on the same trajectory.
#[test]
fn stalled_reader_arms_pollout_and_drains_bit_identically() {
    const TICKS: usize = 150;
    let world = dense_world();
    let server: NetServer<Euclidean> = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world),
        NetServerConfig {
            // Lock the kernel send buffer small: the ~300 KiB backlog
            // must surface in the reactor's WriteBuf, not be silently
            // absorbed by sndbuf autotuning.
            sndbuf: Some(4096),
            ..NetServerConfig::with_min_clients(2)
        },
    )
    .unwrap();

    let mut smooth = NetClient::connect(server.local_addr()).unwrap();
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    stalled.set_nodelay(true).unwrap();
    // Lock the stalled socket's receive buffer at the window already
    // granted during the handshake (shrinking below it would make the
    // kernel *drop* in-window segments, and the drain would then crawl
    // on retransmission timers). The window now closes cleanly after
    // ~128 KiB; the rest of the ~300 KiB backlog has nowhere to go but
    // the reactor's WriteBuf.
    sys::set_recv_buffer(sys::raw_fd(&stalled), 64 * 1024).unwrap();

    let traj = |tick: usize| Point::new(10.0 + 0.4 * tick as f64, 20.0 + 0.35 * tick as f64);
    let register = Message::Register {
        space: SpaceKind::Euclidean,
        k: 512,
        rho: 1.6,
        pos: WirePos::Point {
            x: traj(0).x,
            y: traj(0).y,
        },
    };
    stalled.write_all(&register.encode_frame()).unwrap();
    smooth.register::<Euclidean>(512, 1.6, traj(0)).unwrap();

    // Lockstep drive under the Barrier policy: the smooth client's
    // blocking next_result paces the ticks; the stalled client sends
    // every position update but never reads a byte back.
    let mut smooth_results: Vec<(u64, Vec<u32>)> = Vec::new();
    for tick in 0..TICKS {
        let upd = smooth.next_result().unwrap();
        assert_eq!(upd.ids.len(), 512, "k at tick {tick}");
        smooth_results.push((upd.epoch, upd.ids));
        if tick + 1 < TICKS {
            let p = traj(tick + 1);
            let update = Message::PositionUpdate {
                pos: WirePos::Point { x: p.x, y: p.y },
            };
            stalled.write_all(&update.encode_frame()).unwrap();
            smooth.update::<Euclidean>(p).unwrap();
        }
    }

    // The clog showed up as reactor-side buffering (EPOLLOUT was armed),
    // far beyond what any smooth session ever holds.
    assert!(
        server.buffer_high_water() > 32 * 1024,
        "expected the stalled session to buffer server-side, high water was {} bytes",
        server.buffer_high_water()
    );

    // Resume reading: the buffered backlog must drain completely and
    // decode to the exact stream the smooth client saw (identical
    // trajectory => identical kNN ids, tick for tick). Re-enlarge the
    // receive buffer first — draining 300 KiB through a floor-sized
    // window crawls on retransmission timers, which is TCP's problem,
    // not the reactor's.
    sys::set_recv_buffer(sys::raw_fd(&stalled), 1 << 20).unwrap();
    use std::io::Read;
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut rx = FrameBuf::new();
    let mut stalled_results: Vec<(u64, Vec<u32>)> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while stalled_results.len() < TICKS {
        let n = stalled.read(&mut chunk).expect("drain stalled backlog");
        assert!(n > 0, "server closed before the backlog drained");
        rx.extend(&chunk[..n]);
        while let Some((msg, _)) = rx.next_message().unwrap() {
            if let Message::KnnResult { epoch, ids, .. } = msg {
                stalled_results.push((epoch, ids));
            }
        }
    }
    assert_eq!(
        stalled_results, smooth_results,
        "stalled client's drained stream diverged"
    );
    drop(stalled);
    server.shutdown();
}
