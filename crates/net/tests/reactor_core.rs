//! The reactor core on its own, driven by a scripted [`Handler`]: the
//! close state machine, generation-tagged ids, bounded output and
//! shutdown — the rules `NetServer` and the cluster router
//! both inherit, pinned without either protocol on top.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use insq_net::wire::Message;
use insq_net::{
    sys, Closed, ConnId, Conns, FrameBuf, Handler, Reactor, ReactorHandle, WireOutcome, WirePos,
};

/// What the scripted handler saw, by connection tag (accepted
/// connections are tagged 0, 1, … in accept order; outbound ones carry
/// the tag the script gave them).
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Frame(u32, Message),
    Closed(u32, Closed),
}

type Log = Arc<Mutex<Vec<Seen>>>;

struct Scripted<F> {
    slice: Duration,
    sndbuf: Option<usize>,
    accepted: u32,
    log: Log,
    script: F,
}

impl<F> Handler for Scripted<F>
where
    F: FnMut(&mut Conns<u32>, ConnId, u32, &Message) + Send + 'static,
{
    type Conn = u32;

    fn poll_slice(&self) -> Duration {
        self.slice
    }

    fn on_accept(&mut self, stream: &TcpStream) -> u32 {
        if let Some(bytes) = self.sndbuf {
            sys::set_send_buffer(sys::raw_fd(stream), bytes).unwrap();
        }
        self.accepted += 1;
        self.accepted - 1
    }

    fn on_frame(&mut self, conns: &mut Conns<u32>, id: ConnId, msg: Message) {
        let tag = *conns
            .get_mut(id)
            .expect("frames only arrive on live connections");
        (self.script)(conns, id, tag, &msg);
        self.log.lock().unwrap().push(Seen::Frame(tag, msg));
    }

    fn on_close(&mut self, _: &mut Conns<u32>, _: ConnId, tag: u32, why: Closed) {
        self.log.lock().unwrap().push(Seen::Closed(tag, why));
    }
}

const SLICE: Duration = Duration::from_millis(5);

fn spawn<F>(
    write_buf: usize,
    slice: Duration,
    sndbuf: Option<usize>,
    script: F,
) -> (ReactorHandle, Log)
where
    F: FnMut(&mut Conns<u32>, ConnId, u32, &Message) + Send + 'static,
{
    let log = Log::default();
    let handler = Scripted {
        slice,
        sndbuf,
        accepted: 0,
        log: Arc::clone(&log),
        script,
    };
    let reactor = Reactor::spawn("127.0.0.1:0", 0, write_buf, handler).unwrap();
    (reactor, log)
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn saw(log: &Log, what: &Seen) -> usize {
    log.lock().unwrap().iter().filter(|s| *s == what).count()
}

fn result(i: u64, ids: u32) -> Message {
    Message::KnnResult {
        epoch: i,
        ids: (0..ids).collect(),
        outcome: WireOutcome::Valid,
        flags: 0,
    }
}

fn register() -> Message {
    Message::Register {
        space: insq_net::SpaceKind::Euclidean,
        k: 1,
        rho: 1.5,
        pos: WirePos::Point { x: 0.0, y: 0.0 },
    }
}

fn update(i: u32) -> Message {
    Message::PositionUpdate {
        pos: WirePos::OnEdge {
            edge: i,
            offset: 0.5,
        },
    }
}

fn connect(reactor: &ReactorHandle) -> TcpStream {
    let peer = TcpStream::connect(reactor.local_addr()).unwrap();
    peer.set_nodelay(true).unwrap();
    peer
}

fn send(peer: &mut TcpStream, msgs: &[Message]) {
    let mut wire = Vec::new();
    for m in msgs {
        wire.extend_from_slice(&m.encode_frame());
    }
    peer.write_all(&wire).unwrap();
}

/// Reads `peer` to its end (EOF or reset), returning every whole frame
/// and whether the end was a clean EOF.
fn read_to_end(peer: &mut TcpStream) -> (Vec<Message>, bool) {
    peer.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let (mut rx, mut got, mut chunk) = (FrameBuf::new(), Vec::new(), vec![0u8; 64 * 1024]);
    loop {
        let n = match peer.read(&mut chunk) {
            Ok(0) => return (got, rx.at_frame_boundary()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return (got, false),
            Err(e) => panic!("peer read: {e}"),
        };
        rx.extend(&chunk[..n]);
        while let Some((msg, _)) = rx.next_message().unwrap() {
            got.push(msg);
        }
    }
}

/// (a) A peer that stops reading until far more than a socket buffer of
/// frames is queued, half-closes, then reads: it receives every queued
/// byte and then EOF — an accepted peer's EOF is close-after-flush.
#[test]
fn queued_output_survives_the_peers_half_close() {
    const FRAMES: u64 = 4000;
    let (reactor, log) = spawn(4 << 20, SLICE, Some(16 * 1024), |conns, id, _, msg| {
        if matches!(msg, Message::Register { .. }) {
            for i in 0..FRAMES {
                assert!(conns.send(id, &result(i, 64).encode_frame()));
            }
        }
    });
    let total = FRAMES * result(0, 64).encode_frame().len() as u64;

    let mut peer = connect(&reactor);
    sys::set_recv_buffer(sys::raw_fd(&peer), 16 * 1024).unwrap();
    send(&mut peer, &[register()]);
    wait_for("the first flush", || reactor.wire_bytes().1 > 0);

    peer.shutdown(Shutdown::Write).unwrap();
    wait_for("the EOF to be reported", || {
        saw(&log, &Seen::Closed(0, Closed::Eof)) == 1
    });
    let sent = reactor.wire_bytes().1;
    assert!(
        sent < total,
        "nothing was left queued at the half-close ({sent} of {total} bytes \
         already sent) — the case is not exercised"
    );

    let (got, clean) = read_to_end(&mut peer);
    assert!(clean, "the stream must end in a clean EOF");
    assert_eq!(got.len() as u64, FRAMES, "queued frames lost");
    for (i, msg) in got.iter().enumerate() {
        assert_eq!(*msg, result(i as u64, 64), "frame {i}");
    }
    assert_eq!(reactor.wire_bytes().1, total);
}

/// (b) A slot freed and re-occupied inside one event batch: the new
/// occupant never sees its predecessor's pending event, and the
/// predecessor's id never reaches the new occupant.
#[test]
fn recycled_slot_never_sees_its_predecessors_event() {
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let upstream_addr = upstream.local_addr().unwrap();
    let ids = Arc::new(Mutex::new(Vec::<String>::new()));
    let script_ids = Arc::clone(&ids);
    let mut by_tag: HashMap<u32, ConnId> = HashMap::new();
    let (reactor, log) = spawn(1 << 20, SLICE, None, move |conns, id, tag, msg| {
        by_tag.insert(tag, id);
        match msg {
            // Tag 2 stalls the loop so tags 0 and 1 become ready
            // together and land in one event batch, 0 first.
            Message::Deregister => std::thread::sleep(Duration::from_millis(200)),
            // Tag 0 drops tag 1 — whose event is still pending in
            // this batch — and re-occupies its slot.
            Message::Register { .. } => {
                let victim = by_tag[&1];
                conns.drop_conn(victim);
                let heir = conns.connect(upstream_addr, 99).unwrap();
                assert!(conns.get_mut(victim).is_none());
                assert!(!conns.send(victim, &result(13, 1).encode_frame()));
                *script_ids.lock().unwrap() = vec![format!("{victim:?}"), format!("{heir:?}")];
            }
            _ => {}
        }
    });

    let (mut a, mut b, mut c) = (connect(&reactor), connect(&reactor), connect(&reactor));
    send(&mut a, &[update(0)]);
    wait_for("tag 0", || saw(&log, &Seen::Frame(0, update(0))) == 1);
    send(&mut b, &[update(1)]);
    wait_for("tag 1", || saw(&log, &Seen::Frame(1, update(1))) == 1);
    send(&mut c, &[Message::Deregister]);
    std::thread::sleep(Duration::from_millis(50));
    send(&mut a, &[register()]);
    send(&mut b, &[update(7), update(8), update(9)]);

    // The heir's peer speaks; only that reaches the heir.
    let (mut heir_peer, _) = upstream.accept().unwrap();
    send(&mut heir_peer, &[result(7, 2)]);
    wait_for("the heir's frame", || {
        saw(&log, &Seen::Frame(99, result(7, 2))) == 1
    });

    let ids = ids.lock().unwrap().clone();
    let slot = |s: &str| s[..s.find("gen").unwrap()].to_string();
    assert_eq!(slot(&ids[0]), slot(&ids[1]), "the freed slot is reused");
    assert_ne!(ids[0], ids[1], "in a new generation");
    let log = log.lock().unwrap().clone();
    let of_victim: Vec<&Seen> = log
        .iter()
        .filter(|s| matches!(s, Seen::Frame(1, _) | Seen::Closed(1, _)))
        .collect();
    assert_eq!(
        of_victim,
        [&Seen::Frame(1, update(1)), &Seen::Closed(1, Closed::Local)],
        "the victim's pending frames were delivered after its drop"
    );
    let of_heir = log
        .iter()
        .filter(|s| matches!(s, Seen::Frame(99, _) | Seen::Closed(99, _)));
    assert_eq!(of_heir.count(), 1, "{log:?}");
    // Nothing addressed to the victim leaked to the heir's peer.
    heir_peer
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    assert!(heir_peer.read(&mut [0u8; 16]).is_err());
}

/// (c) A connection whose bounded write buffer overflows is dropped
/// without an `Error` frame, while its neighbour keeps streaming.
#[test]
fn overflowing_consumer_is_dropped_alone_and_without_an_error_frame() {
    const BIG: u32 = 60_000;
    // `write_buf` 0 clamps to one maximal frame — two and a bit of
    // these replies.
    let (reactor, log) = spawn(0, SLICE, Some(16 * 1024), |conns, id, _, msg| {
        if let Message::PositionUpdate { .. } = msg {
            conns.send(id, &result(0, BIG).encode_frame());
        }
    });
    let mut neighbour = connect(&reactor);
    let mut roundtrip = |i: u32| {
        send(&mut neighbour, &[update(i)]);
        let mut rx = FrameBuf::new();
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let n = neighbour.read(&mut chunk).unwrap();
            assert!(n > 0, "neighbour closed at round {i}");
            rx.extend(&chunk[..n]);
            if let Some((msg, _)) = rx.next_message().unwrap() {
                assert_eq!(msg, result(0, BIG));
                return;
            }
        }
    };
    roundtrip(0);

    let mut stalled = connect(&reactor);
    sys::set_recv_buffer(sys::raw_fd(&stalled), 16 * 1024).unwrap();
    for i in 0..8 {
        // (Once it has been dropped its writes fail; that is the
        // point.)
        let _ = stalled.write_all(&update(i).encode_frame());
        roundtrip(i);
    }
    wait_for("the overflow drop", || {
        saw(&log, &Seen::Closed(1, Closed::Overflow)) == 1
    });
    roundtrip(100);

    let (got, clean) = read_to_end(&mut stalled);
    assert!(!clean || got.len() < 8, "nothing was dropped");
    assert!(
        got.iter().all(|m| *m == result(0, BIG)),
        "an overflow drop sends no Error frame"
    );
    assert_eq!(saw(&log, &Seen::Closed(0, Closed::Overflow)), 0);
}

/// (d) Shutdown with connections in every state — fresh, mid-frame,
/// closing with a residue — joins within two poll slices and closes them
/// all.
#[test]
fn shutdown_joins_promptly_whatever_the_connections_are_doing() {
    let slice = Duration::from_millis(100);
    let (mut reactor, log) = spawn(4 << 20, slice, Some(16 * 1024), |conns, id, _, msg| {
        if let Message::PositionUpdate { .. } = msg {
            for i in 0..4000 {
                conns.send(id, &result(i, 64).encode_frame());
            }
            conns.close(id);
        }
    });
    let mut fresh = connect(&reactor);
    let mut partial = connect(&reactor);
    // Half a frame: the reactor holds it, waiting for the rest.
    let frame = register().encode_frame();
    partial.write_all(&frame[..frame.len() / 2]).unwrap();
    let mut closing = connect(&reactor);
    sys::set_recv_buffer(sys::raw_fd(&closing), 16 * 1024).unwrap();
    send(&mut closing, &[update(0)]);
    wait_for("the close", || {
        saw(&log, &Seen::Closed(2, Closed::Local)) == 1
    });

    let t0 = Instant::now();
    reactor.stop();
    let took = t0.elapsed();
    assert!(
        took <= 2 * slice,
        "shutdown took {took:?} with a {slice:?} poll slice"
    );
    // Shutdown is not a close-after-flush: the residue is cut off.
    let (got, _) = read_to_end(&mut closing);
    assert!(got.len() < 4000, "residue survived shutdown");
    assert!(read_to_end(&mut fresh).0.is_empty());
    assert!(read_to_end(&mut partial).0.is_empty());
    assert!(
        log.lock()
            .unwrap()
            .iter()
            .all(|s| !matches!(s, Seen::Frame(1, _))),
        "half a frame was delivered"
    );
}

// ---------------------------------------------------------------------
// Short reads. A read that comes back short of its buffer drained the
// socket, so the connection's turn ends there; level-triggered readiness
// reports whatever arrives later. None of that may lose or tear a frame.

/// A frame cut in two, the halves written with a pause between them:
/// the first half is read alone (a short read), and the frame is
/// delivered once, whole, when the rest arrives.
#[test]
fn a_frame_split_over_two_writes_with_a_pause_arrives_whole() {
    let (reactor, log) = spawn(1 << 20, SLICE, None, |_, _, _, _| {});
    let mut peer = connect(&reactor);
    let frame = register().encode_frame();
    let half = frame.len() / 2;
    peer.write_all(&frame[..half]).unwrap();
    wait_for("the first half to be read", || {
        reactor.wire_bytes().0 == half as u64
    });
    std::thread::sleep(4 * SLICE);
    assert!(log.lock().unwrap().is_empty(), "half a frame was delivered");

    peer.write_all(&frame[half..]).unwrap();
    wait_for("the frame", || !log.lock().unwrap().is_empty());
    std::thread::sleep(4 * SLICE);
    assert_eq!(*log.lock().unwrap(), vec![Seen::Frame(0, register())]);
}

/// Exactly `bytes` of wire in whole frames: results of 64 ids, padded
/// to the exact length by one `Error` frame.
fn frames_of_exactly(bytes: usize) -> Vec<Message> {
    let pad = |len: usize| Message::Error {
        code: insq_net::ErrorCode::Malformed,
        detail: "x".repeat(len),
    };
    let base = pad(0).encode_frame().len();
    let (mut msgs, mut left) = (Vec::new(), bytes);
    loop {
        let next = result(msgs.len() as u64, 64);
        let len = next.encode_frame().len();
        if left < len + base {
            break;
        }
        msgs.push(next);
        left -= len;
    }
    msgs.push(pad(left - base));
    let wire: usize = msgs.iter().map(|m| m.encode_frame().len()).sum();
    assert_eq!(wire, bytes);
    msgs
}

/// A burst of exactly one read buffer (a full read: the turn goes on
/// and finds the socket empty) and one of three buffers and a byte
/// (three full reads, then a one-byte short one) is delivered in full,
/// in order.
#[test]
fn bursts_of_whole_read_buffers_are_delivered_in_full() {
    use insq_net::buffer::READ_CHUNK;
    for bytes in [READ_CHUNK, 3 * READ_CHUNK + 1] {
        let (reactor, log) = spawn(1 << 20, SLICE, None, |_, _, _, _| {});
        let mut peer = connect(&reactor);
        let msgs = frames_of_exactly(bytes);
        send(&mut peer, &msgs);
        wait_for("the whole burst", || reactor.wire_bytes().0 == bytes as u64);
        wait_for("every frame", || log.lock().unwrap().len() == msgs.len());
        let want: Vec<Seen> = msgs.into_iter().map(|m| Seen::Frame(0, m)).collect();
        assert_eq!(*log.lock().unwrap(), want, "burst of {bytes} B");
    }
}

/// Frames and the peer's FIN in one go: the short read that takes the
/// frames ends the turn, the FIN is reported at the next wakeup, and
/// the handler sees every frame, then one `Eof`.
#[test]
fn data_then_fin_delivers_every_frame_then_one_eof() {
    let (reactor, log) = spawn(1 << 20, SLICE, None, |_, _, _, _| {});
    let mut peer = connect(&reactor);
    let msgs: Vec<Message> = (0..5).map(update).collect();
    send(&mut peer, &msgs);
    peer.shutdown(Shutdown::Write).unwrap();
    wait_for("the EOF", || saw(&log, &Seen::Closed(0, Closed::Eof)) > 0);
    std::thread::sleep(4 * SLICE);
    let mut want: Vec<Seen> = msgs.into_iter().map(|m| Seen::Frame(0, m)).collect();
    want.push(Seen::Closed(0, Closed::Eof));
    assert_eq!(*log.lock().unwrap(), want);
}

/// A `ClientCore` whose last read came back short answers the next poll
/// that finds no buffered frame with "nothing yet" and no syscall; a
/// caller that polls again without waiting for readiness reads the next
/// frame one call later.
#[test]
fn a_client_spinning_on_poll_gets_the_next_frame_one_call_later() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut core = insq_net::ClientCore::connect(listener.local_addr().unwrap()).unwrap();
    let (mut server, _) = listener.accept().unwrap();
    server.set_nodelay(true).unwrap();
    let poll_until_some = |core: &mut insq_net::ClientCore| {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(msg) = core.poll_message().unwrap() {
                return msg;
            }
            assert!(Instant::now() < deadline, "no frame for 20 s");
        }
    };

    send(&mut server, &[result(0, 4), result(1, 4)]);
    assert_eq!(poll_until_some(&mut core), result(0, 4));
    assert_eq!(poll_until_some(&mut core), result(1, 4));

    // The last read was short. The next frame is in the socket before
    // the client polls again.
    send(&mut server, &[result(2, 4)]);
    sys::wait_readable(core.raw_fd()).unwrap();
    assert_eq!(core.poll_message().unwrap(), None, "the short-read poll");
    assert_eq!(core.poll_message().unwrap(), Some(result(2, 4)));
    assert!(!core.is_eof());

    // A spinning caller still sees frames and the end of the stream.
    send(&mut server, &[result(3, 4)]);
    drop(server);
    assert_eq!(poll_until_some(&mut core), result(3, 4));
    let deadline = Instant::now() + Duration::from_secs(20);
    while !core.is_eof() {
        assert_eq!(core.poll_message().unwrap(), None);
        assert!(Instant::now() < deadline, "no EOF for 20 s");
    }
}
