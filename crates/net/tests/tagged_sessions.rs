//! `NetServer`'s tagged sessions — many sessions on one connection, the
//! shape of a cluster router's backend leg — driven over a raw socket:
//! each session ends alone (a `Deregister` is answered `Drained`, a body
//! that does not decode or a nested envelope `Malformed`) while the
//! connection serves on; the session cap counts tagged sessions, and
//! without one the open-file limit does.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::wire::Message;
use insq_net::{
    sys, ErrorCode, FrameBuf, NetServer, NetServerConfig, SpaceKind, WirePos, WIRE_VERSION,
};
use insq_server::World;

const K: u32 = 3;

fn server(cfg: NetServerConfig) -> NetServer<Euclidean> {
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = (0..100)
        .map(|i| Point::new((i % 10) as f64 * 10.0 + 0.5, (i / 10) as f64 * 10.0 + 0.25))
        .collect();
    let index = VorTree::build(pts, bounds.inflated(10.0)).expect("valid sites");
    NetServer::bind("127.0.0.1:0", Arc::new(World::new(index)), cfg).expect("binds")
}

fn register(x: f64) -> Message {
    Message::Register {
        space: SpaceKind::Euclidean,
        k: K,
        rho: 1.6,
        pos: WirePos::Point { x, y: 50.0 },
    }
}

fn update(x: f64) -> Message {
    Message::PositionUpdate {
        pos: WirePos::Point { x, y: 50.0 },
    }
}

/// One connection carrying tagged sessions.
struct Leg {
    stream: TcpStream,
    rx: FrameBuf,
}

impl Leg {
    fn connect(addr: SocketAddr) -> Leg {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        Leg {
            stream,
            rx: FrameBuf::new(),
        }
    }

    fn send(&mut self, tag: u32, msg: &Message) {
        self.send_raw(&Message::mux_frame(tag, msg));
    }

    fn send_raw(&mut self, frame: &[u8]) {
        self.stream.write_all(frame).expect("write");
    }

    /// The next frame: its tag and opened inner message.
    fn recv(&mut self) -> (u32, Message) {
        loop {
            if let Some((msg, _)) = self.rx.next_message().expect("valid frame") {
                let Message::Mux { session, payload } = msg else {
                    panic!("untagged frame {msg:?} on a tagged connection");
                };
                return (session, Message::decode_inner(&payload).expect("inner"));
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "the server closed the connection");
            self.rx.extend(&chunk[..n]);
        }
    }

    /// Receives one result for each of `tags`, in any order.
    fn results(&mut self, tags: &[u32]) {
        let mut got: Vec<u32> = (0..tags.len())
            .map(|_| match self.recv() {
                (tag, Message::KnnResult { ids, .. }) => {
                    assert_eq!(ids.len(), K as usize);
                    tag
                }
                other => panic!("expected a result, got {other:?}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, tags);
    }

    fn expect_error(&mut self, tag: u32, code: ErrorCode) {
        match self.recv() {
            (t, Message::Error { code: c, .. }) if t == tag => assert_eq!(c, code),
            other => panic!("expected tag {tag}'s {code:?}, got {other:?}"),
        }
    }
}

#[test]
fn tagged_sessions_end_alone_and_the_connection_serves_on() {
    let server = server(NetServerConfig::with_min_clients(3));
    let mut leg = Leg::connect(server.local_addr());
    for (tag, x) in [(1, 20.0), (2, 50.0), (3, 80.0)] {
        leg.send(tag, &register(x));
    }
    leg.results(&[1, 2, 3]);
    assert_eq!(server.live_sessions(), 3);

    // A `Deregister` ends its session behind a `Drained`.
    leg.send(2, &Message::Deregister);
    assert_eq!(leg.recv(), (2, Message::Drained));
    for tag in [1, 3] {
        leg.send(tag, &update(21.0 + tag as f64));
    }
    leg.results(&[1, 3]);

    // A body that does not decode fails its session alone; so does an
    // envelope inside the envelope.
    let bad_body = Message::Mux {
        session: 3,
        payload: vec![WIRE_VERSION, 0xEE],
    };
    leg.send_raw(&bad_body.encode_frame());
    leg.expect_error(3, ErrorCode::Malformed);
    leg.send(1, &update(25.0));
    leg.results(&[1]);
    let inner = Message::mux_frame(7, &update(26.0));
    let nested = Message::Mux {
        session: 1,
        payload: inner[4..].to_vec(),
    };
    leg.send_raw(&nested.encode_frame());
    leg.expect_error(1, ErrorCode::Malformed);
    assert_eq!(server.live_sessions(), 0);

    // The connection serves on: a new tag registers and is answered.
    leg.send(9, &register(40.0));
    leg.results(&[9]);
    assert_eq!(server.live_sessions(), 1);
}

#[test]
fn the_session_cap_counts_tagged_sessions() {
    let server = server(NetServerConfig {
        max_sessions: 2,
        ..NetServerConfig::default()
    });
    let mut leg = Leg::connect(server.local_addr());
    leg.send(1, &register(20.0));
    leg.results(&[1]);
    leg.send(2, &register(30.0));
    leg.send(3, &register(40.0));
    leg.expect_error(3, ErrorCode::Overloaded);

    // A direct session on a second connection is refused the same way.
    let mut direct = TcpStream::connect(server.local_addr()).expect("connect");
    direct
        .write_all(&register(60.0).encode_frame())
        .expect("write");
    direct
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let (mut rx, mut chunk) = (FrameBuf::new(), [0u8; 4096]);
    let verdict = loop {
        if let Some((msg, _)) = rx.next_message().expect("valid frame") {
            break msg;
        }
        let n = direct.read(&mut chunk).expect("read");
        assert!(n > 0, "closed without a verdict");
        rx.extend(&chunk[..n]);
    };
    assert!(
        matches!(
            verdict,
            Message::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        ),
        "{verdict:?}"
    );

    // The two admitted sessions tick on.
    leg.send(1, &update(21.0));
    leg.results(&[1, 2]);
    assert_eq!(server.live_sessions(), 2);
}

#[test]
fn uncapped_tagged_sessions_stop_at_the_descriptor_limit() {
    // Without `max_sessions`, one connection registers no more sessions
    // than the server could have had connections: the open-file limit
    // as it stood at bind. (The limit is the whole process's; it is
    // lowered only while the server binds.)
    const LIMIT: u32 = 100;
    sys::set_open_file_limit(LIMIT.into()).expect("lower the limit");
    let server = server(NetServerConfig::with_min_clients(LIMIT as usize));
    sys::max_open_files().expect("restore the limit");
    let mut leg = Leg::connect(server.local_addr());
    for tag in 1..=LIMIT + 1 {
        leg.send(tag, &register(1.0 + tag as f64 * 0.9));
    }
    let mut answered: Vec<u32> = (0..=LIMIT)
        .map(|_| match leg.recv() {
            (tag, Message::KnnResult { .. }) => tag,
            (tag, Message::Error { code, .. }) => {
                assert_eq!((tag, code), (LIMIT + 1, ErrorCode::Overloaded));
                tag
            }
            other => panic!("expected a result or the refusal, got {other:?}"),
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (1..=LIMIT + 1).collect::<Vec<_>>());
    assert_eq!(server.live_sessions(), LIMIT as usize);

    // A session that ends makes room on the same connection.
    leg.send(1, &Message::Deregister);
    assert_eq!(leg.recv(), (1, Message::Drained));
    leg.send(LIMIT + 2, &register(50.0));
    for tag in 2..=LIMIT {
        leg.send(tag, &update(2.0 + tag as f64 * 0.9));
    }
    leg.results(&(2..=LIMIT).chain([LIMIT + 2]).collect::<Vec<_>>());
    assert_eq!(server.live_sessions(), LIMIT as usize);
}
