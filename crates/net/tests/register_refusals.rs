//! A `Register` the server cannot serve is refused on the wire, and the
//! server serves on: a session in the wrong space gets one
//! `Error { SpaceMismatch }` frame and then a clean close (the outcome
//! `Conns::fail` documents), and a frame whose space byte names no space
//! at all loses its framing — one `Error { Malformed }` frame, then the
//! close. Neither leaves a session behind.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::wire::Message;
use insq_net::{ErrorCode, FrameBuf, NetClient, NetServer, NetServerConfig, SpaceKind, WirePos};
use insq_server::World;

const TIMEOUT: Duration = Duration::from_secs(20);

fn server() -> NetServer<Euclidean> {
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = (0..100)
        .map(|i| Point::new((i % 10) as f64 * 10.0 + 0.5, (i / 10) as f64 * 10.0 + 0.25))
        .collect();
    let index = VorTree::build(pts, bounds.inflated(10.0)).expect("valid sites");
    NetServer::bind(
        "127.0.0.1:0",
        Arc::new(World::new(index)),
        NetServerConfig::default(),
    )
    .expect("binds")
}

/// A Euclidean session registered after a refusal still gets answers.
fn assert_still_serving(server: &NetServer<Euclidean>) {
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client
        .register::<Euclidean>(3, 1.6, Point::new(50.0, 50.0))
        .expect("register");
    let (_, ids, _) = client.next_knn::<Euclidean>().expect("an answer");
    assert_eq!(ids.len(), 3);
    assert_eq!(server.live_sessions(), 1);
}

#[test]
fn a_session_in_the_wrong_space_gets_space_mismatch_and_a_close() {
    let server = server();
    let addr = server.local_addr();
    // `recv` blocks without a timeout: the client runs on its own
    // thread so that a server that never answers fails the test instead
    // of hanging it.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .register_raw(SpaceKind::Network, 3, 1.6, WirePos::Vertex(0))
            .expect("register");
        let verdict = client.recv().expect("read the verdict");
        let after = client.recv().expect("read to the close");
        tx.send((verdict, after)).expect("report");
    });
    let (verdict, after) = rx.recv_timeout(TIMEOUT).expect("no answer in time");
    assert_eq!(
        verdict,
        Some(Message::Error {
            code: ErrorCode::SpaceMismatch,
            detail: "this server serves Euclidean".into(),
        })
    );
    assert_eq!(after, None, "the connection closes after the verdict");
    assert_eq!(server.live_sessions(), 0);
    assert_still_serving(&server);
}

#[test]
fn an_unknown_space_byte_is_malformed_and_closes() {
    let server = server();
    let mut frame = Message::Register {
        space: SpaceKind::Euclidean,
        k: 3,
        rho: 1.6,
        pos: WirePos::Point { x: 50.0, y: 50.0 },
    }
    .encode_frame();
    // Length prefix (4), version, tag, then the space byte.
    assert_eq!(frame[6], 0);
    frame[6] = 2;

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    stream.write_all(&frame).expect("write");
    let (mut rx, mut chunk, mut frames) = (FrameBuf::new(), [0u8; 4096], Vec::new());
    loop {
        let n = stream.read(&mut chunk).expect("read before the timeout");
        if n == 0 {
            break;
        }
        rx.extend(&chunk[..n]);
        while let Some((msg, _)) = rx.next_message().expect("valid frame") {
            frames.push(msg);
        }
    }
    assert_eq!(
        frames,
        vec![Message::Error {
            code: ErrorCode::Malformed,
            detail: "bad space kind discriminant 2".into(),
        }]
    );
    assert_eq!(server.live_sessions(), 0);
    assert_still_serving(&server);
}
