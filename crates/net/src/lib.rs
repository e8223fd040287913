//! # insq-net
//!
//! The TCP serving surface of the INSQ system. The paper's INS protocol
//! is explicitly a client/server *communication-minimisation* scheme —
//! the server ships `R ∪ I(R)` so the moving client can self-validate —
//! and this crate turns the in-process fleet engine into an actual
//! service, so the model-level communication counters correspond to
//! real bytes on a real socket:
//!
//! * [`wire`] — a dependency-free, versioned, length-prefixed binary
//!   codec ([`Encode`]/[`Decode`], no serde) for the protocol:
//!   `Register`, `PositionUpdate`, `Deregister` (client → server),
//!   `KnnResult`, `EpochNotify`, `Error` (server → client); `Mux` and
//!   `Drained` let one connection carry many sessions.
//!   Decoding never panics or over-allocates on untrusted bytes.
//! * [`WireSpace`] — wire conversions per [`insq_core::Space`]
//!   (positions are validated against the served index; both in-tree
//!   spaces implement it).
//! * [`reactor`] — the one connection driver: a readiness-driven event
//!   loop on non-blocking sockets (the in-tree [`sys::Readiness`] set:
//!   `epoll`, level-triggered, O(ready) wakeups, so serving requires
//!   Linux; same no-deps discipline as `crates/compat/`) that owns
//!   sockets, incremental frame reassembly
//!   ([`FrameBuf`]), bounded write buffers ([`WriteBuf`]), the listener
//!   and the close rules, and hands frames to a [`Handler`]. Per-session
//!   memory is bounded and live sessions are limited by file
//!   descriptors, not threads.
//! * [`NetServer`] — the handler in front of an epoch-versioned `World`
//!   and `FleetEngine`: sessions map 1:1 to never-reused `QueryId`s, and
//!   results and epoch-swap notifications are pushed after each tick.
//!   *When* the fleet ticks is an explicit `TickPolicy`
//!   ([`NetServerConfig::policy`]): `Barrier` (lockstep, deterministic)
//!   or `Deadline` (event-driven — stale sessions are re-served their
//!   last result instead of stalling the fleet).
//! * [`ClientCore`] / [`NetClient`] — the client library, split into a
//!   non-blocking core (`try_send_update` / `poll_event` returning
//!   typed [`ClientEvent`]s, so one thread can drive thousands of
//!   sessions) and the blocking convenience API re-expressed on top,
//!   with wire-byte accounting (the repo benchmark's `wire_fleet`
//!   workload reports measured `net.bytes_*_per_answer` next to the
//!   paper's `comm_objects_per_answer` counter).
//!
//! ## Determinism
//!
//! Under the default `Barrier` policy the reactor ticks the whole fleet
//! only when every live session has a fresh position, through the same
//! deterministic sharded engine as the in-process path — so per-session
//! result streams over real TCP are **bit-identical** to
//! `FleetEngine::tick_all` fed the same positions, across delta-epoch
//! swaps and at any worker-thread count (`tests/loopback_soak.rs`
//! asserts exactly this, for the Euclidean and road-network spaces).
//! `Deadline` trades that lockstep for liveness; its semantics are
//! pinned by the engine-level suite in
//! `crates/server/tests/tick_policy.rs`.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use insq_core::Euclidean;
//! use insq_geom::{Aabb, Point};
//! use insq_index::VorTree;
//! use insq_net::{NetClient, NetServer, NetServerConfig};
//! use insq_server::World;
//!
//! let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
//! let pts = (0..100).map(|i| Point::new((i % 10) as f64 * 10.0, (i / 10) as f64 * 10.0 + 0.25)).collect();
//! let world = Arc::new(World::new(VorTree::build(pts, bounds.inflated(10.0)).unwrap()));
//! let server: NetServer<Euclidean> =
//!     NetServer::bind("127.0.0.1:0", Arc::clone(&world), NetServerConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! client.register::<Euclidean>(3, 1.6, Point::new(50.0, 50.0)).unwrap();
//! let (epoch, knn, _outcome) = client.next_knn::<Euclidean>().unwrap();
//! assert_eq!((epoch.0, knn.len()), (0, 3));
//!
//! for tick in 1..5 {
//!     client.update::<Euclidean>(Point::new(50.0 + tick as f64, 50.0)).unwrap();
//!     let (_, knn, _) = client.next_knn::<Euclidean>().unwrap();
//!     assert_eq!(knn.len(), 3);
//! }
//! client.deregister().unwrap();
//! server.shutdown();
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the `sys` module opts back in for the
// hand-audited FFI calls (`poll`, `epoll_*`, `get/setrlimit`,
// `clock_gettime`, `setsockopt`) behind the reactor. Everything else
// in the crate still refuses unsafe code.
#![deny(unsafe_code)]

pub mod buffer;
pub mod client;
pub mod reactor;
pub mod server;
pub mod space;
pub mod sys;
pub mod wire;

pub use buffer::{FrameBuf, WriteBuf};
pub use client::{ClientCore, ClientEvent, KnnUpdate, NetClient, NetError};
pub use reactor::{Closed, ConnId, Conns, Handler, Reactor, ReactorHandle};
pub use server::{NetServer, NetServerConfig};
pub use space::{PosError, WireSpace};
pub use wire::{
    Decode, DecodeError, Encode, ErrorCode, Message, Reader, SpaceKind, WireOutcome, WirePos,
    FLAG_UNCERTIFIED, MAX_IDS, MAX_PAYLOAD_LEN, WIRE_VERSION,
};
