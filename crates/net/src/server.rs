//! The INSQ TCP server: an event-driven reactor in front of a
//! [`World`] + [`FleetEngine`].
//!
//! [`NetServer`] owns the epoch-versioned world and the fleet engine
//! and serves them from **one readiness-driven event loop** over
//! non-blocking sockets (an in-tree [`crate::sys::Readiness`] backend —
//! `epoll` on Linux, portable `poll(2)` elsewhere, selectable via
//! [`NetServerConfig::readiness`]) — not a thread per connection, so
//! live sessions are bounded by file descriptors, not threads.
//! Interest registration is **persistent**: a socket is registered once
//! on accept, its write interest toggled only on buffer-empty
//! transitions, and deregistered on drop, so a wakeup costs O(ready
//! events) on `epoll` — not O(live sessions), and never an interest-set
//! rebuild:
//!
//! * each accepted connection becomes a **session** after a valid
//!   `Register` frame — one [`SpaceQuery`] in the engine, mapped 1:1 to
//!   a [`QueryId`] (ids are never reused, so a dropped session can
//!   never alias a live one). Inbound bytes are reassembled
//!   incrementally ([`crate::FrameBuf`]) — a frame may arrive split
//!   across any number of readiness wakeups;
//! * the loop drives accept → decode → batch → tick → push. When to
//!   tick is an explicit [`TickPolicy`] ([`NetServerConfig::policy`]):
//!   under `Barrier` the fleet advances only when every live session
//!   has a fresh position (the deterministic lockstep spec — result
//!   streams are bit-identical to [`FleetEngine::tick_all`] fed the
//!   same positions, which `tests/loopback_soak.rs` proves across a
//!   delta-epoch swap); under `Deadline { max_staleness }` the fleet
//!   advances on whatever positions have arrived (paced by
//!   [`NetServerConfig::tick_interval`]), **re-serving** each stale
//!   session its cached last result and force-ticking any session held
//!   past `max_staleness` — one slow phone no longer stalls the fleet;
//! * results are pushed through **bounded per-session write buffers**
//!   ([`crate::WriteBuf`], [`NetServerConfig::write_buf`] bytes) with
//!   partial-write continuation under `POLLOUT`. A session whose
//!   buffer would overflow (slow consumer) is disconnected rather than
//!   growing without bound; a disconnect — graceful `Deregister`,
//!   dropped socket, or overflow — deregisters the query and the
//!   remaining sessions keep ticking undisturbed;
//! * epoch swaps ([`World::publish`] / [`World::apply`] on
//!   [`NetServer::world`]) are **pushed**: each session gets an
//!   `EpochNotify` before its first result computed against the new
//!   epoch (re-served stale results are from the old epoch and carry
//!   no notify — the session's query has not rebound yet).
//!
//! The engine lives behind a plain mutex: the reactor thread locks it
//! to register/deregister/tick, the owner's API calls ([`stats`],
//! [`query_ids`]) lock it to read — there is no condvar and no
//! lock-order graph, and the engine's own scoped-thread pool still
//! parallelises the tick itself.
//!
//! [`stats`]: NetServer::stats
//! [`query_ids`]: NetServer::query_ids

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use insq_core::InsConfig;
use insq_server::{
    Epoch, FleetConfig, FleetEngine, FleetStats, QueryId, SpaceQuery, TickDisposition, TickPolicy,
    TickPos, World,
};

use crate::buffer::{FrameBuf, WriteBuf, READ_CHUNK};
use crate::space::WireSpace;
use crate::sys::{self, Event, Readiness, ReadinessKind};
use crate::wire::{ErrorCode, Message};

/// Configuration of a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Shard/worker configuration of the underlying [`FleetEngine`].
    pub fleet: FleetConfig,
    /// When the reactor ticks the fleet. [`TickPolicy::Barrier`] (the
    /// default) is the deterministic lockstep spec;
    /// [`TickPolicy::Deadline`] is the event-driven mode.
    pub policy: TickPolicy,
    /// The first tick fires only once this many sessions have ever
    /// registered (a start barrier, so a fleet connecting one by one is
    /// ticked as one batch from tick 0). `0`/`1` means tick as soon as
    /// any session is ready.
    pub min_clients: usize,
    /// Byte bound of each session's outbound write buffer (clamped up
    /// so one maximal frame always fits). A session that falls this far
    /// behind is disconnected instead of growing without bound.
    pub write_buf: usize,
    /// Under [`TickPolicy::Deadline`], how long the reactor batches
    /// freshly arrived positions before ticking a partially fresh fleet
    /// (a fully fresh fleet ticks immediately). Ignored under
    /// `Barrier`.
    pub tick_interval: Duration,
    /// Hard cap on concurrent connections; beyond it the reactor stops
    /// accepting until a session closes (`0` means no cap).
    pub max_sessions: usize,
    /// Partition-backend mode: the replication margin this server's
    /// world is guaranteed complete within. When set, every fresh
    /// [`Message::KnnResult`] carries
    /// [`crate::wire::FLAG_UNCERTIFIED`] unless the query's k-th
    /// neighbor distance (at its tick position) is ≤ this margin and a
    /// full k neighbors exist — i.e. the served index provably contains
    /// every site that could beat the result. `None` (the default, a
    /// whole-world server) always certifies.
    pub certify_within: Option<f64>,
    /// Which readiness backend drives the reactor. The default defers
    /// to the `INSQ_READINESS` environment variable (so a CI matrix can
    /// force the portable backend suite-wide) and otherwise
    /// auto-selects `epoll` on Linux, `poll(2)` elsewhere.
    pub readiness: ReadinessKind,
    /// Kernel send-buffer bound applied (best effort) to every accepted
    /// session. Setting it locks the buffer against kernel autotuning,
    /// so a slow reader's backlog lands in the session's accountable
    /// [`WriteBuf`] (bounded by [`NetServerConfig::write_buf`]) instead
    /// of ballooning invisible kernel memory. `None` (the default)
    /// leaves the kernel's autotuning in charge.
    pub sndbuf: Option<usize>,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            fleet: FleetConfig::default(),
            policy: TickPolicy::Barrier,
            min_clients: 1,
            write_buf: 64 * 1024,
            tick_interval: Duration::from_millis(5),
            max_sessions: 0,
            certify_within: None,
            readiness: ReadinessKind::from_env(),
            sndbuf: None,
        }
    }
}

impl NetServerConfig {
    /// A configuration whose first tick waits for `n` registrations.
    pub fn with_min_clients(n: usize) -> NetServerConfig {
        NetServerConfig {
            min_clients: n,
            ..NetServerConfig::default()
        }
    }

    /// A configuration serving under the given [`TickPolicy`].
    pub fn with_policy(policy: TickPolicy) -> NetServerConfig {
        NetServerConfig {
            policy,
            ..NetServerConfig::default()
        }
    }
}

/// State shared between the reactor thread and the owner's API calls.
struct Shared<S: WireSpace> {
    world: Arc<World<S::Index>>,
    engine: Mutex<FleetEngine<S::Index, SpaceQuery<S>>>,
    cfg: NetServerConfig,
    shutdown: AtomicBool,
    ticks: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    live: AtomicUsize,
    buf_high_water: AtomicU64,
}

impl<S: WireSpace> Shared<S> {
    fn engine(&self) -> MutexGuard<'_, FleetEngine<S::Index, SpaceQuery<S>>> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A TCP serving frontend for one space's fleet engine. See the module
/// docs for the protocol; `examples/net_fleet.rs` for a complete run.
pub struct NetServer<S: WireSpace> {
    shared: Arc<Shared<S>>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
}

impl<S: WireSpace> std::fmt::Debug for NetServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("sessions", &self.live_sessions())
            .field("ticks", &self.ticks())
            .finish_non_exhaustive()
    }
}

impl<S: WireSpace> NetServer<S> {
    /// Binds a listener and starts serving `world` (the reactor thread
    /// starts immediately). Bind to port 0 to let the OS pick.
    pub fn bind(
        addr: impl ToSocketAddrs,
        world: Arc<World<S::Index>>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer<S>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        // Open the readiness backend here, not in the reactor thread,
        // so an unsupported `ReadinessKind` fails the bind call.
        let readiness = Readiness::new(cfg.readiness)?;
        let engine = FleetEngine::new(Arc::clone(&world), cfg.fleet);
        let shared = Arc::new(Shared {
            world,
            engine: Mutex::new(engine),
            cfg,
            shutdown: AtomicBool::new(false),
            ticks: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            buf_high_water: AtomicU64::new(0),
        });
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || Reactor::new(shared, listener, readiness).run())
        };
        Ok(NetServer {
            shared,
            addr: local,
            reactor: Some(reactor),
        })
    }

    /// The bound address (use after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served world — publish or apply epochs through this handle;
    /// sessions are notified at their next result of the new epoch.
    pub fn world(&self) -> &Arc<World<S::Index>> {
        &self.shared.world
    }

    /// Live (registered, connected) sessions.
    pub fn live_sessions(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// The ids of all live queries, ascending — 1:1 with sessions.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.shared.engine().ids()
    }

    /// Aggregated statistics of the underlying fleet engine.
    pub fn stats(&self) -> FleetStats {
        self.shared.engine().stats()
    }

    /// Fleet ticks completed since the server started.
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// Wire bytes `(received, sent)` over all sessions so far.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (
            self.shared.bytes_in.load(Ordering::Relaxed),
            self.shared.bytes_out.load(Ordering::Relaxed),
        )
    }

    /// The largest read+write buffer footprint any single session has
    /// reached so far, in bytes — the soak harness asserts this stays
    /// bounded at 10k+ sessions.
    pub fn buffer_high_water(&self) -> u64 {
        self.shared.buf_high_water.load(Ordering::Relaxed)
    }

    /// Stops accepting, disconnects every session, and joins the
    /// reactor. Called automatically on drop; calling it explicitly
    /// surfaces the join point in the caller's control flow.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The reactor's poll wakes within its timeout slice and
        // observes the flag; no pipe trick needed at these latencies.
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl<S: WireSpace> Drop for NetServer<S> {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

/// One connection's reactor-side state.
struct Conn<S: WireSpace> {
    stream: TcpStream,
    rbuf: FrameBuf,
    wbuf: WriteBuf,
    /// `Some` once the session registered (1:1 with an engine query).
    qid: Option<QueryId>,
    /// A fresh position received since the last tick (several coalesce;
    /// the last one wins).
    pending: Option<S::Pos>,
    /// The last position this session ever supplied — what a deadline
    /// tick holds a stale query at.
    last_pos: Option<S::Pos>,
    /// The encoded frame of the last result pushed, re-served verbatim
    /// when a deadline tick leaves this session stale.
    last_result: Option<Vec<u8>>,
    /// The epoch this session last saw in a pushed result.
    last_epoch: Epoch,
    /// Half-closed: no more reads; flush `wbuf`, then drop the socket.
    closing: bool,
    /// The `(read, write)` interest currently registered with the
    /// readiness backend — [`Reactor::sync_interest`] issues a `modify`
    /// only when the desired interest diverges from this.
    reg: (bool, bool),
}

/// How many [`READ_CHUNK`]s one session may consume per wakeup before
/// yielding to its peers (level-triggered readiness re-reports the
/// rest — both backends register level-triggered; see
/// [`crate::sys::epoll`]).
const READS_PER_WAKEUP: usize = 4;

/// The listener's readiness token (no conn slot can reach it: slots
/// occupy the low 32 bits and generations the high 32, and a
/// generation never reaches `u32::MAX` — it would take 2^32 drops of
/// one slot).
const LISTENER_TOKEN: u64 = u64::MAX;

/// How long the reactor stops accepting after a resource-exhaustion
/// accept error (`EMFILE`/`ENFILE`/`ENOBUFS`). With level-triggered
/// readiness the listener would otherwise re-report readable instantly
/// and the loop would spin at 100% CPU exactly when the server is
/// fullest; pausing briefly lets live sessions keep being served and
/// retries once descriptors may have freed.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(25);

/// The readiness token of connection `slot` in its `gen`-th occupancy.
/// The generation tag keeps a recycled slot from consuming an event
/// batch's stale entries for its previous occupant.
fn conn_token(gen: u32, slot: usize) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

/// The single-threaded event loop: accept → decode → batch → tick →
/// push, all driven by backend readiness events.
struct Reactor<S: WireSpace> {
    shared: Arc<Shared<S>>,
    listener: TcpListener,
    readiness: Readiness,
    events: Vec<Event>,
    conns: Vec<Option<Conn<S>>>,
    /// Occupancy generation per slot, bumped on every drop (see
    /// [`conn_token`]).
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Registered sessions: query id → conn slot.
    by_qid: HashMap<u64, usize>,
    registered_ever: u64,
    /// Registered sessions holding an unconsumed `pending` position —
    /// maintained incrementally so tick-readiness is O(1) per wakeup,
    /// not an O(live) recount.
    fresh: usize,
    last_tick: Instant,
    /// Whether the listener is currently in the readiness set (it
    /// leaves when the session cap is reached or after an
    /// exhaustion-error pause).
    listener_armed: bool,
    accept_pause_until: Option<Instant>,
    scratch: Vec<u8>,
}

impl<S: WireSpace> Reactor<S> {
    fn new(shared: Arc<Shared<S>>, listener: TcpListener, readiness: Readiness) -> Reactor<S> {
        Reactor {
            shared,
            listener,
            readiness,
            events: Vec::new(),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            by_qid: HashMap::new(),
            registered_ever: 0,
            fresh: 0,
            last_tick: Instant::now(),
            listener_armed: false,
            accept_pause_until: None,
            scratch: vec![0u8; READ_CHUNK],
        }
    }

    fn run(mut self) {
        let poll_slice = self
            .shared
            .cfg
            .tick_interval
            .max(Duration::from_millis(1))
            .min(Duration::from_millis(10));
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            self.sync_listener();
            let mut events = std::mem::take(&mut self.events);
            if self.readiness.wait(Some(poll_slice), &mut events).is_err() {
                // Transient wait failure: pace and retry (shutdown is
                // still observed at the loop head).
                std::thread::sleep(poll_slice);
                self.events = events;
                continue;
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                let slot = (ev.token & u32::MAX as u64) as usize;
                let gen = (ev.token >> 32) as u32;
                if slot >= self.gens.len() || self.gens[slot] != gen {
                    // The occupant this event was for is already gone
                    // (dropped earlier in this same batch).
                    continue;
                }
                if ev.readable() {
                    self.read_ready(slot);
                }
                if ev.writable() {
                    self.write_ready(slot);
                }
                self.sync_interest(slot);
            }
            self.events = events;
            self.maybe_tick();
        }
        self.close_all();
    }

    /// Arms or disarms the listener to match whether the reactor can
    /// take a connection right now (below the session cap, not inside
    /// an exhaustion-error pause).
    fn sync_listener(&mut self) {
        if let Some(t) = self.accept_pause_until {
            if Instant::now() >= t {
                self.accept_pause_until = None;
            }
        }
        let cap = self.shared.cfg.max_sessions;
        let open = self.conns.len() - self.free.len();
        let want = (cap == 0 || open < cap) && self.accept_pause_until.is_none();
        if want && !self.listener_armed {
            self.listener_armed = self
                .readiness
                .register(sys::raw_fd(&self.listener), LISTENER_TOKEN, true, false)
                .is_ok();
        } else if !want && self.listener_armed {
            let _ = self.readiness.deregister(sys::raw_fd(&self.listener));
            self.listener_armed = false;
        }
    }

    /// Brings `slot`'s registered interest in line with its state: read
    /// while not closing, write while the write buffer is non-empty.
    /// No-op (no syscall) unless a transition actually happened.
    fn sync_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let want = (!conn.closing, !conn.wbuf.is_empty());
        if want == conn.reg {
            return;
        }
        conn.reg = want;
        let fd = sys::raw_fd(&conn.stream);
        let tok = conn_token(self.gens[slot], slot);
        if self.readiness.modify(fd, tok, want.0, want.1).is_err() {
            self.drop_conn(slot);
        }
    }

    /// Records `conn`'s buffer footprint into the shared high-water
    /// mark (called where the footprint can grow: reads and result
    /// pushes).
    fn note_buffers(&self, conn: &Conn<S>) {
        let footprint = (conn.rbuf.high_water() + conn.wbuf.high_water()) as u64;
        self.shared
            .buf_high_water
            .fetch_max(footprint, Ordering::Relaxed);
    }

    fn accept_ready(&mut self) {
        loop {
            let cap = self.shared.cfg.max_sessions;
            if cap != 0 && self.conns.len() - self.free.len() >= cap {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if let Some(bytes) = self.shared.cfg.sndbuf {
                        let _ = sys::set_send_buffer(sys::raw_fd(&stream), bytes);
                    }
                    let conn = Conn {
                        stream,
                        rbuf: FrameBuf::new(),
                        wbuf: WriteBuf::with_capacity(self.shared.cfg.write_buf),
                        qid: None,
                        pending: None,
                        last_pos: None,
                        last_result: None,
                        last_epoch: Epoch::default(),
                        closing: false,
                        reg: (true, false),
                    };
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.conns[slot] = Some(conn);
                            slot
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.gens.push(0);
                            self.conns.len() - 1
                        }
                    };
                    let fd = sys::raw_fd(&self.conns[slot].as_ref().expect("just placed").stream);
                    let tok = conn_token(self.gens[slot], slot);
                    if self.readiness.register(fd, tok, true, false).is_err() {
                        // Can't watch it, can't serve it. Close without
                        // the usual deregister bookkeeping (it never
                        // entered the readiness set).
                        let conn = self.conns[slot].take().expect("just placed");
                        let _ = conn.stream.shutdown(Shutdown::Both);
                        self.gens[slot] = self.gens[slot].wrapping_add(1);
                        self.free.push(slot);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::ConnectionAborted =>
                {
                    continue;
                }
                Err(_) => {
                    // Resource exhaustion (EMFILE/ENFILE/ENOBUFS…): the
                    // listener stays level-triggered readable, so
                    // returning here without disarming it would spin
                    // the loop at 100% CPU. Pause accepting; live
                    // sessions keep being served meanwhile.
                    self.accept_pause_until = Some(Instant::now() + ACCEPT_ERROR_PAUSE);
                    return;
                }
            }
        }
    }

    /// Drains the socket (bounded per wakeup) and processes every
    /// complete frame.
    fn read_ready(&mut self, slot: usize) {
        for _ in 0..READS_PER_WAKEUP {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.closing {
                return;
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // EOF: equivalent to a graceful deregister when at
                    // a frame boundary; either way the session ends.
                    self.finish(slot);
                    return;
                }
                Ok(n) => {
                    self.shared.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    let conn = self.conns[slot].as_mut().expect("checked above");
                    conn.rbuf.extend(&self.scratch[..n]);
                    self.note_buffers(self.conns[slot].as_ref().expect("checked above"));
                    if !self.drain_messages(slot) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(slot);
                    return;
                }
            }
        }
    }

    /// Decodes and handles every complete frame buffered on `slot`.
    /// Returns `false` once the connection is closing or gone.
    fn drain_messages(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return false;
            };
            if conn.closing {
                return false;
            }
            match conn.rbuf.next_message() {
                Ok(Some((msg, _n))) => {
                    if !self.handle_message(slot, msg) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(e) => {
                    // Framing is lost — no recovery beyond this frame.
                    self.fail(slot, ErrorCode::Malformed, &e.to_string());
                    return false;
                }
            }
        }
    }

    /// Handles one decoded client frame. Returns `false` once the
    /// connection is closing or gone.
    fn handle_message(&mut self, slot: usize, msg: Message) -> bool {
        let registered = self.conns[slot].as_ref().is_some_and(|c| c.qid.is_some());
        match (registered, msg) {
            (false, Message::Register { space, k, rho, pos }) => {
                if space != S::KIND {
                    self.fail(
                        slot,
                        ErrorCode::SpaceMismatch,
                        &format!("this server serves {:?}", S::KIND),
                    );
                    return false;
                }
                let (_, snapshot) = self.shared.world.snapshot();
                let pos = match S::pos_from_wire(&snapshot, pos) {
                    Ok(p) => p,
                    Err(e) => {
                        self.fail(slot, ErrorCode::BadPosition, &e.to_string());
                        return false;
                    }
                };
                let query =
                    match SpaceQuery::<S>::new(&self.shared.world, InsConfig::new(k as usize, rho))
                    {
                        Ok(q) => q,
                        Err(e) => {
                            self.fail(slot, ErrorCode::BadConfig, &e.to_string());
                            return false;
                        }
                    };
                let (qid, bound) = {
                    let mut engine = self.shared.engine();
                    let qid = engine.register(query);
                    let bound = engine
                        .query(qid)
                        .map(insq_server::FleetQuery::bound_epoch)
                        .unwrap_or_default();
                    (qid, bound)
                };
                let conn = self.conns[slot].as_mut().expect("checked above");
                conn.qid = Some(qid);
                conn.pending = Some(pos);
                conn.last_pos = Some(pos);
                conn.last_epoch = bound;
                self.by_qid.insert(qid.0, slot);
                self.registered_ever += 1;
                self.fresh += 1;
                self.shared.live.fetch_add(1, Ordering::Relaxed);
                true
            }
            (false, _) => {
                self.fail(slot, ErrorCode::NotRegistered, "first frame must register");
                false
            }
            (true, Message::PositionUpdate { pos }) => {
                let (_, snapshot) = self.shared.world.snapshot();
                match S::pos_from_wire(&snapshot, pos) {
                    Ok(p) => {
                        let conn = self.conns[slot].as_mut().expect("checked above");
                        if conn.pending.is_none() {
                            self.fresh += 1;
                        }
                        conn.pending = Some(p);
                        true
                    }
                    Err(e) => {
                        // An unusable position would hold the session
                        // at the barrier forever — close it.
                        self.fail(slot, ErrorCode::BadPosition, &e.to_string());
                        false
                    }
                }
            }
            (true, Message::Deregister) => {
                self.finish(slot);
                false
            }
            (true, Message::Register { .. }) => {
                self.fail(
                    slot,
                    ErrorCode::AlreadyRegistered,
                    "session already registered",
                );
                false
            }
            (true, _) => {
                self.fail(slot, ErrorCode::Malformed, "server-bound frame expected");
                false
            }
        }
    }

    /// Flushes what the socket will take; drops the connection on a
    /// write error or once a closing session has fully drained.
    fn write_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        match conn.wbuf.write_to(&mut conn.stream) {
            Ok(n) => {
                self.shared.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                let conn = self.conns[slot].as_mut().expect("checked above");
                if conn.closing && conn.wbuf.is_empty() {
                    self.drop_conn(slot);
                }
            }
            Err(_) => self.drop_conn(slot),
        }
    }

    /// Ends a session with a final error frame (best effort: queued
    /// behind whatever is pending, flushed, then closed).
    fn fail(&mut self, slot: usize, code: ErrorCode, detail: &str) {
        let frame = Message::Error {
            code,
            detail: detail.to_string(),
        }
        .encode_frame();
        self.deregister_slot(slot);
        if let Some(conn) = self.conns[slot].as_mut() {
            let _ = conn.wbuf.push(&frame);
            conn.closing = true;
        }
        self.write_ready(slot);
        self.sync_interest(slot);
    }

    /// Ends a session gracefully (deregister/EOF): no error frame,
    /// pending results still flush.
    fn finish(&mut self, slot: usize) {
        self.deregister_slot(slot);
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.closing = true;
            if conn.wbuf.is_empty() {
                self.drop_conn(slot);
                return;
            }
        }
        self.write_ready(slot);
        self.sync_interest(slot);
    }

    /// Removes the session's engine query (if registered), leaving the
    /// connection itself to drain.
    fn deregister_slot(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if let Some(qid) = conn.qid.take() {
            if conn.pending.take().is_some() {
                self.fresh -= 1;
            }
            self.by_qid.remove(&qid.0);
            self.shared.engine().deregister(qid);
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Hard-closes a connection and frees its slot.
    fn drop_conn(&mut self, slot: usize) {
        self.deregister_slot(slot);
        if let Some(conn) = self.conns[slot].take() {
            self.note_buffers(&conn);
            // Detach from the readiness set before the descriptor
            // closes (a closed fd left registered would poll NVAL
            // forever on the portable backend).
            let _ = self.readiness.deregister(sys::raw_fd(&conn.stream));
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.free.push(slot);
        }
    }

    /// Ticks the fleet if the configured policy says the moment has
    /// come.
    fn maybe_tick(&mut self) {
        let live = self.by_qid.len();
        if live == 0 || self.registered_ever < self.shared.cfg.min_clients as u64 {
            return;
        }
        // `fresh` is maintained incrementally on position arrival and
        // session teardown — no O(live) recount per wakeup.
        let fresh = self.fresh;
        match self.shared.cfg.policy {
            TickPolicy::Barrier => {
                if fresh < live {
                    return;
                }
            }
            TickPolicy::Deadline { .. } => {
                if fresh == 0 {
                    return;
                }
                if fresh < live && self.last_tick.elapsed() < self.shared.cfg.tick_interval {
                    return;
                }
            }
        }
        self.tick();
    }

    /// One fleet tick: batch positions, advance the engine under the
    /// policy, push each session its (possibly re-served) result.
    fn tick(&mut self) {
        self.last_tick = Instant::now();
        let policy = self.shared.cfg.policy;

        // Batch: consume every pending position. `Q::Pos` is `Copy`, so
        // the feed map costs one word-sized copy per session.
        let mut feed: HashMap<u64, TickPos<S::Pos>> = HashMap::with_capacity(self.by_qid.len());
        for (&qid, &slot) in &self.by_qid {
            let conn = self.conns[slot].as_mut().expect("by_qid slots are live");
            let tp = match conn.pending.take() {
                Some(p) => {
                    conn.last_pos = Some(p);
                    TickPos::Fresh(p)
                }
                None => match conn.last_pos {
                    Some(p) => TickPos::Held(p),
                    None => TickPos::Missing,
                },
            };
            feed.insert(qid, tp);
        }
        // Every pending position was just consumed.
        self.fresh = 0;

        // Tick + pair each disposition with its query's kNN in one O(n)
        // pass: `for_each_query` visits in exactly the (deterministic)
        // shard order `tick` reported in, and nothing mutates the
        // engine in between (the reactor holds the lock throughout).
        let mut dispositions: Vec<(QueryId, TickDisposition)> = Vec::new();
        let mut results: Vec<(QueryId, Option<Message>)> = Vec::with_capacity(self.by_qid.len());
        let epoch = {
            let mut engine = self.shared.engine();
            let summary = engine.tick(policy, |id| feed[&id.0], &mut dispositions);
            let mut at = 0usize;
            engine.for_each_query(|qid, q| {
                let (did, disposition) = dispositions[at];
                at += 1;
                debug_assert_eq!(did, qid, "disposition order matches query order");
                let msg = disposition.outcome().map(|outcome| {
                    let p = q.processor();
                    let knn = p.current_knn_with_dists();
                    let ids: Vec<u32> = knn.iter().map(|&(s, _)| S::id_to_wire(s)).collect();
                    let flags = match self.shared.cfg.certify_within {
                        Some(margin) => {
                            let full = knn.len() >= p.config().k;
                            let kth = knn.last().map_or(f64::INFINITY, |&(_, d)| d);
                            if full && kth <= margin {
                                0
                            } else {
                                crate::wire::FLAG_UNCERTIFIED
                            }
                        }
                        None => 0,
                    };
                    Message::KnnResult {
                        epoch: summary.epoch.0,
                        ids,
                        outcome: outcome.into(),
                        flags,
                    }
                });
                results.push((qid, msg));
            });
            summary.epoch
        };

        // Push: fresh results (epoch notify first where due) or the
        // cached last frame for re-served sessions. A session whose
        // write buffer can't take its result is dropped — bounded
        // memory beats a complete stream for a consumer this far gone.
        for (qid, msg) in results {
            let Some(&slot) = self.by_qid.get(&qid.0) else {
                continue;
            };
            let conn = self.conns[slot].as_mut().expect("by_qid slots are live");
            match msg {
                Some(msg) => {
                    if conn.last_epoch != epoch {
                        conn.last_epoch = epoch;
                        let notify = Message::EpochNotify { epoch: epoch.0 }.encode_frame();
                        if !conn.wbuf.push(&notify) {
                            self.drop_conn(slot);
                            continue;
                        }
                    }
                    let frame = msg.encode_frame();
                    let conn = self.conns[slot].as_mut().expect("by_qid slots are live");
                    if !conn.wbuf.push(&frame) {
                        self.drop_conn(slot);
                        continue;
                    }
                    conn.last_result = Some(frame);
                }
                None => {
                    // Re-serve: a session registers with a position, so
                    // its first tick should always be Fresh and a
                    // cached result should exist by the time a deadline
                    // tick leaves it stale. Should that invariant ever
                    // break (a hostile client finding a path around
                    // it), drop the one session — never panic the
                    // reactor every other session depends on.
                    let Some(frame) = conn.last_result.clone() else {
                        self.drop_conn(slot);
                        continue;
                    };
                    if !conn.wbuf.push(&frame) {
                        self.drop_conn(slot);
                        continue;
                    }
                }
            }
            if let Some(conn) = self.conns[slot].as_ref() {
                self.note_buffers(conn);
            }
            // Optimistic flush: most sessions take their frame in one
            // write, so write interest stays rare (armed by the
            // interest sync below only when the flush left a residue).
            self.write_ready(slot);
            self.sync_interest(slot);
        }
        self.shared.ticks.fetch_add(1, Ordering::Relaxed);
    }

    fn close_all(&mut self) {
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.drop_conn(slot);
            }
        }
    }
}
