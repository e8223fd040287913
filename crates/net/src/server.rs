//! The INSQ TCP server: a [`Handler`] on the shared [`Reactor`] in
//! front of a [`World`] + [`FleetEngine`].
//!
//! [`NetServer`] owns the epoch-versioned world and the fleet engine
//! and serves them from one reactor thread — not a thread per
//! connection, so live sessions are bounded by file descriptors, not
//! threads. Sockets, framing, bounded buffers, the listener and the
//! close rules are [`crate::reactor`]'s; what this module owns is the
//! protocol:
//!
//! * each accepted connection becomes a **session** after a valid
//!   `Register` frame — one [`SpaceQuery`] in the engine, mapped 1:1 to
//!   a [`QueryId`] (ids are never reused, so a dropped session can
//!   never alias a live one);
//! * a connection may carry many **tagged sessions** (`Mux` frames),
//!   each ending alone — `Error`, or `Drained` after its `Deregister` —
//!   with a write bound of [`NetServerConfig::write_buf`] × sessions;
//! * after every batch of frames the handler decides whether to tick.
//!   When to tick is an explicit [`TickPolicy`]
//!   ([`NetServerConfig::policy`]): under `Barrier` the fleet advances
//!   only when every live session has a fresh position (the
//!   deterministic lockstep spec — result streams are bit-identical to
//!   [`FleetEngine::tick_all`] fed the same positions, which
//!   `tests/loopback_soak.rs` proves across a delta-epoch swap); under
//!   `Deadline { max_staleness }` the fleet advances on whatever
//!   positions have arrived (paced by a fixed 5 ms tick interval),
//!   **re-serving** each stale session its cached last result and
//!   force-ticking any session held past `max_staleness` — one slow
//!   phone no longer stalls the fleet;
//! * results are pushed through the reactor's **bounded per-session
//!   write buffers** ([`NetServerConfig::write_buf`] bytes). A session
//!   whose buffer would overflow (slow consumer) is disconnected rather
//!   than growing without bound; a disconnect — graceful `Deregister`,
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
//! parallelises the tick itself once the fleet is large enough to pay
//! for it (a small fleet ticks on the reactor thread).
//!
//! [`stats`]: NetServer::stats
//! [`query_ids`]: NetServer::query_ids

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use insq_core::InsConfig;
use insq_server::{
    Epoch, FleetConfig, FleetEngine, FleetStats, QueryId, SpaceQuery, TickDisposition, TickPolicy,
    TickPos, World,
};

use crate::reactor::{Closed, ConnId, Conns, Handler, Reactor, ReactorHandle};
use crate::space::WireSpace;
use crate::sys;
use crate::wire::{ErrorCode, Message, FLAG_UNCERTIFIED};

/// Under [`TickPolicy::Deadline`], how long the reactor batches freshly
/// arrived positions before ticking a partially fresh fleet (a fully
/// fresh fleet ticks immediately); also the reactor's poll slice.
const TICK_INTERVAL: Duration = Duration::from_millis(5);

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
    /// Hard cap on concurrent connections, and on sessions (tagged ones
    /// included): beyond it the reactor stops accepting and a `Register`
    /// is refused `Overloaded` until a session closes. `0`: connections
    /// are uncapped and sessions stop at the open-file limit at bind —
    /// as many as there could be connections.
    pub max_sessions: usize,
    /// Partition-backend mode: the replication margin this server's
    /// world is guaranteed complete within. When set, every fresh
    /// [`Message::KnnResult`] carries
    /// [`crate::wire::FLAG_UNCERTIFIED`] unless
    /// [`insq_core::Processor::certified_within`] this margin — i.e.
    /// the served index provably contains every site that could beat
    /// the result. `None` (the default, a whole-world server) always
    /// certifies.
    pub certify_within: Option<f64>,
    /// Kernel send-buffer bound applied (best effort) to every accepted
    /// session. Setting it locks the buffer against kernel autotuning,
    /// so a slow reader's backlog lands in the session's accountable
    /// [`crate::WriteBuf`] (bounded by [`NetServerConfig::write_buf`]) instead
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
            max_sessions: 0,
            certify_within: None,
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
}

/// State shared between the reactor thread and the owner's API calls.
struct Shared<S: WireSpace> {
    world: Arc<World<S::Index>>,
    engine: Mutex<FleetEngine<S::Index, SpaceQuery<S>>>,
    cfg: NetServerConfig,
    ticks: AtomicU64,
    live: AtomicUsize,
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
    reactor: ReactorHandle,
}

impl<S: WireSpace> std::fmt::Debug for NetServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.local_addr())
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
        let engine = FleetEngine::new(Arc::clone(&world), cfg.fleet);
        let shared = Arc::new(Shared {
            world,
            engine: Mutex::new(engine),
            cfg,
            ticks: AtomicU64::new(0),
            live: AtomicUsize::new(0),
        });
        let serving = Serving {
            shared: Arc::clone(&shared),
            cap: match cfg.max_sessions {
                0 => sys::open_file_limit(),
                n => n,
            },
            by_qid: HashMap::new(),
            registered_ever: 0,
            fresh: 0,
            last_tick: Instant::now(),
            feed: HashMap::new(),
            dispositions: Vec::new(),
            results: Vec::new(),
        };
        let reactor = Reactor::spawn(addr, cfg.max_sessions, cfg.write_buf, serving)?;
        Ok(NetServer { shared, reactor })
    }

    /// The bound address (use after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.reactor.local_addr()
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
        self.reactor.wire_bytes()
    }

    /// The largest read+write buffer footprint any single session has
    /// reached so far, in bytes — the soak harness asserts this stays
    /// bounded at 10k+ sessions.
    pub fn buffer_high_water(&self) -> u64 {
        self.reactor.buffer_high_water()
    }

    /// Stops accepting, disconnects every session, and joins the
    /// reactor. Called automatically on drop; calling it explicitly
    /// surfaces the join point in the caller's control flow.
    pub fn shutdown(mut self) {
        self.reactor.stop();
    }
}

/// One session's protocol state.
struct Session<S: WireSpace> {
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
}

impl<S: WireSpace> Session<S> {
    fn new() -> Session<S> {
        Session {
            qid: None,
            pending: None,
            last_pos: None,
            last_result: None,
            last_epoch: Epoch::default(),
        }
    }
}

/// A connection's own session, and the tagged ones it may carry.
struct Conn<S: WireSpace> {
    direct: Session<S>,
    tagged: HashMap<u32, Session<S>>,
}

/// Where a session lives: its connection, and its tag if it has one.
type Route = (ConnId, Option<u32>);

fn session<S: WireSpace>(conns: &mut Conns<Conn<S>>, (id, tag): Route) -> Option<&mut Session<S>> {
    let conn = conns.get_mut(id)?;
    match tag {
        None => Some(&mut conn.direct),
        Some(tag) => conn.tagged.get_mut(&tag),
    }
}

/// `msg` framed for a session with tag `tag`.
fn framed(tag: Option<u32>, msg: &Message) -> Vec<u8> {
    match tag {
        None => msg.encode_frame(),
        Some(tag) => Message::mux_frame(tag, msg),
    }
}

/// The server's [`Handler`]: frames → engine, after each batch maybe a
/// tick → push.
struct Serving<S: WireSpace> {
    shared: Arc<Shared<S>>,
    /// The most registered sessions at once (see
    /// [`NetServerConfig::max_sessions`]).
    cap: usize,
    /// Registered sessions: query id → where the session lives.
    by_qid: HashMap<u64, Route>,
    registered_ever: u64,
    /// Registered sessions holding an unconsumed `pending` position —
    /// maintained incrementally so tick-readiness is O(1) per wakeup,
    /// not an O(live) recount.
    fresh: usize,
    last_tick: Instant,
    /// A tick's positions by query id, its dispositions and its results:
    /// cleared by every tick, their capacity kept.
    feed: HashMap<u64, TickPos<S::Pos>>,
    dispositions: Vec<(QueryId, TickDisposition)>,
    results: Vec<(QueryId, Option<Message>)>,
}

impl<S: WireSpace> Handler for Serving<S> {
    type Conn = Conn<S>;

    fn poll_slice(&self) -> Duration {
        TICK_INTERVAL
    }

    fn on_accept(&mut self, stream: &TcpStream) -> Conn<S> {
        if let Some(bytes) = self.shared.cfg.sndbuf {
            let _ = sys::set_send_buffer(sys::raw_fd(stream), bytes);
        }
        Conn {
            direct: Session::new(),
            tagged: HashMap::new(),
        }
    }

    fn on_frame(&mut self, conns: &mut Conns<Conn<S>>, id: ConnId, msg: Message) {
        // A tagged body that does not decode fails its own session only.
        let (tag, msg) = match msg {
            Message::Mux { session, payload } => (Some(session), Message::decode_inner(&payload)),
            msg => (None, Ok(msg)),
        };
        let served = msg
            .map_err(|e| (ErrorCode::Malformed, e.to_string()))
            .and_then(|msg| self.serve(conns, (id, tag), msg));
        if let Err((code, detail)) = served {
            self.end(conns, (id, tag), Some((code, &detail)));
        }
    }

    /// However a connection ends — `Deregister`, EOF, error, overflow —
    /// the queries of all its sessions go now; the connection itself may
    /// linger to flush.
    fn on_close(&mut self, _: &mut Conns<Conn<S>>, _: ConnId, conn: Conn<S>, _: Closed) {
        self.retire(conn.direct);
        conn.tagged.into_values().for_each(|sess| self.retire(sess));
    }

    /// Ticks the fleet if the configured policy says the moment has
    /// come.
    fn after_batch(&mut self, conns: &mut Conns<Conn<S>>) {
        let live = self.by_qid.len();
        if live == 0 || self.registered_ever < self.shared.cfg.min_clients as u64 {
            return;
        }
        let due = match self.shared.cfg.policy {
            TickPolicy::Barrier => self.fresh == live,
            TickPolicy::Deadline { .. } => {
                self.fresh == live || (self.fresh > 0 && self.last_tick.elapsed() >= TICK_INTERVAL)
            }
        };
        if due {
            self.tick(conns);
        }
    }
}

impl<S: WireSpace> Serving<S> {
    /// Serves one client → server message; an `Err` ends the session.
    fn serve(
        &mut self,
        conns: &mut Conns<Conn<S>>,
        (id, tag): Route,
        msg: Message,
    ) -> Result<(), (ErrorCode, String)> {
        if let (Some(tag), Some(conn)) = (tag, conns.get_mut(id)) {
            conn.tagged.entry(tag).or_insert_with(Session::new);
        }
        let Some(sess) = session(conns, (id, tag)) else {
            return Ok(());
        };
        match (sess.qid.is_some(), msg) {
            (false, Message::Register { space, k, rho, pos }) => {
                if self.by_qid.len() >= self.cap {
                    return Err((ErrorCode::Overloaded, "session cap reached".into()));
                }
                if space != S::KIND {
                    let detail = format!("this server serves {:?}", S::KIND);
                    return Err((ErrorCode::SpaceMismatch, detail));
                }
                let (_, snapshot) = self.shared.world.snapshot();
                let pos = S::pos_from_wire(&snapshot, pos)
                    .map_err(|e| (ErrorCode::BadPosition, e.to_string()))?;
                let config = InsConfig::new(k as usize, rho);
                let query = SpaceQuery::<S>::new(&self.shared.world, config)
                    .map_err(|e| (ErrorCode::BadConfig, e.to_string()))?;
                let mut engine = self.shared.engine();
                let qid = engine.register(query);
                sess.last_epoch = engine
                    .query(qid)
                    .map(insq_server::FleetQuery::bound_epoch)
                    .unwrap_or_default();
                drop(engine);
                sess.qid = Some(qid);
                sess.pending = Some(pos);
                sess.last_pos = Some(pos);
                self.by_qid.insert(qid.0, (id, tag));
                self.registered_ever += 1;
                self.fresh += 1;
                self.shared.live.fetch_add(1, Ordering::Relaxed);
                if tag.is_some() {
                    self.rebound(conns, id);
                }
                Ok(())
            }
            (false, _) => Err((ErrorCode::NotRegistered, "first frame must register".into())),
            (true, Message::PositionUpdate { pos }) => {
                let (_, snapshot) = self.shared.world.snapshot();
                // An unusable position would hold the session at the
                // barrier forever — close it.
                let p = S::pos_from_wire(&snapshot, pos)
                    .map_err(|e| (ErrorCode::BadPosition, e.to_string()))?;
                if sess.pending.replace(p).is_none() {
                    self.fresh += 1;
                }
                Ok(())
            }
            (true, Message::Deregister) => {
                self.end(conns, (id, tag), None);
                Ok(())
            }
            (true, Message::Register { .. }) => Err((
                ErrorCode::AlreadyRegistered,
                "session already registered".into(),
            )),
            (true, _) => Err((ErrorCode::Malformed, "server-bound frame expected".into())),
        }
    }

    /// Ends a session behind an `Error` verdict, or cleanly (`None`). A
    /// direct one takes its connection along (the query goes in
    /// `on_close`); a tagged one goes now, behind its `Error` or a
    /// `Drained`, and the connection serves on.
    fn end(
        &mut self,
        conns: &mut Conns<Conn<S>>,
        (id, tag): Route,
        verdict: Option<(ErrorCode, &str)>,
    ) {
        let Some(tag) = tag else {
            return match verdict {
                Some((code, detail)) => conns.fail(id, code, detail),
                None => conns.close(id),
            };
        };
        if let Some(sess) = conns.get_mut(id).and_then(|c| c.tagged.remove(&tag)) {
            self.retire(sess);
        }
        self.rebound(conns, id);
        let last = verdict.map_or(Message::Drained, |(code, detail)| Message::Error {
            code,
            detail: detail.into(),
        });
        conns.send(id, &Message::mux_frame(tag, &last));
    }

    /// Takes a session's query, if it registered one, out of the engine.
    fn retire(&mut self, sess: Session<S>) {
        if let Some(qid) = sess.qid {
            if sess.pending.is_some() {
                self.fresh -= 1;
            }
            self.by_qid.remove(&qid.0);
            self.shared.engine().deregister(qid);
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Scales `id`'s write bound with the tagged sessions it carries.
    fn rebound(&self, conns: &mut Conns<Conn<S>>, id: ConnId) {
        let carried = conns.get_mut(id).map_or(0, |c| c.tagged.len()).max(1);
        conns.set_write_bound(id, self.shared.cfg.write_buf.saturating_mul(carried));
    }

    /// One fleet tick: batch positions, advance the engine under the
    /// policy, push each session its (possibly re-served) result.
    fn tick(&mut self, conns: &mut Conns<Conn<S>>) {
        self.last_tick = Instant::now();
        let policy = self.shared.cfg.policy;

        // Batch: consume every pending position. `Q::Pos` is `Copy`, so
        // the feed map costs one word-sized copy per session.
        self.feed.clear();
        for (&qid, &route) in &self.by_qid {
            let sess = session(conns, route).expect("by_qid sessions are live");
            let tp = match sess.pending.take() {
                Some(p) => {
                    sess.last_pos = Some(p);
                    TickPos::Fresh(p)
                }
                None => match sess.last_pos {
                    Some(p) => TickPos::Held(p),
                    None => TickPos::Missing,
                },
            };
            self.feed.insert(qid, tp);
        }
        // Every pending position was just consumed.
        self.fresh = 0;

        // Tick + pair each disposition with its query's kNN in one O(n)
        // pass: `for_each_query` visits in exactly the (deterministic)
        // shard order `tick` reported in, and nothing mutates the
        // engine in between (the reactor holds the lock throughout).
        self.dispositions.clear();
        let (feed, dispositions) = (&self.feed, &mut self.dispositions);
        // Taken for the push loop, which needs `self`; it leaves the
        // buffer drained, and it is put back below.
        let mut results = std::mem::take(&mut self.results);
        let epoch = {
            let mut engine = self.shared.engine();
            let summary = engine.tick(policy, |id| feed[&id.0], dispositions);
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
                        Some(margin) if !p.certified_within(margin) => FLAG_UNCERTIFIED,
                        _ => 0,
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
        // cached last frame for re-served sessions. A connection whose
        // write buffer can't take its frames is dropped by `send`; the
        // reactor flushes each connection's frames in one write as the
        // loop moves on to the next connection — a backend leg's whole
        // tick leaves in one.
        for (qid, msg) in results.drain(..) {
            let Some(&route) = self.by_qid.get(&qid.0) else {
                continue;
            };
            let Some(sess) = session(conns, route) else {
                continue;
            };
            let (id, tag) = route;
            match msg {
                Some(msg) => {
                    if sess.last_epoch != epoch {
                        sess.last_epoch = epoch;
                        let notify = framed(tag, &Message::EpochNotify { epoch: epoch.0 });
                        if !conns.send(id, &notify) {
                            continue;
                        }
                    }
                    let frame = framed(tag, &msg);
                    if conns.send(id, &frame) {
                        session(conns, route).expect("just sent to").last_result = Some(frame);
                    }
                }
                // Re-serve: a session registers with a position, so its
                // first tick should always be Fresh and a cached result
                // should exist by the time a deadline tick leaves it
                // stale. Should that invariant ever break (a hostile
                // client finding a path around it), end the one
                // session — never panic the reactor every other session
                // depends on.
                None => match sess.last_result.clone() {
                    Some(frame) => {
                        conns.send(id, &frame);
                    }
                    None => {
                        let verdict = (ErrorCode::Unavailable, "no result to re-serve");
                        self.end(conns, route, Some(verdict));
                    }
                },
            }
        }
        self.results = results;
        self.shared.ticks.fetch_add(1, Ordering::Relaxed);
    }
}
