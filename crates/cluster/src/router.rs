//! The cluster's wire front-end: one server socket, N partition
//! backends, transparent handoff.
//!
//! [`RouterServer`] speaks the ordinary `insq-net` protocol to clients
//! — a phone app talks to a partitioned deployment exactly the way it
//! talks to a single [`insq_net::NetServer`] — and keeps **one leg per
//! backend**: an outbound connection, made at first need and again after
//! a loss, that carries every session of that backend as `Mux` frames
//! tagged by session (wire v3). A backend's tick reaches the router in
//! one read, and a session costs it one descriptor: its client's. It is
//! a [`Handler`] on the same [`insq_net::Reactor`] core as `NetServer`
//! (sockets, framing, bounded buffers and close rules are the core's).
//! Three translations happen in flight:
//!
//! * **Routing**: `Register` and `PositionUpdate` frames carry planar
//!   positions; the router homes them through its [`Partitioner`] and
//!   forwards them, tagged, on that region's leg.
//! * **Id rewrite**: backend `KnnResult` frames carry region-local site
//!   ids; the router rewrites them to global ids through the rewrite
//!   tables fixed at [`RouterServer::bind`] so clients only ever see the
//!   ids a single-world deployment would emit. `FLAG_UNCERTIFIED` passes
//!   through untouched.
//! * **Handoff**: when a fresh position homes in a different region, the
//!   router sends `Deregister` to the old backend and `Register` (same
//!   query, this position as its first tick) to the new one, and
//!   **drains**: the old backend's in-flight results forward until it
//!   answers `Drained`, while the new one's wait (bounded by the client's
//!   write bound). No socket opens; the client keeps one connection and
//!   one ordered result stream.
//!
//! Failure is isolated per session and per leg: a tagged frame that does
//! not decode, an out-of-range id or a protocol violation fails its
//! session alone ([`ErrorCode::Malformed`]); bytes with no readable
//! envelope, a backend disconnect or a transport error end the leg and
//! every session that backend serves or drains, each with an error frame
//! (`Malformed`, or [`ErrorCode::Unavailable`]) — other backends'
//! sessions never notice. A leg's write bound is a
//! [`RouterConfig::write_buf`] share per session, and a client flooding
//! a backend busy in a tick ends alone ([`ErrorCode::Overloaded`]) at
//! its share, before the leg overflows. A departing client is
//! deregistered at its backend at once; after its own `Deregister` it
//! closes once its queued output flushes, and whatever the backend still
//! sends for it is dropped.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use insq_geom::Point;
use insq_net::wire::{ErrorCode, Message, SpaceKind, WirePos};
use insq_net::{Closed, ConnId, Conns, Handler, Reactor, ReactorHandle};
use insq_server::{Partitioner, RegionId};

/// Configuration of a [`RouterServer`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend partition servers, indexed by [`RegionId`] — must match
    /// the partitioner's region count.
    pub backends: Vec<SocketAddr>,
    /// Rewrite tables (`tables[region][local_id] = global_id`), fixed
    /// for the router's lifetime, typically
    /// [`crate::ClusterPlan::tables`]. Empty means identity (backends
    /// already speak global ids).
    pub tables: Vec<Vec<u32>>,
    /// Byte bound of each session's client-facing write buffer.
    pub write_buf: usize,
    /// Hard cap on concurrent sessions (`0` = no cap).
    pub max_sessions: usize,
}

impl RouterConfig {
    /// A default-tuned configuration over the given backends.
    pub fn new(backends: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig {
            backends,
            tables: Vec::new(),
            write_buf: 256 * 1024,
            max_sessions: 0,
        }
    }
}

struct RouterShared {
    part: Arc<dyn Partitioner + Send + Sync>,
    tables: Vec<Vec<u32>>,
    backends: Vec<SocketAddr>,
    live: AtomicUsize,
    handoffs: AtomicU64,
}

/// The partition-routing wire front-end. See the module docs; built by
/// [`RouterServer::bind`].
pub struct RouterServer {
    shared: Arc<RouterShared>,
    reactor: ReactorHandle,
}

impl std::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterServer")
            .field("addr", &self.local_addr())
            .field("backends", &self.shared.backends.len())
            .field("sessions", &self.live_sessions())
            .field("handoffs", &self.handoffs())
            .finish_non_exhaustive()
    }
}

/// Rewrite tables are either empty (identity: backends already speak
/// global ids) or hold exactly one row per region — a missing row would
/// silently pass that region's local ids to clients as global ones.
fn check_tables(tables: &[Vec<u32>], regions: usize) -> io::Result<()> {
    if tables.is_empty() || tables.len() == regions {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{} rewrite-table rows for {regions} regions (need none or one per region)",
            tables.len()
        ),
    ))
}

impl RouterServer {
    /// Binds the client-facing listener and starts the routing reactor.
    /// `part` must have exactly as many regions as `cfg.backends` has
    /// addresses, and `cfg.tables` must be empty or have one row per
    /// region — anything else is an `InvalidInput` error. Bind to port 0
    /// to let the OS pick.
    pub fn bind(
        addr: impl ToSocketAddrs,
        part: Arc<dyn Partitioner + Send + Sync>,
        cfg: RouterConfig,
    ) -> io::Result<RouterServer> {
        if part.regions() != cfg.backends.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} backend addresses for {} partition regions (need one each)",
                    cfg.backends.len(),
                    part.regions()
                ),
            ));
        }
        check_tables(&cfg.tables, cfg.backends.len())?;
        let shared = Arc::new(RouterShared {
            part,
            tables: cfg.tables,
            backends: cfg.backends,
            live: AtomicUsize::new(0),
            handoffs: AtomicU64::new(0),
        });
        let routing = Routing {
            legs: vec![None; shared.backends.len()],
            shared: Arc::clone(&shared),
            clients: HashMap::new(),
            next_tag: 0,
            write_buf: cfg.write_buf,
        };
        let reactor = Reactor::spawn(addr, cfg.max_sessions, cfg.write_buf, routing)?;
        Ok(RouterServer { shared, reactor })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.reactor.local_addr()
    }

    /// Live registered sessions.
    pub fn live_sessions(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Completed mid-session handoffs so far.
    pub fn handoffs(&self) -> u64 {
        self.shared.handoffs.load(Ordering::Relaxed)
    }

    /// Client-side wire bytes `(received, sent)` so far.
    pub fn wire_bytes(&self) -> (u64, u64) {
        self.reactor.wire_bytes()
    }

    /// Stops the reactor, closing every session and backend connection.
    /// Called automatically on drop.
    pub fn shutdown(mut self) {
        self.reactor.stop();
    }
}

/// One client session: which backends hold it and how far along it is.
#[derive(Default)]
struct Session {
    /// The router-assigned tag of this session's frames on every leg,
    /// from registration on.
    tag: u32,
    /// Bytes of this session's updates queued on its leg since the leg
    /// was last seen empty.
    queued: usize,
    /// The query's `(space, k, rho)`, to re-register at a handoff target.
    reg: Option<(SpaceKind, u32, f64)>,
    /// The region serving the session — target of forwarded client
    /// frames. `Some` from registration on.
    current: Option<RegionId>,
    /// The old region during a handoff: its frames forward until its
    /// `Drained`, while `current`'s wait in `held`, in order.
    draining: Option<RegionId>,
    /// Inner payloads from `current` that arrived during the drain.
    held: Vec<Vec<u8>>,
}

/// What one reactor connection is to the router.
enum RouterConn {
    /// An accepted client connection.
    Client(Session),
    /// The outbound connection to a region's backend, carrying every
    /// session that backend serves.
    Leg(RegionId),
}

/// The router's [`Handler`]: client frames → route / handoff, leg
/// frames → by tag: rewrite + forward, hold or drain.
struct Routing {
    shared: Arc<RouterShared>,
    /// Each backend's leg: connected at first use, forgotten when lost.
    legs: Vec<Option<ConnId>>,
    /// Tag → client connection, for every registered client session.
    clients: HashMap<u32, ConnId>,
    next_tag: u32,
    /// [`RouterConfig::write_buf`], which also bounds a drain's backlog
    /// and each session's share of its leg.
    write_buf: usize,
}

impl Handler for Routing {
    type Conn = RouterConn;

    fn poll_slice(&self) -> Duration {
        Duration::from_millis(5)
    }

    fn on_accept(&mut self, _stream: &TcpStream) -> RouterConn {
        RouterConn::Client(Session::default())
    }

    fn on_frame(&mut self, conns: &mut Conns<RouterConn>, id: ConnId, msg: Message) {
        match conns.get_mut(id) {
            Some(&mut RouterConn::Leg(region)) => {
                // No envelope, no session to charge: the leg goes, and
                // with it every session it carries.
                let Message::Mux { session, payload } = msg else {
                    return conns.drop_conn(id);
                };
                // Frames for a session not (or no longer) served there
                // are dropped; a handoff target's wait out the drain.
                let Some(&client) = self.clients.get(&session) else {
                    return;
                };
                let Some(RouterConn::Client(sess)) = conns.get_mut(client) else {
                    return;
                };
                if sess.current == Some(region) && sess.draining.is_some() {
                    sess.held.push(payload);
                    if sess.held.iter().map(Vec::len).sum::<usize>() > self.write_buf {
                        let detail = "handoff backlog exceeds the write bound";
                        conns.fail(client, ErrorCode::Overloaded, detail);
                    }
                } else if [sess.current, sess.draining].contains(&Some(region)) {
                    self.forward(conns, client, region, &payload);
                }
            }
            Some(RouterConn::Client(_)) => self.route_client_frame(conns, id, msg),
            None => {}
        }
    }

    fn on_close(
        &mut self,
        conns: &mut Conns<RouterConn>,
        _: ConnId,
        conn: RouterConn,
        why: Closed,
    ) {
        match conn {
            // The client is gone or closing: its backend is told; frames
            // still in flight for its tag find no session.
            RouterConn::Client(sess) => {
                if sess.reg.is_some() {
                    self.clients.remove(&sess.tag);
                    self.shared.live.fetch_sub(1, Ordering::Relaxed);
                    self.rebound(conns);
                }
                if let Some(region) = sess.current {
                    self.tell(
                        conns,
                        region,
                        &Message::mux_frame(sess.tag, &Message::Deregister),
                    );
                }
            }
            // A leg ended: every session served or draining there ends
            // with a verdict; the next one homed there reconnects.
            RouterConn::Leg(region) => {
                self.legs[region.0 as usize] = None;
                let (code, detail) = match why {
                    Closed::Malformed | Closed::Local => {
                        (ErrorCode::Malformed, "backend stream corrupt")
                    }
                    _ => (ErrorCode::Unavailable, "partition backend lost"),
                };
                let on_leg = |s: &Session| [s.current, s.draining].contains(&Some(region));
                let clients: Vec<ConnId> = self.clients.values().copied().collect();
                for client in clients {
                    if matches!(conns.get_mut(client), Some(RouterConn::Client(s)) if on_leg(s)) {
                        conns.fail(client, code, detail);
                    }
                }
            }
        }
    }
}

impl Routing {
    /// Routes one decoded client frame.
    fn route_client_frame(&mut self, conns: &mut Conns<RouterConn>, id: ConnId, msg: Message) {
        let Some(RouterConn::Client(sess)) = conns.get_mut(id) else {
            return;
        };
        let tag = sess.tag;
        match (sess.reg.is_some(), msg) {
            (false, Message::Register { space, k, rho, pos }) => match self.shared.home(&pos) {
                Some(region) => {
                    // A fresh tag, skipping any still in use should the
                    // counter wrap.
                    sess.tag = loop {
                        self.next_tag = self.next_tag.wrapping_add(1);
                        if !self.clients.contains_key(&self.next_tag) {
                            break self.next_tag;
                        }
                    };
                    sess.reg = Some((space, k, rho));
                    self.shared.live.fetch_add(1, Ordering::Relaxed);
                    self.clients.insert(sess.tag, id);
                    self.home_at(conns, id, region, pos);
                }
                None => conns.fail(id, ErrorCode::BadPosition, NOT_PLANAR),
            },
            (false, _) => conns.fail(id, ErrorCode::NotRegistered, "first frame must register"),
            (true, Message::PositionUpdate { pos }) => {
                let (Some(current), draining) = (sess.current, sess.draining.is_some()) else {
                    return;
                };
                let update = Message::mux_frame(tag, &Message::PositionUpdate { pos });
                match self.shared.home(&pos) {
                    None => conns.fail(id, ErrorCode::BadPosition, NOT_PLANAR),
                    Some(_) if !self.admit(conns, id, current, update.len()) => {
                        let detail = "updates outrun the partition backend";
                        conns.fail(id, ErrorCode::Overloaded, detail);
                    }
                    Some(home) if home != current && !draining => {
                        self.home_at(conns, id, home, pos)
                    }
                    // A crossing *during* an unfinished drain keeps
                    // feeding the current backend (results stay exact
                    // over its replicas, flagged when out of margin);
                    // the next update after the drain completes
                    // re-routes.
                    Some(_) => self.tell(conns, current, &update),
                }
            }
            // As at a single server: what is queued still flushes.
            (true, Message::Deregister) => conns.close(id),
            (true, Message::Register { .. }) => {
                let detail = "session already registered";
                conns.fail(id, ErrorCode::AlreadyRegistered, detail);
            }
            (true, _) => conns.fail(id, ErrorCode::Malformed, "server-bound frame expected"),
        }
    }

    /// Registers session `id`'s query at `region`'s backend, where `pos`
    /// homes — at registration, or at a border crossing, which also
    /// deregisters it at the old backend and opens the drain.
    fn home_at(
        &mut self,
        conns: &mut Conns<RouterConn>,
        id: ConnId,
        region: RegionId,
        pos: WirePos,
    ) {
        let at = region.0 as usize;
        if self.legs[at].is_none() {
            match conns.connect(self.shared.backends[at], RouterConn::Leg(region)) {
                Ok(leg) => self.legs[at] = Some(leg),
                Err(e) => {
                    let detail = format!("partition {region} backend: {e}");
                    return conns.fail(id, ErrorCode::Unavailable, &detail);
                }
            }
        }
        let Some(RouterConn::Client(sess)) = conns.get_mut(id) else {
            return;
        };
        let ((space, k, rho), tag, old) = (sess.reg.expect("registered"), sess.tag, sess.current);
        sess.current = Some(region);
        sess.draining = old;
        if let Some(old) = old {
            self.tell(conns, old, &Message::mux_frame(tag, &Message::Deregister));
            self.shared.handoffs.fetch_add(1, Ordering::Relaxed);
        }
        let register = Message::Register { space, k, rho, pos };
        self.tell(conns, region, &Message::mux_frame(tag, &register));
        self.rebound(conns);
    }

    /// Sends a tagged frame on `region`'s leg, if it is up.
    fn tell(&self, conns: &mut Conns<RouterConn>, region: RegionId, frame: &[u8]) {
        if let Some(leg) = self.legs[region.0 as usize] {
            conns.send(leg, frame);
        }
    }

    /// A leg's write bound: a `write_buf` share for each session the
    /// router carries, and one more for the router's own frames.
    fn leg_bound(&self) -> usize {
        self.write_buf.saturating_mul(self.clients.len() + 1)
    }

    fn rebound(&self, conns: &mut Conns<RouterConn>) {
        for &leg in self.legs.iter().flatten() {
            conns.set_write_bound(leg, self.leg_bound());
        }
    }

    /// Whether session `id` may queue `n` more bytes on `at`'s leg: a
    /// client sending while its backend reads nothing is refused once its
    /// own unsent updates pass its share or the leg is half full, before
    /// the leg can overflow on its neighbours. Its count restarts
    /// whenever the leg is seen empty, so a client in step never nears it.
    fn admit(&self, conns: &mut Conns<RouterConn>, id: ConnId, at: RegionId, n: usize) -> bool {
        let pending = self.legs[at.0 as usize].map_or(0, |leg| conns.pending(leg));
        let Some(RouterConn::Client(sess)) = conns.get_mut(id) else {
            return false;
        };
        sess.queued = if pending == 0 { 0 } else { sess.queued } + n;
        sess.queued <= self.write_buf && pending <= self.leg_bound() / 2
    }

    /// Rewrites and forwards one inner message from `region` to `client`;
    /// a body that does not decode fails that session alone.
    fn forward(
        &mut self,
        conns: &mut Conns<RouterConn>,
        client: ConnId,
        region: RegionId,
        payload: &[u8],
    ) {
        let msg = match Message::decode_inner(payload) {
            Ok(msg) => msg,
            Err(e) => {
                let detail = format!("backend {region} sent an undecodable frame: {e}");
                return conns.fail(client, ErrorCode::Malformed, &detail);
            }
        };
        let out = match msg {
            Message::KnnResult {
                epoch,
                ids,
                outcome,
                flags,
            } => {
                let Some(ids) = rewrite_ids(self.shared.tables.get(region.0 as usize), ids) else {
                    let detail = format!("backend {region} returned an unknown site id");
                    return conns.fail(client, ErrorCode::Malformed, &detail);
                };
                Message::KnnResult {
                    epoch,
                    ids,
                    outcome,
                    flags,
                }
            }
            // Per-region epochs pass through: the client sees the epoch
            // stream of whichever region serves it, exactly as pushed.
            Message::EpochNotify { epoch } => Message::EpochNotify { epoch },
            // The backend ended this query's session; relay the verdict
            // and end ours the same way.
            Message::Error { code, detail } => return conns.fail(client, code, &detail),
            // The end of a handoff's drain: the held frames follow, in
            // order.
            Message::Drained => {
                if let Some(RouterConn::Client(sess)) = conns.get_mut(client) {
                    if let (Some(current), Some(_)) = (sess.current, sess.draining.take()) {
                        for payload in std::mem::take(&mut sess.held) {
                            self.forward(conns, client, current, &payload);
                        }
                    }
                }
                return;
            }
            _ => return conns.fail(client, ErrorCode::Malformed, "backend protocol violation"),
        };
        conns.send(client, &out.encode_frame());
    }
}

const NOT_PLANAR: &str = "router requires a planar position";

impl RouterShared {
    /// The region a wire position homes in (`None` for road-network and
    /// non-finite positions — the router only partitions planar spaces
    /// for now).
    fn home(&self, pos: &WirePos) -> Option<RegionId> {
        match *pos {
            WirePos::Point { x, y } if x.is_finite() && y.is_finite() => {
                Some(self.part.region_of(Point::new(x, y)))
            }
            _ => None,
        }
    }
}

/// Maps region-local result ids through one table row (`None` row =
/// identity tables). `None` means some id was out of range — a corrupt
/// backend.
fn rewrite_ids(row: Option<&Vec<u32>>, ids: Vec<u32>) -> Option<Vec<u32>> {
    match row {
        None => Some(ids),
        Some(row) => ids
            .into_iter()
            .map(|local| row.get(local as usize).copied())
            .collect(),
    }
}
