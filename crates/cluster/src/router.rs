//! The cluster's wire front-end: one server socket, N partition
//! backends, transparent handoff.
//!
//! [`RouterServer`] speaks the ordinary `insq-net` protocol to clients
//! — a phone app talks to a partitioned deployment exactly the way it
//! talks to a single [`insq_net::NetServer`] — and gives every session
//! its own connection to the backend serving the session's current
//! region. It is a [`Handler`] on the same [`insq_net::Reactor`] core
//! as `NetServer`: client sessions are the accepted connections,
//! backend legs are outbound connections in the same slab, and sockets,
//! framing, bounded buffers and the close rules are the core's (see
//! [`insq_net::reactor`]). Three translations happen in flight:
//!
//! * **Routing**: `Register` and `PositionUpdate` frames carry planar
//!   positions; the router homes them through its
//!   [`Partitioner`] and forwards to the
//!   backend of that region.
//! * **Id rewrite**: backend `KnnResult` frames carry region-local site
//!   ids; the router rewrites them to global ids through its rewrite
//!   tables ([`RouterServer::set_tables`]) so clients only ever see the
//!   ids a single-world deployment would emit. `FLAG_UNCERTIFIED` passes
//!   through untouched.
//! * **Handoff**: when a fresh position homes in a different region, the
//!   router deregisters at the old backend, registers the same query
//!   config at the new one (the position doubles as the first tick, so
//!   the stream never skips a beat), and **drains** the old connection —
//!   in-flight results forward to the client in order until the old
//!   backend's clean close — before reading from the new one (the new
//!   leg is connected with reads paused and resumed on the old leg's
//!   EOF). The client keeps one uninterrupted connection and one
//!   ordered result stream throughout.
//!
//! Failure is isolated per session: a malformed or protocol-violating
//! backend frame fails only the session it arrived on
//! ([`ErrorCode::Malformed`]); an unexpected backend disconnect or
//! transport error fails only the session whose leg it was
//! ([`ErrorCode::Unavailable`]). Other sessions — including sessions
//! multiplexed over the same router to other partitions — keep
//! streaming. A client that disconnects takes its backend legs down at
//! once, while whatever was already queued for it still flushes.
//!
//! Rewrite tables are swapped atomically ([`RouterServer::set_tables`])
//! by whatever orchestrates delta epochs across the backends; swap them
//! while the affected backend is quiescent (between ticks), in the same
//! breath as the backend's `World::apply`, so no in-flight result is
//! rewritten through the wrong table generation.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
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
    /// Initial rewrite tables (`tables[region][local_id] = global_id`),
    /// typically [`crate::ClusterPlan::tables`]. Empty means identity
    /// (backends already speak global ids).
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
    tables: RwLock<Vec<Vec<u32>>>,
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
            tables: RwLock::new(cfg.tables),
            backends: cfg.backends,
            live: AtomicUsize::new(0),
            handoffs: AtomicU64::new(0),
        });
        let routing = Routing {
            shared: Arc::clone(&shared),
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

    /// Atomically replaces the local→global rewrite tables (after a
    /// delta epoch reshapes the regional site sets): empty, or one row
    /// per region — anything else is an `InvalidInput` error and leaves
    /// the tables as they were. See the module docs for the quiescence
    /// requirement.
    pub fn set_tables(&self, tables: Vec<Vec<u32>>) -> io::Result<()> {
        check_tables(&tables, self.shared.backends.len())?;
        *self
            .shared
            .tables
            .write()
            .unwrap_or_else(|e| e.into_inner()) = tables;
        Ok(())
    }

    /// Stops the reactor, closing every session and backend connection.
    /// Called automatically on drop.
    pub fn shutdown(mut self) {
        self.reactor.stop();
    }
}

/// The query facts needed to re-register at a handoff target.
#[derive(Clone, Copy)]
struct RegFacts {
    space: SpaceKind,
    k: u32,
    rho: f64,
}

/// One client session: its backend leg(s) and how far along it is.
#[derive(Default)]
struct Session {
    /// The current backend leg — target of forwarded client frames —
    /// and the region it serves. `Some` from registration on.
    current: Option<(ConnId, RegionId)>,
    /// The old leg during a handoff: forwarded (never written to again)
    /// until its clean close, while the current leg stays unread so the
    /// client's result stream stays ordered.
    draining: Option<ConnId>,
    reg: Option<RegFacts>,
    /// Client sent `Deregister`: close once the backend stream ends.
    finishing: bool,
}

/// What one reactor connection is to the router.
enum RouterConn {
    /// An accepted client connection.
    Client(Session),
    /// An outbound backend connection working for client `owner`;
    /// `region` selects the rewrite-table row for its frames.
    Leg { owner: ConnId, region: RegionId },
}

/// The router's [`Handler`]: client frames → route / handoff, leg
/// frames → id-rewrite + forward, leg endings → drain finished /
/// session finished / backend lost.
struct Routing {
    shared: Arc<RouterShared>,
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
            Some(&mut RouterConn::Leg { owner, region }) => {
                self.forward_backend_frame(conns, owner, region, msg)
            }
            Some(RouterConn::Client(_)) => self.route_client_frame(conns, id, msg),
            None => {}
        }
    }

    fn on_close(
        &mut self,
        conns: &mut Conns<RouterConn>,
        id: ConnId,
        conn: RouterConn,
        why: Closed,
    ) {
        let owner = match conn {
            // The client is gone (or closing): its legs go at once — the
            // backends observe our EOF as a deregister.
            RouterConn::Client(sess) => {
                if sess.reg.is_some() {
                    self.shared.live.fetch_sub(1, Ordering::Relaxed);
                }
                let current = sess.current.map(|(leg, _)| leg);
                for leg in current.into_iter().chain(sess.draining) {
                    conns.drop_conn(leg);
                }
                return;
            }
            RouterConn::Leg { owner, .. } => owner,
        };
        // One backend stream ended; what that means depends on which leg
        // it was. (A leg dropped because its owner ended finds no live
        // owner and means nothing.)
        let Some(RouterConn::Client(sess)) = conns.get_mut(owner) else {
            return;
        };
        match why {
            // The old leg's clean close is the handoff completing: the
            // new leg may speak now.
            Closed::Eof if sess.draining == Some(id) => {
                sess.draining = None;
                if let Some((current, _)) = sess.current {
                    conns.pause_reads(current, false);
                }
            }
            // The current leg's is the end of a deregistered session —
            Closed::Eof if sess.finishing => conns.close(owner),
            // — or an outage.
            Closed::Eof => conns.fail(owner, ErrorCode::Unavailable, "partition backend lost"),
            // Corrupt framing on this one leg: this session is lost, its
            // neighbours are not.
            Closed::Malformed => conns.fail(owner, ErrorCode::Malformed, "backend stream corrupt"),
            _ => conns.fail(owner, ErrorCode::Unavailable, "backend connection failed"),
        }
    }
}

impl Routing {
    /// Routes one decoded client frame.
    fn route_client_frame(&mut self, conns: &mut Conns<RouterConn>, id: ConnId, msg: Message) {
        let Some(RouterConn::Client(sess)) = conns.get_mut(id) else {
            return;
        };
        match (sess.reg.is_some(), msg) {
            (false, Message::Register { space, k, rho, pos }) => match self.shared.home(&pos) {
                Some(region) => {
                    sess.reg = Some(RegFacts { space, k, rho });
                    self.shared.live.fetch_add(1, Ordering::Relaxed);
                    self.open_leg(conns, id, region, pos);
                }
                None => conns.fail(id, ErrorCode::BadPosition, NOT_PLANAR),
            },
            (false, _) => conns.fail(id, ErrorCode::NotRegistered, "first frame must register"),
            (true, Message::PositionUpdate { pos }) => {
                let (current, region) = sess.current.expect("registered session");
                match self.shared.home(&pos) {
                    None => conns.fail(id, ErrorCode::BadPosition, NOT_PLANAR),
                    Some(home) if home != region && sess.draining.is_none() => {
                        self.open_leg(conns, id, home, pos)
                    }
                    // A crossing *during* an unfinished drain keeps
                    // feeding the current backend (results stay exact
                    // over its replicas, flagged when out of margin);
                    // the next update after the drain completes
                    // re-routes.
                    Some(_) => {
                        conns.send(current, &Message::PositionUpdate { pos }.encode_frame());
                    }
                }
            }
            (true, Message::Deregister) => {
                // Remaining backend frames (the drain, the final
                // results) still forward; the session closes when the
                // current backend's stream ends.
                sess.finishing = true;
                let (current, _) = sess.current.expect("registered session");
                conns.pause_reads(id, true);
                conns.send(current, &Message::Deregister.encode_frame());
            }
            (true, Message::Register { .. }) => {
                let detail = "session already registered";
                conns.fail(id, ErrorCode::AlreadyRegistered, detail);
            }
            (true, _) => conns.fail(id, ErrorCode::Malformed, "server-bound frame expected"),
        }
    }

    /// Registers session `id`'s query at the backend of `region`, where
    /// `pos` homes — the first registration, or the mid-session border
    /// crossing: deregister at the old backend (its close will end the
    /// drain) and register the same query at the new one with this
    /// position as its first tick, reads paused until the drain ends.
    fn open_leg(&self, conns: &mut Conns<RouterConn>, id: ConnId, region: RegionId, pos: WirePos) {
        let Some(RouterConn::Client(sess)) = conns.get_mut(id) else {
            return;
        };
        let (facts, old) = (sess.reg.expect("registered session"), sess.current);
        let addr = self.shared.backends[region.0 as usize];
        let leg = RouterConn::Leg { owner: id, region };
        let new = match conns.connect(addr, leg, old.is_some()) {
            Ok(new) => new,
            Err(e) => {
                let detail = format!("partition {region} backend: {e}");
                return conns.fail(id, ErrorCode::Unavailable, &detail);
            }
        };
        let register = Message::Register {
            space: facts.space,
            k: facts.k,
            rho: facts.rho,
            pos,
        };
        conns.send(new, &register.encode_frame());
        if let Some((old, _)) = old {
            conns.send(old, &Message::Deregister.encode_frame());
            self.shared.handoffs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(RouterConn::Client(sess)) = conns.get_mut(id) {
            sess.draining = old.map(|(old, _)| old);
            sess.current = Some((new, region));
        }
    }

    /// Rewrites and forwards one backend frame to client `owner`.
    fn forward_backend_frame(
        &mut self,
        conns: &mut Conns<RouterConn>,
        owner: ConnId,
        region: RegionId,
        msg: Message,
    ) {
        let out = match msg {
            Message::KnnResult {
                epoch,
                ids,
                outcome,
                flags,
            } => {
                let rewritten = {
                    let tables = self.shared.tables.read().unwrap_or_else(|e| e.into_inner());
                    rewrite_ids(tables.get(region.0 as usize), ids)
                };
                let Some(ids) = rewritten else {
                    let detail = format!("backend {region} returned an unknown site id");
                    return conns.fail(owner, ErrorCode::Malformed, &detail);
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
            Message::Error { code, detail } => {
                // The backend is closing this query's session; relay the
                // verdict and end ours the same way.
                return conns.fail(owner, code, &detail);
            }
            _ => return conns.fail(owner, ErrorCode::Malformed, "backend protocol violation"),
        };
        conns.send(owner, &out.encode_frame());
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
