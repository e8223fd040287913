//! The one connection driver behind every INSQ wire front-end.
//!
//! A [`Reactor`] runs **one readiness-driven event loop** over
//! non-blocking sockets and hands decoded frames to a [`Handler`]. The
//! core owns everything that is plumbing rather than protocol:
//!
//! * the **slab** of connections. A handler only ever holds a
//!   [`ConnId`] — slot plus occupancy generation — so an id (or a
//!   readiness event) that outlives its connection resolves to nothing
//!   instead of to the slot's next occupant;
//! * the [`Readiness`] set with **persistent interest**: a socket is
//!   registered once, its interest modified only when "wants reads" or
//!   "has queued output" actually changes, and deregistered before it
//!   closes — a wakeup costs O(ready events), never an interest-set
//!   rebuild;
//! * the **listener**, disarmed at the session cap and during the
//!   `ACCEPT_ERROR_PAUSE` after descriptor exhaustion;
//! * the **bounded read → frame-drain loop**: frames reassemble
//!   incrementally ([`FrameBuf`]) across any number of wakeups. A read
//!   that comes back short of its buffer drained the socket, so the
//!   connection's turn ends there, after its frames are delivered —
//!   readiness is level-triggered, so bytes or a FIN that arrive later
//!   are reported again, and an answer costs one read, not a second one
//!   that finds nothing. A run of full reads yields to the connection's
//!   peers after `READS_PER_WAKEUP` chunks;
//! * **bounded output with a coalesced optimistic flush**: frames
//!   queue into the connection's [`WriteBuf`], and a burst of frames
//!   to one connection leaves in one `write` — when the callbacks'
//!   pushes move on to another connection (so the first session of a
//!   64-session tick is not held back for the other 63 to be encoded;
//!   measured at ~4% of loopback throughput), at the latest when the
//!   event's callbacks return. Most flushes take everything, so write
//!   interest is armed only for the residue of a partial write;
//! * the one **close state machine**, reported to the handler exactly
//!   once per connection as [`Handler::on_close`], at the moment the
//!   connection stops being live (its state is handed back then, even
//!   if the socket lingers to flush):
//!   - *close-after-flush* ([`Conns::close`], and an accepted peer's
//!     EOF): no more reads, queued output still drains, then the socket
//!     drops. An accepted peer is owed what was already queued for it;
//!   - *fail* ([`Conns::fail`], and an accepted peer's framing error):
//!     the same, behind a final `Error` frame;
//!   - *hard drop* ([`Conns::drop_conn`], any I/O error, a
//!     [`WriteBuf`] overflow — bounded memory beats a complete stream
//!     for a consumer that far behind, so no `Error` frame either — and
//!     an *outbound* peer's EOF or framing error: a server that ended
//!     the stream is owed nothing);
//!   - shutdown drops every connection without callbacks: the handler
//!     goes away with them.
//!
//! Outbound connections ([`Conns::connect`]) live in the same slab and
//! run the same loop; they do not count against the session cap.
//!
//! The engine-facing server ([`crate::NetServer`]) and the cluster
//! router are the two handlers; dispatch is static (`H` is a type
//! parameter).

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::buffer::{FrameBuf, WriteBuf, READ_CHUNK};
use crate::client::CLIENT_WRITE_BUF;
use crate::sys::{self, Readiness, ReadinessKind};
use crate::wire::{ErrorCode, Message};

/// How many reads one connection may make per wakeup before yielding to
/// its peers — a bound on a run of full [`READ_CHUNK`]s, since a short
/// read ends the turn anyway (level-triggered readiness re-reports the
/// rest; see [`Readiness`]).
const READS_PER_WAKEUP: usize = 4;

/// The listener's readiness token (no connection can reach it: slots
/// occupy the low 32 bits and generations the high 32, and a generation
/// never reaches `u32::MAX` — it would take 2^32 drops of one slot).
const LISTENER_TOKEN: u64 = u64::MAX;

/// How long the reactor stops accepting after a resource-exhaustion
/// accept error (`EMFILE`/`ENFILE`/`ENOBUFS`). With level-triggered
/// readiness the listener would otherwise re-report readable instantly
/// and the loop would spin at 100% CPU exactly when the server is
/// fullest; pausing briefly lets live connections keep being served and
/// retries once descriptors may have freed.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(25);

/// What one [`Link::fill`] found.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fill {
    /// The socket had nothing right now.
    Empty,
    /// The peer closed its end.
    Eof,
    /// `n` bytes were appended and the read filled its buffer: more may
    /// be waiting.
    More(usize),
    /// `n` bytes were appended and the read came back short: the socket
    /// was drained at that moment.
    Drained(usize),
}

/// One non-blocking socket with its reassembly and write buffers — the
/// single type behind accepted sessions, outbound legs and
/// [`crate::ClientCore`].
#[derive(Debug)]
pub(crate) struct Link {
    pub(crate) stream: TcpStream,
    pub(crate) rbuf: FrameBuf,
    pub(crate) wbuf: WriteBuf,
}

impl Link {
    pub(crate) fn new(stream: TcpStream, write_cap: usize) -> io::Result<Link> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Link {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: WriteBuf::with_capacity(write_cap),
        })
    }

    pub(crate) fn connect(addr: impl ToSocketAddrs) -> io::Result<Link> {
        Link::new(TcpStream::connect(addr)?, CLIENT_WRITE_BUF)
    }

    /// One non-blocking read through `scratch` into the reassembly
    /// buffer. This is the one place the short-read rule lives: a read
    /// that returns less than `scratch` holds means the socket was
    /// drained at that moment ([`Fill::Drained`]), so its reader need
    /// not read again before readiness reports it again.
    pub(crate) fn fill(&mut self, scratch: &mut [u8]) -> io::Result<Fill> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.rbuf.extend(&scratch[..n]);
                    return Ok(if n < scratch.len() {
                        Fill::Drained(n)
                    } else {
                        Fill::More(n)
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Fill::Empty),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes what the socket takes right now; returns the byte count.
    pub(crate) fn flush(&mut self) -> io::Result<usize> {
        self.wbuf.write_to(&mut self.stream)
    }
}

/// A handle to one connection of a [`Reactor`]: its slab slot in that
/// slot's current occupancy. Every [`Conns`] method ignores an id whose
/// connection is gone, so a handler may keep ids without tracking
/// lifetimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    slot: u32,
    gen: u32,
}

impl ConnId {
    /// The readiness token: the generation tag keeps a recycled slot
    /// from consuming an event batch's stale entries for its previous
    /// occupant.
    fn token(self) -> u64 {
        ((self.gen as u64) << 32) | self.slot as u64
    }
}

/// Why a connection stopped being live (see the module docs for which
/// of these linger to flush and which drop at once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Closed {
    /// The peer closed its end (for an outbound peer: at a frame
    /// boundary).
    Eof,
    /// The peer's framing is lost: an undecodable frame, or an outbound
    /// peer's EOF inside one.
    Malformed,
    /// A read, write or readiness call on the socket failed.
    Io,
    /// The bounded write buffer could not take a frame.
    Overflow,
    /// The handler asked ([`Conns::close`], [`Conns::fail`],
    /// [`Conns::drop_conn`]).
    Local,
}

/// The protocol half of a [`Reactor`]: what to do with frames and
/// endings. All callbacks run on the reactor thread.
pub trait Handler: Send + 'static {
    /// Per-connection protocol state, stored in the reactor's slab.
    type Conn: Send + 'static;

    /// The longest the loop sleeps when nothing is ready — the cadence
    /// of [`Handler::after_batch`] on an idle reactor, and the latency
    /// of noticing shutdown.
    fn poll_slice(&self) -> Duration;

    /// A connection was accepted; returns its initial state. The socket
    /// is passed for per-connection options (it is already
    /// non-blocking with `TCP_NODELAY`).
    fn on_accept(&mut self, stream: &TcpStream) -> Self::Conn;

    /// One decoded frame arrived on live connection `id`.
    fn on_frame(&mut self, conns: &mut Conns<Self::Conn>, id: ConnId, msg: Message);

    /// Connection `id` stopped being live; `conn` is its state. Called
    /// exactly once per connection, after the callbacks of the event
    /// that ended it return.
    fn on_close(
        &mut self,
        conns: &mut Conns<Self::Conn>,
        id: ConnId,
        conn: Self::Conn,
        why: Closed,
    );

    /// Runs after every wakeup's events (and on every idle
    /// [`Handler::poll_slice`]).
    fn after_batch(&mut self, _conns: &mut Conns<Self::Conn>) {}
}

/// State shared between the reactor thread and its [`ReactorHandle`].
#[derive(Default)]
struct Shared {
    shutdown: AtomicBool,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    buf_high_water: AtomicU64,
}

/// One slab entry. `state` is `Some` while the connection is live;
/// `None` means closing: no more reads, flush `link.wbuf`, then drop.
struct Slot<T> {
    link: Link,
    state: Option<T>,
    /// Connected by us ([`Conns::connect`]), not accepted.
    outbound: bool,
    /// Queued in `Conns::dirty` for the end-of-event flush.
    dirty: bool,
    /// The `(read, write)` interest currently registered with the
    /// readiness set — a `modify` is issued only when the desired
    /// interest diverges from this.
    reg: (bool, bool),
}

/// The connection slab of a running [`Reactor`], as handed to
/// [`Handler`] callbacks.
pub struct Conns<T> {
    shared: Arc<Shared>,
    listener: TcpListener,
    readiness: Readiness,
    slots: Vec<Option<Slot<T>>>,
    /// Occupancy generation per slot, bumped on every release.
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Open accepted connections — what `max_sessions` bounds.
    accepted: usize,
    max_sessions: usize,
    write_buf: usize,
    /// Whether the listener is currently in the readiness set.
    listener_armed: bool,
    accept_pause_until: Option<Instant>,
    /// Connections pushed to (or re-aimed) since the last settle, in
    /// first-touched order.
    dirty: VecDeque<ConnId>,
    /// The connection the running callbacks pushed to last: its burst
    /// is flushed as soon as a push goes elsewhere.
    open: Option<ConnId>,
    /// Endings not yet reported to the handler.
    closed: VecDeque<(ConnId, T, Closed)>,
    scratch: Vec<u8>,
}

fn lookup<'a, T>(
    slots: &'a mut [Option<Slot<T>>],
    gens: &[u32],
    id: ConnId,
) -> Option<&'a mut Slot<T>> {
    if gens.get(id.slot as usize) != Some(&id.gen) {
        return None;
    }
    slots[id.slot as usize].as_mut()
}

impl<T> Conns<T> {
    fn slot_mut(&mut self, id: ConnId) -> Option<&mut Slot<T>> {
        lookup(&mut self.slots, &self.gens, id)
    }

    /// The state of live connection `id`.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut T> {
        self.slot_mut(id)?.state.as_mut()
    }

    /// Queues one encoded frame on live connection `id`; it is flushed
    /// once pushes move on to another connection, at the latest when the
    /// current event's callbacks return. `false` means nothing
    /// was queued: the connection is gone or closing, or its write
    /// buffer is full of output the socket will not take — a consumer
    /// that far behind is dropped.
    pub fn send(&mut self, id: ConnId, frame: &[u8]) -> bool {
        if self.open != Some(id) {
            if let Some(done) = self.open.replace(id) {
                self.flush(done);
            }
        }
        let Some(slot) = self.slot_mut(id).filter(|s| s.state.is_some()) else {
            return false;
        };
        if !slot.link.wbuf.push(frame) {
            // The buffer may be full only because this burst's output
            // is still coalescing: the socket gets its chance before
            // the consumer is ruled too slow.
            self.flush(id);
            let fits = self.slot_mut(id).is_some_and(|s| s.link.wbuf.push(frame));
            if !fits {
                self.drop_with(id, Closed::Overflow);
                return false;
            }
        }
        self.touch(id);
        true
    }

    /// Ends live connection `id` with a final `Error` frame (queued
    /// behind whatever is pending, flushed, then closed).
    pub fn fail(&mut self, id: ConnId, code: ErrorCode, detail: &str) {
        self.fail_with(id, code, detail, Closed::Local);
    }

    /// Ends live connection `id` gracefully: no more reads, queued
    /// output still flushes, then the socket drops.
    pub fn close(&mut self, id: ConnId) {
        self.close_with(id, Closed::Local);
    }

    /// Closes connection `id` at once, discarding queued output.
    pub fn drop_conn(&mut self, id: ConnId) {
        self.drop_with(id, Closed::Local);
    }

    /// Connects to `addr` (blocking) and adopts the socket into the
    /// slab as an outbound connection.
    pub fn connect(&mut self, addr: SocketAddr, state: T) -> io::Result<ConnId> {
        self.insert(Link::connect(addr)?, state, true)
    }

    /// Sets connection `id`'s write bound — for a connection whose load
    /// scales with its sessions. It never drops so low that what is
    /// already queued leaves no room for one maximal frame.
    pub fn set_write_bound(&mut self, id: ConnId, bytes: usize) {
        if let Some(slot) = self.slot_mut(id) {
            slot.link.wbuf.set_cap(bytes);
        }
    }

    /// Bytes queued on connection `id` that its socket has not taken.
    pub fn pending(&mut self, id: ConnId) -> usize {
        self.slot_mut(id).map_or(0, |s| s.link.wbuf.pending())
    }

    /// Queues `id` for the end-of-event settle (flush, interest sync).
    fn touch(&mut self, id: ConnId) {
        if let Some(slot) = lookup(&mut self.slots, &self.gens, id) {
            if !slot.dirty {
                slot.dirty = true;
                self.dirty.push_back(id);
            }
        }
    }

    fn insert(&mut self, link: Link, state: T, outbound: bool) -> io::Result<ConnId> {
        let fd = sys::raw_fd(&link.stream);
        let slot = Slot {
            link,
            state: Some(state),
            outbound,
            dirty: false,
            reg: (true, false),
        };
        let at = match self.free.pop() {
            Some(at) => at,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        let id = ConnId {
            slot: at as u32,
            gen: self.gens[at],
        };
        if let Err(e) = self.readiness.register(fd, id.token(), true, false) {
            // Can't watch it, can't serve it (the socket closes as
            // `slot` drops; it never entered the readiness set).
            self.free.push(at);
            return Err(e);
        }
        self.slots[at] = Some(slot);
        self.accepted += usize::from(!outbound);
        Ok(id)
    }

    /// Closes the socket in `at` and frees the slot, returning what was
    /// there.
    fn release(&mut self, at: usize) -> Option<Slot<T>> {
        let slot = self.slots[at].take()?;
        Self::note_buffers(&self.shared, &slot.link);
        // Detach from the readiness set before the descriptor closes.
        let _ = self.readiness.deregister(sys::raw_fd(&slot.link.stream));
        self.gens[at] = self.gens[at].wrapping_add(1);
        let _ = slot.link.stream.shutdown(Shutdown::Both);
        self.accepted -= usize::from(!slot.outbound);
        self.free.push(at);
        Some(slot)
    }

    fn drop_with(&mut self, id: ConnId, why: Closed) {
        if self.slot_mut(id).is_none() {
            return;
        }
        let state = self.release(id.slot as usize).and_then(|slot| slot.state);
        self.closed.extend(state.map(|state| (id, state, why)));
    }

    fn close_with(&mut self, id: ConnId, why: Closed) {
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        let Some(state) = slot.state.take() else {
            return;
        };
        if slot.link.wbuf.is_empty() {
            self.release(id.slot as usize);
        } else {
            self.touch(id);
        }
        self.closed.push_back((id, state, why));
    }

    fn fail_with(&mut self, id: ConnId, code: ErrorCode, detail: &str, why: Closed) {
        let Some(slot) = self.slot_mut(id).filter(|s| s.state.is_some()) else {
            return;
        };
        let detail = detail.to_string();
        // Best effort: a buffer too full for the verdict still closes.
        let _ = slot
            .link
            .wbuf
            .push(&Message::Error { code, detail }.encode_frame());
        self.close_with(id, why);
    }

    /// Records `link`'s buffer footprint into the shared high-water
    /// mark (both buffers keep their own sticky peaks, so sampling at
    /// reads, flushes and release misses nothing).
    fn note_buffers(shared: &Shared, link: &Link) {
        let footprint = (link.rbuf.high_water() + link.wbuf.high_water()) as u64;
        shared
            .buf_high_water
            .fetch_max(footprint, Ordering::Relaxed);
    }

    /// Arms or disarms the listener to match whether a connection can
    /// be taken right now (below the session cap, not inside an
    /// exhaustion-error pause).
    fn sync_listener(&mut self) {
        if self.accept_pause_until.is_some_and(|t| Instant::now() >= t) {
            self.accept_pause_until = None;
        }
        let want = !self.at_cap() && self.accept_pause_until.is_none();
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

    fn at_cap(&self) -> bool {
        self.max_sessions != 0 && self.accepted >= self.max_sessions
    }

    /// Brings `id`'s registered interest in line with its state: read
    /// while live, write while output is queued. No syscall unless a
    /// transition actually happened.
    fn sync_interest(&mut self, id: ConnId) {
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        let want = (slot.state.is_some(), !slot.link.wbuf.is_empty());
        if want == slot.reg {
            return;
        }
        slot.reg = want;
        let fd = sys::raw_fd(&slot.link.stream);
        if self
            .readiness
            .modify(fd, id.token(), want.0, want.1)
            .is_err()
        {
            self.drop_with(id, Closed::Io);
        }
    }

    /// Writes what the socket will take; releases a closing connection
    /// once it has fully drained.
    fn flush(&mut self, id: ConnId) {
        let slot = lookup(&mut self.slots, &self.gens, id);
        let Some(slot) = slot.filter(|s| !s.link.wbuf.is_empty()) else {
            return;
        };
        Self::note_buffers(&self.shared, &slot.link);
        match slot.link.flush() {
            Ok(n) => {
                if !slot.outbound {
                    self.shared.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                if slot.state.is_none() && slot.link.wbuf.is_empty() {
                    self.release(id.slot as usize);
                }
            }
            Err(_) => self.drop_with(id, Closed::Io),
        }
    }

    fn close_all(&mut self) {
        for at in 0..self.slots.len() {
            self.release(at);
        }
    }
}

/// The event loop: a [`Handler`] and the [`Conns`] it is driven over.
/// Built and started by [`Reactor::spawn`].
pub struct Reactor<H: Handler> {
    handler: H,
    conns: Conns<H::Conn>,
}

impl<H: Handler> Reactor<H> {
    /// Binds a listener on `addr` (port 0 lets the OS pick) and starts
    /// the reactor thread. At most `max_sessions` accepted connections
    /// are open at once (`0` = no cap); each gets a `write_buf`-byte
    /// output bound. Fails with `Unsupported` off Linux (the readiness
    /// set is `epoll`).
    pub fn spawn(
        addr: impl ToSocketAddrs,
        max_sessions: usize,
        write_buf: usize,
        handler: H,
    ) -> io::Result<ReactorHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Opened here, not in the reactor thread, so a target without
        // `epoll` fails the bind call.
        let readiness = Readiness::new(ReadinessKind::Auto)?;
        let shared = Arc::new(Shared::default());
        let reactor = Reactor {
            handler,
            conns: Conns {
                shared: Arc::clone(&shared),
                listener,
                readiness,
                slots: Vec::new(),
                gens: Vec::new(),
                free: Vec::new(),
                accepted: 0,
                max_sessions,
                write_buf,
                listener_armed: false,
                accept_pause_until: None,
                dirty: VecDeque::new(),
                open: None,
                closed: VecDeque::new(),
                scratch: vec![0u8; READ_CHUNK],
            },
        };
        let thread = Some(std::thread::spawn(move || reactor.run()));
        Ok(ReactorHandle {
            addr,
            shared,
            thread,
        })
    }

    fn run(mut self) {
        let slice = self.handler.poll_slice();
        let mut events = Vec::new();
        while !self.conns.shared.shutdown.load(Ordering::SeqCst) {
            self.conns.sync_listener();
            if self.conns.readiness.wait(Some(slice), &mut events).is_err() {
                // Transient wait failure: pace and retry (shutdown is
                // still observed at the loop head).
                std::thread::sleep(slice);
                continue;
            }
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                // Resolved per step, not once: the occupant this event
                // was for may be dropped — and its slot re-occupied —
                // earlier in this same batch, or by its own callbacks.
                let id = ConnId {
                    slot: ev.token as u32,
                    gen: (ev.token >> 32) as u32,
                };
                if ev.readable() {
                    self.read_ready(id);
                }
                if ev.writable() {
                    self.conns.flush(id);
                }
                self.conns.sync_interest(id);
                self.settle();
            }
            self.handler.after_batch(&mut self.conns);
            self.settle();
        }
        self.conns.close_all();
    }

    /// Finishes an event: flushes what its callbacks pushed and left
    /// unflushed, syncs the interest of every connection they touched,
    /// and reports endings — whose callbacks may queue more of both.
    fn settle(&mut self) {
        loop {
            if let Some(id) = self.conns.dirty.pop_front() {
                if let Some(slot) = self.conns.slot_mut(id) {
                    slot.dirty = false;
                }
                self.conns.flush(id);
                self.conns.sync_interest(id);
            } else if let Some((id, conn, why)) = self.conns.closed.pop_front() {
                self.handler.on_close(&mut self.conns, id, conn, why);
            } else {
                self.conns.open = None;
                return;
            }
        }
    }

    fn accept_ready(&mut self) {
        let c = &mut self.conns;
        while !c.at_cap() {
            match c.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Ok(link) = Link::new(stream, c.write_buf) {
                        let state = self.handler.on_accept(&link.stream);
                        let _ = c.insert(link, state, false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(_) => {
                    // Resource exhaustion (EMFILE/ENFILE/ENOBUFS…): the
                    // listener stays level-triggered readable, so
                    // returning without disarming it would spin the
                    // loop. Pause accepting; live connections keep
                    // being served meanwhile.
                    c.accept_pause_until = Some(Instant::now() + ACCEPT_ERROR_PAUSE);
                    return;
                }
            }
        }
    }

    /// Reads the socket until a short read drains it (at most
    /// `READS_PER_WAKEUP` full reads per wakeup), delivering every
    /// complete frame.
    fn read_ready(&mut self, id: ConnId) {
        for _ in 0..READS_PER_WAKEUP {
            let c = &mut self.conns;
            let Some(slot) = lookup(&mut c.slots, &c.gens, id) else {
                return;
            };
            if slot.state.is_none() {
                return;
            }
            match slot.link.fill(&mut c.scratch) {
                Ok(Fill::Empty) => return,
                Ok(Fill::Eof) if !slot.outbound => return c.close_with(id, Closed::Eof),
                Ok(Fill::Eof) if slot.link.rbuf.at_frame_boundary() => {
                    return c.drop_with(id, Closed::Eof)
                }
                Ok(Fill::Eof) => return c.drop_with(id, Closed::Malformed),
                Ok(fill @ (Fill::More(n) | Fill::Drained(n))) => {
                    if !slot.outbound {
                        c.shared.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Conns::<H::Conn>::note_buffers(&c.shared, &slot.link);
                    if !self.deliver(id) || matches!(fill, Fill::Drained(_)) {
                        return;
                    }
                }
                Err(_) => return c.drop_with(id, Closed::Io),
            }
        }
    }

    /// Decodes and hands over every complete frame buffered on `id`.
    /// Returns `false` once the connection is gone or closing.
    fn deliver(&mut self, id: ConnId) -> bool {
        loop {
            let Some(slot) = self.conns.slot_mut(id) else {
                return false;
            };
            if slot.state.is_none() {
                return false;
            }
            match slot.link.rbuf.next_message() {
                Ok(Some((msg, _n))) => self.handler.on_frame(&mut self.conns, id, msg),
                Ok(None) => return true,
                // Framing is lost — no recovery beyond this frame.
                Err(_) if slot.outbound => {
                    self.conns.drop_with(id, Closed::Malformed);
                    return false;
                }
                Err(e) => {
                    let (code, why) = (ErrorCode::Malformed, Closed::Malformed);
                    self.conns.fail_with(id, code, &e.to_string(), why);
                    return false;
                }
            }
        }
    }
}

/// The owner's side of a running [`Reactor`]: address, wire counters,
/// and the join point. Dropping it stops the reactor.
pub struct ReactorHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound listener address (use after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wire bytes `(received, sent)` over all accepted connections so
    /// far (outbound connections are the handler's own traffic).
    pub fn wire_bytes(&self) -> (u64, u64) {
        (
            self.shared.bytes_in.load(Ordering::Relaxed),
            self.shared.bytes_out.load(Ordering::Relaxed),
        )
    }

    /// The largest read+write buffer footprint any single connection
    /// has reached so far, in bytes.
    pub fn buffer_high_water(&self) -> u64 {
        self.shared.buf_high_water.load(Ordering::Relaxed)
    }

    /// Stops accepting, drops every connection, and joins the reactor
    /// thread (idempotent). The loop observes the flag within one poll
    /// slice; no pipe trick needed at these latencies.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
