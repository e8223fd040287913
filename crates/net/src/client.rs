//! The INSQ TCP client: a non-blocking core with blocking helpers on
//! top.
//!
//! [`ClientCore`] is the event-driven half: the same non-blocking
//! socket + incremental frame reassembler ([`crate::FrameBuf`]) +
//! bounded write buffer ([`crate::WriteBuf`]) unit the server-side
//! reactor drives, without a loop of its own.
//! [`ClientCore::try_send_update`] and [`ClientCore::poll_event`] never
//! block, so thousands of client sessions can be driven from one thread
//! and one readiness loop — the soak harness and the reactor fuzz tests
//! do exactly that.
//!
//! [`NetClient`] is the original blocking convenience API
//! (`register` / `update` / `next_knn`), re-expressed as thin waits
//! around the core: block until the socket is writable, flush; block
//! until readable, poll. It keeps wire-byte accounting so callers can
//! report *measured* bytes per answer (the repo benchmark's
//! `net.bytes_up_per_answer` / `net.bytes_down_per_answer` on
//! `wire_fleet`) next to the paper's model-level communication counter.

use std::io;
use std::net::{Shutdown, ToSocketAddrs};

use insq_server::Epoch;

use crate::reactor::{Fill, Link};
use crate::space::WireSpace;
use crate::sys;
use crate::wire::{ErrorCode, Message, SpaceKind, WireOutcome};

/// Client-side protocol errors.
#[derive(Debug)]
pub enum NetError {
    /// Transport or framing failure (malformed frames surface as
    /// `InvalidData`).
    Io(io::Error),
    /// The server sent an [`Message::Error`] frame.
    Server {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server closed the stream where a message was expected.
    Closed,
    /// The server sent a client→server message (protocol violation).
    Unexpected(Message),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o: {e}"),
            NetError::Server { code, detail } => write!(f, "server error {code:?}: {detail}"),
            NetError::Closed => write!(f, "connection closed by server"),
            NetError::Unexpected(m) => write!(f, "unexpected server frame {m:?}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// One tick's answer as seen by the client, with any epoch
/// notifications that preceded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnnUpdate {
    /// The world epoch the result was computed against.
    pub epoch: u64,
    /// The kNN ids (wire ordinals), ascending by distance, ties by id.
    pub ids: Vec<u32>,
    /// What the INS protocol had to do this tick.
    pub outcome: WireOutcome,
    /// Result qualifiers ([`crate::wire::FLAG_UNCERTIFIED`]); 0 on a
    /// single-world server.
    pub flags: u8,
    /// Epochs announced by `EpochNotify` frames since the last result.
    pub notified: Vec<u64>,
}

/// A typed server frame, as surfaced by [`ClientCore::poll_event`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// A kNN result for one tick.
    Result {
        /// The world epoch the result was computed against.
        epoch: u64,
        /// The kNN ids (wire ordinals), ascending by distance.
        ids: Vec<u32>,
        /// What the INS protocol had to do this tick.
        outcome: WireOutcome,
        /// Result qualifiers ([`crate::wire::FLAG_UNCERTIFIED`]).
        flags: u8,
    },
    /// The server published a new index epoch.
    Epoch(u64),
    /// The server rejected something; the session is about to close.
    ServerError {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// A client→server message arrived (protocol violation).
    Unexpected(Message),
    /// The server closed the stream.
    Closed,
}

/// Bound on a client's outbound buffer (and on a reactor's outbound
/// connections): far more than any sane number of coalescing position
/// updates, still finite.
pub(crate) const CLIENT_WRITE_BUF: usize = 1 << 20;

/// The size of a [`ClientCore`]'s own read buffer, allocated once per
/// core and reused by every read. A session receives one result per
/// request (tens of bytes at served `k`), so one read still takes a
/// backlog of a dozen results, and a larger one takes a few reads; the
/// reactor's [`crate::buffer::READ_CHUNK`] (16 KiB) per core would hold
/// 320 MB at the soak's 20 000 sessions.
const CLIENT_READ_CHUNK: usize = 1024;

/// The non-blocking client core: one socket, zero blocking calls.
///
/// Sends queue into a bounded write buffer and flush opportunistically
/// ([`ClientCore::try_send`] reports `WouldBlock` only if the buffer is
/// full even after a flush attempt); receives reassemble frames
/// incrementally and surface them as typed [`ClientEvent`]s. Callers
/// multiplex many cores over an [`insq_net::sys::Readiness`] set using
/// [`ClientCore::raw_fd`].
///
/// [`insq_net::sys::Readiness`]: crate::sys::Readiness
#[derive(Debug)]
pub struct ClientCore {
    link: Link,
    /// Read buffer reused by every [`ClientCore::poll_message`].
    scratch: Box<[u8]>,
    bytes_out: u64,
    bytes_in: u64,
    eof: bool,
    /// The last read came back short (the socket was drained then), and
    /// no poll has reported "nothing yet" since.
    drained: bool,
}

impl ClientCore {
    /// Connects and switches the socket to non-blocking mode.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ClientCore> {
        Ok(ClientCore {
            link: Link::connect(addr)?,
            scratch: vec![0u8; CLIENT_READ_CHUNK].into_boxed_slice(),
            bytes_out: 0,
            bytes_in: 0,
            eof: false,
            drained: false,
        })
    }

    /// The raw descriptor, for multiplexing many cores over an
    /// [`insq_net::sys::Readiness`] set.
    ///
    /// [`insq_net::sys::Readiness`]: crate::sys::Readiness
    pub fn raw_fd(&self) -> sys::RawFd {
        sys::raw_fd(&self.link.stream)
    }

    /// Queues a message and flushes what the socket takes right now.
    /// `WouldBlock` means the write buffer is full even after flushing
    /// — poll for writability and retry.
    pub fn try_send(&mut self, msg: &Message) -> io::Result<()> {
        let frame = msg.encode_frame();
        if !self.link.wbuf.push(&frame) {
            self.flush()?;
            if !self.link.wbuf.push(&frame) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
        }
        self.flush()?;
        Ok(())
    }

    /// Queues the next tick's position (the non-blocking
    /// [`NetClient::update`]).
    pub fn try_send_update<S: WireSpace>(&mut self, pos: S::Pos) -> io::Result<()> {
        self.try_send(&Message::PositionUpdate {
            pos: S::pos_to_wire(pos),
        })
    }

    /// Writes as much queued output as the socket takes; `Ok(true)`
    /// means the buffer is fully drained.
    pub fn flush(&mut self) -> io::Result<bool> {
        self.bytes_out += self.link.flush()? as u64;
        Ok(self.link.wbuf.is_empty())
    }

    /// Bytes queued and not yet written.
    pub fn pending_out(&self) -> usize {
        self.link.wbuf.pending()
    }

    /// Whether the server has closed its end of the stream.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Decodes the next buffered frame, reading whatever the socket has
    /// — never blocking. `Ok(None)` means no complete frame yet (poll
    /// for readability); EOF is reported via [`ClientCore::is_eof`].
    ///
    /// A read that came back short drained the socket, so the first
    /// call after it that finds no complete buffered frame returns
    /// `Ok(None)` without a syscall: a caller that waits for
    /// readiness next loses nothing, and a caller that polls again
    /// without waiting reads as before one call later.
    pub fn poll_message(&mut self) -> io::Result<Option<Message>> {
        loop {
            if let Some((msg, _)) = self.link.rbuf.next_message().map_err(io::Error::from)? {
                return Ok(Some(msg));
            }
            if self.eof || std::mem::take(&mut self.drained) {
                return Ok(None);
            }
            match self.link.fill(&mut self.scratch)? {
                Fill::Empty => return Ok(None),
                Fill::Eof => {
                    self.eof = true;
                    if !self.link.rbuf.at_frame_boundary() {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    return Ok(None);
                }
                Fill::More(n) => self.bytes_in += n as u64,
                Fill::Drained(n) => {
                    self.bytes_in += n as u64;
                    self.drained = true;
                }
            }
        }
    }

    /// [`ClientCore::poll_message`] typed: `Ok(None)` means nothing to
    /// surface yet; a clean EOF becomes [`ClientEvent::Closed`].
    pub fn poll_event(&mut self) -> io::Result<Option<ClientEvent>> {
        let event = match self.poll_message()? {
            Some(Message::KnnResult {
                epoch,
                ids,
                outcome,
                flags,
            }) => ClientEvent::Result {
                epoch,
                ids,
                outcome,
                flags,
            },
            Some(Message::EpochNotify { epoch }) => ClientEvent::Epoch(epoch),
            Some(Message::Error { code, detail }) => ClientEvent::ServerError { code, detail },
            Some(other) => ClientEvent::Unexpected(other),
            None if self.eof => ClientEvent::Closed,
            None => return Ok(None),
        };
        Ok(Some(event))
    }

    /// Half-closes the write side (after a graceful deregister).
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.link.stream.shutdown(Shutdown::Write)
    }

    /// Wire bytes `(sent, received)` by this core so far.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.bytes_out, self.bytes_in)
    }
}

/// A blocking client session against a [`crate::NetServer`] — the
/// original convenience API, re-expressed as readiness waits around a
/// [`ClientCore`].
#[derive(Debug)]
pub struct NetClient {
    core: ClientCore,
}

impl NetClient {
    /// Connects (no registration yet).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        Ok(NetClient {
            core: ClientCore::connect(addr)?,
        })
    }

    /// The non-blocking core, for mixing blocking and event-driven use.
    pub fn core(&mut self) -> &mut ClientCore {
        &mut self.core
    }

    /// Sends a raw protocol message, blocking until it is fully on the
    /// wire.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        loop {
            match self.core.try_send(msg) {
                Ok(()) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    sys::wait_writable(self.core.raw_fd())?;
                    self.core.flush()?;
                }
                Err(e) => return Err(e),
            }
        }
        while !self.core.flush()? {
            sys::wait_writable(self.core.raw_fd())?;
        }
        Ok(())
    }

    /// Registers a moving kNN query in space `S`; `pos` doubles as the
    /// position for the session's first tick.
    pub fn register<S: WireSpace>(&mut self, k: usize, rho: f64, pos: S::Pos) -> io::Result<()> {
        self.register_raw(S::KIND, k, rho, S::pos_to_wire(pos))
    }

    /// Registers with an explicit [`SpaceKind`] discriminant (lets tests
    /// probe a server with the wrong space).
    pub fn register_raw(
        &mut self,
        space: SpaceKind,
        k: usize,
        rho: f64,
        pos: crate::wire::WirePos,
    ) -> io::Result<()> {
        self.send(&Message::Register {
            space,
            k: k as u32,
            rho,
            pos,
        })
    }

    /// Sends the position for the next tick.
    pub fn update<S: WireSpace>(&mut self, pos: S::Pos) -> io::Result<()> {
        self.send(&Message::PositionUpdate {
            pos: S::pos_to_wire(pos),
        })
    }

    /// Closes the session cleanly.
    pub fn deregister(&mut self) -> io::Result<()> {
        self.send(&Message::Deregister)?;
        self.core.shutdown_write()
    }

    /// Receives the next server frame, blocking (`None` on clean EOF).
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            if let Some(msg) = self.core.poll_message()? {
                return Ok(Some(msg));
            }
            if self.core.is_eof() {
                return Ok(None);
            }
            sys::wait_readable(self.core.raw_fd())?;
        }
    }

    /// Blocks until the next [`Message::KnnResult`], collecting epoch
    /// notifications along the way; server errors and protocol
    /// violations surface as [`NetError`].
    pub fn next_result(&mut self) -> Result<KnnUpdate, NetError> {
        let mut notified = Vec::new();
        loop {
            match self.recv()? {
                Some(Message::KnnResult {
                    epoch,
                    ids,
                    outcome,
                    flags,
                }) => {
                    return Ok(KnnUpdate {
                        epoch,
                        ids,
                        outcome,
                        flags,
                        notified,
                    })
                }
                Some(Message::EpochNotify { epoch }) => notified.push(epoch),
                Some(Message::Error { code, detail }) => {
                    return Err(NetError::Server { code, detail })
                }
                Some(other) => return Err(NetError::Unexpected(other)),
                None => return Err(NetError::Closed),
            }
        }
    }

    /// [`NetClient::next_result`] with ids converted to `S`'s site-id
    /// type and the epoch as a typed [`Epoch`].
    pub fn next_knn<S: WireSpace>(
        &mut self,
    ) -> Result<(Epoch, Vec<S::SiteId>, WireOutcome), NetError> {
        let upd = self.next_result()?;
        let ids = upd.ids.into_iter().map(S::id_from_wire).collect();
        Ok((Epoch(upd.epoch), ids, upd.outcome))
    }

    /// Wire bytes `(sent, received)` by this client so far.
    pub fn wire_bytes(&self) -> (u64, u64) {
        self.core.wire_bytes()
    }
}
