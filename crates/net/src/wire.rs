//! The INSQ wire protocol: a dependency-free, length-prefixed binary
//! codec.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! ┌────────────┬───────────┬───────┬──────────────────┐
//! │ len: u32le │ ver: u8   │ tag:  │ body …           │
//! │ (payload   │ (== 3)    │ u8    │ (per-message     │
//! │  bytes)    │           │       │  fields, LE)     │
//! └────────────┴───────────┴───────┴──────────────────┘
//! ```
//!
//! `len` counts the payload (version byte onward) and is bounded by
//! [`MAX_PAYLOAD_LEN`] **before** any allocation happens, so a hostile
//! length prefix can neither over-allocate nor wedge the reader. All
//! integers and floats are little-endian fixed-width; variable-length
//! fields (`ids`, error detail strings) carry their own `u32` count,
//! which the decoder checks against both a hard cap and the bytes
//! actually remaining in the frame before allocating.
//!
//! The codec is deliberately serde-free (same offline-deps discipline as
//! `crates/compat/`): [`Encode`] appends bytes to a `Vec<u8>`, [`Decode`]
//! reads them back from a bounds-checked [`Reader`] cursor. Decoding
//! never panics on untrusted input — every malformed byte sequence comes
//! back as a [`DecodeError`] (`tests/codec_fuzz.rs` hammers this;
//! `tests/codec_props.rs` proves `decode(encode(m)) == m` for arbitrary
//! messages).
//! A [`Message::Mux`] envelope's body is opaque to the frame decoder:
//! an inner message that does not decode ([`Message::decode_inner`]) is
//! charged to its session, never to the connection.

use std::io;

/// Protocol version carried by every frame. A decoder rejects frames
/// whose version byte differs — bump this when the message set changes
/// incompatibly.
///
/// Version history: 1 = PR 5/6 message set; 2 = [`Message::KnnResult`]
/// carries a `flags` byte (partition certification) and
/// [`ErrorCode::Unavailable`] exists (router backend loss); 3 =
/// [`Message::Mux`] and [`Message::Drained`] (one leg per backend).
pub const WIRE_VERSION: u8 = 3;

/// [`Message::KnnResult`] flag bit: the serving partition could not
/// certify this result against the global site set — the query's k-th
/// neighbor distance exceeded the partition's replication margin (or the
/// partition holds fewer than k sites), so a site owned by another
/// partition *may* be closer. Degraded, never silently wrong: the ids
/// are still the exact kNN over the partition's replicated site set.
pub const FLAG_UNCERTIFIED: u8 = 1;

/// Hard upper bound on a frame's payload length. Checked against the
/// length prefix before anything is allocated; generous enough for a
/// [`Message::KnnResult`] carrying [`MAX_IDS`] ids with room to spare.
pub const MAX_PAYLOAD_LEN: usize = 1 << 19;

/// Hard upper bound on the number of ids in one [`Message::KnnResult`].
pub const MAX_IDS: usize = 1 << 16;

/// Hard upper bound on the byte length of an error detail string.
pub const MAX_DETAIL_LEN: usize = 1 << 10;

/// Why a byte sequence failed to decode. Every variant is a clean error
/// return — the decoder has no panicking path on untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value's fixed-width fields did.
    Truncated,
    /// A frame's payload contained bytes after the message body.
    TrailingBytes {
        /// How many bytes were left unread.
        extra: usize,
    },
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The payload's message tag byte is unknown.
    BadTag(u8),
    /// A length prefix exceeded its hard cap or the remaining input.
    LengthOutOfBounds {
        /// What the prefix claimed.
        claimed: u64,
        /// The cap it violated (either a `MAX_*` constant or the bytes
        /// remaining in the frame).
        limit: usize,
    },
    /// An enum discriminant byte held an unassigned value.
    BadDiscriminant {
        /// Which field rejected it.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// An error detail string was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after message body")
            }
            DecodeError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::LengthOutOfBounds { claimed, limit } => {
                write!(f, "length prefix {claimed} exceeds limit {limit}")
            }
            DecodeError::BadDiscriminant { what, value } => {
                write!(f, "bad {what} discriminant {value}")
            }
            DecodeError::BadUtf8 => write!(f, "error detail is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A bounds-checked read cursor over one frame's payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }
}

/// Appends a value's wire representation to a byte buffer.
pub trait Encode {
    /// Serialises `self` onto the end of `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Reads a value's wire representation back from a [`Reader`].
pub trait Decode: Sized {
    /// Deserialises one value, consuming exactly the bytes [`Encode`]
    /// produced for it. Never panics: malformed input is a
    /// [`DecodeError`].
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! impl_le_codec {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

impl_le_codec!(u8, u32, u64);

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::from_le_bytes(r.array()?)))
    }
}

/// Decodes a `u32` length prefix, rejecting it if it exceeds `cap` or
/// would claim more than `bytes_each`-sized items than the frame has
/// bytes left — the bound is enforced **before** any allocation.
fn decode_len(r: &mut Reader<'_>, cap: usize, bytes_each: usize) -> Result<usize, DecodeError> {
    let claimed = u32::decode(r)? as usize;
    if claimed > cap {
        return Err(DecodeError::LengthOutOfBounds {
            claimed: claimed as u64,
            limit: cap,
        });
    }
    // Each item still has to fit in the remaining payload; this caps the
    // allocation at the (already bounded) frame size.
    let need = claimed.saturating_mul(bytes_each.max(1));
    if need > r.remaining() {
        return Err(DecodeError::LengthOutOfBounds {
            claimed: claimed as u64,
            limit: r.remaining() / bytes_each.max(1),
        });
    }
    Ok(claimed)
}

impl Encode for Vec<u32> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
}

impl Decode for Vec<u32> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = decode_len(r, MAX_IDS, 4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(u32::decode(r)?);
        }
        Ok(out)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        let bytes = self.as_bytes();
        let n = bytes.len().min(MAX_DETAIL_LEN);
        // Truncate on a char boundary so the wire never carries split
        // UTF-8 (only reachable for absurdly long detail strings).
        let n = (0..=n)
            .rev()
            .find(|&i| self.is_char_boundary(i))
            .unwrap_or(0);
        (n as u32).encode(out);
        out.extend_from_slice(&bytes[..n]);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = decode_len(r, MAX_DETAIL_LEN, 1)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// Which [`insq_core::Space`] a session runs in. Sent in
/// [`Message::Register`]; a server rejects sessions whose kind does not
/// match the space it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// 2-D Euclidean (`insq_core::Euclidean`, positions are points).
    Euclidean,
    /// Road network (`insq_core::Network`, positions are
    /// vertex/on-edge).
    Network,
}

impl Encode for SpaceKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let b: u8 = match self {
            SpaceKind::Euclidean => 0,
            SpaceKind::Network => 1,
        };
        b.encode(out);
    }
}

impl Decode for SpaceKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(SpaceKind::Euclidean),
            1 => Ok(SpaceKind::Network),
            value => Err(DecodeError::BadDiscriminant {
                what: "space kind",
                value,
            }),
        }
    }
}

/// A space-agnostic query position: what clients put on the wire.
/// The Euclidean space uses [`WirePos::Point`]; road networks use
/// [`WirePos::Vertex`] / [`WirePos::OnEdge`] (mirroring
/// `insq_roadnet::NetPosition`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WirePos {
    /// A planar point (the Euclidean space).
    Point {
        /// Horizontal coordinate.
        x: f64,
        /// Vertical coordinate.
        y: f64,
    },
    /// Exactly at a road-network vertex (by vertex id).
    Vertex(u32),
    /// On a road-network edge interior.
    OnEdge {
        /// The edge id.
        edge: u32,
        /// Distance from the edge's `u` endpoint, network units.
        offset: f64,
    },
}

impl Encode for WirePos {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            WirePos::Point { x, y } => {
                0u8.encode(out);
                x.encode(out);
                y.encode(out);
            }
            WirePos::Vertex(v) => {
                1u8.encode(out);
                v.encode(out);
            }
            WirePos::OnEdge { edge, offset } => {
                2u8.encode(out);
                edge.encode(out);
                offset.encode(out);
            }
        }
    }
}

impl Decode for WirePos {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(WirePos::Point {
                x: f64::decode(r)?,
                y: f64::decode(r)?,
            }),
            1 => Ok(WirePos::Vertex(u32::decode(r)?)),
            2 => Ok(WirePos::OnEdge {
                edge: u32::decode(r)?,
                offset: f64::decode(r)?,
            }),
            value => Err(DecodeError::BadDiscriminant {
                what: "position",
                value,
            }),
        }
    }
}

/// [`insq_core::TickOutcome`] on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// The result was still valid (no change).
    Valid,
    /// Update case (i): one object swapped locally.
    Swap,
    /// Update case (ii): multi-object local re-rank.
    LocalRerank,
    /// Update case (iii): full recomputation.
    Recompute,
}

impl From<insq_core::TickOutcome> for WireOutcome {
    fn from(o: insq_core::TickOutcome) -> WireOutcome {
        match o {
            insq_core::TickOutcome::Valid => WireOutcome::Valid,
            insq_core::TickOutcome::Swap => WireOutcome::Swap,
            insq_core::TickOutcome::LocalRerank => WireOutcome::LocalRerank,
            insq_core::TickOutcome::Recompute => WireOutcome::Recompute,
        }
    }
}

impl Encode for WireOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        let b: u8 = match self {
            WireOutcome::Valid => 0,
            WireOutcome::Swap => 1,
            WireOutcome::LocalRerank => 2,
            WireOutcome::Recompute => 3,
        };
        b.encode(out);
    }
}

impl Decode for WireOutcome {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(WireOutcome::Valid),
            1 => Ok(WireOutcome::Swap),
            2 => Ok(WireOutcome::LocalRerank),
            3 => Ok(WireOutcome::Recompute),
            value => Err(DecodeError::BadDiscriminant {
                what: "tick outcome",
                value,
            }),
        }
    }
}

/// Machine-readable cause of a server-sent [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The session registered for a space this server does not serve.
    SpaceMismatch,
    /// A position update or deregister arrived before registration.
    NotRegistered,
    /// A second register arrived on an already-registered session.
    AlreadyRegistered,
    /// The query configuration (k, ρ) was rejected.
    BadConfig,
    /// A frame failed to decode.
    Malformed,
    /// The position did not name a valid location in the served index.
    BadPosition,
    /// The server refused the registration (it is shutting down). Note
    /// that a write-queue overflow (slow consumer) disconnects the
    /// session *without* an error frame: its writer may be wedged
    /// mid-frame, so nothing can be safely interleaved on the socket.
    Overloaded,
    /// The partition backend serving this session was lost (router
    /// deployments only). The session is closed; re-registering opens a
    /// fresh one.
    Unavailable,
}

impl Encode for ErrorCode {
    fn encode(&self, out: &mut Vec<u8>) {
        let b: u8 = match self {
            ErrorCode::SpaceMismatch => 0,
            ErrorCode::NotRegistered => 1,
            ErrorCode::AlreadyRegistered => 2,
            ErrorCode::BadConfig => 3,
            ErrorCode::Malformed => 4,
            ErrorCode::BadPosition => 5,
            ErrorCode::Overloaded => 6,
            ErrorCode::Unavailable => 7,
        };
        b.encode(out);
    }
}

impl Decode for ErrorCode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(ErrorCode::SpaceMismatch),
            1 => Ok(ErrorCode::NotRegistered),
            2 => Ok(ErrorCode::AlreadyRegistered),
            3 => Ok(ErrorCode::BadConfig),
            4 => Ok(ErrorCode::Malformed),
            5 => Ok(ErrorCode::BadPosition),
            6 => Ok(ErrorCode::Overloaded),
            7 => Ok(ErrorCode::Unavailable),
            value => Err(DecodeError::BadDiscriminant {
                what: "error code",
                value,
            }),
        }
    }
}

/// The INSQ protocol message set, version [`WIRE_VERSION`].
///
/// Client → server: [`Message::Register`], [`Message::PositionUpdate`],
/// [`Message::Deregister`]. Server → client: [`Message::KnnResult`],
/// [`Message::EpochNotify`], [`Message::Error`], [`Message::Drained`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Opens a session: registers one moving kNN query. `pos` doubles as
    /// the position update for the session's first tick.
    Register {
        /// The space the client expects the server to operate in.
        space: SpaceKind,
        /// Number of nearest neighbors to maintain (k ≥ 1).
        k: u32,
        /// Prefetch ratio ρ ≥ 1 (paper §III).
        rho: f64,
        /// The query's starting position.
        pos: WirePos,
    },
    /// The client moved: its position for the next server tick. Several
    /// updates between ticks coalesce — the last one wins.
    PositionUpdate {
        /// The new position.
        pos: WirePos,
    },
    /// Closes the session cleanly (same effect as dropping the
    /// connection, minus the error log line).
    Deregister,
    /// One tick's result for this session's query.
    KnnResult {
        /// The world epoch the result was computed against.
        epoch: u64,
        /// The kNN ids, ascending by distance (ties by id).
        ids: Vec<u32>,
        /// What the INS protocol had to do this tick.
        outcome: WireOutcome,
        /// Result qualifiers ([`FLAG_UNCERTIFIED`]); 0 on a single-world
        /// server. Unknown bits are reserved and must be ignored.
        flags: u8,
    },
    /// The server published a new index epoch; the session's query
    /// rebinds at its next tick. Pushed at most once per epoch per
    /// session, before the first [`Message::KnnResult`] of that epoch.
    /// That result's `outcome` is whatever the tick needed: `Recompute`
    /// after a full publish, but after a delta epoch that touched none
    /// of the objects the query holds it may well be `Valid` — the
    /// query crossed the epoch on its kept guards.
    EpochNotify {
        /// The new epoch number.
        epoch: u64,
    },
    /// The server rejected a frame or is closing the session.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail (bounded at [`MAX_DETAIL_LEN`] bytes).
        detail: String,
    },
    /// One inner message's payload for session `session` of a
    /// connection that carries many (a cluster router's backend leg).
    Mux {
        /// The session number, chosen by the connecting side.
        session: u32,
        /// The inner message's [`Message::encode_payload`], undecoded.
        payload: Vec<u8>,
    },
    /// Enveloped, server → router: the session ended after its
    /// `Deregister`; no further frame for it follows.
    Drained,
}

impl Message {
    const TAG_REGISTER: u8 = 0;
    const TAG_POSITION_UPDATE: u8 = 1;
    const TAG_DEREGISTER: u8 = 2;
    const TAG_KNN_RESULT: u8 = 3;
    const TAG_EPOCH_NOTIFY: u8 = 4;
    const TAG_ERROR: u8 = 5;
    const TAG_MUX: u8 = 6;
    const TAG_DRAINED: u8 = 7;

    /// Serialises the frame payload: version byte, tag byte, body.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        WIRE_VERSION.encode(out);
        match self {
            Message::Register { space, k, rho, pos } => {
                Self::TAG_REGISTER.encode(out);
                space.encode(out);
                k.encode(out);
                rho.encode(out);
                pos.encode(out);
            }
            Message::PositionUpdate { pos } => {
                Self::TAG_POSITION_UPDATE.encode(out);
                pos.encode(out);
            }
            Message::Deregister => {
                Self::TAG_DEREGISTER.encode(out);
            }
            Message::KnnResult {
                epoch,
                ids,
                outcome,
                flags,
            } => {
                Self::TAG_KNN_RESULT.encode(out);
                epoch.encode(out);
                ids.encode(out);
                outcome.encode(out);
                flags.encode(out);
            }
            Message::EpochNotify { epoch } => {
                Self::TAG_EPOCH_NOTIFY.encode(out);
                epoch.encode(out);
            }
            Message::Error { code, detail } => {
                Self::TAG_ERROR.encode(out);
                code.encode(out);
                detail.encode(out);
            }
            Message::Mux { session, payload } => {
                Self::TAG_MUX.encode(out);
                session.encode(out);
                (payload.len() as u32).encode(out);
                out.extend_from_slice(payload);
            }
            Message::Drained => Self::TAG_DRAINED.encode(out),
        }
    }

    /// Deserialises one frame payload. The whole payload must be
    /// consumed — trailing bytes are an error, so a frame decodes to
    /// exactly one message or not at all.
    pub fn decode_payload(payload: &[u8]) -> Result<Message, DecodeError> {
        let mut r = Reader::new(payload);
        let version = u8::decode(&mut r)?;
        if version != WIRE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let msg = match u8::decode(&mut r)? {
            Self::TAG_REGISTER => Message::Register {
                space: SpaceKind::decode(&mut r)?,
                k: u32::decode(&mut r)?,
                rho: f64::decode(&mut r)?,
                pos: WirePos::decode(&mut r)?,
            },
            Self::TAG_POSITION_UPDATE => Message::PositionUpdate {
                pos: WirePos::decode(&mut r)?,
            },
            Self::TAG_DEREGISTER => Message::Deregister,
            Self::TAG_KNN_RESULT => Message::KnnResult {
                epoch: u64::decode(&mut r)?,
                ids: Vec::<u32>::decode(&mut r)?,
                outcome: WireOutcome::decode(&mut r)?,
                flags: u8::decode(&mut r)?,
            },
            Self::TAG_EPOCH_NOTIFY => Message::EpochNotify {
                epoch: u64::decode(&mut r)?,
            },
            Self::TAG_ERROR => Message::Error {
                code: ErrorCode::decode(&mut r)?,
                detail: String::decode(&mut r)?,
            },
            Self::TAG_MUX => {
                let session = u32::decode(&mut r)?;
                let n = decode_len(&mut r, MAX_PAYLOAD_LEN, 1)?;
                let payload = r.take(n)?.to_vec();
                Message::Mux { session, payload }
            }
            Self::TAG_DRAINED => Message::Drained,
            tag => return Err(DecodeError::BadTag(tag)),
        };
        if r.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(msg)
    }

    /// Opens a [`Message::Mux`] payload. The envelope never decodes
    /// its body, so a nested envelope is rejected here, unrecursed.
    pub fn decode_inner(payload: &[u8]) -> Result<Message, DecodeError> {
        match Message::decode_payload(payload)? {
            Message::Mux { .. } => Err(DecodeError::BadTag(Self::TAG_MUX)),
            inner => Ok(inner),
        }
    }

    /// Serialises the complete frame (length prefix + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32);
        self.encode_payload(&mut payload);
        debug_assert!(payload.len() <= MAX_PAYLOAD_LEN);
        let mut frame = Vec::with_capacity(4 + payload.len());
        (payload.len() as u32).encode(&mut frame);
        frame.extend_from_slice(&payload);
        frame
    }

    /// The frame of `inner` enveloped for `session`.
    pub fn mux_frame(session: u32, inner: &Message) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32);
        inner.encode_payload(&mut payload);
        Message::Mux { session, payload }.encode_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameBuf;

    #[test]
    fn frame_roundtrip_over_io() {
        let msg = Message::KnnResult {
            epoch: 7,
            ids: vec![3, 1, 4, 1, 5],
            outcome: WireOutcome::Swap,
            flags: FLAG_UNCERTIFIED,
        };
        let wire = msg.encode_frame();
        let mut fb = FrameBuf::new();
        fb.extend(&wire);
        let (back, read) = fb.next_message().unwrap().expect("one frame");
        assert_eq!(back, msg);
        assert_eq!(read, wire.len());
        // Nothing left: the stream ends at a frame boundary.
        assert_eq!(fb.next_message(), Ok(None));
        assert!(fb.at_frame_boundary());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        (u32::MAX).encode(&mut wire);
        wire.extend_from_slice(&[0u8; 16]);
        let mut fb = FrameBuf::new();
        fb.extend(&wire);
        assert_eq!(
            fb.next_message(),
            Err(DecodeError::LengthOutOfBounds {
                claimed: u32::MAX as u64,
                limit: MAX_PAYLOAD_LEN,
            })
        );
    }

    #[test]
    fn long_error_details_truncate_on_a_char_boundary() {
        let detail = "é".repeat(MAX_DETAIL_LEN); // 2 bytes per char
        let msg = Message::Error {
            code: ErrorCode::Malformed,
            detail,
        };
        let frame = msg.encode_frame();
        let back = Message::decode_payload(&frame[4..]).unwrap();
        match back {
            Message::Error { detail, .. } => {
                assert!(detail.len() <= MAX_DETAIL_LEN);
                assert!(detail.chars().all(|c| c == 'é'));
            }
            other => panic!("wrong message {other:?}"),
        }
    }
}
