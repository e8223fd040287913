//! Per-session byte buffers: incremental frame reassembly and bounded
//! write queues.
//!
//! The reactor never blocks on a socket, so a frame can arrive split
//! across arbitrarily many readiness wakeups and a result can leave in
//! arbitrarily small pieces. [`FrameBuf`] reassembles inbound frames
//! incrementally (`tests/reactor_fuzz.rs` feeds it every chunking);
//! [`WriteBuf`] queues outbound frames up to a hard byte bound so one
//! slow consumer occupies bounded memory — overflow is a disconnect
//! decision surfaced to the caller, never an unbounded queue.
//!
//! Both track a high-water mark, which the soak harness asserts against
//! to prove per-session memory stays bounded at 10k+ sessions.

use std::io::{self, Write};

use crate::wire::{DecodeError, Message, MAX_PAYLOAD_LEN};

/// The reactor's per-wakeup socket read size. Every complete frame is
/// decoded before the next read, so a session buffers at most one
/// partial frame plus one chunk.
pub const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame reassembly: bytes in (any chunking), decoded
/// [`Message`]s out.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    start: usize,
    high_water: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.high_water = self.high_water.max(self.buffered());
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The most bytes ever buffered at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// `Ok(Some((msg, n)))` consumed `n` wire bytes; `Ok(None)` means
    /// more bytes are needed (wait for the next readiness wakeup); a
    /// [`DecodeError`] (hostile length prefix, malformed payload) is
    /// fatal for the stream — framing is lost, the session must close.
    pub fn next_message(&mut self) -> Result<Option<(Message, usize)>, DecodeError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        // The protocol's one frame-length bound: rejected before the
        // payload is awaited, so a hostile prefix can't make the
        // session buffer (or stall) its way toward `claimed` bytes.
        if !(2..=MAX_PAYLOAD_LEN).contains(&len) {
            return Err(DecodeError::LengthOutOfBounds {
                claimed: len as u64,
                limit: MAX_PAYLOAD_LEN,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let msg = Message::decode_payload(&avail[4..4 + len])?;
        self.start += 4 + len;
        compact(&mut self.buf, &mut self.start);
        Ok(Some((msg, 4 + len)))
    }

    /// Whether a clean EOF here is actually clean (no partial frame).
    pub fn at_frame_boundary(&self) -> bool {
        self.buffered() == 0
    }
}

/// Drops the consumed prefix `..start` of `buf`: for free once
/// everything is consumed, by a copy only once the prefix is both
/// sizeable and at least half the buffer.
fn compact(buf: &mut Vec<u8>, start: &mut usize) {
    if *start == buf.len() {
        buf.clear();
        *start = 0;
    } else if *start >= 4096 && *start * 2 >= buf.len() {
        buf.drain(..*start);
        *start = 0;
    }
}

/// A bounded outbound byte queue with partial-write support.
#[derive(Debug)]
pub struct WriteBuf {
    buf: Vec<u8>,
    start: usize,
    cap: usize,
    high_water: usize,
}

impl WriteBuf {
    /// An empty queue holding at most `cap` pending bytes (clamped so
    /// one maximal frame always fits — otherwise a full-size result
    /// could never be queued at all).
    pub fn with_capacity(cap: usize) -> WriteBuf {
        WriteBuf {
            buf: Vec::new(),
            start: 0,
            cap: cap.max(4 + MAX_PAYLOAD_LEN),
            high_water: 0,
        }
    }

    /// Queues one encoded frame. `false` means the frame does not fit —
    /// the session is too far behind and should be disconnected (the
    /// frame was not queued; partially sent frames are never torn).
    #[must_use]
    pub fn push(&mut self, frame: &[u8]) -> bool {
        if self.pending() + frame.len() > self.cap {
            return false;
        }
        self.buf.extend_from_slice(frame);
        self.high_water = self.high_water.max(self.pending());
        true
    }

    /// Moves the bound to `cap` (clamped as at construction). Lowering
    /// it stops where what is queued still leaves room for one maximal
    /// frame: output already accepted never makes the next push fail.
    pub(crate) fn set_cap(&mut self, cap: usize) {
        let floor = self.cap.min(self.pending() + 4 + MAX_PAYLOAD_LEN);
        self.cap = cap.max(floor).max(4 + MAX_PAYLOAD_LEN);
    }

    /// Bytes queued and not yet written.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// The most bytes ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Writes as much as the socket will take right now; returns the
    /// bytes written. `WouldBlock` stops the drain (register `POLLOUT`
    /// interest and retry next wakeup); other errors are fatal.
    pub fn write_to<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut written = 0;
        while self.pending() > 0 {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.start += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        compact(&mut self.buf, &mut self.start);
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireOutcome;

    fn sample(i: u64) -> Message {
        Message::KnnResult {
            epoch: i,
            ids: vec![i as u32, i as u32 + 1],
            outcome: WireOutcome::Valid,
            flags: 0,
        }
    }

    #[test]
    fn reassembles_byte_at_a_time() {
        let msgs: Vec<Message> = (0..5).map(sample).collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode_frame());
        }
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for b in wire {
            fb.extend(&[b]);
            while let Some((m, _)) = fb.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert!(fb.at_frame_boundary());
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_buffering() {
        let mut fb = FrameBuf::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(
            fb.next_message(),
            Err(DecodeError::LengthOutOfBounds { .. })
        ));
    }

    #[test]
    fn write_buf_bounds_and_partial_writes() {
        let frame = sample(1).encode_frame();
        let mut wb = WriteBuf::with_capacity(0); // clamps to one max frame
        assert!(wb.push(&frame));
        let mut taken = 0usize;
        // A sink that takes 3 bytes per call.
        struct Trickle<'a>(&'a mut usize, Vec<u8>);
        impl Write for Trickle<'_> {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                *self.0 += n;
                self.1.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Trickle(&mut taken, Vec::new());
        while !wb.is_empty() {
            wb.write_to(&mut sink).unwrap();
        }
        assert_eq!(sink.1, frame);
        assert!(wb.high_water() >= frame.len());
    }

    #[test]
    fn a_lowered_bound_still_takes_the_next_frame() {
        // A tagged connection's bound drops when one of its sessions
        // ends — never so low that output it already holds makes that
        // session's `Drained` overflow it.
        let (floor, frame) = (4 + MAX_PAYLOAD_LEN, sample(1).encode_frame());
        let mut wb = WriteBuf::with_capacity(3 * floor);
        while wb.pending() + frame.len() <= 2 * floor {
            assert!(wb.push(&frame));
        }
        wb.set_cap(0);
        assert!(
            wb.push(&frame),
            "queued output made the next frame overflow"
        );
        wb.set_cap(5 * floor);
        assert_eq!(wb.cap, 5 * floor, "a raised bound is taken as given");
    }
}
