//! The OS primitives the wire layer needs and `std` does not expose.
//!
//! The event loop in [`crate::reactor`] needs exactly one thing from
//! the OS: "which of these sockets are readable or writable right
//! now?". [`Readiness`] answers it — one concrete type over Linux
//! `epoll`, level-triggered, with persistent interest registration
//! (register once, `modify` on a state transition, `deregister` before
//! close) — with the same offline-deps discipline as `crates/compat/`:
//! hand-written FFI bindings, no external crates. Off Linux there is no
//! second implementation: [`Readiness::new`] returns
//! [`io::ErrorKind::Unsupported`], so the codec and the clients build
//! on any Unix while *serving* requires Linux.
//!
//! Beside it sit the raw [`poll`] call — what the blocking
//! [`crate::NetClient`] parks on through [`wait_readable`] /
//! [`wait_writable`] — and the rlimit, socket-buffer and CPU-clock
//! helpers the soak and the fault-path tests use.
//!
//! Every wait shares one timeout contract, pinned by unit tests:
//! sub-millisecond timeouts are rounded **up** to the next millisecond
//! (never truncated to a non-blocking zero — callers pacing on short
//! deadlines must block, not busy-spin), and an `EINTR` restart retries
//! with the **remaining** time to a fixed deadline, so repeated signals
//! cannot extend the wait unboundedly.

#![allow(unsafe_code)]

use std::io;
use std::time::{Duration, Instant};

#[cfg(not(unix))]
compile_error!("insq-net binds poll(2)/epoll by hand and needs a Unix target");

#[cfg(target_os = "linux")]
mod epoll;
mod poll;

#[cfg(target_os = "linux")]
pub use epoll::Readiness;
pub use poll::{poll, PollFd};

/// The raw socket descriptor type fed to [`Readiness`] and [`poll`].
pub type RawFd = std::os::unix::io::RawFd;

/// Extracts the raw descriptor of a socket for readiness registration.
pub fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> RawFd {
    t.as_raw_fd()
}

/// The argument of [`Readiness::new`]: a placeholder with one value,
/// selecting nothing. It exists only because `benchmark/` (which moves
/// in its own PRs) names it — the next benchmark PR drops the argument
/// and this type with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadinessKind {
    /// The one readiness backend: `epoll`.
    #[default]
    Auto,
}

/// One ready descriptor, as reported by [`Readiness::wait`]. Carries
/// the caller's registration token, not the descriptor — reactors map
/// tokens to their own connection slots (with a generation tag, so a
/// slot recycled mid-batch never aliases a stale event).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    readable: bool,
    writable: bool,
    error: bool,
}

impl Event {
    #[cfg(target_os = "linux")]
    fn new(token: u64, readable: bool, writable: bool, error: bool) -> Event {
        Event {
            token,
            readable,
            writable,
            error,
        }
    }

    /// Readable — or at EOF/error, which a read will surface.
    pub fn readable(&self) -> bool {
        self.readable || self.error
    }

    /// Writable — or in error, which a write will surface.
    pub fn writable(&self) -> bool {
        self.writable || self.error
    }

    /// The descriptor is in an error state.
    pub fn error(&self) -> bool {
        self.error
    }
}

/// Off Linux nothing can serve: [`Readiness::new`] fails, so no value
/// of the type exists and its methods are statically unreachable.
#[cfg(not(target_os = "linux"))]
#[derive(Debug)]
pub struct Readiness(std::convert::Infallible);

#[cfg(not(target_os = "linux"))]
#[allow(missing_docs)]
impl Readiness {
    pub fn new(_kind: ReadinessKind) -> io::Result<Readiness> {
        let why = "the reactor's readiness set is epoll: serving requires Linux";
        Err(io::Error::new(io::ErrorKind::Unsupported, why))
    }

    pub fn register(&mut self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
        match self.0 {}
    }

    pub fn modify(&mut self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
        match self.0 {}
    }

    pub fn deregister(&mut self, _: RawFd) -> io::Result<()> {
        match self.0 {}
    }

    pub fn wait(&mut self, _: Option<Duration>, _: &mut Vec<Event>) -> io::Result<usize> {
        match self.0 {}
    }
}

/// A fixed wait deadline surviving `EINTR` restarts: each retry blocks
/// only for what remains, so repeated signals cannot extend the total
/// wait beyond the original timeout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitDeadline {
    until: Option<Instant>,
}

impl WaitDeadline {
    pub(crate) fn new(timeout: Option<Duration>) -> WaitDeadline {
        WaitDeadline {
            until: timeout.map(|d| Instant::now() + d),
        }
    }

    /// The remaining wait in syscall form: `-1` for "forever", else
    /// whole milliseconds **rounded up** (a 100µs remainder must block
    /// ~1ms, not busy-spin on 0). `0` means the deadline has passed.
    pub(crate) fn remaining_millis(&self) -> i32 {
        match self.until {
            None => -1,
            Some(t) => ceil_millis(t.saturating_duration_since(Instant::now())),
        }
    }

    /// Whether a finite deadline has fully elapsed.
    pub(crate) fn expired(&self) -> bool {
        self.until
            .is_some_and(|t| t.saturating_duration_since(Instant::now()).is_zero())
    }
}

/// `Duration` → whole milliseconds, rounded up and clamped to `i32`.
pub(crate) fn ceil_millis(d: Duration) -> i32 {
    d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
}

/// Blocks until `fd` is readable (used by the blocking client wrappers
/// around the non-blocking [`crate::ClientCore`]).
pub fn wait_readable(fd: RawFd) -> io::Result<()> {
    wait_ready(PollFd::new(fd, true, false))
}

/// Blocks until `fd` is writable.
pub fn wait_writable(fd: RawFd) -> io::Result<()> {
    wait_ready(PollFd::new(fd, false, true))
}

fn wait_ready(interest: PollFd) -> io::Result<()> {
    let mut fds = [interest];
    loop {
        poll(&mut fds, None)?;
        if fds[0].ready() {
            return Ok(());
        }
    }
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}
#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: std::ffi::c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: std::ffi::c_int = 8;
extern "C" {
    fn getrlimit(resource: std::ffi::c_int, rlim: *mut RLimit) -> std::ffi::c_int;
    fn setrlimit(resource: std::ffi::c_int, rlim: *const RLimit) -> std::ffi::c_int;
}

fn nofile_limit() -> io::Result<RLimit> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: plain C struct out-parameter of the documented shape on
    // 64-bit Unix.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(lim)
}

fn set_nofile_limit(lim: &RLimit) -> io::Result<()> {
    // SAFETY: as above, read-only; moving the soft limit anywhere up to
    // the hard limit is always permitted.
    if unsafe { setrlimit(RLIMIT_NOFILE, lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Raises the process's open-file soft limit to its hard limit (best
/// effort) and returns the resulting soft limit. The 20k-session soak
/// needs one descriptor per session server-side (two through the
/// router).
pub fn max_open_files() -> io::Result<u64> {
    let mut lim = nofile_limit()?;
    if lim.cur < lim.max {
        let raised = RLimit {
            cur: lim.max,
            ..lim
        };
        if set_nofile_limit(&raised).is_ok() {
            lim = raised;
        }
    }
    Ok(lim.cur)
}

/// The open-file soft limit as it stands (unraised; `usize::MAX` when
/// unknown or unlimited).
pub(crate) fn open_file_limit() -> usize {
    nofile_limit().map_or(usize::MAX, |l| usize::try_from(l.cur).unwrap_or(usize::MAX))
}

/// Sets the open-file **soft** limit (clamped to the hard limit) —
/// test scaffolding for descriptor-exhaustion regressions, which need
/// a limit low enough to hit without hoarding tens of thousands of
/// descriptors.
pub fn set_open_file_limit(n: u64) -> io::Result<()> {
    let lim = nofile_limit()?;
    set_nofile_limit(&RLimit {
        cur: n.min(lim.max),
        ..lim
    })
}

/// CPU time consumed by this process (all threads). Reactor regression
/// tests use it to assert an error-path wait is actually a wait, not a
/// busy spin.
pub fn process_cpu_time() -> io::Result<Duration> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: documented out-parameter shape for clock_gettime on
    // 64-bit Unix.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Duration::new(ts.sec as u64, ts.nsec as u32))
}

#[cfg(target_os = "linux")]
const SOL_SOCKET: std::ffi::c_int = 1;
#[cfg(target_os = "linux")]
const SO_SNDBUF: std::ffi::c_int = 7;
#[cfg(target_os = "linux")]
const SO_RCVBUF: std::ffi::c_int = 8;
#[cfg(not(target_os = "linux"))]
const SOL_SOCKET: std::ffi::c_int = 0xffff;
#[cfg(not(target_os = "linux"))]
const SO_SNDBUF: std::ffi::c_int = 0x1001;
#[cfg(not(target_os = "linux"))]
const SO_RCVBUF: std::ffi::c_int = 0x1002;

fn set_buf_opt(fd: RawFd, name: std::ffi::c_int, bytes: usize) -> io::Result<()> {
    extern "C" {
        fn setsockopt(
            fd: std::ffi::c_int,
            level: std::ffi::c_int,
            name: std::ffi::c_int,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> std::ffi::c_int;
    }
    let v: std::ffi::c_int = bytes.min(i32::MAX as usize) as std::ffi::c_int;
    // SAFETY: passes a live c_int by pointer with its exact size;
    // the kernel only reads `len` bytes from it.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            name,
            (&v as *const std::ffi::c_int).cast(),
            std::mem::size_of::<std::ffi::c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Shrinks a socket's kernel receive buffer — test scaffolding to
/// force partial writes (and therefore write-interest arm/disarm
/// transitions) on the peer without moving megabytes.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_RCVBUF, bytes)
}

/// Bounds (and locks — the kernel stops autotuning it) a socket's
/// kernel send buffer. The reactor applies this to accepted sessions
/// when [`crate::NetServerConfig::sndbuf`] is set, so a slow reader's
/// backlog accumulates in the accountable per-session
/// [`crate::WriteBuf`] instead of invisibly ballooning kernel memory.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_SNDBUF, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poll_reports_readable_after_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        // Nothing written yet: not readable within a short timeout.
        let mut fds = [PollFd::new(raw_fd(&rx), true, false)];
        let n = poll(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "no data yet");
        assert!(!fds[0].readable());

        tx.write_all(b"ping").unwrap();
        tx.flush().unwrap();
        let mut fds = [PollFd::new(raw_fd(&rx), true, false)];
        let n = poll(&mut fds, Some(Duration::from_millis(1000))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable());
        // A fresh socket with room in its send buffer is writable.
        let mut wfds = [PollFd::new(raw_fd(&tx), false, true)];
        poll(&mut wfds, Some(Duration::from_millis(1000))).unwrap();
        assert!(wfds[0].writable());
    }

    #[test]
    fn max_open_files_reports_a_sane_limit() {
        let n = max_open_files().unwrap();
        assert!(n >= 256, "limit {n} too small to serve anything");
    }

    /// The sub-millisecond truncation bug: a 100µs timeout must block,
    /// not degenerate into a non-blocking poll that callers spin on.
    #[test]
    fn submillisecond_timeout_blocks_instead_of_truncating_to_zero() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();

        let t0 = Instant::now();
        let mut fds = [PollFd::new(raw_fd(&rx), true, false)];
        let n = poll(&mut fds, Some(Duration::from_micros(100))).unwrap();
        let waited = t0.elapsed();
        assert_eq!(n, 0, "nothing was sent");
        assert!(
            waited >= Duration::from_micros(100),
            "poll returned in {waited:?} — sub-ms timeout truncated to a busy poll"
        );

        // Same contract through the reactor's readiness set.
        #[cfg(target_os = "linux")]
        {
            let mut r = Readiness::new(ReadinessKind::Auto).unwrap();
            r.register(raw_fd(&rx), 7, true, false).unwrap();
            let mut events = Vec::new();
            let t0 = Instant::now();
            let n = r
                .wait(Some(Duration::from_micros(100)), &mut events)
                .unwrap();
            let waited = t0.elapsed();
            assert_eq!(n, 0, "nothing was sent");
            assert!(
                waited >= Duration::from_micros(100),
                "wait returned in {waited:?}"
            );
        }
    }

    /// Register → event → modify (disarm/re-arm) → deregister: the
    /// persistent-interest lifecycle the reactor relies on.
    #[cfg(target_os = "linux")]
    #[test]
    fn backend_interest_lifecycle_is_conformant() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let mut r = Readiness::new(ReadinessKind::Auto).unwrap();
        r.register(raw_fd(&rx), 42, true, false).unwrap();

        // Not readable yet.
        let mut events = Vec::new();
        let n = r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert_eq!(n, 0, "spurious readiness");

        tx.write_all(b"x").unwrap();
        let n = r
            .wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(n, 1, "write not reported");
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable());

        // Level-triggered: unconsumed readiness is re-reported.
        let n = r
            .wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(n, 1, "level-triggered re-report missing");

        // Disarm read interest: the data still sits unread, but no
        // event may fire.
        r.modify(raw_fd(&rx), 42, false, false).unwrap();
        let n = r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert_eq!(n, 0, "disarmed descriptor still fired");

        // Re-arm with a new token: fires again, new token attached.
        r.modify(raw_fd(&rx), 43, true, false).unwrap();
        let n = r
            .wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(n, 1, "re-armed descriptor silent");
        assert_eq!(events[0].token, 43);

        // Deregister: silent again.
        r.deregister(raw_fd(&rx)).unwrap();
        let n = r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
        assert_eq!(n, 0, "deregistered descriptor fired");

        // Double-register is an error; modify after deregister too.
        r.register(raw_fd(&rx), 1, true, false).unwrap();
        assert!(r.register(raw_fd(&rx), 2, true, false).is_err());
        r.deregister(raw_fd(&rx)).unwrap();
        assert!(r.modify(raw_fd(&rx), 1, true, false).is_err());
    }

    #[test]
    fn ceil_millis_rounds_up_and_zero_stays_zero() {
        assert_eq!(ceil_millis(Duration::ZERO), 0);
        assert_eq!(ceil_millis(Duration::from_nanos(1)), 1);
        assert_eq!(ceil_millis(Duration::from_micros(100)), 1);
        assert_eq!(ceil_millis(Duration::from_millis(1)), 1);
        assert_eq!(ceil_millis(Duration::from_micros(1001)), 2);
        assert_eq!(ceil_millis(Duration::from_secs(1 << 40)), i32::MAX);
    }

    #[test]
    fn wait_deadline_tracks_remaining_time_not_original() {
        let d = WaitDeadline::new(None);
        assert_eq!(d.remaining_millis(), -1);
        assert!(!d.expired());

        let d = WaitDeadline::new(Some(Duration::from_millis(50)));
        let first = d.remaining_millis();
        assert!((1..=50).contains(&first));
        std::thread::sleep(Duration::from_millis(20));
        let second = d.remaining_millis();
        assert!(
            second < first,
            "an EINTR retry must not restart the full timeout ({second} >= {first})"
        );
        std::thread::sleep(Duration::from_millis(40));
        assert!(d.expired());
        assert_eq!(d.remaining_millis(), 0);
    }

    #[test]
    fn process_cpu_time_is_monotonic() {
        let a = process_cpu_time().unwrap();
        // Burn a little CPU so the clock visibly advances.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let b = process_cpu_time().unwrap();
        assert!(b >= a);
    }
}
