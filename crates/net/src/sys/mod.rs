//! Minimal OS readiness primitives behind one backend-neutral facade.
//!
//! The event loop in [`crate::reactor`] needs exactly one thing from
//! the OS that `std` does not expose: "which of these sockets are
//! readable or writable right now?". This module provides it with the same offline-deps discipline as
//! `crates/compat/` — hand-written FFI bindings, no external crates —
//! behind a [`Readiness`] abstraction with **persistent interest
//! registration**:
//!
//! * [`epoll`] (Linux) — the scaling backend. Interest lives in the
//!   kernel; a wakeup costs O(ready), not O(live), so 100k mostly-idle
//!   sessions cost nothing per wakeup. Registered **level-triggered**
//!   (no `EPOLLET`), deliberately: the reactor bounds work per wakeup
//!   (`READS_PER_WAKEUP`) and relies on unconsumed readiness being
//!   re-reported by the next wait.
//! * [`poll`] (portable fallback) — the original `poll(2)` wrapper,
//!   wrapped in a persistent interest registry so both backends expose
//!   the identical register/modify/deregister/wait surface. The kernel
//!   still scans O(live) descriptors per wakeup — that is the wall this
//!   backend hits around 20k sessions — but the interest set is no
//!   longer rebuilt per wakeup either.
//!
//! Which backend serves is runtime-selectable ([`ReadinessKind`],
//! surfaced on `NetServerConfig`/`RouterConfig` and overridable via the
//! `INSQ_READINESS` environment variable) so both stay tested by the
//! same suites.
//!
//! Both backends share the same timeout contract, pinned by unit tests:
//! sub-millisecond timeouts are rounded **up** to the next millisecond
//! (never truncated to a non-blocking zero — callers pacing on short
//! deadlines must block, not busy-spin), and an `EINTR` restart retries
//! with the **remaining** time to a fixed deadline, so repeated signals
//! cannot extend the wait unboundedly.
//!
//! On non-Unix targets there is a degraded but correct fallback: the
//! raw [`poll`] call sleeps a millisecond and reports every descriptor
//! ready, so the reactor becomes a paced busy-poll (non-blocking
//! reads/writes that aren't actually ready return `WouldBlock` and are
//! retried).

#![allow(unsafe_code)]

use std::io;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
pub mod epoll;
mod poll;

pub use poll::{poll, PollBackend, PollFd};

/// The raw socket descriptor type fed to the readiness backends.
#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;

/// The raw socket descriptor type fed to the readiness backends
/// (placeholder off Unix; see the module docs for the fallback
/// semantics).
#[cfg(not(unix))]
pub type RawFd = i32;

/// Extracts the raw descriptor of a socket for readiness registration.
#[cfg(unix)]
pub fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> RawFd {
    t.as_raw_fd()
}

/// Extracts the raw descriptor of a socket for readiness registration
/// (dummy off Unix; the fallback [`poll`] reports every descriptor
/// ready anyway).
#[cfg(not(unix))]
pub fn raw_fd<T>(_t: &T) -> RawFd {
    0
}

/// Which readiness backend a reactor runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadinessKind {
    /// Pick the best available: `epoll` on Linux, `poll` elsewhere.
    #[default]
    Auto,
    /// Force the portable `poll(2)` backend (O(live) kernel scan per
    /// wakeup; the conformance baseline).
    Poll,
    /// Force the Linux `epoll` backend (O(ready) wakeups); binding
    /// fails on targets without it.
    Epoll,
}

impl ReadinessKind {
    /// The kind named by the `INSQ_READINESS` environment variable
    /// (`poll` / `epoll` / `auto`, case-insensitive), or `Auto` when
    /// unset or unrecognised. Server config defaults route through
    /// this, so a CI matrix can force the fallback backend across an
    /// entire test suite without touching any call site.
    pub fn from_env() -> ReadinessKind {
        match std::env::var("INSQ_READINESS") {
            Ok(v) if v.eq_ignore_ascii_case("poll") => ReadinessKind::Poll,
            Ok(v) if v.eq_ignore_ascii_case("epoll") => ReadinessKind::Epoll,
            _ => ReadinessKind::Auto,
        }
    }
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
    pub(crate) fn new(token: u64, readable: bool, writable: bool, error: bool) -> Event {
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

/// A readiness backend with persistent interest registration: register
/// a descriptor once, adjust its interest on state transitions, wait
/// for whatever is ready. Backed by `epoll` on Linux or the portable
/// `poll(2)` registry — enum dispatch, no boxing on the wakeup path.
#[derive(Debug)]
pub enum Readiness {
    /// The portable `poll(2)` registry backend.
    Poll(PollBackend),
    /// The Linux `epoll` backend.
    #[cfg(target_os = "linux")]
    Epoll(epoll::EpollBackend),
}

impl Readiness {
    /// Opens a backend of the requested kind. `Auto` resolves to
    /// `epoll` on Linux and `poll` elsewhere; an explicit `Epoll` on a
    /// target without it is an `Unsupported` error.
    pub fn new(kind: ReadinessKind) -> io::Result<Readiness> {
        match kind {
            ReadinessKind::Poll => Ok(Readiness::Poll(PollBackend::new())),
            #[cfg(target_os = "linux")]
            ReadinessKind::Auto | ReadinessKind::Epoll => {
                Ok(Readiness::Epoll(epoll::EpollBackend::new()?))
            }
            #[cfg(not(target_os = "linux"))]
            ReadinessKind::Auto => Ok(Readiness::Poll(PollBackend::new())),
            #[cfg(not(target_os = "linux"))]
            ReadinessKind::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll backend requires Linux",
            )),
        }
    }

    /// The resolved backend kind (never `Auto`).
    pub fn kind(&self) -> ReadinessKind {
        match self {
            Readiness::Poll(_) => ReadinessKind::Poll,
            #[cfg(target_os = "linux")]
            Readiness::Epoll(_) => ReadinessKind::Epoll,
        }
    }

    /// Registers `fd` with interest in readability and/or writability.
    /// `token` comes back verbatim on every [`Event`] for this
    /// descriptor. Registering an already-registered descriptor is an
    /// error.
    pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match self {
            Readiness::Poll(b) => b.register(fd, token, read, write),
            #[cfg(target_os = "linux")]
            Readiness::Epoll(b) => b.register(fd, token, read, write),
        }
    }

    /// Replaces the interest (and token) of a registered descriptor.
    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match self {
            Readiness::Poll(b) => b.modify(fd, token, read, write),
            #[cfg(target_os = "linux")]
            Readiness::Epoll(b) => b.modify(fd, token, read, write),
        }
    }

    /// Removes a descriptor from the interest set. Must be called
    /// **before** the descriptor is closed (the poll registry keys by
    /// fd, and a closed fd in its set would poll as `POLLNVAL`
    /// forever).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            Readiness::Poll(b) => b.deregister(fd),
            #[cfg(target_os = "linux")]
            Readiness::Epoll(b) => b.deregister(fd),
        }
    }

    /// Waits until at least one registered descriptor is ready or the
    /// timeout passes (`None` waits indefinitely), filling `events`
    /// with what is ready. Returns the number of events. Sub-ms
    /// timeouts block (rounded up); `EINTR` restarts with the
    /// remaining time.
    pub fn wait(
        &mut self,
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> io::Result<usize> {
        match self {
            Readiness::Poll(b) => b.wait(timeout, events),
            #[cfg(target_os = "linux")]
            Readiness::Epoll(b) => b.wait(timeout, events),
        }
    }

    /// Registered descriptors (live interest set size).
    pub fn len(&self) -> usize {
        match self {
            Readiness::Poll(b) => b.len(),
            #[cfg(target_os = "linux")]
            Readiness::Epoll(b) => b.len(),
        }
    }

    /// Whether no descriptor is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

#[cfg(unix)]
mod imp {
    use super::*;

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: std::ffi::c_int = 7;
    #[cfg(all(unix, not(target_os = "linux")))]
    const RLIMIT_NOFILE: std::ffi::c_int = 8;
    extern "C" {
        fn getrlimit(resource: std::ffi::c_int, rlim: *mut RLimit) -> std::ffi::c_int;
        fn setrlimit(resource: std::ffi::c_int, rlim: *const RLimit) -> std::ffi::c_int;
    }

    pub fn max_open_files_impl() -> io::Result<u64> {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: plain C struct out-parameter of the documented shape
        // for these two syscalls on 64-bit Unix.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.cur < lim.max {
            let raised = RLimit {
                cur: lim.max,
                max: lim.max,
            };
            // SAFETY: as above; raising the soft limit to the hard
            // limit is always permitted.
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                lim.cur = lim.max;
            }
        }
        Ok(lim.cur)
    }

    pub fn set_open_file_limit_impl(n: u64) -> io::Result<()> {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: as in `max_open_files_impl`.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let lowered = RLimit {
            cur: n.min(lim.max),
            max: lim.max,
        };
        // SAFETY: lowering (or restoring up to the hard limit) the
        // soft limit is always permitted.
        if unsafe { setrlimit(RLIMIT_NOFILE, &lowered) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn process_cpu_time_impl() -> io::Result<Duration> {
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
    #[cfg(all(unix, not(target_os = "linux")))]
    const SOL_SOCKET: std::ffi::c_int = 0xffff;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SO_SNDBUF: std::ffi::c_int = 0x1001;
    #[cfg(all(unix, not(target_os = "linux")))]
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

    pub fn set_recv_buffer_impl(fd: RawFd, bytes: usize) -> io::Result<()> {
        set_buf_opt(fd, SO_RCVBUF, bytes)
    }

    pub fn set_send_buffer_impl(fd: RawFd, bytes: usize) -> io::Result<()> {
        set_buf_opt(fd, SO_SNDBUF, bytes)
    }
}

#[cfg(not(unix))]
mod imp {
    use super::*;

    pub fn max_open_files_impl() -> io::Result<u64> {
        Ok(u64::MAX)
    }

    pub fn set_open_file_limit_impl(_n: u64) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "no rlimits"))
    }

    pub fn process_cpu_time_impl() -> io::Result<Duration> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "no cpu clock"))
    }

    pub fn set_recv_buffer_impl(_fd: RawFd, _bytes: usize) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "no setsockopt"))
    }

    pub fn set_send_buffer_impl(_fd: RawFd, _bytes: usize) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "no setsockopt"))
    }
}

/// Raises the process's open-file soft limit to its hard limit (best
/// effort) and returns the resulting soft limit. The 20k-session soak
/// needs one descriptor per session server-side (two through the
/// router).
pub fn max_open_files() -> io::Result<u64> {
    imp::max_open_files_impl()
}

/// Sets the open-file **soft** limit (clamped to the hard limit) —
/// test scaffolding for descriptor-exhaustion regressions, which need
/// a limit low enough to hit without hoarding tens of thousands of
/// descriptors.
pub fn set_open_file_limit(n: u64) -> io::Result<()> {
    imp::set_open_file_limit_impl(n)
}

/// CPU time consumed by this process (all threads). Reactor regression
/// tests use it to assert an error-path wait is actually a wait, not a
/// busy spin.
pub fn process_cpu_time() -> io::Result<Duration> {
    imp::process_cpu_time_impl()
}

/// Shrinks a socket's kernel receive buffer — test scaffolding to
/// force partial writes (and therefore write-interest arm/disarm
/// transitions) on the peer without moving megabytes.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    imp::set_recv_buffer_impl(fd, bytes)
}

/// Bounds (and locks — the kernel stops autotuning it) a socket's
/// kernel send buffer. The reactor applies this to accepted sessions
/// when [`crate::NetServerConfig::sndbuf`] is set, so a slow reader's
/// backlog accumulates in the accountable per-session
/// [`crate::WriteBuf`] instead of invisibly ballooning kernel memory.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    imp::set_send_buffer_impl(fd, bytes)
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

        // Nothing written yet: not readable within a short timeout
        // (the degraded non-Unix fallback reports ready; skip there).
        #[cfg(unix)]
        {
            let mut fds = [PollFd::new(raw_fd(&rx), true, false)];
            let n = poll(&mut fds, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0, "no data yet");
            assert!(!fds[0].readable());
        }

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

    fn backends() -> Vec<ReadinessKind> {
        #[cfg(target_os = "linux")]
        return vec![ReadinessKind::Poll, ReadinessKind::Epoll];
        #[cfg(not(target_os = "linux"))]
        return vec![ReadinessKind::Poll];
    }

    /// The sub-millisecond truncation bug: a 100µs timeout must block,
    /// not degenerate into a non-blocking poll that callers spin on.
    #[cfg(unix)]
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

        // Same contract through the backend facade, on every backend
        // this target offers.
        for kind in backends() {
            let mut r = Readiness::new(kind).unwrap();
            r.register(raw_fd(&rx), 7, true, false).unwrap();
            let mut events = Vec::new();
            let t0 = Instant::now();
            let n = r
                .wait(Some(Duration::from_micros(100)), &mut events)
                .unwrap();
            let waited = t0.elapsed();
            assert_eq!(n, 0, "{kind:?}: nothing was sent");
            assert!(
                waited >= Duration::from_micros(100),
                "{kind:?}: wait returned in {waited:?}"
            );
        }
    }

    /// Register → event → modify (disarm/re-arm) → deregister, on every
    /// backend: the persistent-interest lifecycle the reactors rely on.
    #[cfg(unix)]
    #[test]
    fn backend_interest_lifecycle_is_conformant() {
        for kind in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut tx = TcpStream::connect(addr).unwrap();
            let (rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();

            let mut r = Readiness::new(kind).unwrap();
            r.register(raw_fd(&rx), 42, true, false).unwrap();
            assert_eq!(r.len(), 1);

            // Not readable yet.
            let mut events = Vec::new();
            let n = r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
            assert_eq!(n, 0, "{kind:?}: spurious readiness");

            tx.write_all(b"x").unwrap();
            let n = r
                .wait(Some(Duration::from_millis(1000)), &mut events)
                .unwrap();
            assert_eq!(n, 1, "{kind:?}: write not reported");
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable());

            // Level-triggered: unconsumed readiness is re-reported.
            let n = r
                .wait(Some(Duration::from_millis(1000)), &mut events)
                .unwrap();
            assert_eq!(n, 1, "{kind:?}: level-triggered re-report missing");

            // Disarm read interest: the data still sits unread, but no
            // event may fire.
            r.modify(raw_fd(&rx), 42, false, false).unwrap();
            let n = r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
            assert_eq!(n, 0, "{kind:?}: disarmed descriptor still fired");

            // Re-arm with a new token: fires again, new token attached.
            r.modify(raw_fd(&rx), 43, true, false).unwrap();
            let n = r
                .wait(Some(Duration::from_millis(1000)), &mut events)
                .unwrap();
            assert_eq!(n, 1, "{kind:?}: re-armed descriptor silent");
            assert_eq!(events[0].token, 43);

            // Deregister: silent again, and the registry empties.
            r.deregister(raw_fd(&rx)).unwrap();
            assert!(r.is_empty());
            let n = r.wait(Some(Duration::from_millis(5)), &mut events).unwrap();
            assert_eq!(n, 0, "{kind:?}: deregistered descriptor fired");

            // Double-register is an error; modify after deregister too.
            r.register(raw_fd(&rx), 1, true, false).unwrap();
            assert!(r.register(raw_fd(&rx), 2, true, false).is_err());
            r.deregister(raw_fd(&rx)).unwrap();
            assert!(r.modify(raw_fd(&rx), 1, true, false).is_err());
        }
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

    #[cfg(unix)]
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
