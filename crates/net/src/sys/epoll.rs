//! [`Readiness`]: the reactor's one readiness set, an `epoll` instance.
//!
//! Interest registration lives in the kernel, so a wakeup costs
//! O(ready events), not O(registered descriptors) — 100k mostly-idle
//! sessions cost nothing per wakeup. Descriptors are registered
//! **level-triggered** (no `EPOLLET`), deliberately: the reactor bounds
//! work per wakeup (`READS_PER_WAKEUP`) and depends on unconsumed
//! readiness being re-reported by the next `epoll_wait`.

use std::io;
use std::time::Duration;

use super::{Event, RawFd, ReadinessKind, WaitDeadline};

const EPOLL_CLOEXEC: std::ffi::c_int = 0x80000;
const EPOLL_CTL_ADD: std::ffi::c_int = 1;
const EPOLL_CTL_DEL: std::ffi::c_int = 2;
const EPOLL_CTL_MOD: std::ffi::c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

/// The kernel's event record. x86-64 is the one ABI where this struct
/// is packed (a 32-bit mask directly followed by a 64-bit payload);
/// every other architecture uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: std::ffi::c_int) -> std::ffi::c_int;
    fn epoll_ctl(
        epfd: std::ffi::c_int,
        op: std::ffi::c_int,
        fd: std::ffi::c_int,
        event: *mut EpollEvent,
    ) -> std::ffi::c_int;
    fn epoll_wait(
        epfd: std::ffi::c_int,
        events: *mut EpollEvent,
        maxevents: std::ffi::c_int,
        timeout: std::ffi::c_int,
    ) -> std::ffi::c_int;
    fn close(fd: std::ffi::c_int) -> std::ffi::c_int;
}

fn interest_mask(read: bool, write: bool) -> u32 {
    let mut m = 0;
    if read {
        m |= EPOLLIN;
    }
    if write {
        m |= EPOLLOUT;
    }
    m
}

/// A readiness set with persistent interest registration: register a
/// descriptor once, adjust its interest on state transitions, wait for
/// whatever is ready. The kernel owns the interest list — there is no
/// userspace registry beside it, and misuse comes back as the kernel
/// reports it (`EEXIST` → `AlreadyExists`, `ENOENT` → `NotFound`).
#[derive(Debug)]
pub struct Readiness {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

impl Readiness {
    /// Opens a fresh `epoll` instance (close-on-exec).
    pub fn new(_kind: ReadinessKind) -> io::Result<Readiness> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Readiness {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&mut self, op: std::ffi::c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` (level-triggered) with interest in readability
    /// and/or writability. `token` comes back verbatim on every
    /// [`Event`] for this descriptor. Registering an already-registered
    /// descriptor is an `AlreadyExists` error.
    pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest_mask(read, write), token)
    }

    /// Replaces the interest (and token) of a registered descriptor;
    /// `NotFound` if it is not registered.
    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest_mask(read, write), token)
    }

    /// Removes a descriptor from the interest set; `NotFound` if it is
    /// not registered. Call before closing the descriptor: the kernel
    /// drops a closed descriptor's registration by itself only once no
    /// duplicate of it stays open.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
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
        events.clear();
        let deadline = WaitDeadline::new(timeout);
        let n = loop {
            // SAFETY: `buf` is a live Vec of `repr(C)` event structs;
            // the kernel writes at most `maxevents` entries into it.
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as std::ffi::c_int,
                    deadline.remaining_millis(),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: retry with the remaining time, never the full
            // original timeout.
            if deadline.expired() {
                break 0;
            }
        };
        for ev in &self.buf[..n] {
            let mask = ev.events;
            events.push(Event::new(
                ev.data,
                mask & EPOLLIN != 0,
                mask & EPOLLOUT != 0,
                mask & (EPOLLERR | EPOLLHUP) != 0,
            ));
        }
        if n == self.buf.len() {
            // The batch filled the buffer; more may be pending. Grow so
            // heavy wakeups drain in one syscall next time (with
            // level-triggered registration the overflow is re-reported
            // immediately, so nothing is lost either way).
            self.buf
                .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
        }
        Ok(events.len())
    }
}

impl Drop for Readiness {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd we own; registered descriptors
        // are detached automatically by the kernel.
        unsafe { close(self.epfd) };
    }
}
