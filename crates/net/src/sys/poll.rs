//! The raw `poll(2)` call: one blocking wait on a handful of
//! descriptors. The blocking client helpers in [`super`]
//! ([`super::wait_readable`], [`super::wait_writable`]) are its users;
//! the reactor's readiness set is [`super::Readiness`].

use std::io;
use std::time::Duration;

use super::{RawFd, WaitDeadline};

/// One descriptor's poll request/response pair, matching the C
/// `struct pollfd` layout.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

impl PollFd {
    /// Interest in `fd` becoming readable and/or writable.
    pub fn new(fd: RawFd, read: bool, write: bool) -> PollFd {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Readable — or hung up / in error, which a read will surface.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// Writable — or hung up / in error, which a write will surface.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR) != 0
    }

    /// Any readiness at all (including error states).
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Waits until at least one descriptor in `fds` is ready or the
/// timeout passes (`None` blocks indefinitely). Returns the number of
/// ready descriptors. Sub-millisecond timeouts are rounded **up** (a
/// short deadline must block, not degenerate into a busy poll), and an
/// `EINTR` restart retries with the remaining time to the original
/// deadline.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = WaitDeadline::new(timeout);
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs; the kernel writes only the
        // `revents` fields within its bounds.
        let rc = unsafe {
            c_poll(
                fds.as_mut_ptr(),
                fds.len() as NfdsT,
                deadline.remaining_millis(),
            )
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        // EINTR: retry with whatever remains of the original
        // deadline, never the full timeout again.
        if deadline.expired() {
            return Ok(0);
        }
    }
}
