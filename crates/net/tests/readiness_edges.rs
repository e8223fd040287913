//! The readiness set at its edges. The kernel's interest list is the
//! only registry — nothing in userspace shadows it — so these pin what
//! the kernel is relied on for:
//!
//! * more simultaneously ready descriptors than one `epoll_wait` buffer
//!   holds: every token is reported, none twice within a wait, nothing
//!   is lost across the buffer-doubling path;
//! * misuse comes back as the kernel reports it — a double `register`
//!   is `AlreadyExists`, `modify`/`deregister` of an unregistered
//!   descriptor `NotFound` — and a descriptor closed *without*
//!   `deregister`, its number then reused by the OS, registers cleanly.

#![cfg(target_os = "linux")]

use std::io::ErrorKind;
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use insq_net::sys::{self, Event, Readiness, ReadinessKind};

/// Both tests reason about descriptor *numbers* (a hoard of them, the
/// reuse of one), which are process-global: one at a time.
static FDS: Mutex<()> = Mutex::new(());

const WAIT: Option<Duration> = Some(Duration::from_millis(200));

/// The tokens of one wait, checked to be pairwise distinct.
fn distinct_tokens(events: &[Event], n: usize) -> Vec<usize> {
    let mut seen = vec![false; n];
    for ev in events {
        let t = ev.token as usize;
        assert!(ev.writable(), "token {t} reported without its interest");
        assert!(!std::mem::replace(&mut seen[t], true), "token {t} twice");
    }
    events.iter().map(|ev| ev.token as usize).collect()
}

#[test]
fn more_ready_descriptors_than_the_wait_buffer_are_all_reported() {
    let _serial = FDS.lock().unwrap_or_else(PoisonError::into_inner);
    const N: usize = 3_000;
    let limit = sys::max_open_files().unwrap();
    assert!(
        limit >= N as u64 + 200,
        "open-file limit {limit} too low to hold {N} descriptors"
    );

    // Both ends of a fresh socket pair are writable at once.
    let socks: Vec<UnixStream> = (0..N / 2)
        .flat_map(|_| <[UnixStream; 2]>::from(UnixStream::pair().unwrap()))
        .collect();
    let mut r = Readiness::new(ReadinessKind::Auto).unwrap();
    for (token, s) in socks.iter().enumerate() {
        r.register(sys::raw_fd(s), token as u64, false, true)
            .unwrap();
    }

    // Consume the way the reactor does — disarm what was handled — so
    // each token must turn up exactly once over however many waits the
    // backlog takes.
    let mut events = Vec::new();
    let mut handled = vec![false; N];
    let mut batches = Vec::new();
    while r.wait(WAIT, &mut events).unwrap() > 0 {
        for t in distinct_tokens(&events, N) {
            assert!(
                !std::mem::replace(&mut handled[t], true),
                "{t} re-reported after disarm"
            );
            r.modify(sys::raw_fd(&socks[t]), t as u64, false, false)
                .unwrap();
        }
        batches.push(events.len());
    }
    assert!(handled.iter().all(|&h| h), "tokens lost: {batches:?}");
    assert!(
        batches.len() > 1 && batches[0] >= 1024,
        "the first wait was meant to fill its buffer and overflow: {batches:?}"
    );

    // Re-arm everything: the buffer grows until one wait carries all N.
    for (t, s) in socks.iter().enumerate() {
        r.modify(sys::raw_fd(s), t as u64, false, true).unwrap();
    }
    let mut sizes = Vec::new();
    while sizes.last() != Some(&N) {
        assert!(
            sizes.len() < 4,
            "the wait buffer stopped growing: {sizes:?}"
        );
        r.wait(WAIT, &mut events).unwrap();
        sizes.push(distinct_tokens(&events, N).len());
    }
}

#[test]
fn misuse_errors_come_from_the_kernel_and_a_reused_fd_registers_cleanly() {
    let _serial = FDS.lock().unwrap_or_else(PoisonError::into_inner);
    let (a, b) = UnixStream::pair().unwrap();
    let mut r = Readiness::new(ReadinessKind::Auto).unwrap();

    r.register(sys::raw_fd(&a), 1, false, true).unwrap();
    let twice = r.register(sys::raw_fd(&a), 2, false, true).unwrap_err();
    assert_eq!(twice.kind(), ErrorKind::AlreadyExists);
    let unknown = r.modify(sys::raw_fd(&b), 3, true, false).unwrap_err();
    assert_eq!(unknown.kind(), ErrorKind::NotFound);
    let unknown = r.deregister(sys::raw_fd(&b)).unwrap_err();
    assert_eq!(unknown.kind(), ErrorKind::NotFound);

    // Close `a` behind the set's back; the next descriptor the OS hands
    // out takes its number.
    let stale = sys::raw_fd(&a);
    drop(a);
    let (c, d) = UnixStream::pair().unwrap();
    let reused = [&c, &d].into_iter().find(|s| sys::raw_fd(*s) == stale);
    let reused = reused.expect("the lowest free descriptor number is handed out first");
    r.register(stale, 7, false, true)
        .expect("a closed descriptor's registration went with it");

    // Only the new occupant reports, under its own token.
    let mut events = Vec::new();
    r.wait(WAIT, &mut events).unwrap();
    let tokens: Vec<u64> = events.iter().map(|ev| ev.token).collect();
    assert_eq!(tokens, [7]);
    r.deregister(sys::raw_fd(reused)).unwrap();
    assert_eq!(
        r.wait(Some(Duration::from_millis(5)), &mut events).unwrap(),
        0
    );
}
