//! Minimal POSIX `poll(2)` bindings for the reactor transport.
//!
//! The workspace builds with no external crates (every dependency is a
//! vendored shim), so instead of `mio` or `libc` this module declares the
//! three C library entry points the reactor needs directly: `std` already
//! links the platform C library, and `poll`/`getrlimit`/`setrlimit` are
//! POSIX, with one ABI on every unix up to the two constants `cfg`'d below.
//! Everything is wrapped in safe types ([`Poller`], [`WakeHandle`])
//! immediately; no raw fd escapes this module.
//!
//! Non-unix builds compile this module away (`#[cfg(unix)]` at the `mod`
//! site), and with it the reactor.
//!
//! ## Safety audit
//!
//! This is the workspace's only FFI module; `sdso-check`'s `unsafe-audit`
//! rule requires this table to name every foreign function the `extern`
//! block declares, with its soundness argument, and a `// SAFETY:` comment
//! at each `unsafe` use.
//!
//! | entry point | contract                                               |
//! |-------------|--------------------------------------------------------|
//! | `poll`      | `fds` points at `nfds` live, writable `PollFd` records |
//! | `getrlimit` | `rlim` points at a live, writable `Rlimit`             |
//! | `setrlimit` | `rlim` points at a live, readable `Rlimit`             |
//!
//! The poll table holds descriptor *numbers*, not owners. A socket closed
//! while still registered leaves an entry that reports `POLLNVAL` or, once
//! the number is reused, another socket's readiness under the old token.
//! So the reactor deletes every registration before it closes the socket,
//! and [`Poller::add`] refuses a number that is still registered: a missed
//! delete fails at the next add instead of misrouting readiness.

use std::ffi::{c_int, c_short};
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use crate::error::NetError;

// --- raw ABI ---------------------------------------------------------------

/// `struct pollfd`, laid out alike on every unix.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS and the BSDs.
#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// `RLIMIT_NOFILE`: 7 on Linux, 8 on macOS and the BSDs.
#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

// --- safe wrappers ---------------------------------------------------------

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };

    fn events(self) -> c_short {
        let mut e = 0;
        if self.readable {
            e |= POLLIN;
        }
        if self.writable {
            e |= POLLOUT;
        }
        e
    }
}

/// One readiness notification, decoded from the kernel's `revents`.
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    /// The `token` the fd was registered with.
    pub token: u64,
    /// Readable (or a hang-up is pending — reads will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error, hang-up or a closed descriptor: the connection is gone or going.
    pub error: bool,
}

/// A `poll(2)` table: one `pollfd` per registration, its token beside it.
///
/// `poll` is level-triggered, which the reactor relies on: it may stop
/// reading mid-burst (e.g. to bound per-peer work per turn) and the kernel
/// simply re-reports readiness on the next wait, with no lost edge.
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
}

impl Poller {
    /// An empty table.
    pub fn new() -> Poller {
        Poller::default()
    }

    fn slot(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    /// Registers `source` under `token` with the given interest.
    ///
    /// Taking `&impl AsRawFd` (not a `RawFd`) keeps the borrow of the
    /// owning socket alive across the call, so the fd cannot be closed
    /// while it is being registered.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the descriptor is registered already: its
    /// previous owner was closed without a [`Poller::delete`].
    pub fn add(
        &mut self,
        source: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> Result<(), NetError> {
        let fd = source.as_raw_fd();
        if self.slot(fd).is_some() {
            return Err(NetError::Io(std::io::ErrorKind::AlreadyExists.into()));
        }
        self.fds.push(PollFd { fd, events: interest.events(), revents: 0 });
        self.tokens.push(token);
        Ok(())
    }

    /// Changes the token and interest of an already-registered `source`:
    /// a field write, no syscall.
    ///
    /// # Errors
    ///
    /// `NotFound` if `source` is not registered.
    pub fn modify(
        &mut self,
        source: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> Result<(), NetError> {
        let i = self
            .slot(source.as_raw_fd())
            .ok_or_else(|| NetError::Io(std::io::ErrorKind::NotFound.into()))?;
        self.fds[i].events = interest.events();
        self.tokens[i] = token;
        Ok(())
    }

    /// Deregisters `source`, if registered. Call it before closing the
    /// descriptor (see the module docs).
    pub fn delete(&mut self, source: &impl AsRawFd) {
        if let Some(i) = self.slot(source.as_raw_fd()) {
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait indefinitely), appending decoded events to
    /// `out`. Returns the number of events delivered; 0 means timeout.
    ///
    /// # Errors
    ///
    /// Propagates the `poll` errno (`EINTR` is retried internally).
    pub fn wait(
        &mut self,
        out: &mut Vec<Ready>,
        timeout: Option<Duration>,
    ) -> Result<usize, NetError> {
        // Round up so a 100µs timer does not spin at timeout=0.
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            Some(d) => c_int::try_from(d.as_millis().max(1)).unwrap_or(c_int::MAX),
        };
        let n = loop {
            // SAFETY: `fds` is a live, initialised Vec of exactly `len`
            // records, borrowed mutably for the call; the kernel writes
            // only their `revents` fields.
            let ret = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NfdsT, timeout_ms) };
            if ret >= 0 {
                break ret as usize;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(NetError::Io(err));
            }
        };
        let ready = self.fds.iter().zip(&self.tokens).filter(|(p, _)| p.revents != 0);
        out.extend(ready.take(n).map(|(p, &token)| Ready {
            token,
            readable: p.revents & (POLLIN | POLLHUP) != 0,
            writable: p.revents & POLLOUT != 0,
            error: p.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
        }));
        Ok(n)
    }
}

/// A socket-pair waker: any thread can nudge the poll loop out of `poll`
/// by writing a byte to one end, while the loop polls the other. Cloning
/// shares the same pair.
#[derive(Debug, Clone)]
pub struct WakeHandle {
    /// (polled end, written end), both nonblocking.
    pair: Arc<(UnixStream, UnixStream)>,
}

impl WakeHandle {
    /// Creates the socket pair (nonblocking, close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates the `socketpair` / `fcntl` errno.
    pub fn new() -> Result<WakeHandle, NetError> {
        let (polled, written) = UnixStream::pair()?;
        polled.set_nonblocking(true)?;
        written.set_nonblocking(true)?;
        Ok(WakeHandle { pair: Arc::new((polled, written)) })
    }

    /// Wakes the poll loop. A full buffer (`WouldBlock`) is fine — the
    /// loop is already guaranteed to wake.
    pub fn wake(&self) {
        let _ = (&self.pair.1).write(&[1]);
    }

    /// Reads every pending byte so the next `wake` is visible again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.pair.0).read(&mut buf), Ok(n) if n > 0) {}
    }
}

impl AsRawFd for WakeHandle {
    /// Lets a `WakeHandle` be registered with a [`Poller`] directly,
    /// without ever exposing its raw fd to callers.
    fn as_raw_fd(&self) -> RawFd {
        self.pair.0.as_raw_fd()
    }
}

/// Best-effort bump of `RLIMIT_NOFILE` to at least `want` descriptors (the
/// 256-peer soak and net bench need ~4 fds per spoke). Never fails the
/// caller: if the hard limit forbids it, the subsequent `socket()` calls
/// will report the real error with full context.
pub fn raise_nofile_limit(want: u64) {
    let mut lim = Rlimit { rlim_cur: 0, rlim_max: 0 };
    // SAFETY: `lim` is a live, writable local `Rlimit` for the call.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return;
    }
    if lim.rlim_cur >= want {
        return;
    }
    let new = Rlimit { rlim_cur: want.min(lim.rlim_max), rlim_max: lim.rlim_max };
    // SAFETY: `new` is a live, readable local `Rlimit` for the call.
    let _ = unsafe { setrlimit(RLIMIT_NOFILE, &new) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_and_drains() {
        let mut poller = Poller::new();
        let waker = WakeHandle::new().unwrap();
        poller.add(&waker, 42, Interest::READ).unwrap();

        let mut out = Vec::new();
        // Nothing pending: times out.
        assert_eq!(poller.wait(&mut out, Some(Duration::from_millis(1))).unwrap(), 0);

        waker.wake();
        waker.wake();
        let n = poller.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(out[0].token, 42);
        assert!(out[0].readable);

        // Drained: quiet again (level-triggered would re-report otherwise).
        waker.drain();
        out.clear();
        assert_eq!(poller.wait(&mut out, Some(Duration::from_millis(1))).unwrap(), 0);
    }

    #[test]
    fn socket_readability_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new();
        poller.add(&server, 7, Interest::READ).unwrap();

        client.write_all(b"x").unwrap();
        let mut out = Vec::new();
        poller.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert!(out.iter().any(|r| r.token == 7 && r.readable));

        // Adding write interest reports writable immediately (empty buffer).
        poller.modify(&server, 7, Interest::READ_WRITE).unwrap();
        out.clear();
        poller.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert!(out.iter().any(|r| r.token == 7 && r.writable));

        poller.delete(&server);
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut poller = Poller::new();
        poller.add(&server, 1, Interest::READ).unwrap();
        drop(client);
        let mut out = Vec::new();
        poller.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert!(out.iter().any(|r| r.token == 1 && r.readable), "{out:?}");
    }

    /// The table keys entries by descriptor number, and a closed socket's
    /// number is the next one handed out. A deregistered socket must leave
    /// nothing behind for its successor to be reported under. Another
    /// test's thread may take the freed number first, so the check retries
    /// until the new socket really reuses it.
    #[test]
    fn a_reused_fd_number_reports_only_its_new_token() {
        for _ in 0..100 {
            let mut poller = Poller::new();
            let (a, _a_peer) = UnixStream::pair().unwrap();
            let number = a.as_raw_fd();
            poller.add(&a, 1, Interest::READ).unwrap();
            poller.delete(&a);
            drop(a);
            let (b, mut b_peer) = UnixStream::pair().unwrap();
            if b.as_raw_fd() != number {
                continue;
            }
            poller.add(&b, 2, Interest::READ).unwrap();
            b_peer.write_all(b"x").unwrap();
            let mut out = Vec::new();
            poller.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
            let tokens: Vec<u64> = out.iter().map(|r| r.token).collect();
            assert_eq!(tokens, vec![2]);
            return;
        }
        panic!("a freed descriptor number was never reused");
    }

    /// A descriptor closed under the table reports `POLLNVAL`, which must
    /// read as an error and never as bare readability. Another test's
    /// thread may take the freed number before `poll` runs (the entry then
    /// reports that socket), so the check retries until `POLLNVAL` shows.
    #[test]
    fn a_closed_fd_reports_error_through_pollnval_never_readable_alone() {
        for _ in 0..100 {
            let mut poller = Poller::new();
            let (a, _peer) = UnixStream::pair().unwrap();
            poller.add(&a, 5, Interest::READ).unwrap();
            drop(a);
            let mut out = Vec::new();
            poller.wait(&mut out, Some(Duration::ZERO)).unwrap();
            if poller.fds[0].revents & POLLNVAL == 0 {
                continue;
            }
            assert_eq!(out.len(), 1, "{out:?}");
            assert!(out[0].token == 5 && out[0].error && !out[0].readable, "{out:?}");
            return;
        }
        panic!("a closed descriptor never reported POLLNVAL");
    }

    #[test]
    fn raise_nofile_limit_is_harmless() {
        raise_nofile_limit(64); // already above: no-op
        raise_nofile_limit(u64::MAX); // clamped to the hard limit
    }
}
