//! Minimal POSIX `poll(2)` and socket bindings for the reactor transport.
//!
//! The workspace builds with no external crates (every dependency is a
//! vendored shim), so instead of `mio` or `libc` this module declares the
//! four C library entry points the reactor needs directly: `std` already
//! links the platform C library, and `poll`/`getrlimit`/`setrlimit`/
//! `setsockopt` are POSIX, with one ABI on every unix up to the constants
//! `cfg`'d below. Everything is wrapped in a safe type ([`Poller`]) or
//! function ([`stream_pair`]) immediately; no raw fd escapes this module.
//!
//! Non-unix builds compile this module away (`#[cfg(unix)]` at the `mod`
//! site), and with it the reactor.
//!
//! ## Safety audit
//!
//! This is the workspace's only FFI module. The test
//! `every_foreign_function_has_an_audit_row` requires this table to name
//! every foreign function the `extern` block declares, with its soundness
//! argument, and `clippy::undocumented_unsafe_blocks` a `// SAFETY:`
//! comment at each `unsafe` use.
//!
//! | entry point  | contract                                                |
//! |--------------|---------------------------------------------------------|
//! | `poll`       | `fds` points at `nfds` live, writable `PollFd` records  |
//! | `getrlimit`  | `rlim` points at a live, writable `Rlimit`              |
//! | `setrlimit`  | `rlim` points at a live, readable `Rlimit`              |
//! | `setsockopt` | `socket` is open; `value` points at `len` readable bytes |
//!
//! The poll table holds descriptor *numbers*, not owners. A socket closed
//! while still registered leaves an entry that reports `POLLNVAL` or, once
//! the number is reused, another socket's readiness under the old token.
//! So the reactor deletes every registration before it closes the socket,
//! and [`Poller::add`] refuses a number that is still registered: a missed
//! delete fails at the next add instead of misrouting readiness.

// The FFI boundary: the one file of the crate whose signatures name raw
// fds. Calls that read a descriptor number carry their own `#[expect]`,
// so a blocking call added here still fails clippy.
#![expect(clippy::disallowed_types, reason = "the FFI boundary: `poll` takes descriptor numbers")]

use std::ffi::{c_int, c_short, c_void};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
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

/// `SOL_SOCKET` and `SO_SNDBUF`: 1 and 7 on Linux, `0xffff` and `0x1001`
/// on macOS and the BSDs.
#[cfg(target_os = "linux")]
const SOL_SOCKET: c_int = 1;
#[cfg(target_os = "linux")]
const SO_SNDBUF: c_int = 7;
#[cfg(not(target_os = "linux"))]
const SOL_SOCKET: c_int = 0xffff;
#[cfg(not(target_os = "linux"))]
const SO_SNDBUF: c_int = 0x1001;

/// `socklen_t`: 32 bits on every unix.
type SocklenT = u32;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn setsockopt(
        socket: c_int,
        level: c_int,
        name: c_int,
        value: *const c_void,
        len: SocklenT,
    ) -> c_int;
}

/// The send buffer each end of a [`stream_pair`] asks for. A Unix-domain
/// stream holds no more unread bytes than its sender's `SO_SNDBUF`, whose
/// default (~208 KiB on Linux) is a few dozen 4 KiB frames; loopback TCP
/// grows toward 4 MiB by itself. The kernel caps the request at its
/// `wmem_max`.
const STREAM_SNDBUF: c_int = 4 << 20;

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
    #[expect(
        clippy::disallowed_methods,
        reason = "the FFI boundary: `poll` takes descriptor numbers"
    )]
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the FFI boundary: `poll` takes descriptor numbers"
    )]
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the FFI boundary: `poll` takes descriptor numbers"
    )]
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

/// A connected pair of Unix-domain stream sockets, each end asking for a
/// [`STREAM_SNDBUF`] send buffer: one reactor link between two endpoints
/// of this process.
///
/// # Errors
///
/// Propagates `socketpair(2)` and `setsockopt(2)` errors.
#[expect(
    clippy::disallowed_methods,
    reason = "the FFI boundary: `setsockopt` takes a descriptor number"
)]
pub fn stream_pair() -> Result<(UnixStream, UnixStream), NetError> {
    let (a, b) = UnixStream::pair()?;
    let (bytes, len) = (STREAM_SNDBUF, std::mem::size_of::<c_int>() as SocklenT);
    for end in [&a, &b] {
        // SAFETY: `end` is borrowed for the call, so its descriptor is open;
        // `value` points at the live local `bytes`, `len` bytes long.
        let ret = unsafe {
            setsockopt(end.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, (&raw const bytes).cast(), len)
        };
        if ret != 0 {
            return Err(NetError::Io(std::io::Error::last_os_error()));
        }
    }
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn socket_readability_and_interest_changes() {
        let (server, mut client) = UnixStream::pair().unwrap();
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
        let (server, client) = UnixStream::pair().unwrap();
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

    /// The `## Safety audit` table in the module docs names every `fn`
    /// the `extern "C"` block declares: a binding added without its
    /// soundness argument fails here.
    #[test]
    fn every_foreign_function_has_an_audit_row() {
        let src = include_str!("sys.rs");
        let rows: Vec<&str> = src.lines().filter(|l| l.starts_with("//! |")).collect();
        let (_, block) = src.split_once("\nextern \"C\" {\n").expect("an extern block");
        let (block, _) = block.split_once("\n}\n").expect("the extern block closes");
        let foreign: Vec<&str> = block
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("fn "))
            .filter_map(|l| l.split('(').next())
            .collect();
        assert!(foreign.contains(&"poll"), "parsed no `poll` from the extern block: {foreign:?}");
        for name in foreign {
            let cell = format!("`{name}`");
            assert!(
                rows.iter().any(|row| row.contains(&cell)),
                "foreign function {cell} has no row in the `## Safety audit` table"
            );
        }
    }

    #[test]
    fn raise_nofile_limit_is_harmless() {
        raise_nofile_limit(64); // already above: no-op
        raise_nofile_limit(u64::MAX); // clamped to the hard limit
    }
}
