//! Message transport substrate for the S-DSO distributed shared object system.
//!
//! This crate provides everything the consistency layers need to talk to each
//! other, without committing to a particular medium:
//!
//! * [`Payload`] / [`Incoming`] — the unit of exchange, tagged with a
//!   [`MsgClass`] so that evaluation harnesses can count control and data
//!   messages separately (the paper's Figures 6 and 7 plot exactly that
//!   split).
//! * [`Endpoint`] — the transport abstraction all protocols are written
//!   against. Two implementations exist: real-socket meshes
//!   (`reactor::ReactorMesh`, on every unix: one Unix-domain socket pair per
//!   link, all in one process) and the virtual-time cluster simulator in the
//!   `sdso-sim` crate.
//! * [`wire`] — a small, dependency-free binary codec used by every message
//!   type in the workspace.
//! * [`frame`] — length-prefixed framing for stream transports.
//!
//! The original S-DSO system (West, Schwan, Tacic, Ahamad; ICDCS 1997) was
//! "directly layered onto sockets"; the reactor plays that role here — one
//! `poll(2)` loop per endpoint — while the simulator models the paper's
//! testbed in virtual time, which makes the same protocol code testable and
//! measurable deterministically.
//!
//! # Example
//!
//! ```
//! # #[cfg(unix)]
//! # fn main() -> Result<(), sdso_net::NetError> {
//! use sdso_net::{reactor::ReactorMesh, Endpoint, MsgClass, Payload};
//!
//! let mut eps = ReactorMesh::local(2)?;
//! let mut b = eps.pop().unwrap();
//! let mut a = eps.pop().unwrap();
//!
//! a.send(1, Payload::control(b"hello".as_ref()))?;
//! let msg = b.recv()?;
//! assert_eq!(msg.from, 0);
//! assert_eq!(&msg.payload.bytes[..], b"hello");
//! assert_eq!(msg.payload.class, MsgClass::Control);
//! # Ok(())
//! # }
//! # #[cfg(not(unix))]
//! # fn main() {}
//! ```

#![warn(missing_docs)]
// Every enum match names its variants: a new wire message kind must fail
// clippy where it is matched, not fall into a catch-all arm.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
// Outside tests: no host time (fault plans and `SimInstant` are
// replay-critical), no blocking call (a reactor turn blocks only in
// `poll`) and no raw fd outside `sys.rs`. The banned calls and types are
// listed in the workspace's clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
// A replica that panics stops serving its peers: no panic outside tests.
// An exception is an `#[expect(…, reason = "…")]` naming the invariant
// that keeps it from firing.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod endpoint;
mod error;
mod message;
mod metrics;
mod time;
mod transport;

pub mod fault;
pub mod faulty;
pub mod frame;
pub mod pool;
#[cfg(unix)]
pub mod reactor;
#[cfg(unix)]
mod sys;
pub mod wire;

pub use endpoint::{Endpoint, NodeId, PeerEvent};
pub use error::NetError;
pub use fault::{CrashEvent, DetRng, FaultInjector, FaultPlan, Partition};
pub use faulty::FaultyEndpoint;
pub use message::{Incoming, MsgClass, Payload};
pub use metrics::{ClassCounters, NetMetrics, NetMetricsSnapshot};
pub use time::{SimInstant, SimSpan};
pub use transport::TransportKind;

// Observability vocabulary, re-exported so transports implementing
// [`Endpoint::attach_recorder`] need not depend on `sdso-obs` directly.
pub use sdso_obs::{EventKind, EventRecord, Recorder, TraceConfig, TraceMode};

/// The guard from a `Mutex::lock` or `Condvar::wait`, even when another
/// thread panicked while holding the lock.
///
/// A panic on one thread must not cascade into every thread that shares
/// the lock (the simulator still has to mark a panicked node done); the
/// panic itself is reported where its thread is joined.
pub fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
