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
//!   against. Implementations exist for in-process channels
//!   ([`memory::MemoryHub`]), real TCP meshes (`reactor::ReactorMesh`, on
//!   every unix), and the virtual-time cluster simulator in the `sdso-sim`
//!   crate.
//! * [`wire`] — a small, dependency-free binary codec used by every message
//!   type in the workspace.
//! * [`frame`] — length-prefixed framing for stream transports.
//!
//! The original S-DSO system (West, Schwan, Tacic, Ahamad; ICDCS 1997) was
//! "directly layered onto sockets"; the reactor plays that role here — one
//! `poll(2)` loop per endpoint — while [`memory`] and the simulator make the
//! same protocol code testable and measurable deterministically.
//!
//! # Example
//!
//! ```
//! use sdso_net::{memory::MemoryHub, Endpoint, MsgClass, Payload};
//!
//! # fn main() -> Result<(), sdso_net::NetError> {
//! let mut eps = MemoryHub::new(2).into_endpoints();
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
//! ```

#![warn(missing_docs)]

mod endpoint;
mod error;
mod message;
mod metrics;
mod time;
mod transport;

pub mod deadline;
pub mod fault;
pub mod faulty;
pub mod frame;
pub mod memory;
pub mod pool;
#[cfg(unix)]
pub mod reactor;
#[cfg(unix)]
mod sys;
pub mod wire;

pub use deadline::{Backoff, DeadlineQueue};
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
