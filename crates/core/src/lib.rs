//! # S-DSO — semantic distributed shared objects
//!
//! A reproduction of the S(emantic)-DSO system from *"Exploiting Temporal
//! and Spatial Constraints on Distributed Shared Objects"* (West, Schwan,
//! Tacic, Ahamad; ICDCS 1997).
//!
//! S-DSO is a distributed-shared-object runtime in which the *application*
//! tells the consistency layer, via a user-written semantic function
//! ([`SFunction`]), **when** it must next exchange updates and **with whom**
//! — the paper's *temporal* and *spatial* consistency constraints. The
//! runtime maintains, per process:
//!
//! * a replicated [`ObjectStore`] of byte-array objects registered once with
//!   [`SdsoRuntime::share`];
//! * a [`LogicalClock`] advanced one tick per object modification;
//! * an [`ExchangeList`] of `(exchange-time, process)` pairs (paper Fig. 2);
//! * a [`SlottedBuffer`] of per-peer outstanding [`Diff`]s (paper Fig. 3).
//!
//! [`SdsoRuntime::exchange`] implements the paper's Fig. 4 pseudo-code: it
//! ships `(data, SYNC)` pairs to the peers that are due, blocks until they
//! reciprocate, applies their updates, and re-runs the s-function to
//! schedule the next rendezvous. The lookahead protocols BSYNC, MSYNC and
//! MSYNC2 of the paper are all instantiations of this engine with different
//! s-functions (see the `sdso-protocols` and `sdso-game` crates).
//!
//! # Conflict granularity
//!
//! When two processes write the *same object* in the same logical interval,
//! every replica resolves the race identically by whole-object
//! last-writer-wins on [`Version`]'s total order (time, then writer id).
//! The convergence unit is therefore the object: model each independently
//! written unit as its own object — exactly as the paper's game does with
//! one object per grid block — and races stay well-defined. The paper
//! itself leaves data races to "application-specific methods"; the tank
//! game additionally *avoids* them with its lowest-ID-blocks arbitration
//! rule.
//!
//! # Example
//!
//! Two processes, each writing its own object, rendezvousing once
//! (BSYNC-style every-tick schedule):
//!
//! ```
//! use sdso_core::{DsoConfig, EveryTick, ObjectId, SdsoRuntime, SendMode};
//! use sdso_sim::{NetworkModel, SimCluster};
//!
//! # fn main() -> Result<(), sdso_sim::SimError> {
//! let outcome = SimCluster::new(2, NetworkModel::instant()).run(|ep| {
//!     let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
//!     rt.share(ObjectId(0), vec![0u8; 1])?;
//!     rt.share(ObjectId(1), vec![0u8; 1])?;
//!     rt.init_schedule(&mut EveryTick)?;
//!     let me = rt.node_id();
//!     rt.write(ObjectId(u32::from(me)), 0, &[me as u8 + 1])?;
//!     rt.exchange(SendMode::Multicast, &mut EveryTick)?;
//!     Ok((rt.read(ObjectId(0))?[0], rt.read(ObjectId(1))?[0]))
//! })?;
//! for seen in outcome.into_results()? {
//!     assert_eq!(seen, (1, 2)); // both writes visible
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Every enum match names its variants: a new wire message kind must fail
// clippy where it is matched, not fall into a catch-all arm.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
// Replay-critical: no host time outside tests. The banned calls and types
// are listed in the workspace's clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]
// A replica that panics stops serving its peers: no panic outside tests.
// An exception is an `#[expect(…, reason = "…")]` naming the invariant
// that keeps it from firing.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod clock;
mod codec;
mod config;
mod diff;
mod dirty;
mod error;
mod exchange_list;
mod membership;
mod metrics;
mod object;
mod router;
mod runtime;
mod session;
mod sfunction;
mod slotted_buffer;
mod store;
pub mod wire;
#[cfg(test)]
mod wound;

pub use clock::{LogicalClock, LogicalTime};
pub use config::{DsoConfig, RetryConfig, WireConfig};
pub use diff::Diff;
pub use dirty::DirtyRanges;
pub use error::DsoError;
pub use exchange_list::ExchangeList;
pub use membership::{Epoch, MemberError, MembershipPlan, MembershipView, ViewChange};
pub use metrics::DsoMetrics;
pub use object::{ObjectId, Version};
pub use router::{DiffRouter, RouteAll};
pub use runtime::{ExchangeReport, SdsoRuntime, SendMode};
pub use sdso_obs::{text_histogram_dump, Obs, ObsSet};
pub use sfunction::{EveryTick, Never, SFunction};
pub use slotted_buffer::SlottedBuffer;
pub use store::{ObjectStore, Replica};
