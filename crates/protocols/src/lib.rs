//! Consistency protocols over the S-DSO runtime.
//!
//! The paper evaluates four protocols on its distributed game:
//!
//! * **BSYNC / MSYNC / MSYNC2** — the *lookahead* family: synchronous
//!   rendezvous driven by application-supplied s-functions. All three share
//!   one engine, [`Lookahead`]; they differ only in the s-function (BSYNC:
//!   everyone every tick; MSYNC: row/column alignment lookahead; MSYNC2:
//!   alignment **and** within sensing range — the game-specific functions
//!   live in the `sdso-game` crate).
//! * **Entry consistency** — the lock-based baseline
//!   ([`EntryConsistency`]): per-object distributed locks with statically
//!   placed lock managers and pull-based update retrieval, following the
//!   Midway design as described in the paper.
//!
//! Two further protocols the paper discusses qualitatively are implemented
//! as extensions for ablation studies:
//!
//! * **Lazy release consistency** ([`Lrc`]) — locks without object
//!   association; updates travel as vector-timestamped write notices.
//! * **Causal memory** ([`CausalMemory`]) — push-based causal broadcast.

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

mod causal;
mod entry;
mod lookahead;
mod lrc;
mod race;
mod vector_clock;

pub use causal::{CausalMemory, CausalMetrics};
pub use entry::{EcMetrics, EntryConsistency, LockMode, LockRequest};
pub use lookahead::Lookahead;
pub use lrc::{Lrc, LrcMetrics};
pub use race::{contention_winner, yields_to};
pub use vector_clock::{CausalOrder, VectorClock};
