//! Deterministic virtual-time cluster simulator for S-DSO protocol
//! evaluation.
//!
//! The paper evaluated its protocols on 16 SGI Indy workstations connected by
//! switched 10 Mbps Ethernet. This crate substitutes that testbed with a
//! *virtual-time* cluster: each simulated node runs the **real** protocol
//! code on its own OS thread, but every time-advancing operation (`send`,
//! `recv`, `advance`) is mediated by a conservative scheduler that executes
//! nodes in global virtual-time order. Message delivery times follow a
//! configurable [`NetworkModel`] (per-message CPU cost, link bandwidth, wire
//! latency), so results reflect the modelled network rather than host speed —
//! and every run is bit-for-bit deterministic.
//!
//! # Example
//!
//! ```
//! use sdso_net::{Endpoint, Payload, SimSpan};
//! use sdso_sim::{NetworkModel, SimCluster};
//!
//! # fn main() -> Result<(), sdso_sim::SimError> {
//! let outcome = SimCluster::new(2, NetworkModel::paper_testbed()).run(|mut ep| {
//!     if ep.node_id() == 0 {
//!         ep.send(1, Payload::data(vec![0u8; 2048]))?;
//!         Ok(ep.now())
//!     } else {
//!         let _ = ep.recv()?;
//!         Ok(ep.now())
//!     }
//! })?;
//! // The receiver's clock reflects transmission + latency of a 2 KiB frame.
//! let t1 = outcome.nodes[1].result.as_ref().unwrap();
//! assert!(t1.as_micros() > 2_000);
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

mod cluster;
mod endpoint;
mod error;
pub mod explore;
mod model;
mod scheduler;

pub use cluster::{ClusterOutcome, NodeOutcome, SimCluster};
pub use endpoint::SimEndpoint;
pub use error::SimError;
pub use explore::{
    Candidate, ChoicePoint, DeliveryOracle, ExploreReport, Explorer, ReplayOracle, Schedule,
    Violation,
};
pub use model::NetworkModel;
pub use sdso_net::{FaultPlan, Partition};
