//! # sdso-shard — spatial sharding and interest management for S-DSO
//!
//! The paper exploits its spatial constraint only *within* a full mesh:
//! every process holds a slot for every other process, so per-node
//! traffic grows with the cluster even when the s-function rarely
//! schedules distant peers. This crate turns the spatial constraint into
//! a scaling mechanism:
//!
//! * [`RegionLattice`] partitions the grid into rectangular regions (a
//!   total partition — every cell belongs to exactly one region);
//! * [`InterestSet`] / [`SubscriptionManager`] track which regions each
//!   node's sensing range intersects, growing monotonically within a
//!   membership epoch and resetting at view-change barriers;
//! * [`RegionGroups`] derives a per-region exchange group (a
//!   [`sdso_core::MembershipView`] scope) from the global view, merging
//!   overlapping per-group schedules through
//!   [`sdso_core::ExchangeList::schedule_min`] so boundary-straddling
//!   peers rendezvous once;
//! * [`HandoffRecord`] / [`HandoffLog`] couple the two cells a
//!   boundary-crossing write pair touches, so a crossing is delivered to
//!   every interested peer whole — no lost and no duplicated updates;
//! * [`InterestRouter`] assembles these into a
//!   [`sdso_core::DiffRouter`]: live multicast exchanges ship only the
//!   objects inside each peer's interest set, turning per-node traffic
//!   into O(interest set) instead of O(cluster x grid).
//!
//! Correctness does not rest on interest precision: a suppressed diff
//! stays merged in the destination's slot and flushes at the next
//! broadcast exchange (epoch barriers, the terminal sync), so final
//! worlds are bit-identical with and without sharding. The crate is
//! game-agnostic — it never decodes object bodies; the game layer feeds
//! it positions (`sdso-game`'s region-aware driver) and the harness
//! holds the traffic ratio (`crates/harness/src/shard.rs`).

#![warn(missing_docs)]

pub mod groups;
pub mod handoff;
pub mod interest;
pub mod lattice;
pub mod router;

pub use groups::RegionGroups;
pub use handoff::{HandoffLog, HandoffRecord};
pub use interest::{InterestSet, SubscriptionManager};
pub use lattice::{RegionId, RegionLattice, DEFAULT_REGION_EDGE};
pub use router::{InterestRouter, HANDOFF_WINDOW_TICKS};
