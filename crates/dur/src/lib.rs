//! Crash-fault tolerance for S-DSO: write-ahead logging and snapshot
//! recovery.
//!
//! The paper's exchange engine assumes processes never die; every
//! resilience layer so far (message faults in `sdso-net`, membership
//! churn in `sdso_core::membership`) kept that assumption. This crate
//! removes it:
//!
//! * [`CommitSink`] / [`Wal`] — a sync-on-commit byte sink and a
//!   length+CRC framed write-ahead log over it. Opening a log scans for a
//!   torn tail (a crash mid-append) and truncates back to the last whole
//!   record, so recovery always sees a *prefix* of the committed history.
//! * [`DurRecord`] / [`SnapshotImage`] / [`DurStore`] — the typed record
//!   set a process journals (identity, tick frontiers, object writes,
//!   application state), periodic snapshots that bound replay length, and
//!   the store that composes the two into a [`RecoveryImage`].
//! * [`crash`] — helpers that turn a `FaultPlan`'s crash schedule into
//!   the membership plan drivers replay it under (crash = abrupt leave,
//!   restart = late join with WAL-carried identity).
//!
//! Lock managers are not journalled: entry consistency restarts its lock
//! state at every view change (see `EntryConsistency::apply_view_change`),
//! so a crash leaves no lock state to recover.
//!
//! Everything is deterministic: sinks can be in-memory ([`MemSink`]) for
//! simulator runs and proptests, and the same fault plan replays
//! bit-identically.

#![warn(missing_docs)]

pub mod commit;
pub mod crash;
pub mod record;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use commit::{CommitFile, CommitSink, MemSink};
pub use crash::{crash_membership_plan, validate_crash_plan};
pub use record::DurRecord;
pub use snapshot::{SnapObject, SnapshotImage};
pub use store::{DurStore, RecoveryImage};
pub use wal::{crc32, Wal};
