//! `sdso-check`: the S-DSO workspace's model checking layer.
//!
//! Two engines (see `ARCHITECTURE.md` §6 and §11):
//!
//! * **explore** — a bounded systematic interleaving checker: protocol
//!   scenarios run under the virtual-time scheduler's delivery-choice
//!   oracle while a DFS enumerates message-delivery orders and asserts
//!   protocol invariants after every schedule.
//! * **race** — a vector-clock happens-before checker (`race`) replayed
//!   over `sdso-obs` flight-recorder event logs: send/recv, lock, and
//!   thread spawn/join events build the partial order, and any pair of
//!   conflicting object accesses not ordered by it is reported as a
//!   race, with both access sites.
//!
//! The workspace's static rules are the compiler's: the root
//! `Cargo.toml`'s `[workspace.lints.clippy]`, `clippy.toml`'s bans on
//! host time, blocking calls and raw fds, and the crate-wide denies in
//! each runtime crate's `lib.rs`.

#![warn(missing_docs)]

pub mod race;
pub mod scenarios;
