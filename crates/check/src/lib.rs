//! `sdso-check`: the S-DSO workspace's own static analysis and model
//! checking layer.
//!
//! Three engines (see `ARCHITECTURE.md` §6 and §11):
//!
//! * **lint** — a deny-by-default static pass over workspace source
//!   enforcing invariants neither the compiler nor clippy can see:
//!   audited FFI, fd ownership, and no blocking calls on the reactor
//!   event path. The last runs over a name-resolved workspace call graph
//!   (`callgraph`), so a blocking call reached *through* a helper in
//!   another file is reported where it is made. No panics on a replica's
//!   path, like host time in deterministic code, undocumented `unsafe`
//!   and catch-all arms over wire enums, is clippy's (the root
//!   `Cargo.toml`'s `[workspace.lints.clippy]`, `clippy.toml` and the
//!   runtime crates' `lib.rs` denies).
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
//! The workspace builds fully offline, so the lint is built on a small
//! purpose-made cleaner/scanner (`lexer`) rather than `syn`.

#![warn(missing_docs)]

pub mod allowlist;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod lint;
pub mod race;
pub mod rules;
pub mod scenarios;

pub use diag::Diagnostic;
pub use lint::{run as run_lint, LintReport};
