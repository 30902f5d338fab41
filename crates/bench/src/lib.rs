//! The `experiments` binary, which regenerates the paper's figures and
//! the extension tables of EXPERIMENTS.md, and [`json`], the
//! dependency-free JSON reader/writer `benchmark/` parses its own result
//! lines with.
//!
//! Nothing here gates anything: each measured contract is an assertion in
//! the test file of the subsystem it guards (docs/ARCHITECTURE.md §9), and
//! everything timed is measured by `benchmark/`.

#![warn(missing_docs)]

pub mod json;

/// Every command the `experiments` binary accepts. `all` runs each command
/// listed before it, in this order; a command after it runs only when
/// named. The binary's dispatch and the docs check
/// (`tests/docs.rs`) both read this list.
pub const COMMANDS: &[&str] = &[
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ext-size",
    "ext-block",
    "ext-diff",
    "ext-proto",
    "churn",
    "crash",
    "wire",
    "ext-default",
    "all",
    "shard",
];
