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
