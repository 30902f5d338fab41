//! Experiment harness for the S-DSO reproduction.
//!
//! Ties together the virtual-time cluster (`sdso-sim`), the tank game
//! (`sdso-game`) and the consistency protocols (`sdso-protocols`) into
//! runnable experiments that regenerate every figure of the paper's
//! evaluation section:
//!
//! | Figure | Metric | Function |
//! |---|---|---|
//! | Fig. 5 | normalised execution time | [`Sweep::figure5`] |
//! | Fig. 6 | total messages | [`Sweep::figure6`] |
//! | Fig. 7 | data messages | [`Sweep::figure7`] |
//! | Fig. 8 | protocol overhead % | [`Sweep::figure8`] |
//! | Ext. A | data-size sweep | [`Sweep::ext_data_size`] |
//! | Ext. B | blocking breakdown | [`Sweep::ext_blocking`] |
//! | Ext. C | diff-merging ablation | [`Sweep::ext_diff_merging`] |
//! | Ext. D | LRC + causal comparison | [`Sweep::ext_protocols`] |
//! | Ext. E, G | a plan's faults, churn and crashes | [`plan_table`] |
//! | Ext. F | sharded vs full-mesh traffic | [`shard_table`] |
//! | Ext. H | wire diet across link speeds | [`wire_sweep`] |
//!
//! # Example
//!
//! ```no_run
//! use sdso_harness::Sweep;
//!
//! # fn main() -> Result<(), sdso_sim::SimError> {
//! for table in Sweep::paper().figure5()? {
//!     println!("{table}");
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod experiment;
mod figures;
mod plans;
mod shard;
mod table;
#[cfg(test)]
mod tcp;
pub mod transports;
mod wire;

pub use experiment::{
    converged, converged_in, mean_of, run_experiment, run_planned, run_seeds, RunSummary,
};
pub use figures::Sweep;
pub use plans::{
    chaos_plan, chaos_retry_config, default_churn_plan, default_crash_plan, plan_table,
    restarts_kept_their_state,
};
pub use shard::{
    run_shard_comparison, run_shard_window, shard_table, ShardComparison, ShardWindow,
};
pub use table::Table;
pub use wire::{wire_sweep, wire_table, WireCell};
