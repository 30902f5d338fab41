//! The distributed multi-player tank game — the S-DSO paper's evaluation
//! application.
//!
//! "The objective of this game is much like Capture the Flag. A player must
//! maneuver her team of tanks to some known goal as quickly as possible,
//! while picking up bonus items and avoiding bombs and enemy tanks along
//! the way" (paper §2.1). The shared environment is a 32×24 grid of blocks,
//! each block one S-DSO object; each process runs one team.
//!
//! The game exhibits all four properties the paper targets: poor and
//! unpredictable locality (tanks roam the grid), symmetric data access
//! (every process reads and writes), dynamically changing sharing (which
//! blocks matter depends on where the tanks are), and potential data races
//! (two tanks may try to enter one block; the lowest-ID-blocks rule
//! arbitrates).
//!
//! # Structure
//!
//! * [`world`] — grid geometry, positions, directions;
//! * [`block`] — block contents and their object encoding;
//! * [`scenario`] — run configuration and deterministic world generation;
//! * [`ai`] — the per-tank decision function;
//! * [`sfuncs`] — the MSYNC/MSYNC2 semantic functions (BSYNC reuses
//!   [`sdso_core::EveryTick`]);
//! * [`shard`] — the region-sharded MSYNC2-SHARD s-function and interest
//!   router (the 64/256-node scaling extension over `sdso-shard`);
//! * [`driver`] — the game state and the one node driver producing
//!   [`NodeStats`]: one loop for every protocol, played under a
//!   [`RunPlan`] (players leave and join mid-game through epoch-numbered
//!   view changes; processes fail-stop and recover from their journal,
//!   rejoining with pre-crash identity and state; tracing);
//! * [`mod@render`] — ASCII display of (possibly stale) world replicas.
//!
//! # Example
//!
//! Running a two-process BSYNC game over in-process channels:
//!
//! ```
//! use sdso_game::{run_node, Protocol, Scenario};
//! use sdso_net::memory::MemoryHub;
//!
//! # fn main() -> Result<(), sdso_core::DsoError> {
//! let scenario = Scenario::paper(2, 1).with_ticks(10);
//! let mut handles = Vec::new();
//! for ep in MemoryHub::new(2).into_endpoints() {
//!     let s = scenario.clone();
//!     handles.push(std::thread::spawn(move || run_node(ep, &s, Protocol::Bsync)));
//! }
//! for h in handles {
//!     let stats = h.join().unwrap()?;
//!     assert_eq!(stats.ticks, 10);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ai;
pub mod block;
pub mod driver;
mod durable;
pub mod render;
pub mod scenario;
pub mod sfuncs;
pub mod shard;
pub mod world;

pub use ai::{decide, Action, WorldView};
pub use block::{Block, FireRecord};
pub use driver::{
    ec_lockset, run_node, run_node_with, BlockPort, GameCore, NodeStats, Protocol, RunPlan,
    TankState,
};
pub use render::{render, scoreboard, RenderOptions};
pub use scenario::{Scenario, GOAL_POINTS};
pub use sfuncs::{team_positions, Msync, Msync2};
pub use shard::{interest_radius, shard_lattice, ShardMsync2, ShardRouter, GROUP_EVERY};
pub use world::{Direction, Grid, Pos};
