//! Direct timed calls into single layers' public functions, on the
//! workload's block size: host nanoseconds per call, outside any cluster.
//! They say what a unit of a layer's work costs; the traced cells say how
//! much of a tick that layer is.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use sdso_core::{Diff, DirtyRanges, DsoError};
use sdso_game::{Block, BlockPort, Direction, GameCore, Pos, Scenario};
use sdso_net::frame::{append_frame, decode_frame_at};
use sdso_net::Payload;

use crate::report::Metrics;
use crate::workload::Workload;

const GAME_TICKS: u64 = 20_000;
const DIFF_CALLS: u64 = 100_000;
const FRAME_CALLS: u64 = 100_000;

/// The world as encoded blocks in memory: what the runtime's port does
/// (decode on read, encode on write) without the runtime.
struct MemPort<'a> {
    scenario: &'a Scenario,
    cells: Vec<Vec<u8>>,
}

impl BlockPort for MemPort<'_> {
    fn read_block(&self, pos: Pos) -> Result<Block, DsoError> {
        let bytes = &self.cells[self.scenario.grid.object_at(pos).0 as usize];
        Block::decode(bytes)
            .ok_or_else(|| DsoError::ProtocolViolation(format!("corrupt block at {pos:?}")))
    }
    fn write_block(&mut self, pos: Pos, block: Block) -> Result<(), DsoError> {
        self.cells[self.scenario.grid.object_at(pos).0 as usize] =
            block.encode(self.scenario.block_bytes);
        Ok(())
    }
}

fn ns_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `game.tick_ns`, `core.diff_ns_per_block`, `net.frame_ns_per_msg`.
pub fn direct_timings(workload: Workload, seed: u64, out: &mut Metrics) {
    let scenario = workload.scenario(seed, GAME_TICKS);
    let bytes = scenario.block_bytes;

    // One team's game logic over the initial world; the other tanks stand
    // still, so this is the game's own compute with nothing to wait for.
    let mut port = MemPort {
        scenario: &scenario,
        cells: scenario.initial_world().iter().map(|b| b.encode(bytes)).collect(),
    };
    let mut core = GameCore::with_flags(scenario.clone(), 0, true, false);
    let tick_ns = ns_per_call(GAME_TICKS, || {
        black_box(core.run_tick(&mut port)).expect("the in-memory port cannot fail");
    });
    out.insert("game.tick_ns".to_owned(), tick_ns);

    // The diff a tank driving onto an empty block produces, and its
    // application on the receiving replica.
    let old = Block::Empty.encode(bytes);
    let new = Block::Tank { team: 1, tank: 0, hp: 2, facing: Direction::North, fired: None }
        .encode(bytes);
    let mut dirty = DirtyRanges::new();
    dirty.record(0, bytes as u32);
    let mut replica = old.clone();
    let diff_ns = ns_per_call(DIFF_CALLS, || {
        let diff = Diff::between_ranges(black_box(&old), black_box(&new), &dirty);
        diff.apply(black_box(&mut replica)).expect("the diff fits its own object");
    });
    out.insert("core.diff_ns_per_block".to_owned(), diff_ns);

    // Framing one block-sized data message and decoding it again.
    let payload = Payload::data(new);
    let mut buf = BytesMut::with_capacity(bytes + 64);
    let frame_ns = ns_per_call(FRAME_CALLS, || {
        buf.clear();
        append_frame(&mut buf, 0, black_box(&payload));
        let mut pos = 0;
        black_box(decode_frame_at(&buf, &mut pos)).expect("a frame it just wrote");
    });
    out.insert("net.frame_ns_per_msg".to_owned(), frame_ns);
}
