//! The wire-diet sweep (EXPERIMENTS.md Ext. H): the paper's four protocols
//! on four generations of links, every cell played on the absolute v1 wire
//! format and again with [`WireConfig::compressed`].

use sdso_core::WireConfig;
use sdso_game::{Protocol, Scenario};
use sdso_sim::{NetworkModel, SimError};

use crate::experiment::{run_experiment, RunSummary};
use crate::table::Table;

/// One (link, protocol) cell of [`wire_sweep`]: a run and its compressed twin.
#[derive(Debug, Clone)]
pub struct WireCell {
    /// Link preset name (`10M`, `100M`, `1G`, `10G`).
    pub link: &'static str,
    /// The run on the absolute v1 format.
    pub v1: RunSummary,
    /// The same run with codec v2 and batch dedup on.
    pub v2: RunSummary,
}

/// Plays the sweep: 4 teams × 120 ticks on 256-byte blocks and
/// payload-sized frames. The paper's fixed 2048-byte frames would pad every
/// message to one size and hide the saving; fat blocks are the regime the
/// codec is for — the game rewrites whole blocks whose bytes barely change.
///
/// # Errors
///
/// Fails on the first run that fails.
pub fn wire_sweep() -> Result<Vec<WireCell>, SimError> {
    let mut scenario = Scenario::paper(4, 1).with_ticks(120).with_block_bytes(256);
    scenario.frame_wire_len = None;
    let links = [
        ("10M", NetworkModel::paper_testbed()),
        ("100M", NetworkModel::fast_ethernet()),
        ("1G", NetworkModel::modern_lan()),
        ("10G", NetworkModel::datacenter()),
    ];
    let mut cells = Vec::new();
    for (link, model) in links {
        for protocol in Protocol::PAPER {
            let run = |wire| run_experiment(&scenario.clone().with_wire(wire), protocol, model);
            cells.push(WireCell {
                link,
                v1: run(WireConfig::v1())?,
                v2: run(WireConfig::compressed())?,
            });
        }
    }
    Ok(cells)
}

/// Renders a sweep as Ext. H's table: cluster-wide wire bytes per tick and
/// mean per-process exchange time, v1 against v2.
pub fn wire_table(cells: &[WireCell]) -> Table {
    let mut table = Table::new(
        "Wire diet (4 teams, 120 ticks, 256-byte blocks)",
        &["link", "protocol", "v1_B/tick", "v2_B/tick", "saved_%", "v1_exch_us", "v2_exch_us"],
    );
    for cell in cells {
        let per_tick = |run: &RunSummary| run.total_bytes() as f64 / run.per_node[0].ticks as f64;
        let (v1, v2) = (per_tick(&cell.v1), per_tick(&cell.v2));
        table.push_row(vec![
            cell.link.to_owned(),
            cell.v1.protocol.name().to_owned(),
            format!("{v1:.1}"),
            format!("{v2:.1}"),
            format!("{:.1}", (1.0 - v2 / v1) * 100.0),
            format!("{:.0}", cell.v1.avg_exchange_secs() * 1e6),
            format!("{:.0}", cell.v2.avg_exchange_secs() * 1e6),
        ]);
    }
    table
}
