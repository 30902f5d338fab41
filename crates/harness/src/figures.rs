//! Regeneration of every figure in the paper's evaluation, plus the
//! announced-future-work extensions.
//!
//! Each function sweeps the paper's parameter grid (protocols × process
//! counts × ranges), runs the game on the virtual-time cluster, and formats
//! the same series the paper plots. See `EXPERIMENTS.md` at the workspace
//! root for the paper-vs-measured discussion.
//!
//! Message and byte counts come from `NodeStats::net`, which the game
//! driver fills via `Endpoint::metrics_delta` — a per-run delta, not the
//! endpoint's lifetime-cumulative counters. This matters whenever an
//! endpoint outlives a single run (TCP meshes, warm-up traffic): figures
//! must only count the run they describe.

use sdso_core::WireConfig;
use sdso_game::{Protocol, Scenario};
use sdso_sim::{NetworkModel, SimError};

use crate::experiment::{mean_of, run_seeds, RunSummary};
use crate::table::Table;

/// Parameters of a figure sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Process counts on the x axis (the paper: 2, 4, 8, 16).
    pub process_counts: Vec<u16>,
    /// Sensing ranges (the paper: 1 = left graphs, 3 = right graphs).
    pub ranges: Vec<u16>,
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Iterations per process.
    pub ticks: u64,
    /// Placement seeds to average over.
    pub seeds: Vec<u64>,
    /// Network model.
    pub model: NetworkModel,
}

impl Sweep {
    /// The paper's evaluation grid.
    pub fn paper() -> Self {
        Sweep {
            process_counts: vec![2, 4, 8, 16],
            ranges: vec![1, 3],
            protocols: Protocol::PAPER.to_vec(),
            ticks: 200,
            seeds: vec![0x5D50_1997],
            model: NetworkModel::paper_testbed(),
        }
    }

    /// A reduced grid for fast smoke runs and tests.
    pub fn quick() -> Self {
        Sweep {
            process_counts: vec![2, 4],
            ranges: vec![1],
            protocols: Protocol::PAPER.to_vec(),
            ticks: 40,
            seeds: vec![0x5D50_1997],
            model: NetworkModel::paper_testbed(),
        }
    }

    /// One cell's scenario, on the paper's own frames: the figures count
    /// messages, and a negotiated v2 link sends half of them (under it BSYNC
    /// at 16 processes would undercut EC and reverse Fig. 6's observation).
    /// [`Sweep::ext_default_wire`] shows the library default beside it.
    fn scenario(&self, teams: u16, range: u16) -> Scenario {
        Scenario::paper(teams, range).with_ticks(self.ticks).with_wire(WireConfig::v1())
    }

    /// Runs the whole grid once per (protocol, n, range) cell and formats
    /// one table per range with `metric` as the cell value.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    fn sweep_metric(
        &self,
        title: &str,
        unit: &str,
        metric: impl Fn(&[RunSummary]) -> f64,
    ) -> Result<Vec<Table>, SimError> {
        let mut tables = Vec::new();
        for &range in &self.ranges {
            let mut table = Table::new(
                format!("{title} — range {range} ({unit})"),
                &std::iter::once("protocol")
                    .chain(self.process_counts.iter().map(|_| ""))
                    .collect::<Vec<_>>(),
            );
            // Fix headers: protocol + one column per process count.
            table.headers = std::iter::once("protocol".to_owned())
                .chain(self.process_counts.iter().map(|n| format!("n={n}")))
                .collect();
            for &protocol in &self.protocols {
                let mut row = vec![protocol.name().to_owned()];
                for &n in &self.process_counts {
                    let scenario = self.scenario(n, range);
                    let runs = run_seeds(&scenario, protocol, self.model, &self.seeds)?;
                    row.push(format!("{:.4}", metric(&runs)));
                }
                table.push_row(row);
            }
            tables.push(table);
        }
        Ok(tables)
    }

    /// **Figure 5**: average execution time per process normalised by the
    /// average number of object modifications (seconds), vs process count.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn figure5(&self) -> Result<Vec<Table>, SimError> {
        self.sweep_metric("Figure 5: normalised execution time", "s/modification", |runs| {
            mean_of(runs, RunSummary::avg_time_per_modification_secs)
        })
    }

    /// **Figure 6**: total number of messages (control + data).
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn figure6(&self) -> Result<Vec<Table>, SimError> {
        self.sweep_metric("Figure 6: total message transfers", "messages", |runs| {
            mean_of(runs, |r| r.total_messages() as f64)
        })
    }

    /// **Figure 7**: number of data messages only.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn figure7(&self) -> Result<Vec<Table>, SimError> {
        self.sweep_metric("Figure 7: data message transfers", "messages", |runs| {
            mean_of(runs, |r| r.data_messages() as f64)
        })
    }

    /// **Figure 8**: protocol overhead as a percentage of execution time
    /// (the paper shows range 1), split into its components.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn figure8(&self) -> Result<Vec<Table>, SimError> {
        let range = self.ranges[0];
        let mut table = Table::new(
            format!("Figure 8: protocol overhead as % of execution time — range {range}"),
            &["protocol", "n", "overhead %", "lock-wait %", "pull %", "exchange %"],
        );
        for &protocol in &self.protocols {
            for &n in &self.process_counts {
                let scenario = self.scenario(n, range);
                let runs = run_seeds(&scenario, protocol, self.model, &self.seeds)?;
                let exec = mean_of(&runs, RunSummary::avg_exec_secs);
                let pct = |x: f64| if exec > 0.0 { 100.0 * x / exec } else { 0.0 };
                table.push_row(vec![
                    protocol.name().to_owned(),
                    n.to_string(),
                    format!("{:.1}", 100.0 * mean_of(&runs, RunSummary::overhead_fraction)),
                    format!("{:.1}", pct(mean_of(&runs, RunSummary::avg_lock_wait_secs))),
                    format!("{:.1}", pct(mean_of(&runs, RunSummary::avg_pull_secs))),
                    format!("{:.1}", pct(mean_of(&runs, RunSummary::avg_exchange_secs))),
                ]);
            }
        }
        Ok(vec![table])
    }

    /// **Ext. A** (paper future-work item 2): the effect of data sizes —
    /// normalised time and bytes vs block payload size, with realistic
    /// (unpadded) frames so payload size matters.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn ext_data_size(&self, sizes: &[usize]) -> Result<Vec<Table>, SimError> {
        let range = self.ranges[0];
        let n = *self.process_counts.last().expect("non-empty sweep");
        let mut table = Table::new(
            format!("Ext. A: effect of object payload size — {n} processes, range {range}"),
            &["protocol", "block bytes", "s/modification", "total msgs", "MB on wire"],
        );
        for &protocol in &self.protocols {
            for &size in sizes {
                let mut scenario =
                    self.scenario(n, range).with_ticks(self.ticks).with_block_bytes(size);
                scenario.frame_wire_len = None; // let real sizes show
                let runs = run_seeds(&scenario, protocol, self.model, &self.seeds)?;
                table.push_row(vec![
                    protocol.name().to_owned(),
                    size.to_string(),
                    format!("{:.4}", mean_of(&runs, RunSummary::avg_time_per_modification_secs)),
                    format!("{:.0}", mean_of(&runs, |r| r.total_messages() as f64)),
                    format!("{:.2}", mean_of(&runs, |r| r.total_bytes() as f64 / 1e6)),
                ]);
            }
        }
        Ok(vec![table])
    }

    /// **Ext. B** (paper future-work item 1): blocking overhead of the
    /// lock-based protocol vs multicast-synchronisation overhead of the
    /// lookahead schemes.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn ext_blocking(&self) -> Result<Vec<Table>, SimError> {
        let range = self.ranges[0];
        let mut table = Table::new(
            format!("Ext. B: blocking time breakdown — range {range}"),
            &["protocol", "n", "exec s", "blocked-in-recv s", "blocked %"],
        );
        for &protocol in &self.protocols {
            for &n in &self.process_counts {
                let scenario = self.scenario(n, range);
                let runs = run_seeds(&scenario, protocol, self.model, &self.seeds)?;
                let exec = mean_of(&runs, RunSummary::avg_exec_secs);
                let blocked = mean_of(&runs, RunSummary::avg_blocked_secs);
                table.push_row(vec![
                    protocol.name().to_owned(),
                    n.to_string(),
                    format!("{exec:.3}"),
                    format!("{blocked:.3}"),
                    format!("{:.1}", if exec > 0.0 { 100.0 * blocked / exec } else { 0.0 }),
                ]);
            }
        }
        Ok(vec![table])
    }

    /// **Ext. C**: the slotted buffer's diff merging on vs off.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn ext_diff_merging(&self) -> Result<Vec<Table>, SimError> {
        let range = self.ranges[0];
        let n = *self.process_counts.last().expect("non-empty sweep");
        let mut table = Table::new(
            format!("Ext. C: diff merging ablation — {n} processes, range {range}"),
            &["protocol", "merging", "total msgs", "data msgs", "MB on wire", "s/modification"],
        );
        for &protocol in &self.protocols {
            if protocol == Protocol::Entry {
                continue; // EC does not use the slotted buffer
            }
            for merge in [true, false] {
                let mut scenario = self.scenario(n, range);
                scenario.merge_diffs = merge;
                scenario.frame_wire_len = None; // show the real byte effect
                let runs = run_seeds(&scenario, protocol, self.model, &self.seeds)?;
                table.push_row(vec![
                    protocol.name().to_owned(),
                    if merge { "on" } else { "off" }.to_owned(),
                    format!("{:.0}", mean_of(&runs, |r| r.total_messages() as f64)),
                    format!("{:.0}", mean_of(&runs, |r| r.data_messages() as f64)),
                    format!("{:.2}", mean_of(&runs, |r| r.total_bytes() as f64 / 1e6)),
                    format!("{:.4}", mean_of(&runs, RunSummary::avg_time_per_modification_secs)),
                ]);
            }
        }
        Ok(vec![table])
    }

    /// **Ext. J**: the library-default wire (codec v2 negotiated, one frame
    /// per rendezvous) beside the paper's frames, over the sweep's process
    /// counts at its widest range: normalised time, and messages per process
    /// per tick.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn ext_default_wire(&self) -> Result<Vec<Table>, SimError> {
        let range = *self.ranges.last().expect("non-empty sweep");
        let headers: Vec<String> = ["protocol".to_owned(), "wire".to_owned()]
            .into_iter()
            .chain(self.process_counts.iter().map(|n| format!("n={n}")))
            .collect();
        let table =
            |what: &str| Table { title: what.to_owned(), headers: headers.clone(), rows: vec![] };
        let mut time = table(&format!(
            "Ext. J: normalised execution time, v1 vs default wire — range {range} \
             (s/modification)"
        ));
        let mut msgs = table(&format!(
            "Ext. J: messages per process per tick, v1 vs default wire — range {range}"
        ));
        for &protocol in &self.protocols {
            for (label, wire) in [("v1", WireConfig::v1()), ("default", WireConfig::default())] {
                let mut time_row = vec![protocol.name().to_owned(), label.to_owned()];
                let mut msgs_row = time_row.clone();
                for &n in &self.process_counts {
                    let scenario = self.scenario(n, range).with_wire(wire);
                    let runs = run_seeds(&scenario, protocol, self.model, &self.seeds)?;
                    let process_ticks = f64::from(n) * self.ticks as f64;
                    time_row.push(format!(
                        "{:.4}",
                        mean_of(&runs, RunSummary::avg_time_per_modification_secs)
                    ));
                    msgs_row.push(format!(
                        "{:.2}",
                        mean_of(&runs, |r| r.total_messages() as f64) / process_ticks
                    ));
                }
                time.push_row(time_row);
                msgs.push_row(msgs_row);
            }
        }
        Ok(vec![time, msgs])
    }

    /// **Ext. D**: the paper's qualitative §2.3 comparison made
    /// quantitative — LRC and causal memory next to the measured four.
    ///
    /// # Errors
    ///
    /// Fails on the first failing run.
    pub fn ext_protocols(&self) -> Result<Vec<Table>, SimError> {
        let mut extended = self.clone();
        extended.protocols = Protocol::ALL.to_vec();
        let mut tables = extended.sweep_metric(
            "Ext. D: normalised execution time, all protocols",
            "s/modification",
            |runs| mean_of(runs, RunSummary::avg_time_per_modification_secs),
        )?;
        tables.extend(extended.sweep_metric(
            "Ext. D: total message transfers, all protocols",
            "messages",
            |runs| mean_of(runs, |r| r.total_messages() as f64),
        )?);
        Ok(tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_figure5_has_expected_shape() {
        let tables = Sweep::quick().figure5().unwrap();
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4, "one row per protocol");
        // Parse the n=2 column: EC must be slower than MSYNC2 per mod.
        let value = |row: usize, col: usize| t.rows[row][col].parse::<f64>().unwrap();
        let ec = value(0, 1);
        let msync2 = value(3, 1);
        assert!(ec > msync2, "EC ({ec}) should be slower per modification than MSYNC2 ({msync2})");
    }

    #[test]
    fn node_stats_net_counters_are_per_run_deltas() {
        use sdso_game::run_node;
        use sdso_net::{memory::MemoryHub, Endpoint, Payload};

        // The same game, with and without pre-run endpoint traffic, must
        // report identical net counters: NodeStats.net is a per-run delta,
        // not the endpoint's lifetime totals.
        let scenario = Scenario::paper(2, 1).with_ticks(15);
        let run = |pre_traffic: bool| {
            let mut eps = MemoryHub::new(2).into_endpoints();
            let mut b = eps.pop().unwrap();
            let mut a = eps.pop().unwrap();
            if pre_traffic {
                for _ in 0..7 {
                    a.send(1, Payload::control(b"warm-up".as_ref())).unwrap();
                    b.recv().unwrap();
                }
            }
            let s = scenario.clone();
            let t = std::thread::spawn(move || run_node(b, &s, Protocol::Bsync).unwrap());
            let sa = run_node(a, &scenario, Protocol::Bsync).unwrap();
            let sb = t.join().unwrap();
            (sa.net.total_sent(), sa.net.bytes_sent(), sb.net.total_sent())
        };
        assert_eq!(run(false), run(true), "pre-run endpoint traffic must not leak into NodeStats");
    }

    #[test]
    fn quick_figure7_ec_sends_fewest_data_messages() {
        let tables = Sweep::quick().figure7().unwrap();
        let t = &tables[0];
        let value = |row: usize, col: usize| t.rows[row][col].parse::<f64>().unwrap();
        for col in 1..t.headers.len() {
            let ec = value(0, col);
            for row in 1..4 {
                assert!(
                    ec <= value(row, col),
                    "EC is pull-based and must ship the fewest data messages"
                );
            }
        }
    }
}
