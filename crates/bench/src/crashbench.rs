//! The recovery benchmark behind `perf crash` (`BENCH_5.json`).
//!
//! One crash schedule, the paper's four protocols: a 16-team game under
//! the default crash plan (one crash-and-restart in the first half, one
//! unrecovered crash in the second), run under the deterministic
//! virtual-time simulator. The restarted process recovers from its
//! write-ahead log, rejoins through the late-joiner snapshot path, and
//! must end the run holding the same world as every survivor.
//!
//! What is gated, and how:
//!
//! * **Work metrics** (WAL records replayed, cross-epoch drops, snapshot
//!   count, the virtual downtime) are exact under the simulator — they
//!   drift only when the recovery path changes — and are gated
//!   ±tolerance against the committed baseline like `BENCH_0`–`4`.
//! * **The recovery contract** is enforced *fresh* at both record and
//!   check time: every cell must converge across its final view, the
//!   restarted process must actually replay WAL records, and the
//!   measured unavailability window must stay under
//!   [`CRASH_DOWNTIME_CEILING_MICROS`] of virtual time.

use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_harness::{converged_in, default_crash_plan, run_planned};
use sdso_net::{FaultPlan, SimSpan};
use sdso_sim::NetworkModel;

use crate::json::{obj, Json};

/// Bumped when the report layout changes incompatibly.
pub const CRASH_SCHEMA_VERSION: u64 = 1;

/// Teams in the benchmark game (one process per team).
pub const CRASH_NODES: u16 = 16;

/// Run length in ticks. The default plan puts the crash at tick 9, the
/// restart at 18, and the permanent crash at 27 — a tail of live play
/// remains after every event, and the crash tick sits off the periodic
/// checkpoint boundary so the recovery genuinely replays WAL records
/// (a crash in the same tick as a checkpoint finds an empty log).
pub const CRASH_TICKS: u64 = 36;

/// Seed for the fault plan and tank placement (shared with the
/// `experiments crash` Ext. G tables so the 16-team rows line up
/// exactly).
pub const CRASH_SEED: u64 = 0x5D50_C4A5;

/// Ceiling on the restarted process's measured unavailability window, in
/// virtual microseconds — the span from abrupt death to the completed
/// snapshot rejoin. The scheduled absence is 8 ticks; the ceiling allows
/// the recovery machinery (WAL replay, view catch-up, snapshot transfer)
/// on top of that but fails the gate if rejoin ever drags past it.
pub const CRASH_DOWNTIME_CEILING_MICROS: u64 = 3_000_000;

/// One protocol's recovery result under the fixed crash schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashCell {
    /// Protocol name (as printed by [`Protocol::name`]).
    pub protocol: String,
    /// Completed WAL recoveries across the cluster. Exact; gated (and
    /// must equal the plan's restart count fresh).
    pub recoveries: u64,
    /// WAL records replayed by restarted processes. Exact; gated (and
    /// must be non-zero fresh).
    pub wal_replayed: u64,
    /// Summed unavailability window in virtual microseconds — death to
    /// completed rejoin. Exact; gated ±tolerance AND against the fresh
    /// ceiling.
    pub downtime_micros: u64,
    /// Stale-epoch frames dropped at the exchange boundary across the
    /// cluster. Exact; gated.
    pub cross_epoch: u64,
    /// State snapshots donated to (re)joining processes. Exact; gated.
    pub snapshots: u64,
    /// Whether every member of the final view — the restarted process
    /// included — held the identical final world. Gated fresh: a
    /// baseline with a diverged cell is never recorded.
    pub converged: bool,
}

/// A full recovery benchmark report (`BENCH_5.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// Schema version ([`CRASH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Teams in the game.
    pub nodes: u64,
    /// Run length in ticks.
    pub ticks: u64,
    /// One cell per protocol, in [`Protocol::PAPER`] order.
    pub cells: Vec<CrashCell>,
}

impl CrashReport {
    /// Serializes the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("protocol", Json::Str(c.protocol.clone())),
                    ("recoveries", Json::Num(c.recoveries as f64)),
                    ("wal_replayed", Json::Num(c.wal_replayed as f64)),
                    ("downtime_micros", Json::Num(c.downtime_micros as f64)),
                    ("cross_epoch", Json::Num(c.cross_epoch as f64)),
                    ("snapshots", Json::Num(c.snapshots as f64)),
                    ("converged", Json::Bool(c.converged)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Num(self.schema as f64)),
            ("nodes", Json::Num(self.nodes as f64)),
            ("ticks", Json::Num(self.ticks as f64)),
            ("cells", Json::Arr(cells)),
        ])
        .pretty()
    }

    /// Parses a report previously written by
    /// [`CrashReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<CrashReport, String> {
        let root = Json::parse(text)?;
        let top = |key: &str| -> Result<u64, String> {
            root.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let schema = top("schema")?;
        let nodes = top("nodes")?;
        let ticks = top("ticks")?;
        let raw_cells = root
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing `cells` array".to_owned())?;
        let mut cells = Vec::with_capacity(raw_cells.len());
        for (i, c) in raw_cells.iter().enumerate() {
            let num = |key: &str| -> Result<u64, String> {
                c.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("cell {i}: missing numeric `{key}`"))
            };
            cells.push(CrashCell {
                protocol: c
                    .get("protocol")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("cell {i}: missing string `protocol`"))?
                    .to_owned(),
                recoveries: num("recoveries")?,
                wal_replayed: num("wal_replayed")?,
                downtime_micros: num("downtime_micros")?,
                cross_epoch: num("cross_epoch")?,
                snapshots: num("snapshots")?,
                converged: c
                    .get("converged")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("cell {i}: missing boolean `converged`"))?,
            });
        }
        Ok(CrashReport { schema, nodes, ticks, cells })
    }

    /// Compares `current` against this baseline: every work metric
    /// within ±`tolerance` relative, per protocol; no cells may appear
    /// or vanish; the shape must match exactly. The recovery contract
    /// (convergence, replay, the downtime ceiling) is NOT checked here —
    /// `perf crash check` enforces it fresh on the current run. Returns
    /// human-readable violations; empty means pass.
    #[must_use]
    pub fn compare(&self, current: &CrashReport, tolerance: f64) -> Vec<String> {
        let mut violations = Vec::new();
        if self.schema != current.schema {
            violations.push(format!(
                "schema changed: baseline {} vs current {}",
                self.schema, current.schema
            ));
            return violations;
        }
        if self.nodes != current.nodes || self.ticks != current.ticks {
            violations.push(format!(
                "shape mismatch: baseline {} teams x {} ticks vs current {} x {}",
                self.nodes, self.ticks, current.nodes, current.ticks
            ));
            return violations;
        }
        for base in &self.cells {
            let Some(cur) = current.cells.iter().find(|c| c.protocol == base.protocol) else {
                violations.push(format!("[{}] cell missing from current run", base.protocol));
                continue;
            };
            for (metric, b, c) in [
                ("recoveries", base.recoveries, cur.recoveries),
                ("wal_replayed", base.wal_replayed, cur.wal_replayed),
                ("downtime_micros", base.downtime_micros, cur.downtime_micros),
                ("cross_epoch", base.cross_epoch, cur.cross_epoch),
                ("snapshots", base.snapshots, cur.snapshots),
            ] {
                if !within_rel(b as f64, c as f64, tolerance) {
                    violations.push(format!(
                        "[{}] {metric}: baseline {b} vs current {c} (>±{:.0}%)",
                        base.protocol,
                        tolerance * 100.0
                    ));
                }
            }
        }
        for cur in &current.cells {
            if !self.cells.iter().any(|b| b.protocol == cur.protocol) {
                violations.push(format!(
                    "[{}] new cell not in baseline; re-record BENCH_5.json",
                    cur.protocol
                ));
            }
        }
        violations
    }

    /// Enforces the recovery contract on this (freshly measured) report:
    /// every cell converged, exactly one completed recovery (the plan's
    /// single restart), a non-empty WAL replay behind it, and an
    /// unavailability window under the ceiling. Returns violations;
    /// empty means the contract holds.
    #[must_use]
    pub fn contract_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for cell in &self.cells {
            if !cell.converged {
                violations.push(format!(
                    "[{}] the final view did not converge after recovery",
                    cell.protocol
                ));
            }
            if cell.recoveries != 1 {
                violations.push(format!(
                    "[{}] {} recoveries completed; the plan schedules exactly 1 restart",
                    cell.protocol, cell.recoveries
                ));
            }
            if cell.wal_replayed == 0 {
                violations.push(format!(
                    "[{}] the restart replayed no WAL records — recovery carried no state",
                    cell.protocol
                ));
            }
            if cell.downtime_micros == 0 || cell.downtime_micros > CRASH_DOWNTIME_CEILING_MICROS {
                violations.push(format!(
                    "[{}] unavailability window {}us outside (0, {CRASH_DOWNTIME_CEILING_MICROS}]",
                    cell.protocol, cell.downtime_micros
                ));
            }
        }
        violations
    }
}

/// `b` within ±`tol` relative of `a` (exact zeros must match).
fn within_rel(a: f64, b: f64, tol: f64) -> bool {
    if a == 0.0 {
        return b == 0.0;
    }
    ((b - a) / a).abs() <= tol
}

/// The benchmark's fixed fault plan.
#[must_use]
pub fn crash_bench_plan() -> FaultPlan {
    default_crash_plan(CRASH_SEED, usize::from(CRASH_NODES), CRASH_TICKS)
}

/// Runs the full suite — the paper's four protocols under the fixed
/// crash schedule — and assembles the report. Progress lines go to
/// stderr like the other suites'.
///
/// # Errors
///
/// Returns simulator errors from any protocol's run.
pub fn run_crash_suite() -> Result<CrashReport, String> {
    let scenario = Scenario::paper(CRASH_NODES, 1).with_ticks(CRASH_TICKS).with_seed(CRASH_SEED);
    let plan = RunPlan::default().with_faults(crash_bench_plan());
    let mut cells = Vec::with_capacity(Protocol::PAPER.len());
    for protocol in Protocol::PAPER {
        let t0 = std::time::Instant::now();
        let summary = run_planned(&scenario, protocol, NetworkModel::paper_testbed(), &plan)
            .map_err(|e| format!("{protocol}: {e}"))?;
        let final_view =
            plan.views(&scenario, protocol).map_err(|e| format!("{protocol}: {e}"))?.final_view();
        let downtime = summary.per_node.iter().fold(SimSpan::ZERO, |acc, s| acc + s.recovery_time);
        let cell = CrashCell {
            protocol: protocol.name().to_owned(),
            recoveries: summary.per_node.iter().map(|s| s.recoveries).sum(),
            wal_replayed: summary.per_node.iter().map(|s| s.wal_replayed).sum(),
            downtime_micros: downtime.as_micros(),
            cross_epoch: summary.per_node.iter().map(|s| s.dso.cross_epoch_dropped).sum(),
            snapshots: summary.per_node.iter().map(|s| s.dso.snapshots_sent).sum(),
            converged: converged_in(&summary, &final_view),
        };
        eprintln!(
            "  {protocol:<6}: {} recovery, {} WAL records, down {:.2}ms, \
             {} snapshots, converged={} [{:.1?} wall]",
            cell.recoveries,
            cell.wal_replayed,
            cell.downtime_micros as f64 / 1000.0,
            cell.snapshots,
            cell.converged,
            t0.elapsed()
        );
        cells.push(cell);
    }
    Ok(CrashReport {
        schema: CRASH_SCHEMA_VERSION,
        nodes: u64::from(CRASH_NODES),
        ticks: CRASH_TICKS,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CrashReport {
        CrashReport {
            schema: CRASH_SCHEMA_VERSION,
            nodes: 16,
            ticks: 32,
            cells: vec![
                CrashCell {
                    protocol: "BSYNC".to_owned(),
                    recoveries: 1,
                    wal_replayed: 20,
                    downtime_micros: 900_000,
                    cross_epoch: 4,
                    snapshots: 1,
                    converged: true,
                },
                CrashCell {
                    protocol: "EC".to_owned(),
                    recoveries: 1,
                    wal_replayed: 18,
                    downtime_micros: 1_200_000,
                    cross_epoch: 0,
                    snapshots: 1,
                    converged: true,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let parsed = CrashReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn compare_accepts_identical_and_flags_drift() {
        let base = report();
        assert!(base.compare(&report(), 0.05).is_empty());
        let mut cur = report();
        cur.cells[0].wal_replayed *= 3;
        cur.cells[1].downtime_micros *= 2;
        let violations = base.compare(&cur, 0.05);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("wal_replayed")));
        assert!(violations.iter().any(|v| v.contains("downtime_micros")));
    }

    #[test]
    fn compare_flags_shape_and_cell_set_changes() {
        let base = report();
        let mut wrong = report();
        wrong.ticks = 64;
        assert_eq!(base.compare(&wrong, 0.05).len(), 1);
        let mut extra = report();
        extra.cells.push(CrashCell { protocol: "MSYNC".to_owned(), ..report().cells[0].clone() });
        assert!(extra.cells.len() > base.cells.len());
        assert!(base.compare(&extra, 0.05).iter().any(|v| v.contains("new cell")));
    }

    #[test]
    fn contract_enforces_recovery_and_the_downtime_ceiling() {
        assert!(report().contract_violations().is_empty());
        let mut diverged = report();
        diverged.cells[0].converged = false;
        assert!(diverged.contract_violations().iter().any(|v| v.contains("converge")));
        let mut stuck = report();
        stuck.cells[1].recoveries = 0;
        assert!(stuck.contract_violations().iter().any(|v| v.contains("recoveries")));
        let mut empty = report();
        empty.cells[0].wal_replayed = 0;
        assert!(empty.contract_violations().iter().any(|v| v.contains("WAL")));
        let mut slow = report();
        slow.cells[1].downtime_micros = CRASH_DOWNTIME_CEILING_MICROS + 1;
        assert!(slow.contract_violations().iter().any(|v| v.contains("unavailability")));
    }

    #[test]
    fn bench_plan_schedules_one_restart_and_one_permanent_crash() {
        let plan = crash_bench_plan();
        assert_eq!(plan.crashes.len(), 2);
        let restarts = plan.crashes.iter().filter(|c| c.restart_tick.is_some()).count();
        assert_eq!(restarts, 1);
    }
}
