//! Games under a planned departure from the paper's setting: link faults,
//! view changes and crashes.
//!
//! The paper's evaluation held the process group fixed on a network that
//! never lost a message. Three extensions drop those assumptions, and each
//! is one part of a [`RunPlan`]: seeded link faults (drops, duplicates,
//! reordering, healing partitions) that the reliability layer repairs
//! through the resync path; planned leaves and joins at view-change
//! barriers (Ext. E); and fail-stop crashes that survivors excise and
//! scheduled restarts recover from their journal (Ext. G). This module
//! holds the default plan of each and [`plan_table`], which plays a plan
//! for each protocol and reports what each of its parts did.

use sdso_core::{MembershipPlan, RetryConfig, ViewChange};
use sdso_game::{NodeStats, Protocol, RunPlan, Scenario};
use sdso_net::{FaultPlan, NetError, NodeId, SimInstant, SimSpan};
use sdso_sim::{NetworkModel, SimError};

use crate::experiment::{converged_in, run_planned, RunSummary};
use crate::table::Table;

/// A retransmission tuning that recovers briskly on the simulated testbed:
/// the timeout is a few node-to-node latencies, and the retry budget rides
/// out a multi-millisecond partition.
pub fn chaos_retry_config() -> RetryConfig {
    RetryConfig { rto: SimSpan::from_millis(5), max_retries: 2_000 }
}

/// The default chaos fault plan for `seed`: 5% drops, 2% duplicates, 25%
/// of messages held back by up to 2 ms (reordering), and one partition
/// that isolates node 0 for `[2 ms, 8 ms)` and then heals.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop(0.05)
        .with_dup(0.02)
        .with_reorder(0.25, SimSpan::from_millis(2))
        .with_partition(vec![0], SimInstant::from_micros(2_000), SimInstant::from_micros(8_000))
}

/// The default churn plan for a `capacity`-slot cluster: the two
/// highest-numbered slots start empty, the two lowest-numbered non-donor
/// members leave at staggered barriers, and the spare slots join at those
/// same barriers. `ticks` must leave room for the last trigger.
///
/// # Panics
///
/// Panics if `capacity < 4` (needs a donor, two leavers, and a spare
/// slot) or if `ticks < 5` (the triggers land at `ticks / 3` and
/// `2 * ticks / 3`).
pub fn default_churn_plan(capacity: usize, ticks: u64) -> MembershipPlan {
    assert!(capacity >= 4, "churn needs at least 4 capacity slots");
    assert!(ticks >= 5, "churn needs room for two staggered triggers");
    let joiners = [capacity as NodeId - 2, capacity as NodeId - 1];
    let plan = MembershipPlan::new(capacity, 0..capacity as NodeId - 2);
    plan.with_change(ticks / 3, ViewChange::new([joiners[0]], [1]))
        .with_change(2 * ticks / 3, ViewChange::new([joiners[1]], [2]))
}

/// The default crash plan for an `n`-team run over `ticks` ticks: one
/// crash-and-restart in the first half of the run and one unrecovered
/// crash in the second half, both seeded from `seed` (node 0, the
/// perennial snapshot donor, never crashes).
///
/// # Panics
///
/// Panics if `n < 4` (needs a donor, two crashers, and a bystander) or
/// `ticks < 8` (room for crash, restart, and a tail of live play).
pub fn default_crash_plan(seed: u64, n: usize, ticks: u64) -> FaultPlan {
    assert!(n >= 4, "crash runs need at least 4 teams");
    assert!(ticks >= 8, "crash runs need room for a crash, a restart, and a tail");
    FaultPlan::new(seed).with_crash(1, ticks / 4, Some(ticks / 2)).with_crash(
        (n - 1) as NodeId,
        3 * ticks / 4,
        None,
    )
}

/// Whether every process that restarted under `faults` in `run` carried
/// its game state across the crash. A process's compute time covers both
/// incarnations: the same think time for each tick it plays (priced at a
/// process that never crashed) plus `Scenario::WRITE_COST` per
/// modification. Its modification count is part of the state it recovers,
/// so a restart that lost the pre-crash state reports fewer modifications
/// than it paid for.
pub fn restarts_kept_their_state(
    scenario: &Scenario,
    faults: &FaultPlan,
    run: &RunSummary,
) -> bool {
    let per_write = Scenario::WRITE_COST.as_micros();
    let thinking =
        |s: &NodeStats| s.compute_time.as_micros().checked_sub(per_write * s.modifications);
    let Some(per_tick) = run
        .per_node
        .iter()
        .find(|s| faults.crash_of(s.node).is_none())
        .and_then(thinking)
        .map(|t| t / scenario.ticks)
    else {
        return false;
    };
    faults.crashes.iter().all(|c| {
        let Some(back) = c.restart_tick else { return true };
        let played = scenario.ticks - (back - c.crash_tick);
        run.per_node.iter().find(|s| s.node == c.node).and_then(thinking) == Some(per_tick * played)
    })
}

/// A column of [`plan_table`]: its header and how a row's cell is read
/// from the run.
type Column = (&'static str, fn(&Scenario, &RunSummary) -> String);

/// The column's total over every node of the run.
fn sum(run: &RunSummary, of: fn(&NodeStats) -> u64) -> String {
    run.per_node.iter().map(of).sum::<u64>().to_string()
}

/// What the reliability layer did about the link faults.
const ARQ: [Column; 8] = [
    ("drops", |_, r| sum(r, |s| s.net.drops_injected)),
    ("dups", |_, r| sum(r, |s| s.net.dups_injected)),
    ("resyncs", |_, r| sum(r, |s| s.dso.resyncs)),
    ("retransmits", |_, r| sum(r, |s| s.dso.retransmits)),
    ("dup_dropped", |_, r| sum(r, |s| s.dso.duplicates_dropped)),
    ("acks_piggy", |_, r| sum(r, |s| s.dso.acks_piggybacked)),
    ("acks_alone", |_, r| sum(r, |s| s.dso.acks_standalone)),
    ("stale", |_, r| sum(r, |s| s.dso.updates_stale)),
];

/// What the view changes cost: epoch turns, traffic rejected across
/// them, diff slots compacted on departure, snapshots to joiners.
const MEMBERSHIP: [Column; 5] = [
    ("view_changes", |_, r| sum(r, |s| s.dso.view_changes)),
    ("cross_epoch", |_, r| sum(r, |s| s.dso.cross_epoch_dropped)),
    ("slots_compacted", |_, r| sum(r, |s| s.dso.slots_compacted)),
    ("snapshots", |_, r| sum(r, |s| s.dso.snapshots_sent)),
    ("snapshot_bytes", |_, r| sum(r, |s| s.dso.snapshot_bytes)),
];

/// What the crashes cost: completed recoveries, their summed virtual
/// absence, and node 0's mean tick. Node 0 is the snapshot donor and
/// never crashes, so its tick is the survivors' pace: the yardstick for
/// `downtime_ms`.
const RECOVERY: [Column; 3] = [
    ("recoveries", |_, r| sum(r, |s| s.recoveries)),
    ("downtime_ms", |_, r| {
        let downtime: SimSpan = r.per_node.iter().map(|s| s.recovery_time).sum();
        format!("{:.2}", downtime.as_micros() as f64 / 1000.0)
    }),
    ("tick_ms", |scenario, r| {
        format!(
            "{:.2}",
            r.per_node[0].exec_time.as_micros() as f64 / 1000.0 / scenario.ticks as f64
        )
    }),
];

/// Plays `scenario` under `plan` for each protocol in `protocols` and
/// renders what each part of the plan did, one row per protocol. The
/// plan's parts choose the columns: link faults the ARQ columns (drops,
/// resyncs, retransmits, acks), view changes — planned or derived from
/// crashes — the membership columns (epoch turns, snapshots), crashes the
/// recovery columns (recoveries, downtime, node 0's tick). The last column says
/// whether every member of the plan's final view holds the identical
/// world.
///
/// # Errors
///
/// Fails on the first protocol whose run fails outright, an unsupported
/// plan included (see [`RunPlan::views`]).
pub fn plan_table(
    scenario: &Scenario,
    model: NetworkModel,
    plan: &RunPlan,
    protocols: &[Protocol],
) -> Result<Table, SimError> {
    let faults = plan.faults.as_ref();
    let link_faults = faults.filter(|f| f.has_link_faults());
    let crashes = faults.map_or(0, |f| f.crashes.len());
    let changes = plan.membership.as_ref().map_or(0, |m| m.changes().len());
    // The title names the plan's parts and their sizes.
    let (mut kinds, mut sizes) = (Vec::new(), vec![format!("{} teams", scenario.teams)]);
    let mut columns = Vec::new();
    if changes > 0 {
        kinds.push("churn");
        sizes.push(format!("{changes} view change(s)"));
    }
    if crashes > 0 {
        kinds.push("crash");
        sizes.push(format!("{crashes} crash(es)"));
    }
    if let Some(f) = link_faults {
        kinds.push("chaos");
        sizes.push(format!("drop {:.0}%, seed {:#x}", f.drop_prob * 100.0, f.seed));
        columns.extend(ARQ);
    }
    if changes + crashes > 0 {
        columns.extend(MEMBERSHIP);
    }
    if crashes > 0 {
        columns.extend(RECOVERY);
    }
    if kinds.is_empty() {
        kinds.push("static");
    }
    let headers: Vec<&str> = ["protocol"]
        .into_iter()
        .chain(columns.iter().map(|&(header, _)| header))
        .chain(["converged"])
        .collect();
    let title = format!("{} ({})", kinds.join(" + "), sizes.join(", "));
    let mut table = Table::new(title, &headers);
    for &protocol in protocols {
        let run = run_planned(scenario, protocol, model, plan)?;
        let final_view = plan.views(scenario, protocol).map_err(NetError::from)?.final_view();
        let mut row = vec![protocol.name().to_owned()];
        row.extend(columns.iter().map(|(_, cell)| cell(scenario, &run)));
        row.push(if converged_in(&run, &final_view) { "yes" } else { "NO" }.to_owned());
        table.push_row(row);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_staggers_two_changes() {
        let plan = default_churn_plan(6, 12);
        assert_eq!(plan.capacity(), 6);
        assert_eq!(plan.changes().len(), 2);
        assert_eq!(plan.changes()[0].0, 4);
        assert_eq!(plan.changes()[1].0, 8);
        let final_view = plan.final_view();
        assert!(final_view.members().contains(&4) && final_view.members().contains(&5));
        assert!(!final_view.members().contains(&1) && !final_view.members().contains(&2));
    }

    #[test]
    fn default_plan_has_one_restart_and_one_permanent_crash() {
        let plan = default_crash_plan(7, 8, 16);
        assert_eq!(plan.crashes.len(), 2);
        assert!(plan.crash_of(1).is_some_and(|c| c.restart_tick.is_some()));
        assert!(plan.crash_of(7).is_some_and(|c| c.restart_tick.is_none()));
        assert!(plan.crash_of(0).is_none(), "the donor never crashes");
    }

    /// Each part of the plan brings its columns, and only its own; every
    /// protocol gets a row, and every row converges.
    #[test]
    fn plan_table_takes_its_columns_from_the_plan() {
        let model = NetworkModel::paper_testbed();
        let protocols = [Protocol::Bsync, Protocol::Entry];
        let scenario = Scenario::paper(4, 1).with_ticks(12);
        let churn = RunPlan::default().with_membership(default_churn_plan(4, 12));
        let chaos = RunPlan::default().with_faults(chaos_plan(11));
        let crash = RunPlan::default().with_faults(default_crash_plan(5, 4, 12));
        let reliable = scenario.clone().with_reliability(chaos_retry_config());
        for (scenario, plan, with, without) in [
            (&scenario, &churn, "view_changes", &["drops", "recoveries"][..]),
            (&reliable, &chaos, "retransmits", &["view_changes", "recoveries"]),
            (&scenario, &crash, "tick_ms", &["drops"]),
        ] {
            let table = plan_table(scenario, model, plan, &protocols).unwrap();
            let text = table.to_string();
            let column = |name: &str| table.headers.iter().position(|h| h == name);
            assert!(without.iter().all(|&w| column(w).is_none()), "{text}");
            let with = column(with).unwrap_or_else(|| panic!("no {with}:\n{text}"));
            assert_eq!(table.rows.len(), 2);
            assert!(text.contains("BSYNC") && text.contains("EC"));
            for row in &table.rows {
                assert!(row[with].parse::<f64>().unwrap() > 0.0, "{text}");
                assert_eq!(row.last().unwrap(), "yes", "{text}");
            }
        }
    }
}
