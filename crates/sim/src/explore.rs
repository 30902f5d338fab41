//! Bounded systematic exploration of message-delivery interleavings.
//!
//! The conservative scheduler makes every run deterministic by delivering
//! the virtual-time-minimal message first. That determinism is exactly what
//! a model checker needs: install a [`DeliveryOracle`] and the scheduler
//! asks it, at every *delivery race* (two or more senders with a message
//! deliverable at the same wake instant), which sender's message to hand
//! over first. Per-sender FIFO order is always preserved — the oracle only
//! permutes across senders, never within one link — so every explored
//! schedule is one the real network could have produced.
//!
//! [`Explorer`] then drives a depth-bounded DFS over the tree of oracle
//! choices. Branching happens *only* at genuine races (which plays the role
//! of persistent sets in DPOR), and runs whose delivery traces coincide are
//! pruned from re-expansion (sleep-set-flavoured deduplication), so the
//! enumerated schedules are pairwise-distinct interleavings.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use sdso_net::NodeId;

/// One deliverable message at a choice point: the earliest pending message
/// from one sender whose arrival time has been reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Sending node.
    pub from: NodeId,
    /// Global send sequence number (deterministic identity of the message).
    pub seq: u64,
    /// Virtual arrival time in microseconds.
    pub deliver_at: u64,
}

/// Decides which of several racing messages a receiver dequeues first.
///
/// `choose` is only consulted when `candidates.len() >= 2`; the returned
/// index is clamped into range. Calls are globally serialised by the
/// scheduler in virtual-time order, so a deterministic oracle yields a
/// deterministic run.
pub trait DeliveryOracle: Send + Sync + fmt::Debug {
    /// Returns the index into `candidates` of the message to deliver.
    fn choose(&self, receiver: NodeId, candidates: &[Candidate]) -> usize;
}

/// One resolved delivery race, as recorded by [`ReplayOracle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePoint {
    /// The receiving node.
    pub receiver: NodeId,
    /// How many senders were racing (always >= 2).
    pub arity: usize,
    /// Which candidate index was delivered.
    pub chosen: usize,
    /// `(from, seq)` of the delivered message.
    pub delivered: (NodeId, u64),
}

/// A choice vector: the `i`-th element picks the candidate at the `i`-th
/// choice point of a run. Positions beyond the vector default to 0 (the
/// scheduler's native earliest-first order).
pub type Schedule = Vec<usize>;

/// Oracle that replays a preset [`Schedule`] and records every choice
/// point it passes, including the ones beyond the preset (which default
/// to candidate 0).
#[derive(Debug, Default)]
pub struct ReplayOracle {
    preset: Schedule,
    record: Mutex<Vec<ChoicePoint>>,
}

impl ReplayOracle {
    /// Creates an oracle that follows `preset` and then defaults to 0.
    pub fn new(preset: Schedule) -> Self {
        ReplayOracle { preset, record: Mutex::new(Vec::new()) }
    }

    /// The choice points encountered so far, in global virtual-time order.
    pub fn trace(&self) -> Vec<ChoicePoint> {
        self.record.lock().clone()
    }
}

impl DeliveryOracle for ReplayOracle {
    fn choose(&self, receiver: NodeId, candidates: &[Candidate]) -> usize {
        let mut rec = self.record.lock();
        let i = rec.len();
        let choice = self.preset.get(i).copied().unwrap_or(0).min(candidates.len() - 1);
        rec.push(ChoicePoint {
            receiver,
            arity: candidates.len(),
            chosen: choice,
            delivered: (candidates[choice].from, candidates[choice].seq),
        });
        choice
    }
}

/// An invariant violation found during exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The minimized schedule that triggers the violation (trailing
    /// default-0 choices trimmed). Replay it with [`Explorer::replay`].
    pub schedule: Schedule,
    /// The scenario's description of what broke.
    pub message: String,
}

/// Summary of one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Total schedules executed.
    pub runs: usize,
    /// Pairwise-distinct delivery traces observed.
    pub distinct: usize,
    /// Longest choice-point trace seen in any run.
    pub max_choice_points: usize,
    /// True if the run cap stopped exploration before the frontier emptied.
    pub truncated: bool,
    /// First invariant violation, if any (exploration stops on it).
    pub violation: Option<Violation>,
}

/// Depth-bounded DFS over delivery-race choices.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Branch only at the first `depth` choice points of each run; later
    /// races follow the default earliest-first order.
    pub depth: usize,
    /// Hard cap on executed schedules.
    pub max_runs: usize,
}

impl Explorer {
    /// Creates an explorer with the given branching depth and run cap.
    pub fn new(depth: usize, max_runs: usize) -> Self {
        Explorer { depth, max_runs }
    }

    /// Systematically explores `scenario` under permuted delivery orders.
    ///
    /// The scenario must build a cluster with the given oracle installed
    /// (see `SimCluster::with_oracle`), run it, check its invariants, and
    /// return `Err(description)` if one fails. It is called once per
    /// schedule; exploration stops at the first violation, when the
    /// frontier is exhausted, or at `max_runs`.
    pub fn explore<F>(&self, scenario: F) -> ExploreReport
    where
        F: FnMut(Arc<ReplayOracle>) -> Result<(), String>,
    {
        self.explore_from(Vec::new(), scenario)
    }

    /// As [`Explorer::explore`], over the schedules that begin with `root`
    /// only: its choices are replayed in every run and never varied. The
    /// search is depth-first under a run cap, so it spends the whole cap
    /// beneath the first alternative of an early choice point; a caller who
    /// wants each alternative of such a point explored roots one search
    /// there per alternative.
    pub fn explore_from<F>(&self, root: Schedule, mut scenario: F) -> ExploreReport
    where
        F: FnMut(Arc<ReplayOracle>) -> Result<(), String>,
    {
        let mut report = ExploreReport::default();
        let mut frontier: Vec<Schedule> = vec![root];
        let mut seen: HashSet<Vec<(NodeId, NodeId, u64)>> = HashSet::new();
        while let Some(prefix) = frontier.pop() {
            if report.runs >= self.max_runs {
                report.truncated = true;
                break;
            }
            let oracle = Arc::new(ReplayOracle::new(prefix.clone()));
            report.runs += 1;
            if let Err(message) = scenario(Arc::clone(&oracle)) {
                report.violation = Some(Violation { schedule: minimize(&prefix), message });
                break;
            }
            let trace = oracle.trace();
            report.max_choice_points = report.max_choice_points.max(trace.len());
            let signature: Vec<(NodeId, NodeId, u64)> =
                trace.iter().map(|c| (c.receiver, c.delivered.0, c.delivered.1)).collect();
            if !seen.insert(signature) {
                continue; // equivalent interleaving already expanded
            }
            report.distinct += 1;
            // Expand alternatives only at positions this run discovered
            // (ancestors already own the earlier positions).
            let limit = trace.len().min(self.depth);
            for i in prefix.len()..limit {
                for alt in 1..trace[i].arity {
                    let mut next: Schedule = trace[..i].iter().map(|c| c.chosen).collect();
                    next.push(alt);
                    frontier.push(next);
                }
            }
        }
        report
    }

    /// Replays a single schedule (e.g. a minimized violation) through the
    /// scenario, returning the scenario's own verdict.
    ///
    /// # Errors
    ///
    /// Propagates the scenario's invariant-violation description.
    pub fn replay<F>(schedule: &Schedule, scenario: F) -> Result<(), String>
    where
        F: Fn(Arc<ReplayOracle>) -> Result<(), String>,
    {
        scenario(Arc::new(ReplayOracle::new(schedule.clone())))
    }
}

/// Trims trailing default-0 choices: they are implied by an empty tail.
fn minimize(schedule: &Schedule) -> Schedule {
    let mut s = schedule.clone();
    while s.last() == Some(&0) {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkModel, SimCluster};
    use sdso_net::{Endpoint, Payload};

    /// Two senders race one message each into node 2 on an instant network.
    fn race_scenario(oracle: Arc<ReplayOracle>) -> Result<Vec<u8>, String> {
        let outcome = SimCluster::new(3, NetworkModel::instant())
            .with_oracle(oracle)
            .run(|mut ep| {
                if ep.node_id() == 2 {
                    let a = ep.recv()?.payload.bytes[0];
                    let b = ep.recv()?.payload.bytes[0];
                    Ok(vec![a, b])
                } else {
                    let tag = ep.node_id() as u8;
                    ep.send(2, Payload::data(vec![tag]))?;
                    Ok(vec![])
                }
            })
            .map_err(|e| e.to_string())?;
        let results = outcome.into_results().map_err(|e| e.to_string())?;
        Ok(results[2].clone())
    }

    #[test]
    fn default_schedule_matches_native_order() {
        let got = race_scenario(Arc::new(ReplayOracle::new(vec![]))).unwrap();
        assert_eq!(got, vec![0, 1], "earliest (seq-min) message first");
    }

    #[test]
    fn alternative_choice_flips_delivery_order() {
        let got = race_scenario(Arc::new(ReplayOracle::new(vec![1]))).unwrap();
        assert_eq!(got, vec![1, 0], "oracle picked sender 1 first");
    }

    #[test]
    fn explorer_enumerates_both_orders() {
        let ex = Explorer::new(4, 16);
        let mut orders = Vec::new();
        let report = ex.explore(|oracle| {
            let got = race_scenario(oracle)?;
            orders.push(got);
            Ok(())
        });
        assert!(report.violation.is_none());
        assert_eq!(report.distinct, 2);
        assert!(orders.contains(&vec![0, 1]) && orders.contains(&vec![1, 0]));
    }

    #[test]
    fn violation_is_reported_with_minimized_schedule() {
        let ex = Explorer::new(4, 16);
        let report = ex.explore(|oracle| {
            let got = race_scenario(oracle)?;
            if got == vec![1, 0] {
                return Err("reordering observed".to_owned());
            }
            Ok(())
        });
        let v = report.violation.expect("the bad order is reachable");
        assert_eq!(v.schedule, vec![1]);
        // The minimized schedule replays to the same failure.
        let replayed = Explorer::replay(&v.schedule, |oracle| {
            let got = race_scenario(oracle)?;
            if got == vec![1, 0] {
                return Err("reordering observed".to_owned());
            }
            Ok(())
        });
        assert!(replayed.is_err());
    }

    #[test]
    fn per_sender_fifo_is_never_violated() {
        // Node 0 sends two messages; node 1 sends one; receiver takes all
        // three. Whatever the oracle does, 0's first message precedes 0's
        // second.
        let scenario = |oracle: Arc<ReplayOracle>| -> Result<(), String> {
            let outcome = SimCluster::new(3, NetworkModel::instant())
                .with_oracle(oracle)
                .run(|mut ep| {
                    if ep.node_id() == 2 {
                        let mut from0 = Vec::new();
                        for _ in 0..3 {
                            let m = ep.recv()?;
                            if m.from == 0 {
                                from0.push(m.payload.bytes[0]);
                            }
                        }
                        Ok(from0)
                    } else if ep.node_id() == 0 {
                        ep.send(2, Payload::data(vec![10]))?;
                        ep.send(2, Payload::data(vec![11]))?;
                        Ok(vec![])
                    } else {
                        ep.send(2, Payload::data(vec![20]))?;
                        Ok(vec![])
                    }
                })
                .map_err(|e| e.to_string())?;
            let results = outcome.into_results().map_err(|e| e.to_string())?;
            if results[2] != vec![10, 11] {
                return Err(format!("per-sender FIFO broken: {:?}", results[2]));
            }
            Ok(())
        };
        let report = Explorer::new(6, 64).explore(scenario);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.distinct >= 2, "the 0/1 race must branch");
    }
}
