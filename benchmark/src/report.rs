//! Turning a cell's `NodeStats` and spans into named metrics, and the
//! output checks every cell must pass.

use std::collections::BTreeMap;

use sdso_game::{NodeStats, Protocol};
use sdso_harness::{converged, RunSummary};

use crate::cell::CellOutcome;
use crate::timed::{layer_split, LayerSplit, Span};
use crate::workload::{is_lookahead, Workload};

/// Metric name (without the protocol suffix) → value.
pub type Metrics = BTreeMap<String, f64>;

/// What a cell's process hands back to the workload process.
#[derive(Debug)]
pub struct CellReport {
    /// Ticks per world.
    pub ticks: u64,
    /// Node runs: nodes × worlds.
    pub nodes: u64,
    /// Why the cell counts as failed; empty when it passed every check.
    pub error: String,
    /// Hash of every node's `(modifications, score)` and `final_world`.
    pub outcome_fp: u64,
    /// Hash of every node's `total_sent`.
    pub traffic_fp: u64,
    /// The Fig. 5 metric of each world: mean over its processes of run
    /// time ÷ that process's object modifications, seconds.
    pub secs_per_mod: Vec<f64>,
    pub metrics: Metrics,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fingerprints<'a>(nodes: impl Iterator<Item = &'a NodeStats>) -> (u64, u64) {
    let (mut outcome, mut traffic) = (0xCBF2_9CE4_8422_2325u64, 0xCBF2_9CE4_8422_2325u64);
    for s in nodes {
        fnv1a(&mut outcome, &s.modifications.to_le_bytes());
        fnv1a(&mut outcome, &s.score.to_le_bytes());
        for block in &s.final_world {
            fnv1a(&mut outcome, &block.encode(sdso_game::block::MIN_BLOCK_BYTES));
        }
        fnv1a(&mut traffic, &s.net.total_sent().to_le_bytes());
    }
    (outcome, traffic)
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize] as f64
}

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_owned(), value);
}

fn secs_per_mod(cell: &CellOutcome) -> Vec<f64> {
    cell.worlds
        .iter()
        .map(|w| {
            let per_node = w.per_node.iter().zip(&w.node_secs);
            per_node.map(|(s, secs)| secs / s.modifications.max(1) as f64).sum::<f64>()
                / w.per_node.len() as f64
        })
        .collect()
}

/// Metrics from `NodeStats` (S) and from counts × the link model (M).
fn stats_metrics(workload: Workload, protocol: Protocol, cell: &CellOutcome, m: &mut Metrics) {
    let nodes = || cell.worlds.iter().flat_map(|w| &w.per_node);
    let node_ticks = (cell.ticks * nodes().count() as u64) as f64;
    let sum = |f: &dyn Fn(&NodeStats) -> u64| nodes().map(f).sum::<u64>() as f64;
    let per_tick = |f: &dyn Fn(&NodeStats) -> u64| sum(f) / node_ticks;

    put(m, "setup_s", cell.setup_s);
    put(m, "game.mods_per_tick", per_tick(&|s| s.modifications));
    put(m, "protocols.msgs_per_tick", per_tick(&|s| s.net.total_sent()));
    put(m, "protocols.data_msgs_per_tick", per_tick(&|s| s.net.data_sent.msgs));
    put(m, "core.bytes_per_tick", per_tick(&|s| s.net.bytes_sent()));
    put(m, "core.retransmits_per_tick", per_tick(&|s| s.dso.retransmits));
    if is_lookahead(protocol) {
        put(
            m,
            "protocols.peers_per_exchange",
            sum(&|s| s.dso.rendezvous_peers) / sum(&|s| s.dso.exchanges).max(1.0),
        );
        put(m, "core.exchange_us_per_tick", per_tick(&|s| s.dso.exchange_time.as_micros()));
        put(m, "core.exchange_wait_us_per_tick", per_tick(&|s| s.dso.exchange_wait.as_micros()));
        put(m, "core.updates_sent_per_tick", per_tick(&|s| s.dso.updates_sent));
        let stale = sum(&|s| s.dso.updates_stale);
        put(m, "core.stale_ratio", stale / (stale + sum(&|s| s.dso.updates_applied)).max(1.0));
        let v2 = sum(&|s| s.dso.codec_v2_sent);
        put(m, "core.codec_v2_share", v2 / (v2 + sum(&|s| s.dso.codec_v2_fallbacks)).max(1.0));
    } else {
        put(m, "protocols.lock_wait_us_per_tick", per_tick(&|s| s.ec.lock_wait.as_micros()));
        put(m, "protocols.pull_us_per_tick", per_tick(&|s| s.ec.pull_time.as_micros()));
        put(
            m,
            "protocols.local_grant_ratio",
            sum(&|s| s.ec.local_grants) / sum(&|s| s.ec.acquires).max(1.0),
        );
    }

    // A budget, not a critical path: what the link model charges for this
    // cell's traffic, per node-tick. Zero where no link is modelled.
    let (stack, serialise, propagate, host_rate) = match workload.model {
        Some(model) => {
            let model = model();
            let sent = sum(&|s| s.net.total_sent());
            let stack = sent * model.send_cpu.as_micros() as f64
                + sum(&|s| s.net.total_recv()) * model.recv_cpu.as_micros() as f64;
            let serialise = sum(&|s| s.net.bytes_sent()) * 8.0e6 / model.bandwidth_bps as f64;
            let propagate = sent * model.latency.as_micros() as f64;
            let host_secs: f64 = cell.worlds.iter().map(|w| w.host_secs).sum();
            (stack, serialise, propagate, sent / host_secs)
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    put(m, "sim.stack_cpu_us_per_tick", stack / node_ticks);
    put(m, "sim.serialise_us_per_tick", serialise / node_ticks);
    put(m, "sim.propagate_us_per_tick", propagate / node_ticks);
    put(m, "sim.host_msgs_per_s", host_rate);
}

/// Metrics from the traced run's spans (T). `whole_us` is the traced
/// nodes' run time as `secs_per_mod` measures it.
fn trace_metrics(mut split: LayerSplit, whole_us: f64, m: &mut Metrics) {
    let ticks = split.ticks.max(1) as f64;
    put(m, "game.app_us_per_tick", split.app_us as f64 / ticks);
    put(m, "core.sync_self_us_per_tick", split.sync_self_us as f64 / ticks);
    put(m, "net.send_us_per_tick", split.send_us as f64 / ticks);
    put(m, "net.send_us_per_msg", split.send_us as f64 / split.send_msgs.max(1) as f64);
    put(m, "net.msgs_per_send_call", split.send_msgs as f64 / split.send_calls.max(1) as f64);
    put(m, "net.blocked_us_per_tick", split.blocked_us as f64 / ticks);
    put(m, "trace.sum_error_pct", split.sum_error_pct(whole_us));
    split.tick_us.sort_unstable();
    put(m, "trace.tick_p50_us", percentile(&split.tick_us, 0.50));
    put(m, "trace.tick_p99_us", percentile(&split.tick_us, 0.99));
    put(m, "trace.tick_samples", split.tick_us.len() as f64);
}

/// Checks a finished cell and names its metrics. A failed check lands in
/// `error`; the metrics are reported regardless, for the post-mortem.
pub fn report(workload: Workload, protocol: Protocol, cell: &CellOutcome) -> CellReport {
    let mut errors = Vec::new();
    for (w, world) in cell.worlds.iter().enumerate() {
        for s in world.per_node.iter().filter(|s| s.ticks != cell.ticks) {
            errors.push(format!(
                "world {w}: node {} completed {} of {} ticks",
                s.node, s.ticks, cell.ticks
            ));
        }
        let summary = RunSummary {
            protocol,
            nodes: world.per_node.len(),
            range: 3,
            per_node: world.per_node.clone(),
        };
        if !converged(&summary) {
            errors.push(format!("world {w}: final_world replicas differ"));
        }
    }
    let secs_per_mod = secs_per_mod(cell);
    let mut metrics = Metrics::new();
    put(&mut metrics, "secs_per_mod", workload.over_worlds(secs_per_mod.clone()));
    stats_metrics(workload, protocol, cell, &mut metrics);
    let spans: Vec<&[Span]> =
        cell.worlds.iter().flat_map(|w| w.spans.iter().flatten().map(Vec::as_slice)).collect();
    if !spans.is_empty() {
        match layer_split(&spans, cell.ticks) {
            Ok(split) => {
                let whole_us = 1e6 * cell.worlds.iter().flat_map(|w| &w.node_secs).sum::<f64>();
                trace_metrics(split, whole_us, &mut metrics);
            }
            Err(e) => errors.push(format!("layer split invalid: {e}")),
        }
    }
    let (outcome_fp, traffic_fp) = fingerprints(cell.worlds.iter().flat_map(|w| &w.per_node));
    CellReport {
        ticks: cell.ticks,
        nodes: cell.worlds.iter().map(|w| w.per_node.len() as u64).sum(),
        error: errors.join("; "),
        outcome_fp,
        traffic_fp,
        secs_per_mod,
        metrics,
    }
}
