//! The perf-regression runner.
//!
//! ```text
//! cargo run --release -p sdso-bench --bin perf -- record [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- check  [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- micro record [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- micro check  [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- net record [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- net check  [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- shard record [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- shard check  [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- crash record [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- crash check  [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- wire record [FLAGS]
//! cargo run --release -p sdso-bench --bin perf -- wire check  [FLAGS]
//!
//! COMMANDS
//!   record        Run the fixed scenario matrix and write a new baseline
//!   check         Run the matrix and compare against a committed baseline
//!   micro record  Run the hot-path micro suite, write BENCH_2.json
//!   micro check   Run the micro suite, compare work metrics against the
//!                 committed BENCH_2.json and enforce the >=2x tracked-diff
//!                 speedup floor
//!   net record    Run the 256-peer star echo over the reactor and the
//!                 thread-per-peer mesh, write BENCH_3.json
//!   net check     Run the same exchange, compare work metrics and p99
//!                 against the committed BENCH_3.json, and enforce the
//!                 reactor >= threaded-throughput parity floor fresh
//!   shard record  Run the sharded-vs-mesh scale pairings (64 and 256
//!                 nodes, steady-state windows), write BENCH_4.json
//!   shard check   Run the same pairings, compare work metrics against
//!                 the committed BENCH_4.json, and enforce the traffic
//!                 ratio ceilings + sub-linear growth cap fresh
//!   crash record  Run the paper protocols under the fixed crash-and-
//!                 recovery schedule, write BENCH_5.json
//!   crash check   Run the same schedule, compare recovery metrics
//!                 against the committed BENCH_5.json, and enforce the
//!                 recovery contract (convergence, WAL replay, the
//!                 unavailability ceiling) fresh
//!   wire record   Sweep {10M,100M,1G,10G} links × the paper protocols,
//!                 absolute vs compressed wire format, write BENCH_6.json
//!   wire check    Run the same sweep, compare bytes/tick and exchange
//!                 latency against the committed BENCH_6.json, and
//!                 enforce the MSYNC2 >=40% reduction floor fresh
//!
//! FLAGS
//!   --out FILE        record: where to write the baseline (default
//!                     BENCH_0.json; BENCH_2.json for micro, BENCH_3.json
//!                     for net, BENCH_4.json for shard, BENCH_5.json for
//!                     crash, BENCH_6.json for wire)
//!   --baseline FILE   check: baseline to compare against (same defaults)
//!   --tolerance F     check: relative tolerance, e.g. 0.25 = ±25% (default 0.25)
//!   --ticks N         iterations per process (default 120; check inherits
//!                     the baseline's value and flags a mismatch)
//!   --spokes N        net: spoke count (default 256; check inherits the
//!                     baseline's value)
//!   --pings N         net: pings per spoke (default 100; check inherits)
//!   --trace-out FILE  also export a Chrome trace (Perfetto-loadable) of a
//!                     fully-traced 16-process MSYNC2 run
//! ```
//!
//! The matrix is the paper's four protocols × {2, 16} processes ×
//! ranges {1, 3}, run under the deterministic virtual-time simulator:
//! simulated seconds and message counts are exact, so a drift beyond
//! tolerance means the protocols changed, not the host. The recorder
//! overhead (counters-only vs off, wall clock, min-of-N) is measured
//! and reported but never gated — it is the one host-dependent number.

use std::time::{Duration, Instant};

use sdso_bench::baseline::{BenchCell, BenchReport, MATRIX_NODES, MATRIX_RANGES, SCHEMA_VERSION};
use sdso_bench::crashbench::{run_crash_suite, CrashReport};
use sdso_bench::micro::{self, MicroReport, MICRO_SPEEDUP_FLOOR};
use sdso_bench::netbench::{
    run_net_suite, NetReport, NET_DEFAULT_PINGS, NET_DEFAULT_SPOKES, NET_PARITY_FLOOR,
};
use sdso_bench::shardbench::{run_shard_suite, ShardReport};
use sdso_bench::wirebench::{run_wire_suite, WireReport, WIRE_REDUCTION_FLOOR};
use sdso_core::ObsSet;
use sdso_game::{Protocol, RunPlan, Scenario};
use sdso_harness::{run_planned, RunSummary};
use sdso_net::TraceConfig;
use sdso_sim::NetworkModel;

const DEFAULT_TICKS: u64 = 120;
const PLACEMENT_SEED: u64 = 0x5D50_1997;
const OVERHEAD_REPEATS: usize = 5;

fn scenario(nodes: u16, range: u16, ticks: u64) -> Scenario {
    Scenario::paper(nodes, range).with_ticks(ticks).with_seed(PLACEMENT_SEED)
}

/// One run on the paper testbed, recorded under `trace`.
fn run_traced(
    scenario: &Scenario,
    protocol: Protocol,
    trace: TraceConfig,
) -> Result<(RunSummary, ObsSet), String> {
    let obs = ObsSet::new(scenario.teams, trace);
    let plan = RunPlan::default().with_obs(obs.clone());
    let summary = run_planned(scenario, protocol, NetworkModel::paper_testbed(), &plan)
        .map_err(|e| e.to_string())?;
    Ok((summary, obs))
}

/// Runs the whole matrix (counters always on, event tracing off) and
/// summarizes each cell.
fn run_matrix(ticks: u64) -> Result<Vec<BenchCell>, String> {
    let mut cells = Vec::new();
    for protocol in Protocol::PAPER {
        for nodes in MATRIX_NODES {
            for range in MATRIX_RANGES {
                let t0 = Instant::now();
                let (summary, obs) =
                    run_traced(&scenario(nodes, range, ticks), protocol, TraceConfig::off())
                        .map_err(|e| format!("{protocol} n={nodes} range={range}: {e}"))?;
                let exchange = obs.merged_snapshot().histograms.get("dso.exchange_micros").cloned();
                let (p50, p99) =
                    exchange.map(|h| (h.percentile(50.0), h.percentile(99.0))).unwrap_or((0, 0));
                cells.push(BenchCell {
                    protocol: protocol.name().to_owned(),
                    nodes,
                    range,
                    secs_per_mod: summary.avg_time_per_modification_secs(),
                    total_messages: summary.total_messages(),
                    data_messages: summary.data_messages(),
                    exchange_p50_us: p50,
                    exchange_p99_us: p99,
                });
                eprintln!(
                    "  {protocol:<6} n={nodes:<2} range={range}: {} msgs, {:.4} s/mod \
                     [{:.1?} wall]",
                    summary.total_messages(),
                    summary.avg_time_per_modification_secs(),
                    t0.elapsed()
                );
            }
        }
    }
    Ok(cells)
}

/// Wall-clock cost of the counters-only flight recorder: min-of-N runs
/// of one fixed cell with tracing off vs counters-only, as a percent.
fn measure_recorder_overhead(ticks: u64) -> Result<f64, String> {
    // A long-enough run that per-event cost dominates thread start-up and
    // teardown noise (min-of-N absorbs scheduler jitter on top).
    let overhead_ticks = ticks * 8;
    let time_with = |config: TraceConfig| -> Result<Duration, String> {
        let mut best = Duration::MAX;
        for _ in 0..OVERHEAD_REPEATS {
            let t0 = Instant::now();
            run_traced(&scenario(4, 1, overhead_ticks), Protocol::Msync2, config)
                .map_err(|e| format!("overhead run: {e}"))?;
            best = best.min(t0.elapsed());
        }
        Ok(best)
    };
    let off = time_with(TraceConfig::off())?;
    let counters = time_with(TraceConfig::counters())?;
    let overhead = (counters.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;
    eprintln!(
        "  recorder overhead (counters vs off, min of {OVERHEAD_REPEATS}): \
         {off:.1?} -> {counters:.1?} = {overhead:+.1}%"
    );
    Ok(overhead)
}

/// Traces a 16-process MSYNC2 run in full mode and writes the Chrome
/// trace (load it at <https://ui.perfetto.dev>).
fn export_trace(path: &str, ticks: u64) -> Result<(), String> {
    let (summary, obs) = run_traced(&scenario(16, 3, ticks), Protocol::Msync2, TraceConfig::full())
        .map_err(|e| format!("trace run: {e}"))?;
    std::fs::write(path, obs.chrome_trace()).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "  trace: 16-process MSYNC2, {} events ({} dropped), {} msgs -> {path}",
        obs.total_events(),
        obs.total_dropped(),
        summary.total_messages()
    );
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: perf record [--out FILE] [--ticks N] [--trace-out FILE]\n\
        \x20      perf check  [--baseline FILE] [--tolerance F] [--trace-out FILE]\n\
        \x20      perf micro record [--out FILE]\n\
        \x20      perf micro check  [--baseline FILE] [--tolerance F]\n\
        \x20      perf net record [--out FILE] [--spokes N] [--pings N]\n\
        \x20      perf net check  [--baseline FILE] [--tolerance F]\n\
        \x20      perf shard record [--out FILE]\n\
        \x20      perf shard check  [--baseline FILE] [--tolerance F]\n\
        \x20      perf crash record [--out FILE]\n\
        \x20      perf crash check  [--baseline FILE] [--tolerance F]\n\
        \x20      perf wire record [--out FILE]\n\
        \x20      perf wire check  [--baseline FILE] [--tolerance F]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else { usage() };
    // `micro record` / `micro check` fold into one command token; the
    // shared flag loop then applies with micro-suite defaults.
    let (command, flags_from) =
        if ["micro", "net", "shard", "crash", "wire"].contains(&first.as_str()) {
            match args.get(1).map(String::as_str) {
                Some("record") => (format!("{first}-record"), 2),
                Some("check") => (format!("{first}-check"), 2),
                _ => usage(),
            }
        } else {
            (first.clone(), 1)
        };
    let default_file = if first == "micro" {
        "BENCH_2.json"
    } else if first == "net" {
        "BENCH_3.json"
    } else if first == "shard" {
        "BENCH_4.json"
    } else if first == "crash" {
        "BENCH_5.json"
    } else if first == "wire" {
        "BENCH_6.json"
    } else {
        "BENCH_0.json"
    };
    let mut out = String::from(default_file);
    let mut baseline_path = String::from(default_file);
    let mut tolerance = 0.25f64;
    let mut ticks: Option<u64> = None;
    let mut spokes: Option<usize> = None;
    let mut pings: Option<u32> = None;
    let mut trace_out: Option<String> = None;

    let mut it = args[flags_from..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("{name} needs a value");
                    usage()
                }
            }
        };
        match arg.as_str() {
            "--out" => out = value("--out"),
            "--baseline" => baseline_path = value("--baseline"),
            "--tolerance" => {
                tolerance = value("--tolerance").parse().unwrap_or_else(|_| usage());
            }
            "--ticks" => ticks = Some(value("--ticks").parse().unwrap_or_else(|_| usage())),
            "--spokes" => spokes = Some(value("--spokes").parse().unwrap_or_else(|_| usage())),
            "--pings" => pings = Some(value("--pings").parse().unwrap_or_else(|_| usage())),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            _ => usage(),
        }
    }

    let result = match command.as_str() {
        "record" => cmd_record(&out, ticks.unwrap_or(DEFAULT_TICKS), trace_out.as_deref()),
        "check" => cmd_check(&baseline_path, tolerance, ticks, trace_out.as_deref()),
        "micro-record" => cmd_micro_record(&out),
        "micro-check" => cmd_micro_check(&baseline_path, tolerance),
        "net-record" => cmd_net_record(
            &out,
            spokes.unwrap_or(NET_DEFAULT_SPOKES),
            pings.unwrap_or(NET_DEFAULT_PINGS),
        ),
        "net-check" => cmd_net_check(&baseline_path, tolerance, spokes, pings),
        "shard-record" => cmd_shard_record(&out),
        "shard-check" => cmd_shard_check(&baseline_path, tolerance),
        "crash-record" => cmd_crash_record(&out),
        "crash-check" => cmd_crash_check(&baseline_path, tolerance),
        "wire-record" => cmd_wire_record(&out),
        "wire-check" => cmd_wire_check(&baseline_path, tolerance),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_record(out: &str, ticks: u64, trace_out: Option<&str>) -> Result<(), String> {
    eprintln!("recording baseline ({ticks} ticks, seed {PLACEMENT_SEED:#x}):");
    let cells = run_matrix(ticks)?;
    let recorder_overhead_pct = measure_recorder_overhead(ticks)?;
    let report = BenchReport {
        schema: SCHEMA_VERSION,
        ticks,
        seed: PLACEMENT_SEED,
        cells,
        recorder_overhead_pct,
    };
    std::fs::write(out, report.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("baseline written to {out}");
    if let Some(path) = trace_out {
        export_trace(path, ticks)?;
        println!("chrome trace written to {path}");
    }
    Ok(())
}

/// Reads a committed baseline, turning "file not found" into a loud,
/// actionable failure: a check with no baseline must never look like a
/// pass (or an incidental I/O hiccup) in CI.
fn read_baseline(baseline_path: &str, record_cmd: &str) -> Result<String, String> {
    match std::fs::read_to_string(baseline_path) {
        Ok(text) => Ok(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(format!(
            "baseline {baseline_path} is missing — a perf gate without a committed baseline \
             would pass vacuously. Record one with `perf {record_cmd}` and commit the file."
        )),
        Err(e) => Err(format!("reading {baseline_path}: {e}")),
    }
}

fn cmd_check(
    baseline_path: &str,
    tolerance: f64,
    ticks: Option<u64>,
    trace_out: Option<&str>,
) -> Result<(), String> {
    let text = read_baseline(baseline_path, "record")?;
    let baseline = BenchReport::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let ticks = ticks.unwrap_or(baseline.ticks);
    eprintln!(
        "checking against {baseline_path} ({} cells, {ticks} ticks, ±{:.0}%):",
        baseline.cells.len(),
        tolerance * 100.0
    );
    let cells = run_matrix(ticks)?;
    let recorder_overhead_pct = measure_recorder_overhead(ticks)?;
    let current = BenchReport {
        schema: SCHEMA_VERSION,
        ticks,
        seed: PLACEMENT_SEED,
        cells,
        recorder_overhead_pct,
    };
    if let Some(path) = trace_out {
        export_trace(path, ticks)?;
        println!("chrome trace written to {path}");
    }
    let violations = baseline.compare(&current, tolerance);
    if violations.is_empty() {
        println!(
            "perf check passed: {} cells within ±{:.0}% of {baseline_path} \
             (recorder overhead {recorder_overhead_pct:+.1}%)",
            baseline.cells.len(),
            tolerance * 100.0
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL {v}");
        }
        Err(format!(
            "{} of {} checks failed against {baseline_path}",
            violations.len(),
            baseline.cells.len() * 5
        ))
    }
}

fn cmd_micro_record(out: &str) -> Result<(), String> {
    eprintln!("recording hot-path micro baseline:");
    let report = micro::run_suite();
    std::fs::write(out, report.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "micro baseline written to {out} ({} cells, tracked diff {:.1}x)",
        report.cells.len(),
        report.diff_speedup
    );
    Ok(())
}

fn cmd_net_record(out: &str, spokes: usize, pings: u32) -> Result<(), String> {
    eprintln!("recording transport baseline ({spokes} spokes, {pings} pings each):");
    let report = run_net_suite(spokes, pings)?;
    if report.throughput_ratio < NET_PARITY_FLOOR {
        return Err(format!(
            "refusing to record a baseline below the parity floor: reactor sustained only \
             {:.2}x the thread-per-peer throughput (floor {NET_PARITY_FLOOR}x)",
            report.throughput_ratio
        ));
    }
    std::fs::write(out, report.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "transport baseline written to {out} (reactor/threaded ratio {:.2}x)",
        report.throughput_ratio
    );
    Ok(())
}

fn cmd_net_check(
    baseline_path: &str,
    tolerance: f64,
    spokes: Option<usize>,
    pings: Option<u32>,
) -> Result<(), String> {
    let text = read_baseline(baseline_path, "net record")?;
    let baseline = NetReport::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let spokes = spokes.unwrap_or(baseline.spokes as usize);
    let pings = pings.unwrap_or(baseline.pings as u32);
    eprintln!(
        "checking transport exchange against {baseline_path} \
         ({spokes} spokes, {pings} pings, ±{:.0}%):",
        tolerance * 100.0
    );
    let current = run_net_suite(spokes, pings)?;
    let mut violations = baseline.compare(&current, tolerance);
    // The one wall-clock gate, measured fresh on this host: one poll
    // thread must sustain at least the thread-per-peer mesh's rate.
    if current.throughput_ratio < NET_PARITY_FLOOR {
        violations.push(format!(
            "[throughput] reactor sustained only {:.2}x the thread-per-peer rate \
             (floor {NET_PARITY_FLOOR}x)",
            current.throughput_ratio
        ));
    }
    if violations.is_empty() {
        println!(
            "perf net passed: {} cells within ±{:.0}% of {baseline_path}, \
             reactor/threaded ratio {:.2}x (floor {NET_PARITY_FLOOR}x)",
            baseline.cells.len(),
            tolerance * 100.0,
            current.throughput_ratio
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL {v}");
        }
        Err(format!("{} net checks failed against {baseline_path}", violations.len()))
    }
}

fn cmd_shard_record(out: &str) -> Result<(), String> {
    eprintln!("recording shard scale baseline (sharded vs full-mesh MSYNC2):");
    let report = run_shard_suite()?;
    let contract = report.contract_violations();
    if !contract.is_empty() {
        for v in &contract {
            eprintln!("FAIL {v}");
        }
        return Err(format!(
            "refusing to record a baseline that breaks the scale contract \
             ({} violations)",
            contract.len()
        ));
    }
    std::fs::write(out, report.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("shard baseline written to {out} ({} cells)", report.cells.len());
    Ok(())
}

fn cmd_shard_check(baseline_path: &str, tolerance: f64) -> Result<(), String> {
    let text = read_baseline(baseline_path, "shard record")?;
    let baseline = ShardReport::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    eprintln!(
        "checking shard scaling against {baseline_path} ({} cells, ±{:.0}%):",
        baseline.cells.len(),
        tolerance * 100.0
    );
    let current = run_shard_suite()?;
    let mut violations = baseline.compare(&current, tolerance);
    // The scale contract, enforced fresh: ratio ceilings per cluster
    // size, sub-linear growth, and non-trivial suppression. The sim is
    // deterministic, so these are exact — any breach is a real change.
    violations.extend(current.contract_violations());
    if violations.is_empty() {
        println!(
            "perf shard passed: {} cells within ±{:.0}% of {baseline_path}",
            baseline.cells.len(),
            tolerance * 100.0
        );
        for c in &current.cells {
            println!(
                "  n={}: sharded {:.0} B/node-tick vs mesh {:.0} (ratio {:.3})",
                c.nodes, c.sharded_bytes_per_node_tick, c.mesh_bytes_per_node_tick, c.traffic_ratio
            );
        }
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL {v}");
        }
        Err(format!("{} shard checks failed against {baseline_path}", violations.len()))
    }
}

fn cmd_crash_record(out: &str) -> Result<(), String> {
    eprintln!("recording crash-recovery baseline (paper protocols, fixed fault plan):");
    let report = run_crash_suite()?;
    let contract = report.contract_violations();
    if !contract.is_empty() {
        for v in &contract {
            eprintln!("FAIL {v}");
        }
        return Err(format!(
            "refusing to record a baseline that breaks the recovery contract \
             ({} violations)",
            contract.len()
        ));
    }
    std::fs::write(out, report.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("crash baseline written to {out} ({} cells)", report.cells.len());
    Ok(())
}

fn cmd_crash_check(baseline_path: &str, tolerance: f64) -> Result<(), String> {
    let text = read_baseline(baseline_path, "crash record")?;
    let baseline = CrashReport::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    eprintln!(
        "checking crash recovery against {baseline_path} ({} cells, ±{:.0}%):",
        baseline.cells.len(),
        tolerance * 100.0
    );
    let current = run_crash_suite()?;
    let mut violations = baseline.compare(&current, tolerance);
    // The recovery contract, enforced fresh: every protocol's run must
    // converge after the restart, the WAL must carry real state, and
    // the unavailability window must stay under the ceiling. The sim is
    // deterministic, so these are exact — any breach is a real change.
    violations.extend(current.contract_violations());
    if violations.is_empty() {
        println!(
            "perf crash passed: {} cells within ±{:.0}% of {baseline_path}",
            baseline.cells.len(),
            tolerance * 100.0
        );
        for c in &current.cells {
            println!(
                "  {}: {} WAL records replayed, down {:.2} ms, converged={}",
                c.protocol,
                c.wal_replayed,
                c.downtime_micros as f64 / 1000.0,
                c.converged
            );
        }
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL {v}");
        }
        Err(format!("{} crash checks failed against {baseline_path}", violations.len()))
    }
}

fn cmd_wire_record(out: &str) -> Result<(), String> {
    eprintln!("recording wire-compression baseline (link sweep, absolute vs compressed):");
    let report = run_wire_suite()?;
    let contract = report.contract_violations();
    if !contract.is_empty() {
        for v in &contract {
            eprintln!("FAIL {v}");
        }
        return Err(format!(
            "refusing to record a baseline that breaks the compression contract \
             ({} violations)",
            contract.len()
        ));
    }
    std::fs::write(out, report.to_json_string()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wire baseline written to {out} ({} cells, MSYNC2 worst-link reduction {:.1}%)",
        report.cells.len(),
        report.msync2_reduction * 100.0
    );
    Ok(())
}

fn cmd_wire_check(baseline_path: &str, tolerance: f64) -> Result<(), String> {
    let text = read_baseline(baseline_path, "wire record")?;
    let baseline = WireReport::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    eprintln!(
        "checking wire compression against {baseline_path} ({} cells, ±{:.0}%):",
        baseline.cells.len(),
        tolerance * 100.0
    );
    let current = run_wire_suite()?;
    let mut violations = baseline.compare(&current, tolerance);
    // The compression contract, enforced fresh: MSYNC2 must clear the
    // reduction floor on its worst link and no cell may inflate. The sim
    // is deterministic, so these are exact — any breach is a real change.
    violations.extend(current.contract_violations());
    if violations.is_empty() {
        println!(
            "perf wire passed: {} cells within ±{:.0}% of {baseline_path}, \
             MSYNC2 worst-link reduction {:.1}% (floor {:.0}%)",
            baseline.cells.len(),
            tolerance * 100.0,
            current.derived_msync2_reduction() * 100.0,
            WIRE_REDUCTION_FLOOR * 100.0
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL {v}");
        }
        Err(format!("{} wire checks failed against {baseline_path}", violations.len()))
    }
}

fn cmd_micro_check(baseline_path: &str, tolerance: f64) -> Result<(), String> {
    let text = read_baseline(baseline_path, "micro record")?;
    let baseline = MicroReport::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    eprintln!(
        "checking hot-path micro suite against {baseline_path} ({} cells, ±{:.0}%):",
        baseline.cells.len(),
        tolerance * 100.0
    );
    let current = micro::run_suite();
    let mut violations = baseline.compare(&current, tolerance);
    // The one timing gate: the change-proportional diff path must beat
    // the full scan by the contract floor, measured fresh on this host.
    if current.diff_speedup < MICRO_SPEEDUP_FLOOR {
        violations.push(format!(
            "[diff_tracked_64k] speedup {:.2}x below the {MICRO_SPEEDUP_FLOOR}x floor",
            current.diff_speedup
        ));
    }
    if violations.is_empty() {
        println!(
            "perf micro passed: {} cells within ±{:.0}% of {baseline_path}, \
             tracked diff {:.1}x (floor {MICRO_SPEEDUP_FLOOR}x)",
            baseline.cells.len(),
            tolerance * 100.0,
            current.diff_speedup
        );
        Ok(())
    } else {
        for v in &violations {
            eprintln!("FAIL {v}");
        }
        Err(format!("{} micro checks failed against {baseline_path}", violations.len()))
    }
}
