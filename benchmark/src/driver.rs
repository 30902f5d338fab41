//! Running a workload: one child process per cell under a wall deadline,
//! the cross-cell output checks, and the result line.

use std::io::{Read as _, Write as _};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sdso_bench::json::Json;
use sdso_game::Protocol;

use crate::affinity::{pin_this_thread, Pin};
use crate::cell::{run_cell, Sizing};
use crate::report::{report, CellReport, Metrics};
use crate::timed::chrome_trace;
use crate::workload::{
    is_lookahead, median, per_layer, protocol_by_suffix, suffix, warmup_ticks, MetricDef, Workload,
    END_TO_END, PER_LAYER_FAMILIES, RUN_DEADLINE_SECS, RUN_SECONDS, SIM16_TICKS,
};
use crate::Args;

/// Where traced cells leave their Chrome traces, relative to the working
/// directory (the checkout root).
const TRACE_DIR: &str = "benchmark/out";

pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// A `--smoke` run: `seconds` is already a twentieth.
    pub smoke: bool,
    pub traced: bool,
    pub cell_deadline_secs: f64,
    pub record: Option<String>,
    /// Overrides the workload's CPU placement (`Workload::pin`); only for
    /// measuring what the placement does.
    pub pin: Option<Pin>,
}

// ---------------------------------------------------------------------
// The cell's process
// ---------------------------------------------------------------------

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_string(s: &str) -> String {
    Json::Str(s.to_owned()).pretty().trim_end().to_owned()
}

fn metrics_json(metrics: &Metrics) -> String {
    let members: Vec<String> =
        metrics.iter().map(|(name, value)| format!("{}:{value}", json_string(name))).collect();
    format!("{{{}}}", members.join(","))
}

/// `sdso-benchmark cell …`: runs one cell in this process and prints its
/// [`CellReport`] as one JSON line.
pub fn cell_main(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let name: String = args.get("protocol")?.ok_or("--protocol is required")?;
    let protocol = protocol_by_suffix(&name).ok_or_else(|| format!("unknown protocol {name:?}"))?;
    let sizing = match (args.get::<u64>("ticks")?, args.get::<f64>("seconds")?) {
        (Some(ticks), None) => Sizing::Ticks(ticks),
        (None, Some(secs)) => Sizing::Seconds(secs),
        _ => return Err("exactly one of --ticks and --seconds is required".to_owned()),
    };
    let traced = args.get::<u8>("traced")?.unwrap_or(0) != 0;

    let pin = args.get::<Pin>("pin")?.unwrap_or(workload.pin());
    if pin == Pin::One && !pin_this_thread(0) {
        eprintln!("sdso-benchmark: could not pin the cell to one CPU; expect noisier times");
    }
    let first_world = args.get::<u64>("first-world")?.unwrap_or(0);
    let worlds = first_world..first_world + args.get("worlds")?.unwrap_or(workload.worlds);
    let outcome = run_cell(workload, protocol, args.seed()?, worlds, sizing, traced, pin)?;
    let mut cell = report(workload, protocol, &outcome);
    cell.metrics.insert("peak_rss_mb".to_owned(), peak_rss_mb());
    // The first world's spans go to the trace file; all feed the split.
    if let Some(spans) = outcome.worlds.first().and_then(|w| w.spans.as_ref()) {
        let path = format!("{TRACE_DIR}/{}.{name}.trace.json", workload.name);
        std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, chrome_trace(spans)))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{{\"ticks\":{},\"nodes\":{},\"error\":{},\"outcome_fp\":\"{:016x}\",\"traffic_fp\":\"{:016x}\",\"secs_per_mod\":[{}],\"metrics\":{}}}",
        cell.ticks,
        cell.nodes,
        json_string(&cell.error),
        cell.outcome_fp,
        cell.traffic_fp,
        cell.secs_per_mod.iter().map(f64::to_string).collect::<Vec<_>>().join(","),
        metrics_json(&cell.metrics)
    );
    Ok(())
}

fn parse_cell_report(line: &str) -> Result<CellReport, String> {
    let json = Json::parse(line)?;
    let field = |name: &str| json.get(name).ok_or_else(|| format!("cell report lacks {name:?}"));
    let fp = |name: &str| -> Result<u64, String> {
        let hex = field(name)?.as_str().ok_or("fingerprint is not a string")?;
        u64::from_str_radix(hex, 16).map_err(|e| format!("{name}: {e}"))
    };
    let Json::Obj(members) = field("metrics")? else {
        return Err("metrics is not an object".to_owned());
    };
    Ok(CellReport {
        ticks: field("ticks")?.as_u64().ok_or("ticks is not a number")?,
        nodes: field("nodes")?.as_u64().ok_or("nodes is not a number")?,
        error: field("error")?.as_str().ok_or("error is not a string")?.to_owned(),
        outcome_fp: fp("outcome_fp")?,
        traffic_fp: fp("traffic_fp")?,
        secs_per_mod: field("secs_per_mod")?
            .as_array()
            .ok_or("secs_per_mod is not an array")?
            .iter()
            .map(|v| v.as_f64().ok_or("secs_per_mod holds a non-number"))
            .collect::<Result<_, _>>()?,
        metrics: members
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("metric is not a number")?)))
            .collect::<Result<_, String>>()?,
    })
}

// ---------------------------------------------------------------------
// The workload's process
// ---------------------------------------------------------------------

/// One cell for a child process to run: a protocol, and which of the
/// workload's worlds it plays at what size.
#[derive(Clone, Copy)]
struct CellSpec {
    protocol: Protocol,
    sizing: Sizing,
    traced: bool,
    first_world: u64,
    worlds: u64,
}

/// Starts one cell in a child process and waits for it until `deadline`;
/// on expiry the child is killed.
fn spawn_cell(spec: &RunSpec, cell: CellSpec, deadline: Instant) -> Result<CellReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["cell", "--workload", spec.workload.name, "--protocol", suffix(cell.protocol)])
        .args(["--seed", &spec.seed.to_string(), "--traced", &u8::from(cell.traced).to_string()])
        .args(["--first-world", &cell.first_world.to_string()])
        .args(["--worlds", &cell.worlds.to_string()]);
    if let Some(pin) = spec.pin {
        command.args(["--pin", pin.name()]);
    }
    match cell.sizing {
        Sizing::Ticks(ticks) => command.args(["--ticks", &ticks.to_string()]),
        Sizing::Seconds(secs) => command.args(["--seconds", &secs.to_string()]),
    };
    let mut child =
        command.stdout(Stdio::piped()).spawn().map_err(|e| format!("spawning the cell: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Drained on its own thread so a chatty child can never block on a
    // full pipe while this one polls for its exit.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait().map_err(|e| format!("waiting for the cell: {e}"))? {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let text = reader.join().map_err(|_| "the cell's stdout reader panicked")?;
    match status {
        None => Err("killed by the watchdog at its wall deadline".to_owned()),
        Some(status) if !status.success() => Err(format!("cell process ended with {status}")),
        Some(_) => parse_cell_report(text.lines().last().unwrap_or_default()),
    }
}

/// Tallies node-ticks attempted and failed, and every failed check.
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// When the whole run must have ended, whatever its cells do.
    run_deadline: Instant,
}

impl Tally {
    /// Runs one cell and books it; a cell that returned no report, or
    /// failed a check, counts all its node-ticks as failed.
    fn cell(&mut self, spec: &RunSpec, cell: CellSpec) -> Option<CellReport> {
        let label = format!(
            "{}/{}{} worlds {}..{}",
            spec.workload.name,
            suffix(cell.protocol),
            if cell.traced { "/traced" } else { "" },
            cell.first_world,
            cell.first_world + cell.worlds
        );
        let deadline = (Instant::now() + Duration::from_secs_f64(spec.cell_deadline_secs))
            .min(self.run_deadline);
        match spawn_cell(spec, cell, deadline) {
            Ok(report) => {
                let ops = report.nodes * report.ticks;
                self.attempted += ops;
                if !report.error.is_empty() {
                    self.failed += ops;
                    self.failures.push(format!("{label}: {}", report.error));
                }
                Some(report)
            }
            Err(e) => {
                // The tick count of a cell sized in seconds is unknown
                // until its warm-up ends; book the least it attempted.
                let ticks = match cell.sizing {
                    Sizing::Ticks(ticks) => ticks,
                    Sizing::Seconds(_) => warmup_ticks(cell.protocol),
                };
                let ops = u64::from(spec.workload.teams) * cell.worlds * ticks;
                self.attempted += ops;
                self.failed += ops;
                self.failures.push(format!("{label}: {e}"));
                None
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The sizing of a protocol's first undecorated cell, which plays
/// `1 / per_protocol` of the protocol's quarter of the run. Later cells of
/// the protocol reuse its tick count.
fn first_sizing(spec: &RunSpec, per_protocol: u64) -> Sizing {
    if spec.workload.is_wall() {
        Sizing::Seconds(spec.seconds / (4 * per_protocol) as f64)
    } else {
        // Virtual-time cells all play every world, so a shorter cell has
        // fewer ticks, not fewer worlds.
        let ticks = SIM16_TICKS as f64 * spec.seconds / RUN_SECONDS as f64
            * (spec.workload.rounds as f64 / per_protocol as f64);
        Sizing::Ticks((ticks as u64).max(2))
    }
}

/// `--trace 0`: undecorated cells only, and the end-to-end metrics.
///
/// The worlds of each protocol are played in `rounds` cells, and the
/// rounds of the four protocols take turns, so that a slow spell of the
/// host lands on a minority of every protocol's worlds instead of on most
/// of one protocol's.
fn run_end_to_end(spec: &RunSpec, tally: &mut Tally) -> Metrics {
    let w = spec.workload;
    let per_round = w.worlds / w.rounds;
    let mut per_world = [const { Vec::new() }; 4];
    let mut ticks = [None; 4];
    let (mut setups, mut rss) = (Vec::new(), 0.0f64);
    for round in 0..w.rounds {
        for (p, protocol) in Protocol::PAPER.into_iter().enumerate() {
            let cell = CellSpec {
                protocol,
                sizing: ticks[p].map_or(first_sizing(spec, w.rounds), Sizing::Ticks),
                traced: false,
                first_world: round * per_round,
                worlds: per_round,
            };
            let Some(report) = tally.cell(spec, cell) else { continue };
            ticks[p] = Some(report.ticks);
            per_world[p].extend(report.secs_per_mod);
            setups.push(report.metrics["setup_s"]);
            rss = rss.max(report.metrics["peak_rss_mb"]);
        }
    }
    let mut out = Metrics::new();
    for (protocol, values) in Protocol::PAPER.into_iter().zip(per_world) {
        let us: Vec<String> = values.iter().map(|v| format!("{:.2}", v * 1e6)).collect();
        println!("# secs_per_mod.{} per world, us: {}", suffix(protocol), us.join(" "));
        if values.len() as u64 == w.worlds {
            out.insert(format!("secs_per_mod.{}", suffix(protocol)), w.over_worlds(values));
        }
    }
    out.insert("setup_s".to_owned(), median(setups));
    out.insert("peak_rss_mb".to_owned(), rss);
    out
}

/// `--trace 1`: per protocol one round's worlds undecorated and then the
/// same worlds at the same tick count through `TimedEndpoint`, then the
/// direct layer timings; the per-layer metrics.
fn run_per_layer(spec: &RunSpec, tally: &mut Tally) -> Metrics {
    let w = spec.workload;
    let mut out = Metrics::new();
    let mut sum_error = 0.0f64;
    for protocol in Protocol::PAPER {
        let sfx = suffix(protocol);
        let plain_spec = CellSpec {
            protocol,
            sizing: first_sizing(spec, 2),
            traced: false,
            first_world: 0,
            worlds: w.worlds / w.rounds,
        };
        let Some(plain) = tally.cell(spec, plain_spec) else { continue };
        let traced_spec =
            CellSpec { sizing: Sizing::Ticks(plain.ticks), traced: true, ..plain_spec };
        let Some(traced) = tally.cell(spec, traced_spec) else { continue };
        // Equal ticks, equal outcome: always in virtual time, and for the
        // lookahead family on sockets too. EC's message interleaving on
        // real sockets varies run to run, so there it is only held to
        // completion and convergence.
        if !w.is_wall() || is_lookahead(protocol) {
            tally.check(plain.outcome_fp == traced.outcome_fp, || {
                format!("{}/{sfx}: traced and untraced outcomes differ", w.name)
            });
        }
        if !w.is_wall() {
            let same = plain.traffic_fp == traced.traffic_fp
                && plain.metrics["secs_per_mod"].to_bits()
                    == traced.metrics["secs_per_mod"].to_bits();
            tally.check(same, || {
                format!("{}/{sfx}: two runs of one seed are not bit-equal", w.name)
            });
        }
        let overhead =
            100.0 * (traced.metrics["secs_per_mod"] / plain.metrics["secs_per_mod"] - 1.0);
        println!(
            "# {sfx}: {} worlds x {} ticks; tick percentiles over {} complete traced ticks",
            plain_spec.worlds,
            plain.ticks,
            traced.metrics.get("trace.tick_samples").copied().unwrap_or(0.0)
        );
        let carried =
            PER_LAYER_FAMILIES.iter().filter(|(.., scope)| scope.protocols().contains(&protocol));
        for &(name, ..) in carried {
            // Counters come from the undecorated cell, spans from the
            // traced one (the undecorated cell has no span metrics).
            let value = match name {
                "trace.overhead_pct" => Some(overhead),
                _ => plain.metrics.get(name).or_else(|| traced.metrics.get(name)).copied(),
            };
            if let Some(value) = value {
                out.insert(format!("{name}.{sfx}"), value);
            }
        }
        sum_error =
            sum_error.max(traced.metrics.get("trace.sum_error_pct").copied().unwrap_or(100.0));
    }
    out.insert("trace.sum_error_pct".to_owned(), sum_error);
    // A smoke world on sockets lasts 30 ms, of which what `run_node` does
    // before its first and after its last endpoint call is up to a tenth:
    // true, and no fault of the split.
    if !(spec.smoke && w.is_wall()) {
        tally.check(sum_error < 2.0, || {
            format!("trace.sum_error_pct = {sum_error} (must stay < 2)")
        });
    }
    crate::micro::direct_timings(w, spec.seed, &mut out);
    out
}

/// Runs the workload, prints every metric by name with its unit and, as
/// the last line, the result object. Returns whether every check passed.
pub fn run_workload(spec: &RunSpec) -> Result<bool, String> {
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        run_deadline: Instant::now() + Duration::from_secs(RUN_DEADLINE_SECS),
    };
    println!("# {}: {}", spec.workload.name, spec.workload.why);
    let (metrics, defs) = if spec.traced {
        (run_per_layer(spec, &mut tally), per_layer())
    } else {
        (run_end_to_end(spec, &mut tally), END_TO_END.to_vec())
    };

    let mut members = Vec::new();
    for MetricDef { name, unit, higher_is_better, .. } in &defs {
        let value = metrics.get(name.as_ref()).copied().filter(|v| v.is_finite());
        tally.check(value.is_some(), || format!("{name}: not measured"));
        let value = value.unwrap_or(0.0);
        let better = if *higher_is_better { "higher" } else { "lower" };
        println!("{name:<40} {value:>16.9} {unit:<6} ({better} is better)");
        members.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_string(name),
            json_string(unit)
        ));
    }
    for failure in &tally.failures {
        eprintln!("FAILED CHECK: {failure}");
    }
    println!("ops_failed / ops_attempted = {} / {} node-ticks", tally.failed, tally.attempted);
    let correct = tally.failures.is_empty();
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        members.join(",")
    );
    if let Some(path) = &spec.record {
        let record = format!(
            "{{\"workload\":\"{}\",\"seed\":\"{}\",\"trace\":{},\"result\":{line}}}\n",
            spec.workload.name,
            spec.seed,
            u8::from(spec.traced)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(correct)
}
