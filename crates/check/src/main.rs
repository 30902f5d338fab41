//! `sdso-check` CLI: the workspace's lint pass and schedule explorer.
//!
//! ```text
//! sdso-check lint    [--root DIR] [--allow-dir DIR] [--json PATH|-]
//!                    [--list-allows]
//! sdso-check explore [--protocol NAME|all] [--depth N] [--max-runs N]
//!                    [--min-distinct N]
//! sdso-check replay  --protocol NAME [--schedule N,N,...]
//! sdso-check race    TRACE.json [TRACE.json ...]
//! ```
//!
//! Exit codes: 0 clean, 1 findings or violated invariants, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use sdso_check::scenarios::{self, Protocol};
use sdso_sim::{Explorer, ReplayOracle, Schedule};

const USAGE: &str = "\
usage:
  sdso-check lint    [--root DIR] [--allow-dir DIR] [--json PATH|-] [--list-allows]
  sdso-check explore [--protocol NAME|all] [--depth N] [--max-runs N] [--min-distinct N]
  sdso-check replay  --protocol NAME [--schedule N,N,...]
  sdso-check race    TRACE.json [TRACE.json ...]

protocols: bsync msync msync2 ec churn churn-ec crash-churn codec-v2 codec-v2-arq
           (explore default: all nine)
explore defaults: --depth 12 --max-runs 600 --min-distinct 0
race: TRACE.json is an event log exported by sdso-obs (ObsSet::event_log)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("explore") => explore(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("race") => race(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("sdso-check: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value of `--flag VALUE` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(at + 1).cloned().map(Some).ok_or_else(|| format!("{flag} needs a value"))
}

/// Rejects any `--flag` not in `known`.
fn reject_unknown(args: &[String], known: &[&str]) -> Result<(), String> {
    for (i, a) in args.iter().enumerate() {
        if a.starts_with("--") && !known.contains(&a.as_str()) {
            return Err(format!("unknown flag `{a}`\n{USAGE}"));
        }
        if a.starts_with("--") && args.get(i + 1).is_none() {
            return Err(format!("{a} needs a value"));
        }
    }
    Ok(())
}

fn parse_num(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{flag} expects a number, got `{v}`")),
    }
}

fn lint(args: &[String]) -> Result<bool, String> {
    // `--list-allows` is valueless; strip it before flag parsing.
    let list_allows = args.iter().any(|a| a == "--list-allows");
    let args: Vec<String> = args.iter().filter(|a| *a != "--list-allows").cloned().collect();
    let args = args.as_slice();
    reject_unknown(args, &["--root", "--allow-dir", "--json"])?;
    let root = PathBuf::from(flag_value(args, "--root")?.unwrap_or_else(|| ".".into()));
    let allow_dir = flag_value(args, "--allow-dir")?.map(PathBuf::from);
    let report = sdso_check::run_lint(&root, allow_dir.as_deref())?;
    for d in &report.diagnostics {
        println!("{d}");
    }
    if list_allows {
        println!("allowlist entries ({}):", report.allow_usage.len());
        for u in &report.allow_usage {
            println!("  [{}] {} hit(s)  {}  ({})", u.rule, u.hits, u.entry, u.location);
        }
    }
    if let Some(path) = flag_value(args, "--json")? {
        let json = sdso_check::diag::to_json(&report.diagnostics, report.files_scanned);
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    println!(
        "sdso-check lint: {} violation(s) in {} file(s) scanned",
        report.diagnostics.len(),
        report.files_scanned
    );
    Ok(report.diagnostics.is_empty())
}

fn explore(args: &[String]) -> Result<bool, String> {
    reject_unknown(args, &["--protocol", "--depth", "--max-runs", "--min-distinct"])?;
    let protocols = match flag_value(args, "--protocol")?.as_deref() {
        None | Some("all") => Protocol::ALL.to_vec(),
        Some(name) => {
            vec![Protocol::from_name(name).ok_or_else(|| format!("unknown protocol `{name}`"))?]
        }
    };
    let depth = parse_num(args, "--depth", 12)?;
    let max_runs = parse_num(args, "--max-runs", 600)?;
    let min_distinct = parse_num(args, "--min-distinct", 0)?;
    let explorer = Explorer::new(depth, max_runs);
    let mut ok = true;
    for protocol in protocols {
        let report = scenarios::explore(protocol, explorer);
        let status = match &report.violation {
            Some(_) => "VIOLATION",
            None if report.distinct < min_distinct => "TOO FEW",
            None => "ok",
        };
        println!(
            "explore {:12} depth={depth} runs={} distinct={} max_choice_points={}{} .. {status}",
            protocol.name(),
            report.runs,
            report.distinct,
            report.max_choice_points,
            if report.truncated { " (truncated)" } else { "" },
        );
        if let Some(v) = &report.violation {
            ok = false;
            println!("  invariant violated: {}", v.message);
            println!(
                "  minimized schedule: [{}]  (replay with: sdso-check replay --protocol {} \
                 --schedule {})",
                render(&v.schedule),
                protocol.name(),
                if v.schedule.is_empty() { "0".to_owned() } else { render(&v.schedule) },
            );
        } else if report.distinct < min_distinct {
            ok = false;
            println!(
                "  coverage too small: {} distinct schedules < required {min_distinct}; \
                 raise --depth/--max-runs or extend the scenario",
                report.distinct
            );
        }
    }
    Ok(ok)
}

fn replay(args: &[String]) -> Result<bool, String> {
    reject_unknown(args, &["--protocol", "--schedule"])?;
    let name = flag_value(args, "--protocol")?.ok_or("replay needs --protocol")?;
    let protocol =
        Protocol::from_name(&name).ok_or_else(|| format!("unknown protocol `{name}`"))?;
    let schedule: Schedule = match flag_value(args, "--schedule")? {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad schedule entry `{s}`")))
            .collect::<Result<_, _>>()?,
    };
    let oracle = Arc::new(ReplayOracle::new(schedule.clone()));
    match scenarios::run_once(protocol, oracle) {
        Ok(()) => {
            println!("replay {} [{}]: invariants hold", protocol.name(), render(&schedule));
            Ok(true)
        }
        Err(message) => {
            println!("replay {} [{}]: {message}", protocol.name(), render(&schedule));
            Ok(false)
        }
    }
}

fn race(args: &[String]) -> Result<bool, String> {
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        return Err(format!("race takes trace file paths only\n{USAGE}"));
    }
    let mut clean = true;
    for path in args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let streams = sdso_check::race::parse_event_log(&text)
            .map_err(|e| format!("{path}: malformed event log: {e}"))?;
        let report = sdso_check::race::analyze(&streams);
        for r in &report.races {
            println!("{path}: {r}");
        }
        println!(
            "race {path}: {} race(s), {} node(s), {} event(s), {} unmatched sync, {} dropped",
            report.races.len(),
            report.nodes,
            report.events,
            report.unmatched,
            report.dropped
        );
        clean &= report.races.is_empty();
    }
    Ok(clean)
}

fn render(schedule: &[usize]) -> String {
    schedule.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}
