//! The paper's evaluation application: the distributed tank game, run on
//! the virtual-time cluster with a protocol of your choice.
//!
//! ```text
//! cargo run -p sdso-harness --example tank_game -- [PROTOCOL] [TEAMS] [RANGE] [TICKS]
//! ```
//!
//! * `PROTOCOL` — `bsync` | `msync` | `msync2` | `msync2-shard` | `ec` |
//!   `lrc` | `causal` (default `msync2`)
//! * `TEAMS` — number of processes/teams, ≥ 2 (default 4)
//! * `RANGE` — sensing range in blocks (default 1)
//! * `TICKS` — iterations per process (default 200)
//!
//! Add `--render` to draw each process's final replica of the world —
//! under MSYNC2 the views visibly differ in regions whose tanks never
//! came within interaction range (spatial consistency at work).
//!
//! Add `--trace FILE` to record the run with the flight recorder in
//! full mode and write a Chrome trace (one track per process, spans
//! for exchanges/waits/lock holds) — open it at
//! <https://ui.perfetto.dev>. The merged counters and latency
//! histograms are printed to stdout as well.
//!
//! Add `--churn` to run under dynamic membership: two players leave at
//! staggered mid-run barriers and two late joiners take their slots via
//! snapshot transfer (needs ≥ 4 teams and a lookahead/EC protocol).
//!
//! Add `--crash` to run under fail-stop crashes: one player dies abruptly
//! in the first half of the run and recovers from its write-ahead log
//! (rejoining via snapshot with its pre-crash identity), another dies in
//! the second half and stays down (needs ≥ 4 teams and a lookahead/EC
//! protocol).

use sdso_core::{text_histogram_dump, ObsSet};
use sdso_game::{
    render, run_node_with, scoreboard, Pos, Protocol, RenderOptions, RunPlan, Scenario,
};
use sdso_harness::{default_churn_plan, default_crash_plan};
use sdso_net::SimSpan;
use sdso_net::TraceConfig;
use sdso_sim::{NetworkModel, SimCluster};

fn parse_protocol(name: &str) -> Option<Protocol> {
    match name.to_ascii_lowercase().as_str() {
        "bsync" => Some(Protocol::Bsync),
        "msync" => Some(Protocol::Msync),
        "msync2" => Some(Protocol::Msync2),
        "msync2-shard" | "shard" => Some(Protocol::Msync2Shard),
        "ec" | "entry" => Some(Protocol::Entry),
        "lrc" => Some(Protocol::Lrc),
        "causal" => Some(Protocol::Causal),
        _ => None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let do_render = args.iter().any(|a| a == "--render");
    args.retain(|a| a != "--render");
    let do_churn = args.iter().any(|a| a == "--churn");
    args.retain(|a| a != "--churn");
    let do_crash = args.iter().any(|a| a == "--crash");
    args.retain(|a| a != "--crash");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|at| {
            if at + 1 >= args.len() {
                return Err("--trace needs a file path");
            }
            Ok(args.drain(at..=at + 1).nth(1).expect("two drained"))
        })
        .transpose()?;
    let protocol = args
        .first()
        .map(|a| parse_protocol(a).ok_or(format!("unknown protocol {a:?}")))
        .transpose()?
        .unwrap_or(Protocol::Msync2);
    let teams: u16 = args.get(1).map(|a| a.parse()).transpose()?.unwrap_or(4);
    if teams < 2 {
        return Err("TEAMS must be at least 2 (the game needs an opponent)".into());
    }
    let range: u16 = args.get(2).map(|a| a.parse()).transpose()?.unwrap_or(1);
    let ticks: u64 = args.get(3).map(|a| a.parse()).transpose()?.unwrap_or(200);

    // The default plans' own preconditions; which plans a protocol supports
    // is the driver's call.
    if (do_churn || do_crash) && teams < 4 {
        return Err(
            "--churn and --crash need at least 4 teams (a donor, two to lose, a spare)".into()
        );
    }
    if do_crash && ticks < 8 {
        return Err("--crash needs at least 8 ticks (crash, restart, a tail of play)".into());
    }
    let config = if trace_path.is_some() { TraceConfig::full() } else { TraceConfig::off() };
    let obs_set = ObsSet::new(teams, config);
    let plan = RunPlan {
        membership: do_churn.then(|| default_churn_plan(usize::from(teams), ticks)),
        faults: do_crash.then(|| default_crash_plan(0x5D50_C4A5, usize::from(teams), ticks)),
        obs: Some(obs_set.clone()),
    };
    let scenario = Scenario::paper(teams, range).with_ticks(ticks);
    plan.views(&scenario, protocol).map_err(|e| e.to_string())?;

    println!(
        "running {protocol} with {teams} teams, range {range}, {ticks} ticks{} \
         on a simulated {}-node cluster (10 Mbps switched Ethernet model)…",
        if do_churn {
            ", with mid-run churn"
        } else if do_crash {
            ", with seeded crashes"
        } else {
            ""
        },
        teams
    );
    if let Some(membership) = &plan.membership {
        for (tick, change) in membership.changes() {
            println!("  tick {tick}: {:?} join, {:?} leave", change.joined, change.left);
        }
    }
    if let Some(faults) = &plan.faults {
        for crash in &faults.crashes {
            match crash.restart_tick {
                Some(r) => println!(
                    "  tick {}: process {} crashes, restarts at tick {r}",
                    crash.crash_tick, crash.node
                ),
                None => println!(
                    "  tick {}: process {} crashes and stays down",
                    crash.crash_tick, crash.node
                ),
            }
        }
    }

    let (run_scenario, run_plan) = (scenario.clone(), plan.clone());
    let outcome =
        SimCluster::new(usize::from(teams), NetworkModel::paper_testbed()).run(move |ep| {
            run_node_with(ep, &run_scenario, protocol, &run_plan).map_err(sdso_net::NetError::from)
        })?;

    println!(
        "{:>4} {:>7} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10} {:>9}",
        "team", "score", "goals", "deaths", "shots", "bonus", "exec", "ms/mod", "msgs sent"
    );
    for node in &outcome.nodes {
        let stats = node.result.as_ref().map_err(|e| format!("node failed: {e}"))?;
        println!(
            "{:>4} {:>7} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10.2} {:>9}",
            stats.node,
            stats.score,
            stats.goals,
            stats.deaths,
            stats.shots,
            stats.bonuses,
            format!("{}", stats.exec_time),
            stats.time_per_modification().as_millis_f64(),
            stats.net.total_sent(),
        );
    }
    let total = outcome.total_metrics();
    println!(
        "\ncluster totals: {} messages ({} data, {} control), {:.2} MB modelled wire traffic",
        total.total_sent(),
        total.data_sent.msgs,
        total.control_sent.msgs,
        total.bytes_sent() as f64 / 1e6,
    );
    println!("virtual makespan: {}", outcome.makespan());

    if do_churn || do_crash {
        let stats: Vec<_> = outcome.nodes.iter().filter_map(|n| n.result.as_ref().ok()).collect();
        let view_changes: u64 = stats.iter().map(|s| s.dso.view_changes).sum();
        let snapshots: u64 = stats.iter().map(|s| s.dso.snapshots_sent).sum();
        let snapshot_bytes: u64 = stats.iter().map(|s| s.dso.snapshot_bytes).sum();
        let compacted: u64 = stats.iter().map(|s| s.dso.slots_compacted).sum();
        println!(
            "membership: {view_changes} view-change applications, {snapshots} snapshot(s) \
             ({snapshot_bytes} bytes) to late joiners, {compacted} diff slot(s) compacted"
        );
    }
    if do_crash {
        let stats: Vec<_> = outcome.nodes.iter().filter_map(|n| n.result.as_ref().ok()).collect();
        let recoveries: u64 = stats.iter().map(|s| s.recoveries).sum();
        let downtime = stats.iter().fold(SimSpan::ZERO, |acc, s| acc + s.recovery_time);
        println!(
            "recovery: {recoveries} journal recover{}, {downtime} of summed virtual unavailability",
            if recoveries == 1 { "y" } else { "ies" }
        );
    }

    if let Some(path) = &trace_path {
        std::fs::write(path, obs_set.chrome_trace())?;
        println!(
            "\nchrome trace written to {path} ({} events, {} dropped) — \
             open it at https://ui.perfetto.dev",
            obs_set.total_events(),
            obs_set.total_dropped(),
        );
        print!("{}", text_histogram_dump(&obs_set.merged_snapshot()));
    }

    if do_render {
        for node in &outcome.nodes {
            let stats = node.result.as_ref().expect("checked above");
            let world = stats.final_world.clone();
            let grid = scenario.grid;
            let view = move |pos: Pos| world[grid.object_at(pos).0 as usize];
            println!(
                "
final replica at process {}:",
                stats.node
            );
            print!("{}", render(&scenario, &view, RenderOptions::default()));
            println!("{}", scoreboard(&scenario, &view));
        }
    }
    Ok(())
}
