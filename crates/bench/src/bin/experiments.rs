//! Regenerates the paper's evaluation figures on the virtual-time cluster.
//!
//! ```text
//! cargo run --release -p sdso-bench --bin experiments -- [COMMAND] [FLAGS]
//!
//! COMMANDS
//!   fig5        Figure 5: normalised execution time per process
//!   fig6        Figure 6: total message transfers
//!   fig7        Figure 7: data message transfers
//!   fig8        Figure 8: protocol overhead as % of execution time
//!   ext-size    Ext. A: effect of object payload size (paper future work 2)
//!   ext-block   Ext. B: blocking-time breakdown (paper future work 1)
//!   ext-diff    Ext. C: diff-merging ablation
//!   ext-proto   Ext. D: LRC and causal memory alongside the paper's four
//!   churn       Ext. E: dynamic membership (leave/join barriers), clean + faulty net
//!   crash       Ext. G: fail-stop crashes with WAL + snapshot recovery, 16 and 64 teams
//!   wire        Ext. H: v1 vs codec-v2 bytes and exchange time, four link speeds (fixed shape)
//!   ext-default Ext. J: v1 vs the default wire, time and messages per tick at the widest range
//!   all         Everything above, in order
//!   shard       Ext. F: sharded vs full-mesh traffic at 64 and 256 nodes (fixed shape;
//!               about seven minutes, so not part of `all`)
//!
//! FLAGS
//!   --quick     Small grid (2–4 processes, 40 ticks) for a fast look
//!   --csv       Emit CSV instead of aligned text
//!   --ticks N   Override iterations per process
//!   --seeds K   Average over K placement seeds (default 1, the paper's setup)
//!   --out DIR   Also write each command's tables to DIR/<command>.{txt,csv}
//! ```
//!
//! Every command prints where its output went; `all` keeps going past a
//! failing scenario and exits non-zero if any scenario failed to
//! converge, listing the failures at the end.

use sdso_game::{Protocol, Scenario};
use sdso_harness::{
    chaos_plan, chaos_retry_config, churn_table, crash_table, default_churn_plan,
    default_crash_plan, shard_table, wire_sweep, wire_table, Sweep, Table,
};
use sdso_sim::NetworkModel;

/// Ext. E: the game under planned membership churn — two staggered
/// leave+join barriers — on a clean network and again under the chaos
/// fault plan, for every protocol with a view-change barrier.
fn churn_tables(sweep: &Sweep) -> Result<Vec<Table>, Box<dyn std::error::Error>> {
    let teams: u16 = 8;
    let ticks = sweep.ticks.max(12);
    let plan = default_churn_plan(usize::from(teams), ticks);
    let clean = Scenario::paper(teams, 1).with_ticks(ticks);
    let clean_table =
        churn_table(&clean, NetworkModel::paper_testbed(), &plan, None, &Protocol::PAPER)?;
    let faulty = clean.clone().with_reliability(chaos_retry_config());
    let faults = chaos_plan(0x5D50_1997);
    let faulty_table = churn_table(
        &faulty,
        NetworkModel::paper_testbed(),
        &plan,
        Some(&faults),
        &Protocol::PAPER,
    )?;
    Ok(vec![clean_table, faulty_table])
}

/// Ext. G: the game under seeded fail-stop crashes — one WAL recovery in
/// the first half, one unrecovered crash in the second — at 16 teams and
/// at 64, for every protocol with a view-change barrier. Run length is
/// held off the periodic checkpoint boundary so the recovery genuinely
/// replays log records.
fn crash_tables(sweep: &Sweep) -> Result<Vec<Table>, Box<dyn std::error::Error>> {
    let ticks = sweep.ticks.clamp(12, 36);
    let ticks = if ticks % 32 == 0 { ticks + 4 } else { ticks };
    let mut tables = Vec::new();
    for teams in [16u16, 64] {
        let scenario = Scenario::paper(teams, 1).with_ticks(ticks).with_seed(0x5D50_C4A5);
        let faults = default_crash_plan(0x5D50_C4A5, usize::from(teams), ticks);
        tables.push(crash_table(
            &scenario,
            NetworkModel::paper_testbed(),
            &faults,
            &Protocol::PAPER,
        )?);
    }
    Ok(tables)
}

fn print_tables(tables: &[Table], csv: bool) {
    for table in tables {
        if csv {
            println!("# {}", table.title);
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut quick = false;
    let mut csv = false;
    let mut ticks: Option<u64> = None;
    let mut seeds: Option<u64> = None;
    let mut out_dir: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--ticks" => {
                ticks = Some(it.next().ok_or("--ticks needs a value")?.parse()?);
            }
            "--seeds" => {
                seeds = Some(it.next().ok_or("--seeds needs a value")?.parse()?);
            }
            "--out" => {
                out_dir = Some(it.next().ok_or("--out needs a directory")?.clone());
            }
            cmd if !cmd.starts_with('-') => command = cmd.to_owned(),
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }

    let mut sweep = if quick { Sweep::quick() } else { Sweep::paper() };
    if let Some(t) = ticks {
        sweep.ticks = t;
    }
    if let Some(k) = seeds {
        sweep.seeds = (0..k).map(|i| 0x5D50_1997 + i * 7919).collect();
    }

    eprintln!(
        "grid: processes {:?}, ranges {:?}, {} ticks, {} seed(s)",
        sweep.process_counts,
        sweep.ranges,
        sweep.ticks,
        sweep.seeds.len()
    );

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)?;
    }

    let run = |name: &str, sweep: &Sweep| -> Result<(), Box<dyn std::error::Error>> {
        let t0 = std::time::Instant::now();
        let tables = match name {
            "fig5" => sweep.figure5()?,
            "fig6" => sweep.figure6()?,
            "fig7" => sweep.figure7()?,
            "fig8" => sweep.figure8()?,
            "ext-size" => sweep.ext_data_size(&[64, 256, 1024, 4096])?,
            "ext-block" => sweep.ext_blocking()?,
            "ext-diff" => sweep.ext_diff_merging()?,
            "ext-proto" => sweep.ext_protocols()?,
            "churn" => churn_tables(sweep)?,
            "crash" => crash_tables(sweep)?,
            "wire" => vec![wire_table(&wire_sweep()?)],
            "ext-default" => sweep.ext_default_wire()?,
            "shard" => vec![shard_table()?],
            other => return Err(format!("unknown command {other:?}").into()),
        };
        print_tables(&tables, csv);
        let location = match &out_dir {
            Some(dir) => {
                let path = format!("{dir}/{name}.{}", if csv { "csv" } else { "txt" });
                let mut body = String::new();
                for table in &tables {
                    if csv {
                        body.push_str(&format!("# {}\n{}", table.title, table.to_csv()));
                    } else {
                        body.push_str(&format!("{table}\n"));
                    }
                }
                std::fs::write(&path, body)?;
                path
            }
            None => "stdout".to_owned(),
        };
        eprintln!("[{name} done in {:.1?}; output: {location}]\n", t0.elapsed());
        Ok(())
    };

    if command == "all" {
        // Keep going past a failing scenario so one diverging protocol
        // doesn't hide the rest of the evaluation; report and fail at
        // the end.
        let mut failures: Vec<(String, String)> = Vec::new();
        let sets = [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "ext-size",
            "ext-block",
            "ext-diff",
            "ext-proto",
            "churn",
            "crash",
            "wire",
            "ext-default",
        ];
        for name in sets {
            if let Err(e) = run(name, &sweep) {
                eprintln!("[{name} FAILED: {e}]\n");
                failures.push((name.to_owned(), e.to_string()));
            }
        }
        eprintln!(
            "output location: {}",
            out_dir.as_deref().map_or("stdout".to_owned(), |d| format!("{d}/<command>.*"))
        );
        if !failures.is_empty() {
            for (name, e) in &failures {
                eprintln!("FAILED {name}: {e}");
            }
            let (failed, of) = (failures.len(), sets.len());
            return Err(format!("{failed} of {of} experiment sets failed to converge").into());
        }
    } else {
        run(&command, &sweep)?;
    }
    Ok(())
}
