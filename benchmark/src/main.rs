//! The repo's composed benchmark. See `README.md` in this directory.
//!
//! ```text
//! sdso-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--record FILE] [--cell-deadline SECS]
//!                [--pin one|per-node|free]
//! sdso-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A workload run starts one child process of this same binary per cell
//! (`sdso-benchmark cell …`) so that a stuck cell can be killed, and so
//! that every cell sees a fresh process.

mod affinity;
mod cell;
mod compare;
mod driver;
mod micro;
mod report;
mod timed;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use workload::{Workload, CELL_DEADLINE_SECS, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};

/// `--key value` pairs and bare flags after the subcommand.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name =
                key.strip_prefix("--").ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = if flags.contains(&name) {
                "1".to_owned()
            } else {
                it.next().ok_or_else(|| format!("{key} needs a value"))?.clone()
            };
            map.insert(name.to_owned(), value);
        }
        Ok(Args(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")))
            .transpose()
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.get("workload")?.ok_or("--workload is required")?;
        Workload::by_name(&name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {}", names.join(", "))
        })
    }

    /// Seeds are accepted in decimal or `0x` hexadecimal.
    fn seed(&self) -> Result<u64, String> {
        match self.0.get("seed") {
            None => Ok(DEFAULT_SEED),
            Some(s) => match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                // A negative seed names the same bits.
                None => s.parse().or_else(|_| s.parse::<i64>().map(|v| v as u64)),
            }
            .map_err(|_| format!("--seed: cannot parse {s:?}")),
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("cell") => {
            let args = Args::parse(&args[1..], &[])?;
            driver::cell_main(&args)?;
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: compare A.jsonl B.jsonl".to_owned()),
        },
        _ => {
            let args = Args::parse(args, &["smoke"])?;
            let mut seconds = args.get::<f64>("seconds")?.unwrap_or(RUN_SECONDS as f64);
            let smoke = args.0.contains_key("smoke");
            if smoke {
                seconds /= 20.0;
            }
            driver::run_workload(&driver::RunSpec {
                workload: args.workload()?,
                seed: args.seed()?,
                seconds,
                smoke,
                traced: args.get::<u8>("trace")?.unwrap_or(0) != 0,
                cell_deadline_secs: args.get("cell-deadline")?.unwrap_or(CELL_DEADLINE_SECS as f64),
                record: args.get("record")?,
                pin: args.get("pin")?,
            })
        }
    }
}

fn main() -> ExitCode {
    cell::process_start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sdso-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
