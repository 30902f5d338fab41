//! `compare A B`: holds side B to side A under the benchmark's bounds.
//!
//! Both files hold one `--record` line per `--trace 0` run. A run whose
//! result is not `correct` has measured nothing: it fails the comparison
//! and its values (placeholders, where a cell died) stay out of the
//! medians. So does a workload or metric that only one side has, and a
//! pair of files with nothing to compare. For every workload and
//! end-to-end metric present on both sides:
//!
//! * virtual-time values (`secs_per_mod.*` of `sim16-*`) are exact, so
//!   they are compared seed by seed and must agree within
//!   [`VIRTUAL_BOUND`];
//! * host-time values are compared by their medians under the metric's
//!   bound, and reported **unresolved** — not unchanged — when either
//!   side's interquartile spread exceeds that bound, unless every run of
//!   B reads better than every run of A.

use std::collections::BTreeMap;

use sdso_bench::json::Json;

use crate::workload::{Workload, END_TO_END, VIRTUAL_BOUND};

/// One side: (workload, metric) → (seed, value) per correct run, failed
/// ops, and the runs that were not correct.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<(u64, f64)>>,
    failed: u64,
    incorrect: Vec<String>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(path, &text)
}

fn parse(path: &str, text: &str) -> Result<Side, String> {
    let mut side = Side::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let json = Json::parse(line).map_err(|e| bad(&e))?;
        if json.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload =
            json.get("workload").and_then(Json::as_str).ok_or_else(|| bad("no workload"))?;
        // A string: a u64 seed does not fit a JSON number.
        let seed = json.get("seed").and_then(Json::as_str).and_then(|s| s.parse().ok());
        let seed: u64 = seed.ok_or_else(|| bad("no seed"))?;
        let result = json.get("result").ok_or_else(|| bad("no result"))?;
        side.failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            side.incorrect.push(format!("{workload} seed {seed}"));
            continue;
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, metric) in metrics {
            let value =
                metric.get("value").and_then(Json::as_f64).ok_or_else(|| bad("no value"))?;
            side.values.entry((workload.to_owned(), name.clone())).or_default().push((seed, value));
        }
    }
    Ok(side)
}

/// (median, interquartile range ÷ median) with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (exclusive method).
fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let at = q * (v.len() + 1) as f64 - 1.0;
        let lo = at.floor().clamp(0.0, (v.len() - 1) as f64) as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (at - lo as f64).clamp(0.0, 1.0)
    };
    let median = quantile(0.5);
    let spread = if v.len() < 2 { 0.0 } else { (quantile(0.75) - quantile(0.25)) / median };
    (median, spread)
}

/// Judges one (workload, metric). Returns the verdict word and a detail.
fn judge(
    virtual_time: bool,
    bound: f64,
    a: &[(u64, f64)],
    b: &[(u64, f64)],
) -> (&'static str, String) {
    if virtual_time {
        let by_seed: BTreeMap<u64, f64> = a.iter().copied().collect();
        let pairs: Vec<(f64, f64)> =
            b.iter().filter_map(|&(seed, vb)| by_seed.get(&seed).map(|&va| (va, vb))).collect();
        if pairs.is_empty() {
            return ("unpaired", "no seed is on both sides".to_owned());
        }
        let worst = pairs.iter().map(|&(va, vb)| (vb - va) / va).fold(f64::MIN, f64::max);
        let identical = pairs.iter().all(|&(va, vb)| va.to_bits() == vb.to_bits());
        let detail = format!(
            "{} runs paired by seed, worst {:+.4} %{}",
            pairs.len(),
            100.0 * worst,
            if identical { ", bit-identical" } else { "" }
        );
        return (if worst > VIRTUAL_BOUND { "WORSE" } else { "ok" }, detail);
    }
    let (va, vb): (Vec<f64>, Vec<f64>) =
        (a.iter().map(|p| p.1).collect(), b.iter().map(|p| p.1).collect());
    let ((ma, sa), (mb, sb)) = (median_and_spread(&va), median_and_spread(&vb));
    if !(ma > 0.0 && mb > 0.0) {
        return ("invalid", format!("median {ma:e} -> {mb:e}: a metric is never 0"));
    }
    let change = (mb - ma) / ma;
    let detail = format!(
        "median {ma:.6e} -> {mb:.6e} ({:+.2} %), spread {:.2} % / {:.2} %, n {} / {}",
        100.0 * change,
        100.0 * sa,
        100.0 * sb,
        va.len(),
        vb.len()
    );
    let b_always_better =
        vb.iter().fold(f64::MIN, |m, &x| m.max(x)) < va.iter().fold(f64::MAX, |m, &x| m.min(x));
    let verdict = if (sa > bound || sb > bound) && !b_always_better {
        "unresolved"
    } else if change > bound {
        "WORSE"
    } else {
        "ok"
    };
    (verdict, detail)
}

/// Prints one row per workload and end-to-end metric; `Ok(false)` unless
/// there is at least one row and every row is `ok`, every run on both
/// sides was correct and no operation failed.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    println!("ops_failed: {} -> {}", a.failed, b.failed);
    for (side, runs) in [("A", &a.incorrect), ("B", &b.incorrect)] {
        for run in runs {
            println!("{side}: {run} FAILED its checks; its values are not compared");
        }
    }
    let mut all_ok = a.incorrect.is_empty() && b.incorrect.is_empty() && b.failed == 0;
    let keys: std::collections::BTreeSet<_> = a.values.keys().chain(b.values.keys()).collect();
    let mut rows = 0;
    for key @ (workload, metric) in keys {
        let Some(def) = END_TO_END.iter().find(|d| d.name == *metric) else { continue };
        let (verdict, detail) = match (a.values.get(key), b.values.get(key)) {
            (Some(runs_a), Some(runs_b)) => {
                let virtual_time = metric.starts_with("secs_per_mod.")
                    && Workload::by_name(workload).is_some_and(|w| !w.is_wall());
                let bound = def.bound.expect("end-to-end metrics are bounded");
                judge(virtual_time, bound, runs_a, runs_b)
            }
            (Some(_), None) => ("missing", "B has no correct run of it".to_owned()),
            (None, _) => ("missing", "A has no correct run of it".to_owned()),
        };
        rows += 1;
        all_ok &= verdict == "ok";
        println!("{workload:<16} {metric:<20} {verdict:<10} {detail}");
    }
    if rows == 0 {
        println!("nothing to compare: no correct --trace 0 run on either side");
    }
    Ok(all_ok && rows > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (median, spread) = median_and_spread(&v);
        assert_eq!(median, 5.5);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn virtual_time_is_compared_seed_by_seed() {
        let a = [(1, 0.024), (2, 0.030)];
        assert_eq!(judge(true, 0.10, &a, &[(2, 0.030), (1, 0.024)]).0, "ok");
        assert_eq!(judge(true, 0.10, &a, &[(1, 0.0245), (2, 0.030)]).0, "WORSE");
        assert_eq!(judge(true, 0.10, &a, &[(3, 0.024)]).0, "unpaired");
    }

    #[test]
    fn host_time_is_unresolved_when_spread_exceeds_the_bound() {
        let steady = |m: f64| -> Vec<(u64, f64)> {
            (0..10).map(|i| (i, m * (1.0 + 0.001 * i as f64))).collect()
        };
        let noisy: Vec<(u64, f64)> = (0..10).map(|i| (i, 1.0 + 0.1 * i as f64)).collect();
        assert_eq!(judge(false, 0.10, &steady(1.0), &steady(1.05)).0, "ok");
        assert_eq!(judge(false, 0.10, &steady(1.0), &steady(1.2)).0, "WORSE");
        assert_eq!(judge(false, 0.10, &steady(1.5), &noisy).0, "unresolved");
        // Every run of B better than every run of A resolves it.
        assert_eq!(judge(false, 0.10, &steady(3.0), &noisy).0, "ok");
    }

    fn record(workload: &str, seed: u64, correct: bool, value: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":\"{seed}\",\"trace\":0,\"result\":{{\"correct\":{correct},\"attempted\":10,\"failed\":0,\"metrics\":{{\"peak_rss_mb\":{{\"value\":{value},\"unit\":\"MiB\"}}}}}}}}\n"
        )
    }

    fn compare_texts(a: &str, b: &str) -> bool {
        let dir = std::env::temp_dir();
        let stem = format!("sdso-compare-{}-{:?}", std::process::id(), std::thread::current().id());
        let (pa, pb) = (dir.join(format!("{stem}.a")), dir.join(format!("{stem}.b")));
        std::fs::write(&pa, a).unwrap();
        std::fs::write(&pb, b).unwrap();
        let verdict = compare_files(pa.to_str().unwrap(), pb.to_str().unwrap()).unwrap();
        let _ = (std::fs::remove_file(pa), std::fs::remove_file(pb));
        verdict
    }

    #[test]
    fn a_side_that_measured_nothing_or_less_fails() {
        let a = record("wall2-paper", 1, true, 7.0) + &record("sim16-paper", 1, true, 15.0);
        assert!(compare_texts(&a, &a));
        // Nothing on B, a workload missing from B, a workload only B has.
        assert!(!compare_texts(&a, ""));
        assert!(!compare_texts(&a, &record("wall2-paper", 1, true, 7.0)));
        assert!(!compare_texts(&record("wall2-paper", 1, true, 7.0), &a));
        assert!(!compare_texts("", ""));
    }

    #[test]
    fn an_incorrect_run_fails_and_its_placeholders_stay_out_of_the_medians() {
        let a = record("wall2-paper", 1, true, 7.0);
        let b = record("wall2-paper", 1, true, 7.0) + &record("wall2-paper", 2, false, 0.0);
        assert!(!compare_texts(&a, &b));
        let b = parse("b", &b).unwrap();
        assert_eq!(b.values[&("wall2-paper".to_owned(), "peak_rss_mb".to_owned())], [(1, 7.0)]);
        assert_eq!(b.incorrect, ["wall2-paper seed 2"]);
        // A zero that did get in is refused, not divided by.
        assert_eq!(judge(false, 0.10, &[(1, 0.0)], &[(1, 1.0)]).0, "invalid");
    }
}
