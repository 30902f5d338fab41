//! The one command, end to end: result line, watchdog, `compare`.

use std::process::Command;

use sdso_bench::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_sdso-benchmark");

fn run(args: &[&str]) -> (bool, String) {
    // Run from the repository root, as the contract's command is, so that
    // traces land in `benchmark/out`.
    let out = Command::new(BIN)
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark binary runs");
    (out.status.success(), String::from_utf8(out.stdout).expect("utf-8 output"))
}

fn result_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn smoke_run_prints_the_six_end_to_end_metrics_and_compares_clean_with_itself() {
    let record = std::env::temp_dir().join(format!("sdso-benchmark-{}.jsonl", std::process::id()));
    let record = record.to_str().unwrap();
    let _ = std::fs::remove_file(record);
    for _ in 0..2 {
        let (ok, stdout) =
            run(&["--workload", "sim16-paper", "--seed", "11", "--smoke", "--record", record]);
        assert!(ok, "{stdout}");
        let result = result_line(&stdout);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        // 4 protocols x 8 worlds x 16 nodes x (100 / 20) ticks.
        assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(4 * 8 * 16 * 5));
        let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics") };
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "peak_rss_mb",
                "secs_per_mod.bsync",
                "secs_per_mod.ec",
                "secs_per_mod.msync",
                "secs_per_mod.msync2",
                "setup_s"
            ]
        );
        assert!(metrics.values().all(|m| m.get("value").and_then(Json::as_f64).unwrap() > 0.0));
    }
    // Two runs of one seed in virtual time are bit-identical. (The exit
    // code is not asserted: with two runs, `setup_s` may well be
    // "unresolved".)
    let (_, stdout) = run(&["compare", record, record]);
    assert_eq!(stdout.matches("bit-identical").count(), 4, "{stdout}");
    assert!(!stdout.contains("WORSE"), "{stdout}");
    let _ = std::fs::remove_file(record);
}

#[test]
fn traced_smoke_run_prints_every_per_layer_metric() {
    let (ok, stdout) = run(&["--workload", "wall2-paper", "--smoke", "--trace", "1"]);
    assert!(ok, "{stdout}");
    let result = result_line(&stdout);
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics") };
    assert_eq!(metrics.len(), 97);
    // Not held to 2 % under `--smoke` on sockets, but measured: the span
    // window never exceeds the run by more than clock resolution.
    let sum_error = metrics["trace.sum_error_pct"].get("value").and_then(Json::as_f64).unwrap();
    assert!(sum_error > 0.0 && sum_error < 50.0, "{sum_error}");
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/wall2-paper.bsync.trace.json");
    assert!(std::path::Path::new(trace).exists());
}

#[test]
fn the_watchdog_kills_a_cell_past_its_deadline_and_books_its_node_ticks_as_failed() {
    let (ok, stdout) =
        run(&["--workload", "sim16-paper", "--seconds", "20", "--cell-deadline", "0.05"]);
    assert!(!ok, "a run with killed cells must not exit 0");
    let result = result_line(&stdout);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    // All four cells were attempted — the run went on after each kill.
    assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(4 * 8 * 16 * 100));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(4 * 8 * 16 * 100));
}
