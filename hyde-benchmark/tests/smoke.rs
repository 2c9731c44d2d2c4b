//! `--smoke`: every workload at toy size (3 small circuits, 2 s service
//! phases) through the real binary, so each workload runs in its own
//! process and the service in its own server process, exactly as in a
//! full run.

use hyde_obs::json::{self, Json};
use std::process::Command;

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hyde-benchmark"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &std::process::Output) -> Json {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

#[test]
fn smoke_run_covers_every_workload() {
    let out = benchmark(&["--smoke", "--seed", "7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hyde-benchmark/run-s7.json");
    let run = json::parse(&std::fs::read_to_string(path).expect("merged report")).expect("parses");
    for w in ["suite_cold", "ladder_bdd", "cec_proofs", "serve_open"] {
        let doc = run.get("workloads").and_then(|ws| ws.get(w)).expect(w);
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(0.0), "{w}");
        let wall = doc
            .get("end_to_end")
            .and_then(|m| m.get("wall_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_num)
            .expect("wall_s");
        assert!(wall > 0.0, "{w}");
    }
}

#[test]
fn one_workload_prints_the_contract_result() {
    let untraced = result_line(&benchmark(&[
        "--workload",
        "ladder_bdd",
        "--smoke",
        "--trace",
        "0",
    ]));
    assert_eq!(untraced.get("correct"), Some(&Json::Bool(true)));
    let metrics = untraced.get("metrics").expect("metrics");
    for name in ["wall_s", "luts", "setup_s"] {
        let v = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_num);
        assert!(v.is_some_and(|v| v > 0.0), "{name}: {v:?}");
    }
    let traced = result_line(&benchmark(&[
        "--workload",
        "ladder_bdd",
        "--smoke",
        "--trace",
        "1",
    ]));
    let metrics = traced.get("metrics").expect("metrics");
    assert!(metrics.get("wall_s").is_none());
    assert!(metrics.get("obs.trace_overhead_ratio").is_some());
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = benchmark(&["--workload", "nope"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
