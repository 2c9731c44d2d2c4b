//! `cargo xtask`: the workspace CI driver.
//!
//! Subcommands mirror what CI runs, so `cargo xtask all` locally is the
//! same bar a pull request has to clear:
//!
//! * `fmt` — `cargo fmt --check` over the workspace
//! * `clippy` — `cargo clippy --workspace --all-targets -- -D warnings`
//! * `test` — `cargo test -q` (tier-1) then `cargo test -q --workspace`
//! * `lint-suite` — `hyde-lint --suite` over the bundled circuits;
//!   `lint-suite --deep` additionally runs the `HY4xx` semantic proofs
//!   (SAT/BDD CEC, injectivity, collapse/recovery, stuck-at) with a
//!   bounded proof budget and `strict-checks` invariant gates enabled
//! * `bench` — `hyde-bench` over the 25-circuit suite, writing
//!   `BENCH_<name>.json`; `bench --smoke` runs the 3-circuit subset and
//!   validates the emitted JSON schema (the CI configuration);
//!   `bench --record` additionally appends one `hyde-traj-v1` point to
//!   `BENCH_TRAJECTORY.jsonl` (and re-validates the whole file)
//! * `perf-diff [<old> <new>]` — compare two benchmark (or trace) JSON
//!   documents and fail on per-circuit wall-clock regressions beyond
//!   the smoke gate (1.3x + 2ms slack), naming the phases whose
//!   self-time grew; with no arguments, compares the committed
//!   `BENCH_smoke.json` (`git show HEAD:...`) against the working tree
//! * `trace <circuit>` — run the traced flow on one circuit and write
//!   `TRACE_<circuit>.json` (Chrome trace-event JSON, load in Perfetto)
//!   plus `TRACE_<circuit>.folded` (collapsed stacks, feed to
//!   `flamegraph.pl`), then validate the trace: parseable JSON, balanced
//!   begin/end per track, and spans covering most of the wall time
//! * `chaos` — the resilience drill: for each fixed seed, run
//!   `hyde-bench --chaos <seed>` over all 25 circuits (fault injection
//!   with per-circuit isolation, writing `CHAOS_chaos_s<seed>.json`) and
//!   then `hyde-lint --suite --deep` with `HYDE_CHAOS=<seed>`, which
//!   CEC-proves every degraded network against its specification
//! * `serve-drill` — the crash-recovery drill: for each chaos seed, run
//!   the full suite through a supervised `hyde-serve` service with
//!   worker kills/stalls injected (every job terminal, zero process
//!   aborts, outputs byte-identical to the offline session), then
//!   SIGKILL a serving child mid-run and require a restart on the same
//!   journal to finish the rest; writes `CHAOS_serve_s<seed>.json`
//! * `analyze` — run the `hyde-sa` static analyzer (SA001–SA013:
//!   determinism, panic-surface and panic-reachability ratchets,
//!   budget flow, obs coverage, diag-registry consistency, feature
//!   hygiene, parallel-merge determinism, swallowed errors,
//!   suppression hygiene) over the whole workspace in-process and
//!   write `ANALYZE.json`; `analyze --diff` reads the committed
//!   `ANALYZE.json` as a baseline first and fails only on *new*
//!   findings (the pull-request gate)
//! * `all` — everything above (with `--deep` and the smoke-circuit
//!   trace), in that order

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn run(root: &Path, args: &[&str]) -> Result<(), String> {
    run_env(root, args, &[])
}

fn run_env(root: &Path, args: &[&str], env: &[(&str, String)]) -> Result<(), String> {
    let prefix: String = env.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    println!("xtask: {prefix}cargo {}", args.join(" "));
    let mut cmd = Command::new("cargo");
    cmd.args(args).current_dir(root);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let status = cmd
        .status()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`cargo {}` failed ({status})", args.join(" ")))
    }
}

fn fmt(root: &Path) -> Result<(), String> {
    run(root, &["fmt", "--all", "--check"])
}

fn clippy(root: &Path) -> Result<(), String> {
    run(
        root,
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    )
}

fn test(root: &Path) -> Result<(), String> {
    // Tier-1 first (root package only), then the full workspace.
    run(root, &["test", "-q"])?;
    run(root, &["test", "-q", "--workspace"])
}

fn lint_suite(root: &Path, deep: bool) -> Result<(), String> {
    let mut args = vec!["run", "-q", "--release", "-p", "hyde-verify"];
    if deep {
        // Promote the debug-only invariant gates to hard asserts while
        // the proofs run, and bound each proof so a pathological miter
        // fails CI as HY406 instead of hanging it.
        args.extend(["--features", "strict-checks"]);
    }
    args.extend(["--bin", "hyde-lint", "--", "--suite"]);
    if deep {
        args.extend(["--deep", "--proof-budget", "200000"]);
    }
    run(root, &args)
}

fn bench(root: &Path, smoke: bool, record: bool) -> Result<(), String> {
    let name = if smoke { "smoke" } else { "hot_path" };
    let mut args = vec![
        "run",
        "-q",
        "--release",
        "-p",
        "hyde-bench",
        "--bin",
        "hyde-bench",
        "--",
        "--name",
        name,
    ];
    if smoke {
        args.push("--smoke");
    }
    run(root, &args)?;
    // `hyde-bench` validates the JSON before writing; re-validate the file
    // on disk so a partial write (full disk, ^C) also fails the task.
    let path = root.join(format!("BENCH_{name}.json"));
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    hyde_bench::perf::validate_json(&json)
        .map_err(|e| format!("{}: schema validation failed: {e}", path.display()))?;
    println!(
        "xtask: {} parses as {}",
        path.display(),
        hyde_bench::perf::SCHEMA
    );
    if record {
        record_trajectory(root, name, &json)?;
    }
    Ok(())
}

/// Appends one trajectory point for the bench run `name` to
/// `BENCH_TRAJECTORY.jsonl`, then re-validates the whole file so a
/// malformed append can never land silently.
fn record_trajectory(root: &Path, name: &str, bench_json: &str) -> Result<(), String> {
    use std::io::Write as _;
    let recorded_at = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .ok();
    let line = hyde_bench::diff::trajectory_line(name, bench_json, recorded_at)
        .map_err(|e| format!("bench --record: {e}"))?;
    let path = root.join("BENCH_TRAJECTORY.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let points = hyde_bench::diff::validate_trajectory(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "xtask: appended trajectory point '{name}' -> {} ({points} point(s), {})",
        path.display(),
        hyde_bench::diff::TRAJ_SCHEMA
    );
    Ok(())
}

/// Compares two benchmark (or Chrome trace) JSON documents and fails on
/// per-circuit wall-clock regressions beyond the smoke gate, attributing
/// each to the phases whose self-time grew. With no explicit paths, the
/// committed `BENCH_smoke.json` (read via `git show HEAD:...`, so it
/// works even after the working-tree file has been regenerated) is the
/// baseline and the working-tree file is the candidate.
fn perf_diff(root: &Path, old: Option<&str>, new: Option<&str>) -> Result<(), String> {
    let (old_label, old_text, new_label, new_text) = match (old, new) {
        (Some(o), Some(n)) => {
            let read = |p: &str| {
                std::fs::read_to_string(root.join(p)).map_err(|e| format!("perf-diff: {p}: {e}"))
            };
            (o.to_owned(), read(o)?, n.to_owned(), read(n)?)
        }
        (None, None) => {
            let output = Command::new("git")
                .args(["show", "HEAD:BENCH_smoke.json"])
                .current_dir(root)
                .output()
                .map_err(|e| format!("perf-diff: failed to spawn git: {e}"))?;
            if !output.status.success() {
                return Err(
                    "perf-diff: `git show HEAD:BENCH_smoke.json` failed; is a baseline \
                     committed? (or pass explicit paths: `cargo xtask perf-diff <old> <new>`)"
                        .into(),
                );
            }
            let old_text = String::from_utf8(output.stdout)
                .map_err(|_| "perf-diff: HEAD:BENCH_smoke.json is not UTF-8".to_owned())?;
            let path = root.join("BENCH_smoke.json");
            let new_text = std::fs::read_to_string(&path)
                .map_err(|e| format!("perf-diff: {}: {e}", path.display()))?;
            (
                "HEAD:BENCH_smoke.json".to_owned(),
                old_text,
                "BENCH_smoke.json".to_owned(),
                new_text,
            )
        }
        _ => {
            return Err(
                "perf-diff takes zero or two paths: `cargo xtask perf-diff [<old> <new>]`".into(),
            )
        }
    };
    println!("xtask: perf-diff {old_label} -> {new_label}");
    let diff =
        hyde_bench::diff::diff(&old_text, &new_text).map_err(|e| format!("perf-diff: {e}"))?;
    print!("{}", diff.render());
    if diff.regressed() {
        Err(format!(
            "perf-diff: {} circuit(s) regressed beyond the {}x + {}ms gate",
            diff.regressions.len(),
            hyde_bench::diff::MAX_RATIO,
            hyde_bench::diff::SLACK_MS
        ))
    } else {
        Ok(())
    }
}

fn trace(root: &Path, circuit: &str) -> Result<(), String> {
    let out = format!("TRACE_{circuit}.json");
    run(
        root,
        &[
            "run",
            "-q",
            "--release",
            "-p",
            "hyde-bench",
            "--bin",
            "hyde-bench",
            "--",
            "--circuits",
            circuit,
            "--name",
            &format!("trace_{circuit}"),
            "--trace",
            &out,
            "--stdout",
        ],
    )?;
    // The trace was written by a separate process; re-read it here and hold
    // it to the acceptance bar (valid JSON, per-track begin/end balance,
    // span coverage) instead of trusting the exporter blindly.
    let path = root.join(&out);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let summary = hyde_obs::chrome::validate(&text)
        .map_err(|e| format!("{}: trace validation failed: {e}", path.display()))?;
    println!(
        "xtask: {} ok: {} events, {} track(s), {} span(s), depth {}, {:.0}% span coverage",
        path.display(),
        summary.events,
        summary.tracks,
        summary.spans,
        summary.max_depth,
        summary.coverage * 100.0
    );
    if summary.spans == 0 {
        return Err(format!("{}: trace contains no spans", path.display()));
    }
    if summary.coverage < 0.90 {
        return Err(format!(
            "{}: spans cover only {:.0}% of wall time (< 90%)",
            path.display(),
            summary.coverage * 100.0
        ));
    }
    Ok(())
}

/// Fixed seeds for the `chaos` drill. Three seeds give three distinct
/// fault schedules (the injection sites hash the seed with the circuit
/// and output names) while keeping CI deterministic and diffable.
const CHAOS_SEEDS: [u64; 3] = [42, 1998, 0xC0FFEE];

fn chaos(root: &Path) -> Result<(), String> {
    for seed in CHAOS_SEEDS {
        let name = format!("chaos_s{seed}");
        let seed_str = seed.to_string();
        // Phase 1: the bench drill — fault injection with per-circuit
        // panic isolation. Exit status is non-zero only on *typed*
        // mapping errors (a broken ladder rung), never on injected
        // panics or degradations.
        run(
            root,
            &[
                "run",
                "-q",
                "--release",
                "-p",
                "hyde-bench",
                "--bin",
                "hyde-bench",
                "--",
                "--chaos",
                &seed_str,
                "--name",
                &name,
            ],
        )?;
        let path = root.join(format!("CHAOS_{name}.json"));
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        hyde_bench::perf::validate_chaos_json(&json)
            .map_err(|e| format!("{}: chaos report validation failed: {e}", path.display()))?;
        println!(
            "xtask: {} parses as {}",
            path.display(),
            hyde_bench::perf::CHAOS_SCHEMA
        );
        // Phase 2: the same seed under the deep lint suite. Degradations
        // surface as HY501-HY503/HY505 (warn/note); the HY401 CEC proofs
        // then hold every *degraded* network to the same semantic bar as
        // an exact one, so a wrong fallback fails this step as a deny.
        run_env(
            root,
            &[
                "run",
                "-q",
                "--release",
                "-p",
                "hyde-verify",
                "--features",
                "strict-checks",
                "--bin",
                "hyde-lint",
                "--",
                "--suite",
                "--deep",
                "--proof-budget",
                "200000",
            ],
            &[("HYDE_CHAOS", seed_str)],
        )?;
    }
    Ok(())
}

/// The `hyde-serve` crash-recovery drill: for each chaos seed, run the
/// full suite through a supervised service with worker kills and stalls
/// injected (every job must reach a terminal state with zero process
/// aborts and byte-identical outputs to the offline session), then
/// `SIGKILL` a serving child mid-run and require a restart on the same
/// journal to finish the remaining jobs. Writes and validates
/// `CHAOS_serve_s<seed>.json` per seed.
fn serve_drill(root: &Path) -> Result<(), String> {
    for seed in CHAOS_SEEDS {
        let seed_str = seed.to_string();
        let out = format!("CHAOS_serve_s{seed}.json");
        run(
            root,
            &[
                "run",
                "-q",
                "--release",
                "-p",
                "hyde-serve",
                "--bin",
                "hyde-serve",
                "--",
                "--drill",
                &seed_str,
                "--drill-out",
                &out,
            ],
        )?;
        let path = root.join(&out);
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        hyde_bench::perf::validate_chaos_json(&json)
            .map_err(|e| format!("{}: serve drill validation failed: {e}", path.display()))?;
        println!(
            "xtask: {} parses as {}",
            path.display(),
            hyde_bench::perf::CHAOS_SCHEMA
        );
    }
    Ok(())
}

/// Runs the `hyde-sa` static analyzer in-process over the workspace and
/// writes `ANALYZE.json` at the root.
///
/// In strict mode (the default, and what `all` runs) any surviving deny
/// finding fails — the same bar the analyzer's own `self_analysis` test
/// enforces. With `--diff`, the committed `ANALYZE.json` is read as a
/// baseline *before* being overwritten and only findings that are new
/// relative to it fail; this is the pull-request gate, so a branch is
/// judged on what it introduces rather than on pre-existing debt.
fn analyze(root: &Path, diff: bool) -> Result<(), String> {
    println!(
        "xtask: hyde-sa --root {} --json ANALYZE.json{}",
        root.display(),
        if diff { " --diff" } else { "" }
    );
    let json_path = root.join("ANALYZE.json");
    let baseline = if diff {
        let text = std::fs::read_to_string(&json_path).map_err(|e| {
            format!(
                "analyze --diff needs a committed {}: {e}",
                json_path.display()
            )
        })?;
        Some(
            hyde_analyze::baseline::Baseline::parse(&text)
                .map_err(|e| format!("{}: {e}", json_path.display()))?,
        )
    } else {
        None
    };
    let report = hyde_analyze::analyze_root(root).map_err(|e| format!("hyde-sa: {e}"))?;
    std::fs::write(&json_path, report.to_json())
        .map_err(|e| format!("{}: {e}", json_path.display()))?;
    for note in &report.notes {
        println!("xtask: note: {note}");
    }
    println!(
        "xtask: hyde-sa: {} files, {} passes, {} findings, {} allowed -> {}",
        report.files_scanned,
        report.passes.len(),
        report.findings.len(),
        report.allowed(),
        json_path.display()
    );
    if let Some(base) = baseline {
        let new = base.new_denies(&report);
        if new.is_empty() {
            println!(
                "xtask: analyze --diff: no new findings vs committed baseline ({})",
                base.schema
            );
            return Ok(());
        }
        let rendered: Vec<String> = new.iter().map(|f| f.to_string()).collect();
        return Err(format!(
            "analyze --diff: {} new finding(s) vs committed baseline:\n  {}",
            rendered.len(),
            rendered.join("\n  ")
        ));
    }
    if report.clean() {
        Ok(())
    } else {
        let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
        Err(format!(
            "analyze: {} finding(s):\n  {}",
            rendered.len(),
            rendered.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let root = workspace_root();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = args.first().cloned().unwrap_or_else(|| "all".into());
    let deep = args.iter().any(|a| a == "--deep");
    let smoke = args.iter().any(|a| a == "--smoke");
    let record = args.iter().any(|a| a == "--record");
    let result = match task.as_str() {
        "fmt" => fmt(&root),
        "clippy" => clippy(&root),
        "test" => test(&root),
        "lint-suite" => lint_suite(&root, deep),
        "bench" => bench(&root, smoke, record),
        "perf-diff" => {
            let paths: Vec<&str> = args
                .iter()
                .skip(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .collect();
            perf_diff(&root, paths.first().copied(), paths.get(1).copied())
        }
        "trace" => match args.get(1).filter(|a| !a.starts_with("--")) {
            Some(circuit) => trace(&root, circuit),
            None => Err("trace needs a circuit name, e.g. `cargo xtask trace rd73`".into()),
        },
        "chaos" => chaos(&root),
        "serve-drill" => serve_drill(&root),
        "analyze" => analyze(&root, args.iter().any(|a| a == "--diff")),
        "all" => fmt(&root)
            .and_then(|()| clippy(&root))
            .and_then(|()| analyze(&root, false))
            .and_then(|()| test(&root))
            .and_then(|()| lint_suite(&root, true))
            .and_then(|()| bench(&root, true, false))
            .and_then(|()| perf_diff(&root, None, None))
            .and_then(|()| trace(&root, "rd73"))
            .and_then(|()| chaos(&root))
            .and_then(|()| serve_drill(&root)),
        other => Err(format!(
            "unknown task '{other}' (expected fmt | clippy | test | lint-suite [--deep] | \
             bench [--smoke] [--record] | perf-diff [<old> <new>] | trace <circuit> | chaos | \
             serve-drill | analyze [--diff] | all)"
        )),
    };
    match result {
        Ok(()) => {
            println!("xtask: {task} ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::FAILURE
        }
    }
}
