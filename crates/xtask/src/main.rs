//! `cargo xtask`: the workspace CI driver.
//!
//! Subcommands mirror what CI runs, so `cargo xtask all` locally is the
//! same bar a pull request has to clear:
//!
//! * `fmt` — `cargo fmt --check` over the workspace
//! * `clippy` — `cargo clippy --workspace --all-targets -- -D warnings`
//! * `doc` — `cargo doc --workspace --no-deps --offline` with
//!   `RUSTDOCFLAGS="-D warnings"`, so a doc link to a deleted item fails
//! * `test` — `cargo test -q` (tier-1) then `cargo test -q --workspace`
//! * `lint-suite` — `hyde-lint --suite` over the bundled circuits;
//!   `lint-suite --deep` additionally runs the `HY4xx` semantic proofs
//!   (SAT/BDD CEC, injectivity, collapse/recovery, stuck-at) with a
//!   bounded proof budget and `strict-checks` invariant gates enabled
//! * `ab [<base-rev>]` — the performance gate: build `hyde-benchmark`
//!   from a `git worktree` of `<base-rev>` (default `HEAD~1`) and from
//!   the working tree, run alternating pairs of both on every workload
//!   `BENCHMARK.json` gates, and fail when the change breaks a run,
//!   fails more operations, changes an output-quality count, or worsens
//!   a median beyond its `BENCHMARK.json` bound
//! * `trace <circuit>` — run `hyde-bench run --circuits <circuit>
//!   --trace` (the traced flow on one circuit) and write
//!   `TRACE_<circuit>.json` (Chrome trace-event JSON, load in Perfetto)
//!   plus `TRACE_<circuit>.folded` (collapsed stacks, feed to
//!   `flamegraph.pl`), then validate the trace: parseable JSON, balanced
//!   begin/end per track, and spans covering most of the wall time
//! * `chaos` — the resilience drill: for each fixed seed, run
//!   `hyde-bench chaos <seed>` over all 25 circuits (fault injection
//!   with per-circuit isolation, writing `CHAOS_chaos_s<seed>.json`) and
//!   then `hyde-lint --suite --deep` with `HYDE_CHAOS=<seed>`, which
//!   CEC-proves every degraded network against its specification
//! * `serve-drill` — the crash-recovery drill: for each chaos seed, run
//!   the full suite through a supervised `hyde-serve` service with
//!   worker kills/stalls injected (every job terminal, zero process
//!   aborts, outputs byte-identical to the offline session), then
//!   SIGKILL a serving child mid-run and require a restart on the same
//!   journal to finish the rest; writes `CHAOS_serve_s<seed>.json`
//! * `analyze` — `cargo run -p hyde-analyze --bin hyde-sa -- --json
//!   ANALYZE.json`: the `hyde-sa` static analyzer (SA001–SA013:
//!   determinism, panic-surface and panic-reachability ratchets, budget
//!   flow, obs coverage, diag-registry consistency, feature hygiene,
//!   parallel-merge determinism, suppression hygiene) over the whole
//!   workspace, writing `ANALYZE.json` and failing on any deny finding
//! * `all` — everything above (with `--deep` and the smoke-circuit
//!   trace), in that order, with `cargo test --offline --manifest-path
//!   hyde-benchmark/Cargo.toml` right after `test`: the benchmark package
//!   is a workspace of its own that compiles against the public surface
//!   of the layer crates, so `test` alone cannot catch a change that
//!   breaks it

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hyde_obs::json::{self, Json};
use std::collections::BTreeMap;
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

fn doc(root: &Path) -> Result<(), String> {
    run_env(
        root,
        &["doc", "--workspace", "--no-deps", "--offline"],
        &[("RUSTDOCFLAGS", "-D warnings".into())],
    )
}

fn test(root: &Path) -> Result<(), String> {
    // Tier-1 first (root package only), then the full workspace.
    run(root, &["test", "-q"])?;
    run(root, &["test", "-q", "--workspace"])
}

fn benchmark_test(root: &Path) -> Result<(), String> {
    run(
        root,
        &[
            "test",
            "--offline",
            "--manifest-path",
            "hyde-benchmark/Cargo.toml",
        ],
    )
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

/// Alternating base/change pairs run per gated workload. Pair `i` runs
/// both sides with `--seed i`; odd pairs run the base first.
const AB_PAIRS: u64 = 10;

/// One end-to-end metric of `BENCHMARK.json` and its bound: the share
/// of the base median by which the change's median may be worse.
#[derive(Debug)]
struct Gate {
    name: String,
    /// `count` metrics (LUTs, depth, CLBs) are exact output quality and
    /// must be equal in every pair.
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// The result line of one `hyde-benchmark --workload` run.
#[derive(Debug)]
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

/// One workload × metric row of the `ab` report.
#[derive(Debug)]
struct MetricRow {
    name: String,
    /// Pairs the change won; ties count for neither side.
    wins: usize,
    pairs: usize,
    base_median: f64,
    change_median: f64,
    base_iqr: f64,
    /// The base's own spread (IQR over median) exceeds the bound, so
    /// these runs cannot resolve a move of the bound's size.
    unresolved: bool,
    regressed: bool,
}

/// The verdict on one workload: every metric's row, and why it fails
/// (empty when it passes).
#[derive(Debug, Default)]
struct Verdict {
    rows: Vec<MetricRow>,
    failures: Vec<String>,
}

/// The gated workload names and end-to-end metrics of `BENCHMARK.json`.
fn read_gates(text: &str) -> Result<(Vec<String>, Vec<Gate>), String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))
    };
    let field = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("BENCHMARK.json: an entry has no string `{key}`"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<Vec<_>, _>>()?;
    let gates = list("end_to_end")?
        .iter()
        .map(|m| {
            let name = field(m, "name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("BENCHMARK.json: `{name}` has no bound"))?;
            Ok(Gate {
                unit: field(m, "unit")?,
                higher_is_better: field(m, "better")? == "higher",
                name,
                bound,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((workloads, gates))
}

/// Parses the last stdout line of a `hyde-benchmark --workload` run.
fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no result line on stdout")?;
    let doc = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("result line has no `{key}`"))
    };
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no `metrics` object".into());
    };
    Ok(RunResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
            .collect(),
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); NaN for
/// no values.
fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let mid = s.len() / 2;
    match (s.get(mid.wrapping_sub(1)), s.get(mid)) {
        (Some(a), Some(b)) if s.len().is_multiple_of(2) => (a + b) / 2.0,
        (_, Some(b)) => *b,
        _ => f64::NAN,
    }
}

/// Interquartile range, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` as `hyde-benchmark` reports them.
fn iqr(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n.max(2) - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        match (s.get(j - 1), s.get(j)) {
            (Some(lo), Some(hi)) => (lo * (4.0 - delta) + hi * delta) / 4.0,
            (Some(only), None) => *only,
            _ => f64::NAN,
        }
    };
    cut(3) - cut(1)
}

/// The `ab` verdict over one workload's `(base, change)` pairs. It fails
/// when a run reports `correct: false`, when the change's failed share
/// of attempted operations exceeds the base's, when a `count` metric
/// differs in any pair, or when a metric's change median is worse than
/// the base median by more than the metric's bound.
fn verdict(gates: &[Gate], pairs: &[(RunResult, RunResult)]) -> Verdict {
    let mut v = Verdict::default();
    for (i, (base, change)) in (1..).zip(pairs) {
        for (side, run) in [("base", base), ("change", change)] {
            if !run.correct {
                v.failures
                    .push(format!("pair {i}: the {side} run reported correct: false"));
            }
        }
    }
    let share = |pick: fn(&(RunResult, RunResult)) -> &RunResult| {
        let failed: f64 = pairs.iter().map(|p| pick(p).failed).sum();
        let attempted: f64 = pairs.iter().map(|p| pick(p).attempted).sum();
        if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        }
    };
    let (base_share, change_share) = (share(|p| &p.0), share(|p| &p.1));
    if change_share > base_share {
        v.failures.push(format!(
            "failed share of operations rose from {base_share:.4} to {change_share:.4}"
        ));
    }
    for gate in gates {
        let values: Option<Vec<(f64, f64)>> = pairs
            .iter()
            .map(|(b, c)| Some((*b.metrics.get(&gate.name)?, *c.metrics.get(&gate.name)?)))
            .collect();
        let Some(values) = values else {
            v.failures
                .push(format!("{}: missing from a result line", gate.name));
            continue;
        };
        if gate.unit == "count" {
            for (i, (b, c)) in (1..).zip(&values) {
                if b != c {
                    v.failures
                        .push(format!("{}: {b} -> {c} in pair {i}", gate.name));
                }
            }
        }
        let better = |b: f64, c: f64| if gate.higher_is_better { c > b } else { c < b };
        let base: Vec<f64> = values.iter().map(|p| p.0).collect();
        let change: Vec<f64> = values.iter().map(|p| p.1).collect();
        let (bm, cm) = (median(&base), median(&change));
        // A move as a share of the base median; any rise from a zero
        // median is infinitely large.
        let rel = |d: f64| match (bm != 0.0, d > 0.0) {
            (true, _) => d / bm.abs(),
            (false, true) => f64::INFINITY,
            (false, false) => 0.0,
        };
        let worse = if gate.higher_is_better {
            rel(bm - cm)
        } else {
            rel(cm - bm)
        };
        let base_iqr = iqr(&base);
        let row = MetricRow {
            name: gate.name.clone(),
            wins: values.iter().filter(|(b, c)| better(*b, *c)).count(),
            pairs: values.len(),
            base_median: bm,
            change_median: cm,
            base_iqr,
            unresolved: rel(base_iqr) > gate.bound,
            regressed: worse > gate.bound,
        };
        if row.regressed {
            v.failures.push(format!(
                "{}: median {cm:.4} is {:.1}% worse than the base's {bm:.4} (bound {:.1}%)",
                gate.name,
                worse * 100.0,
                gate.bound * 100.0
            ));
        }
        v.rows.push(row);
    }
    v
}

/// The `ab` report table of one workload.
fn render(workload: &str, v: &Verdict) -> String {
    let mut out = format!(
        "{workload}\n  {:<16} {:>6} {:>12} {:>12} {:>8} {:>10}\n",
        "metric", "wins", "base", "change", "change", "base IQR"
    );
    for r in &v.rows {
        let change = (r.change_median - r.base_median) / r.base_median.abs() * 100.0;
        let flag = match (r.regressed, r.unresolved) {
            (true, _) => "REGRESSED",
            (false, true) => "unresolved",
            (false, false) => "",
        };
        out.push_str(&format!(
            "  {:<16} {:>3}/{:<2} {:>12.4} {:>12.4} {:>7.1}% {:>10.4}  {flag}\n",
            r.name, r.wins, r.pairs, r.base_median, r.change_median, change, r.base_iqr
        ));
    }
    out
}

/// A `git worktree` checkout of the base revision, removed again on
/// drop, so every exit path of `ab` cleans it up.
struct Worktree<'a> {
    root: &'a Path,
    path: PathBuf,
}

impl<'a> Worktree<'a> {
    fn add(root: &'a Path, path: PathBuf, rev: &str) -> Result<Self, String> {
        // A run killed before its drop leaves a checkout behind.
        remove_worktree(root, &path);
        let status = Command::new("git")
            .args(["worktree", "add", "--quiet", "--detach"])
            .arg(&path)
            .arg(rev)
            .current_dir(root)
            .status()
            .map_err(|e| format!("failed to spawn git: {e}"))?;
        if !status.success() {
            return Err(format!("`git worktree add {rev}` failed ({status})"));
        }
        Ok(Worktree { root, path })
    }
}

impl Drop for Worktree<'_> {
    fn drop(&mut self) {
        remove_worktree(self.root, &self.path);
    }
}

/// Best-effort removal: the checkout may be registered, stale, or gone.
fn remove_worktree(root: &Path, path: &Path) {
    let quiet_git = || {
        let mut cmd = Command::new("git");
        cmd.current_dir(root)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd
    };
    if path.exists() {
        let _ = quiet_git()
            .args(["worktree", "remove", "--force"])
            .arg(path)
            .status();
        let _ = std::fs::remove_dir_all(path);
    }
    let _ = quiet_git().args(["worktree", "prune"]).status();
}

/// Builds `hyde-benchmark` from the checkout at `tree` into `target`,
/// offline, and returns the binary's path.
fn build_benchmark(tree: &Path, target: &Path) -> Result<PathBuf, String> {
    let manifest = tree.join("hyde-benchmark").join("Cargo.toml");
    println!(
        "xtask: cargo build --release --offline --manifest-path {} --target-dir {}",
        manifest.display(),
        target.display()
    );
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed ({status})", manifest.display()));
    }
    Ok(target
        .join("release")
        .join(format!("hyde-benchmark{}", std::env::consts::EXE_SUFFIX)))
}

/// One `hyde-benchmark --workload` run; its outputs land under `dir`.
fn measure(bin: &Path, dir: &Path, workload: &str, seed: u64) -> Result<RunResult, String> {
    let seed = seed.to_string();
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let out = Command::new(bin)
        .args(args)
        .env("CARGO_TARGET_DIR", dir)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("failed to spawn {}: {e}", bin.display()))?;
    let what = format!("{} {}", bin.display(), args.join(" "));
    if !out.status.success() {
        return Err(format!(
            "`{what}` failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_result(&String::from_utf8_lossy(&out.stdout)).map_err(|e| format!("`{what}`: {e}"))
}

/// The performance gate: `hyde-benchmark` built from `base_rev` and
/// from the working tree, run in alternating pairs on every gated
/// workload and judged by [`verdict`] against the `BENCHMARK.json`
/// bounds.
fn ab(root: &Path, base_rev: &str) -> Result<(), String> {
    let start = std::time::Instant::now();
    let spec = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let (workloads, gates) = read_gates(&text)?;
    let dir = root.join("target").join("ab");
    let (base_dir, change_dir) = (dir.join("base"), dir.join("change"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!("xtask: ab: {base_rev} (base) vs the working tree (change)");
    let base_bin = {
        let tree = Worktree::add(root, dir.join("base-tree"), base_rev)?;
        build_benchmark(&tree.path, &base_dir)?
    };
    let change_bin = build_benchmark(root, &change_dir)?;
    let mut failures = Vec::new();
    for workload in &workloads {
        let mut pairs = Vec::new();
        for seed in 1..=AB_PAIRS {
            let run_base = || measure(&base_bin, &base_dir, workload, seed);
            let run_change = || measure(&change_bin, &change_dir, workload, seed);
            let pair = if seed % 2 == 1 {
                let base = run_base()?;
                (base, run_change()?)
            } else {
                let change = run_change()?;
                (run_base()?, change)
            };
            let wall = |r: &RunResult| r.metrics.get("wall_s").copied().unwrap_or(f64::NAN);
            println!(
                "xtask: ab {workload} pair {seed}/{AB_PAIRS}: wall_s base {:.3} change {:.3}",
                wall(&pair.0),
                wall(&pair.1)
            );
            pairs.push(pair);
        }
        let v = verdict(&gates, &pairs);
        print!("{}", render(workload, &v));
        failures.extend(v.failures.iter().map(|f| format!("{workload}: {f}")));
    }
    println!("xtask: ab took {:.0} s", start.elapsed().as_secs_f64());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "ab: the change fails the gate against {base_rev}:\n  {}",
            failures.join("\n  ")
        ))
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
            "run",
            "--circuits",
            circuit,
            "--trace",
            &out,
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
                "chaos",
                &seed_str,
                "--name",
                &name,
            ],
        )?;
        let path = root.join(format!("CHAOS_{name}.json"));
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        hyde_bench::chaos::validate_chaos_json(&json)
            .map_err(|e| format!("{}: chaos report validation failed: {e}", path.display()))?;
        println!(
            "xtask: {} parses as {}",
            path.display(),
            hyde_bench::chaos::CHAOS_SCHEMA
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
        hyde_bench::chaos::validate_chaos_json(&json)
            .map_err(|e| format!("{}: serve drill validation failed: {e}", path.display()))?;
        println!(
            "xtask: {} parses as {}",
            path.display(),
            hyde_bench::chaos::CHAOS_SCHEMA
        );
    }
    Ok(())
}

/// Runs the `hyde-sa` static analyzer over the workspace, writing
/// `ANALYZE.json` at the root; any surviving deny finding fails, the
/// same bar the analyzer's own `self_analysis` test enforces.
fn analyze(root: &Path) -> Result<(), String> {
    run(
        root,
        &[
            "run",
            "-q",
            "-p",
            "hyde-analyze",
            "--bin",
            "hyde-sa",
            "--",
            "--json",
            "ANALYZE.json",
        ],
    )
}

fn main() -> ExitCode {
    let root = workspace_root();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let task = args.first().cloned().unwrap_or_else(|| "all".into());
    let deep = args.iter().any(|a| a == "--deep");
    let result = match task.as_str() {
        "fmt" => fmt(&root),
        "clippy" => clippy(&root),
        "doc" => doc(&root),
        "test" => test(&root),
        "lint-suite" => lint_suite(&root, deep),
        "ab" => ab(&root, args.get(1).map_or("HEAD~1", String::as_str)),
        "trace" => match args.get(1).filter(|a| !a.starts_with("--")) {
            Some(circuit) => trace(&root, circuit),
            None => Err("trace needs a circuit name, e.g. `cargo xtask trace rd73`".into()),
        },
        "chaos" => chaos(&root),
        "serve-drill" => serve_drill(&root),
        "analyze" => analyze(&root),
        "all" => fmt(&root)
            .and_then(|()| clippy(&root))
            .and_then(|()| doc(&root))
            .and_then(|()| analyze(&root))
            .and_then(|()| test(&root))
            .and_then(|()| benchmark_test(&root))
            .and_then(|()| lint_suite(&root, true))
            .and_then(|()| ab(&root, "HEAD~1"))
            .and_then(|()| trace(&root, "rd73"))
            .and_then(|()| chaos(&root))
            .and_then(|()| serve_drill(&root)),
        other => Err(format!(
            "unknown task '{other}' (expected fmt | clippy | doc | test | lint-suite [--deep] | \
             ab [<base-rev>] | trace <circuit> | chaos | serve-drill | analyze | all)"
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

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str, unit: &str, bound: f64) -> Gate {
        Gate {
            name: name.into(),
            unit: unit.into(),
            higher_is_better: false,
            bound,
        }
    }

    fn result(values: &[(&str, f64)]) -> RunResult {
        RunResult {
            correct: true,
            attempted: 100.0,
            failed: 0.0,
            metrics: values.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    /// Ten pairs of `wall_s`, the base at `base` and the change at
    /// `change` in every pair.
    fn wall_pairs(base: f64, change: f64) -> Vec<(RunResult, RunResult)> {
        (0..10)
            .map(|_| (result(&[("wall_s", base)]), result(&[("wall_s", change)])))
            .collect()
    }

    #[test]
    fn a_median_worse_than_the_bound_fails_and_one_at_the_bound_passes() {
        let gates = [gate("wall_s", "s", 0.25)];
        let at_bound = verdict(&gates, &wall_pairs(8.0, 10.0));
        assert!(at_bound.failures.is_empty(), "{:?}", at_bound.failures);
        let row = &at_bound.rows[0];
        assert!(!row.regressed);
        assert_eq!((row.base_median, row.change_median), (8.0, 10.0));

        let beyond = verdict(&gates, &wall_pairs(8.0, 10.01));
        assert!(beyond.rows[0].regressed);
        assert_eq!(beyond.failures.len(), 1, "{:?}", beyond.failures);
        assert!(beyond.failures[0].starts_with("wall_s: median"));

        // The same move is a win when higher is better.
        let higher = Gate {
            higher_is_better: true,
            ..gate("wall_s", "s", 0.25)
        };
        let gain = verdict(std::slice::from_ref(&higher), &wall_pairs(8.0, 10.01));
        assert!(gain.failures.is_empty(), "{:?}", gain.failures);
        assert_eq!(gain.rows[0].wins, 10);

        // From a zero base median, any move the wrong way is beyond the bound.
        assert!(verdict(&[higher], &wall_pairs(0.0, 1.0))
            .failures
            .is_empty());
        assert!(verdict(&gates, &wall_pairs(0.0, 1.0)).rows[0].regressed);
        assert!(!verdict(&gates, &wall_pairs(0.0, 0.0)).rows[0].regressed);
    }

    #[test]
    fn medians_and_iqr_follow_the_benchmark_statistics() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 6.0, 8.0, 7.0, 9.0];
        assert_eq!(median(&values), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(iqr(&values), 8.25 - 2.75);
        assert_eq!(iqr(&[4.0]), 0.0);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let gates = [gate("wall_s", "s", 0.2)];
        let mut pairs = wall_pairs(2.0, 2.0);
        pairs[0].1 = result(&[("wall_s", 1.5)]);
        pairs[1].1 = result(&[("wall_s", 2.5)]);
        let v = verdict(&gates, &pairs);
        assert_eq!((v.rows[0].wins, v.rows[0].pairs), (1, 10));
        assert!(v.failures.is_empty(), "{:?}", v.failures);
        assert!(render("suite_cold", &v).contains("  1/10"));
    }

    #[test]
    fn any_quality_count_difference_fails() {
        let gates = [gate("luts", "count", 0.001)];
        let mut pairs: Vec<_> = (0..10)
            .map(|_| (result(&[("luts", 3458.0)]), result(&[("luts", 3458.0)])))
            .collect();
        assert!(verdict(&gates, &pairs).failures.is_empty());
        // One LUT more in one pair: within the median bound, still a fail.
        pairs[4].1 = result(&[("luts", 3459.0)]);
        let v = verdict(&gates, &pairs);
        assert!(!v.rows[0].regressed);
        assert_eq!(v.failures, ["luts: 3458 -> 3459 in pair 5"]);
    }

    #[test]
    fn an_incorrect_run_fails() {
        let gates = [gate("wall_s", "s", 0.2)];
        let mut pairs = wall_pairs(1.0, 1.0);
        pairs[2].0.correct = false;
        let v = verdict(&gates, &pairs);
        assert_eq!(v.failures, ["pair 3: the base run reported correct: false"]);
    }

    #[test]
    fn a_higher_failed_share_fails() {
        let gates = [gate("wall_s", "s", 0.2)];
        let mut pairs = wall_pairs(1.0, 1.0);
        pairs[0].0.failed = 1.0;
        pairs[0].1.failed = 1.0;
        assert!(verdict(&gates, &pairs).failures.is_empty());
        pairs[9].1.failed = 1.0;
        let v = verdict(&gates, &pairs);
        assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
        assert!(
            v.failures[0].starts_with("failed share"),
            "{:?}",
            v.failures
        );
    }

    #[test]
    fn a_metric_missing_from_a_run_fails() {
        let gates = [gate("wall_s", "s", 0.2), gate("depth", "count", 0.001)];
        let v = verdict(&gates, &wall_pairs(1.0, 1.0));
        assert_eq!(v.failures, ["depth: missing from a result line"]);
    }

    #[test]
    fn a_base_spread_wider_than_the_bound_is_unresolved() {
        let gates = [gate("wall_s", "s", 0.2)];
        let spread = [7.0, 8.0, 9.0, 10.0, 10.0, 10.0, 10.0, 11.0, 12.0, 13.0];
        let pairs: Vec<_> = spread
            .iter()
            .map(|&b| (result(&[("wall_s", b)]), result(&[("wall_s", b)])))
            .collect();
        let v = verdict(&gates, &pairs);
        // IQR 11.25 - 8.75 = 2.5 over a median of 10: above 0.2.
        assert!(v.rows[0].unresolved && !v.rows[0].regressed);
        assert!(v.failures.is_empty());
        assert!(render("w", &v).contains("unresolved"));
        let tight = verdict(&gates, &wall_pairs(10.0, 10.0));
        assert!(!tight.rows[0].unresolved);
    }

    #[test]
    fn gates_and_results_parse_from_the_committed_formats() {
        let text = std::fs::read_to_string(workspace_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json");
        let (workloads, gates) = read_gates(&text).expect("parses");
        assert!(workloads.iter().any(|w| w == "suite_cold"));
        let luts = gates.iter().find(|g| g.name == "luts").expect("luts gate");
        assert_eq!(luts.unit, "count");
        assert!(gates.iter().all(|g| g.bound > 0.0));

        let stdout = "progress\n{\"correct\": true, \"attempted\": 250, \"failed\": 0, \
                      \"metrics\": {\"wall_s\": {\"value\": 3.5, \"unit\": \"s\"}}}\n";
        let r = parse_result(stdout).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (250.0, 0.0));
        assert_eq!(r.metrics.get("wall_s"), Some(&3.5));
        assert!(parse_result("").is_err());
        assert!(parse_result("{\"correct\": true}").is_err());
    }
}
