//! `hyde-benchmark`: the noise-aware end-to-end and per-layer benchmark
//! of HYDE — the mapper, the SAT verifier and the mapping service.
//!
//! # Running
//!
//! ```text
//! cargo run --release --manifest-path hyde-benchmark/Cargo.toml -- --seed 1998
//! ```
//!
//! runs the four workloads, each in a fresh process (the binary
//! re-executes itself, so peak memory and caches are per workload) and
//! each followed by one traced pass; checks every output; prints every
//! metric with its unit and sample count; and writes
//! `<target>/hyde-benchmark/run-s1998.json`, where `<target>` is
//! `CARGO_TARGET_DIR` or else `target`. It takes about 2.5 minutes.
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload,
//! measuring for `S` seconds (default 30), and ends its standard output
//! with one JSON line: `correct`, `attempted`, `failed`, and every
//! end-to-end metric (with `--trace 1`, every per-layer metric).
//! `compare A.json B.json` sets two reports side by side with their
//! quartile spread and flags end-to-end moves beyond the bound.
//! `--smoke` shrinks every workload to toy size; the package's `cargo
//! test` runs it.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics and
//! bounds (a unit test keeps the two equal) and the workloads a change is
//! gated on: `suite_cold`, `ladder_bdd` and `cec_proofs`. `serve_open`
//! runs in the full run but is not gated, because its run-to-run spread
//! here is wider than any bound a gate could use (see Noise method).
//!
//! The package is a workspace of its own with path dependencies on the
//! layer crates, so the repository's manifests and lock file stay as they
//! are. It measures layers from outside: it times calls into public APIs
//! (`hyde_map::Session::run`, `hyde_sat::cec_network_vs_tables`, the
//! `hyde-serve` TCP protocol) and reads the program's existing `hyde_obs`
//! spans and counters; it adds no tracing inside the program.
//!
//! # Workloads
//!
//! The program receives only inputs generated from `--seed` (see `gen`).
//! The seed changes the surface of the inputs — the order of circuits and
//! calls, the row a mutant flips, each pool PLA's input permutation and
//! phase, the order of a fixed job mix, arrival times — and keeps the
//! amount of work fixed, so every seed measures the same thing.
//!
//! * `suite_cold`: the paper's 25-circuit suite at k = 5 with
//!   `FlowKind::hyde(0xDA98)`, a fresh `Session` per pass so the NPN cache
//!   starts cold. *Why:* the batch CLI path, and the ROADMAP's "suite
//!   under 1 s single-threaded" target. The λ-search dominates
//!   (`varpart.score` + `varpart.floor` self time is 1.6 s of a 3.4 s
//!   traced pass); the BDD layer is idle.
//! * `ladder_bdd`: the same circuits, every job under `BudgetSpec {
//!   candidates: 64, bdd_nodes: 65536 }`. *Why:* how budgeted service
//!   jobs behave. It forces 159 exact→BDD-rung degradations, yields 4458
//!   LUTs and makes 23.6 M BDD cache lookups across 2553 managers;
//!   `decompose.bdd` is about half of the traced self time and `map.cover`
//!   a sixth, while the λ-search drops to an eighth. This is where BDD
//!   work (sifting, the unique table) shows; on `suite_cold` the
//!   prediction for a BDD change is no change.
//! * `cec_proofs`: set-up maps the suite (counted in `setup_s`) and
//!   builds one seeded mutant per circuit by flipping one literal of one
//!   `.names` row, reduced to one output the flip changes. The timed part
//!   runs `cec_network_vs_tables` (200 000 conflicts per proof) on the 230
//!   mapped outputs, which are UNSAT proofs, and on the 25 mutants, which
//!   need a SAT model. *Why:* time to a verdict of the verifier behind
//!   `hyde-lint --deep`, with the solver used both ways. Mapper changes
//!   are outside the timed region, so their prediction here is no change.
//! * `serve_open`: the service path (see `serve`): a fixed 20 jobs/s open
//!   loop, then a closed loop with 4 jobs in flight. *Why:* protocol
//!   parsing, admission, the fsynced journal, and the shared NPN cache
//!   warmed by a Zipf-hot set. Suite-kind submit acks take 10–20 ms
//!   against 0.5 ms for PLA jobs, because `JobSpec::resolve` regenerates
//!   all 25 circuits.
//!
//! # End-to-end metrics
//!
//! Every workload reports every one; the bound is the share of the
//! parent's median by which a metric may worsen before a change counts as
//! a regression.
//!
//! | metric | unit | bound | `suite_cold`, `ladder_bdd` | `cec_proofs` | `serve_open` |
//! |---|---|---|---|---|---|
//! | `wall_s` | s | 0.20 | a typical pass: per-circuit medians, summed | a typical pass: per-call medians, summed | median closed-loop batch of 40 jobs |
//! | `geomean_ms` | ms | 0.20 | geometric mean of per-circuit medians | of per-proof solver medians | of open-loop job latencies |
//! | `latency_p50_ms`, `latency_p90_ms` | ms | 0.20 | percentiles of the per-circuit medians | of the per-proof solver medians | of open-loop latencies, timed from when each job was due |
//! | `luts`, `depth`, `clbs` | count | 0.001 | summed over the suite | the mapped suite under proof | the 8 `suite_small` circuits served in set-up |
//! | `peak_rss_mb` | MB | 0.15 | `VmHWM` of the workload process before the traced pass | same | `VmHWM` of the server process |
//! | `setup_s` | s | 0.25 | inputs and one warm-up pass | inputs, mapping, mutants | server start, `suite_small`, 2 s of warm-up traffic |
//!
//! `geomean_ms` keeps gains on small circuits visible behind apex6. The
//! percentiles are smoothed (`stats::smoothed_percentile`: the mean of
//! the samples within five percentiles of the target), because the
//! per-proof times have a gap at their median that made the nearest-rank
//! value jump by a quarter between runs. The output-quality counts are
//! exact; their bound only absorbs float rounding. Failed, refused,
//! quarantined, timed-out and undecided operations are the result's
//! `failed`, against `attempted`; their share reads 0 on every workload,
//! so it is not a metric of its own.
//!
//! # Per-layer metrics
//!
//! They come from one extra traced pass per in-process workload
//! (`hyde_obs::reset`/`enable`, then phase self time and counters of
//! `hyde_obs::report`), from the server's always-on collector on
//! `serve_open` (the server reports it as it stops; the Prometheus
//! `/metrics` buckets are a decade wide, too coarse for percentiles),
//! and from the benchmark's own spans (`recorder`), which are written to
//! `<workload>-s<seed>.spans.jsonl` next to the report. A layer a
//! workload does not touch reads 0. What each should move:
//!
//! * `core.*` → `wall_s`/`geomean_ms` on `suite_cold`. `core.npn.*` also
//!   moves `latency_p50_ms` on `serve_open`, where the hot pool lifts the
//!   hit ratio from 0.50 (`suite_cold`) to 0.98.
//!   `core.encoding.encode_ms` includes `hyde-graph`'s b-matching, which
//!   has no span.
//! * `core.decompose.bdd_ms`, `bdd.*` → `wall_s` on `ladder_bdd` (minor on
//!   `cec_proofs`, whose spec BDDs are built inside the timed call).
//! * `map.*` → `wall_s` on `suite_cold` and `ladder_bdd`;
//!   `circuit_ms.<name>` (per-circuit medians) → `suite_cold`.
//! * `guard.*` → `luts`/`wall_s` on `ladder_bdd`; they read 0 on
//!   `suite_cold`.
//! * `sat.*` → `wall_s` and the latencies on `cec_proofs`;
//!   `sat.encode_ms` is call time minus solver time (Tseitin and spec-BDD
//!   encoding).
//! * `serve.*` → `latency_p50_ms`/`latency_p90_ms`/`wall_s` on
//!   `serve_open`; queue wait moves p90 more than p50.
//!   `serve.latency_p99_ms` swings too much between runs to carry a
//!   bound, so it is reported here with `serve.latency_samples`.
//! * `obs.trace_overhead_ratio` (traced pass over the untraced median;
//!   0 on `serve_open`, whose server always traces) and
//!   `obs.dropped_events` (the server's collector caps at 2^20 events).
//! * `loadgen.late_ms_p99`, `loadgen.sent`: a run whose generator fell
//!   behind (p99 send lateness over 250 ms) is invalid and fails.
//!
//! # Noise method
//!
//! Every layer runs single-threaded (`HYDE_THREADS=1`), each workload in
//! its own process, after a warm-up. Passes repeat until `--seconds` is
//! used up (at least three) and every reported time is a median; a pass's
//! wall time is the sum of its operations' medians, which a burst of
//! machine noise during a few operations does not move. The work per seed
//! is fixed (see Workloads).
//!
//! What is left is the host's noise. On the 2-vCPU development machine
//! (Intel Xeon virtual machine on a shared host) back-to-back passes drift
//! by up to 20% over tens of seconds, so a whole run can land in a slow
//! stretch. Over ten seeds at 30 s per run, the spread (interquartile
//! range over median) of the timing metrics was 3.7–5.3% on
//! `suite_cold`, 3.6–4.9% on `ladder_bdd` and 2.5–6.8% on `cec_proofs`,
//! with memory under 4% and counts exact. An earlier set of ten reached
//! 10% on `suite_cold`, and a noisier stretch of the host 18% at 20 s
//! per run. The timing bounds, 0.20, sit about three typical spreads
//! above. On `serve_open`, whose two workers, connection threads and
//! client share the two vCPUs, the latency percentiles spread 14–58% and
//! the batch time 3–32% over sets of six to ten runs at 20 and 40 jobs/s,
//! even for one seed run repeatedly: wider than the 0.25 a bound may be,
//! so it is reported, not gated.
//!
//! # Correctness
//!
//! `oracle` re-parses every distinct result BLIF and simulates it
//! exhaustively with its own evaluator, independent of the flow's
//! verification. Results must be byte-identical across passes (and the
//! traced pass); each distinct `serve_open` result must equal an offline
//! `Session::run` of the same spec; every CEC verdict must match the
//! answer simulation fixes, and a counterexample must be one. A
//! violation exits non-zero and prints no result.
//!
//! # Baseline
//!
//! `--seed 1998`, 30 s per workload, on the machine above:
//!
//! | workload | `wall_s` | `geomean_ms` | `latency_p50_ms` | `latency_p90_ms` | `luts` | `depth` | `clbs` | `peak_rss_mb` | `setup_s` |
//! |---|---|---|---|---|---|---|---|---|---|
//! | `suite_cold` | 3.77 (7 passes) | 23.6 | 18.7 | 417 | 3458 | 113 | 3294 | 7.8 | 3.56 |
//! | `ladder_bdd` | 1.66 (17) | 14.4 | 14.2 | 212 | 4458 | 126 | 4229 | 16.2 | 1.59 |
//! | `cec_proofs` | 6.02 (5; 42 proofs/s) | 1.61 | 2.62 | 79.2 | 3458 | 113 | 3294 | 14.1 | 4.60 |
//! | `serve_open` | 0.210 (55 batches; 190 jobs/s) | 9.0 | 8.8 | 30.3 | 142 | 21 | 132 | 40.2 | 2.14 |
//!
//! # Scope
//!
//! Intra-job parallelism is out of scope. On this machine `HYDE_THREADS=2`
//! mapped the suite in 3.35–3.60 s against 3.60–4.10 s single-threaded
//! (`hyde-bench`, three runs each): a gain of about a tenth, inside what
//! the host moves a run, bought with the wider spread multi-threaded runs
//! show here. Single-threaded numbers are the ones a 20% change can be
//! read from. `hyde-bench`, the `BENCH_*.json` files and `cargo xtask
//! perf-diff` stay untouched; retiring them in favour of this benchmark is
//! a later simplification.

mod cec;
mod gen;
mod layers;
mod mapping;
mod metrics;
mod oracle;
mod recorder;
mod serve;
mod stats;
mod workload;

use recorder::Recorder;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::Ctx;

/// Every workload, in the order a full run executes them.
const WORKLOADS: [&str; 4] = ["suite_cold", "ladder_bdd", "cec_proofs", "serve_open"];

const USAGE: &str = "\
hyde-benchmark: noise-aware end-to-end and per-layer benchmark of HYDE

Usage:
  hyde-benchmark [--seed N] [--seconds S] [--smoke]
      run every workload, each in a fresh process, traced; writes
      <target>/hyde-benchmark/run-s<N>.json
  hyde-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      run one workload; the last stdout line is the JSON result
  hyde-benchmark compare A.json B.json
      every workload x metric of two reports side by side

Workloads: suite_cold, ladder_bdd, cec_proofs, serve_open
Defaults: --seed 1998, --seconds 30 (1 with --smoke), --trace 0";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1998,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                o.workload = Some(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown option '{other}'\n\n{USAGE}")),
        }
    }
    Ok(o)
}

/// `<target>/hyde-benchmark`, where `<target>` is `CARGO_TARGET_DIR`
/// when set, else `target`: outputs never land in the repository root.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("hyde-benchmark")
}

fn run_workload(o: &Options, workload: &str) -> Result<(), String> {
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds.unwrap_or(if o.smoke { 1.0 } else { 30.0 }),
        trace: o.trace,
        smoke: o.smoke,
        out: out_dir(),
        rec: Recorder::default(),
    };
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let report = match workload {
        "suite_cold" => mapping::run(&ctx, workload, hyde_map::session::BudgetSpec::unlimited()),
        "ladder_bdd" => mapping::run(&ctx, workload, mapping::ladder_budget()),
        "cec_proofs" => cec::run(&ctx),
        _ => serve::run(&ctx),
    }?;
    let stem = ctx.out.join(format!("{workload}-s{}", o.seed));
    let write = |ext: &str, text: &str| {
        let path = stem.with_extension(ext);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("json", &report.to_json())?;
    write("spans.jsonl", &ctx.rec.to_json_lines())?;
    eprint!("{}", report.table());
    println!("{}", report.result_line());
    Ok(())
}

/// The full run: every workload in a fresh child process (so peak memory
/// and caches are per workload), traced, merged into one report.
fn run_all(o: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut docs = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--seed",
            &o.seed.to_string(),
            "--trace",
            "1",
        ]);
        if let Some(s) = o.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if o.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("{w}: {e}"))?;
        if !status.success() {
            return Err(format!("{w} failed ({status})"));
        }
        let path = out_dir().join(format!("{w}-s{}.json", o.seed));
        let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(format!(
            "    \"{w}\": {}",
            doc.trim().replace('\n', "\n    ")
        ));
    }
    let path = out_dir().join(format!("run-s{}.json", o.seed));
    let merged = format!(
        "{{\n  \"schema\": \"hyde-benchmark-v1\",\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        o.seed,
        docs.join(",\n")
    );
    std::fs::write(&path, merged).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("hyde-benchmark: wrote {}", path.display());
    Ok(())
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = metrics::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    // Intra-job parallelism is out of scope (see the module docs): every
    // layer runs single-threaded, here and in the server child.
    std::env::set_var("HYDE_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("compare") if args.len() == 3 => match compare(&args[1], &args[2]) {
            Ok(true) => return ExitCode::from(1),
            other => other.map(|_| ()),
        },
        Some("serve-child") if args.len() == 2 => serve::child_main(std::path::Path::new(&args[1])),
        _ => parse(&args).and_then(|o| match &o.workload {
            Some(w) => run_workload(&o, w),
            None => run_all(&o),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hyde-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
