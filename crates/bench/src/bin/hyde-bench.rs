//! `hyde-bench`: end-to-end runtime benchmark with JSON trajectory output.
//!
//! Times the HYDE flow over the bundled circuit suite and writes
//! `BENCH_<name>.json` (per-circuit wall time, LUT count, BDD kernel
//! footprint, thread count). `--baseline` embeds an earlier run and
//! records the end-to-end speedup over it, so perf PRs carry their own
//! evidence. `--trace <path>` (or `HYDE_TRACE=<path>`) additionally
//! collects spans for the whole run, embeds the per-phase breakdown in
//! the JSON (`"obs"` section), and writes Chrome-trace + folded-stack
//! artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hyde_bench::diff::{MAX_RATIO, SLACK_MS};
use hyde_bench::perf::{
    chaos_to_json, circuit_wall_ms, run_bench_budgeted, run_bench_observed_budgeted, run_chaos,
    to_json, totals_wall_ms, validate_json, ChaosStatus,
};
use hyde_guard::Budget;
use hyde_logic::diag::{Code, Diagnostic};
use std::process::ExitCode;

const USAGE: &str = "\
hyde-bench: time the HYDE flow over the circuit suite, write BENCH_<name>.json

Usage: hyde-bench [OPTIONS]

Options:
  --name <NAME>      run label; default output path is BENCH_<NAME>.json
                     (default: hot_path)
  --out <FILE>       explicit output path
  --smoke            3-circuit subset (rd73, misex1, z4ml) instead of all 25;
                     also gates per-circuit wall time against the committed
                     BENCH_smoke.json baseline when present (fails >1.3x + 2ms)
  --circuits <LIST>  comma-separated circuit names to run (overrides --smoke)
  --k <K>            LUT size (default 5)
  --baseline <FILE>  embed FILE (an earlier hyde-bench JSON) as the baseline
                     and record the end-to-end speedup over it; exits 2 if
                     FILE is missing or not a known benchmark schema
  --chaos <SEED>     chaos drill: arm the deterministic fault-injection
                     layer (budget exhaustions, BDD allocation failures,
                     per-circuit panics) on SEED, isolate every circuit,
                     and write CHAOS_<NAME>.json instead of a benchmark
  --budget-ms <MS>          wall-clock deadline for the whole run
  --budget-bdd-nodes <N>    cap live BDD nodes per manager
  --budget-candidates <N>   cap bound-set candidates per decomposition step
  --budget-sat-conflicts <N> cap SAT conflicts per solve
                     (exhausting any budget degrades down the hyde-map
                     fallback ladder instead of failing; the events are
                     counted via hyde-obs and, under --chaos, recorded in
                     the CHAOS JSON)
  --trace <FILE>     collect spans: embed the obs breakdown in the JSON and
                     write a Chrome trace to FILE plus a .folded flamegraph
                     next to it (HYDE_TRACE=<FILE> is equivalent)
  --stdout           print the JSON to stdout instead of writing a file
  -h, --help         this message";

/// Circuits in the `--smoke` subset; kept in sync with the CI smoke step.
const SMOKE_CIRCUITS: [&str; 3] = ["rd73", "misex1", "z4ml"];

struct Options {
    name: String,
    out: Option<String>,
    smoke: bool,
    circuits: Option<Vec<String>>,
    k: usize,
    baseline: Option<String>,
    chaos: Option<u64>,
    budget: Budget,
    trace: Option<String>,
    stdout: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        name: "hot_path".into(),
        out: None,
        smoke: false,
        circuits: None,
        k: 5,
        baseline: None,
        chaos: None,
        budget: Budget::unlimited(),
        trace: None,
        stdout: false,
    };
    fn num<T: std::str::FromStr>(
        it: &mut std::slice::Iter<String>,
        flag: &str,
    ) -> Result<T, String> {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag} value '{v}'"))
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--name" => opts.name = it.next().ok_or("--name needs a value")?.clone(),
            "--out" => opts.out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--smoke" => opts.smoke = true,
            "--circuits" => {
                let v = it.next().ok_or("--circuits needs a value")?;
                opts.circuits = Some(v.split(',').map(|s| s.trim().to_owned()).collect());
            }
            "--k" => {
                let v = it.next().ok_or("--k needs a value")?;
                opts.k = v.parse().map_err(|_| format!("bad --k value '{v}'"))?;
            }
            "--baseline" => {
                opts.baseline = Some(it.next().ok_or("--baseline needs a file")?.clone());
            }
            "--chaos" => {
                let v = it.next().ok_or("--chaos needs a seed")?;
                opts.chaos = Some(v.parse().map_err(|_| format!("bad --chaos seed '{v}'"))?);
            }
            "--budget-ms" => {
                let ms: u64 = num(&mut it, "--budget-ms")?;
                opts.budget = opts
                    .budget
                    .with_deadline(std::time::Duration::from_millis(ms));
            }
            "--budget-bdd-nodes" => {
                opts.budget = opts
                    .budget
                    .with_bdd_nodes(num(&mut it, "--budget-bdd-nodes")?);
            }
            "--budget-candidates" => {
                opts.budget = opts
                    .budget
                    .with_candidates(num(&mut it, "--budget-candidates")?);
            }
            "--budget-sat-conflicts" => {
                opts.budget = opts
                    .budget
                    .with_sat_conflicts(num(&mut it, "--budget-sat-conflicts")?);
            }
            "--trace" => {
                opts.trace = Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            "--stdout" => opts.stdout = true,
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    Ok(Some(opts))
}

/// Hard overhead gate for `--smoke`: every smoke circuit's wall time is
/// compared against the committed `BENCH_smoke.json`, and any circuit
/// more than 1.3× slower fails the run. Sub-millisecond circuits sit
/// below timer and scheduler jitter, so a pure ratio would flake on
/// noise alone; a 2ms absolute slack on top of the ratio keeps the gate
/// quiet there while still catching the regression class this guards
/// against: tracing or caching overhead leaking into the untraced hot
/// path.
///
/// Returns `false` — failing the run — when a circuit exceeds the
/// margin. A missing or incomplete baseline only warns: regenerating
/// `BENCH_smoke.json` must not require passing the gate it feeds.
fn smoke_overhead_check(run: &hyde_bench::perf::BenchRun) -> bool {
    let Ok(baseline) = std::fs::read_to_string("BENCH_smoke.json") else {
        eprintln!("hyde-bench: no BENCH_smoke.json baseline; skipping overhead gate");
        return true;
    };
    let mut ok = true;
    for s in &run.samples {
        match circuit_wall_ms(&baseline, &s.name) {
            Some(base) if base > 0.0 => {
                let ratio = s.wall_ms / base;
                eprintln!(
                    "hyde-bench: smoke gate: {:<8} {:>7.1}ms vs baseline {:.1}ms ({ratio:.2}x)",
                    s.name, s.wall_ms, base
                );
                if s.wall_ms > base * MAX_RATIO + SLACK_MS {
                    eprintln!(
                        "hyde-bench: FAIL: '{}' is {:.0}% slower than the committed \
                         BENCH_smoke.json (hard gate at {MAX_RATIO}x + {SLACK_MS}ms; \
                         see DESIGN.md \"Observability\" for methodology)",
                        s.name,
                        (ratio - 1.0) * 100.0
                    );
                    ok = false;
                }
            }
            _ => {
                eprintln!(
                    "hyde-bench: circuit '{}' missing from baseline; skipping it",
                    s.name
                );
            }
        }
    }
    ok
}

/// The `--chaos` drill: arm deterministic fault injection, run every
/// selected circuit with panic isolation, and write `CHAOS_<name>.json`.
/// Injected panics and degradations are expected outcomes; the drill only
/// fails on *typed* mapping errors, which mean a rung of the fallback
/// ladder broke.
fn run_chaos_mode(opts: &Options, selected: &[hyde_circuits::Circuit], seed: u64) -> ExitCode {
    // Only this batch driver opts in to injected panics; library users
    // and the lint suite never see process-level faults.
    std::env::set_var("HYDE_CHAOS_PANIC", "1");
    // Injected panics are expected and recorded in the report — silence
    // the default all-caps panic banner for the duration of the drill.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = run_chaos(&opts.name, selected, opts.k, seed, opts.budget);
    std::panic::set_hook(prev_hook);
    std::env::remove_var("HYDE_CHAOS_PANIC");
    eprintln!(
        "hyde-bench: chaos drill over {} circuit(s), seed {seed}",
        run.samples.len()
    );
    let mut failed = 0usize;
    for s in &run.samples {
        let status = match &s.status {
            ChaosStatus::Ok { luts } => format!("ok (luts={luts})"),
            ChaosStatus::Panicked { .. } => "panicked (isolated)".to_owned(),
            ChaosStatus::Failed { error } => {
                failed += 1;
                format!("FAILED: {error}")
            }
        };
        eprintln!(
            "  {:<10} degradations={:<3} {status}",
            s.name,
            s.degradations.len()
        );
    }
    let json = chaos_to_json(&run);
    if opts.stdout {
        println!("{json}");
    } else {
        let path = opts
            .out
            .clone()
            .unwrap_or_else(|| format!("CHAOS_{}.json", opts.name));
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write '{path}': {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("hyde-bench: wrote {path}");
    }
    eprintln!(
        "hyde-bench: chaos totals: {} degradation(s), {failed} hard failure(s)",
        run.total_degradations()
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_path = opts.trace.clone().or_else(hyde_obs::init_from_env);
    let all = hyde_circuits::suite();
    let selected: Vec<hyde_circuits::Circuit> = match (&opts.circuits, opts.smoke) {
        (Some(names), _) => {
            let mut picked = Vec::new();
            for want in names {
                match all.iter().find(|c| &c.name == want) {
                    Some(c) => picked.push(c.clone()),
                    None => {
                        eprintln!("error: unknown circuit '{want}'");
                        return ExitCode::from(2);
                    }
                }
            }
            picked
        }
        (None, true) => all
            .iter()
            .filter(|c| SMOKE_CIRCUITS.contains(&c.name.as_str()))
            .cloned()
            .collect(),
        (None, false) => all,
    };
    let baseline = match &opts.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => {
                if let Err(e) = validate_json(&s) {
                    eprintln!("error: baseline '{path}' is not a recognized benchmark JSON: {e}");
                    return ExitCode::from(2);
                }
                Some(s)
            }
            Err(e) => {
                eprintln!("error: cannot read baseline '{path}': {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    if let Some(seed) = opts.chaos {
        return run_chaos_mode(&opts, &selected, seed);
    }
    let observed = trace_path.is_some();
    eprintln!(
        "hyde-bench: {} circuit(s), k={}, run '{}'{}",
        selected.len(),
        opts.k,
        opts.name,
        if observed { " [traced]" } else { "" }
    );
    let result = if observed {
        run_bench_observed_budgeted(&opts.name, &selected, opts.k, opts.budget)
    } else {
        run_bench_budgeted(&opts.name, &selected, opts.k, opts.budget)
    };
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: benchmark flow failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for s in &run.samples {
        eprintln!(
            "  {:<10} {:>9.1}ms  luts={:<4} bdd_nodes={}",
            s.name, s.wall_ms, s.luts, s.bdd_nodes
        );
    }
    let json = to_json(&run, baseline.as_deref());
    if let Err(e) = validate_json(&json) {
        eprintln!("error: emitted JSON failed validation: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "hyde-bench: total {:.1}ms over {} circuit(s), {} thread(s)",
        run.total_wall_ms(),
        run.samples.len(),
        run.threads
    );
    if let Some(base) = baseline.as_deref() {
        if let Some(base_ms) = totals_wall_ms(base) {
            eprintln!(
                "hyde-bench: baseline {:.1}ms -> speedup {:.2}x",
                base_ms,
                base_ms / run.total_wall_ms()
            );
        }
    }
    if opts.smoke && opts.circuits.is_none() && !smoke_overhead_check(&run) {
        return ExitCode::FAILURE;
    }
    if observed {
        let dropped = hyde_obs::dropped();
        if dropped > 0 {
            eprintln!(
                "hyde-bench: {}",
                Diagnostic::new(
                    Code::ObsDroppedEvents,
                    format!(
                        "{dropped} trace event(s) dropped at the buffer cap; the exported \
                         timeline is truncated (counters and histogram percentiles are complete)"
                    )
                )
            );
        }
    }
    if let Some(path) = &trace_path {
        match hyde_obs::write_artifacts(path) {
            Ok(folded) => eprintln!("hyde-bench: trace written to {path} and {folded}"),
            Err(e) => {
                eprintln!("error: cannot write trace '{path}': {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.stdout {
        println!("{json}");
        return ExitCode::SUCCESS;
    }
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", opts.name));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("error: cannot write '{path}': {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("hyde-bench: wrote {path}");
    ExitCode::SUCCESS
}
