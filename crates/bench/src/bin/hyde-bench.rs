//! `hyde-bench`: the chaos drill and the traced suite run.
//!
//! `--chaos <SEED>` maps the selected circuits with deterministic fault
//! injection armed and writes `CHAOS_<name>.json`. Without it, the
//! selected circuits run through the same single-attempt `Session`, one
//! `bench.circuit` span each, and per-circuit wall time and LUTs go to
//! stderr. `--trace <path>` (or `HYDE_TRACE=<path>`) collects spans for
//! the run and writes Chrome-trace + folded-stack artifacts. Speed is
//! measured by `hyde-benchmark/` and gated by `cargo xtask ab`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hyde_bench::chaos::{batch_session, budget_spec, chaos_to_json, run_chaos, ChaosStatus};
use hyde_guard::Budget;
use hyde_logic::diag::{Code, Diagnostic};
use hyde_map::session::Job;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
hyde-bench: map the circuit suite (optionally traced), or run the chaos drill

Usage: hyde-bench [OPTIONS]

Options:
  --circuits <LIST>  comma-separated circuit names to run (default: all 25)
  --k <K>            LUT size (default 5)
  --chaos <SEED>     chaos drill: arm the deterministic fault-injection
                     layer (budget exhaustions, BDD allocation failures,
                     per-circuit panics) on SEED, isolate every circuit,
                     and write CHAOS_<NAME>.json
  --name <NAME>      chaos run label; default output path is
                     CHAOS_<NAME>.json (default: chaos)
  --out <FILE>       explicit chaos report path
  --stdout           print the chaos report to stdout instead
  --budget-ms <MS>          wall-clock deadline for the whole run
  --budget-bdd-nodes <N>    cap live BDD nodes per manager
  --budget-candidates <N>   cap bound-set candidates per decomposition step
  --budget-sat-conflicts <N> cap SAT conflicts per solve
                     (exhausting any budget degrades down the hyde-map
                     fallback ladder instead of failing; the events are
                     counted via hyde-obs and, under --chaos, recorded in
                     the CHAOS JSON)
  --trace <FILE>     collect spans: write a Chrome trace to FILE plus a
                     .folded flamegraph next to it (HYDE_TRACE=<FILE> is
                     equivalent)
  -h, --help         this message";

struct Options {
    name: String,
    out: Option<String>,
    circuits: Option<Vec<String>>,
    k: usize,
    chaos: Option<u64>,
    budget: Budget,
    trace: Option<String>,
    stdout: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        name: "chaos".into(),
        out: None,
        circuits: None,
        k: 5,
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
            "--circuits" => {
                let v = it.next().ok_or("--circuits needs a value")?;
                opts.circuits = Some(v.split(',').map(|s| s.trim().to_owned()).collect());
            }
            "--k" => {
                let v = it.next().ok_or("--k needs a value")?;
                opts.k = v.parse().map_err(|_| format!("bad --k value '{v}'"))?;
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

/// The traced suite run: every selected circuit through the batch
/// `Session`, one `bench.circuit` span each (so spans cover the run's
/// wall time), then the trace artifacts when `trace_path` is set.
fn run_suite_mode(
    opts: &Options,
    selected: &[hyde_circuits::Circuit],
    trace_path: Option<&str>,
) -> ExitCode {
    let observed = trace_path.is_some();
    eprintln!(
        "hyde-bench: {} circuit(s), k={}{}",
        selected.len(),
        opts.k,
        if observed { " [traced]" } else { "" }
    );
    let session = batch_session(opts.k);
    let spec = budget_spec(&opts.budget);
    if observed {
        hyde_obs::reset();
        hyde_obs::enable();
    }
    let mut failure = None;
    for c in selected {
        let _obs = hyde_obs::span!("bench.circuit");
        let start = Instant::now();
        match session.run(&Job::new(&c.name, c.outputs.clone()).with_budget(spec)) {
            Ok(result) => eprintln!(
                "  {:<10} {:>9.1}ms  luts={:<4} depth={}",
                c.name,
                start.elapsed().as_secs_f64() * 1e3,
                result.report.luts,
                result.report.depth
            ),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    hyde_obs::disable();
    if let Some(e) = failure {
        eprintln!("error: mapping failed: {e}");
        return ExitCode::FAILURE;
    }
    let Some(path) = trace_path else {
        return ExitCode::SUCCESS;
    };
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
    match hyde_obs::write_artifacts(path) {
        Ok(folded) => {
            eprintln!("hyde-bench: trace written to {path} and {folded}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write trace '{path}': {e}");
            ExitCode::FAILURE
        }
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
    let selected: Vec<hyde_circuits::Circuit> = match &opts.circuits {
        Some(names) => {
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
        None => all,
    };
    match opts.chaos {
        Some(seed) => run_chaos_mode(&opts, &selected, seed),
        None => run_suite_mode(&opts, &selected, trace_path.as_deref()),
    }
}
