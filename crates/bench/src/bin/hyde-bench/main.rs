//! `hyde-bench`: the one binary behind the paper's evaluation — Tables
//! 1–2, the worked examples of the figures, the ablations and the
//! LUT-size sweep — plus file mapping, suite export, the traced suite
//! run and the chaos drill. `hyde-bench --help` lists the subcommands.
//!
//! Every subcommand that maps circuits goes through
//! [`hyde_bench::map_each`], one `Session` job per circuit inside one
//! `bench.circuit` span. `run --trace <path>` (or `HYDE_TRACE=<path>`)
//! collects spans and writes Chrome-trace + folded-stack artifacts.
//! Speed is measured by `hyde-benchmark/` and gated by `cargo xtask ab`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod figures;

use hyde_bench::chaos::{chaos_to_json, run_chaos, ChaosStatus};
use hyde_bench::{map_each, map_suite, paper_table, TABLE1, TABLE2};
use hyde_circuits::{Circuit, Origin};
use hyde_core::encoding::EncoderKind;
use hyde_logic::diag::{Code, Diagnostic};
use hyde_logic::{blif, pla::Pla};
use hyde_map::flow::FlowKind;
use hyde_map::session::{BudgetSpec, Session};
use std::process::ExitCode;

const USAGE: &str = "\
hyde-bench: the HYDE paper's tables, figures and ablations, file mapping,
the (optionally traced) suite run and the chaos drill

Usage: hyde-bench <COMMAND> [OPTIONS]

Commands:
  table1 [--small]   Table 1, XC3000 CLBs: IMODEC-like, FGSyn-like, HYDE
  table2 [--small]   Table 2, 5-LUTs: no sharing, structural sharing, HYDE
  sweep              A4: every flow's total LUTs at k = 4, 5, 6
  ablation [encoding|dc|hyper]...      A1-A3 (default: all)
  figures [fig1|fig2|fig4..fig10]...   worked examples (default: all)
  map <FILE.{pla,blif}>  map a file; BLIF to stdout (or --out), stats to
                     stderr [--flow] [--k] [--seed] [--out]
  dump [DIR]         write the suite as PLA files (default DIR: suite_pla)
  run                map the suite through one Session, per-circuit time
                     and LUTs to stderr [--circuits] [--k] [--budget-*]
                     [--trace]
  chaos <SEED>       arm deterministic fault injection (budget exhaustions,
                     BDD allocation failures, per-circuit panics) on SEED,
                     isolate every circuit, write CHAOS_<NAME>.json
                     [--circuits] [--k] [--budget-*] [--name] [--out]
                     [--stdout]

Options:
  --circuits <LIST>  comma-separated circuit names (default: all 25)
  --k <K>            LUT size (default 5)
  --budget-ms <MS>          wall-clock deadline per circuit (per attempt)
  --budget-bdd-nodes <N>    cap live BDD nodes per manager
  --budget-candidates <N>   cap bound-set candidates per decomposition step
                     (an exhausted budget degrades down the fallback ladder
                     instead of failing; chaos records the events)
  --trace <FILE>     write a Chrome trace to FILE and a .folded flamegraph
                     next to it (HYDE_TRACE=<FILE> is equivalent)
  --name <NAME>      chaos run label (default: chaos)
  --out <FILE>       chaos report path (default: CHAOS_<NAME>.json), or the
                     mapped BLIF path
  --stdout           print the chaos report to stdout instead
  --small            the small suite only
  --flow <FLOW>      hyde|imodec|fgsyn|per-output (default: hyde)
  --seed <N>         HYDE encoder seed (default: 55960)
  -h, --help         this message";

/// Every subcommand with the options it takes.
const COMMANDS: &[(&str, &str)] = &[
    ("table1", "--small"),
    ("table2", "--small"),
    ("sweep", ""),
    ("ablation", ""),
    ("figures", ""),
    ("map", "--flow --k --seed --out"),
    ("dump", ""),
    (
        "run",
        "--circuits --k --trace --budget-ms --budget-bdd-nodes --budget-candidates",
    ),
    (
        "chaos",
        "--circuits --k --name --out --stdout --budget-ms --budget-bdd-nodes \
         --budget-candidates",
    ),
];

/// A parsed command line; each subcommand reads only the fields of the
/// options it accepts.
struct Args {
    cmd: &'static str,
    /// The suite circuits `run` and `chaos` map, in `--circuits` order.
    circuits: Vec<Circuit>,
    k: usize,
    budget: BudgetSpec,
    trace: Option<String>,
    chaos_seed: u64,
    name: String,
    out: Option<String>,
    stdout: bool,
    small: bool,
    /// `ablation` sections or `figures` names to print (empty: all).
    sections: Vec<String>,
    input: String,
    flow: String,
    seed: u64,
    dir: String,
}

fn num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {what} value '{value}'"))
}

/// Parses the command line; `Ok(None)` means help was printed.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|arg| arg == "-h" || arg == "--help") {
        println!("{USAGE}");
        return Ok(None);
    }
    let mut it = argv.iter();
    let first = it.next().ok_or("missing subcommand")?;
    let Some(&(cmd, options)) = COMMANDS.iter().find(|(cmd, _)| cmd == first) else {
        return Err(format!("unknown subcommand '{first}'"));
    };
    let mut a = Args {
        cmd,
        circuits: Vec::new(),
        k: 5,
        budget: BudgetSpec::unlimited(),
        trace: None,
        chaos_seed: 0,
        name: "chaos".into(),
        out: None,
        stdout: false,
        small: false,
        sections: Vec::new(),
        input: String::new(),
        flow: "hyde".into(),
        seed: 0xDA98,
        dir: "suite_pla".into(),
    };
    let (mut names, mut positional) = (None, Vec::new());
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            positional.push(arg.clone());
            continue;
        }
        if !options.split_whitespace().any(|option| option == arg) {
            return Err(format!("'{cmd}' does not take option '{arg}'"));
        }
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--circuits" => names = Some(value()?.split(',').map(str::trim).collect()),
            "--k" => a.k = num(value()?, arg)?,
            "--budget-ms" => a.budget.deadline_ms = Some(num(value()?, arg)?),
            "--budget-bdd-nodes" => a.budget.bdd_nodes = Some(num(value()?, arg)?),
            "--budget-candidates" => a.budget.candidates = Some(num(value()?, arg)?),
            "--trace" => a.trace = Some(value()?.clone()),
            "--name" => a.name = value()?.clone(),
            "--out" => a.out = Some(value()?.clone()),
            "--flow" => a.flow = value()?.clone(),
            "--seed" => a.seed = num(value()?, arg)?,
            "--stdout" => a.stdout = true,
            "--small" => a.small = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if a.k < 3 {
        return Err(format!("--k must be at least 3, got {}", a.k));
    }
    let mut positional = positional.into_iter();
    match cmd {
        "run" => a.circuits = select(names)?,
        "chaos" => {
            let seed = positional.next().ok_or("chaos needs a SEED")?;
            a.chaos_seed = num(&seed, "chaos seed")?;
            a.circuits = select(names)?;
        }
        "map" => a.input = positional.next().ok_or("map needs an input file")?,
        "dump" => a.dir = positional.next().unwrap_or(a.dir),
        "ablation" | "figures" => {
            let known = if cmd == "ablation" {
                ablation::SECTIONS
            } else {
                figures::NAMES
            };
            a.sections = positional.by_ref().collect();
            if let Some(bad) = a.sections.iter().find(|s| !known.contains(&s.as_str())) {
                return Err(format!("'{cmd}' has no section '{bad}'"));
            }
        }
        _ => {}
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument '{extra}'"));
    }
    Ok(Some(a))
}

/// The suite circuits `names` picks, in the given order (all 25 when
/// `None`).
fn select(names: Option<Vec<&str>>) -> Result<Vec<Circuit>, String> {
    let Some(names) = names else {
        return Ok(hyde_circuits::suite());
    };
    names
        .iter()
        .map(|want| hyde_circuits::by_name(want).ok_or_else(|| format!("unknown circuit '{want}'")))
        .collect()
}

/// The `chaos` drill: arm deterministic fault injection, run every
/// selected circuit with panic isolation, and write `CHAOS_<name>.json`.
/// Injected panics and degradations are expected outcomes; the drill only
/// fails on *typed* mapping errors, which mean a rung of the fallback
/// ladder broke.
fn chaos(a: &Args) -> Result<(), String> {
    let seed = a.chaos_seed;
    // Injected panics are expected and recorded in the report — silence
    // the default all-caps panic banner for the duration of the drill.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = run_chaos(&a.name, &a.circuits, a.k, seed, a.budget);
    std::panic::set_hook(prev_hook);
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
    if a.stdout {
        println!("{json}");
    } else {
        let path = a
            .out
            .clone()
            .unwrap_or_else(|| format!("CHAOS_{}.json", a.name));
        std::fs::write(&path, &json).map_err(|e| format!("cannot write '{path}': {e}"))?;
        eprintln!("hyde-bench: wrote {path}");
    }
    eprintln!(
        "hyde-bench: chaos totals: {} degradation(s), {failed} hard failure(s)",
        run.total_degradations()
    );
    match failed {
        0 => Ok(()),
        _ => Err(format!("{failed} circuit(s) failed with typed errors")),
    }
}

/// The `run` subcommand: every selected circuit through one `Session`,
/// one `bench.circuit` span each (so spans cover the run's wall time),
/// then the trace artifacts when a trace path is set.
fn run(a: &Args) -> Result<(), String> {
    let trace_path = a.trace.clone().or_else(hyde_obs::init_from_env);
    let traced = trace_path.as_ref().map_or("", |_| " [traced]");
    eprintln!(
        "hyde-bench: {} circuit(s), k={}{traced}",
        a.circuits.len(),
        a.k
    );
    let session = Session::new(a.k, FlowKind::hyde(0xDA98));
    if trace_path.is_some() {
        hyde_obs::reset();
        hyde_obs::enable();
    }
    for (c, result) in map_each(&session, &a.circuits, a.budget) {
        let report = result.map_err(|e| format!("mapping failed: {e}"))?.report;
        eprintln!(
            "  {:<10} {:>9.1}ms  luts={:<4} depth={}",
            c.name,
            report.elapsed.as_secs_f64() * 1e3,
            report.luts,
            report.depth
        );
    }
    hyde_obs::disable();
    let Some(path) = trace_path else {
        return Ok(());
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
    let folded = hyde_obs::write_artifacts(&path)
        .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
    eprintln!("hyde-bench: trace written to {path} and {folded}");
    Ok(())
}

/// The `map` subcommand: map a PLA or BLIF file with the chosen flow and
/// write the mapped network as BLIF.
fn map_file(a: &Args) -> Result<(), String> {
    let input = &a.input;
    let text = std::fs::read_to_string(input).map_err(|e| format!("read {input}: {e}"))?;
    let check = |inputs: usize| match inputs {
        0..=20 => Ok(inputs),
        _ => Err(format!(
            "{inputs} primary inputs exceed the exact-mapping limit of 20"
        )),
    };
    // Load outputs as truth tables over the shared input space.
    let (name, inputs, outputs) = if input.ends_with(".blif") {
        let net = blif::parse(&text).map_err(|e| e.to_string())?;
        let inputs = check(net.inputs().len())?;
        let tables = net.global_tables();
        let outs = net.outputs().iter().map(|(_, id)| tables[id].clone());
        (net.name().to_owned(), inputs, outs.collect())
    } else {
        let pla = Pla::parse(&text).map_err(|e| e.to_string())?;
        let name = input.trim_end_matches(".pla").to_owned();
        (name, check(pla.inputs)?, pla.output_tables())
    };
    let kind = match a.flow.as_str() {
        "hyde" => FlowKind::hyde(a.seed),
        "imodec" => FlowKind::imodec_like(),
        "fgsyn" => FlowKind::fgsyn_like(),
        "per-output" => FlowKind::PerOutput {
            encoder: EncoderKind::Lexicographic,
        },
        other => {
            return Err(format!(
                "unknown flow {other:?} (hyde|imodec|fgsyn|per-output)"
            ))
        }
    };
    let circuit = Circuit {
        name,
        inputs,
        outputs,
        origin: Origin::ExactSpec,
    };
    let report = map_suite(a.k, kind, std::slice::from_ref(&circuit))?
        .pop()
        .ok_or("no mapping report")?;
    eprintln!(
        "{}: {} ({} LUTs{}, depth {}, {:.2}s)",
        circuit.name,
        report.network.stats(),
        report.luts,
        report
            .clbs
            .map_or(String::new(), |c| format!(", {c} XC3000 CLBs")),
        report.depth,
        report.elapsed.as_secs_f64()
    );
    let text = blif::write(&report.network);
    match &a.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// The `dump` subcommand: write every suite circuit as a PLA file.
fn dump(dir: &str) -> Result<(), String> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let suite = hyde_circuits::suite();
    let mut total_cubes = 0usize;
    for circuit in &suite {
        let pla = circuit.to_pla();
        let path = dir.join(format!("{}.pla", circuit.name));
        std::fs::write(&path, pla.to_text())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        total_cubes += pla.rows.len();
        println!(
            "{:<10} {} in, {} out, {} cubes -> {}",
            circuit.name,
            circuit.inputs,
            circuit.output_count(),
            pla.rows.len(),
            path.display()
        );
    }
    println!("{} circuits, {total_cubes} cubes total", suite.len());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match a.cmd {
        "run" => run(&a),
        "chaos" => chaos(&a),
        "table1" | "table2" => {
            let table = if a.cmd == "table1" { &TABLE1 } else { &TABLE2 };
            let circuits = if a.small {
                hyde_circuits::suite_small()
            } else {
                hyde_circuits::suite()
            };
            paper_table(table, &circuits).map(|table| print!("{table}"))
        }
        "sweep" => ablation::sweep(),
        "ablation" => ablation::run(&a.sections),
        "figures" => {
            figures::run(&a.sections);
            Ok(())
        }
        "map" => map_file(&a),
        _ => dump(&a.dir),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn budget_flags_parse_into_a_per_attempt_spec() {
        let a = parse(&["run", "--budget-ms", "30", "--budget-candidates", "8"]);
        let expected = BudgetSpec {
            deadline_ms: Some(30),
            candidates: Some(8),
            ..BudgetSpec::unlimited()
        };
        assert_eq!(a.unwrap().unwrap().budget, expected);
    }

    #[test]
    fn options_belong_to_their_subcommand() {
        let chaos = parse(&["chaos", "42", "--name", "x"]).unwrap().unwrap();
        assert_eq!((chaos.chaos_seed, chaos.name.as_str()), (42, "x"));
        for bad in [
            &["chaos"][..],
            &["run", "--small"],
            &["ablation", "nope"],
            &["map", "a.pla", "b.pla"],
            &["run", "--k", "2"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
