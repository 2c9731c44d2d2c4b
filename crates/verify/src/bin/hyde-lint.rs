//! `hyde-lint`: run the `hyde-verify` checks over BLIF/PLA files or the
//! bundled circuit suite, print diagnostics, and exit non-zero when any
//! deny-level finding fires. `--deep` additionally runs the `HY4xx`
//! SAT/BDD semantic proofs and prints per-proof effort statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hyde_core::decompose::{decompose_step, Decomposer};
use hyde_core::encoding::EncoderKind;
use hyde_core::hyper::HyperFunction;
use hyde_guard::Chaos;
use hyde_logic::diag::{Code, Diagnostic, Location, Severity};
use hyde_logic::{blif, pla::Pla, Network, NodeRole, TruthTable};
use hyde_map::flow::FlowKind;
use hyde_map::session::{panic_message, Job, JobErrorKind, Session};
use hyde_obs::json::escape;
use hyde_verify::deep::{Deep, DeepConfig, ProofRecord};
use hyde_verify::Artifact;
use std::collections::HashSet;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
hyde-lint: lint HYDE networks, encodings and hyper-functions

Usage: hyde-lint [OPTIONS] [FILE...]

Inputs are BLIF netlists (linted structurally) or espresso-style PLA
files (each output becomes one LUT over all inputs, linted against its
own table as specification; at most 16 inputs).

Options:
  -k <K>           fanin bound: report HY002 for LUTs with more than K fanins
  --suite          lint the bundled circuit suite end-to-end
                   (decompose -> encode -> hyper-recover, k = 5)
  --deep           also run the HY4xx semantic proofs (SAT/BDD CEC,
                   encoding injectivity, collapse/recovery, stuck-at)
  --proof-budget <N>
                   conflict budget per deep proof (default 200000);
                   a blown budget reports HY406
  --mutate <SEED>  corruption drill: flip one LUT bit in every mapped
                   suite network before linting (the deep CEC pass must
                   then report HY401)
  --json           machine-readable output: one JSON object per
                   diagnostic line instead of human-readable text
  --trace <PATH>   record a hyde-obs trace of the run: Chrome trace-event
                   JSON at PATH (load in chrome://tracing or Perfetto)
                   plus collapsed stacks at PATH with a .folded extension
                   (the HYDE_TRACE environment variable does the same)
  --deny-warnings  treat warn-level diagnostics as deny
  --list-codes     print the diagnostic code table and exit
  -h, --help       this message

Environment:
  HYDE_CHAOS=<SEED>  arm the mapping flow's deterministic fault injection
                     for --suite (decimal or 0x-prefixed hex)
  HYDE_TRACE=<PATH>  as --trace

Exit codes:
  0  no deny-level findings (and no warns under --deny-warnings)
  1  at least one deny-level finding
  2  usage or input/output error";

/// Prints one line to stdout, ignoring broken-pipe errors so
/// `hyde-lint ... | head` exits cleanly instead of panicking.
fn out(line: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "{line}");
}

struct Options {
    k: Option<usize>,
    suite: bool,
    deny_warnings: bool,
    deep: bool,
    json: bool,
    proof_budget: Option<u64>,
    mutate: Option<u64>,
    trace: Option<String>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        k: None,
        suite: false,
        deny_warnings: false,
        deep: false,
        json: false,
        proof_budget: None,
        mutate: None,
        trace: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                out(USAGE);
                return Ok(None);
            }
            "--list-codes" => {
                for code in Code::ALL {
                    out(&format!(
                        "{code}  default {:<4}",
                        code.default_severity().to_string()
                    ));
                }
                return Ok(None);
            }
            "-k" | "--k" => {
                let v = it.next().ok_or("-k needs a value")?;
                opts.k = Some(v.parse().map_err(|_| format!("bad -k value '{v}'"))?);
            }
            "--proof-budget" => {
                let v = it.next().ok_or("--proof-budget needs a value")?;
                opts.proof_budget = Some(
                    v.parse()
                        .map_err(|_| format!("bad --proof-budget value '{v}'"))?,
                );
            }
            "--mutate" => {
                let v = it.next().ok_or("--mutate needs a seed")?;
                opts.mutate = Some(v.parse().map_err(|_| format!("bad --mutate seed '{v}'"))?);
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path")?;
                opts.trace = Some(v.clone());
            }
            "--suite" => opts.suite = true,
            "--deep" => opts.deep = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}' (try --help)"));
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    if !opts.suite && opts.files.is_empty() {
        return Err("no input files (try --help)".into());
    }
    if opts.mutate.is_some() && !opts.suite {
        return Err("--mutate only applies to --suite".into());
    }
    Ok(Some(opts))
}

/// Builds a one-LUT-per-output network from PLA tables so the network
/// lints (and the spec check) apply.
fn network_from_tables(name: &str, tables: &[TruthTable]) -> Network {
    let n = tables.first().map_or(0, TruthTable::vars);
    let mut net = Network::new(name);
    let inputs: Vec<_> = (0..n).map(|i| net.add_input(&format!("x{i}"))).collect();
    for (o, t) in tables.iter().enumerate() {
        let id = net
            .add_node(&format!("f{o}"), inputs.clone(), t.clone())
            .expect("fresh inputs cannot dangle");
        net.mark_output(&format!("f{o}"), id);
    }
    net
}

/// Flips one LUT bit of one internal node, selected by `seed`. Returns a
/// description of the corruption, or `None` for networks with no LUTs.
fn corrupt_one_lut_bit(net: &mut Network, seed: u64) -> Option<String> {
    let internals: Vec<_> = net
        .node_ids()
        .into_iter()
        .filter(|&id| net.role(id) == NodeRole::Internal)
        .collect();
    if internals.is_empty() {
        return None;
    }
    let id = internals[seed as usize % internals.len()];
    let mut t = net.function(id).clone();
    let m = (seed >> 8) as usize % t.num_minterms();
    t.set(m as u32, !t.eval(m as u32));
    let fanins = net.fanins(id).to_vec();
    let name = net.node_name(id).to_owned();
    net.replace_node_unchecked(id, fanins, t);
    Some(format!("node '{name}' minterm {m}"))
}

/// One linted circuit or file: its name, its diagnostics and the records
/// of the deep proofs run on it.
type Group = (String, Vec<Diagnostic>, Vec<ProofRecord>);

/// The structural findings on `artifact`, followed by the deep ones when
/// `deep` is given.
fn lint(artifact: &Artifact<'_>, deep: Option<&mut Deep>) -> Vec<Diagnostic> {
    let mut diags = artifact.lint();
    if let Some(deep) = deep {
        diags.extend(deep.check(artifact));
    }
    diags
}

fn lint_file(
    path: &str,
    opts: &Options,
    deep: Option<&mut Deep>,
) -> Result<Vec<Diagnostic>, String> {
    let _obs = hyde_obs::span!("lint.file");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let is_pla = path.ends_with(".pla")
        || (!path.ends_with(".blif") && text.lines().any(|l| l.trim_start().starts_with(".i ")));
    if is_pla {
        let pla = Pla::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if pla.inputs > 16 {
            return Err(format!(
                "{path}: {} inputs is too wide to materialize truth tables (max 16)",
                pla.inputs
            ));
        }
        let tables = pla.output_tables();
        let net = network_from_tables(path, &tables);
        Ok(lint(
            &Artifact::Network {
                net: &net,
                k: opts.k,
                spec: Some(&tables),
            },
            deep,
        ))
    } else {
        let net = blif::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(lint(
            &Artifact::Network {
                net: &net,
                k: opts.k,
                spec: None,
            },
            deep,
        ))
    }
}

/// Lints `circuits` end-to-end: every circuit is mapped with the HYDE
/// flow and the result linted against its specification; multi-output
/// circuits additionally go through explicit hyper-function
/// decomposition and ingredient recovery. With `--deep` the first output
/// wide enough to decompose also exercises the encoding-injectivity
/// proof on a single Roth–Karp step. Each circuit's group carries the
/// proofs `deep` recorded while that circuit was linted.
fn lint_suite(
    circuits: &[hyde_circuits::Circuit],
    opts: &Options,
    mut deep: Option<&mut Deep>,
    chaos: Option<Chaos>,
) -> Vec<Group> {
    let k = opts.k.unwrap_or(5);
    // Mapping runs through the same single-attempt Session the bench
    // drivers and hyde-serve share; the outer catch_unwind only guards
    // the lint-only paths (hyper recovery, deep proofs) that run
    // outside the supervised mapping attempt.
    let mut session = Session::new(k, FlowKind::hyde(0xDA98));
    if let Some(chaos) = chaos {
        session = session.with_chaos(chaos.seed);
    }
    let mut results = Vec::new();
    for circuit in circuits {
        let _obs = hyde_obs::span!("lint.circuit");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lint_suite_circuit(circuit, opts, deep.as_deref_mut(), &session, k)
        }));
        let diags = outcome.unwrap_or_else(|payload| {
            vec![Diagnostic::new(
                Code::BudgetExhausted,
                format!("circuit aborted by panic: {}", panic_message(payload)),
            )]
        });
        let proofs = deep
            .as_deref_mut()
            .map(Deep::take_proofs)
            .unwrap_or_default();
        results.push((circuit.name.clone(), diags, proofs));
    }
    results
}

/// The per-circuit body of [`lint_suite`].
fn lint_suite_circuit(
    circuit: &hyde_circuits::Circuit,
    opts: &Options,
    mut deep: Option<&mut Deep>,
    session: &Session,
    k: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    {
        let job = Job::new(&circuit.name, circuit.outputs.clone());
        // The ladder's degradation trail (HY501–HY503/HY505) is the one
        // the job's attempts returned on its result or error.
        let degradations = match session.run(&job) {
            Ok(result) => {
                let mut report = result.report;
                if let Some(seed) = opts.mutate {
                    if let Some(what) = corrupt_one_lut_bit(&mut report.network, seed) {
                        eprintln!("{}: mutated {what}", circuit.name);
                    }
                }
                diags.extend(lint(
                    &Artifact::Network {
                        net: &report.network,
                        k: Some(k),
                        spec: Some(&circuit.outputs),
                    },
                    deep.as_deref_mut(),
                ));
                result.degradations
            }
            Err(e) => {
                diags.push(match &e.kind {
                    // An exhaustion that escaped every rung of the
                    // ladder: the circuit produced no output at all.
                    JobErrorKind::OutOfBudget(ob) => {
                        Diagnostic::new(Code::BudgetExhausted, format!("mapping failed: {ob}"))
                    }
                    JobErrorKind::Panicked(msg) => Diagnostic::new(
                        Code::BudgetExhausted,
                        format!("circuit aborted by panic: {msg}"),
                    ),
                    JobErrorKind::Mapping(msg) => {
                        Diagnostic::new(Code::NetworkSpecMismatch, format!("mapping failed: {msg}"))
                    }
                });
                e.degradations
            }
        };
        if !degradations.is_empty() {
            diags.extend(lint(
                &Artifact::Degradations(&degradations),
                deep.as_deref_mut(),
            ));
        }
        if opts.deep {
            if let Some(t) = circuit.outputs.iter().find(|t| t.vars() > k) {
                let bound: Vec<usize> = (0..k).collect();
                match decompose_step(t, &bound, &EncoderKind::Hyde { seed: 0xDA98 }, k) {
                    Ok(d) => diags.extend(lint(
                        &Artifact::Decomposition {
                            decomposition: &d,
                            function: t,
                        },
                        deep.as_deref_mut(),
                    )),
                    Err(e) => diags.push(Diagnostic::new(
                        Code::EncodingRecomposition,
                        format!("decomposition step failed: {e}"),
                    )),
                }
            }
        }
        // Hyper-function path: fold distinct outputs, decompose, recover.
        let mut distinct: Vec<TruthTable> = Vec::new();
        let mut seen: HashSet<TruthTable> = HashSet::new();
        for t in &circuit.outputs {
            if seen.insert(t.clone()) {
                distinct.push(t.clone());
            }
            if distinct.len() == 4 {
                break;
            }
        }
        if distinct.len() >= 2 {
            match HyperFunction::new(distinct, &EncoderKind::Hyde { seed: 0xDA98 }, k) {
                Ok(h) => {
                    diags.extend(lint(&Artifact::HyperFn(&h), deep.as_deref_mut()));
                    let dec = Decomposer::new(k, EncoderKind::Hyde { seed: 0xDA98 });
                    match h.decompose(&dec) {
                        Ok(hn) => {
                            diags.extend(lint(&Artifact::Hyper(&hn), deep.as_deref_mut()));
                            match hn.implement_ingredients() {
                                Ok(merged) => diags.extend(lint(
                                    &Artifact::Recovery {
                                        hyper: &hn,
                                        implemented: &merged,
                                    },
                                    deep,
                                )),
                                Err(e) => diags.push(Diagnostic::new(
                                    Code::HyperRecoveryMismatch,
                                    format!("ingredient implementation failed: {e}"),
                                )),
                            }
                        }
                        Err(e) => diags.push(Diagnostic::new(
                            Code::HyperRecoveryMismatch,
                            format!("hyper decomposition failed: {e}"),
                        )),
                    }
                }
                Err(e) => diags.push(Diagnostic::new(
                    Code::HyperRecoveryMismatch,
                    format!("hyper-function construction failed: {e}"),
                )),
            }
        }
    }
    diags
}

fn json_line(artifact: &str, d: &Diagnostic) -> String {
    let location = if d.location == Location::None {
        "null".to_owned()
    } else {
        format!("\"{}\"", escape(&d.location.to_string()))
    };
    format!(
        "{{\"artifact\":\"{}\",\"code\":\"{}\",\"severity\":\"{}\",\"location\":{},\"message\":\"{}\"}}",
        escape(artifact),
        d.code,
        d.severity,
        location,
        escape(&d.message),
    )
}

fn proof_line(r: &ProofRecord) -> String {
    format!(
        "  proof {} {}: {} vars={} clauses={} conflicts={} time={:.3}ms",
        r.pass, r.subject, r.verdict, r.vars, r.clauses, r.conflicts, r.time_ms
    )
}

/// Machine-readable proof record, emitted under `--json --deep` so CI can
/// track proof effort alongside diagnostics.
fn proof_json_line(artifact: &str, r: &ProofRecord) -> String {
    format!(
        "{{\"artifact\":\"{}\",\"proof\":\"{}\",\"subject\":\"{}\",\"verdict\":\"{}\",\
         \"vars\":{},\"clauses\":{},\"conflicts\":{},\"time_ms\":{}}}",
        escape(artifact),
        r.pass,
        escape(&r.subject),
        r.verdict,
        r.vars,
        r.clauses,
        r.conflicts,
        format_args!("{:.3}", r.time_ms),
    )
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
    // --trace wins over HYDE_TRACE; either activates span collection.
    let trace_path = opts.trace.clone().or_else(hyde_obs::init_from_env);
    if trace_path.is_some() {
        hyde_obs::reset();
        hyde_obs::enable();
    }
    let mut deep = opts.deep.then(|| {
        let mut config = DeepConfig::default();
        if let Some(b) = opts.proof_budget {
            config.max_conflicts = b;
            config.max_time = Duration::from_secs(60);
        }
        Deep::new(config)
    });
    let mut groups: Vec<Group> = Vec::new();
    if opts.suite {
        // The one place the chaos seed comes from the environment:
        // `cargo xtask chaos` drives the lint suite this way.
        let chaos = std::env::var("HYDE_CHAOS")
            .ok()
            .and_then(|v| Chaos::from_env_value(&v));
        groups = lint_suite(&hyde_circuits::suite(), &opts, deep.as_mut(), chaos);
    }
    for path in &opts.files {
        match lint_file(path, &opts, deep.as_mut()) {
            Ok(diags) => {
                let proofs = deep.as_mut().map(Deep::take_proofs).unwrap_or_default();
                groups.push((path.clone(), diags, proofs));
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut warns = 0usize;
    let mut denies = 0usize;
    let mut proofs = 0usize;
    let mut refuted = 0usize;
    let mut unknown = 0usize;
    let mut proof_ms = 0f64;
    for (name, diags, records) in &groups {
        for d in diags {
            if opts.json {
                out(&json_line(name, d));
            } else {
                out(&format!("{name}: {d}"));
            }
            match d.severity {
                Severity::Deny => denies += 1,
                Severity::Warn => warns += 1,
                Severity::Note => {}
            }
        }
        if !records.is_empty() {
            if opts.json {
                for r in records {
                    out(&proof_json_line(name, r));
                }
            } else {
                out(&format!("{name}:"));
                for r in records {
                    out(&proof_line(r));
                }
            }
        }
        for r in records {
            proofs += 1;
            proof_ms += r.time_ms;
            hyde_obs::counter("proof.records", 1);
            hyde_obs::counter("proof.vars", r.vars as u64);
            hyde_obs::counter("proof.clauses", r.clauses as u64);
            hyde_obs::counter("proof.conflicts", r.conflicts);
            match r.verdict {
                "refuted" => refuted += 1,
                "unknown" => unknown += 1,
                _ => {}
            }
        }
    }
    let checked = groups.len();
    if !opts.json {
        out(&format!(
            "hyde-lint: {checked} artifact group(s), {denies} deny, {warns} warn"
        ));
        if proofs > 0 {
            out(&format!(
                "hyde-lint: {proofs} deep proof(s) ({} proved, {refuted} refuted, \
                 {unknown} inconclusive) in {proof_ms:.1}ms",
                proofs - refuted - unknown
            ));
        }
    }
    if let Some(path) = &trace_path {
        let dropped = hyde_obs::dropped();
        if dropped > 0 {
            // The cap only truncates the event timeline; counters and
            // histogram percentiles are recorded unconditionally.
            let d = Diagnostic::new(
                Code::ObsDroppedEvents,
                format!(
                    "{dropped} trace event(s) dropped at the buffer cap; the exported \
                     timeline is truncated (counters and histogram percentiles are \
                     complete)"
                ),
            );
            if opts.json {
                out(&json_line("trace", &d));
            }
            eprintln!("hyde-lint: {d}");
        }
        match hyde_obs::write_artifacts(path) {
            Ok(folded) => eprintln!("hyde-lint: trace written to {path} and {folded}"),
            Err(e) => {
                eprintln!("error: writing trace {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if denies > 0 || (opts.deny_warnings && warns > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(pass, subject, verdict)` of each record, in order.
    fn proof_keys(records: &[ProofRecord]) -> Vec<(&'static str, String, &'static str)> {
        records
            .iter()
            .map(|r| (r.pass, r.subject.clone(), r.verdict))
            .collect()
    }

    #[test]
    fn each_circuit_reports_its_own_proofs() {
        let args = ["--suite".to_owned(), "--deep".to_owned()];
        let opts = parse_args(&args).unwrap().unwrap();
        let circuits = [hyde_circuits::rd73(), hyde_circuits::misex1()];
        let mut deep = Deep::new(DeepConfig::default());
        let groups = lint_suite(&circuits, &opts, Some(&mut deep), None);
        assert_eq!(groups.len(), circuits.len());
        for ((name, _, proofs), circuit) in groups.iter().zip(&circuits) {
            assert_eq!(name, &circuit.name);
            assert!(!proofs.is_empty(), "{name}: no proofs");
            let mut alone = Deep::new(DeepConfig::default());
            let single = lint_suite(std::slice::from_ref(circuit), &opts, Some(&mut alone), None);
            assert_eq!(proof_keys(proofs), proof_keys(&single[0].2), "{name}");
        }
        assert!(deep.take_proofs().is_empty(), "every proof went to a group");
    }
}
