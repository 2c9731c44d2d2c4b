//! `hyde-lint`: run the `hyde-verify` registry over BLIF/PLA files or the
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
use hyde_verify::deep::{register_deep, DeepConfig, ProofLog, ProofRecord};
use hyde_verify::{Artifact, Registry};
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

fn lint_file(path: &str, opts: &Options, registry: &Registry) -> Result<Vec<Diagnostic>, String> {
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
        Ok(registry.run(&Artifact::Network {
            net: &net,
            k: opts.k,
            spec: Some(&tables),
        }))
    } else {
        let net = blif::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(registry.run(&Artifact::Network {
            net: &net,
            k: opts.k,
            spec: None,
        }))
    }
}

/// Lints the bundled circuit suite end-to-end: every circuit is mapped
/// with the HYDE flow and the result linted against its specification;
/// multi-output circuits additionally go through explicit hyper-function
/// decomposition and ingredient recovery. With `--deep` the first output
/// wide enough to decompose also exercises the encoding-injectivity
/// proof on a single Roth–Karp step.
fn lint_suite(
    opts: &Options,
    registry: &Registry,
    chaos: Option<Chaos>,
) -> Vec<(String, Vec<Diagnostic>)> {
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
    for circuit in hyde_circuits::suite() {
        let _obs = hyde_obs::span!("lint.circuit");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lint_suite_circuit(&circuit, opts, registry, &session, k)
        }));
        let diags = outcome.unwrap_or_else(|payload| {
            vec![Diagnostic::new(
                Code::BudgetExhausted,
                format!("circuit aborted by panic: {}", panic_message(payload)),
            )]
        });
        results.push((circuit.name.clone(), diags));
    }
    results
}

/// The per-circuit body of [`lint_suite`].
fn lint_suite_circuit(
    circuit: &hyde_circuits::Circuit,
    opts: &Options,
    registry: &Registry,
    session: &Session,
    k: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    {
        let job = Job::new(&circuit.name, circuit.outputs.clone());
        // The ladder's degradation trail (HY501–HY503/HY505) comes back
        // attached to the job instead of drained from the global log.
        let degradations = match session.run(&job) {
            Ok(result) => {
                let mut report = result.report;
                if let Some(seed) = opts.mutate {
                    if let Some(what) = corrupt_one_lut_bit(&mut report.network, seed) {
                        eprintln!("{}: mutated {what}", circuit.name);
                    }
                }
                diags.extend(registry.run(&Artifact::Network {
                    net: &report.network,
                    k: Some(k),
                    spec: Some(&circuit.outputs),
                }));
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
            diags.extend(registry.run(&Artifact::Degradations(&degradations)));
        }
        if opts.deep {
            if let Some(t) = circuit.outputs.iter().find(|t| t.vars() > k) {
                let bound: Vec<usize> = (0..k).collect();
                match decompose_step(t, &bound, &EncoderKind::Hyde { seed: 0xDA98 }, k) {
                    Ok(d) => diags.extend(registry.run(&Artifact::Decomposition {
                        decomposition: &d,
                        function: t,
                    })),
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
                    diags.extend(registry.run(&Artifact::HyperFn(&h)));
                    let dec = Decomposer::new(k, EncoderKind::Hyde { seed: 0xDA98 });
                    match h.decompose(&dec) {
                        Ok(hn) => {
                            diags.extend(registry.run(&Artifact::Hyper(&hn)));
                            match hn.implement_ingredients() {
                                Ok(merged) => diags.extend(registry.run(&Artifact::Recovery {
                                    hyper: &hn,
                                    implemented: &merged,
                                })),
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
    let mut line = format!(
        "  proof {} {}: {} [{}] vars={} clauses={} conflicts={} time={:.3}ms",
        r.pass, r.subject, r.verdict, r.engine, r.vars, r.clauses, r.conflicts, r.time_ms
    );
    if let Some(rate) = r.bdd_cache_hit_rate {
        line.push_str(&format!(" bdd_cache_hit={:.0}%", rate * 100.0));
    }
    line
}

/// Machine-readable proof record, emitted under `--json --deep` so CI can
/// track proof effort (and BDD cache behaviour) alongside diagnostics.
fn proof_json_line(artifact: &str, r: &ProofRecord) -> String {
    let rate = r
        .bdd_cache_hit_rate
        .map_or("null".to_owned(), |v| format!("{v:.3}"));
    let probes = r
        .bdd_unique_probes
        .map_or("null".to_owned(), |v| v.to_string());
    format!(
        "{{\"artifact\":\"{}\",\"proof\":\"{}\",\"subject\":\"{}\",\"verdict\":\"{}\",\
         \"engine\":\"{}\",\"vars\":{},\"clauses\":{},\"conflicts\":{},\"time_ms\":{},\
         \"bdd_cache_hit_rate\":{},\"bdd_unique_probes\":{}}}",
        escape(artifact),
        r.pass,
        escape(&r.subject),
        r.verdict,
        r.engine,
        r.vars,
        r.clauses,
        r.conflicts,
        format_args!("{:.3}", r.time_ms),
        rate,
        probes,
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
    let mut registry = Registry::with_defaults();
    let log: Option<ProofLog> = if opts.deep {
        let mut config = DeepConfig::default();
        if let Some(b) = opts.proof_budget {
            config.max_conflicts = b;
            config.max_time = Duration::from_secs(60);
        }
        Some(register_deep(&mut registry, config))
    } else {
        None
    };
    let drain = |log: &Option<ProofLog>| -> Vec<ProofRecord> {
        log.as_ref()
            .map(|l| l.borrow_mut().drain(..).collect())
            .unwrap_or_default()
    };
    let mut groups: Vec<(String, Vec<Diagnostic>, Vec<ProofRecord>)> = Vec::new();
    if opts.suite {
        // The one place the chaos seed comes from the environment:
        // `cargo xtask chaos` drives the lint suite this way.
        let chaos = std::env::var("HYDE_CHAOS")
            .ok()
            .and_then(|v| Chaos::from_env_value(&v));
        for (name, diags) in lint_suite(&opts, &registry, chaos) {
            let proofs = drain(&log);
            groups.push((name, diags, proofs));
        }
    }
    for path in &opts.files {
        match lint_file(path, &opts, &registry) {
            Ok(diags) => {
                let proofs = drain(&log);
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
