//! `cec_proofs`: time to a verdict of the SAT equivalence checker behind
//! `hyde-lint --deep`, `hyde_sat::cec_network_vs_tables`, on every mapped
//! suite output (UNSAT proofs) and on one seeded mutant per circuit
//! (one output that needs a SAT model).

use crate::gen::{flip_row, stream, SplitMix64};
use crate::mapping::{self, map_pass};
use crate::metrics::{Report, Value};
use crate::oracle;
use crate::stats;
use crate::workload::{
    peak_rss_mb, record_end_to_end, timed_passes, traced_pass, typical_pass_s, Ctx, Quality,
};
use hyde_logic::{Network, TruthTable};
use hyde_map::session::{BudgetSpec, Job};
use hyde_sat::{CecOutcome, CecProof};
use std::time::{Duration, Instant};

/// Conflicts one proof may spend before it is undecided.
const CONFLICT_BUDGET: u64 = 200_000;

/// One CEC call: a network against the tables it must implement.
struct Case {
    /// Circuit name, with a `~mutant` suffix for mutants.
    name: String,
    net: Network,
    specs: Vec<TruthTable>,
}

/// The mutant of `blif` for this seed, reduced to one output the flip
/// changes (simulation decides which), so every mutant call is exactly
/// one proof that needs a SAT model; the outputs it leaves alone are the
/// original's UNSAT proofs. Redraws a flip that changes no output.
fn mutant(
    name: &str,
    blif: &str,
    specs: &[TruthTable],
    rng: &mut SplitMix64,
) -> Result<Case, String> {
    for _ in 0..32 {
        let (text, _) = flip_row(blif, rng).ok_or_else(|| format!("{name}: no row to flip"))?;
        let net = hyde_logic::blif::parse(&text).map_err(|e| format!("{name} mutant: {e}"))?;
        let tables = oracle::simulate(&net)?;
        let changed: Vec<usize> = (0..specs.len())
            .filter(|&o| oracle::first_difference(&tables[o], &specs[o]).is_some())
            .collect();
        if changed.is_empty() {
            continue;
        }
        let o = changed[rng.below(changed.len())];
        let restricted: String = text
            .lines()
            .map(|l| {
                if l.starts_with(".outputs") {
                    format!(".outputs {}\n", net.outputs()[o].0)
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let net =
            hyde_logic::blif::parse(&restricted).map_err(|e| format!("{name} mutant: {e}"))?;
        return Ok(Case {
            name: format!("{name}~mutant"),
            net,
            specs: vec![specs[o].clone()],
        });
    }
    Err(format!("{name}: no mutant changes an output"))
}

fn prove(ctx: &Ctx, case: &Case, span: &'static str, parent: Option<usize>) -> Vec<CecProof> {
    let budget = hyde_sat::Budget {
        max_conflicts: CONFLICT_BUDGET,
        // Verdicts are decided by the conflict budget alone.
        max_time: Duration::from_secs(3600),
    };
    let t = Instant::now();
    let proofs = hyde_sat::cec_network_vs_tables(&case.net, &case.specs, &budget);
    ctx.rec.record(span, t, parent, &case.name);
    proofs
}

/// Checks each verdict of `case` against the answer exhaustive
/// simulation fixes. Undecided proofs are counted as failed operations
/// by the caller, not checked here.
fn check_verdicts(case: &Case, proofs: &[CecProof]) -> Result<(), String> {
    let tables = oracle::simulate(&case.net)?;
    for (p, (table, spec)) in proofs.iter().zip(tables.iter().zip(&case.specs)) {
        let truth = oracle::first_difference(table, spec);
        match (p.outcome, truth) {
            (CecOutcome::Unknown, _) | (CecOutcome::Equivalent, None) => {}
            (CecOutcome::Differ(m), Some(_)) if oracle::bit(table, m) != spec.eval(m) => {}
            (outcome, truth) => {
                return Err(format!(
                    "{} output {}: solver says {outcome:?}, simulation says {}",
                    case.name,
                    p.output,
                    truth.map_or("equivalent".to_owned(), |m| format!("differs at {m}"))
                ))
            }
        }
    }
    Ok(())
}

/// Runs `cec_proofs`.
///
/// # Errors
///
/// A correctness violation: a wrong mapped netlist, a verdict that
/// simulation contradicts, or verdicts that change between passes.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = ctx.report("cec_proofs");
    let t0 = Instant::now();
    let circuits = mapping::circuits(ctx);
    let jobs: Vec<Job> = circuits
        .iter()
        .map(|c| Job::new(&c.name, c.outputs.clone()).with_budget(BudgetSpec::unlimited()))
        .collect();
    let mapped = map_pass(ctx, &jobs, "setup.run", None);
    let mut rng = SplitMix64::stream(ctx.seed, stream::MUTANTS);
    let mut cases = Vec::new();
    for (c, m) in circuits.iter().zip(&mapped) {
        let m = m
            .as_ref()
            .ok_or_else(|| format!("{}: set-up mapping failed", c.name))?;
        oracle::check_blif(&m.blif, &c.outputs, 5).map_err(|e| format!("{}: {e}", c.name))?;
        let net = hyde_logic::blif::parse(&m.blif).map_err(|e| e.to_string())?;
        cases.push(Case {
            name: c.name.clone(),
            net,
            specs: c.outputs.clone(),
        });
        cases.push(mutant(&c.name, &m.blif, &c.outputs, &mut rng)?);
    }
    SplitMix64::stream(ctx.seed, stream::ORDER).shuffle(&mut cases);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut first: Option<Vec<Vec<CecProof>>> = None;
    // Solver time of each proof, one sample per pass.
    let mut proof_ms: Vec<Vec<f64>> = Vec::new();
    let mut passes = 0u64;
    let mut undecided = 0u64;
    let walls = timed_passes(ctx.seconds, 3, || {
        let pass = ctx.rec.open("pass", None, "cec_proofs");
        let results: Vec<Vec<CecProof>> = cases
            .iter()
            .map(|c| prove(ctx, c, "cec.call", Some(pass)))
            .collect();
        ctx.rec.close(pass);
        passes += 1;
        let proofs = results.iter().flatten();
        undecided += proofs
            .clone()
            .filter(|p| p.outcome == CecOutcome::Unknown)
            .count() as u64;
        for (i, p) in proofs.enumerate() {
            if i == proof_ms.len() {
                proof_ms.push(Vec::new());
            }
            proof_ms[i].push(p.elapsed.as_secs_f64() * 1e3);
        }
        let outcomes = |r: &[Vec<CecProof>]| -> Vec<Vec<CecOutcome>> {
            r.iter()
                .map(|ps| ps.iter().map(|p| p.outcome).collect())
                .collect()
        };
        match &first {
            Some(f) if outcomes(f) != outcomes(&results) => {
                return Err("verdicts differ between passes".into())
            }
            Some(_) => {}
            None => first = Some(results),
        }
        Ok(ctx.rec.duration(pass) / 1e3)
    })?;
    for (case, proofs) in cases.iter().zip(first.iter().flatten()) {
        check_verdicts(case, proofs)?;
    }
    let peak = peak_rss_mb();

    let per_call: Vec<f64> = cases
        .iter()
        .map(|c| stats::median(&ctx.rec.durations_of("cec.call", &c.name)))
        .collect();
    let pass_s = typical_pass_s(&per_call);
    eprintln!("cec_proofs: {:.1} proofs/s", proof_ms.len() as f64 / pass_s);
    // Latency is per proven output: a few hundred proofs give steadier
    // percentiles than the fifty calls of very different sizes.
    let per_proof: Vec<f64> = proof_ms.iter().map(|s| stats::median(s)).collect();
    record_end_to_end(
        &mut report,
        pass_s,
        &walls,
        &per_proof,
        Quality::of(&mapped),
        peak,
        setup_s,
    );

    if ctx.trace {
        let pass = ctx.rec.open("traced.pass", None, "cec_proofs");
        let obs = traced_pass(&mut report, stats::median(&walls), || {
            for c in &cases {
                prove(ctx, c, "traced.call", Some(pass));
            }
            Ok(())
        })?;
        ctx.rec.close(pass);
        let calls_ms: f64 = ctx.rec.durations("traced.call").iter().sum();
        let solve_ms = obs
            .phase("sat.solve")
            .map_or(0.0, |p| p.total_us as f64 / 1e3);
        report.layer.insert(
            "sat.encode_ms".into(),
            Value::of((calls_ms - solve_ms).max(0.0), cases.len()),
        );
        passes += 1;
    }
    report.attempted = passes * cases.len() as u64;
    report.failed = undecided;
    Ok(report)
}
