//! `suite_cold` and `ladder_bdd`: the batch mapping path,
//! `hyde_map::Session::run` over the paper's 25-circuit suite.

use crate::gen::{stream, SplitMix64};
use crate::metrics::{circuit_metric, Report, Value};
use crate::oracle;
use crate::stats;
use crate::workload::{
    peak_rss_mb, record_end_to_end, timed_passes, traced_pass, typical_pass_s, Ctx, Quality,
};
use hyde_circuits::Circuit;
use hyde_map::session::{BudgetSpec, Job, Session};
use hyde_map::FlowKind;
use std::time::Instant;

/// Circuits of the `--smoke` runs (the repository's smoke subset).
pub const SMOKE_CIRCUITS: [&str; 3] = ["rd73", "misex1", "z4ml"];

/// The budget every `ladder_bdd` job runs under: tight enough that the
/// exact rung gives up on the wide circuits and the BDD rung takes over.
pub fn ladder_budget() -> BudgetSpec {
    BudgetSpec {
        candidates: Some(64),
        bdd_nodes: Some(65_536),
        ..BudgetSpec::unlimited()
    }
}

/// The suite (or its smoke subset) in the seed's order.
pub fn circuits(ctx: &Ctx) -> Vec<Circuit> {
    let mut circuits: Vec<Circuit> = hyde_circuits::suite()
        .into_iter()
        .filter(|c| !ctx.smoke || SMOKE_CIRCUITS.contains(&c.name.as_str()))
        .collect();
    SplitMix64::stream(ctx.seed, stream::ORDER).shuffle(&mut circuits);
    circuits
}

/// One mapped circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapped {
    /// The result netlist.
    pub blif: String,
    /// LUT count.
    pub luts: usize,
    /// Depth in LUT levels.
    pub depth: usize,
    /// XC3000 CLBs.
    pub clbs: usize,
}

/// One pass over `jobs` on a fresh session (cold NPN cache), each run
/// recorded as a `span` child of `parent`. A failed job maps to `None`.
pub fn map_pass(
    ctx: &Ctx,
    jobs: &[Job],
    span: &'static str,
    parent: Option<usize>,
) -> Vec<Option<Mapped>> {
    let session = Session::new(5, FlowKind::hyde(0xDA98));
    jobs.iter()
        .map(|job| {
            let t = Instant::now();
            let result = session.run(job);
            ctx.rec.record(span, t, parent, &job.name);
            result.ok().map(|r| Mapped {
                blif: r.blif(),
                luts: r.report.luts,
                depth: r.report.depth,
                clbs: r.report.clbs.unwrap_or(0),
            })
        })
        .collect()
}

/// Runs `suite_cold` (no budget) or `ladder_bdd` (the ladder budget).
///
/// # Errors
///
/// A correctness violation: a wrong or non-deterministic netlist.
pub fn run(ctx: &Ctx, workload: &str, budget: BudgetSpec) -> Result<Report, String> {
    let mut report = ctx.report(workload);
    let t0 = Instant::now();
    let circuits = circuits(ctx);
    let jobs: Vec<Job> = circuits
        .iter()
        .map(|c| Job::new(&c.name, c.outputs.clone()).with_budget(budget))
        .collect();
    // The warm-up pass loads code and allocator state and finishes any
    // lazy set-up; its outputs are the reference every later pass must
    // reproduce byte for byte.
    let reference = map_pass(ctx, &jobs, "warmup.run", None);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut failed = reference.iter().filter(|m| m.is_none()).count() as u64;
    let mut passes = 1u64;
    let walls = timed_passes(ctx.seconds, 3, || {
        let pass = ctx.rec.open("pass", None, workload);
        let outputs = map_pass(ctx, &jobs, "session.run", Some(pass));
        ctx.rec.close(pass);
        passes += 1;
        failed += outputs.iter().filter(|m| m.is_none()).count() as u64;
        for ((m, r), job) in outputs.iter().zip(&reference).zip(&jobs) {
            if m.is_some() && r.is_some() && m != r {
                return Err(format!("{}: output differs between passes", job.name));
            }
        }
        Ok(ctx.rec.duration(pass) / 1e3)
    })?;
    let peak = peak_rss_mb();

    for ((m, c), job) in reference.iter().zip(&circuits).zip(&jobs) {
        if let Some(m) = m {
            oracle::check_blif(&m.blif, &c.outputs, 5).map_err(|e| format!("{}: {e}", job.name))?;
        }
    }

    let per_circuit: Vec<(String, Value)> = jobs
        .iter()
        .map(|j| {
            let ms = ctx.rec.durations_of("session.run", &j.name);
            (j.name.clone(), Value::median(&ms))
        })
        .collect();
    let medians: Vec<f64> = per_circuit.iter().map(|(_, v)| v.value).collect();
    let pass_s = typical_pass_s(&medians);
    record_end_to_end(
        &mut report,
        pass_s,
        &walls,
        &medians,
        Quality::of(&reference),
        peak,
        setup_s,
    );
    for (name, v) in per_circuit {
        report.layer.insert(circuit_metric(&name), v);
    }

    if ctx.trace {
        traced_pass(&mut report, stats::median(&walls), || {
            let outputs = map_pass(ctx, &jobs, "traced.run", None);
            if outputs != reference {
                return Err("traced pass output differs from the untraced passes".into());
            }
            Ok(())
        })?;
        passes += 1;
    }
    report.attempted = passes * jobs.len() as u64;
    report.failed = failed;
    Ok(report)
}
