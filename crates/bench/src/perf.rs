//! End-to-end performance measurement with JSON output (`hyde-bench`).
//!
//! Unlike the table binaries (which reproduce the paper's numbers), this
//! module measures *runtime*: per-circuit wall time of the HYDE flow, LUT
//! counts, and the BDD kernel footprint (allocated nodes, unique-table
//! probes, operation-cache hit rate). Results serialize to a
//! `BENCH_<name>.json` trajectory file so successive PRs can prove their
//! speedups against a recorded baseline on the same machine.
//!
//! The JSON is hand-rolled (the build is offline, no serde); the schema is
//! deliberately flat and versioned by the `schema` field.

use hyde_circuits::Circuit;
use hyde_core::CoreError;
use hyde_guard::RetryPolicy;
use hyde_map::flow::FlowKind;
use hyde_map::session::{BudgetSpec, Job, JobErrorKind, Session};
use hyde_obs::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag written into every benchmark JSON, and the only tag
/// [`validate_json`] accepts. v3 added percentile fields
/// (`p50_us`/`p95_us`/`p99_us`) and the `"hists"` families inside the
/// `"obs"` section — additive keys, so v2 readers still parse it.
pub const SCHEMA: &str = "hyde-bench-v3";

/// Per-circuit measurement.
#[derive(Debug, Clone)]
pub struct CircuitSample {
    /// Circuit name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Wall-clock milliseconds of the end-to-end HYDE flow.
    pub wall_ms: f64,
    /// LUTs in the mapped network.
    pub luts: usize,
    /// Logic depth in LUT levels.
    pub depth: usize,
    /// BDD nodes allocated while building every output of the circuit in
    /// one shared manager (kernel footprint metric).
    pub bdd_nodes: usize,
    /// Operation-cache hit rate across every BDD manager this circuit's
    /// measurement created and dropped — the mapping flow's managers (when
    /// budget degradation reaches the BDD rung) plus the kernel build —
    /// measured by delta-ing [`hyde_bdd::global_stats`] around both.
    /// `None` only when no cached BDD operations ran at all.
    pub bdd_cache_hit_rate: Option<f64>,
    /// Unique-table probes across those same managers (`Some(0)` when no
    /// unique table was ever touched).
    pub bdd_unique_probes: Option<u64>,
}

/// One full benchmark run.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Run label (`BENCH_<name>.json`).
    pub name: String,
    /// LUT size the flow targeted.
    pub k: usize,
    /// Worker threads the parallel fan-out loops used.
    pub threads: usize,
    /// Per-circuit samples, in suite order.
    pub samples: Vec<CircuitSample>,
    /// Per-phase observability breakdown, when the run was traced
    /// (see [`run_bench_observed`]); serialized under `"obs"`.
    pub obs: Option<hyde_obs::ObsReport>,
}

impl BenchRun {
    /// Total flow wall time in milliseconds.
    pub fn total_wall_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.wall_ms).sum()
    }

    /// Total LUT count.
    pub fn total_luts(&self) -> usize {
        self.samples.iter().map(|s| s.luts).sum()
    }

    /// Total BDD nodes allocated by the kernel measurement.
    pub fn total_bdd_nodes(&self) -> usize {
        self.samples.iter().map(|s| s.bdd_nodes).sum()
    }
}

/// Builds every output of `c` in one BDD manager from its ISOP cover —
/// each cube is an AND of literals, each output an OR of its cubes — and
/// reports the kernel footprint in allocated nodes.
///
/// The symbolic construction matters: the old kernel used `from_fn`,
/// whose `mk` path never consults the operation cache, so the reported
/// hit rate was a constant, misleading `0.000`. Driving `and`/`or`/`not`
/// through the cached apply path produces real cache traffic, and the
/// manager's stats flush into [`hyde_bdd::global_stats`] when it drops
/// at the end of this function, landing inside the caller's telemetry
/// window.
fn bdd_kernel(c: &Circuit) -> usize {
    use hyde_logic::{Literal, SopCover};
    let mut bdd = hyde_bdd::Bdd::with_capacity(c.inputs, 1 << 12);
    for f in &c.outputs {
        let mut acc = bdd.zero();
        for cube in SopCover::isop(f).iter() {
            let mut term = bdd.one();
            for var in 0..c.inputs {
                let lit = match cube.literal(var) {
                    Literal::DontCare => continue,
                    Literal::Positive => bdd.var(var),
                    Literal::Negative => {
                        let v = bdd.var(var);
                        bdd.not(v)
                    }
                };
                term = bdd.and(term, lit);
            }
            acc = bdd.or(acc, term);
        }
    }
    bdd.len()
}

/// Telemetry deltas of [`hyde_bdd::global_stats`] across one circuit's
/// flow: `(cache hit rate, unique probes)`.
fn flow_bdd_telemetry(
    before: &hyde_bdd::BddStats,
    after: &hyde_bdd::BddStats,
) -> (Option<f64>, Option<u64>) {
    let lookups = after.cache_lookups.saturating_sub(before.cache_lookups);
    let hits = after.cache_hits.saturating_sub(before.cache_hits);
    let probes = after.unique_probes.saturating_sub(before.unique_probes);
    let rate = (lookups > 0).then(|| hits as f64 / lookups as f64);
    (rate, Some(probes))
}

/// Describes a [`hyde_guard::Budget`] as a serializable
/// [`BudgetSpec`]: an absolute deadline becomes the milliseconds still
/// remaining, restarted at each attempt.
fn budget_spec(budget: &hyde_guard::Budget) -> BudgetSpec {
    BudgetSpec {
        deadline_ms: budget
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64),
        bdd_nodes: budget.bdd_nodes,
        sat_conflicts: budget.sat_conflicts,
        candidates: budget.candidates,
    }
}

/// The single-attempt batch [`Session`] the bench drivers run on — the
/// same supervised path `hyde-serve` uses, minus retries, so a
/// panicking circuit (a bug, or a chaos-injected fault) becomes a typed
/// error instead of aborting the whole batch.
fn batch_session(k: usize) -> Session {
    Session::new(k, FlowKind::hyde(0xDA98)).with_retry(RetryPolicy::single_attempt())
}

/// Runs the HYDE flow (k-input LUTs) over `circuits`, measuring each.
///
/// # Errors
///
/// Propagates the first mapping failure. A panicking circuit surfaces as
/// [`CoreError::Verification`] rather than aborting the process.
pub fn run_bench(name: &str, circuits: &[Circuit], k: usize) -> Result<BenchRun, CoreError> {
    run_bench_budgeted(name, circuits, k, hyde_guard::Budget::unlimited())
}

/// Like [`run_bench`], but with a resource [`hyde_guard::Budget`] on the
/// flow: exhaustion degrades down the hyde-map fallback ladder (recorded
/// as `DegradationEvent`s) instead of failing the run.
pub fn run_bench_budgeted(
    name: &str,
    circuits: &[Circuit],
    k: usize,
    budget: hyde_guard::Budget,
) -> Result<BenchRun, CoreError> {
    let session = batch_session(k);
    let spec = budget_spec(&budget);
    let mut samples = Vec::with_capacity(circuits.len());
    for c in circuits {
        let _obs = hyde_obs::span!("bench.circuit");
        let stats_before = hyde_bdd::global_stats();
        let start = Instant::now();
        let job = Job::new(&c.name, c.outputs.clone()).with_budget(spec);
        let report = match session.run(&job) {
            Ok(result) => result.report,
            Err(e) => {
                return Err(match e.kind {
                    JobErrorKind::Panicked(msg) => {
                        CoreError::Verification(format!("circuit '{}' panicked: {msg}", c.name))
                    }
                    JobErrorKind::Mapping(msg) => CoreError::Verification(msg),
                    JobErrorKind::OutOfBudget(ob) => CoreError::OutOfBudget(ob),
                })
            }
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        hyde_obs::observe("bench.circuit_wall_us", (wall_ms * 1e3) as u64);
        let bdd_nodes = bdd_kernel(c);
        let stats_after = hyde_bdd::global_stats();
        let (bdd_cache_hit_rate, bdd_unique_probes) =
            flow_bdd_telemetry(&stats_before, &stats_after);
        samples.push(CircuitSample {
            name: c.name.clone(),
            inputs: c.inputs,
            outputs: c.output_count(),
            wall_ms,
            luts: report.luts,
            depth: report.depth,
            bdd_nodes,
            bdd_cache_hit_rate,
            bdd_unique_probes,
        });
    }
    Ok(BenchRun {
        name: name.to_owned(),
        k,
        threads: hyde_core::parallel::thread_count(),
        samples,
        obs: None,
    })
}

/// Like [`run_bench`], but with span/counter collection active for the
/// duration of the run: the returned [`BenchRun`] carries the aggregated
/// [`hyde_obs::ObsReport`] and the raw events stay in the global
/// collector, so the caller can also export Chrome-trace/folded
/// artifacts with [`hyde_obs::write_artifacts`].
///
/// # Errors
///
/// Propagates the first mapping failure.
pub fn run_bench_observed(
    name: &str,
    circuits: &[Circuit],
    k: usize,
) -> Result<BenchRun, CoreError> {
    run_bench_observed_budgeted(name, circuits, k, hyde_guard::Budget::unlimited())
}

/// [`run_bench_observed`] with a resource [`hyde_guard::Budget`] on the
/// flow (see [`run_bench_budgeted`]).
///
/// # Errors
///
/// Propagates the first mapping failure.
pub fn run_bench_observed_budgeted(
    name: &str,
    circuits: &[Circuit],
    k: usize,
    budget: hyde_guard::Budget,
) -> Result<BenchRun, CoreError> {
    hyde_obs::reset();
    hyde_obs::enable();
    let result = run_bench_budgeted(name, circuits, k, budget);
    hyde_obs::disable();
    let mut run = result?;
    run.obs = Some(hyde_obs::report());
    Ok(run)
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push_str("null");
    }
}

/// Serializes a run to the benchmark JSON schema. When `baseline` is given
/// (the verbatim JSON object of an earlier run), it is embedded under
/// `"baseline"` and the end-to-end speedup over it is recorded.
pub fn to_json(run: &BenchRun, baseline: Option<&str>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"name\": \"{}\",", run.name);
    let _ = writeln!(s, "  \"k\": {},", run.k);
    let _ = writeln!(s, "  \"threads\": {},", run.threads);
    s.push_str("  \"circuits\": [\n");
    for (i, c) in run.samples.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"inputs\": {}, \"outputs\": {}, \"wall_ms\": ",
            c.name, c.inputs, c.outputs
        );
        push_f64(&mut s, c.wall_ms);
        let _ = write!(
            s,
            ", \"luts\": {}, \"depth\": {}, \"bdd_nodes\": {}, \"bdd_cache_hit_rate\": ",
            c.luts, c.depth, c.bdd_nodes
        );
        match c.bdd_cache_hit_rate {
            Some(r) => push_f64(&mut s, r),
            None => s.push_str("null"),
        }
        s.push_str(", \"bdd_unique_probes\": ");
        match c.bdd_unique_probes {
            Some(p) => {
                let _ = write!(s, "{p}");
            }
            None => s.push_str("null"),
        }
        s.push('}');
        if i + 1 < run.samples.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    s.push_str("  \"totals\": {\"wall_ms\": ");
    push_f64(&mut s, run.total_wall_ms());
    let _ = write!(
        s,
        ", \"luts\": {}, \"bdd_nodes\": {}}}",
        run.total_luts(),
        run.total_bdd_nodes()
    );
    if let Some(obs) = &run.obs {
        s.push_str(",\n  \"obs\": ");
        s.push_str(obs.to_json("  ").trim_start());
    }
    if let Some(base) = baseline {
        s.push_str(",\n  \"baseline\": ");
        // Re-indent the embedded object for readability.
        let trimmed = base.trim();
        s.push_str(&trimmed.replace('\n', "\n  "));
        if let Some(base_ms) = totals_wall_ms(trimmed) {
            s.push_str(",\n  \"speedup\": ");
            push_f64(&mut s, base_ms / run.total_wall_ms());
        }
    }
    s.push_str("\n}\n");
    s
}

/// Extracts one circuit's `wall_ms` from a benchmark JSON document by
/// scanning for its `"name"` entry inside the `"circuits"` array. Used by
/// the smoke-run overhead guard to compare against the corresponding
/// circuits of a full-suite baseline.
pub fn circuit_wall_ms(json: &str, circuit: &str) -> Option<f64> {
    let arr = json.find("\"circuits\"")?;
    let needle = format!("\"name\": \"{circuit}\"");
    let at = json[arr..].find(&needle)? + arr;
    let rest = &json[at..];
    let key = rest.find("\"wall_ms\"")?;
    let after = rest[key + "\"wall_ms\"".len()..].trim_start();
    let after = after.strip_prefix(':')?.trim_start();
    let end = after
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e' || ch == '+'))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

/// Extracts `totals.wall_ms` from a benchmark JSON document — the one
/// number the speedup computation needs. Minimal scan, not a full JSON
/// parser: finds the `"totals"` object and reads its `"wall_ms"` value.
pub fn totals_wall_ms(json: &str) -> Option<f64> {
    let totals = json.find("\"totals\"")?;
    let rest = &json[totals..];
    let key = rest.find("\"wall_ms\"")?;
    let after = rest[key + "\"wall_ms\"".len()..].trim_start();
    let after = after.strip_prefix(':')?.trim_start();
    let end = after
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e' || ch == '+'))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

/// Structural sanity check used by `cargo xtask bench`: the document must
/// carry the current schema tag, a circuits array with at least one entry,
/// and a parsable `totals.wall_ms`.
pub fn validate_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing schema tag {SCHEMA}"));
    }
    if !json.contains("\"circuits\": [") {
        return Err("missing circuits array".into());
    }
    if !json.contains("\"wall_ms\"") {
        return Err("missing wall_ms fields".into());
    }
    match totals_wall_ms(json) {
        Some(ms) if ms >= 0.0 => Ok(()),
        Some(ms) => Err(format!("negative total wall_ms {ms}")),
        None => Err("totals.wall_ms not parsable".into()),
    }
}

/// Schema tag of chaos-drill reports (`CHAOS_<name>.json`).
pub const CHAOS_SCHEMA: &str = "hyde-chaos-v1";

/// How one circuit fared under a chaos drill.
#[derive(Debug, Clone)]
pub enum ChaosStatus {
    /// Mapped and passed the flow's CEC gate.
    Ok {
        /// LUTs in the (possibly degraded) network.
        luts: usize,
    },
    /// The flow returned a typed error.
    Failed {
        /// The error text.
        error: String,
    },
    /// The flow panicked (isolated per circuit; chaos injects these
    /// deliberately when `HYDE_CHAOS_PANIC=1`).
    Panicked {
        /// The panic message.
        message: String,
    },
}

/// Per-circuit record of a chaos drill.
#[derive(Debug, Clone)]
pub struct ChaosSample {
    /// Circuit name.
    pub name: String,
    /// Outcome.
    pub status: ChaosStatus,
    /// Degradation events the ladder recorded for this circuit.
    pub degradations: Vec<hyde_guard::DegradationEvent>,
}

/// One full chaos drill over the suite.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Run label (`CHAOS_<name>.json`).
    pub name: String,
    /// The chaos seed driving the fault schedule.
    pub seed: u64,
    /// LUT size the flow targeted.
    pub k: usize,
    /// Per-circuit samples, in suite order.
    pub samples: Vec<ChaosSample>,
}

impl ChaosRun {
    /// Total degradation events across all circuits.
    pub fn total_degradations(&self) -> usize {
        self.samples.iter().map(|s| s.degradations.len()).sum()
    }
}

/// Runs the HYDE flow over `circuits` with the chaos layer armed on
/// `seed`: budget exhaustions, simulated BDD allocation failures and (when
/// `HYDE_CHAOS_PANIC=1`) injected panics, every circuit isolated so the
/// drill always completes. `budget` adds *real* resource caps on top of
/// the injected ones (pass [`hyde_guard::Budget::unlimited`] for
/// injection-only drills). Each circuit runs as a single-attempt
/// [`Session`] job, so panic isolation and degradation capture are the
/// same supervised path `hyde-serve` uses; every `Ok` sample's network
/// already passed the flow's CEC verification gate.
pub fn run_chaos(
    name: &str,
    circuits: &[Circuit],
    k: usize,
    seed: u64,
    budget: hyde_guard::Budget,
) -> ChaosRun {
    let session = batch_session(k).with_chaos(seed);
    let spec = budget_spec(&budget);
    let mut samples = Vec::with_capacity(circuits.len());
    for c in circuits {
        let _obs = hyde_obs::span!("bench.chaos_circuit");
        let job = Job::new(&c.name, c.outputs.clone()).with_budget(spec);
        let (status, degradations) = match session.run(&job) {
            Ok(result) => (
                ChaosStatus::Ok {
                    luts: result.report.luts,
                },
                result.degradations,
            ),
            Err(e) => {
                let status = match e.kind {
                    JobErrorKind::Panicked(message) => ChaosStatus::Panicked { message },
                    JobErrorKind::Mapping(error) => ChaosStatus::Failed { error },
                    JobErrorKind::OutOfBudget(ob) => ChaosStatus::Failed {
                        error: CoreError::OutOfBudget(ob).to_string(),
                    },
                };
                (status, e.degradations)
            }
        };
        samples.push(ChaosSample {
            name: c.name.clone(),
            status,
            degradations,
        });
    }
    ChaosRun {
        name: name.to_owned(),
        seed,
        k,
        samples,
    }
}

/// Serializes a chaos drill to `CHAOS_<name>.json` (schema
/// [`CHAOS_SCHEMA`]).
pub fn chaos_to_json(run: &ChaosRun) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{CHAOS_SCHEMA}\",");
    let _ = writeln!(s, "  \"name\": \"{}\",", escape(&run.name));
    let _ = writeln!(s, "  \"seed\": {},", run.seed);
    let _ = writeln!(s, "  \"k\": {},", run.k);
    s.push_str("  \"circuits\": [\n");
    for (i, c) in run.samples.iter().enumerate() {
        let _ = write!(s, "    {{\"name\": \"{}\", ", escape(&c.name));
        match &c.status {
            ChaosStatus::Ok { luts } => {
                let _ = write!(s, "\"status\": \"ok\", \"luts\": {luts}");
            }
            ChaosStatus::Failed { error } => {
                let _ = write!(
                    s,
                    "\"status\": \"failed\", \"error\": \"{}\"",
                    escape(error)
                );
            }
            ChaosStatus::Panicked { message } => {
                let _ = write!(
                    s,
                    "\"status\": \"panicked\", \"error\": \"{}\"",
                    escape(message)
                );
            }
        }
        s.push_str(", \"degradations\": [");
        for (j, e) in c.degradations.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"stage\": \"{}\", \"from\": \"{}\", \"to\": \"{}\", \
                 \"resource\": \"{}\", \"injected\": {}}}",
                if j > 0 { ", " } else { "" },
                escape(&e.stage),
                e.from,
                e.to,
                e.resource,
                e.injected
            );
        }
        s.push_str("]}");
        if i + 1 < run.samples.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    let ok = run
        .samples
        .iter()
        .filter(|s| matches!(s.status, ChaosStatus::Ok { .. }))
        .count();
    let failed = run
        .samples
        .iter()
        .filter(|s| matches!(s.status, ChaosStatus::Failed { .. }))
        .count();
    let panicked = run
        .samples
        .iter()
        .filter(|s| matches!(s.status, ChaosStatus::Panicked { .. }))
        .count();
    let _ = write!(
        s,
        "  \"totals\": {{\"ok\": {ok}, \"failed\": {failed}, \"panicked\": {panicked}, \
         \"degradations\": {}}}",
        run.total_degradations()
    );
    s.push_str("\n}\n");
    s
}

/// Structural sanity check used by `cargo xtask chaos`: the document must
/// carry the chaos schema tag, a circuits array, and a totals object
/// reporting zero hard failures (a `failed` circuit means a rung of the
/// fallback ladder broke, which the drill treats as a defect).
pub fn validate_chaos_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{CHAOS_SCHEMA}\"")) {
        return Err(format!("missing schema tag {CHAOS_SCHEMA}"));
    }
    if !json.contains("\"circuits\": [") {
        return Err("missing circuits array".into());
    }
    let Some(pos) = json.find("\"failed\":") else {
        return Err("missing totals.failed".into());
    };
    let after = json[pos + "\"failed\":".len()..].trim_start();
    let end = after
        .find(|ch: char| !ch.is_ascii_digit())
        .unwrap_or(after.len());
    match after[..end].parse::<usize>() {
        Ok(0) => Ok(()),
        Ok(n) => Err(format!("{n} circuit(s) failed with typed errors")),
        Err(_) => Err("totals.failed not parsable".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> BenchRun {
        BenchRun {
            name: "unit".into(),
            k: 5,
            threads: 1,
            obs: None,
            samples: vec![
                CircuitSample {
                    name: "a".into(),
                    inputs: 4,
                    outputs: 2,
                    wall_ms: 12.5,
                    luts: 3,
                    depth: 2,
                    bdd_nodes: 17,
                    bdd_cache_hit_rate: Some(0.5),
                    bdd_unique_probes: Some(99),
                },
                CircuitSample {
                    name: "b".into(),
                    inputs: 5,
                    outputs: 1,
                    wall_ms: 7.5,
                    luts: 2,
                    depth: 1,
                    bdd_nodes: 9,
                    bdd_cache_hit_rate: None,
                    bdd_unique_probes: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_totals() {
        let run = sample_run();
        let json = to_json(&run, None);
        assert!(validate_json(&json).is_ok());
        let ms = totals_wall_ms(&json).unwrap();
        assert!((ms - 20.0).abs() < 1e-6);
        assert!(json.contains("\"bdd_cache_hit_rate\": null"));
        assert!(json.contains("\"bdd_cache_hit_rate\": 0.500"));
    }

    #[test]
    fn baseline_embeds_and_computes_speedup() {
        let run = sample_run();
        let mut slow = sample_run();
        for s in &mut slow.samples {
            s.wall_ms *= 3.0;
        }
        let base_json = to_json(&slow, None);
        let json = to_json(&run, Some(&base_json));
        assert!(validate_json(&json).is_ok());
        assert!(json.contains("\"baseline\":"));
        assert!(json.contains("\"speedup\": 3.000"));
        // totals_wall_ms must read the *run's* totals (which precede the
        // embedded baseline object), not the baseline's.
        assert!((totals_wall_ms(&json).unwrap() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("not json").is_err());
    }

    #[test]
    fn validate_rejects_older_schemas() {
        let json = to_json(&sample_run(), None);
        for old in ["hyde-bench-v1", "hyde-bench-v2"] {
            assert!(validate_json(&json.replace(SCHEMA, old)).is_err(), "{old}");
        }
    }

    #[test]
    fn circuit_wall_ms_finds_per_circuit_time() {
        let json = to_json(&sample_run(), None);
        assert!((circuit_wall_ms(&json, "a").unwrap() - 12.5).abs() < 1e-6);
        assert!((circuit_wall_ms(&json, "b").unwrap() - 7.5).abs() < 1e-6);
        assert!(circuit_wall_ms(&json, "zzz").is_none());
    }

    #[test]
    fn obs_section_embeds_and_stays_valid_json() {
        let mut run = sample_run();
        run.obs = Some(hyde_obs::report());
        let json = to_json(&run, None);
        assert!(validate_json(&json).is_ok());
        assert!(json.contains("\"obs\": {"));
        // The whole document, obs section included, must parse.
        hyde_obs::json::parse(&json).unwrap();
    }

    #[test]
    fn chaos_json_round_trips_and_validates() {
        let run = ChaosRun {
            name: "unit".into(),
            seed: 42,
            k: 5,
            samples: vec![
                ChaosSample {
                    name: "a".into(),
                    status: ChaosStatus::Ok { luts: 7 },
                    degradations: Vec::new(),
                },
                ChaosSample {
                    name: "b".into(),
                    status: ChaosStatus::Panicked {
                        message: "chaos: injected panic".into(),
                    },
                    degradations: Vec::new(),
                },
            ],
        };
        let json = chaos_to_json(&run);
        validate_chaos_json(&json).unwrap();
        hyde_obs::json::parse(&json).unwrap();

        let mut failed = run.clone();
        failed.samples[0].status = ChaosStatus::Failed {
            error: "rung broke".into(),
        };
        let err = validate_chaos_json(&chaos_to_json(&failed)).unwrap_err();
        assert!(err.contains("failed"), "{err}");
        assert!(validate_chaos_json("{}").is_err());
    }

    #[test]
    fn run_bench_smoke() {
        let circuits = vec![hyde_circuits::rd73()];
        let run = run_bench("smoke", &circuits, 5).unwrap();
        assert_eq!(run.samples.len(), 1);
        assert!(run.samples[0].wall_ms >= 0.0);
        assert!(run.samples[0].luts > 0);
        assert!(run.samples[0].bdd_nodes > 2);
        // The kernel's symbolic ISOP build (and, under degradation, the
        // flow's own BDD rung) drops its managers inside the telemetry
        // window, so the deltas must show real cache traffic — this is
        // the regression test for the old `bdd_cache_hit_rate: 0.000`
        // bug, where the reported stats came from a from_fn-only build
        // that never probed the op cache.
        let probes = run.samples[0].bdd_unique_probes.expect("probes recorded");
        assert!(probes > 0, "kernel did no unique-table work?");
        let rate = run.samples[0]
            .bdd_cache_hit_rate
            .expect("rd73's kernel build performs cached BDD ops");
        assert!(rate > 0.0 && rate <= 1.0, "implausible hit rate {rate}");
        let json = to_json(&run, None);
        validate_json(&json).unwrap();
    }

    #[test]
    fn forced_bdd_rung_flushes_flow_stats_into_telemetry() {
        // Candidate exhaustion degrades Exact -> BddThreshold (the same
        // forcing trick as hyde-map's ladder tests), so the flow itself
        // creates and drops BDD managers — their stats must land in the
        // sample's telemetry window alongside the kernel build's.
        let circuits = vec![hyde_circuits::rd73()];
        let dropped_before = hyde_bdd::global_managers_dropped();
        let budget = hyde_guard::Budget::unlimited().with_candidates(0);
        let run = run_bench_budgeted("forced", &circuits, 5, budget).unwrap();
        // At least the kernel's manager plus one flow-rung manager.
        assert!(
            hyde_bdd::global_managers_dropped() >= dropped_before + 2,
            "BDD rung never ran a manager"
        );
        let rate = run.samples[0]
            .bdd_cache_hit_rate
            .expect("forced BDD rung performs cached ops");
        assert!(rate > 0.0 && rate <= 1.0, "implausible hit rate {rate}");
        assert!(run.samples[0].bdd_unique_probes.unwrap() > 0);
    }

    #[test]
    fn flow_bdd_telemetry_deltas() {
        let before = hyde_bdd::BddStats {
            cache_lookups: 100,
            cache_hits: 40,
            unique_probes: 1000,
            ..Default::default()
        };
        let after = hyde_bdd::BddStats {
            cache_lookups: 300,
            cache_hits: 140,
            unique_probes: 1600,
            ..Default::default()
        };
        let (rate, probes) = flow_bdd_telemetry(&before, &after);
        assert_eq!(rate, Some(0.5));
        assert_eq!(probes, Some(600));
        // No traffic at all: rate is unknown, probes are an honest zero.
        let (rate, probes) = flow_bdd_telemetry(&before, &before);
        assert_eq!(rate, None);
        assert_eq!(probes, Some(0));
    }
}
