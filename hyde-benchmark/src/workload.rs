//! What every workload shares: run settings, the time-boxed pass loop,
//! peak memory, and the traced pass.

use crate::mapping::Mapped;
use crate::metrics::{Report, Value};
use crate::recorder::Recorder;
use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

/// Settings of one workload run.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Whether to run the traced pass for per-layer numbers.
    pub trace: bool,
    /// Toy-sized inputs (the `--smoke` test).
    pub smoke: bool,
    /// Where reports, spans and the service journal go.
    pub out: PathBuf,
    /// The benchmark's own spans.
    pub rec: Recorder,
}

impl Ctx {
    /// An empty report for this run.
    pub fn report(&self, workload: &str) -> Report {
        Report::new(workload, self.seed, self.seconds, self.trace)
    }
}

/// Runs `pass` at least `min` times, and again only while another pass
/// of the median length still ends within `seconds` of the first start.
/// `pass` returns the seconds its timed part took (checking its outputs
/// is not timed); those are returned in order.
///
/// # Errors
///
/// The first error a pass returns.
pub fn timed_passes(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(pass()?);
        let next_end = start.elapsed().as_secs_f64() + stats::median(&walls);
        if walls.len() >= min && next_end > seconds {
            return Ok(walls);
        }
    }
}

/// The wall time of a typical pass, in seconds: each operation's median
/// over the passes (`op_medians_ms`), summed. Unlike the median of the
/// pass totals, it is not moved by a burst of machine noise that hits a
/// few operations of several passes.
pub fn typical_pass_s(op_medians_ms: &[f64]) -> f64 {
    op_medians_ms.iter().sum::<f64>() / 1e3
}

/// Output quality of a set of mapped circuits, summed.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    luts: usize,
    depth: usize,
    clbs: usize,
    circuits: usize,
}

impl Quality {
    /// Sums over the circuits that mapped.
    pub fn of(mapped: &[Option<Mapped>]) -> Self {
        mapped.iter().flatten().fold(
            Quality {
                luts: 0,
                depth: 0,
                clbs: 0,
                circuits: 0,
            },
            |q, m| Quality {
                luts: q.luts + m.luts,
                depth: q.depth + m.depth,
                clbs: q.clbs + m.clbs,
                circuits: q.circuits + 1,
            },
        )
    }
}

/// Records every end-to-end metric. `wall_s` is the wall time of a
/// typical pass or batch, `walls` the repeated pass (or batch) times in
/// seconds behind it, `op_ms` one latency per operation.
pub fn record_end_to_end(
    report: &mut Report,
    wall_s: f64,
    walls: &[f64],
    op_ms: &[f64],
    quality: Quality,
    peak_rss_mb: f64,
    setup_s: f64,
) {
    let sorted = stats::sorted(op_ms);
    let ops = op_ms.len();
    let n = quality.circuits;
    let e2e = [
        (
            "wall_s",
            Value {
                value: wall_s,
                n: walls.len(),
                quartiles: Some(stats::quartiles(walls)),
            },
        ),
        ("geomean_ms", Value::of(stats::geomean(op_ms), ops)),
        (
            "latency_p50_ms",
            Value::of(stats::smoothed_percentile(&sorted, 50.0), ops),
        ),
        (
            "latency_p90_ms",
            Value::of(stats::smoothed_percentile(&sorted, 90.0), ops),
        ),
        ("luts", Value::of(quality.luts as f64, n)),
        ("depth", Value::of(quality.depth as f64, n)),
        ("clbs", Value::of(quality.clbs as f64, n)),
        ("peak_rss_mb", Value::of(peak_rss_mb, 1)),
        ("setup_s", Value::of(setup_s, 1)),
    ];
    for (name, v) in e2e {
        report.e2e.insert(name.to_owned(), v);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `pass` once with the program's own tracing on and records the
/// per-layer numbers of its `hyde_obs` report, plus the traced pass's
/// wall time over the untraced median (`obs.trace_overhead_ratio`).
///
/// # Errors
///
/// The error the pass returns.
pub fn traced_pass(
    report: &mut Report,
    untraced_median_s: f64,
    pass: impl FnOnce() -> Result<(), String>,
) -> Result<hyde_obs::ObsReport, String> {
    hyde_obs::reset();
    hyde_obs::enable();
    let t = Instant::now();
    let outcome = pass();
    let wall = t.elapsed().as_secs_f64();
    hyde_obs::disable();
    outcome?;
    let obs = hyde_obs::report();
    for (name, v) in crate::layers::from_obs(&obs) {
        report.layer.insert(name.to_owned(), Value::of(v, 1));
    }
    report.layer.insert(
        "obs.trace_overhead_ratio".into(),
        Value::of(wall / untraced_median_s, 1),
    );
    Ok(obs)
}
