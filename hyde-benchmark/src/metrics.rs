//! Metric definitions, per-run reports, and `compare`.

use crate::stats;
use hyde_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work, LUTs).
    Lower,
    /// Larger is better (throughput, hit ratios).
    Higher,
}

#[cfg(test)]
impl Better {
    /// Token used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed relative worsening.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

/// Every end-to-end metric; each workload reports all of them. Timing
/// bounds are about three times the run-to-run spread measured on the
/// development machine (see the crate docs); output-quality counts are
/// exact, so their bound only absorbs float rounding.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("wall_s", "s", 0.20),
    e2e("geomean_ms", "ms", 0.20),
    e2e("latency_p50_ms", "ms", 0.20),
    e2e("latency_p90_ms", "ms", 0.20),
    e2e("luts", "count", 0.001),
    e2e("depth", "count", 0.001),
    e2e("clbs", "count", 0.001),
    e2e("peak_rss_mb", "MB", 0.15),
    e2e("setup_s", "s", 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics before the per-circuit rows.
const LAYER_HEAD: &[(&str, &str, Better)] = &[
    ("core.varpart.score_ms", "ms", Lower),
    ("core.varpart.floor_ms", "ms", Lower),
    ("core.varpart.select_ms", "ms", Lower),
    ("core.varpart.candidates", "count", Lower),
    ("core.chart.build_ms", "ms", Lower),
    ("core.encoding.encode_ms", "ms", Lower),
    ("core.hyper.fold_ms", "ms", Lower),
    ("core.hyper.decompose_ms", "ms", Lower),
    ("core.hyper.implement_ms", "ms", Lower),
    ("core.decompose.steps", "count", Lower),
    ("core.decompose.classes", "count", Lower),
    ("core.npn.hits", "count", Higher),
    ("core.npn.misses", "count", Lower),
    ("core.npn.hit_ratio", "ratio", Higher),
    ("core.npn.canonize_ms", "ms", Lower),
    ("core.decompose.bdd_ms", "ms", Lower),
    ("bdd.managers", "count", Lower),
    ("bdd.nodes", "count", Lower),
    ("bdd.cache_lookups", "count", Lower),
    ("bdd.cache_hit_ratio", "ratio", Higher),
    ("bdd.unique_probes_per_lookup", "ratio", Lower),
    ("bdd.gc_runs", "count", Lower),
    ("bdd.gc_reclaimed", "count", Lower),
    ("bdd.cache_growths", "count", Lower),
    ("bdd.unique_growths", "count", Lower),
    ("map.outputs_ms", "ms", Lower),
    ("map.cluster_ms", "ms", Lower),
    ("map.cover_ms", "ms", Lower),
    ("map.verify_ms", "ms", Lower),
];

/// Per-layer metrics after the per-circuit rows.
const LAYER_TAIL: &[(&str, &str, Better)] = &[
    ("guard.degrade.bdd_threshold", "count", Lower),
    ("guard.degrade.shannon", "count", Lower),
    ("guard.degrade.direct_cover", "count", Lower),
    ("guard.hyper_fallback", "count", Lower),
    ("sat.solve_ms", "ms", Lower),
    ("sat.solves", "count", Lower),
    ("sat.conflicts", "count", Lower),
    ("sat.decisions", "count", Lower),
    ("sat.propagations", "count", Lower),
    ("sat.restarts", "count", Lower),
    ("sat.propagations_per_s", "1/s", Higher),
    ("sat.encode_ms", "ms", Lower),
    ("serve.submit_ack_ms_p50", "ms", Lower),
    ("serve.submit_ack_ms_p99", "ms", Lower),
    ("serve.status_rtt_ms_p50", "ms", Lower),
    ("serve.queue_wait_ms_p50", "ms", Lower),
    ("serve.queue_wait_ms_p99", "ms", Lower),
    ("serve.job_wall_ms_p50", "ms", Lower),
    ("serve.job_wall_ms_p99", "ms", Lower),
    ("serve.request_ms_p99", "ms", Lower),
    ("serve.retries", "count", Lower),
    ("serve.rejected", "count", Lower),
    ("serve.quarantined", "count", Lower),
    ("serve.journal_events", "count", Lower),
    ("serve.latency_p99_ms", "ms", Lower),
    ("serve.latency_samples", "count", Higher),
    ("obs.trace_overhead_ratio", "ratio", Lower),
    ("obs.dropped_events", "count", Lower),
    ("loadgen.late_ms_p99", "ms", Lower),
    ("loadgen.sent", "count", Higher),
];

/// Every per-layer metric in report order: `(name, unit, better)`.
/// Each workload reports all of them; a layer a workload does not touch
/// reads 0.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let circuits = hyde_circuits::suite()
        .into_iter()
        .map(|c| (circuit_metric(&c.name), "ms", Lower));
    LAYER_HEAD
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u, b))
        .chain(circuits)
        .chain(LAYER_TAIL.iter().map(|&(n, u, b)| (n.to_owned(), u, b)))
        .collect()
}

/// Per-layer metric holding one circuit's median mapping time.
pub fn circuit_metric(circuit: &str) -> String {
    format!("circuit_ms.{circuit}")
}

/// One measured value with its sample count and, when it summarizes
/// repeated samples of one quantity, their quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The reported number (a median, a count, a ratio, ...).
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// First and third quartile of those samples.
    pub quartiles: Option<(f64, f64)>,
}

impl Value {
    /// A single number (a count, or a statistic over `n` samples).
    pub fn of(value: f64, n: usize) -> Self {
        Value {
            value,
            n,
            quartiles: None,
        }
    }

    /// The median of repeated samples, with their quartiles.
    pub fn median(samples: &[f64]) -> Self {
        Value {
            value: stats::median(samples),
            n: samples.len(),
            quartiles: Some(stats::quartiles(samples)),
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether the traced pass ran (per-layer metrics present).
    pub trace: bool,
    /// Operations attempted (mapping jobs, CEC calls, service jobs).
    pub attempted: u64,
    /// Operations failed, refused, quarantined, timed out or undecided.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<String, Value>,
    /// Per-layer metrics by name.
    pub layer: BTreeMap<String, Value>,
}

/// Renders a float with every digit it was measured with (shortest
/// round-trip form).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Report {
            workload: workload.to_owned(),
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
        }
    }

    /// The one-line result the benchmark prints last: every end-to-end
    /// metric, or with `trace` every per-layer metric.
    pub fn result_line(&self) -> String {
        let pairs: Vec<(String, &str, f64)> = if self.trace {
            per_layer()
                .into_iter()
                .map(|(name, unit, _)| {
                    let v = self.layer.get(&name).map_or(0.0, |v| v.value);
                    (name, unit, v)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_owned(), m.unit, self.e2e[m.name].value))
                .collect()
        };
        let metrics: Vec<String> = pairs
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full report: every metric with sample count and quartiles.
    pub fn to_json(&self) -> String {
        let section = |values: &BTreeMap<String, Value>, defs: Vec<(String, &str)>| {
            let rows: Vec<String> = defs
                .iter()
                .filter_map(|(name, unit)| {
                    let v = values.get(name)?;
                    let q = v.quartiles.map_or(String::new(), |(q1, q3)| {
                        format!(", \"q1\": {}, \"q3\": {}", num(q1), num(q3))
                    });
                    Some(format!(
                        "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"n\": {}{q}}}",
                        num(v.value),
                        v.n
                    ))
                })
                .collect();
            rows.join(",\n")
        };
        let e2e = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit))
            .collect();
        let layer = per_layer().into_iter().map(|(n, u, _)| (n, u)).collect();
        format!(
            "{{\n  \"schema\": \"hyde-benchmark-v1\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \
             \"seconds\": {},\n  \"trace\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }}\n}}\n",
            self.workload,
            self.seed,
            num(self.seconds),
            self.trace,
            self.attempted,
            self.failed,
            section(&self.e2e, e2e),
            section(&self.layer, layer)
        )
    }

    /// Human-readable table: name, value, unit, sample count, spread.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {} s): attempted {}, failed {}\n",
            self.workload, self.seed, self.seconds, self.attempted, self.failed
        );
        let mut row = |name: &str, unit: &str, v: &Value| {
            let spread = v.quartiles.map_or(String::new(), |(q1, q3)| {
                format!("  q1..q3 {}..{}", short(q1), short(q3))
            });
            let _ = writeln!(
                out,
                "  {name:<32} {:>14} {unit:<6} n={}{spread}",
                short(v.value),
                v.n
            );
        };
        for m in END_TO_END {
            if let Some(v) = self.e2e.get(m.name) {
                row(m.name, m.unit, v);
            }
        }
        for (name, unit, _) in per_layer() {
            if let Some(v) = self.layer.get(&name) {
                row(&name, unit, v);
            }
        }
        out
    }
}

fn short(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Parses one report — a single workload or a full run — into
/// `workload → report document`.
fn load(text: &str) -> Result<BTreeMap<String, Json>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    if let Some(Json::Obj(workloads)) = doc.get("workloads") {
        return Ok(workloads.clone());
    }
    let name = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("neither a run nor a workload report")?
        .to_owned();
    Ok(BTreeMap::from([(name, doc)]))
}

fn field(doc: &Json, section: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let m = doc.get(section)?.get(metric)?;
    let value = m.get("value")?.as_num()?;
    let spread = match (
        m.get("q1").and_then(Json::as_num),
        m.get("q3").and_then(Json::as_num),
    ) {
        (Some(q1), Some(q3)) if value != 0.0 => Some((q3 - q1) / value.abs()),
        _ => None,
    };
    Some((value, spread))
}

/// `compare <a> <b>`: every workload × metric of two reports side by
/// side with its quartile spread; end-to-end moves beyond the bound are
/// flagged. Returns the printed table and whether any metric regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = load(a_text).map_err(|e| format!("a: {e}"))?;
    let b = load(b_text).map_err(|e| format!("b: {e}"))?;
    let mut out = String::new();
    let mut regressed = false;
    let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
    for (workload, da) in &a {
        let Some(db) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: missing from b");
            continue;
        };
        let _ = writeln!(
            out,
            "{workload}\n  {:<32} {:>14} {:>14} {:>8} {:>8} {:>8}",
            "metric", "a", "b", "change", "spread a", "spread b"
        );
        let rows = END_TO_END
            .iter()
            .map(|m| ("end_to_end", m.name.to_owned(), m.better, Some(m.bound)))
            .chain(
                per_layer()
                    .into_iter()
                    .map(|(n, _, better)| ("per_layer", n, better, None)),
            );
        for (section, name, better, bound) in rows {
            let (Some((va, sa)), Some((vb, sb))) =
                (field(da, section, &name), field(db, section, &name))
            else {
                continue;
            };
            let change = if va != 0.0 { (vb - va) / va.abs() } else { 0.0 };
            let worse = match better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let flag = match bound {
                Some(bound) if sa.unwrap_or(0.0).max(sb.unwrap_or(0.0)) > bound => {
                    "unresolved: spread > bound"
                }
                Some(bound) if worse > bound => {
                    regressed = true;
                    "REGRESSED"
                }
                Some(bound) if -worse > bound => "improved",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  {name:<32} {:>14} {:>14} {:>7.1}% {:>8} {:>8}  {flag}",
                short(va),
                short(vb),
                change * 100.0,
                pct(sa),
                pct(sb)
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(wall: f64) -> Report {
        let mut r = Report::new("suite_cold", 1998, 20.0, false);
        for m in END_TO_END {
            r.e2e.insert(m.name.to_owned(), Value::of(1.0, 1));
        }
        r.e2e.insert(
            "wall_s".into(),
            Value::median(&[wall, wall * 1.01, wall * 0.99]),
        );
        r.attempted = 25;
        r
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = sample_report(4.4).result_line();
        let doc = json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").expect("metrics");
        for m in END_TO_END {
            let v = metrics.get(m.name).expect(m.name);
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        let Json::Obj(map) = metrics else { panic!() };
        assert_eq!(map.len(), END_TO_END.len());

        let mut traced = sample_report(4.4);
        traced.trace = true;
        let doc = json::parse(&traced.result_line()).expect("traced line is JSON");
        let Some(Json::Obj(map)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(map.len(), per_layer().len());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_num), Some(m.bound));
        }
        let layer = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        let defs = per_layer();
        assert_eq!(layer.len(), defs.len());
        for (j, (name, unit, better)) in layer.iter().zip(defs) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name.as_str()));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }
    }

    #[test]
    fn compare_flags_moves_beyond_the_bound() {
        let base = sample_report(4.0).to_json();
        let same = sample_report(4.1).to_json();
        let slow = sample_report(6.0).to_json();
        let (table, regressed) = compare(&base, &same).expect("compares");
        assert!(!regressed, "{table}");
        let (table, regressed) = compare(&base, &slow).expect("compares");
        assert!(regressed && table.contains("REGRESSED"), "{table}");
        let (table, regressed) = compare(&slow, &base).expect("compares");
        assert!(!regressed && table.contains("improved"), "{table}");
    }
}
