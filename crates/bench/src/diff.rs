//! Performance regression detection between two recorded runs
//! (`cargo xtask perf-diff`) and the append-only benchmark trajectory
//! (`BENCH_TRAJECTORY.jsonl`, written by `cargo xtask bench --record`).
//!
//! [`diff`] accepts any pair of `BENCH_*.json` documents
//! (`hyde-bench-v3`) or Chrome `TRACE_*.json` exports and compares them
//! on two axes:
//!
//! * **per-circuit wall clock** — the gating axis. A circuit regresses
//!   when `new > old * MAX_RATIO + SLACK_MS`, the same threshold the
//!   smoke-run overhead guard applies, so one number governs both gates.
//! * **per-phase self time** — the attribution axis. For every span name
//!   present in both runs' obs sections (or replayed from the trace
//!   events), the self-time ratio is computed; when a circuit regresses,
//!   the phases that grew the most are named next to it ("apex6 1.46x;
//!   suspect phases: varpart.floor ..."), turning "it got slower" into
//!   "this phase got slower".
//!
//! Trajectory lines are one JSON object per line (schema
//! `hyde-traj-v1`): label, optional unix timestamp, thread count, and
//! the suite totals — enough to plot wall clock and LUT quality over the
//! PR sequence without re-running anything.

use hyde_obs::json::{self, Json};
use std::fmt::Write as _;

/// Regression threshold shared with the smoke-run overhead guard: a
/// circuit may not get more than 30% slower...
pub const MAX_RATIO: f64 = 1.3;
/// ...plus a small absolute slack so micro-circuits (sub-millisecond
/// walls) do not trip the gate on scheduler noise.
pub const SLACK_MS: f64 = 2.0;

/// Self-time growth ratio above which a phase is named as a suspect.
const PHASE_SUSPECT_RATIO: f64 = 1.25;
/// Minimum self-time growth (µs) for a phase to be named — filters
/// phases too small to explain a wall-clock regression.
const PHASE_SUSPECT_FLOOR_US: u64 = 500;
/// At most this many suspect phases are named per regression.
const MAX_SUSPECTS: usize = 3;

/// Wall-clock comparison of one circuit present in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitDelta {
    /// Circuit name.
    pub name: String,
    /// Old wall clock, milliseconds.
    pub old_ms: f64,
    /// New wall clock, milliseconds.
    pub new_ms: f64,
}

/// Self-time comparison of one span name present in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Span name.
    pub name: String,
    /// Old self time, microseconds.
    pub old_self_us: u64,
    /// New self time, microseconds.
    pub new_self_us: u64,
}

impl PhaseDelta {
    /// Self-time growth ratio (∞-safe: 0 old self counts as ratio 1 when
    /// new is also 0).
    pub fn ratio(&self) -> f64 {
        if self.old_self_us == 0 {
            if self.new_self_us == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new_self_us as f64 / self.old_self_us as f64
        }
    }

    fn is_suspect(&self) -> bool {
        self.new_self_us.saturating_sub(self.old_self_us) >= PHASE_SUSPECT_FLOOR_US
            && self.ratio() >= PHASE_SUSPECT_RATIO
    }
}

/// Result of comparing two runs.
#[derive(Debug, Clone, Default)]
pub struct PerfDiff {
    /// Circuits present in both runs, suite order of the new run.
    pub circuits: Vec<CircuitDelta>,
    /// Span names present in both runs, sorted by new self time desc.
    pub phases: Vec<PhaseDelta>,
    /// Human-readable regression messages (per-circuit gate failures,
    /// each with its suspect phases). Empty means the gate passes.
    pub regressions: Vec<String>,
}

impl PerfDiff {
    /// Whether the wall-clock gate failed.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the comparison as an aligned text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.circuits.is_empty() {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>7}",
                "circuit", "old_ms", "new_ms", "ratio"
            );
            for c in &self.circuits {
                let ratio = if c.old_ms > 0.0 {
                    c.new_ms / c.old_ms
                } else {
                    f64::NAN
                };
                let _ = writeln!(
                    out,
                    "{:<12} {:>10.3} {:>10.3} {:>6.2}x",
                    c.name, c.old_ms, c.new_ms, ratio
                );
            }
        }
        let moved: Vec<&PhaseDelta> = self.phases.iter().filter(|p| p.is_suspect()).collect();
        if !moved.is_empty() {
            let _ = writeln!(out, "phases with self-time growth:");
            for p in &moved {
                let _ = writeln!(
                    out,
                    "  {:<24} self {:>8}us -> {:>8}us ({:.2}x)",
                    p.name,
                    p.old_self_us,
                    p.new_self_us,
                    p.ratio()
                );
            }
        }
        for r in &self.regressions {
            let _ = writeln!(out, "REGRESSION: {r}");
        }
        if self.regressions.is_empty() {
            let _ = writeln!(out, "gate: ok (max {MAX_RATIO}x + {SLACK_MS}ms slack)");
        }
        out
    }
}

/// Per-phase `(name, self_us)` extracted from one parsed document.
fn phase_self_times(doc: &Json) -> Vec<(String, u64)> {
    if let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) {
        return replay_trace_self_times(events);
    }
    let mut out = Vec::new();
    if let Some(phases) = doc
        .get("obs")
        .and_then(|o| o.get("phases"))
        .and_then(Json::as_arr)
    {
        for p in phases {
            if let (Some(name), Some(self_us)) = (
                p.get("name").and_then(Json::as_str),
                p.get("self_us").and_then(Json::as_num),
            ) {
                out.push((name.to_owned(), self_us as u64));
            }
        }
    }
    out
}

/// Replays a Chrome trace's begin/end events into per-name self time
/// (µs), the same per-track stack walk the obs report uses.
fn replay_trace_self_times(events: &[Json]) -> Vec<(String, u64)> {
    use std::collections::BTreeMap;
    // Per-track stack of (name, begin_ts_us, child_us).
    let mut stacks: BTreeMap<i64, Vec<(String, f64, f64)>> = BTreeMap::new();
    let mut self_us: BTreeMap<String, f64> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "B" && ph != "E" {
            continue;
        }
        let tid = ev.get("tid").and_then(Json::as_num).unwrap_or(0.0) as i64;
        let ts = ev.get("ts").and_then(Json::as_num).unwrap_or(0.0);
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        let stack = stacks.entry(tid).or_default();
        if ph == "B" {
            stack.push((name.to_owned(), ts, 0.0));
        } else if let Some((open, begin, child)) = stack.pop() {
            let total = (ts - begin).max(0.0);
            *self_us.entry(open).or_default() += (total - child).max(0.0);
            if let Some(parent) = stack.last_mut() {
                parent.2 += total;
            }
        }
    }
    self_us
        .into_iter()
        .map(|(name, us)| (name, us as u64))
        .collect()
}

/// Per-circuit `(name, wall_ms)` in document order.
fn circuit_walls(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(circuits) = doc.get("circuits").and_then(Json::as_arr) {
        for c in circuits {
            if let (Some(name), Some(wall)) = (
                c.get("name").and_then(Json::as_str),
                c.get("wall_ms").and_then(Json::as_num),
            ) {
                out.push((name.to_owned(), wall));
            }
        }
    }
    out
}

/// Compares two benchmark/trace JSON documents.
///
/// # Errors
///
/// Returns a description when either input fails to parse or contains
/// neither a `circuits` array nor a `traceEvents` array.
pub fn diff(old_json: &str, new_json: &str) -> Result<PerfDiff, String> {
    let old = json::parse(old_json).map_err(|e| format!("old input: {e}"))?;
    let new = json::parse(new_json).map_err(|e| format!("new input: {e}"))?;
    for (label, doc) in [("old", &old), ("new", &new)] {
        if doc.get("circuits").is_none() && doc.get("traceEvents").is_none() {
            return Err(format!(
                "{label} input has neither a \"circuits\" nor a \"traceEvents\" array"
            ));
        }
    }

    let old_walls = circuit_walls(&old);
    let new_walls = circuit_walls(&new);
    let mut circuits = Vec::new();
    for (name, new_ms) in &new_walls {
        if let Some((_, old_ms)) = old_walls.iter().find(|(n, _)| n == name) {
            circuits.push(CircuitDelta {
                name: name.clone(),
                old_ms: *old_ms,
                new_ms: *new_ms,
            });
        }
    }

    let old_phases = phase_self_times(&old);
    let new_phases = phase_self_times(&new);
    let mut phases = Vec::new();
    for (name, new_self_us) in &new_phases {
        if let Some((_, old_self_us)) = old_phases.iter().find(|(n, _)| n == name) {
            phases.push(PhaseDelta {
                name: name.clone(),
                old_self_us: *old_self_us,
                new_self_us: *new_self_us,
            });
        }
    }
    phases.sort_by(|a, b| b.new_self_us.cmp(&a.new_self_us).then(a.name.cmp(&b.name)));

    // The gate: per-circuit wall clock against the smoke threshold, with
    // the fastest-growing phases named as suspects.
    let mut suspects: Vec<&PhaseDelta> = phases.iter().filter(|p| p.is_suspect()).collect();
    suspects.sort_by(|a, b| {
        let ga = a.new_self_us.saturating_sub(a.old_self_us);
        let gb = b.new_self_us.saturating_sub(b.old_self_us);
        gb.cmp(&ga).then(a.name.cmp(&b.name))
    });
    let mut regressions = Vec::new();
    for c in &circuits {
        if c.new_ms > c.old_ms * MAX_RATIO + SLACK_MS {
            let mut msg = format!(
                "{}: {:.3}ms -> {:.3}ms ({:.2}x, gate {:.1}x + {:.0}ms)",
                c.name,
                c.old_ms,
                c.new_ms,
                c.new_ms / c.old_ms.max(f64::MIN_POSITIVE),
                MAX_RATIO,
                SLACK_MS
            );
            if !suspects.is_empty() {
                let named: Vec<String> = suspects
                    .iter()
                    .take(MAX_SUSPECTS)
                    .map(|p| {
                        format!(
                            "{} self {}us -> {}us ({:.2}x)",
                            p.name,
                            p.old_self_us,
                            p.new_self_us,
                            p.ratio()
                        )
                    })
                    .collect();
                let _ = write!(msg, "; suspect phases: {}", named.join(", "));
            }
            regressions.push(msg);
        }
    }

    Ok(PerfDiff {
        circuits,
        phases,
        regressions,
    })
}

// ---------------------------------------------------------------------
// Benchmark trajectory (BENCH_TRAJECTORY.jsonl).
// ---------------------------------------------------------------------

/// Schema tag of one trajectory line.
pub const TRAJ_SCHEMA: &str = "hyde-traj-v1";

/// Builds one `BENCH_TRAJECTORY.jsonl` line from a benchmark JSON
/// document. `label` identifies the data point (typically the run name or
/// PR); `recorded_at` is unix seconds, or `None` for back-filled seeds.
///
/// # Errors
///
/// Returns a description when the document is missing the fields a
/// trajectory point needs.
pub fn trajectory_line(
    label: &str,
    bench_json: &str,
    recorded_at: Option<u64>,
) -> Result<String, String> {
    let doc = json::parse(bench_json).map_err(|e| e.to_string())?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing run name")?;
    let threads = doc
        .get("threads")
        .and_then(Json::as_num)
        .ok_or("missing threads")? as u64;
    let k = doc.get("k").and_then(Json::as_num).ok_or("missing k")? as u64;
    let circuits = doc
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("missing circuits array")?
        .len();
    let totals = doc.get("totals").ok_or("missing totals")?;
    let wall_ms = totals
        .get("wall_ms")
        .and_then(Json::as_num)
        .ok_or("missing totals.wall_ms")?;
    let luts = totals
        .get("luts")
        .and_then(Json::as_num)
        .ok_or("missing totals.luts")? as u64;
    let recorded = recorded_at.map_or("null".to_owned(), |t| t.to_string());
    Ok(format!(
        "{{\"schema\": \"{TRAJ_SCHEMA}\", \"label\": \"{}\", \"recorded_at\": {recorded}, \
         \"run\": \"{}\", \"k\": {k}, \"threads\": {threads}, \"circuits\": {circuits}, \
         \"total_wall_ms\": {wall_ms:.3}, \"total_luts\": {luts}}}",
        json::escape(label),
        json::escape(name)
    ))
}

/// Validates an entire trajectory file: every non-empty line must be a
/// JSON object carrying the [`TRAJ_SCHEMA`] tag, a label, and totals.
///
/// # Errors
///
/// Returns `line number: problem` for the first bad line.
pub fn validate_trajectory(text: &str) -> Result<usize, String> {
    let mut points = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != TRAJ_SCHEMA {
            return Err(format!(
                "line {}: schema \"{schema}\" != {TRAJ_SCHEMA}",
                i + 1
            ));
        }
        for key in ["label", "total_wall_ms", "total_luts", "threads"] {
            if doc.get(key).is_none() {
                return Err(format!("line {}: missing {key}", i + 1));
            }
        }
        points += 1;
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal v3-shaped bench document with one circuit and one phase.
    fn bench_doc(wall_ms: f64, phase_self_us: u64) -> String {
        format!(
            "{{\n  \"schema\": \"hyde-bench-v3\",\n  \"name\": \"fixture\",\n  \"k\": 5,\n  \
             \"threads\": 1,\n  \"circuits\": [\n    {{\"name\": \"apex6\", \"inputs\": 135, \
             \"outputs\": 99, \"wall_ms\": {wall_ms}, \"luts\": 186, \"depth\": 4, \
             \"bdd_nodes\": 100}}\n  ],\n  \"totals\": {{\"wall_ms\": {wall_ms}, \"luts\": 186, \
             \"bdd_nodes\": 100}},\n  \"obs\": {{\"wall_us\": 1000, \"threads_observed\": 1, \
             \"dropped_events\": 0, \"unclosed_spans\": 0, \"phases\": [\n    {{\"name\": \
             \"varpart.floor\", \"count\": 3, \"total_us\": {t}, \"self_us\": {phase_self_us}}}\n  ], \
             \"counters\": [], \"hists\": []}}\n}}\n",
            t = phase_self_us + 10
        )
    }

    #[test]
    fn seeded_2x_phase_slowdown_is_detected_and_attributed() {
        let old = bench_doc(10.0, 40_000);
        let new = bench_doc(25.0, 80_000); // 2.5x wall, 2x phase self time
        let d = diff(&old, &new).expect("diff runs");
        assert!(d.regressed(), "gate must fire:\n{}", d.render());
        let msg = &d.regressions[0];
        assert!(msg.contains("apex6"), "{msg}");
        assert!(msg.contains("varpart.floor"), "names the phase: {msg}");
        assert!(msg.contains("2.00x"), "phase ratio shown: {msg}");
    }

    #[test]
    fn within_threshold_passes() {
        let old = bench_doc(10.0, 40_000);
        let new = bench_doc(11.5, 42_000); // 1.15x — inside 1.3x
        let d = diff(&old, &new).expect("diff runs");
        assert!(!d.regressed(), "{}", d.render());
        assert!(d.render().contains("gate: ok"));
        assert_eq!(d.circuits.len(), 1);
        assert_eq!(d.phases.len(), 1);
    }

    #[test]
    fn slack_protects_micro_circuits() {
        let old = bench_doc(0.1, 100);
        let new = bench_doc(1.5, 100); // 15x but only +1.4ms
        let d = diff(&old, &new).expect("diff runs");
        assert!(!d.regressed(), "slack must absorb micro noise");
    }

    #[test]
    fn trace_inputs_replay_self_times() {
        let trace = r#"{"traceEvents": [
            {"ph": "B", "pid": 1, "tid": 0, "ts": 0.0, "name": "outer"},
            {"ph": "B", "pid": 1, "tid": 0, "ts": 100.0, "name": "inner"},
            {"ph": "E", "pid": 1, "tid": 0, "ts": 400.0, "name": "inner"},
            {"ph": "E", "pid": 1, "tid": 0, "ts": 1000.0, "name": "outer"}
        ]}"#;
        let d = diff(trace, trace).expect("trace diff runs");
        assert!(!d.regressed());
        let outer = d.phases.iter().find(|p| p.name == "outer").unwrap();
        assert_eq!(outer.old_self_us, 700);
        let inner = d.phases.iter().find(|p| p.name == "inner").unwrap();
        assert_eq!(inner.new_self_us, 300);
    }

    #[test]
    fn rejects_inputs_without_circuits_or_events() {
        assert!(diff("{}", "{}").is_err());
        assert!(diff("not json", "{}").is_err());
    }

    #[test]
    fn trajectory_line_round_trips_through_validation() {
        let line = trajectory_line("pr-9", &bench_doc(10.0, 100), Some(1_754_000_000))
            .expect("line builds");
        assert!(line.contains("\"schema\": \"hyde-traj-v1\""));
        assert!(line.contains("\"total_wall_ms\": 10.000"));
        let seeded = format!(
            "{line}\n{}\n",
            trajectory_line("seed", &bench_doc(5.0, 50), None).unwrap()
        );
        assert_eq!(validate_trajectory(&seeded), Ok(2));
        assert!(validate_trajectory("{\"schema\": \"wrong\"}").is_err());
        assert!(validate_trajectory("garbage").is_err());
    }
}
