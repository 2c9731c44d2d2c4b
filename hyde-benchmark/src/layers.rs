//! Per-layer numbers read from the program's own `hyde_obs` report:
//! phase self time, counters and histogram percentiles. The benchmark
//! adds no instrumentation inside the program; it only reads what the
//! existing spans and counters record.

use hyde_obs::ObsReport;

/// Where a per-layer metric comes from in an [`ObsReport`].
enum Src {
    /// Self time of a span, in ms.
    SelfMs(&'static str),
    /// Sum of a counter.
    Sum(&'static str),
    /// Sum of a counter counting microseconds, in ms.
    SumUsAsMs(&'static str),
    /// Percentile (50 or 99) of an `observe` family counting
    /// microseconds, in ms.
    HistMs(&'static str, u8),
    /// `a / (a + b)` of two counters.
    Share(&'static str, &'static str),
    /// `a / b` of two counters.
    Ratio(&'static str, &'static str),
}

const FROM_OBS: &[(&str, Src)] = &[
    ("core.varpart.score_ms", Src::SelfMs("varpart.score")),
    ("core.varpart.floor_ms", Src::SelfMs("varpart.floor")),
    ("core.varpart.select_ms", Src::SelfMs("varpart.select_best")),
    ("core.varpart.candidates", Src::Sum("varpart.candidates")),
    ("core.chart.build_ms", Src::SelfMs("chart.build")),
    ("core.encoding.encode_ms", Src::SelfMs("encoding.encode")),
    ("core.hyper.fold_ms", Src::SelfMs("hyper.fold")),
    ("core.hyper.decompose_ms", Src::SelfMs("hyper.decompose")),
    ("core.hyper.implement_ms", Src::SelfMs("hyper.implement")),
    ("core.decompose.steps", Src::Sum("decompose.steps")),
    ("core.decompose.classes", Src::Sum("decompose.classes")),
    ("core.npn.hits", Src::Sum("hyde.npn.hits")),
    ("core.npn.misses", Src::Sum("hyde.npn.misses")),
    (
        "core.npn.hit_ratio",
        Src::Share("hyde.npn.hits", "hyde.npn.misses"),
    ),
    (
        "core.npn.canonize_ms",
        Src::SumUsAsMs("hyde.npn.canonize_us"),
    ),
    ("core.decompose.bdd_ms", Src::SelfMs("decompose.bdd")),
    ("bdd.managers", Src::Sum("bdd.managers")),
    ("bdd.nodes", Src::Sum("bdd.nodes")),
    ("bdd.cache_lookups", Src::Sum("bdd.cache_lookups")),
    (
        "bdd.cache_hit_ratio",
        Src::Ratio("bdd.cache_hits", "bdd.cache_lookups"),
    ),
    (
        "bdd.unique_probes_per_lookup",
        Src::Ratio("bdd.unique_probes", "bdd.unique_lookups"),
    ),
    ("bdd.gc_runs", Src::Sum("bdd.gc.runs")),
    ("bdd.gc_reclaimed", Src::Sum("bdd.gc.reclaimed")),
    ("bdd.cache_growths", Src::Sum("bdd.cache_growths")),
    ("bdd.unique_growths", Src::Sum("bdd.unique_growths")),
    ("map.outputs_ms", Src::SelfMs("map.outputs")),
    ("map.cluster_ms", Src::SelfMs("map.cluster")),
    ("map.cover_ms", Src::SelfMs("map.cover")),
    ("map.verify_ms", Src::SelfMs("map.verify")),
    (
        "guard.degrade.bdd_threshold",
        Src::Sum("guard.degrade.bdd_threshold"),
    ),
    ("guard.degrade.shannon", Src::Sum("guard.degrade.shannon")),
    (
        "guard.degrade.direct_cover",
        Src::Sum("guard.degrade.direct_cover"),
    ),
    ("guard.hyper_fallback", Src::Sum("guard.hyper_fallback")),
    ("sat.solve_ms", Src::SelfMs("sat.solve")),
    ("sat.solves", Src::Sum("sat.solves")),
    ("sat.conflicts", Src::Sum("sat.conflicts")),
    ("sat.decisions", Src::Sum("sat.decisions")),
    ("sat.propagations", Src::Sum("sat.propagations")),
    ("sat.restarts", Src::Sum("sat.restarts")),
    (
        "serve.queue_wait_ms_p50",
        Src::HistMs("serve.queue_wait_us", 50),
    ),
    (
        "serve.queue_wait_ms_p99",
        Src::HistMs("serve.queue_wait_us", 99),
    ),
    (
        "serve.job_wall_ms_p50",
        Src::HistMs("serve.job_wall_us", 50),
    ),
    (
        "serve.job_wall_ms_p99",
        Src::HistMs("serve.job_wall_us", 99),
    ),
    ("serve.request_ms_p99", Src::HistMs("serve.request_us", 99)),
    ("serve.retries", Src::Sum("serve.retries")),
    ("serve.rejected", Src::Sum("serve.rejected")),
    ("serve.quarantined", Src::Sum("serve.quarantined")),
    ("serve.journal_events", Src::Sum("serve.journal.events")),
];

/// Every per-layer metric an [`ObsReport`] supplies, with `sat.solve`
/// throughput and the dropped-event tally. Absent spans and counters
/// read 0.
pub fn from_obs(r: &ObsReport) -> Vec<(&'static str, f64)> {
    let sum = |name: &str| r.counter(name).map_or(0.0, |c| c.sum as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out: Vec<(&'static str, f64)> = FROM_OBS
        .iter()
        .map(|(metric, src)| {
            let v = match *src {
                Src::SelfMs(span) => r.phase(span).map_or(0.0, |p| p.self_us as f64 / 1e3),
                Src::Sum(c) => sum(c),
                Src::SumUsAsMs(c) => sum(c) / 1e3,
                Src::HistMs(h, p) => r
                    .hist(h)
                    .map_or(0.0, |h| (if p == 50 { h.p50 } else { h.p99 }) as f64 / 1e3),
                Src::Share(a, b) => ratio(sum(a), sum(a) + sum(b)),
                Src::Ratio(a, b) => ratio(sum(a), sum(b)),
            };
            (*metric, v)
        })
        .collect();
    let solve_s = r
        .phase("sat.solve")
        .map_or(0.0, |p| p.total_us as f64 / 1e6);
    out.push((
        "sat.propagations_per_s",
        ratio(sum("sat.propagations"), solve_s),
    ));
    out.push(("obs.dropped_events", r.dropped_events as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_source_names_a_known_metric() {
        let known: Vec<String> = crate::metrics::per_layer()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        let r = hyde_obs::report();
        for (metric, _) in from_obs(&r) {
            assert!(known.iter().any(|k| k == metric), "{metric}");
        }
    }
}
