//! Aggregated metrics report ([`ObsReport`]) built from raw trace data.
//!
//! Where the Chrome/folded exporters preserve the full event timeline,
//! the report collapses it into stable per-phase aggregates suitable for
//! embedding in a JSON report: invocation count, total (inclusive)
//! and self (exclusive) time per span name, p50/p95/p99 latency from the
//! sharded histograms, plus every named counter and explicit histogram
//! family. Phases sort by total time descending so the JSON reads as a
//! profile.
//!
//! Percentile fields are *additive*: they appear only when histogram
//! data exists, and v2 readers that predate them ignore unknown keys, so
//! the `obs` section stays consumable by older tooling.

use crate::{CounterAgg, Event, EventPhase, Histogram, HistogramSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate timing for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Span name (taxonomy name, e.g. `varpart.select_best`).
    pub name: String,
    /// Number of completed invocations.
    pub count: u64,
    /// Inclusive time across all invocations, microseconds.
    pub total_us: u64,
    /// Exclusive (self) time across all invocations, microseconds.
    pub self_us: u64,
    /// Median invocation latency, microseconds (histogram-derived).
    pub p50_us: Option<f64>,
    /// 95th-percentile invocation latency, microseconds.
    pub p95_us: Option<f64>,
    /// 99th-percentile invocation latency, microseconds.
    pub p99_us: Option<f64>,
}

/// Aggregate of one named counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStat {
    /// Counter name (e.g. `bdd.unique_probes`).
    pub name: String,
    /// Number of `counter` calls.
    pub count: u64,
    /// Sum of deltas.
    pub sum: u64,
    /// Median per-call delta (histogram-derived).
    pub p50: Option<u64>,
    /// 95th-percentile per-call delta.
    pub p95: Option<u64>,
    /// 99th-percentile per-call delta.
    pub p99: Option<u64>,
}

/// Aggregate of one explicit [`crate::observe`] histogram family.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStat {
    /// Family name; unit by naming convention (e.g. `serve.job_wall_us`).
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median recorded value.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Stable, serializable snapshot of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Wall-clock extent of the trace (first event to last), microseconds.
    pub wall_us: u64,
    /// Distinct tracks (threads) that recorded events.
    pub threads_observed: usize,
    /// Events dropped after the buffer cap was reached.
    pub dropped_events: u64,
    /// Spans still open at snapshot time (closed at the last timestamp
    /// for aggregation purposes, but reported so truncation is visible).
    pub unclosed_spans: u64,
    /// Per-span aggregates, sorted by `total_us` descending.
    pub phases: Vec<PhaseStat>,
    /// Counter aggregates, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Explicit histogram families, sorted by name.
    pub hists: Vec<HistStat>,
}

/// Fixed-precision float used in the JSON output so rendering is
/// byte-deterministic.
fn f3(v: f64) -> String {
    format!("{v:.3}")
}

impl ObsReport {
    /// Looks up a phase aggregate by span name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Looks up a counter aggregate by name.
    pub fn counter(&self, name: &str) -> Option<&CounterStat> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Looks up an explicit histogram family by name.
    pub fn hist(&self, name: &str) -> Option<&HistStat> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Hand-rolled JSON rendering. `indent` is prepended to every line so
    /// the report can be nested inside a larger document (hyde-bench
    /// embeds it under an `"obs"` key).
    pub fn to_json(&self, indent: &str) -> String {
        let mut out = String::with_capacity(256 + self.phases.len() * 128);
        let _ = writeln!(out, "{indent}{{");
        let _ = writeln!(out, "{indent}  \"wall_us\": {},", self.wall_us);
        let _ = writeln!(
            out,
            "{indent}  \"threads_observed\": {},",
            self.threads_observed
        );
        let _ = writeln!(
            out,
            "{indent}  \"dropped_events\": {},",
            self.dropped_events
        );
        let _ = writeln!(
            out,
            "{indent}  \"unclosed_spans\": {},",
            self.unclosed_spans
        );
        let _ = writeln!(out, "{indent}  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            let mut pct = String::new();
            if let (Some(p50), Some(p95), Some(p99)) = (p.p50_us, p.p95_us, p.p99_us) {
                let _ = write!(
                    pct,
                    ", \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}",
                    f3(p50),
                    f3(p95),
                    f3(p99)
                );
            }
            let _ = writeln!(
                out,
                "{indent}    {{\"name\": \"{}\", \"count\": {}, \"total_us\": {}, \
                 \"self_us\": {}{pct}}}{comma}",
                crate::json::escape(&p.name),
                p.count,
                p.total_us,
                p.self_us
            );
        }
        let _ = writeln!(out, "{indent}  ],");
        let _ = writeln!(out, "{indent}  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let mut pct = String::new();
            if let (Some(p50), Some(p95), Some(p99)) = (c.p50, c.p95, c.p99) {
                let _ = write!(pct, ", \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}");
            }
            let _ = writeln!(
                out,
                "{indent}    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}{pct}}}{comma}",
                crate::json::escape(&c.name),
                c.count,
                c.sum
            );
        }
        let _ = writeln!(out, "{indent}  ],");
        let _ = writeln!(out, "{indent}  \"hists\": [");
        for (i, h) in self.hists.iter().enumerate() {
            let comma = if i + 1 < self.hists.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{indent}    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"min\": {}, \
                 \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{comma}",
                crate::json::escape(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
        }
        let _ = writeln!(out, "{indent}  ]");
        let _ = write!(out, "{indent}}}");
        out
    }
}

/// Quantile triple of a histogram, in the histogram's raw unit.
fn quantiles(h: &Histogram) -> Option<(u64, u64, u64)> {
    Some((h.quantile(0.50)?, h.quantile(0.95)?, h.quantile(0.99)?))
}

/// Builds the report from raw events, counter aggregates and the merged
/// histogram families.
pub(crate) fn build(
    events: &[Event],
    counters: &BTreeMap<&'static str, CounterAgg>,
    hists: &HistogramSet,
    dropped: u64,
) -> ObsReport {
    struct Agg {
        count: u64,
        total_ns: u64,
        self_ns: u64,
    }
    let mut aggs: BTreeMap<&'static str, Agg> = BTreeMap::new();
    // Per-track replay stack: (name, begin_ts, child_time_ns).
    let mut stacks: BTreeMap<u32, Vec<(&'static str, u64, u64)>> = BTreeMap::new();
    let mut tracks: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut min_ts = u64::MAX;
    let mut max_ts = 0u64;
    let mut unclosed = 0u64;

    for e in events {
        tracks.insert(e.track);
        min_ts = min_ts.min(e.ts_ns);
        max_ts = max_ts.max(e.ts_ns);
        let stack = stacks.entry(e.track).or_default();
        match e.phase {
            EventPhase::Begin => stack.push((e.name, e.ts_ns, 0)),
            EventPhase::End => {
                if let Some((name, begin, child_ns)) = stack.pop() {
                    let total = e.ts_ns.saturating_sub(begin);
                    let agg = aggs.entry(name).or_insert(Agg {
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    agg.count += 1;
                    agg.total_ns += total;
                    agg.self_ns += total.saturating_sub(child_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += total;
                    }
                }
            }
        }
    }
    // Close leftover spans at the trace's end so their time is not lost,
    // but surface the truncation in the report.
    for stack in stacks.values_mut() {
        while let Some((name, begin, child_ns)) = stack.pop() {
            unclosed += 1;
            let total = max_ts.saturating_sub(begin);
            let agg = aggs.entry(name).or_insert(Agg {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            agg.count += 1;
            agg.total_ns += total;
            agg.self_ns += total.saturating_sub(child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.2 += total;
            }
        }
    }

    let mut phases: Vec<PhaseStat> = aggs
        .into_iter()
        .map(|(name, a)| {
            let pct = hists.spans.get(name).and_then(quantiles);
            PhaseStat {
                name: name.to_owned(),
                count: a.count,
                total_us: a.total_ns / 1_000,
                self_us: a.self_ns / 1_000,
                p50_us: pct.map(|(p, _, _)| p as f64 / 1_000.0),
                p95_us: pct.map(|(_, p, _)| p as f64 / 1_000.0),
                p99_us: pct.map(|(_, _, p)| p as f64 / 1_000.0),
            }
        })
        .collect();
    phases.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));

    let counters = counters
        .iter()
        .map(|(name, c)| {
            let pct = hists.counters.get(*name).and_then(quantiles);
            CounterStat {
                name: (*name).to_owned(),
                count: c.count,
                sum: c.sum,
                p50: pct.map(|(p, _, _)| p),
                p95: pct.map(|(_, p, _)| p),
                p99: pct.map(|(_, _, p)| p),
            }
        })
        .collect();

    let hist_stats = hists
        .values
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(name, h)| {
            let (p50, p95, p99) = quantiles(h).unwrap_or((0, 0, 0));
            HistStat {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                min: h.min().unwrap_or(0),
                max: h.max().unwrap_or(0),
                p50,
                p95,
                p99,
            }
        })
        .collect();

    ObsReport {
        wall_us: if max_ts > min_ts {
            (max_ts - min_ts) / 1_000
        } else {
            0
        },
        threads_observed: tracks.len(),
        dropped_events: dropped,
        unclosed_spans: unclosed,
        phases,
        counters,
        hists: hist_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, track: u32, ts_ns: u64, phase: EventPhase) -> Event {
        Event {
            name,
            track,
            ts_ns,
            phase,
            chunk: false,
        }
    }

    fn no_hists() -> HistogramSet {
        HistogramSet::default()
    }

    #[test]
    fn aggregates_total_and_self_time() {
        let events = vec![
            ev("outer", 0, 0, EventPhase::Begin),
            ev("inner", 0, 2_000_000, EventPhase::Begin),
            ev("inner", 0, 6_000_000, EventPhase::End),
            ev("outer", 0, 10_000_000, EventPhase::End),
        ];
        let report = build(&events, &BTreeMap::new(), &no_hists(), 0);
        assert_eq!(report.wall_us, 10_000);
        assert_eq!(report.threads_observed, 1);
        assert_eq!(report.unclosed_spans, 0);
        let outer = report.phase("outer").unwrap();
        assert_eq!(
            (outer.count, outer.total_us, outer.self_us),
            (1, 10_000, 6_000)
        );
        // No histogram data supplied: percentile fields stay absent.
        assert_eq!(outer.p50_us, None);
        let inner = report.phase("inner").unwrap();
        assert_eq!(
            (inner.count, inner.total_us, inner.self_us),
            (1, 4_000, 4_000)
        );
        // Sorted by total_us descending: outer first.
        assert_eq!(report.phases[0].name, "outer");
    }

    #[test]
    fn closes_unclosed_spans_and_counts_them() {
        let events = vec![
            ev("a", 0, 0, EventPhase::Begin),
            ev("b", 0, 1_000_000, EventPhase::Begin),
            ev("b", 0, 3_000_000, EventPhase::End),
        ];
        let report = build(&events, &BTreeMap::new(), &no_hists(), 0);
        assert_eq!(report.unclosed_spans, 1);
        let a = report.phase("a").unwrap();
        // Closed at the trace end (3ms).
        assert_eq!(a.total_us, 3_000);
        assert_eq!(a.self_us, 1_000);
    }

    #[test]
    fn report_json_parses_and_contains_fields() {
        let events = vec![
            ev("x", 0, 0, EventPhase::Begin),
            ev("x", 0, 5_000_000, EventPhase::End),
        ];
        let mut counters = BTreeMap::new();
        counters.insert("bdd.unique_probes", CounterAgg { count: 2, sum: 99 });
        let report = build(&events, &counters, &no_hists(), 1);
        let text = report.to_json("");
        let doc = crate::json::parse(&text).expect("report JSON parses");
        assert_eq!(doc.get("dropped_events").unwrap().as_num().unwrap(), 1.0);
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("name").unwrap().as_str().unwrap(), "x");
        let counters = doc.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters[0].get("sum").unwrap().as_num().unwrap(), 99.0);
        // The hists section is always present (possibly empty).
        assert!(doc.get("hists").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn percentiles_surface_when_histograms_exist() {
        let events = vec![
            ev("x", 0, 0, EventPhase::Begin),
            ev("x", 0, 5_000_000, EventPhase::End),
        ];
        let mut counters = BTreeMap::new();
        counters.insert("c", CounterAgg { count: 3, sum: 30 });
        let mut hists = HistogramSet::default();
        let mut span_h = Histogram::new();
        span_h.record(5_000_000); // 5ms in ns
        hists.spans.insert("x".to_owned(), span_h);
        let mut ctr_h = Histogram::new();
        for d in [5u64, 10, 15] {
            ctr_h.record(d);
        }
        hists.counters.insert("c".to_owned(), ctr_h);
        let mut val_h = Histogram::new();
        for v in [100u64, 200, 300, 400] {
            val_h.record(v);
        }
        hists.values.insert("lat_us".to_owned(), val_h);

        let report = build(&events, &counters, &hists, 0);
        let x = report.phase("x").unwrap();
        assert_eq!(x.p50_us, Some(5_000.0));
        let c = report.counter("c").unwrap();
        assert_eq!(c.p50, Some(10));
        let h = report.hist("lat_us").unwrap();
        assert_eq!((h.count, h.min, h.max), (4, 100, 400));
        assert!(h.p50 >= 100 && h.p50 <= 400);

        // JSON round-trip: the new keys parse and old keys are intact
        // (a v2 reader keyed on name/count/sum sees the same values).
        let doc = crate::json::parse(&report.to_json("")).expect("parses");
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("p50_us").unwrap().as_num().unwrap(), 5000.0);
        assert_eq!(phases[0].get("count").unwrap().as_num().unwrap(), 1.0);
        let hists_arr = doc.get("hists").unwrap().as_arr().unwrap();
        assert_eq!(
            hists_arr[0].get("name").unwrap().as_str().unwrap(),
            "lat_us"
        );
    }

    #[test]
    fn multi_invocation_counts_accumulate() {
        let events = vec![
            ev("p", 0, 0, EventPhase::Begin),
            ev("p", 0, 1_000_000, EventPhase::End),
            ev("p", 0, 2_000_000, EventPhase::Begin),
            ev("p", 0, 4_000_000, EventPhase::End),
        ];
        let report = build(&events, &BTreeMap::new(), &no_hists(), 0);
        let p = report.phase("p").unwrap();
        assert_eq!((p.count, p.total_us), (2, 3_000));
    }
}
