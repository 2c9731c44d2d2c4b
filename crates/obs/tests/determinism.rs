//! Shard determinism: the merged snapshot of a [`Collector`] must be a
//! pure function of the recorded data, independent of how many threads
//! recorded it. One collector is fed a synthetic workload from a single
//! thread, another the same workload from eight threads concurrently;
//! every exported artifact — the Chrome trace, the `ObsReport` JSON, and
//! the Prometheus exposition — must come out byte-identical.

use hyde_obs::{Collector, Event, EventPhase};

/// Span names used by the synthetic workload (taxonomy names, though the
/// collector itself does not care).
const SPAN_NAMES: [&str; 4] = ["map.outputs", "decompose.step", "sat.solve", "hyper.fold"];
const COUNTER_NAMES: [&str; 3] = ["bdd.nodes", "sat.conflicts", "decompose.steps"];
const FAMILY_NAMES: [&str; 2] = ["bench.circuit_wall_us", "serve.request_us"];

const TRACKS: u32 = 8;
const SPANS_PER_TRACK: usize = 50;
const COUNTS_PER_TRACK: u64 = 20;

/// Per-track event streams with globally distinct, interleaved
/// timestamps: track t's i-th span begins at `i*100 + t*10` and ends 5ns
/// later, so the merged order mixes all eight tracks.
fn event_workload() -> Vec<(u32, Vec<Event>)> {
    (0..TRACKS)
        .map(|track| {
            let mut events = Vec::new();
            for i in 0..SPANS_PER_TRACK {
                let name = SPAN_NAMES[(track as usize + i) % SPAN_NAMES.len()];
                let base = (i as u64) * 100 + u64::from(track) * 10;
                events.push(Event {
                    name,
                    track,
                    ts_ns: base,
                    phase: EventPhase::Begin,
                    chunk: false,
                });
                events.push(Event {
                    name,
                    track,
                    ts_ns: base + 5,
                    phase: EventPhase::End,
                    chunk: false,
                });
            }
            (track, events)
        })
        .collect()
}

/// The counter/histogram workload one track contributes. The multiset of
/// `(name, value)` pairs is what matters; which thread (and therefore
/// which lane) records them must not.
fn record_aggregates(c: &Collector, track: u32) {
    for i in 0..COUNTS_PER_TRACK {
        c.add_counter(
            COUNTER_NAMES[track as usize % COUNTER_NAMES.len()],
            u64::from(track) * 31 + i,
        );
        c.observe(
            FAMILY_NAMES[track as usize % FAMILY_NAMES.len()],
            (u64::from(track) + 1) * 1000 + i * 17,
        );
    }
}

/// Renders every artifact the collector exports, for byte comparison.
fn artifacts(c: &Collector) -> (String, String, String) {
    let report = c.report();
    let hists = c.histograms();
    (
        hyde_obs::chrome::export(&c.events()),
        report.to_json(""),
        hyde_obs::prom::render(&report, &hists),
    )
}

#[test]
fn one_vs_eight_threads_is_byte_identical() {
    let single = Collector::new();
    for (track, events) in event_workload() {
        for e in events {
            single.push_raw(e);
        }
        record_aggregates(&single, track);
    }

    let sharded = Collector::new();
    std::thread::scope(|s| {
        for (track, events) in event_workload() {
            let sharded = &sharded;
            s.spawn(move || {
                for e in events {
                    sharded.push_raw(e);
                }
                record_aggregates(sharded, track);
            });
        }
    });

    let (chrome_1, report_1, prom_1) = artifacts(&single);
    let (chrome_8, report_8, prom_8) = artifacts(&sharded);
    assert_eq!(
        chrome_1, chrome_8,
        "Chrome trace differs across thread counts"
    );
    assert_eq!(
        report_1, report_8,
        "ObsReport JSON differs across thread counts"
    );
    assert_eq!(
        prom_1, prom_8,
        "Prometheus exposition differs across thread counts"
    );

    // Sanity: the workload actually recorded something on every surface.
    assert_eq!(
        single.events().len(),
        (TRACKS as usize) * SPANS_PER_TRACK * 2
    );
    assert_eq!(single.report().counters.len(), COUNTER_NAMES.len());
    assert_eq!(single.histograms().values.len(), FAMILY_NAMES.len());
    assert_eq!(single.dropped(), 0);
}
