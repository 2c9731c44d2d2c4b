//! End-to-end checks on the hyde-obs trace artifacts.
//!
//! Traces a small circuit through the batch `Session` the way
//! `hyde-bench --trace` does (one `bench.circuit` span per circuit,
//! collection on around the run) and holds the exported Chrome trace to
//! the acceptance bar: parseable JSON, balanced begin/end per track,
//! canonical phase names, and a *logical* span structure that does not
//! depend on `HYDE_THREADS` (chunk spans carry the thread-dependent
//! fan-out and are excluded from the signature).
//!
//! The tests share the global collector and the `HYDE_THREADS` variable,
//! so they serialize on [`ENV_LOCK`].

use hyde_bench::chaos::batch_session;
use hyde_map::session::Job;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Maps rd73 with collection on, as `hyde-bench --trace` does, and
/// returns the aggregated report; the raw events stay in the collector.
fn observed_rd73() -> hyde_obs::ObsReport {
    let c = hyde_circuits::rd73();
    hyde_obs::reset();
    hyde_obs::enable();
    {
        let _obs = hyde_obs::span!("bench.circuit");
        batch_session(5)
            .run(&Job::new(&c.name, c.outputs.clone()))
            .expect("flow maps rd73");
    }
    hyde_obs::disable();
    hyde_obs::report()
}

/// Runs the traced flow on rd73 with the given worker count and returns
/// (chrome trace JSON, folded stacks, logical span signature).
fn traced_run(threads: usize) -> (String, String, Vec<(String, u64)>) {
    std::env::set_var("HYDE_THREADS", threads.to_string());
    let obs = observed_rd73();
    assert_eq!(obs.phase("bench.circuit").map(|p| p.count), Some(1));
    let chrome = hyde_obs::chrome_trace();
    let folded = hyde_obs::folded_stacks();
    let signature = hyde_obs::span_signature();
    std::env::remove_var("HYDE_THREADS");
    (chrome, folded, signature)
}

#[test]
fn chrome_trace_is_valid_and_names_canonical_phases() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (chrome, folded, _) = traced_run(1);

    // validate() parses the JSON and replays every track's begin/end
    // stack, so passing implies both well-formedness and balance.
    let summary = hyde_obs::chrome::validate(&chrome).expect("trace validates");
    assert!(summary.spans > 0);
    assert!(summary.tracks >= 1);
    assert!(summary.coverage >= 0.90, "coverage {:.2}", summary.coverage);

    // Canonical phases from the span taxonomy must appear by name.
    for phase in [
        "bench.circuit",
        "map.outputs",
        "map.cluster",
        "map.cover",
        "map.verify",
        "hyper.fold",
        "hyper.decompose",
        "decompose.step",
        "chart.build",
        "encoding.encode",
        "varpart.select_best",
    ] {
        assert!(
            summary.span_counts.contains_key(phase),
            "phase '{phase}' missing from trace; have {:?}",
            summary.span_counts.keys().collect::<Vec<_>>()
        );
    }

    // The flamegraph export covers the same run: rooted at a track name,
    // every line "path;frames weight" with a positive integer weight.
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("line has a weight");
        assert!(path.starts_with("main") || path.starts_with("worker-"));
        assert!(weight.parse::<u64>().expect("integer weight") > 0);
    }
}

#[test]
fn worker_tracks_appear_and_balance_at_eight_threads() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (chrome, _, _) = traced_run(8);
    let summary = hyde_obs::chrome::validate(&chrome).expect("trace validates");
    // main + one track per worker that recorded anything. rd73's seven
    // candidate partitions fan out over >= 2 workers even on small runs.
    assert!(
        summary.tracks >= 2,
        "expected worker tracks, got {}",
        summary.tracks
    );
    assert!(chrome.contains("\"worker-0\""));
}

#[test]
fn span_structure_is_thread_count_invariant() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (_, _, sig1) = traced_run(1);
    let (_, _, sig8) = traced_run(8);
    assert_eq!(
        sig1, sig8,
        "logical span structure must not depend on HYDE_THREADS"
    );
    assert!(!sig1.is_empty());
}

#[test]
fn obs_report_embeds_phase_breakdown() {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var("HYDE_THREADS", "1");
    let obs = observed_rd73();
    std::env::remove_var("HYDE_THREADS");
    assert!(obs.wall_us > 0);
    assert_eq!(obs.unclosed_spans, 0);
    assert!(obs.phase("map.outputs").is_some());
    assert!(obs.counter("varpart.candidates").is_some());
    // The serialized form must survive the crate's own JSON parser.
    let json = obs.to_json("");
    let doc = hyde_obs::json::parse(&json).expect("obs report JSON parses");
    assert!(doc.get("phases").is_some(), "{json}");
}
