//! `hyde-obs` — structured tracing and metrics for the HYDE pipeline.
//!
//! The decomposition pipeline is instrumented with named **spans** (RAII
//! guards opened by [`span!`]), **counters** ([`counter`]) and
//! **histogram observations** ([`observe`]). All are inert until tracing
//! is activated ([`enable`], or `HYDE_TRACE` via [`init_from_env`]): a
//! deactivated span costs one relaxed atomic load, and building the
//! crate without the `rt` feature compiles the instrumentation out
//! entirely.
//!
//! Recording is **sharded**: the collector owns a fixed set of lanes
//! (each a small mutex-guarded buffer) and every track maps to one lane
//! ([`worker_track`] pins `hyde_core::parallel` workers to stable
//! lanes), so eight workers recording under `HYDE_THREADS=8` never
//! contend on a single global lock. Lanes are drained on flush: events
//! are merged by timestamp (stable, so per-track order is preserved)
//! and counter/histogram families are merged by name — both merges are
//! deterministic in lane order.
//!
//! Collected data feeds four consumers:
//!
//! * [`report`](mod@report) — an aggregated [`ObsReport`] (per-phase invocation
//!   counts, total/self time, p50/p95/p99 latency, counter sums), from
//!   which `hyde-benchmark` reads its per-layer metrics;
//! * [`chrome_trace`] — Chrome trace-event JSON loadable in
//!   `chrome://tracing` / Perfetto, with one track per worker thread so
//!   the `hyde_core::parallel` fan-outs are visible;
//! * [`folded_stacks`] — collapsed-stack text consumable by flamegraph
//!   tooling (`flamegraph.pl`, inferno, speedscope);
//! * [`prom`] — Prometheus text-format exposition of all counters and
//!   histograms, served on `GET /metrics` by the `hyde-serve` daemon.
//!
//! Span names are `&'static str` in a `area.verb` style; the canonical
//! taxonomy is documented in DESIGN.md ("Observability"). Worker threads
//! spawned by `hyde_core::parallel` register a stable track per worker
//! index ([`worker_track`]); every other thread gets its own track on
//! first use, with the first recording thread named `main`.
//!
//! This crate is self-contained (std only) to respect the workspace's
//! offline-build rule, and sits below every pipeline crate in the
//! dependency graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod folded;
pub mod histogram;
pub mod json;
pub mod prom;
pub mod report;

pub use histogram::Histogram;
pub use report::{CounterStat, HistStat, ObsReport, PhaseStat};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Whether a trace event opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// Span begin.
    Begin,
    /// Span end.
    End,
}

/// One raw trace event. Within a track (one thread at a time) begins and
/// ends nest properly by RAII construction; across tracks the flush
/// merge orders events by timestamp.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Span name (static taxonomy name).
    pub name: &'static str,
    /// Track (thread lane) the event belongs to.
    pub track: u32,
    /// Nanoseconds since the collector's epoch.
    pub ts_ns: u64,
    /// Begin or end.
    pub phase: EventPhase,
    /// Marks per-worker chunk spans whose *count* legitimately varies
    /// with `HYDE_THREADS` (the logical span structure excludes them;
    /// see [`span_signature`]).
    pub chunk: bool,
}

/// Aggregated value of one named counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterAgg {
    /// Number of [`counter`] calls.
    pub count: u64,
    /// Sum of the deltas.
    pub sum: u64,
}

/// Cap on buffered events across all lanes; beyond it events are counted
/// as dropped rather than silently growing without bound (~1M events
/// ≈ 40 MB). Histograms and counters keep aggregating past the cap, so
/// percentiles stay trustworthy even on truncated traces.
const MAX_EVENTS: usize = 1 << 20;

/// Number of shard lanes. Tracks map onto lanes by [`lane_for_track`];
/// with up to 8 workers plus the main thread every recorder gets a
/// private lane, and larger fan-outs wrap with low collision odds.
const LANE_COUNT: usize = 64;

/// One shard: the only mutex in the hot path, shared by the (usually
/// single) track that maps to it.
#[derive(Default)]
struct Lane {
    events: Vec<Event>,
    counters: BTreeMap<&'static str, CounterAgg>,
    span_hists: BTreeMap<&'static str, Histogram>,
    counter_hists: BTreeMap<&'static str, Histogram>,
    value_hists: BTreeMap<&'static str, Histogram>,
}

/// Deterministic lane assignment: the main track gets lane 0, every
/// other track spreads over the remaining lanes. A pure function of the
/// track id so replayed event streams ([`Collector::push_raw`]) land
/// identically regardless of which thread pushes them.
fn lane_for_track(track: u32) -> usize {
    if track == MAIN_TRACK {
        0
    } else {
        1 + (track as usize - 1) % (LANE_COUNT - 1)
    }
}

/// Merged histogram families drained from all lanes, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSet {
    /// Span-duration histograms (nanoseconds), per span name.
    pub spans: BTreeMap<String, Histogram>,
    /// Per-call delta histograms, per counter name.
    pub counters: BTreeMap<String, Histogram>,
    /// Explicit [`observe`] families (unit by naming convention).
    pub values: BTreeMap<String, Histogram>,
}

/// Process-wide monotonic epoch all timestamps derive from. Never
/// resets; collectors subtract their own epoch offset, so timestamps can
/// be taken without holding any lock.
fn process_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An event/counter/histogram sink. The process-wide singleton behind
/// [`span!`] and [`counter`] is one of these; tests build private
/// collectors to exercise the exporters without touching global state.
pub struct Collector {
    lanes: Vec<Mutex<Lane>>,
    /// Offset of this collector's epoch from the process epoch.
    epoch_ns: AtomicU64,
    /// Events admitted toward [`MAX_EVENTS`] since the last reset.
    admitted: AtomicUsize,
    dropped: AtomicU64,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Creates an empty collector anchored at the current instant.
    pub fn new() -> Self {
        Collector {
            lanes: (0..LANE_COUNT)
                .map(|_| Mutex::new(Lane::default()))
                .collect(),
            epoch_ns: AtomicU64::new(process_now_ns()),
            admitted: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn lane(&self, track: u32) -> MutexGuard<'_, Lane> {
        // A panicking span guard must not wedge every later record.
        self.lanes[lane_for_track(track)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Nanoseconds since this collector's epoch.
    fn now_ns(&self) -> u64 {
        process_now_ns().saturating_sub(self.epoch_ns.load(Ordering::Relaxed))
    }

    /// Reserves one slot against the global event cap; on failure the
    /// event is dropped (and tallied) instead of recorded.
    fn admit(&self) -> bool {
        if self.admitted.fetch_add(1, Ordering::Relaxed) < MAX_EVENTS {
            true
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Clears all recorded data and re-anchors the epoch.
    pub fn reset(&self) {
        self.epoch_ns.store(process_now_ns(), Ordering::Relaxed);
        self.admitted.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        for lane in &self.lanes {
            let mut g = lane
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *g = Lane::default();
        }
    }

    /// Records a span-begin event, returning its timestamp so the
    /// matching end can compute the duration without re-reading state.
    fn record_begin(&self, name: &'static str, track: u32, chunk: bool) -> u64 {
        let ts_ns = self.now_ns();
        let admit = self.admit();
        let mut lane = self.lane(track);
        if admit {
            lane.events.push(Event {
                name,
                track,
                ts_ns,
                phase: EventPhase::Begin,
                chunk,
            });
        }
        ts_ns
    }

    /// Records a span-end event and feeds the duration into the span's
    /// latency histogram. The histogram records even when the event
    /// buffer is capped — the always-on signal survives truncation.
    fn record_end(&self, name: &'static str, track: u32, chunk: bool, begin_ns: u64) {
        let ts_ns = self.now_ns();
        let admit = self.admit();
        let mut lane = self.lane(track);
        if admit {
            lane.events.push(Event {
                name,
                track,
                ts_ns,
                phase: EventPhase::End,
                chunk,
            });
        }
        lane.span_hists
            .entry(name)
            .or_default()
            .record(ts_ns.saturating_sub(begin_ns));
    }

    /// Appends a pre-built event verbatim (exporter tests and tools).
    /// The event lands on the lane its track maps to, so replayed
    /// streams shard identically regardless of the pushing thread.
    pub fn push_raw(&self, event: Event) {
        if self.admit() {
            self.lane(event.track).events.push(event);
        }
    }

    /// Adds `delta` to the named counter and its delta histogram.
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        let mut lane = self.lane(current_track());
        let c = lane.counters.entry(name).or_default();
        c.count += 1;
        c.sum += delta;
        lane.counter_hists.entry(name).or_default().record(delta);
    }

    /// Records `value` into the named histogram family.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.lane(current_track())
            .value_hists
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Snapshot of the recorded events: lanes drained in index order,
    /// stably merged by timestamp (per-track order is preserved because
    /// a track's events live on one lane in program order).
    pub fn events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            let g = lane
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            all.extend_from_slice(&g.events);
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Snapshot of the counters, merged across lanes by name.
    pub fn counters(&self) -> BTreeMap<&'static str, CounterAgg> {
        let mut merged: BTreeMap<&'static str, CounterAgg> = BTreeMap::new();
        for lane in &self.lanes {
            let g = lane
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (name, c) in &g.counters {
                let m = merged.entry(name).or_default();
                m.count += c.count;
                m.sum += c.sum;
            }
        }
        merged
    }

    /// Snapshot of all histogram families, merged across lanes. Merge is
    /// element-wise bucket addition — associative and commutative, so
    /// the result is independent of lane order.
    pub fn histograms(&self) -> HistogramSet {
        let mut set = HistogramSet::default();
        let merge_into = |dst: &mut BTreeMap<String, Histogram>,
                          src: &BTreeMap<&'static str, Histogram>| {
            for (name, h) in src {
                dst.entry((*name).to_owned()).or_default().merge(h);
            }
        };
        for lane in &self.lanes {
            let g = lane
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            merge_into(&mut set.spans, &g.span_hists);
            merge_into(&mut set.counters, &g.counter_hists);
            merge_into(&mut set.values, &g.value_hists);
        }
        set
    }

    /// Events dropped after the buffer cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Builds the aggregated [`ObsReport`] from the current contents.
    pub fn report(&self) -> ObsReport {
        report::build(
            &self.events(),
            &self.counters(),
            &self.histograms(),
            self.dropped(),
        )
    }
}

// ---------------------------------------------------------------------
// Global collector, activation flag and track registry.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new)
}

/// Whether tracing is active. Inlined to one relaxed load (and to
/// constant `false` when the `rt` feature is off, which dead-codes every
/// instrumentation site).
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(feature = "rt") && ENABLED.load(Ordering::Relaxed)
}

/// Activates span/counter collection.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Deactivates collection (recorded data is kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears all recorded events/counters/histograms, re-anchors the trace
/// epoch, and releases all track assignments (the next thread to record
/// claims the main track afresh).
pub fn reset() {
    global().reset();
    TRACK_EPOCH.fetch_add(1, Ordering::Relaxed);
    NEXT_AUTO_TRACK.store(AUTO_TRACK_BASE, Ordering::Relaxed);
    MAIN_CLAIMED.store(false, Ordering::Relaxed);
}

/// Track id of the main (first-recording) thread.
pub const MAIN_TRACK: u32 = 0;
/// Worker tracks are `WORKER_TRACK_BASE + worker_index`.
pub const WORKER_TRACK_BASE: u32 = 1;
/// First track id handed to unregistered non-main threads.
const AUTO_TRACK_BASE: u32 = 512;

static MAIN_CLAIMED: AtomicBool = AtomicBool::new(false);
static NEXT_AUTO_TRACK: AtomicU32 = AtomicU32::new(AUTO_TRACK_BASE);
/// Bumped by [`reset`] so cached per-thread track ids from an earlier
/// trace are discarded; without this, the second trace in one process
/// (from a fresh thread, as in the test harness) could never claim the
/// main track again.
static TRACK_EPOCH: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// `(epoch, track)` — the track is only valid while the epoch matches
    /// [`TRACK_EPOCH`].
    static TRACK: std::cell::Cell<(u32, u32)> = const { std::cell::Cell::new((0, u32::MAX)) };
}

/// Registers the current thread as parallel worker `index`, pinning it to
/// the stable track `WORKER_TRACK_BASE + index` — and thereby to that
/// track's collector lane, so repeated fan-outs land on one lane per
/// worker. Called by `hyde_core::parallel` at worker start; only
/// top-level fan-outs (spawned from the main track) should register, so
/// nested fan-outs fall back to auto tracks.
pub fn worker_track(index: usize) {
    let epoch = TRACK_EPOCH.load(Ordering::Relaxed);
    TRACK.with(|t| t.set((epoch, WORKER_TRACK_BASE + index as u32)));
}

/// Track id of the current thread, assigning one on first use (the first
/// thread to record becomes [`MAIN_TRACK`]).
pub fn current_track() -> u32 {
    let epoch = TRACK_EPOCH.load(Ordering::Relaxed);
    TRACK.with(|t| {
        let (e, cur) = t.get();
        if cur != u32::MAX && e == epoch {
            return cur;
        }
        let id = if !MAIN_CLAIMED.swap(true, Ordering::Relaxed) {
            MAIN_TRACK
        } else {
            NEXT_AUTO_TRACK.fetch_add(1, Ordering::Relaxed)
        };
        t.set((epoch, id));
        id
    })
}

/// Human-readable name of a track (Chrome metadata / folded-stack root).
pub fn track_name(track: u32) -> String {
    if track == MAIN_TRACK {
        "main".to_owned()
    } else if (WORKER_TRACK_BASE..AUTO_TRACK_BASE).contains(&track) {
        format!("worker-{}", track - WORKER_TRACK_BASE)
    } else {
        format!("thread-{track}")
    }
}

/// RAII span guard: records a begin event on construction (when tracing
/// is active) and the matching end event — plus the span's latency
/// histogram sample — on drop.
#[must_use = "a span guard measures the scope it lives in; bind it to a named local"]
pub struct SpanGuard {
    open: Option<(&'static str, u32, bool, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, track, chunk, begin_ns)) = self.open.take() {
            global().record_end(name, track, chunk, begin_ns);
        }
    }
}

fn enter_impl(name: &'static str, chunk: bool) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let track = current_track();
    let begin_ns = global().record_begin(name, track, chunk);
    SpanGuard {
        open: Some((name, track, chunk, begin_ns)),
    }
}

/// Opens a span on the current thread's track. Prefer the [`span!`]
/// macro at call sites.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    enter_impl(name, false)
}

/// Opens a *chunk* span: a per-worker slice of a parallel fan-out whose
/// count varies with `HYDE_THREADS` (excluded from [`span_signature`]).
#[inline]
pub fn enter_chunk(name: &'static str) -> SpanGuard {
    enter_impl(name, true)
}

/// Adds `delta` to a named metric. A no-op until tracing is activated.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        global().add_counter(name, delta);
    }
}

/// Records `value` into a named histogram family (unit by naming
/// convention, e.g. `*_us`). A no-op until tracing is activated.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        global().observe(name, value);
    }
}

/// Opens an RAII span: `let _obs = hyde_obs::span!("varpart.select_best");`.
///
/// Bind the guard to a named local — `let _ = span!(...)` drops it
/// immediately and measures nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::enter($name)
    };
}

// ---------------------------------------------------------------------
// Global snapshots and exporters.
// ---------------------------------------------------------------------

/// Snapshot of the globally recorded events.
pub fn events() -> Vec<Event> {
    global().events()
}

/// Aggregated report of everything recorded since the last [`reset`].
pub fn report() -> ObsReport {
    global().report()
}

/// Snapshot of the globally recorded histogram families.
pub fn histograms() -> HistogramSet {
    global().histograms()
}

/// Events dropped globally since the last [`reset`] (event cap hit).
pub fn dropped() -> u64 {
    global().dropped()
}

/// Chrome trace-event JSON of everything recorded since the last
/// [`reset`] (load in `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn chrome_trace() -> String {
    chrome::export(&global().events())
}

/// Collapsed-stack text of everything recorded since the last [`reset`]
/// (pipe into `flamegraph.pl` or load in speedscope).
pub fn folded_stacks() -> String {
    folded::export(&global().events())
}

/// Logical span structure: `(name, count)` per non-chunk span name,
/// sorted by name. Identical across `HYDE_THREADS` settings for a
/// deterministic pipeline — chunk spans (whose count tracks the worker
/// count by design) are excluded.
pub fn span_signature() -> Vec<(String, u64)> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in global().events() {
        if e.phase == EventPhase::Begin && !e.chunk {
            *counts.entry(e.name).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .map(|(name, n)| (name.to_owned(), n))
        .collect()
}

/// Writes both export formats: Chrome trace JSON at `path` and collapsed
/// stacks at `path` with a `.folded` extension appended (or swapped in
/// for a `.json` extension). Returns the folded path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifacts(path: &str) -> std::io::Result<String> {
    let folded_path = if let Some(stem) = path.strip_suffix(".json") {
        format!("{stem}.folded")
    } else {
        format!("{path}.folded")
    };
    std::fs::write(path, chrome_trace())?;
    std::fs::write(&folded_path, folded_stacks())?;
    Ok(folded_path)
}

/// Environment-variable activation: when `HYDE_TRACE=<path>` is set,
/// enables collection and returns the path the caller should pass to
/// [`write_artifacts`] on exit. Binaries call this once at startup.
pub fn init_from_env() -> Option<String> {
    let path = std::env::var("HYDE_TRACE").ok().filter(|p| !p.is_empty())?;
    reset();
    enable();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_records_and_resets() {
        let c = Collector::new();
        c.push_raw(Event {
            name: "a",
            track: 0,
            ts_ns: 1,
            phase: EventPhase::Begin,
            chunk: false,
        });
        c.add_counter("x", 5);
        c.add_counter("x", 7);
        c.observe("y", 42);
        assert_eq!(c.events().len(), 1);
        let counters = c.counters();
        assert_eq!(counters["x"], CounterAgg { count: 2, sum: 12 });
        let hists = c.histograms();
        assert_eq!(hists.counters["x"].count(), 2);
        assert_eq!(hists.values["y"].sum(), 42);
        c.reset();
        assert!(c.events().is_empty());
        assert!(c.counters().is_empty());
        assert!(c.histograms().values.is_empty());
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn track_names_are_stable() {
        assert_eq!(track_name(MAIN_TRACK), "main");
        assert_eq!(track_name(WORKER_TRACK_BASE), "worker-0");
        assert_eq!(track_name(WORKER_TRACK_BASE + 7), "worker-7");
        assert_eq!(track_name(900), "thread-900");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // The global flag defaults to off; a span guard must be free.
        let before = events().len();
        {
            let _g = span!("test.noop");
        }
        counter("test.noop", 1);
        observe("test.noop", 1);
        assert_eq!(events().len(), before);
    }

    #[test]
    fn buffer_cap_counts_drops() {
        let c = Collector::new();
        let e = Event {
            name: "x",
            track: 0,
            ts_ns: 0,
            phase: EventPhase::Begin,
            chunk: false,
        };
        for _ in 0..MAX_EVENTS {
            c.push_raw(e);
        }
        c.push_raw(e);
        c.push_raw(e);
        assert_eq!(c.dropped(), 2);
        assert_eq!(c.events().len(), MAX_EVENTS);
    }

    #[test]
    fn lanes_shard_by_track_and_merge_by_timestamp() {
        let c = Collector::new();
        // Interleave three tracks pushed out of timestamp order across
        // calls; the drained stream must come back time-sorted with
        // per-track order intact.
        let mk = |track: u32, ts_ns: u64, phase: EventPhase| Event {
            name: "s",
            track,
            ts_ns,
            phase,
            chunk: false,
        };
        c.push_raw(mk(1, 10, EventPhase::Begin));
        c.push_raw(mk(0, 5, EventPhase::Begin));
        c.push_raw(mk(2, 7, EventPhase::Begin));
        c.push_raw(mk(1, 20, EventPhase::End));
        c.push_raw(mk(2, 8, EventPhase::End));
        c.push_raw(mk(0, 30, EventPhase::End));
        let ts: Vec<u64> = c.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![5, 7, 8, 10, 20, 30]);
    }

    #[test]
    fn lane_assignment_is_deterministic_and_in_range() {
        assert_eq!(lane_for_track(MAIN_TRACK), 0);
        for track in 1..2048u32 {
            let lane = lane_for_track(track);
            assert!((1..LANE_COUNT).contains(&lane), "track {track} → {lane}");
            assert_eq!(lane, lane_for_track(track), "must be pure");
        }
        // The first LANE_COUNT-1 worker tracks get distinct lanes.
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..(LANE_COUNT as u32 - 1) {
            assert!(seen.insert(lane_for_track(WORKER_TRACK_BASE + w)));
        }
    }

    #[test]
    fn histograms_merge_across_lanes() {
        let c = Collector::new();
        // Same family observed from different tracks (lanes): the
        // snapshot must present one merged histogram.
        for track in [1u32, 2, 3] {
            c.push_raw(Event {
                name: "h",
                track,
                ts_ns: 0,
                phase: EventPhase::Begin,
                chunk: false,
            });
        }
        c.observe("lat_us", 10);
        c.observe("lat_us", 1000);
        let set = c.histograms();
        assert_eq!(set.values["lat_us"].count(), 2);
        assert_eq!(set.values["lat_us"].sum(), 1010);
    }
}
