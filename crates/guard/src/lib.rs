//! Resource governance and resilience for the HYDE pipeline.
//!
//! Roth–Karp decomposition, BDD construction, and the compatible-class
//! encoding search are all worst-case exponential. This crate gives the
//! rest of the workspace a shared vocabulary for bounding that work and
//! for degrading gracefully when a bound is hit:
//!
//! * [`Budget`] — per-run resource limits (wall-clock deadline, BDD node
//!   cap, SAT conflict cap, bound-set candidate cap). A `Budget` is plain
//!   data; each consumer checks the limit it understands and returns a
//!   typed [`OutOfBudget`] instead of growing without bound.
//! * [`Rung`] — the documented fallback ladder. When a rung exhausts its
//!   budget the caller steps **down one rung** rather than aborting:
//!   exact Roth–Karp → BDD-threshold path → Shannon cofactor split →
//!   direct cover. Every step is recorded as a [`DegradationEvent`] and
//!   surfaced through `hyde-obs` counters plus the HY5xx diagnostic
//!   family in `hyde-verify`.
//! * [`Chaos`] — deterministic, seed-driven fault injection
//!   (`HYDE_CHAOS=<seed>`). Injection sites are keyed by *strings*
//!   (circuit and stage names), never by invocation counters, so the
//!   same seed trips the same sites at any `HYDE_THREADS` value.
//!
//! The degradation log is a process-global, mutex-guarded list so that
//! sequential batch drivers (bench, lint) can drain per-circuit events
//! without threading a collector through every call. Events are only
//! recorded from sequential driver code, which keeps the log order
//! deterministic.

pub mod retry;

pub use retry::{AdmissionLimits, RejectReason, Rejected, RetryPolicy};

use std::cell::RefCell;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The resource that a budget check found exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The BDD manager hit its unique-table node cap (or a simulated
    /// allocation failure was injected).
    BddNodes,
    /// The SAT solver exceeded its conflict budget.
    SatConflicts,
    /// The bound-set candidate search exceeded its candidate cap.
    Candidates,
}

impl Resource {
    /// Stable lower-case token used in logs and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::Deadline => "deadline",
            Resource::BddNodes => "bdd-nodes",
            Resource::SatConflicts => "sat-conflicts",
            Resource::Candidates => "candidates",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed budget-exhaustion error shared by every guarded stage.
///
/// `injected` distinguishes real exhaustion from chaos-injected
/// exhaustion so reports can tell operators which failures were drills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBudget {
    /// Which resource ran out.
    pub resource: Resource,
    /// The limit that was in force (0 when unknown, e.g. injected).
    pub limit: u64,
    /// True when the exhaustion was injected by the chaos layer.
    pub injected: bool,
}

impl OutOfBudget {
    /// Exhaustion of `resource` at `limit`, observed for real.
    pub fn new(resource: Resource, limit: u64) -> Self {
        OutOfBudget {
            resource,
            limit,
            injected: false,
        }
    }

    /// Chaos-injected exhaustion of `resource`.
    pub fn injected(resource: Resource) -> Self {
        OutOfBudget {
            resource,
            limit: 0,
            injected: true,
        }
    }
}

impl fmt::Display for OutOfBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.injected {
            write!(f, "out of budget: {} (chaos-injected)", self.resource)
        } else {
            write!(f, "out of budget: {} (limit {})", self.resource, self.limit)
        }
    }
}

impl std::error::Error for OutOfBudget {}

/// Resource limits for one pipeline run. All limits are optional; the
/// default is [`Budget::unlimited`], which never trips and adds no
/// measurable overhead to the hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline for the run.
    pub deadline: Option<Instant>,
    /// Maximum number of live nodes a BDD manager may allocate.
    pub bdd_nodes: Option<usize>,
    /// Maximum SAT conflicts per solve.
    pub sat_conflicts: Option<u64>,
    /// Maximum bound-set candidates evaluated per decomposition step.
    pub candidates: Option<usize>,
}

impl Budget {
    /// No limits: every check passes.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Production-oriented defaults: generous caps that real circuits in
    /// the 25-circuit suite never hit, but pathological inputs do.
    pub fn standard() -> Self {
        Budget {
            deadline: None,
            bdd_nodes: Some(1 << 22),
            sat_conflicts: Some(200_000),
            candidates: Some(1 << 16),
        }
    }

    /// Replaces the wall-clock deadline with `now + d`.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Instant::now().checked_add(d);
        self
    }

    /// Replaces the BDD node cap.
    pub fn with_bdd_nodes(mut self, cap: usize) -> Self {
        self.bdd_nodes = Some(cap);
        self
    }

    /// Replaces the SAT conflict cap.
    pub fn with_sat_conflicts(mut self, cap: u64) -> Self {
        self.sat_conflicts = Some(cap);
        self
    }

    /// Replaces the bound-set candidate cap.
    pub fn with_candidates(mut self, cap: usize) -> Self {
        self.candidates = Some(cap);
        self
    }

    /// Errors with [`Resource::Deadline`] if the deadline has passed.
    pub fn check_deadline(&self) -> Result<(), OutOfBudget> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(OutOfBudget::new(Resource::Deadline, 0)),
            _ => Ok(()),
        }
    }

    /// Errors with [`Resource::Candidates`] if a step would evaluate
    /// more than the candidate cap.
    pub fn check_candidates(&self, needed: usize) -> Result<(), OutOfBudget> {
        match self.candidates {
            Some(cap) if needed > cap => Err(OutOfBudget::new(Resource::Candidates, cap as u64)),
            _ => Ok(()),
        }
    }
}

/// One rung of the fallback ladder, ordered from most to least exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Exact Roth–Karp decomposition with full compatible-class encoding.
    Exact,
    /// BDD-threshold path: cut-based decomposition on a node-capped
    /// manager.
    BddThreshold,
    /// Shannon cofactor split: always terminates, no search.
    Shannon,
    /// Direct SOP cover chopped into k-feasible AND/OR trees. The floor
    /// of the ladder; it cannot run out of budget.
    DirectCover,
}

impl Rung {
    /// The next rung down the ladder, or `None` at the floor.
    pub fn next_down(self) -> Option<Rung> {
        match self {
            Rung::Exact => Some(Rung::BddThreshold),
            Rung::BddThreshold => Some(Rung::Shannon),
            Rung::Shannon => Some(Rung::DirectCover),
            Rung::DirectCover => None,
        }
    }

    /// Stable lower-case token used in logs, counters, and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Exact => "exact",
            Rung::BddThreshold => "bdd-threshold",
            Rung::Shannon => "shannon",
            Rung::DirectCover => "direct-cover",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A recorded step down the fallback ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Circuit (or other run-level) context, e.g. `"misex1"`.
    pub context: String,
    /// Pipeline stage / output prefix, e.g. `"F2"`.
    pub stage: String,
    /// Rung that ran out of budget.
    pub from: Rung,
    /// Rung the pipeline stepped down to.
    pub to: Rung,
    /// Which resource was exhausted.
    pub resource: Resource,
    /// True when the exhaustion was injected by the chaos layer.
    pub injected: bool,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degrade {}/{}: {} -> {} ({}{})",
            self.context,
            self.stage,
            self.from,
            self.to,
            self.resource,
            if self.injected { ", injected" } else { "" }
        )
    }
}

/// Process-global degradation log. Events are recorded by sequential
/// driver code only, so the order is deterministic for a given input
/// and chaos seed regardless of `HYDE_THREADS`.
static DEGRADATIONS: Mutex<Vec<DegradationEvent>> = Mutex::new(Vec::new());

thread_local! {
    /// Stack of thread-local capture scopes (see [`ScopedDegradations`]).
    /// When non-empty, [`record_degradation`] appends to the innermost
    /// scope instead of the process-global log, so concurrent service
    /// workers each see only their own job's events.
    static SCOPED: RefCell<Vec<Vec<DegradationEvent>>> = const { RefCell::new(Vec::new()) };
}

/// RAII capture scope for degradation events on the current thread.
///
/// While a scope is live, every [`record_degradation`] call *from this
/// thread* lands in the scope instead of the process-global log; the
/// obs counters still fire. [`ScopedDegradations::finish`] returns the
/// captured events. Dropping an unfinished scope (a panic unwinding
/// through it) discards the partial capture rather than leaking it
/// into the global log, which keeps concurrent workers from
/// interleaving each other's trails.
///
/// Scopes nest: driver code that wraps a job in a scope can itself run
/// under an outer scope without either seeing the other's events.
#[derive(Debug)]
pub struct ScopedDegradations {
    finished: bool,
}

impl ScopedDegradations {
    /// Opens a capture scope on the current thread.
    pub fn begin() -> Self {
        SCOPED.with(|s| s.borrow_mut().push(Vec::new()));
        ScopedDegradations { finished: false }
    }

    /// Closes the scope and returns the events it captured.
    pub fn finish(mut self) -> Vec<DegradationEvent> {
        self.finished = true;
        SCOPED.with(|s| s.borrow_mut().pop()).unwrap_or_default()
    }
}

impl Drop for ScopedDegradations {
    fn drop(&mut self) {
        if !self.finished {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Runs `f` under a [`ScopedDegradations`] scope and returns its result
/// alongside the degradation events recorded on this thread during the
/// call.
pub fn scoped_degradations<T>(f: impl FnOnce() -> T) -> (T, Vec<DegradationEvent>) {
    let scope = ScopedDegradations::begin();
    let out = f();
    (out, scope.finish())
}

/// Obs counter name for a step down onto `rung`.
fn degrade_counter(rung: Rung) -> &'static str {
    match rung {
        Rung::Exact => "guard.degrade.exact",
        Rung::BddThreshold => "guard.degrade.bdd_threshold",
        Rung::Shannon => "guard.degrade.shannon",
        Rung::DirectCover => "guard.degrade.direct_cover",
    }
}

/// Appends `event` to the innermost [`ScopedDegradations`] scope on the
/// current thread (when one is live) or to the global degradation log,
/// and bumps the per-rung `guard.degrade.*` obs counter either way.
pub fn record_degradation(event: DegradationEvent) {
    hyde_obs::counter(degrade_counter(event.to), 1);
    if event.injected {
        hyde_obs::counter("guard.chaos.injected", 1);
    }
    let scoped = SCOPED.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last_mut() {
            Some(scope) => {
                scope.push(event.clone());
                true
            }
            None => false,
        }
    });
    if !scoped {
        DEGRADATIONS
            .lock()
            .expect("degradation log mutex")
            .push(event);
    }
}

/// Removes and returns all recorded degradation events, oldest first.
pub fn drain_degradations() -> Vec<DegradationEvent> {
    std::mem::take(&mut *DEGRADATIONS.lock().expect("degradation log mutex"))
}

/// Renders the current log as one line per event without draining it.
pub fn degradation_log_text() -> String {
    let log = DEGRADATIONS.lock().expect("degradation log mutex");
    let mut out = String::new();
    for e in log.iter() {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

/// Deterministic seed-driven fault injector.
///
/// A site is a stable string such as `"exact:misex1:F2"`. Whether the
/// site trips depends only on `(seed, site)` via an FNV-1a hash, so
/// injection is reproducible across runs, platforms, and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chaos {
    /// The chaos seed (from `HYDE_CHAOS` or `hyde-bench chaos`).
    pub seed: u64,
}

impl Chaos {
    /// A chaos injector with the given seed.
    pub fn new(seed: u64) -> Self {
        Chaos { seed }
    }

    /// Reads `HYDE_CHAOS`; `None` when unset or unparsable.
    pub fn from_env() -> Option<Self> {
        std::env::var("HYDE_CHAOS")
            .ok()
            .and_then(|v| Self::from_env_value(&v))
    }

    /// Parses a `HYDE_CHAOS` value (decimal or `0x`-prefixed hex).
    pub fn from_env_value(v: &str) -> Option<Self> {
        let v = v.trim();
        let seed = if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()?
        } else {
            v.parse::<u64>().ok()?
        };
        Some(Chaos { seed })
    }

    /// Whether panic injection is armed. Budget injection is always on
    /// when a chaos seed is set; panics are opt-in via
    /// `HYDE_CHAOS_PANIC=1` so verification drivers (`hyde-lint`) see
    /// degradation without process-level faults, while `hyde-bench
    /// chaos` exercises the `catch_unwind` isolation too.
    pub fn panics_armed() -> bool {
        std::env::var("HYDE_CHAOS_PANIC")
            .map(|v| v == "1")
            .unwrap_or(false)
    }

    /// FNV-1a over the seed and site string.
    fn hash(self, site: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.seed.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for byte in site.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Whether the fault at `site` fires, with probability ~1/`denom`
    /// over sites. Deterministic in `(seed, site)`.
    pub fn trips(self, site: &str, denom: u64) -> bool {
        denom != 0 && self.hash(site).is_multiple_of(denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.check_deadline().is_ok());
        assert!(b.check_candidates(usize::MAX).is_ok());
    }

    #[test]
    fn candidate_cap_trips_and_reports_limit() {
        let b = Budget::unlimited().with_candidates(10);
        assert!(b.check_candidates(10).is_ok());
        let err = b.check_candidates(11).unwrap_err();
        assert_eq!(err.resource, Resource::Candidates);
        assert_eq!(err.limit, 10);
        assert!(!err.injected);
    }

    #[test]
    fn expired_deadline_trips() {
        let b = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::unlimited()
        };
        let err = b.check_deadline().unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
    }

    #[test]
    fn ladder_descends_to_floor() {
        assert_eq!(Rung::Exact.next_down(), Some(Rung::BddThreshold));
        assert_eq!(Rung::BddThreshold.next_down(), Some(Rung::Shannon));
        assert_eq!(Rung::Shannon.next_down(), Some(Rung::DirectCover));
        assert_eq!(Rung::DirectCover.next_down(), None);
    }

    #[test]
    fn chaos_is_deterministic_and_seed_sensitive() {
        let c = Chaos::new(42);
        for site in ["exact:a:F0", "bdd:a:F0", "shannon:b:F3"] {
            assert_eq!(c.trips(site, 4), c.trips(site, 4));
        }
        // Some seed must trip and some must miss any given site.
        let site = "exact:misex1:F0";
        let tripping = (0u64..512).find(|&s| Chaos::new(s).trips(site, 4));
        let missing = (0u64..512).find(|&s| !Chaos::new(s).trips(site, 4));
        assert!(tripping.is_some());
        assert!(missing.is_some());
    }

    #[test]
    fn chaos_env_value_parses_decimal_and_hex() {
        assert_eq!(Chaos::from_env_value("42"), Some(Chaos::new(42)));
        assert_eq!(Chaos::from_env_value(" 0xff "), Some(Chaos::new(255)));
        assert_eq!(Chaos::from_env_value("nope"), None);
        assert_eq!(Chaos::from_env_value(""), None);
    }

    #[test]
    fn degradation_log_roundtrip() {
        // Drain anything other tests may have left behind.
        let _ = drain_degradations();
        record_degradation(DegradationEvent {
            context: "t".into(),
            stage: "F0".into(),
            from: Rung::Exact,
            to: Rung::BddThreshold,
            resource: Resource::Candidates,
            injected: false,
        });
        let text = degradation_log_text();
        assert!(text.contains("degrade t/F0: exact -> bdd-threshold (candidates)"));
        let drained = drain_degradations();
        assert_eq!(drained.len(), 1);
        assert!(drain_degradations().is_empty());
    }

    fn event(context: &str) -> DegradationEvent {
        DegradationEvent {
            context: context.into(),
            stage: "F0".into(),
            from: Rung::Exact,
            to: Rung::BddThreshold,
            resource: Resource::Candidates,
            injected: false,
        }
    }

    #[test]
    fn scoped_capture_diverts_events_from_the_global_log() {
        let _ = drain_degradations();
        let ((), captured) = scoped_degradations(|| {
            record_degradation(event("scoped"));
            record_degradation(event("scoped"));
        });
        assert_eq!(captured.len(), 2);
        assert!(
            !drain_degradations().iter().any(|e| e.context == "scoped"),
            "scoped events must not reach the global log"
        );
    }

    #[test]
    fn scoped_capture_nests_and_survives_panics() {
        let _ = drain_degradations();
        let ((), outer) = scoped_degradations(|| {
            record_degradation(event("outer"));
            let payload = std::panic::catch_unwind(|| {
                let _scope = ScopedDegradations::begin();
                record_degradation(event("inner"));
                panic!("boom");
            });
            assert!(payload.is_err());
            record_degradation(event("outer"));
        });
        // The inner scope's partial capture is discarded by its Drop;
        // the outer scope keeps only its own events.
        assert_eq!(outer.len(), 2);
        assert!(outer.iter().all(|e| e.context == "outer"));
        assert!(!drain_degradations().iter().any(|e| e.context == "inner"));
    }

    #[test]
    fn out_of_budget_displays_injection() {
        let real = OutOfBudget::new(Resource::BddNodes, 100);
        let fake = OutOfBudget::injected(Resource::BddNodes);
        assert!(real.to_string().contains("limit 100"));
        assert!(fake.to_string().contains("chaos-injected"));
    }
}
