//! Resource governance and resilience for the HYDE pipeline.
//!
//! Roth–Karp decomposition, BDD construction, and the compatible-class
//! encoding search are all worst-case exponential. This crate gives the
//! rest of the workspace a shared vocabulary for bounding that work and
//! for degrading gracefully when a bound is hit:
//!
//! * [`Budget`] — per-run resource limits (wall-clock deadline, BDD node
//!   cap, bound-set candidate cap). A `Budget` is plain
//!   data; each consumer checks the limit it understands and returns a
//!   typed [`OutOfBudget`] instead of growing without bound.
//! * [`Rung`] — the documented fallback ladder. When a rung exhausts its
//!   budget the caller steps **down one rung** rather than aborting:
//!   exact Roth–Karp → BDD-threshold path → Shannon cofactor split →
//!   direct cover. Every step is recorded as a [`DegradationEvent`] and
//!   surfaced through `hyde-obs` counters plus the HY5xx diagnostic
//!   family in `hyde-verify`.
//! * [`Chaos`] — deterministic, seed-driven fault injection, armed by
//!   an explicit seed (`hyde_map::Session::with_chaos`). Injection sites
//!   are keyed by *strings* (circuit and stage names), never by
//!   invocation counters, so the same seed trips the same sites at any
//!   `HYDE_THREADS` value.
//!
//! Degradation events have no global home: [`record_degradation`]
//! appends to the log the caller passes in. `hyde_map`'s mapping flow
//! owns one log per attempt and hands it back with the attempt's result,
//! so concurrent jobs never see each other's events. Events are recorded
//! from sequential flow code, which keeps each log's order deterministic.

pub mod retry;

pub use retry::{AdmissionLimits, RejectReason, Rejected, RetryPolicy};

use std::fmt;
use std::time::{Duration, Instant};

/// The resource that a budget check found exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The BDD manager hit its unique-table node cap (or a simulated
    /// allocation failure was injected).
    BddNodes,
    /// The bound-set candidate search exceeded its candidate cap.
    Candidates,
}

impl Resource {
    /// Stable lower-case token used in logs and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::Deadline => "deadline",
            Resource::BddNodes => "bdd-nodes",
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
    /// Maximum bound-set candidates evaluated per decomposition step.
    pub candidates: Option<usize>,
}

impl Budget {
    /// No limits: every check passes.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Replaces the wall-clock deadline with `now + d`.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Instant::now().checked_add(d);
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

/// Obs counter name for a step down onto `rung`.
fn degrade_counter(rung: Rung) -> &'static str {
    match rung {
        Rung::Exact => "guard.degrade.exact",
        Rung::BddThreshold => "guard.degrade.bdd_threshold",
        Rung::Shannon => "guard.degrade.shannon",
        Rung::DirectCover => "guard.degrade.direct_cover",
    }
}

/// Appends `event` to `log`, the degradation trail of the current
/// attempt, and bumps the per-rung `guard.degrade.*` obs counter (plus
/// `guard.chaos.injected` for an injected exhaustion).
pub fn record_degradation(log: &mut Vec<DegradationEvent>, event: DegradationEvent) {
    hyde_obs::counter(degrade_counter(event.to), 1);
    if event.injected {
        hyde_obs::counter("guard.chaos.injected", 1);
    }
    log.push(event);
}

/// Deterministic seed-driven fault injector.
///
/// A site is a stable string such as `"exact:misex1:F2"`. Whether the
/// site trips depends only on `(seed, site)` via an FNV-1a hash, so
/// injection is reproducible across runs, platforms, and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chaos {
    /// The chaos seed (`hyde-bench chaos <seed>`, `hyde-serve --chaos`,
    /// or `HYDE_CHAOS` for `hyde-lint`).
    pub seed: u64,
}

impl Chaos {
    /// A chaos injector with the given seed.
    pub fn new(seed: u64) -> Self {
        Chaos { seed }
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
    fn degradation_event_displays_its_step() {
        let mut log = Vec::new();
        record_degradation(
            &mut log,
            DegradationEvent {
                context: "t".into(),
                stage: "F0".into(),
                from: Rung::Exact,
                to: Rung::BddThreshold,
                resource: Resource::Candidates,
                injected: false,
            },
        );
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0].to_string(),
            "degrade t/F0: exact -> bdd-threshold (candidates)"
        );
    }

    #[test]
    fn out_of_budget_displays_injection() {
        let real = OutOfBudget::new(Resource::BddNodes, 100);
        let fake = OutOfBudget::injected(Resource::BddNodes);
        assert!(real.to_string().contains("limit 100"));
        assert!(fake.to_string().contains("chaos-injected"));
    }
}
