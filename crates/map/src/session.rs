//! Session/Job facade: the one public way to run a mapping, shared by
//! the CLI drivers (`hyde-bench`, `hyde-lint`), the `hyde-serve` daemon,
//! the tests and the examples.
//!
//! A [`Session`] owns the per-worker state a mapping run needs — LUT
//! size and [`FlowKind`], the NPN decomposition cache shared by every job
//! it runs (and by its clones), the chaos layer and a [`RetryPolicy`] —
//! and executes typed [`Job`]s:
//!
//! * each attempt runs under `catch_unwind`, so a panicking worker is
//!   an [`AttemptOutcome::Panicked`] record, never a dead thread;
//! * degradation events are captured per attempt with
//!   [`hyde_guard::ScopedDegradations`], so concurrent sessions do not
//!   interleave the process-global log;
//! * every retry steps the fallback ladder down one rung — a job that
//!   failed at the exact rung re-runs capped — and sleeps the policy's
//!   deterministic backoff;
//! * a job that exhausts its attempts becomes a typed [`JobError`]
//!   carrying the panic payload, per-attempt rung history and the
//!   degradation log (quarantine material, not an abort).
//!
//! Fault injection is armed only through the session, never from the
//! environment: [`Session::with_chaos`] seeds the flow's budget and BDD
//! fault sites, and two opt-ins add process-level faults on top —
//! [`Session::with_worker_faults`] (`serve.kill:*` / `serve.stall:*`,
//! injected *inside* the supervised attempt, for `hyde-serve`) and
//! [`Session::with_panic_faults`] (the flow's `panic:<circuit>` site,
//! for the `hyde-bench chaos` drill).

use crate::flow::{FlowKind, MappingFlow};
use crate::report::MappingReport;
use hyde_core::dcache::DecompCache;
use hyde_core::CoreError;
use hyde_guard::{Budget, Chaos, DegradationEvent, RetryPolicy, Rung};
use hyde_logic::TruthTable;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Serializable description of a [`Budget`]: durations as
/// milliseconds instead of an absolute [`std::time::Instant`], so the
/// spec can cross a journal or a wire and the deadline clock starts
/// when the attempt does, not when the job was submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSpec {
    /// Wall-clock deadline per attempt, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Cap on live BDD nodes per manager.
    pub bdd_nodes: Option<usize>,
    /// Cap on SAT conflicts per encoding call.
    pub sat_conflicts: Option<u64>,
    /// Cap on candidate bound sets examined per output.
    pub candidates: Option<usize>,
}

impl BudgetSpec {
    /// No limits at all.
    pub fn unlimited() -> Self {
        BudgetSpec::default()
    }

    /// Mirrors [`Budget::standard`] (without the deadline, which a
    /// service sets per job class).
    pub fn standard() -> Self {
        let b = Budget::standard();
        BudgetSpec {
            deadline_ms: None,
            bdd_nodes: b.bdd_nodes,
            sat_conflicts: b.sat_conflicts,
            candidates: b.candidates,
        }
    }

    /// Sets the per-attempt deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Materializes the spec into a [`Budget`], starting the deadline
    /// clock *now* — call this at attempt start, not submit time.
    pub fn to_budget(&self) -> Budget {
        let mut b = Budget {
            deadline: None,
            bdd_nodes: self.bdd_nodes,
            sat_conflicts: self.sat_conflicts,
            candidates: self.candidates,
        };
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        b
    }

    /// Node charge for admission control: the BDD cap if set, else
    /// [`hyde_guard::AdmissionLimits::DEFAULT_JOB_NODES`].
    pub fn node_charge(&self) -> u64 {
        self.bdd_nodes
            .map(|n| n as u64)
            .unwrap_or(hyde_guard::AdmissionLimits::DEFAULT_JOB_NODES)
    }
}

/// A typed unit of work: a named multi-output function vector plus the
/// resources it may spend.
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique job id (journal key; also keys chaos fault and jitter
    /// streams, so two jobs with distinct ids fail independently).
    pub id: String,
    /// Circuit name (network name, degradation context).
    pub name: String,
    /// Output functions over one shared input space.
    pub outputs: Vec<TruthTable>,
    /// Per-attempt resource budget.
    pub budget: BudgetSpec,
    /// Topmost ladder rung the first attempt may use.
    pub start_rung: Rung,
}

impl Job {
    /// A job with an unlimited budget whose id doubles as its name.
    pub fn new(id: impl Into<String>, outputs: Vec<TruthTable>) -> Self {
        let id = id.into();
        Job {
            name: id.clone(),
            id,
            outputs,
            budget: BudgetSpec::unlimited(),
            start_rung: Rung::Exact,
        }
    }

    /// Replaces the budget spec.
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }
}

/// What one supervised attempt did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Mapped and verified.
    Ok,
    /// The flow returned a typed error (message preserved).
    Failed(String),
    /// Exhaustion escaped every rung of the fallback ladder.
    Exhausted(hyde_guard::OutOfBudget),
    /// The attempt panicked under `catch_unwind` (payload preserved).
    Panicked(String),
    /// Chaos killed the worker mid-job (a real panic, caught).
    InjectedKill,
    /// Chaos stalled the worker past its deadline (typed overrun).
    InjectedStall,
}

impl AttemptOutcome {
    /// Stable lower-case token for journals and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            AttemptOutcome::Ok => "ok",
            AttemptOutcome::Failed(_) => "failed",
            AttemptOutcome::Exhausted(_) => "exhausted",
            AttemptOutcome::Panicked(_) => "panicked",
            AttemptOutcome::InjectedKill => "injected-kill",
            AttemptOutcome::InjectedStall => "injected-stall",
        }
    }
}

/// One row of a job's attempt history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Ladder rung the attempt started from.
    pub rung: Rung,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// A completed job: the mapping plus everything a caller needs to
/// account for it (degradations, attempt history).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job id this result answers.
    pub id: String,
    /// Circuit name.
    pub name: String,
    /// The mapping produced by the final (successful) attempt.
    pub report: MappingReport,
    /// Degradation events recorded by the successful attempt.
    pub degradations: Vec<DegradationEvent>,
    /// Full attempt history, including failed attempts.
    pub attempts: Vec<AttemptRecord>,
}

impl JobResult {
    /// The mapped network in BLIF form — the byte-identity currency of
    /// the determinism tests.
    pub fn blif(&self) -> String {
        hyde_logic::blif::write(&self.report.network)
    }
}

/// Why a quarantined job's final attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The last attempt panicked; payload preserved.
    Panicked(String),
    /// The last attempt returned a typed mapping error.
    Mapping(String),
    /// The last attempt ran out of budget with no rung left to absorb
    /// it (a [`hyde_guard::OutOfBudget`] that escaped the ladder).
    OutOfBudget(hyde_guard::OutOfBudget),
}

/// A job that exhausted its retry budget: typed quarantine material,
/// with the full rung history — never a dead worker.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Job id.
    pub id: String,
    /// Circuit name.
    pub name: String,
    /// Terminal failure of the final attempt.
    pub kind: JobErrorKind,
    /// Degradation events across all attempts, in order.
    pub degradations: Vec<DegradationEvent>,
    /// Full attempt history (rung each attempt started from).
    pub attempts: Vec<AttemptRecord>,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            JobErrorKind::Panicked(msg) => format!("panicked: {msg}"),
            JobErrorKind::Mapping(msg) => format!("error: {msg}"),
            JobErrorKind::OutOfBudget(ob) => format!("out of budget: {ob}"),
        };
        write!(
            f,
            "job '{}' quarantined after {} attempt(s): {what}",
            self.id,
            self.attempts.len()
        )
    }
}

impl std::error::Error for JobError {}

/// Extracts a printable message from a `catch_unwind` payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker mapping session: flow configuration plus supervised,
/// retrying job execution. Cheap to clone per worker thread; clones
/// share the decomposition cache.
#[derive(Debug, Clone)]
pub struct Session {
    k: usize,
    kind: FlowKind,
    cache: Arc<DecompCache>,
    retry: RetryPolicy,
    /// Chaos seed for the flow's fault sites (`None` injects nothing).
    chaos: Option<u64>,
    /// Arms the `serve.kill:*` / `serve.stall:*` worker-fault sites.
    /// Requires a chaos seed.
    worker_faults: bool,
    /// Arms the flow's `panic:<circuit>` site. Requires a chaos seed.
    panic_faults: bool,
}

/// Denominator for the worker-kill chaos site: roughly one kill per
/// four (job, attempt) pairs under an arming seed.
const KILL_DENOM: u64 = 4;
/// Denominator for the worker-stall chaos site.
const STALL_DENOM: u64 = 4;

impl Session {
    /// A session mapping to `k`-input LUTs with the given flow, one
    /// attempt per job (batch semantics), fresh shared cache, no chaos.
    /// Running a job panics if `k < 3`.
    pub fn new(k: usize, kind: FlowKind) -> Self {
        Session {
            k,
            kind,
            cache: Arc::new(DecompCache::new()),
            retry: RetryPolicy::single_attempt(),
            chaos: None,
            worker_faults: false,
            panic_faults: false,
        }
    }

    /// Replaces the retry policy (a service wants
    /// [`RetryPolicy::standard`]; batch drivers keep the single-attempt
    /// default).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arms the chaos layer with an explicit seed for every flow this
    /// session runs.
    pub fn with_chaos(mut self, seed: u64) -> Self {
        self.chaos = Some(seed);
        self
    }

    /// Arms (or disarms) the worker-kill/worker-stall injection sites.
    /// Only effective together with [`Session::with_chaos`].
    pub fn with_worker_faults(mut self, armed: bool) -> Self {
        self.worker_faults = armed;
        self
    }

    /// Arms (or disarms) the flow's injected-panic site, which trips
    /// for about one circuit in sixteen. Only effective together with
    /// [`Session::with_chaos`]; the panic surfaces as
    /// [`AttemptOutcome::Panicked`].
    pub fn with_panic_faults(mut self, armed: bool) -> Self {
        self.panic_faults = armed;
        self
    }

    /// The retry policy in force.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Runs a job to a terminal state.
    ///
    /// # Errors
    ///
    /// Returns a typed [`JobError`] once every attempt the policy
    /// grants has failed.
    // JobError carries the full attempt history so callers can report
    // it; the error path is rare and never hot, so the size is fine.
    #[allow(clippy::result_large_err)]
    pub fn run(&self, job: &Job) -> Result<JobResult, JobError> {
        self.run_with(job, &mut |_| {})
    }

    /// Runs a job, invoking `observer` after every attempt (the serve
    /// workers journal `Retried` events and bump counters from it).
    ///
    /// # Errors
    ///
    /// Returns a typed [`JobError`] once every attempt the policy
    /// grants has failed.
    #[allow(clippy::result_large_err)]
    pub fn run_with(
        &self,
        job: &Job,
        observer: &mut dyn FnMut(&AttemptRecord),
    ) -> Result<JobResult, JobError> {
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut degradations: Vec<DegradationEvent> = Vec::new();
        let mut rung = job.start_rung;
        for attempt in 1..=self.retry.max_attempts {
            let (outcome, events, report) = self.attempt(job, attempt, rung);
            degradations.extend(events.iter().cloned());
            let record = AttemptRecord {
                attempt,
                rung,
                outcome,
            };
            observer(&record);
            let terminal_ok = matches!(record.outcome, AttemptOutcome::Ok);
            attempts.push(record);
            if terminal_ok {
                let report = report.expect("Ok outcome carries a report");
                return Ok(JobResult {
                    id: job.id.clone(),
                    name: job.name.clone(),
                    report,
                    degradations: events,
                    attempts,
                });
            }
            if self.retry.retries_remaining(attempt) {
                // Each retry re-runs capped one rung below the attempt
                // that failed, per the supervision contract.
                rung = rung.next_down().unwrap_or(Rung::DirectCover);
                let delay = self.retry.backoff(&job.id, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
        let kind = match &attempts.last().expect("at least one attempt").outcome {
            AttemptOutcome::Panicked(msg) => JobErrorKind::Panicked(msg.clone()),
            AttemptOutcome::InjectedKill => {
                JobErrorKind::Panicked("chaos: injected worker kill".into())
            }
            AttemptOutcome::InjectedStall => {
                JobErrorKind::Mapping("injected worker stall: deadline overrun".into())
            }
            AttemptOutcome::Failed(msg) => JobErrorKind::Mapping(msg.clone()),
            AttemptOutcome::Exhausted(ob) => JobErrorKind::OutOfBudget(*ob),
            AttemptOutcome::Ok => unreachable!("Ok is returned above"),
        };
        Err(JobError {
            id: job.id.clone(),
            name: job.name.clone(),
            kind,
            degradations,
            attempts,
        })
    }

    /// One supervised attempt: scoped degradation capture around a
    /// `catch_unwind` around the flow, with the chaos worker faults
    /// injected inside the supervised region.
    fn attempt(
        &self,
        job: &Job,
        attempt: u32,
        rung: Rung,
    ) -> (AttemptOutcome, Vec<DegradationEvent>, Option<MappingReport>) {
        assert!(self.k >= 3, "LUT size must be at least 3");
        let flow = MappingFlow {
            k: self.k,
            kind: &self.kind,
            budget: job.budget.to_budget(),
            start_rung: rung,
            chaos: self.chaos.map(Chaos::new),
            panic_faults: self.panic_faults,
            cache: &self.cache,
        };
        let faults = match (self.worker_faults, self.chaos) {
            (true, Some(seed)) => Some(Chaos::new(seed)),
            _ => None,
        };
        // Fault sites are keyed by (job id, attempt): a retried job
        // rolls a fresh — but still deterministic — fault schedule, so
        // injected kills do not pin a job in quarantine forever.
        let kill = faults
            .is_some_and(|c| c.trips(&format!("serve.kill:{}:{attempt}", job.id), KILL_DENOM));
        let stall = faults
            .is_some_and(|c| c.trips(&format!("serve.stall:{}:{attempt}", job.id), STALL_DENOM));
        let (caught, events) = hyde_guard::scoped_degradations(|| {
            catch_unwind(AssertUnwindSafe(|| {
                if kill {
                    panic!(
                        "chaos: injected worker kill for job '{}' attempt {attempt}",
                        job.id
                    );
                }
                if stall {
                    // A stall is what the deadline watchdog would turn a
                    // hung worker into: a typed overrun, not a hang.
                    return Err(CoreError::OutOfBudget(hyde_guard::OutOfBudget::injected(
                        hyde_guard::Resource::Deadline,
                    )));
                }
                flow.map_outputs(&job.name, &job.outputs)
            }))
        });
        match caught {
            Ok(Ok(report)) => (AttemptOutcome::Ok, events, Some(report)),
            Ok(Err(CoreError::OutOfBudget(ob))) if ob.injected && stall => {
                (AttemptOutcome::InjectedStall, events, None)
            }
            Ok(Err(CoreError::OutOfBudget(ob))) => (AttemptOutcome::Exhausted(ob), events, None),
            Ok(Err(e)) => (AttemptOutcome::Failed(e.to_string()), events, None),
            Err(_payload) if kill => (AttemptOutcome::InjectedKill, events, None),
            Err(payload) => (
                AttemptOutcome::Panicked(panic_message(payload)),
                events,
                None,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_job(id: &str) -> Job {
        let f = TruthTable::from_fn(5, |m| m.count_ones() % 2 == 1);
        let g = TruthTable::from_fn(5, |m| m.count_ones() >= 3);
        Job::new(id, vec![f, g])
    }

    /// A seed whose kill site trips on attempt 1 for `id` but not on
    /// every later attempt (so the retry can land).
    fn kill_seed(id: &str, max_attempts: u32) -> u64 {
        (0..10_000u64)
            .find(|&s| {
                let c = Chaos::new(s);
                c.trips(&format!("serve.kill:{id}:1"), KILL_DENOM)
                    && (2..=max_attempts).any(|a| {
                        !c.trips(&format!("serve.kill:{id}:{a}"), KILL_DENOM)
                            && !c.trips(&format!("serve.stall:{id}:{a}"), STALL_DENOM)
                    })
            })
            .expect("some seed kills attempt 1 and spares a later attempt")
    }

    #[test]
    fn panic_faults_require_explicit_opt_in() {
        let job = xor_job("boom");
        let seed = (0..10_000u64)
            .find(|&s| Chaos::new(s).trips("panic:boom", 16))
            .unwrap();
        let session = Session::new(5, FlowKind::hyde(0xDA98)).with_chaos(seed);
        assert!(session.run(&job).is_ok(), "chaos alone injects no panic");
        let err = session
            .with_panic_faults(true)
            .run(&job)
            .expect_err("the armed panic site trips");
        assert!(matches!(err.kind, JobErrorKind::Panicked(_)), "{err}");
    }

    #[test]
    fn injected_kill_is_retried_and_recovers() {
        let job = xor_job("kill-me");
        let seed = kill_seed("kill-me", 3);
        let session = Session::new(5, FlowKind::hyde(0xDA98))
            .with_retry(RetryPolicy::standard().with_base_delay(Duration::ZERO))
            .with_chaos(seed)
            .with_worker_faults(true);
        let result = session.run(&job).expect("retry recovers the job");
        assert!(result.attempts.len() >= 2, "{:?}", result.attempts);
        assert_eq!(result.attempts[0].outcome, AttemptOutcome::InjectedKill);
        assert_eq!(result.attempts[0].rung, Rung::Exact);
        // Every retry re-runs one rung lower than the attempt before.
        for pair in result.attempts.windows(2) {
            assert_eq!(pair[1].rung, pair[0].rung.next_down().unwrap());
        }
        assert!(result.report.network.is_k_feasible(5));
    }

    #[test]
    fn exhausted_attempts_become_typed_quarantine() {
        let job = xor_job("doomed");
        let seed = (0..10_000u64)
            .find(|&s| Chaos::new(s).trips("serve.kill:doomed:1", KILL_DENOM))
            .unwrap();
        let session = Session::new(5, FlowKind::hyde(0xDA98))
            .with_retry(RetryPolicy::single_attempt())
            .with_chaos(seed)
            .with_worker_faults(true);
        let err = session.run(&job).expect_err("one killed attempt, no retry");
        assert!(matches!(err.kind, JobErrorKind::Panicked(_)));
        assert_eq!(err.attempts.len(), 1);
        assert_eq!(err.attempts[0].outcome, AttemptOutcome::InjectedKill);
    }

    #[test]
    fn worker_faults_require_explicit_opt_in() {
        let job = xor_job("kill-me");
        let seed = kill_seed("kill-me", 3);
        // Same arming seed, but no with_worker_faults: first attempt
        // must succeed (flow-level chaos sites may degrade, not kill).
        let session = Session::new(5, FlowKind::hyde(0xDA98)).with_chaos(seed);
        let result = session.run(&job).expect("maps");
        assert_eq!(result.attempts.len(), 1);
    }

    #[test]
    fn degradations_stay_out_of_the_global_log() {
        // The 3-bit adder at k=4 needs real decomposition, and a
        // candidate cap of 0 rejects any bound-set fan-out (same shape
        // as the flow's own ladder tests).
        let outputs: Vec<TruthTable> = (0..=3usize)
            .map(|o| {
                TruthTable::from_fn(6, |m| {
                    let (a, b) = (m & 0b111, m >> 3);
                    ((a + b) >> o) & 1 == 1
                })
            })
            .collect();
        let job = Job::new("budgeted", outputs).with_budget(BudgetSpec {
            candidates: Some(0),
            ..BudgetSpec::unlimited()
        });
        let session = Session::new(
            4,
            FlowKind::PerOutput {
                encoder: hyde_core::encoding::EncoderKind::Lexicographic,
            },
        );
        let result = session.run(&job).expect("maps with degradation");
        assert!(
            !result.degradations.is_empty(),
            "candidate cap of 1 must trip the ladder"
        );
        // Peek (don't drain — other tests own their global-log slices):
        // nothing from this job may have leaked past the scoped capture.
        assert!(
            !hyde_guard::degradation_log_text().contains("budgeted"),
            "scoped capture must divert events from the global log"
        );
    }
}
