//! The supervised mapping service: bounded queue, N worker threads
//! running [`hyde_map::Session`] jobs, a deadline watchdog, and the
//! write-ahead journal.
//!
//! Supervision invariants:
//!
//! * a worker thread never dies: every job runs through the session's
//!   `catch_unwind` (plus a belt-and-braces one around the whole job
//!   block), so panics become typed quarantine records;
//! * every admitted job reaches a terminal state (`done`,
//!   `quarantined`, `cancelled`) or survives in the journal as pending;
//! * the journal record for a state transition is durable (fsynced)
//!   before the transition is observable to clients;
//! * shutdown drains in-flight jobs under a deadline; whatever is
//!   still queued stays journaled for the next start.

use crate::journal::{replay, Journal, JournalEvent, Terminal};
use crate::protocol::JobSpec;
use crate::queue::JobQueue;
use hyde_guard::{AdmissionLimits, DegradationEvent, Rejected, RetryPolicy};
use hyde_map::session::AttemptOutcome;
use hyde_map::{FlowKind, Session};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker thread count.
    pub workers: usize,
    /// LUT size jobs are mapped to.
    pub k: usize,
    /// Retry policy every job runs under.
    pub retry: RetryPolicy,
    /// Admission caps for the job queue.
    pub limits: AdmissionLimits,
    /// Chaos seed arming the deterministic fault layer (flow sites, and
    /// — with `worker_faults` — the kill/stall sites).
    pub chaos: Option<u64>,
    /// Arms the `serve.kill:*`/`serve.stall:*` worker-fault sites.
    pub worker_faults: bool,
}

impl ServeConfig {
    /// Production-shaped defaults: 4 workers, k=5, standard retries and
    /// limits, no chaos.
    pub fn standard() -> Self {
        ServeConfig {
            workers: 4,
            k: 5,
            retry: RetryPolicy::standard(),
            limits: AdmissionLimits::standard(),
            chaos: None,
            worker_faults: false,
        }
    }
}

/// Grace the watchdog grants past a job's deadline before counting an
/// overrun (the in-band budget deadline is what actually terminates the
/// attempt; the watchdog is detection, not enforcement).
const WATCHDOG_GRACE: Duration = Duration::from_millis(250);

/// Client-visible job state.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is on attempt `attempt`.
    Running {
        /// 1-based attempt in flight.
        attempt: u32,
    },
    /// Mapped, verified, terminal.
    Done {
        /// LUT count.
        luts: usize,
        /// Depth in LUT levels.
        depth: usize,
        /// The mapped network.
        blif: String,
        /// Attempts consumed.
        attempts: u32,
        /// Degradation events of the successful attempt.
        degradations: Vec<DegradationEvent>,
    },
    /// Retries exhausted; terminal typed failure.
    Quarantined {
        /// Terminal error text.
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Cancelled while queued; terminal.
    Cancelled,
}

impl JobState {
    /// Stable state token.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done { .. } => "done",
            JobState::Quarantined { .. } => "quarantined",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is terminal.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Quarantined { .. } | JobState::Cancelled
        )
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// A job with this id already exists.
    Duplicate,
    /// Admission control rejected the job (backpressure).
    Rejected(Rejected),
    /// The journal write failed — the job was NOT accepted (no ack
    /// without durability).
    Journal(std::io::Error),
}

struct RunInfo {
    since: Instant,
    deadline_ms: Option<u64>,
    flagged: bool,
}

struct Inner {
    cfg: ServeConfig,
    queue: JobQueue,
    states: Mutex<HashMap<String, JobState>>,
    journal: Mutex<Option<Journal>>,
    running: Mutex<HashMap<String, RunInfo>>,
    submit_lock: Mutex<()>,
    session: Session,
    stop: AtomicBool,
}

/// A running mapping service.
pub struct MapService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    watchdog: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MapService {
    /// Starts the service: opens and replays the journal (if a path is
    /// given), re-enqueues recovered pending jobs, and spawns the
    /// worker pool and watchdog.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O failures.
    pub fn start(cfg: ServeConfig, journal_path: Option<&Path>) -> std::io::Result<MapService> {
        let mut session = Session::new(cfg.k, FlowKind::hyde(0xDA98))
            .with_retry(cfg.retry)
            .with_worker_faults(cfg.worker_faults);
        if let Some(seed) = cfg.chaos {
            session = session.with_chaos(seed);
        }
        let mut states = HashMap::new();
        let queue = JobQueue::new(cfg.limits);
        let mut journal = None;
        if let Some(path) = journal_path {
            let (j, events, _skipped) = Journal::open(path)?;
            let rec = replay(&events);
            for (id, term) in rec.terminal {
                states.insert(id, terminal_state(term));
            }
            for id in rec.cancelled {
                states.insert(id, JobState::Cancelled);
            }
            hyde_obs::counter("serve.recovered", rec.pending.len() as u64);
            for spec in rec.pending {
                states.insert(spec.id.clone(), JobState::Queued);
                queue.requeue(spec);
            }
            journal = Some(j);
        }
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            queue,
            states: Mutex::new(states),
            journal: Mutex::new(journal),
            running: Mutex::new(HashMap::new()),
            submit_lock: Mutex::new(()),
            session,
            stop: AtomicBool::new(false),
        });
        // `workers == 0` is honored: an accept-only service that queues
        // and journals but never runs — tests use it to pin jobs queued.
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hyde-serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }
        let wd_inner = Arc::clone(&inner);
        let watchdog = std::thread::Builder::new()
            .name("hyde-serve-watchdog".to_owned())
            .spawn(move || watchdog_loop(&wd_inner))?;
        Ok(MapService {
            inner,
            workers: Mutex::new(workers),
            watchdog: Mutex::new(Some(watchdog)),
        })
    }

    /// Submits a job: duplicate check, admission check, durable journal
    /// record, then enqueue — in that order, so no accepted job can be
    /// lost and no rejected job can leak into the journal.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] distinguishes duplicates, backpressure and
    /// journal failures.
    pub fn submit(&self, spec: JobSpec) -> Result<(), SubmitError> {
        let _g = self.inner.submit_lock.lock().expect("submit lock");
        {
            let states = self.inner.states.lock().expect("states mutex");
            if states.contains_key(&spec.id) {
                return Err(SubmitError::Duplicate);
            }
        }
        if let Err(r) = self.inner.queue.would_admit(&spec) {
            hyde_obs::counter("serve.rejected", 1);
            return Err(SubmitError::Rejected(r));
        }
        if let Some(j) = self.inner.journal.lock().expect("journal mutex").as_mut() {
            j.append(&JournalEvent::Submitted { spec: spec.clone() })
                .map_err(SubmitError::Journal)?;
        }
        self.inner
            .states
            .lock()
            .expect("states mutex")
            .insert(spec.id.clone(), JobState::Queued);
        self.inner.queue.requeue(spec);
        hyde_obs::counter("serve.submitted", 1);
        Ok(())
    }

    /// The current state of a job, if known.
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.inner
            .states
            .lock()
            .expect("states mutex")
            .get(id)
            .cloned()
    }

    /// Cancels a queued job. `Ok(true)` = cancelled now; `Ok(false)` =
    /// known but not cancellable (running or terminal); `Err(())` =
    /// unknown id.
    #[allow(clippy::result_unit_err)]
    pub fn cancel(&self, id: &str) -> Result<bool, ()> {
        if self.inner.queue.cancel(id) {
            journal_append(&self.inner, &JournalEvent::Cancelled { id: id.to_owned() });
            self.inner
                .states
                .lock()
                .expect("states mutex")
                .insert(id.to_owned(), JobState::Cancelled);
            hyde_obs::counter("serve.cancelled", 1);
            return Ok(true);
        }
        match self.state(id) {
            Some(_) => Ok(false),
            None => Err(()),
        }
    }

    /// Queued job count.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// Jobs currently on a worker.
    pub fn running_count(&self) -> usize {
        self.inner.running.lock().expect("running mutex").len()
    }

    /// Blocks until every id in `ids` is terminal, or `timeout`
    /// elapses. Returns whether all became terminal.
    pub fn wait_terminal(&self, ids: &[String], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let states = self.inner.states.lock().expect("states mutex");
                if ids
                    .iter()
                    .all(|id| states.get(id).is_some_and(JobState::is_terminal))
                {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The service-level `/healthz` body.
    pub fn healthz_json(&self) -> String {
        let (done, quarantined, cancelled) = {
            let states = self.inner.states.lock().expect("states mutex");
            let done = states
                .values()
                .filter(|s| matches!(s, JobState::Done { .. }))
                .count();
            let q = states
                .values()
                .filter(|s| matches!(s, JobState::Quarantined { .. }))
                .count();
            let c = states
                .values()
                .filter(|s| matches!(s, JobState::Cancelled))
                .count();
            (done, q, c)
        };
        format!(
            "{{\"status\": \"ok\", \"workers\": {}, \"queue_depth\": {}, \"running\": {}, \
             \"done\": {done}, \"quarantined\": {quarantined}, \"cancelled\": {cancelled}}}\n",
            self.inner.cfg.workers,
            self.queue_depth(),
            self.running_count()
        )
    }

    /// Graceful shutdown: stop admitting, let workers drain their
    /// in-flight jobs until `drain` elapses, then detach whatever is
    /// left (its journal records keep it recoverable).
    pub fn shutdown(&self, drain: Duration) {
        self.inner.queue.close();
        self.inner.stop.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + drain;
        let mut workers = self.workers.lock().expect("workers mutex");
        while Instant::now() < deadline {
            if workers.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for h in workers.drain(..) {
            // Jobs run under `catch_unwind`, so a worker panic is a
            // supervision bug: report it, shutdown goes on.
            if h.is_finished() && h.join().is_err() {
                eprintln!("hyde-serve: a worker thread panicked outside job supervision");
            }
            // An unfinished worker is mid-job past the drain deadline:
            // detach it; the job's journal records keep it recoverable.
        }
        if let Some(wd) = self.watchdog.lock().expect("watchdog mutex").take() {
            join_watchdog(wd);
        }
    }
}

/// Joins the watchdog thread. It only flags overruns, so a panic there
/// loses no job state: it is reported, not propagated.
fn join_watchdog(wd: std::thread::JoinHandle<()>) {
    if wd.join().is_err() {
        eprintln!("hyde-serve: the watchdog thread panicked");
    }
}

impl Drop for MapService {
    fn drop(&mut self) {
        self.inner.queue.close();
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(wd) = self.watchdog.lock().expect("watchdog mutex").take() {
            join_watchdog(wd);
        }
    }
}

fn terminal_state(term: Terminal) -> JobState {
    match term {
        Terminal::Done {
            luts,
            depth,
            blif,
            attempts,
        } => JobState::Done {
            luts,
            depth,
            blif,
            attempts,
            // Degradation detail does not survive a restart; the counts
            // in the journal's retried events do.
            degradations: Vec::new(),
        },
        Terminal::Quarantined { error, attempts } => JobState::Quarantined { error, attempts },
    }
}

fn watchdog_loop(inner: &Inner) {
    while !inner.stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        let mut running = inner.running.lock().expect("running mutex");
        for info in running.values_mut() {
            if info.flagged {
                continue;
            }
            if let Some(ms) = info.deadline_ms {
                if info.since.elapsed() > Duration::from_millis(ms) + WATCHDOG_GRACE {
                    info.flagged = true;
                    hyde_obs::counter("serve.watchdog.overruns", 1);
                }
            }
        }
    }
}

fn worker_loop(inner: &Inner) {
    while let Some((spec, enqueued)) = inner.queue.pop() {
        // Belt and braces: the session already isolates each attempt,
        // but nothing in this block may kill the worker either.
        let outcome = catch_unwind(AssertUnwindSafe(|| run_one(inner, &spec, enqueued)));
        if outcome.is_err() {
            let mut states = inner.states.lock().expect("states mutex");
            states.insert(
                spec.id.clone(),
                JobState::Quarantined {
                    error: "internal: job runner panicked outside the session".into(),
                    attempts: 0,
                },
            );
            hyde_obs::counter("serve.quarantined", 1);
        }
        inner
            .running
            .lock()
            .expect("running mutex")
            .remove(&spec.id);
    }
}

fn run_one(inner: &Inner, spec: &JobSpec, enqueued: Instant) {
    let _span = hyde_obs::span!("serve.job");
    hyde_obs::observe("serve.queue_wait_us", enqueued.elapsed().as_micros() as u64);
    let t0 = Instant::now();
    inner.running.lock().expect("running mutex").insert(
        spec.id.clone(),
        RunInfo {
            since: t0,
            deadline_ms: spec.budget.deadline_ms,
            flagged: false,
        },
    );
    inner
        .states
        .lock()
        .expect("states mutex")
        .insert(spec.id.clone(), JobState::Running { attempt: 1 });
    journal_append(
        inner,
        &JournalEvent::Started {
            id: spec.id.clone(),
            attempt: 1,
        },
    );
    let job = match spec.resolve() {
        Ok(job) => job,
        Err(e) => {
            // Specs are validated at submit time; hitting this means a
            // hand-edited journal. Quarantine, don't die.
            finish(inner, spec, t0, Err((e.to_string(), 0)));
            return;
        }
    };
    let retry = *inner.session.retry();
    let result = inner.session.run_with(&job, &mut |rec| {
        if !matches!(rec.outcome, AttemptOutcome::Ok) && retry.retries_remaining(rec.attempt) {
            journal_append(
                inner,
                &JournalEvent::Retried {
                    id: spec.id.clone(),
                    attempt: rec.attempt,
                    outcome: rec.outcome.as_str().to_owned(),
                },
            );
            hyde_obs::counter("serve.retries", 1);
            inner.states.lock().expect("states mutex").insert(
                spec.id.clone(),
                JobState::Running {
                    attempt: rec.attempt + 1,
                },
            );
            if let Some(info) = inner
                .running
                .lock()
                .expect("running mutex")
                .get_mut(&spec.id)
            {
                // Restart the watchdog clock for the new attempt.
                info.since = Instant::now();
                info.flagged = false;
            }
        }
    });
    match result {
        Ok(res) => {
            let blif = res.blif();
            finish(
                inner,
                spec,
                t0,
                Ok((
                    res.report.luts,
                    res.report.depth,
                    blif,
                    res.attempts.len() as u32,
                    res.degradations,
                )),
            );
        }
        Err(err) => {
            let attempts = err.attempts.len() as u32;
            finish(inner, spec, t0, Err((err.to_string(), attempts)));
        }
    }
}

type DoneBody = (usize, usize, String, u32, Vec<DegradationEvent>);

fn finish(inner: &Inner, spec: &JobSpec, t0: Instant, outcome: Result<DoneBody, (String, u32)>) {
    let (event, state) = match outcome {
        Ok((luts, depth, blif, attempts, degradations)) => (
            JournalEvent::Completed {
                id: spec.id.clone(),
                outcome: Terminal::Done {
                    luts,
                    depth,
                    blif: blif.clone(),
                    attempts,
                },
            },
            JobState::Done {
                luts,
                depth,
                blif,
                attempts,
                degradations,
            },
        ),
        Err((error, attempts)) => (
            JournalEvent::Completed {
                id: spec.id.clone(),
                outcome: Terminal::Quarantined {
                    error: error.clone(),
                    attempts,
                },
            },
            JobState::Quarantined { error, attempts },
        ),
    };
    // Journal first (durability), then flip the visible state.
    journal_append(inner, &event);
    let quarantined = matches!(state, JobState::Quarantined { .. });
    inner
        .states
        .lock()
        .expect("states mutex")
        .insert(spec.id.clone(), state);
    if quarantined {
        hyde_obs::counter("serve.quarantined", 1);
    } else {
        hyde_obs::counter("serve.completed", 1);
    }
    hyde_obs::observe("serve.job_wall_us", t0.elapsed().as_micros() as u64);
}

/// Appends `ev` to the journal, if the service has one. A failure after
/// admission is dropped durability, not a job failure: the in-memory run
/// proceeds, `serve.journal.errors` counts it and stderr gets one line.
fn journal_append(inner: &Inner, ev: &JournalEvent) {
    if let Some(j) = inner.journal.lock().expect("journal mutex").as_mut() {
        if let Err(e) = j.append(ev) {
            hyde_obs::counter("serve.journal.errors", 1);
            eprintln!(
                "hyde-serve: journal append to {} failed: {e}",
                j.path().display()
            );
        }
    }
}
