//! The crash-recovery drill (`cargo xtask serve-drill`).
//!
//! [`run_supervised_drill`] is the in-process half: submit a circuit
//! suite to a chaos-armed service (worker kills and stalls injected
//! mid-job), require every job to reach a terminal state with zero
//! process aborts, and check successful outputs byte-identical to the
//! offline [`Session`] path. The `hyde-serve --drill` binary adds the
//! out-of-process half: `SIGKILL` a serving child mid-run, restart it
//! on the same journal, and require the replay to finish the rest.
//!
//! Results are written as `CHAOS_serve_<name>.json` in the same
//! `hyde-chaos-v1` schema the bench chaos drill uses, with quarantined
//! jobs mapped to `panicked` status — `totals.failed` stays reserved
//! for typed mapping defects, which fail validation.

use crate::protocol::{JobKind, JobSpec};
use crate::service::{JobState, MapService, ServeConfig};
use hyde_bench::chaos::{ChaosRun, ChaosSample, ChaosStatus};
use hyde_circuits::Circuit;
use hyde_guard::RetryPolicy;
use hyde_map::session::BudgetSpec;
use hyde_map::{FlowKind, Session};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Retry base delay used by drills: short enough to keep three seeds
/// fast, long enough to exercise the backoff path.
const DRILL_BASE_DELAY: Duration = Duration::from_millis(5);

/// The drill's service/session configuration for `seed` — shared by
/// the in-process drill, the drill daemon, and the offline comparison
/// path, so all three run the identical supervision schedule.
pub fn drill_config(seed: u64, workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        chaos: Some(seed),
        worker_faults: true,
        retry: RetryPolicy::standard().with_base_delay(DRILL_BASE_DELAY),
        ..ServeConfig::standard()
    }
}

/// The offline session equivalent of [`drill_config`] — the reference
/// the service outputs must byte-match.
pub fn offline_session(seed: u64) -> Session {
    let cfg = drill_config(seed, 1);
    Session::new(cfg.k, FlowKind::hyde(0xDA98))
        .with_retry(cfg.retry)
        .with_chaos(seed)
        .with_worker_faults(true)
}

/// Outcome of the in-process supervised drill.
#[derive(Debug)]
pub struct DrillSummary {
    /// Chaos-schema run record (one sample per circuit).
    pub run: ChaosRun,
    /// Jobs that mapped successfully.
    pub ok: usize,
    /// Jobs quarantined after exhausting retries.
    pub quarantined: usize,
    /// Jobs that hit a typed mapping defect (must be zero).
    pub failed: usize,
    /// Total retries the service took.
    pub retries: u64,
    /// Circuits whose service output differed from the offline session
    /// path (must be empty).
    pub mismatches: Vec<String>,
}

/// Runs the supervised in-process drill over `circuits`.
///
/// # Errors
///
/// Returns a description of the first violated invariant: a job stuck
/// non-terminal, a fate or byte mismatch against the offline path.
pub fn run_supervised_drill(
    seed: u64,
    circuits: &[Circuit],
    workers: usize,
    journal: Option<&Path>,
    timeout: Duration,
) -> Result<DrillSummary, String> {
    let service =
        MapService::start(drill_config(seed, workers), journal).map_err(|e| e.to_string())?;
    let ids: Vec<String> = circuits.iter().map(|c| c.name.clone()).collect();
    for c in circuits {
        service
            .submit(suite_spec(&c.name))
            .map_err(|e| format!("submit {}: {e:?}", c.name))?;
    }
    if !service.wait_terminal(&ids, timeout) {
        return Err(format!(
            "jobs not terminal after {}s (queue={}, running={})",
            timeout.as_secs(),
            service.queue_depth(),
            service.running_count()
        ));
    }
    let offline = offline_session(seed);
    let mut samples = Vec::with_capacity(circuits.len());
    let mut ok = 0usize;
    let mut quarantined = 0usize;
    let mut failed = 0usize;
    let mut retries = 0u64;
    let mut mismatches = Vec::new();
    for c in circuits {
        let state = service
            .state(&c.name)
            .ok_or_else(|| format!("{}: state lost", c.name))?;
        let reference = offline.run(&offline_job(c));
        let (status, degradations) = match state {
            JobState::Done {
                luts,
                blif,
                attempts,
                degradations,
                ..
            } => {
                ok += 1;
                retries += u64::from(attempts.saturating_sub(1));
                match &reference {
                    Ok(r) if r.blif() == blif => {}
                    Ok(_) => mismatches.push(format!("{}: blif differs from offline", c.name)),
                    Err(_) => mismatches.push(format!("{}: offline quarantined, serve ok", c.name)),
                }
                (ChaosStatus::Ok { luts }, degradations)
            }
            JobState::Quarantined {
                error, attempts, ..
            } => {
                quarantined += 1;
                retries += u64::from(attempts.saturating_sub(1));
                let degradations = match &reference {
                    Err(e) => e.degradations.clone(),
                    Ok(_) => {
                        mismatches.push(format!("{}: offline ok, serve quarantined", c.name));
                        Vec::new()
                    }
                };
                (ChaosStatus::Panicked { message: error }, degradations)
            }
            other => {
                failed += 1;
                (
                    ChaosStatus::Failed {
                        error: format!("non-terminal state {}", other.as_str()),
                    },
                    Vec::new(),
                )
            }
        };
        samples.push(ChaosSample {
            name: c.name.clone(),
            status,
            degradations,
        });
    }
    service.shutdown(Duration::from_secs(5));
    let run = ChaosRun {
        name: format!("serve_s{seed}"),
        seed,
        k: 5,
        samples,
    };
    let summary = DrillSummary {
        run,
        ok,
        quarantined,
        failed,
        retries,
        mismatches,
    };
    if summary.failed > 0 {
        return Err(format!("{} job(s) ended non-terminal", summary.failed));
    }
    if !summary.mismatches.is_empty() {
        return Err(format!("determinism broken: {:?}", summary.mismatches));
    }
    Ok(summary)
}

/// A suite-kind spec for one circuit (id = circuit name).
pub fn suite_spec(circuit: &str) -> JobSpec {
    JobSpec {
        id: circuit.to_owned(),
        name: circuit.to_owned(),
        kind: JobKind::Suite {
            circuit: circuit.to_owned(),
        },
        budget: BudgetSpec::unlimited(),
    }
}

/// The offline job equivalent of [`suite_spec`].
pub fn offline_job(c: &Circuit) -> hyde_map::Job {
    hyde_map::Job::new(&c.name, c.outputs.clone())
}

/// One request/response exchange over a fresh TCP connection — the
/// drill's (deliberately stateless) protocol client.
///
/// # Errors
///
/// Returns connect/read/write failures as strings.
pub fn tcp_request(addr: &str, line: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    Ok(response)
}
