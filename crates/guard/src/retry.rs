//! Retry/backoff and admission-control vocabulary for supervised job
//! execution (`hyde-serve`, `hyde_map::Session`).
//!
//! Both types are plain data with deterministic behaviour:
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   *deterministic* jitter. The jitter is drawn from the workspace's
//!   seeded `rand` shim, keyed by `(jitter_seed, job id, attempt)`, so
//!   a retried job sleeps the same amount on every run, platform and
//!   worker count — retries are reproducible the same way chaos faults
//!   are.
//! * [`AdmissionLimits`] — queue-depth and aggregate-node-budget caps
//!   that turn overload into a typed [`Rejected`] (with a
//!   `retry_after` hint) instead of unbounded memory growth.

use rand::{Rng as _, SeedableRng as _};
use std::fmt;
use std::time::Duration;

/// Bounded-attempt retry schedule with exponential backoff and
/// deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts a job gets (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Cap on any single backoff (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Service defaults: 3 attempts, 25 ms base, 1 s cap.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            jitter_seed: 0xDA98,
        }
    }

    /// A single attempt, no retries, no backoff — batch-driver
    /// semantics (`hyde-bench`, `hyde-lint`), where one failure is one
    /// typed error.
    pub fn single_attempt() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Replaces the base backoff delay.
    pub fn with_base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    /// Backoff to sleep after failed attempt `attempt` (1-based) of the
    /// job identified by `job`. Exponential in the attempt number,
    /// capped at `max_delay`, plus jitter in `[0, backoff/2]` drawn
    /// from a generator seeded by `(jitter_seed, job, attempt)` — fully
    /// deterministic, so two runs of the same job schedule identically.
    pub fn backoff(&self, job: &str, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self
            .base_delay
            .saturating_mul(1u32 << doublings)
            .min(self.max_delay);
        let half_us = (exp.as_micros() as u64) / 2;
        if half_us == 0 {
            return exp;
        }
        // FNV-1a over (seed, job, attempt) keys the jitter stream: the
        // same (policy, job, attempt) always sleeps the same amount.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self
            .jitter_seed
            .to_le_bytes()
            .iter()
            .chain(job.as_bytes())
            .chain(&attempt.to_le_bytes())
        {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(h);
        exp + Duration::from_micros(rng.gen_range(0..=half_us))
    }

    /// Whether a failed `attempt` (1-based) has a retry left.
    pub fn retries_remaining(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }
}

/// Why an admission check rejected a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at its depth cap.
    QueueFull,
    /// Admitting the job would push the aggregate BDD-node budget of
    /// queued work past the cap.
    BudgetSaturated,
    /// The service is draining for shutdown.
    ShuttingDown,
}

impl RejectReason {
    /// Stable lower-case token used in logs and protocol responses.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::BudgetSaturated => "budget-saturated",
            RejectReason::ShuttingDown => "shutting-down",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed admission rejection: backpressure, not failure. The caller is
/// expected to resubmit after `retry_after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Why the job was not admitted.
    pub reason: RejectReason,
    /// Suggested resubmission delay.
    pub retry_after: Duration,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rejected: {} (retry after {} ms)",
            self.reason,
            self.retry_after.as_millis()
        )
    }
}

impl std::error::Error for Rejected {}

/// Admission-control caps for a bounded job queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Maximum queued (not yet running) jobs.
    pub max_depth: usize,
    /// Maximum aggregate BDD-node budget across queued jobs. Jobs with
    /// no node cap are charged [`AdmissionLimits::DEFAULT_JOB_NODES`].
    pub max_pending_nodes: u64,
}

impl AdmissionLimits {
    /// Node charge for a job whose budget carries no explicit cap.
    pub const DEFAULT_JOB_NODES: u64 = 1 << 22;

    /// Service defaults: 256 queued jobs, 1 G aggregate nodes.
    pub fn standard() -> Self {
        AdmissionLimits {
            max_depth: 256,
            max_pending_nodes: 1 << 30,
        }
    }

    /// Checks whether a job charging `job_nodes` may join a queue that
    /// currently holds `depth` jobs totalling `pending_nodes`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`Rejected`] (with a depth-scaled `retry_after`
    /// hint) when either cap would be exceeded.
    pub fn admit(&self, depth: usize, pending_nodes: u64, job_nodes: u64) -> Result<(), Rejected> {
        let retry_after = Duration::from_millis(25 * (1 + depth as u64 / 8).min(40));
        if depth >= self.max_depth {
            return Err(Rejected {
                reason: RejectReason::QueueFull,
                retry_after,
            });
        }
        if pending_nodes.saturating_add(job_nodes) > self.max_pending_nodes {
            return Err(Rejected {
                reason: RejectReason::BudgetSaturated,
                retry_after,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy::standard();
        let a1 = p.backoff("job-1", 1);
        let a2 = p.backoff("job-1", 2);
        assert_eq!(a1, p.backoff("job-1", 1), "same key, same delay");
        assert_ne!(
            p.backoff("job-1", 1),
            p.backoff("job-2", 1),
            "jitter must vary across jobs"
        );
        // Envelope: base*2^(n-1) <= delay <= 1.5 * base*2^(n-1).
        assert!(a1 >= p.base_delay && a1 <= p.base_delay * 3 / 2, "{a1:?}");
        assert!(a2 >= p.base_delay * 2 && a2 <= p.base_delay * 3, "{a2:?}");
    }

    #[test]
    fn backoff_caps_at_max_delay_envelope() {
        let p = RetryPolicy::standard();
        let late = p.backoff("j", 30);
        assert!(late <= p.max_delay * 3 / 2, "{late:?}");
    }

    #[test]
    fn single_attempt_never_retries_and_never_sleeps() {
        let p = RetryPolicy::single_attempt();
        assert!(!p.retries_remaining(1));
        assert_eq!(p.backoff("j", 1), Duration::ZERO);
    }

    #[test]
    fn admission_rejects_on_depth_and_nodes() {
        let lim = AdmissionLimits {
            max_depth: 2,
            max_pending_nodes: 100,
        };
        assert!(lim.admit(0, 0, 50).is_ok());
        assert!(lim.admit(1, 50, 50).is_ok());
        let full = lim.admit(2, 0, 1).unwrap_err();
        assert_eq!(full.reason, RejectReason::QueueFull);
        assert!(full.retry_after > Duration::ZERO);
        let saturated = lim.admit(1, 60, 50).unwrap_err();
        assert_eq!(saturated.reason, RejectReason::BudgetSaturated);
    }
}
