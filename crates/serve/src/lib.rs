//! `hyde-serve`: a crash-tolerant mapping service.
//!
//! The daemon the ROADMAP asks for, built on three layers:
//!
//! 1. **Facade** — jobs run through [`hyde_map::Session`], the same
//!    typed Job → JobResult path the CLI drivers use, so the server is
//!    a thin shell over one code path;
//! 2. **Supervision** — a bounded queue with budget-based admission
//!    control ([`queue`]), N workers running every job under
//!    `catch_unwind` with bounded retries, deterministic backoff and
//!    per-retry degradation-ladder stepping, and quarantine for jobs
//!    that exhaust their attempts ([`service`]);
//! 3. **Durability** — a line-JSON write-ahead journal fsynced on
//!    state transitions and replayed on startup ([`journal`]), so
//!    queued and in-flight jobs survive a process kill.
//!
//! The wire protocol is newline-delimited JSON over TCP with an HTTP
//! `/metrics` + `/healthz` subset on the same port ([`protocol`],
//! [`server`]); [`drill`] is the chaos-armed crash-recovery drill
//! behind `cargo xtask serve-drill`.

#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![warn(missing_docs)]

pub mod drill;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use protocol::{JobKind, JobSpec, ProtoError, Request};
pub use server::Server;
pub use service::{JobState, MapService, ServeConfig, SubmitError};
