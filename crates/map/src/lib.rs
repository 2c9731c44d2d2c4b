//! Technology mapping flows for LUT FPGAs, reproducing the HYDE evaluation.
//!
//! The paper maps MCNC benchmarks to (a) Xilinx XC3000 CLBs (Table 1) and
//! (b) plain 5-input LUTs (Table 2), comparing the HYDE flow against
//! IMODEC-like and FGSyn-like baselines. This crate provides:
//!
//! * [`session::Session`] — the one way to run a mapping: a [`Job`]
//!   (named output functions plus a budget) mapped under a [`FlowKind`]
//!   with panic isolation, retries and degradation capture;
//! * [`flow::FlowKind`] — the end-to-end flows: per-output
//!   decomposition, per-output with structural sharing, FGSyn-style column
//!   encoding (shared α functions via multi-output charts), and the full
//!   HYDE hyper-function flow;
//! * [`cluster`] — support-overlap output clustering for hyper-functions;
//! * [`xc3000`] — CLB packing (two ≤4-input functions per CLB under a
//!   5-distinct-input budget) solved with maximum matching;
//! * [`report::MappingReport`] — LUT/CLB/depth/time accounting.
//!
//! # Example
//!
//! ```
//! use hyde_map::{FlowKind, Job, Session};
//! use hyde_logic::TruthTable;
//!
//! // Map a 2-output adder slice to 5-LUTs with the HYDE flow.
//! let sum = TruthTable::from_fn(5, |m| m.count_ones() % 2 == 1);
//! let carry = TruthTable::from_fn(5, |m| m.count_ones() >= 3);
//! let session = Session::new(5, FlowKind::hyde(42));
//! let result = session.run(&Job::new("adder", vec![sum, carry])).unwrap();
//! assert!(result.report.network.is_k_feasible(5));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![warn(missing_docs)]

pub mod cluster;
pub mod cover;
pub mod flow;
pub mod report;
pub mod session;
pub mod xc3000;

pub use cluster::cluster_outputs;
pub use cover::compact;
pub use flow::FlowKind;
pub use report::MappingReport;
pub use session::{Job, JobError, JobResult, Session};
pub use xc3000::pack_clbs;
