//! `hyde-verify`: the unified lint/diagnostics subsystem.
//!
//! The HYDE reproduction manipulates four kinds of artifacts — LUT
//! [`hyde_logic::Network`]s, compatible-class
//! [`hyde_core::encoding::CodeAssignment`]s, decomposed hyper-functions
//! and [`hyde_bdd::Bdd`] managers — each with invariants that are
//! easy to violate and expensive to debug after the fact. This crate
//! checks those invariants on an [`Artifact`] and reports violations as
//! structured [`Diagnostic`]s with stable `HYxxx` codes (see [`Code`] for
//! the full table). There are two entry points:
//!
//! * [`Artifact::lint`] runs the structural checks for the artifact's
//!   variant;
//! * [`deep::Deep::check`] runs the `HY4xx` proofs and keeps their
//!   [`deep::ProofRecord`]s until [`deep::Deep::take_proofs`].
//!
//! The checks by family:
//!
//! * [`artifact`] — the [`Artifact`] input enum and [`Artifact::lint`].
//! * [`network`] — `HY0xx`: combinational cycles, fanin bounds, dangling
//!   nodes, vacuous support, specification mismatches.
//! * [`encoding`] — `HY1xx`: non-injective codes, pliable widths,
//!   don't-care assignments merging incompatible columns, recomposition.
//! * [`hyper`] — `HY2xx`: pseudo-input leaks, duplication-cone
//!   bookkeeping, ingredient recovery.
//! * [`bdd`] — `HY3xx`: ROBDD ordering/reduction and unique-table audits.
//! * [`guard`] — `HY5xx`: graceful-degradation reports from the budgeted
//!   mapping ladder, including chaos-injected faults.
//! * [`deep`] — `HY4xx`: SAT/BDD-backed semantic *proofs* — combinational
//!   equivalence, encoding injectivity, collapse/recovery correctness and
//!   stuck-at sweeps — opt-in through [`deep::Deep`] and
//!   `hyde-lint --deep`.
//!
//! The `hyde-lint` binary runs both on BLIF/PLA files and on the bundled
//! circuit suite.
//!
//! # Example
//!
//! ```
//! use hyde_logic::TruthTable;
//! use hyde_verify::deep::{Deep, DeepConfig};
//! use hyde_verify::Artifact;
//!
//! let mut net = hyde_logic::Network::new("demo");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let and = TruthTable::var(2, 0) & TruthTable::var(2, 1);
//! let g = net.add_node("g", vec![a, b], and.clone()).unwrap();
//! net.mark_output("g", g);
//!
//! let spec = [and];
//! let artifact = Artifact::Network {
//!     net: &net,
//!     k: Some(5),
//!     spec: Some(&spec),
//! };
//! assert!(artifact.lint().is_empty());
//!
//! let mut deep = Deep::new(DeepConfig::default());
//! assert!(deep.check(&artifact).is_empty());
//! let proofs = deep.take_proofs();
//! assert!(proofs.iter().all(|p| p.verdict == "proved"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bdd;
pub mod deep;
pub mod encoding;
pub mod guard;
pub mod hyper;
pub mod network;

pub use artifact::Artifact;
pub use hyde_logic::diag::{any_deny, Code, Diagnostic, Location, Severity};
