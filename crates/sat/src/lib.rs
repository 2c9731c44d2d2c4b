//! `hyde-sat`: a small, self-contained CDCL SAT solver plus Tseitin
//! encoders for HYDE networks and BDDs.
//!
//! The crate exists so that the verification layer (`hyde-verify`) has an
//! oracle *independent* of the BDD package that built the decompositions:
//! combinational equivalence and encoding-injectivity proofs go through
//! CNF and conflict-driven search instead of canonical-form comparison.
//!
//! The solver is deliberately classic and compact:
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * first-UIP conflict analysis with recursively minimized learned
//!   clauses,
//! * LBD-ranked deletion of learned clauses at restarts,
//! * VSIDS branching (bump + exponential decay) from a binary max-heap of
//!   variables ordered by activity, the lowest index winning ties,
//! * one flat literal arena for all clauses (a start and length per
//!   clause index) and per-literal truth values,
//! * Luby-sequence restarts,
//! * assumption-based incremental solving with failed-assumption
//!   (UNSAT core) extraction,
//! * conflict/time budgets so every proof is bounded.
//!
//! [`tseitin::Encoder`] turns [`hyde_logic::Network`] nodes (via ISOP
//! covers of `f` and `!f`) and [`hyde_bdd::Bdd`] functions (via per-node
//! ITE clauses) into CNF, hash-consing the gate frontier so repeated
//! subfunctions share literals. [`miter`] builds equivalence miters on
//! top and reports per-proof statistics.

#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![warn(missing_docs)]

pub mod cnf;
pub mod miter;
pub mod solver;
pub mod tseitin;

pub use cnf::Lit;
pub use miter::{cec_network_vs_tables, CecOutcome, CecProof};
pub use solver::{Budget, Outcome, Solver, Stats};
pub use tseitin::Encoder;
