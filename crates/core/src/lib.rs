//! HYDE core — compatible class encoding and hyper-function decomposition.
//!
//! This crate implements the two contributions of *"Compatible Class
//! Encoding in Hyper-Function Decomposition for FPGA Synthesis"* (Jiang,
//! Jou, Huang, DAC 1998) together with the Roth–Karp decomposition engine
//! they plug into:
//!
//! * [`chart`] / [`classes`] — decomposition charts and compatible classes
//!   (Definition 2.1), including the incompletely specified case;
//! * [`dc_assign`] — don't-care assignment as clique partitioning
//!   (Section 3.1);
//! * [`partition`] — the symbolic partition algebra of Definition 3.1
//!   (conjunction/disjunction partitions, multiplicity, `Psc` analysis,
//!   containment per Definition 4.6);
//! * [`encoding`] — the compatible class encoding procedure of Figure 3
//!   (column sets by maximum-weight b-matching, row sets by matching on the
//!   benefit-weighted row graph) plus the baseline encoders the evaluation
//!   compares against;
//! * [`varpart`] — λ-set selection in the style of reference `[2]`
//!   (class counting on truth-table charts);
//! * [`decompose`] — single decomposition steps and the recursive
//!   decomposition of a function into a k-feasible LUT network;
//! * [`hyper`] — hyper-function construction (Definition 4.1), ingredient
//!   encoding, duplication source/cone analysis (Definitions 4.2–4.5) and
//!   ingredient recovery by pseudo-input collapse;
//! * [`containment`] — Theorems 4.3/4.4 and pliable sharing of
//!   decomposition functions (Example 4.2).
//!
//! # Quickstart
//!
//! ```
//! use hyde_core::chart::DecompositionChart;
//! use hyde_logic::TruthTable;
//!
//! // f = (a & b) | (c & d), bound set {a, b}.
//! let f = (TruthTable::var(4, 0) & TruthTable::var(4, 1))
//!     | (TruthTable::var(4, 2) & TruthTable::var(4, 3));
//! let chart = DecompositionChart::new(&f, &[0, 1]).unwrap();
//! assert_eq!(chart.classes().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![warn(missing_docs)]

pub mod bdd_decompose;
pub mod chart;
pub mod classes;
pub mod containment;
pub mod dc_assign;
pub mod dcache;
pub mod decompose;
pub mod encoding;
pub mod hyper;
pub mod multichart;
pub mod npn;
pub mod parallel;
pub mod partition;
pub mod varpart;

pub use chart::DecompositionChart;
pub use classes::CompatibleClasses;
pub use decompose::{Decomposer, Decomposition};
pub use encoding::{CodeAssignment, EncoderKind};
pub use hyper::HyperFunction;
pub use partition::Partition;
pub use varpart::VariablePartitioner;

/// Errors produced by the decomposition engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A bound-set variable was out of range or repeated.
    InvalidBoundSet(String),
    /// The requested encoding cannot represent the classes (too few bits).
    CodeSpaceTooSmall {
        /// number of compatible classes
        classes: usize,
        /// available code bits
        bits: usize,
    },
    /// An invariant of the decomposition failed verification.
    Verification(String),
    /// Underlying logic error.
    Logic(hyde_logic::LogicError),
    /// A resource budget was exhausted (or chaos-injected). Callers on
    /// the fallback ladder step down one rung on this variant instead of
    /// aborting.
    OutOfBudget(hyde_guard::OutOfBudget),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidBoundSet(msg) => write!(f, "invalid bound set: {msg}"),
            CoreError::CodeSpaceTooSmall { classes, bits } => write!(
                f,
                "{classes} compatible classes do not fit in {bits} code bits"
            ),
            CoreError::Verification(msg) => write!(f, "verification failed: {msg}"),
            CoreError::Logic(e) => write!(f, "{e}"),
            CoreError::OutOfBudget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hyde_logic::LogicError> for CoreError {
    fn from(e: hyde_logic::LogicError) -> Self {
        CoreError::Logic(e)
    }
}

impl From<hyde_guard::OutOfBudget> for CoreError {
    fn from(e: hyde_guard::OutOfBudget) -> Self {
        CoreError::OutOfBudget(e)
    }
}
