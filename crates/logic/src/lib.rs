//! Boolean function and network substrate for the HYDE reproduction.
//!
//! Functional decomposition manipulates three layers of representation, all
//! provided here:
//!
//! * [`truthtable::TruthTable`] — bit-packed complete truth tables, the
//!   workhorse for decomposition charts (exact up to ~24 variables);
//!   [`truthtable::Isf`] pairs an on-set with a don't-care set for
//!   incompletely specified functions (Section 3.1 of the paper).
//! * [`cube::Cube`] / [`cube::SopCover`] — cube-list (PLA) form with an
//!   irredundant sum-of-products generator, used by the Murgai-style
//!   cube-count encoding baseline and the PLA reader/writer.
//! * [`network::Network`] — a multi-level Boolean network in the SIS mold:
//!   topological traversal, simulation, node collapse, sweeping, cone
//!   extraction and constant propagation. The mapping flows of `hyde-map`
//!   rewrite these networks into k-feasible LUT networks.
//!
//! File I/O: [`pla`] reads/writes espresso-style PLA, [`blif`] a BLIF
//! subset (`.model/.inputs/.outputs/.names`).
//!
//! # Example
//!
//! ```
//! use hyde_logic::TruthTable;
//!
//! let a = TruthTable::var(3, 0);
//! let b = TruthTable::var(3, 1);
//! let c = TruthTable::var(3, 2);
//! let maj = (&(&a & &b) | &(&b & &c)) | (&a & &c);
//! assert_eq!(maj.count_ones(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![warn(missing_docs)]

pub mod blif;
pub mod cube;
pub mod diag;
pub mod network;
pub mod pla;
pub mod sim;
pub mod truthtable;

pub use cube::{Cube, Literal, SopCover};
pub use diag::{Diagnostic, Severity};
pub use network::{Network, NodeId, NodeRole};
pub use truthtable::{Isf, TruthTable};

/// Errors produced by the logic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// Two operands had different variable counts.
    ArityMismatch {
        /// left operand variable count
        left: usize,
        /// right operand variable count
        right: usize,
    },
    /// A variable index was out of range for the function arity.
    VarOutOfRange {
        /// offending variable index
        var: usize,
        /// function arity
        arity: usize,
    },
    /// Parse failure in PLA/BLIF input.
    Parse {
        /// 1-based line number
        line: usize,
        /// description of the problem
        message: String,
    },
    /// A network invariant was violated (dangling reference, cycle, ...).
    Network(String),
}

impl std::fmt::Display for LogicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicError::ArityMismatch { left, right } => {
                write!(f, "arity mismatch: {left} vs {right} variables")
            }
            LogicError::VarOutOfRange { var, arity } => {
                write!(
                    f,
                    "variable {var} out of range for {arity}-variable function"
                )
            }
            LogicError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            LogicError::Network(msg) => write!(f, "network error: {msg}"),
        }
    }
}

impl std::error::Error for LogicError {}
