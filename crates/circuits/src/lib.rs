//! The benchmark circuit suite for the HYDE evaluation.
//!
//! The paper evaluates on MCNC benchmarks; the original `.pla`/`.blif`
//! files are not redistributed here, so this crate rebuilds the suite
//! constructively (see `DESIGN.md` for the substitution policy):
//!
//! * circuits whose functional specification is public are implemented
//!   exactly ([`sym9`], [`rd73`], [`rd84`], parity);
//! * arithmetic-flavoured benchmarks get faithful same-flavour
//!   replacements at a tractable input count (ALUs for `alu2`/`alu4`,
//!   a 4×4 multiplier for `f51m`, a two-bit adder for `z4ml`, a clipper
//!   for `clip`, a rotator for `rot`, a Hamming corrector for `C499`, an
//!   ALU slice for `C880`, real DES S-boxes for `des`);
//! * the remaining names become seeded synthetic SOP circuits with matched
//!   (or scaled) input/output counts.
//!
//! Every circuit is a vector of truth tables over a shared input space,
//! which is what the `hyde-map` flows consume.
//!
//! # Example
//!
//! ```
//! use hyde_circuits::{sym9, suite};
//!
//! let c = sym9();
//! assert_eq!(c.inputs, 9);
//! assert_eq!(c.outputs.len(), 1);
//! assert!(suite().len() >= 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generators;
mod suite;

pub use generators::*;
pub use suite::{by_name, suite, suite_small, Circuit, Origin};
