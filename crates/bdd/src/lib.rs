//! Hash-consed reduced ordered binary decision diagrams (ROBDDs).
//!
//! The HYDE paper conducts functional decomposition on BDDs following the
//! λ-set selection algorithm of Jiang et al. (ASP-DAC 1997, reference `[2]`):
//! with the bound-set variables ordered on top, the number of *compatible
//! classes* of the decomposition equals the number of distinct subfunctions
//! referenced below the cut line. This crate provides:
//!
//! * [`Bdd`] — a manager with a unique table, an operation cache, the usual
//!   boolean connectives, `ite`, cofactors, composition and quantification;
//! * [`Bdd::cut_subfunctions`] — the cut enumeration that counts compatible
//!   classes without materializing decomposition charts.
//!
//! Node references ([`Ref`]) are plain indices into the manager. Garbage
//! collection runs only at explicit safe points ([`Bdd::gc`],
//! [`Bdd::maybe_gc`]) and never moves a live node, so refs held across a
//! collection stay valid as long as they are passed as roots.
//!
//! # Example
//!
//! ```
//! use hyde_bdd::Bdd;
//!
//! let mut bdd = Bdd::new(3);
//! let a = bdd.var(0);
//! let b = bdd.var(1);
//! let c = bdd.var(2);
//! let ab = bdd.and(a, b);
//! let f = bdd.or(ab, c);
//! assert_eq!(bdd.sat_count(f), 5);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![warn(missing_docs)]

mod manager;

pub use manager::{Bdd, BddStats, Ref};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let na = bdd.not(a);
        let t = bdd.or(a, na);
        assert_eq!(t, bdd.one());
    }
}
