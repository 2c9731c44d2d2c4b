//! Combinatorial algorithms backing the HYDE encoding engine.
//!
//! The compatible class encoding procedure of the HYDE paper (Jiang, Jou,
//! Huang, DAC 1998) leans on three classic optimization kernels, all of which
//! are implemented here from scratch:
//!
//! * [`blossom::maximum_matching`] — maximum-cardinality matching in general
//!   graphs (Edmonds' blossom algorithm). Used for the row-graph matching of
//!   Step 7 of the encoding procedure and for XC3000 CLB packing.
//! * [`bmatching::max_weight_b_matching`] — exact maximum-weight bipartite
//!   *b*-matching (degree-capacitated), solved as a min-cost max-flow problem
//!   with Johnson potentials. Used for the column-graph matching of Step 5.
//! * [`clique::partition_into_cliques`] — a polynomial-time clique
//!   partitioning heuristic in the style of Tseng–Siewiorek (cited by the
//!   paper via Gajski et al., *High-Level Synthesis*). Used for the
//!   don't-care assignment of Section 3.1.
//!
//! Supporting kernel: [`mcmf::MinCostFlow`] (successive shortest augmenting
//! paths), the flow solver behind the b-matching.
//!
//! # Example
//!
//! ```
//! use hyde_graph::blossom::maximum_matching;
//!
//! // A 4-cycle has a perfect matching of size 2.
//! let matching = maximum_matching(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! assert_eq!(matching.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blossom;
pub mod bmatching;
pub mod clique;
pub mod mcmf;

pub use blossom::maximum_matching;
pub use bmatching::{max_weight_b_matching, BMatchingProblem};
pub use clique::{partition_into_cliques, CliquePartition};
pub use mcmf::MinCostFlow;
