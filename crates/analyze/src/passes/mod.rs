//! The shipped passes, one module per concern.

pub mod budget_flow;
pub mod determinism;
pub mod diag;
pub mod features;
pub mod obs;
pub mod panic_reach;
pub mod panic_surface;
pub mod par_merge;
pub mod suppressions;
