//! hyde-sa: workspace static analysis for the HYDE codebase.
//!
//! A dependency-light analyzer built the same way the rest of the
//! workspace is built: a small hand-rolled lexer ([`lexer`]), a
//! recursive-descent parser ([`parse`]) producing an item-level AST
//! ([`ast`]), a workspace symbol table with over-approximating call
//! resolution ([`resolve`]), a cross-crate call graph with
//! reachability queries ([`callgraph`]), and a [`registry::Pass`]
//! registry over the workspace's source files. It enforces the
//! invariants the test suite cannot see from outputs alone:
//!
//! | pass | codes | invariant |
//! |------|-------|-----------|
//! | determinism | SA001, SA002 | no order-sensitive `HashMap`/`HashSet` iteration, no wall-clock/thread/env reads in result-affecting crates |
//! | panic-surface | SA003 | per-file ratcheted panic surface across the whole workspace |
//! | obs-coverage | SA005, SA006 | span/counter literals match the documented taxonomy |
//! | diag-registry | SA007 | `HY`/`SA` codes declared once, documented, and exercised |
//! | feature-hygiene | SA008 | `obs-rt`/`strict-checks` forwarding chains stay correct |
//! | panic-reach | SA009 | public fns that can transitively panic are ratcheted, with call-path evidence |
//! | budget-flow | SA010 | budgets flow from `Budget`-accepting entry points into every reachable BDD/SAT constructor |
//! | par-merge | SA011 | `map_chunked` worker closures stay pure: no shared mutable state, unordered merge collections, or float accumulation |
//! | suppressions | SA013 | `sa:allow` directives that suppress nothing are warned stale |
//!
//! Swallowed `Result`s in the result-affecting crates are not a pass:
//! each of their roots denies `clippy::let_underscore_must_use` and
//! `clippy::unused_result_ok`, so `cargo xtask clippy` catches them.
//!
//! Violations are suppressed site-by-site with
//! `// sa:allow(SAxxx): reason` directives (a non-empty justification is
//! mandatory; `//!` makes the directive file-scoped), or — for the
//! ratcheted passes — capped by committed ratchet files under
//! `crates/analyze/ratchets/` (per-file counts for SA003, a fn-id set
//! for SA009). Run it as the `hyde-sa` binary (`cargo xtask analyze`
//! runs the same binary and writes `ANALYZE.json`); it exits nonzero
//! when deny findings survive (SA013 is warn-level).
//!
//! hyde-sa is self-hosting: the analyzer's own sources are part of the
//! analyzed workspace and must come out clean. Token-level matching is
//! what makes that possible — the pattern strings this crate is full of
//! never lex as code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod error;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod ratchet;
pub mod registry;
pub mod report;
pub mod resolve;
pub mod source;
pub mod workspace;

pub mod passes;

use std::path::Path;

use error::SaError;
use registry::Registry;
use report::Report;
use workspace::Workspace;

/// Reads the workspace at `root` and runs the default pass registry.
///
/// # Errors
///
/// Fails with [`SaError::Io`] when the workspace cannot be read.
pub fn analyze_root(root: &Path) -> Result<Report, SaError> {
    let ws = Workspace::from_root(root)?;
    Ok(Registry::with_defaults().run(&ws))
}

/// Regenerates the committed ratchet files from the current workspace
/// state and returns the workspace-relative paths written.
///
/// # Errors
///
/// Fails with [`SaError::Io`] when the workspace cannot be read or a
/// ratchet file cannot be written.
pub fn update_ratchets(root: &Path) -> Result<Vec<String>, SaError> {
    let ws = Workspace::from_root(root)?;
    let dir = root.join(workspace::RATCHET_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| SaError::Io(format!("{}: {e}", dir.display())))?;
    let mut written = Vec::new();
    let targets = [
        (
            passes::panic_surface::RATCHET_FILE,
            passes::panic_surface::render_ratchet(&ws),
        ),
        (
            passes::panic_reach::RATCHET_FILE,
            passes::panic_reach::render_ratchet(&ws),
        ),
    ];
    for (name, content) in targets {
        let path = dir.join(name);
        std::fs::write(&path, content)
            .map_err(|e| SaError::Io(format!("{}: {e}", path.display())))?;
        written.push(format!("{}/{name}", workspace::RATCHET_DIR));
    }
    Ok(written)
}
