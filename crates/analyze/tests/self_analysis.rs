//! Self-hosting gate: the analyzer runs over the real workspace —
//! including its own crate — and must come back clean. This is the same
//! check `cargo xtask analyze` and CI enforce; failing here means a
//! change landed without updating the ratchets, taxonomies or allows.

use hyde_analyze::registry::Registry;
use hyde_analyze::workspace::Workspace;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_analyzes_clean() {
    let ws = Workspace::from_root(&root()).expect("workspace readable");
    assert!(
        ws.files.len() > 100,
        "suspiciously few files ({}) — did workspace discovery break?",
        ws.files.len()
    );
    assert!(ws.design.is_some(), "DESIGN.md must be discovered");
    assert!(
        ws.ratchet(hyde_analyze::passes::panic_surface::RATCHET_FILE)
            .is_some(),
        "SA003 ratchet file must be committed"
    );
    assert!(
        ws.ratchet(hyde_analyze::passes::panic_reach::RATCHET_FILE)
            .is_some(),
        "SA009 ratchet file must be committed"
    );
    let report = Registry::with_defaults().run(&ws);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.clean(),
        "the workspace must analyze clean; findings:\n{}",
        rendered.join("\n")
    );
    // The workspace genuinely relies on allow directives; if this drops
    // to zero the directive parser has silently stopped matching.
    assert!(
        report.allowed() > 0,
        "expected at least one sa:allow suppression in the workspace"
    );
}

#[test]
fn analyze_root_and_json_roundtrip() {
    let report = hyde_analyze::analyze_root(&root()).expect("analysis runs");
    assert!(report.clean());
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"hyde-sa-v2\""));
    assert!(json.contains("\"pass\": \"determinism\""));
    assert!(json.contains("\"pass\": \"feature-hygiene\""));
    assert!(json.contains("\"pass\": \"panic-reach\""));
    assert!(json.contains("\"pass\": \"budget-flow\""));
    assert!(json.contains("\"pass\": \"par-merge\""));
    // The committed report is a valid baseline for itself.
    let baseline = hyde_analyze::baseline::Baseline::parse(&json).expect("self-baseline parses");
    assert!(baseline.new_denies(&report).is_empty());
}

#[test]
fn default_registry_covers_the_documented_codes() {
    let codes = Registry::with_defaults().all_codes();
    for expected in [
        "SA001", "SA002", "SA003", "SA005", "SA006", "SA007", "SA008", "SA009", "SA010", "SA011",
        "SA012", "SA013",
    ] {
        assert!(codes.contains(&expected), "missing {expected}");
    }
    assert_eq!(Registry::with_defaults().pass_list().len(), 10);
}

/// Satellite 1's acceptance test: lexing/parsing through `map_chunked`
/// must merge in input order, so the rendered report — JSON included —
/// is byte-identical for any worker count.
#[test]
fn single_and_multi_threaded_analysis_are_byte_identical() {
    let ws1 = Workspace::from_root_with_threads(&root(), 1).expect("1-thread workspace");
    let ws8 = Workspace::from_root_with_threads(&root(), 8).expect("8-thread workspace");
    let paths1: Vec<&str> = ws1.files.iter().map(|f| f.path.as_str()).collect();
    let paths8: Vec<&str> = ws8.files.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(paths1, paths8, "file order must not depend on threads");
    let json1 = Registry::with_defaults().run(&ws1).to_json();
    let json8 = Registry::with_defaults().run(&ws8).to_json();
    assert_eq!(json1, json8, "ANALYZE.json must be thread-count invariant");
}
