//! Mutation drill: prove every pass actually fires. Each test takes the
//! real (clean) workspace, plants one violation in memory, and asserts
//! the responsible pass reports it. A pass that silently stops matching
//! fails here, not in production.

use hyde_analyze::manifest;
use hyde_analyze::passes;
use hyde_analyze::registry::{Pass, Registry};
use hyde_analyze::source::SourceFile;
use hyde_analyze::workspace::Workspace;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn workspace() -> Workspace {
    Workspace::from_root(&root()).expect("workspace readable")
}

/// Replaces `path`'s source with `mutate(original text)`.
fn mutate_file(ws: &mut Workspace, path: &str, mutate: impl Fn(&str) -> String) {
    let text = std::fs::read_to_string(root().join(path)).expect("file readable");
    let pos = ws
        .files
        .iter()
        .position(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} not in workspace"));
    ws.files[pos] = SourceFile::new(path, &mutate(&text));
}

/// Runs a single pass and returns true when `code` fired against a file
/// whose path contains `file_contains`.
fn fires(ws: &Workspace, pass: Box<dyn Pass>, code: &str, file_contains: &str) -> bool {
    let mut r = Registry::empty();
    r.register(pass);
    r.run(ws)
        .findings
        .iter()
        .any(|f| f.code == code && f.file.contains(file_contains))
}

/// Like [`fires`], but returns the matching findings so drills can
/// assert on call-path evidence.
fn findings_of(
    ws: &Workspace,
    pass: Box<dyn Pass>,
    code: &str,
    file_contains: &str,
) -> Vec<hyde_analyze::report::Finding> {
    let mut r = Registry::empty();
    r.register(pass);
    r.run(ws)
        .findings
        .into_iter()
        .filter(|f| f.code == code && f.file.contains(file_contains))
        .collect()
}

#[test]
fn sa001_fires_on_injected_unordered_iteration() {
    let mut ws = workspace();
    let file = "crates/core/src/varpart.rs";
    mutate_file(&mut ws, file, |t| {
        format!(
            "{t}\npub fn mutated(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {{\n\
             \x20   m.values().copied().collect()\n}}\n"
        )
    });
    assert!(fires(
        &ws,
        Box::new(passes::determinism::DeterminismPass),
        "SA001",
        file
    ));
}

#[test]
fn sa002_fires_on_injected_clock_read() {
    let mut ws = workspace();
    let file = "crates/bdd/src/manager.rs";
    mutate_file(&mut ws, file, |t| {
        format!("{t}\npub fn mutated_now() -> std::time::Instant {{ std::time::Instant::now() }}\n")
    });
    assert!(fires(
        &ws,
        Box::new(passes::determinism::DeterminismPass),
        "SA002",
        file
    ));
}

#[test]
fn sa003_fires_on_panic_surface_growth() {
    let mut ws = workspace();
    let file = "crates/core/src/classes.rs";
    mutate_file(&mut ws, file, |t| {
        format!("{t}\npub fn mutated_unwrap(v: &[u32]) -> u32 {{ v.first().copied().unwrap() }}\n")
    });
    assert!(fires(
        &ws,
        Box::new(passes::panic_surface::PanicSurfacePass),
        "SA003",
        file
    ));
}

#[test]
fn sa009_fires_on_new_panic_reaching_api_with_call_path() {
    let mut ws = workspace();
    let file = "crates/core/src/classes.rs";
    mutate_file(&mut ws, file, |t| {
        format!(
            "{t}\npub fn mutated_api(v: &[u32]) -> u32 {{ mutated_inner(v) }}\n\
             fn mutated_inner(v: &[u32]) -> u32 {{ v.first().copied().unwrap() }}\n"
        )
    });
    let found = findings_of(
        &ws,
        Box::new(passes::panic_reach::PanicReachPass),
        "SA009",
        file,
    );
    let f = found
        .iter()
        .find(|f| f.message.contains("mutated_api"))
        .unwrap_or_else(|| panic!("{found:?}"));
    // The finding prints the concrete call path down to the site.
    assert!(
        f.path.iter().any(|hop| hop.contains("mutated_inner")),
        "{:?}",
        f.path
    );
    assert!(
        f.path.last().is_some_and(|hop| hop.contains("unwrap")),
        "{:?}",
        f.path
    );
}

#[test]
fn sa009_fires_on_unratcheted_panic_reaching_serve_api() {
    // The serve crate's public surface is ratcheted like everyone
    // else's: a new panic-reachable public fn that nobody added to
    // SA009-panic-reach.txt must fire, so service-layer panics cannot
    // sneak past the supervision story unreviewed.
    let mut ws = workspace();
    let file = "crates/serve/src/protocol.rs";
    mutate_file(&mut ws, file, |t| {
        format!(
            "{t}\npub fn mutated_serve_api(line: &str) -> u64 {{ mutated_parse(line) }}\n\
             fn mutated_parse(line: &str) -> u64 {{ line.parse().unwrap() }}\n"
        )
    });
    let found = findings_of(
        &ws,
        Box::new(passes::panic_reach::PanicReachPass),
        "SA009",
        file,
    );
    let f = found
        .iter()
        .find(|f| f.message.contains("mutated_serve_api"))
        .unwrap_or_else(|| panic!("{found:?}"));
    assert!(
        f.path.iter().any(|hop| hop.contains("mutated_parse")),
        "{:?}",
        f.path
    );
}

#[test]
fn sa010_fires_on_budget_less_flow_with_call_path() {
    let mut ws = workspace();
    let file = "crates/core/src/classes.rs";
    mutate_file(&mut ws, file, |t| {
        format!(
            "{t}\npub fn mutated_entry(m: &mut hyde_bdd::Bdd, a: hyde_bdd::Ref, \
             budget: &hyde_guard::Budget) -> hyde_bdd::Ref {{\n\
             \x20   mutated_work(m, a)\n}}\n\
             fn mutated_work(m: &mut hyde_bdd::Bdd, a: hyde_bdd::Ref) -> hyde_bdd::Ref {{\n\
             \x20   m.not(a)\n}}\n"
        )
    });
    let found = findings_of(
        &ws,
        Box::new(passes::budget_flow::BudgetFlowPass),
        "SA010",
        file,
    );
    let f = found
        .iter()
        .find(|f| f.message.contains("mutated_work"))
        .unwrap_or_else(|| panic!("{found:?}"));
    assert!(
        f.path.iter().any(|hop| hop.contains("mutated_entry")),
        "the path must start at the Budget-accepting entry: {:?}",
        f.path
    );
}

#[test]
fn sa011_fires_on_impure_worker_closure() {
    let mut ws = workspace();
    let file = "crates/core/src/varpart.rs";
    mutate_file(&mut ws, file, |t| {
        format!(
            "{t}\npub fn mutated_par(items: &[u32]) -> Vec<u32> {{\n\
             \x20   let mut acc: Vec<u32> = Vec::new();\n\
             \x20   crate::parallel::map_chunked(\"sa.lex\", items, 2, |x| {{\n\
             \x20       acc.push(*x);\n\
             \x20       *x + 1\n\
             \x20   }})\n}}\n"
        )
    });
    assert!(fires(
        &ws,
        Box::new(passes::par_merge::ParMergePass),
        "SA011",
        file
    ));
}

#[test]
fn sa011_fires_on_impure_stateful_worker() {
    // `map_chunked_init` is the work-stealing scheduler itself (the
    // stateless `map_chunked` delegates to it); its worker closures get
    // the same purity checks, with a captured lock this time.
    let mut ws = workspace();
    let file = "crates/core/src/varpart.rs";
    mutate_file(&mut ws, file, |t| {
        format!(
            "{t}\npub fn mutated_init(items: &[u32]) -> Vec<u32> {{\n\
             \x20   let seen = std::sync::Mutex::new(Vec::new());\n\
             \x20   crate::parallel::map_chunked_init(\"sa.lex\", items, 2, || (), |_, x| {{\n\
             \x20       seen.lock().unwrap().push(*x);\n\
             \x20       *x + 1\n\
             \x20   }})\n}}\n"
        )
    });
    assert!(fires(
        &ws,
        Box::new(passes::par_merge::ParMergePass),
        "SA011",
        file
    ));
}

#[test]
fn sa013_fires_on_injected_stale_directive() {
    let mut ws = workspace();
    let file = "crates/sat/src/solver.rs";
    mutate_file(&mut ws, file, |t| {
        format!(
            "{t}\n// sa:allow(SA001): mutated directive suppressing nothing\n\
             pub fn mutated_nothing() {{}}\n"
        )
    });
    let mut r = Registry::empty();
    r.register(Box::new(passes::determinism::DeterminismPass));
    r.register(Box::new(passes::suppressions::SuppressionsPass {
        known_codes: Registry::with_defaults().all_codes(),
    }));
    let report = r.run(&ws);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "SA013" && f.file == file && f.message.contains("SA001")),
        "{:?}",
        report.findings
    );
}

#[test]
fn sa005_fires_on_renamed_span() {
    let mut ws = workspace();
    let file = "crates/map/src/flow.rs";
    mutate_file(&mut ws, file, |t| {
        assert!(
            t.contains("map.outputs"),
            "expected flow.rs to open map.outputs"
        );
        t.replace("map.outputs", "map.mutated")
    });
    // Three facets at once: the literal is undocumented, the phase fn no
    // longer opens its documented span, and `map.outputs` goes unopened.
    assert!(fires(&ws, Box::new(passes::obs::ObsPass), "SA005", file));
    assert!(fires(
        &ws,
        Box::new(passes::obs::ObsPass),
        "SA005",
        "DESIGN.md"
    ));
}

#[test]
fn sa005_fires_on_renamed_histogram_family() {
    let mut ws = workspace();
    let file = "crates/serve/src/service.rs";
    mutate_file(&mut ws, file, |t| {
        assert!(
            t.contains("serve.job_wall_us"),
            "expected service.rs to record serve.job_wall_us"
        );
        t.replace("serve.job_wall_us", "serve.mutated_wall_us")
    });
    // Both directions: the renamed literal is undocumented, and the
    // documented `serve.job_wall_us` family is no longer recorded
    // anywhere in its owning crate.
    assert!(fires(&ws, Box::new(passes::obs::ObsPass), "SA005", file));
    assert!(fires(
        &ws,
        Box::new(passes::obs::ObsPass),
        "SA005",
        "DESIGN.md"
    ));
}

#[test]
fn sa006_fires_on_injected_counter() {
    let mut ws = workspace();
    let file = "crates/sat/src/solver.rs";
    mutate_file(&mut ws, file, |t| {
        format!("{t}\npub fn mutated_counter() {{ hyde_obs::counter(\"mutated.counter\", 1); }}\n")
    });
    assert!(fires(&ws, Box::new(passes::obs::ObsPass), "SA006", file));
}

#[test]
fn sa007_fires_on_dropped_design_row() {
    let mut ws = workspace();
    let design = ws.design.take().expect("DESIGN.md present");
    assert!(design.contains("HY504"), "expected HY504 documented");
    ws.design = Some(design.replace("HY504", "HYxxx"));
    let mut r = Registry::empty();
    r.register(Box::new(passes::diag::DiagRegistryPass));
    let report = r.run(&ws);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "SA007" && f.message.contains("HY504")),
        "{:?}",
        report.findings
    );
}

#[test]
fn sa008_fires_on_dropped_feature_forward() {
    let mut ws = workspace();
    let text = std::fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    assert!(
        text.contains("\"hyde-verify/strict-checks\""),
        "expected the root strict-checks chain to forward hyde-verify"
    );
    let broken = text.replace(
        "\"hyde-verify/strict-checks\"",
        "\"hyde-core/strict-checks\"",
    );
    let pos = ws
        .manifests
        .iter()
        .position(|m| m.path == "Cargo.toml")
        .expect("root manifest in workspace");
    ws.manifests[pos] = manifest::parse("Cargo.toml", &broken);
    let mut r = Registry::empty();
    r.register(Box::new(passes::features::FeatureHygienePass));
    let report = r.run(&ws);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "SA008" && f.message.contains("hyde-verify/strict-checks")),
        "{:?}",
        report.findings
    );
}
