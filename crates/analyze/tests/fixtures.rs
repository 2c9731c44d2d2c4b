//! Per-code fixtures: for every SA code, one synthetic workspace that
//! violates the invariant and one that satisfies it, assembled with
//! [`Workspace::from_sources`] so nothing touches the filesystem.

use hyde_analyze::passes;
use hyde_analyze::registry::{Pass, Registry};
use hyde_analyze::report::Report;
use hyde_analyze::workspace::Workspace;

fn run_pass(pass: Box<dyn Pass>, ws: &Workspace) -> Report {
    let mut r = Registry::empty();
    r.register(pass);
    r.run(ws)
}

fn has(report: &Report, code: &str, file_contains: &str) -> bool {
    report
        .findings
        .iter()
        .any(|f| f.code == code && f.file.contains(file_contains))
}

#[test]
fn sa001_flags_unordered_iteration_and_respects_safe_sinks() {
    let bad = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             m.values().copied().collect()\n\
         }\n",
    )]);
    let r = run_pass(Box::new(passes::determinism::DeterminismPass), &bad);
    assert!(has(&r, "SA001", "crates/core/src/x.rs"), "{:?}", r.findings);

    let clean = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, u32>) -> usize {\n\
             m.values().filter(|&&v| v > 0).count()\n\
         }\n\
         pub fn g(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             // sa:allow(SA001): sorted immediately after collection\n\
             let mut v: Vec<u32> = m.values().copied().collect();\n\
             v.sort_unstable();\n\
             v\n\
         }\n",
    )]);
    let r = run_pass(Box::new(passes::determinism::DeterminismPass), &clean);
    assert!(r.clean(), "{:?}", r.findings);
    assert_eq!(r.allowed(), 1, "the directive should register as allowed");
}

#[test]
fn sa001_ignores_non_result_affecting_crates_and_tests() {
    let ws = Workspace::from_sources(&[
        (
            "crates/bench/src/x.rs",
            "use std::collections::HashMap;\n\
             pub fn f(m: &HashMap<u32, u32>) -> Vec<u32> { m.values().copied().collect() }\n",
        ),
        (
            "crates/core/tests/t.rs",
            "use std::collections::HashMap;\n\
             #[test]\n\
             fn t() { let m: HashMap<u32, u32> = HashMap::new(); for v in m.values() { let _ = v; } }\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::determinism::DeterminismPass), &ws);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa002_flags_clock_reads() {
    let bad = Workspace::from_sources(&[(
        "crates/bdd/src/x.rs",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    )]);
    let r = run_pass(Box::new(passes::determinism::DeterminismPass), &bad);
    assert!(has(&r, "SA002", "crates/bdd/src/x.rs"), "{:?}", r.findings);

    let clean = Workspace::from_sources(&[(
        "crates/bdd/src/x.rs",
        "// sa:allow(SA002): elapsed time is reported, never result-affecting\n\
         pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    )]);
    let r = run_pass(Box::new(passes::determinism::DeterminismPass), &clean);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa002_string_contents_never_count() {
    let ws = Workspace::from_sources(&[(
        "crates/sat/src/x.rs",
        "pub fn f() -> &'static str { \"Instant::now() env::var thread::current\" }\n",
    )]);
    let r = run_pass(Box::new(passes::determinism::DeterminismPass), &ws);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa003_ratchets_panic_surface() {
    let file = "crates/core/src/x.rs";
    let src = "pub fn f(v: &[u32]) -> u32 { v.first().copied().unwrap() + v[0] }\n";
    let over = Workspace::from_sources(&[
        (file, src),
        (
            "crates/analyze/ratchets/SA003-panic-surface.txt",
            "1 crates/core/src/x.rs\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::panic_surface::PanicSurfacePass), &over);
    assert!(has(&r, "SA003", file), "{:?}", r.findings);

    let at_cap = Workspace::from_sources(&[
        (file, src),
        (
            "crates/analyze/ratchets/SA003-panic-surface.txt",
            "2 crates/core/src/x.rs\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::panic_surface::PanicSurfacePass), &at_cap);
    assert!(r.clean(), "{:?}", r.findings);

    let under_cap = Workspace::from_sources(&[
        (file, src),
        (
            "crates/analyze/ratchets/SA003-panic-surface.txt",
            "5 crates/core/src/x.rs\n",
        ),
    ]);
    let r = run_pass(
        Box::new(passes::panic_surface::PanicSurfacePass),
        &under_cap,
    );
    assert!(r.clean());
    assert!(
        r.notes.iter().any(|n| n.contains("ratcheting")),
        "under-cap should suggest ratcheting down: {:?}",
        r.notes
    );
}

#[test]
fn sa003_missing_and_stale_ratchet_entries_are_findings() {
    let missing = Workspace::from_sources(&[("crates/core/src/x.rs", "pub fn f() {}\n")]);
    let r = run_pass(Box::new(passes::panic_surface::PanicSurfacePass), &missing);
    assert!(
        has(&r, "SA003", "SA003-panic-surface.txt"),
        "{:?}",
        r.findings
    );

    let stale = Workspace::from_sources(&[
        ("crates/core/src/x.rs", "pub fn f() {}\n"),
        (
            "crates/analyze/ratchets/SA003-panic-surface.txt",
            "3 crates/core/src/deleted.rs\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::panic_surface::PanicSurfacePass), &stale);
    assert!(
        r.findings.iter().any(|f| f.message.contains("stale")),
        "{:?}",
        r.findings
    );
}

/// An empty (header-only) SA009 ratchet file.
const SA009_EMPTY: (&str, &str) = (
    "crates/analyze/ratchets/SA009-panic-reach.txt",
    "# Format: one entry id per line.\n",
);

#[test]
fn sa009_flags_unratcheted_panic_reach_with_call_path() {
    let src = "pub fn entry(v: &[u32]) -> u32 { helper(v) }\n\
         fn helper(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n";
    let bad = Workspace::from_sources(&[("crates/core/src/x.rs", src), SA009_EMPTY]);
    let r = run_pass(Box::new(passes::panic_reach::PanicReachPass), &bad);
    let f = r
        .findings
        .iter()
        .find(|f| f.code == "SA009" && f.file == "crates/core/src/x.rs")
        .unwrap_or_else(|| panic!("{:?}", r.findings));
    assert!(f.message.contains("entry"), "{}", f.message);
    assert!(
        f.path.iter().any(|hop| hop.contains("helper")),
        "call path should pass through helper: {:?}",
        f.path
    );
    assert!(
        f.path.last().is_some_and(|hop| hop.contains("unwrap")),
        "call path should end at the panic site: {:?}",
        f.path
    );

    let ratcheted = Workspace::from_sources(&[
        ("crates/core/src/x.rs", src),
        (
            "crates/analyze/ratchets/SA009-panic-reach.txt",
            "crates/core/src/x.rs::entry\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::panic_reach::PanicReachPass), &ratcheted);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa009_missing_ratchet_and_stale_entries_are_findings() {
    let missing = Workspace::from_sources(&[("crates/core/src/x.rs", "pub fn f() {}\n")]);
    let r = run_pass(Box::new(passes::panic_reach::PanicReachPass), &missing);
    assert!(
        has(&r, "SA009", "SA009-panic-reach.txt"),
        "{:?}",
        r.findings
    );

    let stale = Workspace::from_sources(&[
        ("crates/core/src/x.rs", "pub fn f() {}\n"),
        (
            "crates/analyze/ratchets/SA009-panic-reach.txt",
            "crates/core/src/gone.rs::vanished\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::panic_reach::PanicReachPass), &stale);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA009" && f.message.contains("stale")),
        "{:?}",
        r.findings
    );
}

#[test]
fn sa009_allow_directive_removes_the_site() {
    let ws = Workspace::from_sources(&[
        (
            "crates/core/src/x.rs",
            "pub fn entry(v: &[u32]) -> u32 {\n\
                 // sa:allow(SA009): length checked by the caller's contract\n\
                 v.first().copied().unwrap()\n\
             }\n",
        ),
        SA009_EMPTY,
    ]);
    let r = run_pass(Box::new(passes::panic_reach::PanicReachPass), &ws);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa010_flags_budget_less_flow_with_call_path() {
    let bad = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn entry(bdd: &mut Bdd, a: Ref, budget: &Budget) -> Ref { helper(bdd, a) }\n\
         fn helper(bdd: &mut Bdd, a: Ref) -> Ref { bdd.ite(a, a, a) }\n",
    )]);
    let r = run_pass(Box::new(passes::budget_flow::BudgetFlowPass), &bad);
    let f = r
        .findings
        .iter()
        .find(|f| f.code == "SA010" && f.file == "crates/core/src/x.rs")
        .unwrap_or_else(|| panic!("{:?}", r.findings));
    assert!(f.message.contains("helper"), "{}", f.message);
    assert!(
        f.path.iter().any(|hop| hop.contains("entry")),
        "call path should start at the Budget-accepting entry: {:?}",
        f.path
    );

    let clean = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn entry(bdd: &mut Bdd, a: Ref, budget: &Budget) -> Ref {\n\
             helper(bdd, a, budget)\n\
         }\n\
         fn helper(bdd: &mut Bdd, a: Ref, budget: &Budget) -> Ref { bdd.ite(a, a, a) }\n",
    )]);
    let r = run_pass(Box::new(passes::budget_flow::BudgetFlowPass), &clean);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa010_ignores_fns_unreachable_from_budget_entries() {
    // No Budget-accepting entry point anywhere: nothing to enforce.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "fn helper(bdd: &mut Bdd, a: Ref) -> Ref { bdd.ite(a, a, a) }\n",
    )]);
    let r = run_pass(Box::new(passes::budget_flow::BudgetFlowPass), &ws);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa011_flags_impure_worker_closures() {
    let bad = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f(items: &[u32]) -> Vec<u32> {\n\
             let mut acc: Vec<u32> = Vec::new();\n\
             hyde_core::parallel::map_chunked(\"sa.lex\", items, 2, |x| {\n\
                 acc.push(*x);\n\
                 *x + 1\n\
             })\n\
         }\n",
    )]);
    let r = run_pass(Box::new(passes::par_merge::ParMergePass), &bad);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA011" && f.message.contains("acc")),
        "{:?}",
        r.findings
    );

    let clean = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f(items: &[u32]) -> Vec<u32> {\n\
             hyde_core::parallel::map_chunked(\"sa.lex\", items, 2, |x| {\n\
                 let mut local: Vec<u32> = Vec::new();\n\
                 local.push(*x);\n\
                 local[0] + 1\n\
             })\n\
         }\n",
    )]);
    let r = run_pass(Box::new(passes::par_merge::ParMergePass), &clean);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa011_flags_float_accumulation_and_unordered_collections() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f(items: &[f64], mut total: f64) -> Vec<f64> {\n\
             hyde_core::parallel::map_chunked(\"sa.lex\", items, 2, |x| {\n\
                 total += *x * 0.5;\n\
                 *x\n\
             })\n\
         }\n\
         pub fn g(items: &[u32]) -> Vec<usize> {\n\
             hyde_core::parallel::map_chunked(\"sa.lex\", items, 2, |x| {\n\
                 let m: std::collections::HashSet<u32> = std::collections::HashSet::new();\n\
                 m.len() + *x as usize\n\
             })\n\
         }\n",
    )]);
    let r = run_pass(Box::new(passes::par_merge::ParMergePass), &ws);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA011" && f.message.contains("float")),
        "{:?}",
        r.findings
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA011" && f.message.contains("HashSet")),
        "{:?}",
        r.findings
    );
}

#[test]
fn sa012_flags_swallowed_results() {
    let bad = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f(w: &mut dyn std::io::Write) {\n\
             let _ = writeln!(w, \"x\");\n\
         }\n\
         pub fn g() {\n\
             std::fs::remove_file(\"x\").ok();\n\
         }\n",
    )]);
    let r = run_pass(Box::new(passes::swallow::SwallowPass), &bad);
    assert!(
        r.findings.iter().filter(|f| f.code == "SA012").count() == 2,
        "{:?}",
        r.findings
    );

    let clean = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f(x: u32) -> u32 {\n\
             let _ = x;\n\
             let kept = std::fs::remove_file(\"x\").ok();\n\
             kept.map_or(0, |()| x)\n\
         }\n",
    )]);
    let r = run_pass(Box::new(passes::swallow::SwallowPass), &clean);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa012_ignores_benches_and_non_result_affecting_crates() {
    let ws = Workspace::from_sources(&[(
        "crates/bench/src/x.rs",
        "pub fn f() { std::fs::remove_file(\"x\").ok(); }\n",
    )]);
    let r = run_pass(Box::new(passes::swallow::SwallowPass), &ws);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa013_warns_on_stale_and_unknown_directives() {
    let mut r = Registry::empty();
    r.register(Box::new(passes::determinism::DeterminismPass));
    r.register(Box::new(passes::suppressions::SuppressionsPass {
        known_codes: vec!["SA001", "SA002", "SA013"],
    }));
    let ws = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "// sa:allow(SA001): nothing here iterates anything\n\
         pub fn f() -> u32 { 1 }\n\
         // sa:allow(SA999): no such code\n\
         pub fn g() -> u32 { 2 }\n",
    )]);
    let report = r.run(&ws);
    // Warnings never fail the run.
    assert!(report.clean(), "{:?}", report.findings);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "SA013" && f.message.contains("SA001")),
        "{:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "SA013" && f.message.contains("no registered pass")),
        "{:?}",
        report.findings
    );

    // A directive that fires is not stale.
    let used = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
             // sa:allow(SA001): fixture exercises a used directive\n\
             m.values().copied().collect()\n\
         }\n",
    )]);
    let report = r.run(&used);
    assert!(
        !report.findings.iter().any(|f| f.code == "SA013"),
        "{:?}",
        report.findings
    );
}

#[test]
fn sa005_flags_undocumented_span() {
    let bad = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f() { let _g = hyde_obs::span!(\"bogus.span\"); }\n",
    )]);
    let r = run_pass(Box::new(passes::obs::ObsPass), &bad);
    assert!(has(&r, "SA005", "crates/core/src/x.rs"), "{:?}", r.findings);

    let clean = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f() { let _g = hyde_obs::span!(\"chart.build\"); }\n",
    )]);
    let r = run_pass(Box::new(passes::obs::ObsPass), &clean);
    assert!(
        !has(&r, "SA005", "crates/core/src/x.rs"),
        "{:?}",
        r.findings
    );
}

#[test]
fn sa006_flags_undocumented_counter() {
    let bad = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f() { hyde_obs::counter(\"bogus.counter\", 1); }\n",
    )]);
    let r = run_pass(Box::new(passes::obs::ObsPass), &bad);
    assert!(has(&r, "SA006", "crates/core/src/x.rs"), "{:?}", r.findings);

    let clean = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        "pub fn f() { hyde_obs::counter(\"decompose.steps\", 1); }\n",
    )]);
    let r = run_pass(Box::new(passes::obs::ObsPass), &clean);
    assert!(
        !has(&r, "SA006", "crates/core/src/x.rs"),
        "{:?}",
        r.findings
    );
}

/// A minimal consistent diag universe for the SA007 fixtures.
const DIAG_DECL: &str = "pub enum Code { NetworkCycle }\n\
    impl Code {\n\
        pub fn as_str(self) -> &'static str {\n\
            match self { Code::NetworkCycle => \"HY001\" }\n\
        }\n\
    }\n";
const DIAG_TEST: &str = "#[test]\n\
    fn exercises_codes() {\n\
        assert_eq!(Code::NetworkCycle.as_str(), \"HY001\");\n\
        let _all_sa = \"SA001 SA002 SA003 SA005 SA006 SA007 SA008 \
    SA009 SA010 SA011 SA012 SA013\";\n\
    }\n";
const DESIGN_OK: &str = "HY001 network cycle.\n\
    SA001 SA002 SA003 SA005 SA006 SA007 SA008 SA009 SA010 SA011 \
    SA012 SA013 analyzer codes.\n";

#[test]
fn sa007_flags_undocumented_and_untested_codes() {
    let undocumented = Workspace::from_sources(&[
        ("crates/logic/src/diag.rs", DIAG_DECL),
        ("crates/logic/tests/diag.rs", DIAG_TEST),
        (
            "DESIGN.md",
            "SA001 SA002 SA003 SA005 SA006 SA007 SA008 SA009 SA010 \
             SA011 SA012 SA013\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::diag::DiagRegistryPass), &undocumented);
    assert!(
        r.findings.iter().any(|f| f.code == "SA007"
            && f.message.contains("HY001")
            && f.message.contains("undocumented")),
        "{:?}",
        r.findings
    );

    let untested = Workspace::from_sources(&[
        ("crates/logic/src/diag.rs", DIAG_DECL),
        ("DESIGN.md", DESIGN_OK),
    ]);
    let r = run_pass(Box::new(passes::diag::DiagRegistryPass), &untested);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA007" && f.message.contains("not exercised")),
        "{:?}",
        r.findings
    );

    let consistent = Workspace::from_sources(&[
        ("crates/logic/src/diag.rs", DIAG_DECL),
        ("crates/logic/tests/diag.rs", DIAG_TEST),
        ("DESIGN.md", DESIGN_OK),
    ]);
    let r = run_pass(Box::new(passes::diag::DiagRegistryPass), &consistent);
    // The SA codes are documented by DESIGN_OK and exercised by the
    // fixture test string, so the whole universe is consistent.
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa007_flags_stale_doc_rows_and_duplicate_literals() {
    let stale = Workspace::from_sources(&[
        ("crates/logic/src/diag.rs", DIAG_DECL),
        ("crates/logic/tests/diag.rs", DIAG_TEST),
        (
            "DESIGN.md",
            "HY001 and the long-gone HY999.\n\
             SA001 SA002 SA003 SA005 SA006 SA007 SA008 SA009 SA010 \
             SA011 SA012 SA013\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::diag::DiagRegistryPass), &stale);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA007" && f.message.contains("HY999")),
        "{:?}",
        r.findings
    );

    let duplicated = Workspace::from_sources(&[
        ("crates/logic/src/diag.rs", DIAG_DECL),
        ("crates/logic/tests/diag.rs", DIAG_TEST),
        (
            "crates/core/src/raw.rs",
            "pub fn emit() -> &'static str { \"HY001\" }\n",
        ),
        ("DESIGN.md", DESIGN_OK),
    ]);
    let r = run_pass(Box::new(passes::diag::DiagRegistryPass), &duplicated);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA007" && f.message.contains("2 times")),
        "{:?}",
        r.findings
    );
}

const ROOT_MANIFEST: &str = "[workspace]\nmembers = [\"crates/*\"]\n\
    [workspace.dependencies]\n\
    hyde-obs = { path = \"crates/obs\", default-features = false }\n";
const OBS_MANIFEST: &str = "[package]\nname = \"hyde-obs\"\n\
    [features]\ndefault = [\"rt\"]\nrt = []\n";

#[test]
fn sa008_flags_broken_forwarding_chain() {
    // Violating: dep taken with default features on, and no forward.
    let bad = Workspace::from_sources(&[
        ("Cargo.toml", ROOT_MANIFEST),
        ("crates/obs/Cargo.toml", OBS_MANIFEST),
        (
            "crates/bdd/Cargo.toml",
            "[package]\nname = \"hyde-bdd\"\n\
             [features]\ndefault = [\"obs-rt\"]\nobs-rt = []\n\
             [dependencies]\nhyde-obs = { path = \"../obs\" }\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::features::FeatureHygienePass), &bad);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA008" && f.message.contains("hyde-obs/rt")),
        "{:?}",
        r.findings
    );
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA008" && f.message.contains("default features on")),
        "{:?}",
        r.findings
    );

    let clean = Workspace::from_sources(&[
        ("Cargo.toml", ROOT_MANIFEST),
        ("crates/obs/Cargo.toml", OBS_MANIFEST),
        (
            "crates/bdd/Cargo.toml",
            "[package]\nname = \"hyde-bdd\"\n\
             [features]\ndefault = [\"obs-rt\"]\nobs-rt = [\"hyde-obs/rt\"]\n\
             [dependencies]\nhyde-obs = { workspace = true, default-features = false }\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::features::FeatureHygienePass), &clean);
    assert!(r.clean(), "{:?}", r.findings);
}

#[test]
fn sa008_requires_obs_rt_in_default() {
    let ws = Workspace::from_sources(&[
        ("Cargo.toml", ROOT_MANIFEST),
        ("crates/obs/Cargo.toml", OBS_MANIFEST),
        (
            "crates/bdd/Cargo.toml",
            "[package]\nname = \"hyde-bdd\"\n\
             [features]\nobs-rt = [\"hyde-obs/rt\"]\n\
             [dependencies]\nhyde-obs = { workspace = true, default-features = false }\n",
        ),
    ]);
    let r = run_pass(Box::new(passes::features::FeatureHygienePass), &ws);
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "SA008" && f.message.contains("default")),
        "{:?}",
        r.findings
    );
}
