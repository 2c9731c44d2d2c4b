//! Mutation tests: deliberately corrupt networks, encodings,
//! hyper-functions and BDD managers and assert that the matching `HYxxx`
//! diagnostic fires. Every shipped code has at least one negative test
//! here, plus clean-artifact tests asserting the lints stay quiet.

use hyde_bdd::{Bdd, Ref};
use hyde_core::chart::IsfChart;
use hyde_core::classes::CompatibleClasses;
use hyde_core::decompose::{decompose_step, Decomposer, Decomposition};
use hyde_core::encoding::{CodeAssignment, EncoderKind};
use hyde_core::hyper::HyperFunction;
use hyde_logic::{Isf, Network, TruthTable};
use hyde_verify::{any_deny, Artifact, Code, Diagnostic};

fn has(diags: &[Diagnostic], code: Code) -> bool {
    diags.iter().any(|d| d.code == code)
}

fn run(artifact: &Artifact<'_>) -> Vec<Diagnostic> {
    artifact.lint()
}

/// A two-input AND network: x0, x1 -> g (output).
fn and_network() -> Network {
    let mut net = Network::new("and2");
    let a = net.add_input("x0");
    let b = net.add_input("x1");
    let and = TruthTable::var(2, 0) & TruthTable::var(2, 1);
    let g = net.add_node("g", vec![a, b], and).unwrap();
    net.mark_output("g", g);
    net
}

#[test]
fn hy001_cycle_fires_with_cycle_location() {
    let mut net = Network::new("cyclic");
    let a = net.add_input("a");
    let buf = TruthTable::var(1, 0);
    let n1 = net.add_node("n1", vec![a], buf.clone()).unwrap();
    let n2 = net.add_node("n2", vec![n1], buf.clone()).unwrap();
    net.mark_output("n2", n2);
    // Normal replace_node refuses to create a cycle; the unchecked hook
    // exists exactly for this test.
    net.replace_node_unchecked(n1, vec![n2], buf);
    let diags = run(&Artifact::network(&net));
    assert!(has(&diags, Code::NetworkCycle), "{diags:?}");
    let cyc = diags.iter().find(|d| d.code == Code::NetworkCycle).unwrap();
    match &cyc.location {
        hyde_verify::Location::Cycle(nodes) => assert!(nodes.len() >= 2, "{nodes:?}"),
        other => panic!("expected a cycle location, got {other:?}"),
    }
    assert!(any_deny(&diags));
}

#[test]
fn hy002_fanin_exceeds_k_fires() {
    let mut net = Network::new("wide");
    let inputs: Vec<_> = (0..6).map(|i| net.add_input(&format!("x{i}"))).collect();
    let parity = TruthTable::from_fn(6, |m| m.count_ones() % 2 == 1);
    let g = net.add_node("g", inputs, parity).unwrap();
    net.mark_output("g", g);
    let diags = run(&Artifact::Network {
        net: &net,
        k: Some(5),
        spec: None,
    });
    assert!(has(&diags, Code::NetworkFaninExceedsK), "{diags:?}");
    // Without a bound the check is skipped.
    assert!(!has(
        &run(&Artifact::network(&net)),
        Code::NetworkFaninExceedsK
    ));
}

#[test]
fn hy003_dangling_node_fires() {
    let mut net = and_network();
    let a = net.inputs()[0];
    let _orphan = net
        .add_node("orphan", vec![a], TruthTable::var(1, 0))
        .unwrap();
    let diags = run(&Artifact::network(&net));
    assert!(has(&diags, Code::NetworkDangling), "{diags:?}");
    // Hygiene finding: warn, not deny.
    assert!(!any_deny(&diags));
}

#[test]
fn hy004_vacuous_support_fires() {
    let mut net = Network::new("vacuous");
    let a = net.add_input("x0");
    let b = net.add_input("x1");
    // Declares two fanins but only depends on the first.
    let g = net
        .add_node("g", vec![a, b], TruthTable::var(2, 0))
        .unwrap();
    net.mark_output("g", g);
    let diags = run(&Artifact::network(&net));
    assert!(has(&diags, Code::NetworkVacuousSupport), "{diags:?}");
    assert!(!any_deny(&diags));
}

#[test]
fn hy005_spec_mismatch_fires() {
    let net = and_network();
    let or = TruthTable::var(2, 0) | TruthTable::var(2, 1);
    let spec = [or];
    let diags = run(&Artifact::Network {
        net: &net,
        k: None,
        spec: Some(&spec),
    });
    assert!(has(&diags, Code::NetworkSpecMismatch), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy005_samples_beyond_twelve_inputs() {
    // 13 inputs in declaration order (names play no part), one LUT: the
    // check simulates every other minterm.
    let mut net = Network::new("wide");
    let inputs: Vec<_> = (0..13).map(|i| net.add_input(&format!("in{i}"))).collect();
    let parity = TruthTable::from_fn(13, |m| m.count_ones() % 2 == 1);
    let g = net.add_node("g", inputs, parity.clone()).unwrap();
    net.mark_output("g", g);
    let lint = |flip_at: u32| {
        let spec = [TruthTable::from_fn(13, |m| parity.eval(m) ^ (m == flip_at))];
        run(&Artifact::Network {
            net: &net,
            k: None,
            spec: Some(&spec),
        })
    };
    let sampled = lint(8190);
    let hit = sampled
        .iter()
        .find(|d| d.code == Code::NetworkSpecMismatch)
        .unwrap_or_else(|| panic!("{sampled:?}"));
    assert!(hit.message.ends_with("minterm 8190"), "{hit}");
    // An odd minterm falls between samples: 4096 samples are exhaustive
    // only up to 12 inputs.
    assert!(!has(&lint(8191), Code::NetworkSpecMismatch));
}

#[test]
fn hy101_non_injective_codes_fire() {
    let codes = CodeAssignment::new(vec![0, 0], 1).unwrap();
    let diags = run(&Artifact::Encoding { codes: &codes });
    assert!(has(&diags, Code::EncodingNonInjective), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy102_pliable_width_warns() {
    let codes = CodeAssignment::new(vec![0, 1, 2], 3).unwrap();
    let diags = run(&Artifact::Encoding { codes: &codes });
    assert!(has(&diags, Code::EncodingWidthMismatch), "{diags:?}");
    assert!(
        !any_deny(&diags),
        "pliable widths are legitimate: warn only"
    );
}

#[test]
fn hy103_dc_merge_of_incompatible_columns_fires() {
    // f = x0 & x1, fully specified; bound {x0} gives columns 0 and x1,
    // which disagree at x1 = 1 and therefore must not share a class.
    let on = TruthTable::var(2, 0) & TruthTable::var(2, 1);
    let isf = Isf::completely_specified(on);
    let chart = IsfChart::new(&isf, &[0]).unwrap();
    assert!(!chart.columns_compatible(0, 1));
    let classes = CompatibleClasses::from_parts(vec![0, 0], vec![TruthTable::zero(1)]);
    let diags = run(&Artifact::DcAssign {
        chart: &chart,
        classes: &classes,
    });
    assert!(has(&diags, Code::EncodingDcMergesIncompatible), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy104_recomposition_mismatch_fires() {
    let f = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
    // A decomposition whose image was zeroed out cannot recompose f.
    let d = Decomposition {
        bound: vec![0],
        free: vec![1],
        alphas: vec![TruthTable::var(1, 0)],
        image: TruthTable::zero(2),
        image_dc: TruthTable::zero(2),
        codes: CodeAssignment::new(vec![0, 1], 1).unwrap(),
    };
    assert!(!d.verify(&f), "bool wrapper must agree");
    let diags = run(&Artifact::Decomposition {
        decomposition: &d,
        function: &f,
    });
    assert!(has(&diags, Code::EncodingRecomposition), "{diags:?}");
    assert!(any_deny(&diags));
}

fn small_hyper() -> HyperFunction {
    let f0 = TruthTable::var(3, 0) & TruthTable::var(3, 1);
    let f1 = TruthTable::var(3, 1) | TruthTable::var(3, 2);
    HyperFunction::new(vec![f0, f1], &EncoderKind::Lexicographic, 5).unwrap()
}

#[test]
fn hy201_pseudo_leak_fires() {
    let h = small_hyper();
    let hn = h
        .decompose(&Decomposer::new(5, EncoderKind::Lexicographic))
        .unwrap();
    // "Implement" the ingredients without collapsing the pseudo inputs:
    // the eta input survives and the leak lint must catch it.
    let leaky = hn.network.clone();
    let diags = run(&Artifact::Recovery {
        hyper: &hn,
        implemented: &leaky,
    });
    assert!(has(&diags, Code::HyperPseudoLeak), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy202_unregistered_pseudo_input_fires() {
    let h = small_hyper();
    let mut hn = h
        .decompose(&Decomposer::new(5, EncoderKind::Lexicographic))
        .unwrap();
    // Drop the registration of one pseudo input: the duplication cone is
    // computed from the registration list, so its fanout would wrongly be
    // treated as shared logic.
    hn.pseudo_inputs.pop();
    let diags = run(&Artifact::Hyper(&hn));
    assert!(has(&diags, Code::HyperConeViolation), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy203_recovery_mismatch_fires() {
    let mut h = small_hyper();
    h.corrupt_table_bit(0);
    let diags = run(&Artifact::HyperFn(&h));
    assert!(has(&diags, Code::HyperRecoveryMismatch), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy301_ordering_violation_fires() {
    let mut bdd = Bdd::new(4);
    let v1 = bdd.var(1);
    // A node labelled var 2 whose child is labelled var 1: ordering
    // requires var(node) < var(child).
    bdd.raw_push_node(2, v1, Ref::FALSE);
    let diags = run(&Artifact::Bdd(&bdd));
    assert!(has(&diags, Code::BddOrdering), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy301_redundant_node_fires() {
    let mut bdd = Bdd::new(4);
    bdd.raw_push_node(0, Ref::TRUE, Ref::TRUE);
    let diags = run(&Artifact::Bdd(&bdd));
    assert!(has(&diags, Code::BddOrdering), "{diags:?}");
}

#[test]
fn hy302_duplicate_triple_fires() {
    let mut bdd = Bdd::new(4);
    let _v1 = bdd.var(1);
    // Same (var, lo, hi) triple as the node var(1) just interned.
    bdd.raw_push_node(1, Ref::FALSE, Ref::TRUE);
    let diags = run(&Artifact::Bdd(&bdd));
    assert!(has(&diags, Code::BddDuplicateTriple), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn clean_artifacts_lint_clean() {
    // Network.
    let net = and_network();
    let and = TruthTable::var(2, 0) & TruthTable::var(2, 1);
    let spec = [and];
    assert!(run(&Artifact::Network {
        net: &net,
        k: Some(5),
        spec: Some(&spec),
    })
    .is_empty());

    // Decomposition step straight from the implementation.
    let f = TruthTable::from_fn(5, |m| m.count_ones() % 2 == 1);
    let d = decompose_step(&f, &[0, 1, 2], &EncoderKind::Lexicographic, 5).unwrap();
    assert!(!any_deny(&run(&Artifact::Decomposition {
        decomposition: &d,
        function: &f,
    })));

    // Hyper-function, its network, and a real implementation.
    let h = small_hyper();
    let hn = h
        .decompose(&Decomposer::new(5, EncoderKind::Lexicographic))
        .unwrap();
    let merged = hn.implement_ingredients().unwrap();
    for artifact in [
        Artifact::HyperFn(&h),
        Artifact::Hyper(&hn),
        Artifact::Recovery {
            hyper: &hn,
            implemented: &merged,
        },
    ] {
        assert!(!any_deny(&run(&artifact)));
    }

    // BDD built through the public API.
    let mut bdd = Bdd::new(6);
    let mut acc = bdd.zero();
    for v in 0..6 {
        let x = bdd.var(v);
        acc = bdd.xor(acc, x);
    }
    assert!(run(&Artifact::Bdd(&bdd)).is_empty());
}
