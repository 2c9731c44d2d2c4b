//! Integration tests for the `HY4xx` deep semantic proofs: every code
//! has a negative test (a corrupted artifact the proof must refute) and
//! the clean pipeline must prove through without findings. The SAT CEC
//! verdicts are additionally cross-checked against exhaustive
//! simulation, so the solver and the simulator vouch for each other.

use hyde_core::decompose::{decompose_step, Decomposer, Decomposition};
use hyde_core::encoding::{CodeAssignment, EncoderKind};
use hyde_core::hyper::HyperFunction;
use hyde_logic::{Network, NodeRole, TruthTable};
use hyde_map::{FlowKind, Job, MappingReport, Session};
use hyde_verify::deep::{Deep, DeepConfig};
use hyde_verify::{any_deny, Artifact, Code, Diagnostic};
use std::time::Duration;

/// Maps `circuit` with the HYDE flow at k = 5.
fn map(circuit: &hyde_circuits::Circuit) -> MappingReport {
    Session::new(5, FlowKind::hyde(0xDA98))
        .run(&Job::new(&circuit.name, circuit.outputs.clone()))
        .unwrap()
        .report
}

fn has(diags: &[Diagnostic], code: Code) -> bool {
    diags.iter().any(|d| d.code == code)
}

fn flip_one_lut_bit(net: &mut Network, minterm: u32) {
    let id = net
        .node_ids()
        .into_iter()
        .find(|&id| net.role(id) == NodeRole::Internal)
        .expect("network has a LUT");
    let mut t = net.function(id).clone();
    let m = minterm % t.num_minterms() as u32;
    t.set(m, !t.eval(m));
    let fanins = net.fanins(id).to_vec();
    net.replace_node_unchecked(id, fanins, t);
}

/// Exhaustive simulation oracle: does `net` compute `specs`?
fn simulates(net: &Network, specs: &[TruthTable]) -> bool {
    let n = specs[0].vars();
    for m in 0u32..1 << n {
        let bits: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
        let got = net.eval(&bits);
        for (o, spec) in specs.iter().enumerate() {
            if got[o] != spec.eval(m) {
                return false;
            }
        }
    }
    true
}

#[test]
fn sat_cec_agrees_with_exhaustive_simulation_on_small_suite() {
    let mut deep = Deep::new(DeepConfig::default());
    let mut checked = 0;
    for circuit in hyde_circuits::suite_small() {
        if circuit.outputs[0].vars() > 12 {
            continue;
        }
        let report = map(&circuit);
        assert!(
            simulates(&report.network, &circuit.outputs),
            "{}: simulation oracle disagrees with the mapper",
            circuit.name
        );
        let diags = deep.check(&Artifact::Network {
            net: &report.network,
            k: Some(5),
            spec: Some(&circuit.outputs),
        });
        assert!(
            !has(&diags, Code::DeepCecMismatch) && !has(&diags, Code::DeepProofBudget),
            "{}: SAT CEC disagrees with simulation: {diags:?}",
            circuit.name
        );
        checked += 1;
    }
    assert!(checked >= 3, "suite_small should have small circuits");
}

#[test]
fn hy401_mutated_small_network_is_refuted_by_sat() {
    // A width the BDD miter used to take: the SAT miter proves every width.
    let circuit = &hyde_circuits::suite_small()[0];
    assert!(circuit.outputs[0].vars() <= 8);
    let mut report = map(circuit);
    flip_one_lut_bit(&mut report.network, 0);
    assert!(!simulates(&report.network, &circuit.outputs));
    let mut deep = Deep::new(DeepConfig::default());
    let diags = deep.check(&Artifact::Network {
        net: &report.network,
        k: Some(5),
        spec: Some(&circuit.outputs),
    });
    assert!(has(&diags, Code::DeepCecMismatch), "{diags:?}");
    assert!(any_deny(&diags));
    assert!(deep
        .take_proofs()
        .iter()
        .any(|r| r.pass == "cec" && r.verdict == "refuted"));
}

#[test]
fn hy401_counterexample_minterm_is_real() {
    let circuit = &hyde_circuits::suite_small()[0];
    let mut report = map(circuit);
    flip_one_lut_bit(&mut report.network, 3);
    let mut deep = Deep::new(DeepConfig::default());
    let diags = deep.check(&Artifact::Network {
        net: &report.network,
        k: Some(5),
        spec: Some(&circuit.outputs),
    });
    let cex = diags
        .iter()
        .find(|d| d.code == Code::DeepCecMismatch)
        .expect("mutation must be caught");
    // The reported output location and witness must disagree for real.
    let hyde_verify::Location::Output(o) = cex.location else {
        panic!("expected an output location, got {:?}", cex.location);
    };
    let m: u32 = cex
        .message
        .split("minterm ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("message carries the witness minterm");
    let n = circuit.outputs[0].vars();
    let bits: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
    assert_ne!(report.network.eval(&bits)[o], circuit.outputs[o].eval(m));
}

#[test]
fn hy402_non_separating_alpha_is_refuted() {
    // f = x0 ^ x1 with bound {x0}: a constant α merges the two bound
    // minterms although f distinguishes them for every free assignment.
    let f = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
    let d = Decomposition {
        bound: vec![0],
        free: vec![1],
        alphas: vec![TruthTable::zero(1)],
        image: TruthTable::zero(2),
        image_dc: TruthTable::zero(2),
        codes: CodeAssignment::new(vec![0, 1], 1).unwrap(),
    };
    let mut deep = Deep::new(DeepConfig::default());
    let diags = deep.check(&Artifact::Decomposition {
        decomposition: &d,
        function: &f,
    });
    assert!(has(&diags, Code::DeepEncodingNotInjective), "{diags:?}");
    assert!(any_deny(&diags));
    let proofs = deep.take_proofs();
    assert_eq!(proofs.len(), 1);
    assert_eq!(proofs[0].verdict, "refuted");
}

#[test]
fn hy402_real_decomposition_is_proved_injective() {
    let f = TruthTable::from_fn(7, |m| m.count_ones() % 2 == 1);
    let d = decompose_step(&f, &[0, 1, 2, 3, 4], &EncoderKind::Hyde { seed: 7 }, 5).unwrap();
    let mut deep = Deep::new(DeepConfig::default());
    let diags = deep.check(&Artifact::Decomposition {
        decomposition: &d,
        function: &f,
    });
    assert!(!has(&diags, Code::DeepEncodingNotInjective), "{diags:?}");
    assert!(deep.take_proofs().iter().all(|r| r.verdict == "proved"));
}

fn small_hyper() -> HyperFunction {
    let f0 = TruthTable::var(3, 0) & TruthTable::var(3, 1);
    let f1 = TruthTable::var(3, 1) | TruthTable::var(3, 2);
    HyperFunction::new(vec![f0, f1], &EncoderKind::Lexicographic, 5).unwrap()
}

#[test]
fn hy403_corrupted_implementation_is_refuted() {
    let h = small_hyper();
    let hn = h
        .decompose(&Decomposer::new(5, EncoderKind::Lexicographic))
        .unwrap();
    let mut merged = hn.implement_ingredients().unwrap();
    flip_one_lut_bit(&mut merged, 0);
    let mut deep = Deep::new(DeepConfig::default());
    let diags = deep.check(&Artifact::Recovery {
        hyper: &hn,
        implemented: &merged,
    });
    assert!(has(&diags, Code::DeepCollapseMismatch), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy404_corrupted_hyper_table_is_refuted() {
    let mut h = small_hyper();
    h.corrupt_table_bit(0);
    let mut deep = Deep::new(DeepConfig::default());
    let diags = deep.check(&Artifact::HyperFn(&h));
    assert!(has(&diags, Code::DeepRecoveryMismatch), "{diags:?}");
    assert!(any_deny(&diags));
}

#[test]
fn hy405_semantically_stuck_node_warns() {
    // g = n1 & n2 where n1 = x0 and n2 = !x0: locally a live AND gate,
    // semantically stuck at 0.
    let mut net = Network::new("stuck");
    let a = net.add_input("x0");
    let n1 = net.add_node("n1", vec![a], TruthTable::var(1, 0)).unwrap();
    let n2 = net.add_node("n2", vec![a], !TruthTable::var(1, 0)).unwrap();
    let and = TruthTable::var(2, 0) & TruthTable::var(2, 1);
    let g = net.add_node("g", vec![n1, n2], and).unwrap();
    net.mark_output("g", g);
    let mut deep = Deep::new(DeepConfig::default());
    let diags = deep.check(&Artifact::network(&net));
    let stuck = diags
        .iter()
        .find(|d| d.code == Code::DeepStuckNode)
        .expect("stuck node must be found");
    assert!(stuck.message.contains("stuck at 0"), "{stuck:?}");
    assert!(!any_deny(&diags), "HY405 is a warning: {diags:?}");
}

#[test]
fn hy406_exhausted_budget_is_reported() {
    // A zero budget cannot prove anything about a non-trivial miter.
    let f = TruthTable::from_fn(6, |m| m.count_ones() % 2 == 1);
    let d = decompose_step(&f, &[0, 1, 2], &EncoderKind::Lexicographic, 5).unwrap();
    let mut deep = Deep::new(DeepConfig {
        max_conflicts: 0,
        max_time: Duration::ZERO,
    });
    let diags = deep.check(&Artifact::Decomposition {
        decomposition: &d,
        function: &f,
    });
    assert!(has(&diags, Code::DeepProofBudget), "{diags:?}");
    assert!(any_deny(&diags), "an unproved property must fail the run");
    assert!(deep.take_proofs().iter().any(|r| r.verdict == "unknown"));
}

#[test]
fn clean_hyper_pipeline_proves_through() {
    let h = small_hyper();
    let hn = h
        .decompose(&Decomposer::new(5, EncoderKind::Lexicographic))
        .unwrap();
    let merged = hn.implement_ingredients().unwrap();
    let mut deep = Deep::new(DeepConfig::default());
    for artifact in [
        Artifact::HyperFn(&h),
        Artifact::Hyper(&hn),
        Artifact::Recovery {
            hyper: &hn,
            implemented: &merged,
        },
    ] {
        let diags = deep.check(&artifact);
        assert!(diags.is_empty(), "{diags:?}");
    }
    let proofs = deep.take_proofs();
    assert!(!proofs.is_empty());
    assert!(proofs.iter().all(|r| r.verdict == "proved"), "{proofs:?}");
    // The CEC of the decomposed hyper network and the per-ingredient
    // collapse/recovery proofs must all have run.
    for pass in ["cec", "collapse", "recover"] {
        assert!(proofs.iter().any(|r| r.pass == pass), "missing {pass}");
    }
    // Taking the proofs empties the record.
    assert!(deep.take_proofs().is_empty());
}
