//! Tier-1 integration: the verification layer is reachable through the
//! facade crate and the standard pipeline lints clean end-to-end.

use hyde::core::decompose::{decompose_step, Decomposer};
use hyde::core::encoding::EncoderKind;
use hyde::core::hyper::HyperFunction;
use hyde::logic::TruthTable;
use hyde::map::{FlowKind, Job, Session};
use hyde::verify::{any_deny, Artifact, Registry};

#[test]
fn facade_pipeline_lints_clean() {
    let registry = Registry::with_defaults();

    // One decomposition step.
    let f = TruthTable::from_fn(6, |m| (m & 0b111).count_ones() > (m >> 3).count_ones());
    let d = decompose_step(&f, &[0, 1, 2], &EncoderKind::Hyde { seed: 7 }, 5).unwrap();
    assert!(d.verify(&f));
    assert!(!any_deny(&registry.run(&Artifact::Decomposition {
        decomposition: &d,
        function: &f,
    })));

    // A mapped circuit against its specification.
    let circuit = hyde::circuits::rd73();
    let report = Session::new(5, FlowKind::hyde(0xDA98))
        .run(&Job::new(&circuit.name, circuit.outputs.clone()))
        .unwrap()
        .report;
    assert!(!any_deny(&registry.run(&Artifact::Network {
        net: &report.network,
        k: Some(5),
        spec: Some(&circuit.outputs),
    })));

    // Hyper-function round trip.
    let h = HyperFunction::new(circuit.outputs.clone(), &EncoderKind::Hyde { seed: 7 }, 5).unwrap();
    let hn = h
        .decompose(&Decomposer::new(5, EncoderKind::Hyde { seed: 7 }))
        .unwrap();
    let merged = hn.implement_ingredients().unwrap();
    assert!(!any_deny(&registry.run_all(&[
        Artifact::Hyper(&hn),
        Artifact::Recovery {
            hyper: &hn,
            implemented: &merged,
        },
    ])));
}
