//! The bundled circuit suite must lint clean: mapping every circuit with
//! the HYDE flow and running every structural check (including the explicit
//! decompose → encode → hyper-recover path) may produce hygiene warnings
//! but never a deny-level diagnostic.

use hyde_core::decompose::Decomposer;
use hyde_core::encoding::EncoderKind;
use hyde_core::hyper::HyperFunction;
use hyde_logic::TruthTable;
use hyde_map::{FlowKind, Job, Session};
use hyde_verify::{Artifact, Diagnostic};
use std::collections::HashSet;

fn denies(diags: &[Diagnostic]) -> Vec<String> {
    diags
        .iter()
        .filter(|d| d.is_deny())
        .map(ToString::to_string)
        .collect()
}

#[test]
fn mapped_suite_has_no_deny_diagnostics() {
    let session = Session::new(5, FlowKind::hyde(0xDA98));
    for circuit in hyde_circuits::suite_small() {
        let report = session
            .run(&Job::new(&circuit.name, circuit.outputs.clone()))
            .unwrap_or_else(|e| panic!("{}: mapping failed: {e}", circuit.name))
            .report;
        let diags = Artifact::Network {
            net: &report.network,
            k: Some(5),
            spec: Some(&circuit.outputs),
        }
        .lint();
        assert!(
            denies(&diags).is_empty(),
            "{}: {:?}",
            circuit.name,
            denies(&diags)
        );
    }
}

#[test]
fn hyper_recovery_path_has_no_deny_diagnostics() {
    for circuit in hyde_circuits::suite_small() {
        // Fold up to three distinct outputs into a hyper-function.
        let mut distinct: Vec<TruthTable> = Vec::new();
        let mut seen: HashSet<TruthTable> = HashSet::new();
        for t in &circuit.outputs {
            if seen.insert(t.clone()) {
                distinct.push(t.clone());
            }
            if distinct.len() == 3 {
                break;
            }
        }
        if distinct.len() < 2 {
            continue;
        }
        let h = HyperFunction::new(distinct, &EncoderKind::Hyde { seed: 0xDA98 }, 5)
            .unwrap_or_else(|e| panic!("{}: hyper construction failed: {e}", circuit.name));
        let hn = h
            .decompose(&Decomposer::new(5, EncoderKind::Hyde { seed: 0xDA98 }))
            .unwrap_or_else(|e| panic!("{}: hyper decomposition failed: {e}", circuit.name));
        let merged = hn
            .implement_ingredients()
            .unwrap_or_else(|e| panic!("{}: implementation failed: {e}", circuit.name));
        hn.verify_ingredients()
            .unwrap_or_else(|e| panic!("{}: ingredient check failed: {e}", circuit.name));
        let diags: Vec<Diagnostic> = [
            Artifact::HyperFn(&h),
            Artifact::Hyper(&hn),
            Artifact::Recovery {
                hyper: &hn,
                implemented: &merged,
            },
            Artifact::Network {
                net: &hn.network,
                k: Some(5),
                spec: None,
            },
        ]
        .iter()
        .flat_map(Artifact::lint)
        .collect();
        assert!(
            denies(&diags).is_empty(),
            "{}: {:?}",
            circuit.name,
            denies(&diags)
        );
    }
}
