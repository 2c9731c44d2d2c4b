//! File-format round trips through the whole stack: circuit → PLA text →
//! parse → map → BLIF text → parse → simulation against the tables.

use hyde::logic::sim::{check_against_tables, SPEC_SAMPLES};
use hyde::logic::{blif, pla::Pla};
use hyde::map::{FlowKind, Job, Session};

#[test]
fn pla_to_mapped_blif_roundtrip() {
    for circuit in [hyde::circuits::rd73(), hyde::circuits::misex1()] {
        // Circuit -> PLA -> parse.
        let pla_text = circuit.to_pla().to_text();
        let pla = Pla::parse(&pla_text).unwrap();
        let outputs = pla.output_tables();
        assert_eq!(outputs, circuit.outputs, "{}", circuit.name);

        // Map.
        let report = Session::new(5, FlowKind::hyde(3))
            .run(&Job::new(&circuit.name, outputs))
            .unwrap()
            .report;

        // Mapped network -> BLIF -> parse -> exhaustive simulation
        // against the circuit's tables.
        let reparsed = blif::parse(&blif::write(&report.network)).unwrap();
        assert!(1u64 << circuit.inputs <= SPEC_SAMPLES, "{}", circuit.name);
        let positions: Vec<usize> = reparsed
            .inputs()
            .iter()
            .map(|&id| {
                let name = reparsed.node_name(id);
                name.strip_prefix('x')
                    .and_then(|i| i.parse().ok())
                    .unwrap_or_else(|| panic!("input {name:?} is not named x<i>"))
            })
            .collect();
        assert_eq!(
            check_against_tables(&reparsed, &circuit.outputs, &positions),
            None,
            "{}: BLIF roundtrip differs (minterm, output)",
            circuit.name
        );
    }
}

#[test]
fn blif_written_networks_stay_k_feasible() {
    let circuit = hyde::circuits::rd84();
    let report = Session::new(4, FlowKind::fgsyn_like())
        .run(&Job::new(&circuit.name, circuit.outputs.clone()))
        .unwrap()
        .report;
    let text = blif::write(&report.network);
    let reparsed = blif::parse(&text).unwrap();
    assert!(reparsed.is_k_feasible(4));
    assert_eq!(reparsed.outputs().len(), circuit.output_count());
}
