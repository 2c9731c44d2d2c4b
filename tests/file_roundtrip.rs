//! File-format round trips through the whole stack: circuit → PLA text →
//! parse → map → BLIF text → parse → simulation equivalence.

use hyde::logic::sim::{check_networks, Equivalence};
use hyde::logic::{blif, pla::Pla};
use hyde::map::flow::{FlowKind, MappingFlow};

#[test]
fn pla_to_mapped_blif_roundtrip() {
    for circuit in [hyde::circuits::rd73(), hyde::circuits::misex1()] {
        // Circuit -> PLA -> parse.
        let pla_text = circuit.to_pla().to_text();
        let pla = Pla::parse(&pla_text).unwrap();
        let outputs = pla.output_tables();
        assert_eq!(outputs, circuit.outputs, "{}", circuit.name);

        // Map.
        let flow = MappingFlow::new(5, FlowKind::hyde(3));
        let report = flow.map_outputs(&circuit.name, &outputs).unwrap();

        // Mapped network -> BLIF -> parse -> equivalence.
        let blif_text = blif::write(&report.network);
        let reparsed = blif::parse(&blif_text).unwrap();
        match check_networks(&report.network, &reparsed, 16, 0, 0) {
            Equivalence::Equivalent { exhaustive, .. } => assert!(exhaustive),
            Equivalence::Counterexample(cex) => {
                panic!("{}: BLIF roundtrip differs at {cex:?}", circuit.name)
            }
        }
    }
}

#[test]
fn blif_written_networks_stay_k_feasible() {
    let circuit = hyde::circuits::rd84();
    let flow = MappingFlow::new(4, FlowKind::fgsyn_like());
    let report = flow.map_outputs(&circuit.name, &circuit.outputs).unwrap();
    let text = blif::write(&report.network);
    let reparsed = blif::parse(&text).unwrap();
    assert!(reparsed.is_k_feasible(4));
    assert_eq!(reparsed.outputs().len(), circuit.output_count());
}
