//! End-to-end flow tests over the benchmark suite: every flow must produce
//! functionally correct κ-feasible networks, and the HYDE flow's totals
//! must match the paper's *shape* (competitive with or better than the
//! baselines).

use hyde::circuits::Circuit;
use hyde::map::{FlowKind, Job, MappingReport, Session};

/// Maps `c` through `session`; the flow verifies the network against the
/// circuit's specification before returning it.
fn map(session: &Session, c: &Circuit) -> MappingReport {
    session
        .run(&Job::new(&c.name, c.outputs.clone()))
        .unwrap_or_else(|e| panic!("{}: {e}", c.name))
        .report
}

#[test]
fn small_suite_maps_under_every_flow() {
    let circuits = hyde::circuits::suite_small();
    let flows = [
        FlowKind::PerOutput {
            encoder: hyde::core::encoding::EncoderKind::Lexicographic,
        },
        FlowKind::imodec_like(),
        FlowKind::fgsyn_like(),
        FlowKind::hyde(0xDA98),
    ];
    for c in &circuits {
        for kind in &flows {
            let label = kind.label();
            let report = map(&Session::new(5, kind.clone()), c);
            assert!(report.network.is_k_feasible(5), "{} {label}", c.name);
            assert!(report.clbs.is_some());
            assert!(report.clbs.unwrap() <= report.luts);
        }
    }
}

#[test]
fn hyde_total_is_competitive_on_small_suite() {
    let circuits = hyde::circuits::suite_small();
    let total = |kind: FlowKind| -> usize {
        let session = Session::new(5, kind);
        circuits.iter().map(|c| map(&session, c).luts).sum()
    };
    let no_share = total(FlowKind::PerOutput {
        encoder: hyde::core::encoding::EncoderKind::Lexicographic,
    });
    let hyde_total = total(FlowKind::hyde(0xDA98));
    // The paper's headline: HYDE beats the no-sharing baseline overall.
    assert!(
        hyde_total <= no_share,
        "hyde {hyde_total} should not exceed the no-share baseline {no_share}"
    );
}

#[test]
fn k4_mapping_also_works() {
    // The paper targets 4- and 5-input LUTs; check k=4 on two circuits.
    for c in [hyde::circuits::rd73(), hyde::circuits::misex1()] {
        let report = map(&Session::new(4, FlowKind::hyde(11)), &c);
        assert!(report.network.is_k_feasible(4), "{}", c.name);
        assert!(report.clbs.is_none(), "CLB packing is k=5 only");
    }
}

#[test]
fn xc3000_packing_never_exceeds_lut_count() {
    let c = hyde::circuits::rd84();
    for kind in [FlowKind::imodec_like(), FlowKind::hyde(2)] {
        let report = map(&Session::new(5, kind), &c);
        let clbs = report.clbs.unwrap();
        assert!(clbs <= report.luts);
        assert!(clbs * 2 >= report.luts, "a CLB holds at most two LUTs");
    }
}

#[test]
fn exact_spec_circuits_behave_as_documented() {
    // rd84 under any flow computes the ones count.
    let c = hyde::circuits::rd84();
    let report = map(&Session::new(5, FlowKind::hyde(5)), &c);
    let net = &report.network;
    let positions: Vec<usize> = net
        .inputs()
        .iter()
        .map(|&id| {
            net.node_name(id)
                .strip_prefix('x')
                .and_then(|s| s.parse().ok())
                .expect("inputs named x<i>")
        })
        .collect();
    for m in (0u32..256).step_by(11) {
        let bits: Vec<bool> = positions.iter().map(|&p| m >> p & 1 == 1).collect();
        let out = net.eval(&bits);
        let count = m.count_ones() as usize;
        for (b, &got) in out.iter().enumerate() {
            assert_eq!(got, count >> b & 1 == 1, "m={m} bit={b}");
        }
    }
}
