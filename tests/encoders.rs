//! Cross-encoder integration tests: every encoder must produce valid strict
//! codes and correct decompositions on representative suite functions.

use hyde::core::chart::DecompositionChart;
use hyde::core::decompose::{decompose_step, Decomposer};
use hyde::core::encoding::{build_image, EncoderKind};
use hyde::core::varpart::VariablePartitioner;
use hyde::logic::TruthTable;
use hyde_guard::Budget;

fn all_encoders() -> Vec<(&'static str, EncoderKind)> {
    vec![
        ("lex", EncoderKind::Lexicographic),
        ("random", EncoderKind::Random { seed: 7 }),
        ("cube-min", EncoderKind::CubeMin { seed: 7, iters: 25 }),
        ("hyde", EncoderKind::Hyde { seed: 7 }),
    ]
}

#[test]
fn all_encoders_decompose_suite_functions() {
    let functions: Vec<TruthTable> = vec![
        hyde::circuits::sym9().outputs[0].clone(),
        hyde::circuits::rd73().outputs[2].clone(),
        hyde::circuits::clip().outputs[0].clone(),
    ];
    for f in &functions {
        let support = f.support().len();
        if support <= 5 {
            continue;
        }
        let vp = VariablePartitioner::default();
        let (bound, _) = vp.best_bound_set(f, 5).unwrap();
        for (name, enc) in all_encoders() {
            let d = decompose_step(f, &bound, &enc, 5).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(d.verify(f), "{name} recomposition failed");
            assert!(d.codes.is_strict(), "{name} must be strict");
        }
    }
}

#[test]
fn all_encoders_build_full_networks() {
    let f = hyde::circuits::rd84().outputs[1].clone();
    for (name, enc) in all_encoders() {
        let dec = Decomposer::new(5, enc);
        let net = dec.decompose_to_network(&f, "rd84b1").unwrap();
        assert!(net.is_k_feasible(5), "{name}");
        for m in (0u32..256).step_by(13) {
            let bits: Vec<bool> = (0..8).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(net.eval(&bits)[0], f.eval(m), "{name} m={m}");
        }
    }
}

#[test]
fn image_dc_semantics_shared_by_all_encoders() {
    // Whatever the encoder, the image's on-set and dc-set never overlap
    // and the dc-set exactly covers unused codes.
    let f = hyde::circuits::sym9().outputs[0].clone();
    let chart = DecompositionChart::new(&f, &[0, 1, 2, 3]).unwrap();
    let classes = chart.classes().clone();
    let budget = Budget::unlimited();
    for (name, enc) in all_encoders() {
        let codes = enc.encode(&classes, 5, &budget, None).unwrap();
        let (on, dc) = build_image(&classes, &codes);
        assert!((&on & &dc).is_zero(), "{name}");
        let used: std::collections::HashSet<u32> = codes.codes().iter().copied().collect();
        let expect_dc =
            ((1u64 << codes.bits()) as usize - used.len()) * (1 << classes.class_fn(0).vars());
        assert_eq!(dc.count_ones() as usize, expect_dc, "{name}");
    }
}

#[test]
fn encoders_are_deterministic() {
    let f = hyde::circuits::rd73().outputs[0].clone();
    let chart = DecompositionChart::new(&f, &[0, 1, 2]).unwrap();
    let classes = chart.classes().clone();
    let budget = Budget::unlimited();
    for (name, enc) in all_encoders() {
        let a = enc.encode(&classes, 5, &budget, None).unwrap();
        let b = enc.encode(&classes, 5, &budget, None).unwrap();
        assert_eq!(a, b, "{name} must be deterministic");
    }
}
