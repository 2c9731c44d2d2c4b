//! Integration tests for hyper-function decomposition (Example 4.1,
//! Figures 8-9): duplication analysis, ingredient recovery, and sharing.

use hyde::core::decompose::Decomposer;
use hyde::core::encoding::EncoderKind;
use hyde::core::hyper::HyperFunction;
use hyde::logic::{NodeRole, TruthTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the four ingredients of Example 4.1's shape: shared 6-variable
/// core support, with f0 and f1 using extra inputs.
fn example_4_1_ingredients() -> Vec<TruthTable> {
    let mut rng = StdRng::seed_from_u64(0x414);
    let restrict = |f: TruthTable, keep: &[usize]| {
        let mut g = f;
        for v in 0..9 {
            if !keep.contains(&v) {
                g = g.cofactor(v, false);
            }
        }
        g
    };
    loop {
        let f0 = restrict(TruthTable::random(9, &mut rng), &[0, 1, 2, 3, 4, 5, 7, 8]);
        let f1 = restrict(TruthTable::random(9, &mut rng), &[0, 1, 2, 3, 4, 5, 6]);
        let f2 = restrict(TruthTable::random(9, &mut rng), &[0, 1, 2, 3, 4, 5]);
        let f3 = restrict(TruthTable::random(9, &mut rng), &[0, 1, 2, 3, 4, 5]);
        let set: std::collections::HashSet<&TruthTable> =
            [&f0, &f1, &f2, &f3].into_iter().collect();
        if set.len() == 4 {
            return vec![f0, f1, f2, f3];
        }
    }
}

#[test]
fn example_4_1_recovery_by_code_assignment() {
    let ing = example_4_1_ingredients();
    let h = HyperFunction::new(ing.clone(), &EncoderKind::Hyde { seed: 0x41 }, 5).unwrap();
    assert_eq!(
        h.pseudo_bits(),
        2,
        "four ingredients need two pseudo inputs"
    );
    // Assigning each code to the pseudo inputs recovers each ingredient
    // (the (0,0) -> f0, (1,0) -> f1, ... step of Figure 9a).
    for (i, f) in ing.iter().enumerate() {
        assert_eq!(h.recover(i), *f, "ingredient {i}");
    }
}

#[test]
fn example_4_1_duplication_cone_and_sharing() {
    let ing = example_4_1_ingredients();
    let h = HyperFunction::new(ing.clone(), &EncoderKind::Hyde { seed: 0x41 }, 5).unwrap();
    let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 0x41 });
    let hn = h.decompose(&dec).unwrap();

    // Every node outside the duplication cone is k-feasible and shareable;
    // nodes in DS with t pseudo fanins are (t+k)-feasible per the paper.
    let cone: std::collections::HashSet<_> = hn.duplication_cone().into_iter().collect();
    for id in hn.network.node_ids() {
        if hn.network.role(id) == NodeRole::Internal && !cone.contains(&id) {
            assert!(hn.network.fanins(id).len() <= 5);
        }
    }
    // The cone contains every node downstream of a pseudo input.
    for &eta in &hn.pseudo_inputs {
        for id in hn.network.transitive_fanout(eta) {
            if hn.network.role(id) == NodeRole::Internal {
                assert!(cone.contains(&id), "node {id} escapes the cone");
            }
        }
    }

    // Full implementation: correct and within the duplication bound.
    hn.verify_ingredients().unwrap();
    let implemented = hn.implemented_lut_count().unwrap();
    assert!(implemented <= hn.predicted_lut_bound());

    // Sharing must beat mapping the four ingredients independently *when
    // the cone is small*; at minimum it never exceeds 4x the hyper network.
    assert!(implemented <= 4 * hn.network.internal_count());
}

#[test]
fn dsets_partition_cone_internals() {
    let ing = example_4_1_ingredients();
    let h = HyperFunction::new(ing, &EncoderKind::Lexicographic, 5).unwrap();
    let dec = Decomposer::new(5, EncoderKind::Lexicographic);
    let hn = h.decompose(&dec).unwrap();
    let n = hn.pseudo_inputs.len();
    let mut seen = std::collections::HashSet::new();
    for m in 1..=n {
        for id in hn.dset(m) {
            assert!(seen.insert(id), "node {id} in two DSets");
        }
    }
    let cone_internals = hn
        .duplication_cone()
        .into_iter()
        .filter(|&id| hn.network.role(id) == NodeRole::Internal)
        .count();
    assert_eq!(seen.len(), cone_internals);
}

#[test]
fn hyper_of_identical_supports_shares_heavily() {
    // All ingredients over the same 6 inputs: sharing should keep the
    // implemented count well below 3x the per-ingredient mapping.
    let mut rng = StdRng::seed_from_u64(99);
    let ing: Vec<TruthTable> = (0..3).map(|_| TruthTable::random(6, &mut rng)).collect();
    let h = HyperFunction::new(ing.clone(), &EncoderKind::Hyde { seed: 7 }, 5).unwrap();
    let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 7 });
    let hn = h.decompose(&dec).unwrap();
    hn.verify_ingredients().unwrap();

    let hyper_luts = hn.implemented_lut_count().unwrap();
    let solo_luts: usize = ing
        .iter()
        .map(|f| {
            let net = dec.decompose_to_network(f, "solo").unwrap();
            net.internal_count()
        })
        .sum();
    // Shape check: hyper-function sharing should not be dramatically worse
    // than independent mapping (it usually wins; tolerate small regressions
    // on random functions).
    assert!(
        hyper_luts <= solo_luts + 4,
        "hyper {hyper_luts} vs solo {solo_luts}"
    );
}

#[test]
fn column_encoding_is_special_case_of_hyper() {
    // Section 4.3: keeping pseudo inputs in the free set reproduces column
    // encoding. Verify the flows agree functionally on a shared workload.
    use hyde::map::{FlowKind, Job, Session};
    let mut rng = StdRng::seed_from_u64(123);
    let outputs: Vec<TruthTable> = (0..3).map(|_| TruthTable::random(6, &mut rng)).collect();
    for kind in [FlowKind::fgsyn_like(), FlowKind::hyde(3)] {
        let report = Session::new(5, kind)
            .run(&Job::new("cmp", outputs.clone()))
            .unwrap()
            .report;
        assert!(report.network.is_k_feasible(5));
        // The flow verifies functionality internally.
        assert!(report.luts > 0);
    }
}
