//! Property-based tests over the core data structures and invariants.
//!
//! The proptest crate is unavailable in the offline build environment, so
//! each property runs as a seeded loop over randomly generated inputs
//! (deterministic `StdRng`, 64 cases per property — the same budget the
//! original proptest configuration used).

use hyde::core::chart::{class_count, DecompositionChart};
use hyde::core::decompose::{decompose_step, Decomposer};
use hyde::core::encoding::{build_image, ceil_log2, CodeAssignment, EncoderKind};
use hyde::core::partition::Partition;
use hyde::logic::{Isf, SopCover, TruthTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Runs `body` for [`CASES`] deterministic RNG streams derived from `seed`.
fn for_cases(seed: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(case));
        body(&mut rng);
    }
}

fn arb_table(vars: usize, rng: &mut StdRng) -> TruthTable {
    TruthTable::random(vars, rng)
}

fn arb_partition(len: usize, symbols: u32, rng: &mut StdRng) -> Partition {
    Partition::new((0..len).map(|_| rng.gen_range(0..symbols)).collect())
}

#[test]
fn truth_table_double_negation() {
    for_cases(1, |rng| {
        let f = arb_table(6, rng);
        assert_eq!(!&!&f, f);
    });
}

#[test]
fn truth_table_de_morgan() {
    for_cases(2, |rng| {
        let f = arb_table(5, rng);
        let g = arb_table(5, rng);
        assert_eq!(!&(&f & &g), &!&f | &!&g);
        assert_eq!(!&(&f | &g), &!&f & &!&g);
    });
}

#[test]
fn cofactor_shannon_expansion() {
    for_cases(3, |rng| {
        let f = arb_table(6, rng);
        let v = rng.gen_range(0..6usize);
        let x = TruthTable::var(6, v);
        let expanded = &(&x & &f.cofactor(v, true)) | &(&!&x & &f.cofactor(v, false));
        assert_eq!(expanded, f);
    });
}

#[test]
fn isop_is_exact() {
    for_cases(4, |rng| {
        let f = arb_table(6, rng);
        assert_eq!(SopCover::isop(&f).to_truth_table(6), f);
    });
}

#[test]
fn bdd_matches_truth_table() {
    for_cases(5, |rng| {
        let f = arb_table(6, rng);
        let mut bdd = hyde::bdd::Bdd::new(6);
        let r = bdd.from_fn(|m| f.eval(m));
        for m in 0u32..64 {
            assert_eq!(bdd.eval(r, m), f.eval(m));
        }
        assert_eq!(bdd.sat_count(r), u128::from(f.count_ones()));
    });
}

#[test]
fn class_count_bounds() {
    for_cases(6, |rng| {
        let f = arb_table(7, rng);
        let cc = class_count(&f, &[0, 1, 2]).unwrap();
        assert!(cc >= 1);
        assert!(cc <= 8, "at most 2^|bound| classes");
    });
}

#[test]
fn class_count_invariant_under_bound_order() {
    for_cases(7, |rng| {
        let f = arb_table(6, rng);
        let a = class_count(&f, &[0, 2, 4]).unwrap();
        let b = class_count(&f, &[4, 0, 2]).unwrap();
        assert_eq!(a, b);
    });
}

#[test]
fn decomposition_recomposes() {
    for_cases(8, |rng| {
        let f = arb_table(7, rng);
        let seed = rng.gen_range(0..1000u64);
        let d = decompose_step(&f, &[0, 1, 2], &EncoderKind::Random { seed }, 5).unwrap();
        assert!(d.verify(&f));
        assert!(d.codes.is_strict());
        assert!(d.codes.is_rigid());
    });
}

#[test]
fn decomposer_networks_are_correct() {
    for_cases(9, |rng| {
        let f = arb_table(7, rng);
        let dec = Decomposer::new(4, EncoderKind::Lexicographic);
        let net = dec.decompose_to_network(&f, "p").unwrap();
        assert!(net.is_k_feasible(4));
        for m in (0u32..128).step_by(5) {
            let bits: Vec<bool> = (0..7).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(net.eval(&bits)[0], f.eval(m));
        }
    });
}

#[test]
fn image_dc_disjoint_from_on() {
    for_cases(10, |rng| {
        let f = arb_table(6, rng);
        let chart = DecompositionChart::new(&f, &[0, 1]).unwrap();
        let classes = chart.classes().clone();
        let t = ceil_log2(classes.len());
        let codes = CodeAssignment::new((0..classes.len() as u32).collect(), t).unwrap();
        let (on, dc) = build_image(&classes, &codes);
        assert!((&on & &dc).is_zero());
    });
}

#[test]
fn partition_conjunction_is_finer() {
    for_cases(11, |rng| {
        let p = arb_partition(8, 4, rng);
        let q = arb_partition(8, 4, rng);
        let c = Partition::conjunction(&[&p, &q]);
        assert!(c.multiplicity() >= p.multiplicity());
        assert!(c.multiplicity() >= q.multiplicity());
        assert!(p.is_contained_by(&c));
        assert!(q.is_contained_by(&c));
    });
}

#[test]
fn partition_conjunction_commutes() {
    for_cases(12, |rng| {
        let p = arb_partition(6, 4, rng);
        let q = arb_partition(6, 4, rng);
        let a = Partition::conjunction(&[&p, &q]);
        let b = Partition::conjunction(&[&q, &p]);
        assert!(a.same_grouping(&b));
    });
}

#[test]
fn containment_antisymmetric_up_to_grouping() {
    for_cases(13, |rng| {
        let p = arb_partition(6, 3, rng);
        let q = arb_partition(6, 3, rng);
        if p.is_contained_by(&q) && q.is_contained_by(&p) {
            assert!(p.same_grouping(&q));
        }
    });
}

#[test]
fn isf_completion_respects_care_set() {
    for_cases(14, |rng| {
        let on = arb_table(5, rng);
        let dc = arb_table(5, rng);
        let isf = Isf::new(on, dc).unwrap();
        let a = hyde::core::dc_assign::assign_dont_cares(&isf, &[0, 1]).unwrap();
        assert!(isf.admits(&a.completed));
        let plain = class_count(isf.on_set(), &[0, 1]).unwrap();
        assert!(a.classes.len() <= plain);
    });
}

#[test]
fn blossom_matching_is_valid_and_maximal() {
    for_cases(15, |rng| {
        let count = rng.gen_range(0..20usize);
        let edges: Vec<(usize, usize)> = (0..count)
            .map(|_| (rng.gen_range(0..8usize), rng.gen_range(0..8usize)))
            .collect();
        let m = hyde::graph::maximum_matching(8, &edges);
        let mut used = [false; 8];
        for &(u, v) in &m {
            assert!(!used[u] && !used[v]);
            used[u] = true;
            used[v] = true;
        }
        // Maximality: no remaining edge with both endpoints free.
        for &(u, v) in &edges {
            if u != v {
                assert!(used[u] || used[v], "edge ({u},{v}) extendable");
            }
        }
    });
}

#[test]
fn codes_strict_iff_distinct() {
    for_cases(16, |rng| {
        let len = rng.gen_range(1..8usize);
        let codes: Vec<u32> = (0..len).map(|_| rng.gen_range(0..8u32)).collect();
        if let Ok(ca) = CodeAssignment::new(codes.clone(), 3) {
            let distinct: std::collections::HashSet<u32> = codes.iter().copied().collect();
            assert_eq!(ca.is_strict(), distinct.len() == codes.len());
        }
    });
}
