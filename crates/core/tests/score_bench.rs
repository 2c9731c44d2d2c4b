//! Manual micro-benchmark comparing the exact class counter and the
//! prefix-reuse scorer on a lexicographic candidate stream. Run with:
//! `cargo test --release -p hyde-core --test score_bench -- --ignored --nocapture`

use hyde_core::chart::{class_count_with, ClassCountScratch, PrefixScorer};
use hyde_logic::TruthTable;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[test]
#[ignore]
fn score_bench() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for n in [10usize, 12, 14, 16] {
        let f = TruthTable::random(n, &mut rng);
        let mut cands: Vec<Vec<usize>> = Vec::new();
        for _ in 0..500 {
            let mut vars: Vec<usize> = (0..n).collect();
            vars.shuffle(&mut rng);
            let mut b = vars[..5].to_vec();
            b.sort_unstable();
            cands.push(b);
        }
        cands.sort();
        let mut scratch = ClassCountScratch::new();
        let t0 = std::time::Instant::now();
        let mut acc = 0usize;
        for c in &cands {
            acc += class_count_with(&f, c, &mut scratch).unwrap();
        }
        let exact_us = t0.elapsed().as_micros();
        let mut scorer = PrefixScorer::new(&f);
        let t1 = std::time::Instant::now();
        let mut acc2 = 0usize;
        for c in &cands {
            acc2 += scorer.score(c).unwrap();
        }
        let prefix_us = t1.elapsed().as_micros();
        println!(
            "n={n}: exact {:.2}us  prefix {:.2}us  (sums {acc}/{acc2})",
            exact_us as f64 / 500.0,
            prefix_us as f64 / 500.0
        );
        assert_eq!(acc, acc2);
    }
}
