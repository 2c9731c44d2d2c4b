//! Manual micro-benchmark of the λ-search kernels. Run with:
//! `HYDE_THREADS=1 cargo test --release -p hyde-core --test score_bench -- --ignored --nocapture`
//!
//! It prints, per support size `n` at `k = 5`, the median microseconds
//! per candidate of a whole `best_bound_set` search, on a random function
//! (every candidate ties near 2^k classes, so the incumbent cap rarely
//! fires) and on one with a planted 3-class bound set (the cap fires on
//! most candidates after it). It then compares the exact class counter
//! with the prefix-reuse scorer on a lexicographic mask stream.

use hyde_core::chart::{class_count, PrefixScorer};
use hyde_core::varpart::VariablePartitioner;
use hyde_logic::TruthTable;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const K: usize = 5;
const REPS: usize = 7;

/// `f` over `n` variables whose columns under the low `K` variables take
/// only three distinct patterns.
fn planted(n: usize, rng: &mut rand::rngs::StdRng) -> TruthTable {
    let patterns: Vec<TruthTable> = (0..3).map(|_| TruthTable::random(n, rng)).collect();
    let class_of: Vec<usize> = (0..1 << K).map(|_| rng.gen_range(0..3)).collect();
    TruthTable::from_fn(n, |m| {
        patterns[class_of[(m & ((1 << K) - 1)) as usize]].eval(m >> K << K)
    })
}

fn binomial(n: usize, k: usize) -> usize {
    (0..k).fold(1, |r, i| r * (n - i) / (i + 1))
}

#[test]
#[ignore]
fn search_us_per_candidate() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let vp = VariablePartitioner::default();
    println!("n  candidates  random us/cand  planted us/cand");
    for n in 7usize..=18 {
        let candidates = binomial(n, K).min(1200);
        let functions = [TruthTable::random(n, &mut rng), planted(n, &mut rng)];
        let us: Vec<f64> = functions
            .iter()
            .map(|f| {
                let mut samples: Vec<f64> = (0..REPS)
                    .map(|_| {
                        let t = Instant::now();
                        vp.best_bound_set(f, K).unwrap();
                        t.elapsed().as_secs_f64() * 1e6 / candidates as f64
                    })
                    .collect();
                samples.sort_by(f64::total_cmp);
                samples[REPS / 2]
            })
            .collect();
        println!("{n:<2} {candidates:>10}  {:>14.3}  {:>15.3}", us[0], us[1]);
    }
}

#[test]
#[ignore]
fn score_bench() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for n in [10usize, 12, 14, 16, 18] {
        let f = TruthTable::random(n, &mut rng);
        let mut cands: Vec<Vec<usize>> = Vec::new();
        for _ in 0..500 {
            let mut vars: Vec<usize> = (0..n).collect();
            vars.shuffle(&mut rng);
            let mut b = vars[..K].to_vec();
            b.sort_unstable();
            cands.push(b);
        }
        cands.sort();
        let masks: Vec<u32> = cands
            .iter()
            .map(|c| c.iter().map(|&v| 1u32 << v).sum())
            .collect();
        let t0 = Instant::now();
        let mut acc = 0usize;
        for c in &cands {
            acc += class_count(&f, c).unwrap();
        }
        let exact_us = t0.elapsed().as_micros();
        let mut scorer = PrefixScorer::new(&f);
        let t1 = Instant::now();
        let mut acc2 = 0usize;
        for &m in &masks {
            acc2 += scorer.score(m, usize::MAX);
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
