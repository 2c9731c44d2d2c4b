//! The λ-search's incumbent cap makes per-candidate counts depend on the
//! work-stealing schedule; the selected bound set and its class count
//! must not. This checks `best_bound_set` at several `HYDE_THREADS`
//! values on functions where the cap fires.
//!
//! Everything lives in ONE test function: `HYDE_THREADS` is process-global
//! state, and the harness runs separate `#[test]`s concurrently.

use hyde_core::chart::{class_count, PrefixScorer};
use hyde_core::varpart::VariablePartitioner;
use hyde_logic::TruthTable;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `f` over `n` variables whose columns under `bound` take only
/// `patterns` distinct values.
fn planted(n: usize, bound: &[usize], patterns: usize, rng: &mut StdRng) -> TruthTable {
    let pool: Vec<TruthTable> = (0..patterns).map(|_| TruthTable::random(n, rng)).collect();
    let class_of: Vec<usize> = (0..1 << bound.len())
        .map(|_| rng.gen_range(0..patterns))
        .collect();
    let bound_mask: u32 = bound.iter().map(|&v| 1 << v).sum();
    TruthTable::from_fn(n, |m| {
        let col = bound
            .iter()
            .enumerate()
            .fold(0, |c, (i, &v)| c | ((m >> v) as usize & 1) << i);
        pool[class_of[col]].eval(m & !bound_mask)
    })
}

/// Every `k`-subset mask of `0..n` in lexicographic order of the
/// ascending variable lists.
fn lex_masks(n: usize, k: usize) -> Vec<u32> {
    let mut masks: Vec<u32> = (0u32..1 << n)
        .filter(|m| m.count_ones() as usize == k)
        .collect();
    masks.sort_unstable_by_key(|m| std::cmp::Reverse(m.reverse_bits()));
    masks
}

fn vars_of(mask: u32) -> Vec<usize> {
    (0..32).filter(|&v| mask >> v & 1 == 1).collect()
}

#[test]
fn best_bound_set_is_identical_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(0x7E57);
    // (n, k): exhaustive searches of 210..792 candidates (8..64 blocks at
    // 1..8 threads) and sampled ones at n = 14 and 16.
    let mut cases = Vec::new();
    for (n, k) in [(10usize, 4usize), (11, 5), (12, 5), (14, 5), (16, 5)] {
        for patterns in [2usize, 3, 6] {
            let mut vars: Vec<usize> = (0..n).collect();
            vars.shuffle(&mut rng);
            cases.push((k, planted(n, &vars[..k], patterns, &mut rng)));
        }
        cases.push((k, TruthTable::random(n, &mut rng)));
    }

    // The cap really fires on these functions: scoring the exhaustive
    // candidates in search order with a running incumbent stops short
    // of the exact count on some of them.
    let mut capped = 0;
    for (k, f) in cases.iter().filter(|(_, f)| f.vars() <= 12) {
        let mut scorer = PrefixScorer::new(f);
        let mut incumbent = usize::MAX;
        for mask in lex_masks(f.vars(), *k) {
            let count = scorer.score(mask, incumbent);
            if count < class_count(f, &vars_of(mask)).unwrap() {
                assert_eq!(count, incumbent, "a short count is always the cap");
                capped += 1;
            }
            incumbent = incumbent.min(count);
        }
    }
    assert!(capped > 1000, "only {capped} capped candidates");

    let vp = VariablePartitioner::default();
    let search = |threads: &str| -> Vec<(Vec<usize>, usize)> {
        std::env::set_var("HYDE_THREADS", threads);
        assert_eq!(hyde_core::parallel::thread_count().to_string(), threads);
        cases
            .iter()
            .map(|(k, f)| vp.best_bound_set(f, *k).unwrap())
            .collect()
    };
    let sequential = search("1");
    for (found, (_, f)) in sequential.iter().zip(&cases) {
        assert_eq!(found.1, class_count(f, &found.0).unwrap());
    }
    for threads in ["2", "3", "8"] {
        assert_eq!(search(threads), sequential, "HYDE_THREADS={threads}");
    }
    std::env::remove_var("HYDE_THREADS");
}
