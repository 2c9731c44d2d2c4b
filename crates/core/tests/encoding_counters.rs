//! The HYDE encoder's Fig. 3 decision counters. Every encode past the
//! trivial cases (one class, no code bits) either returns lex codes early
//! (`encoding.lex_shortcut`: Step 2, or Theorem 3.1 on λ′) or runs Step 8,
//! and each Step-8 run counts exactly one winner
//! (`encoding.step8.{fig3,lex,random}`), so the shortcuts and the winners
//! sum to the non-trivial encodes.
//!
//! This file holds one test, so its process owns the obs collector.

use hyde_core::chart::DecompositionChart;
use hyde_core::encoding::{ceil_log2, EncoderKind};
use hyde_guard::Budget;
use hyde_logic::TruthTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `f` over `n` variables whose columns under the bound set `0..b` take
/// at most `patterns` distinct values.
fn planted(n: usize, b: usize, patterns: usize, rng: &mut StdRng) -> TruthTable {
    let pool: Vec<TruthTable> = (0..patterns)
        .map(|_| TruthTable::random(n - b, rng))
        .collect();
    let class_of: Vec<usize> = (0..1 << b).map(|_| rng.gen_range(0..patterns)).collect();
    TruthTable::from_fn(n, |m| {
        pool[class_of[(m & ((1 << b) - 1)) as usize]].eval(m >> b)
    })
}

#[test]
fn shortcuts_and_step8_winners_sum_to_the_nontrivial_encodes() {
    let k = 5;
    let mut rng = StdRng::seed_from_u64(0xF163);
    let cases: Vec<(TruthTable, usize)> = (0..40)
        .map(|i| {
            let n = rng.gen_range(8..=10);
            let b = rng.gen_range(3..=5);
            let f = if i % 2 == 0 {
                TruthTable::random(n, &mut rng)
            } else {
                let patterns = rng.gen_range(2..=9);
                planted(n, b, patterns, &mut rng)
            };
            (f, b)
        })
        .collect();
    hyde_obs::reset();
    hyde_obs::enable();
    let mut nontrivial = 0u64;
    for (i, (f, b)) in cases.iter().enumerate() {
        let bound: Vec<usize> = (0..*b).collect();
        let chart = DecompositionChart::new(f, &bound).expect("valid bound set");
        let m = chart.classes().len();
        if m > 1 && ceil_log2(m) > 0 {
            nontrivial += 1;
        }
        EncoderKind::Hyde { seed: i as u64 }
            .encode(chart.classes(), k, &Budget::unlimited(), None)
            .expect("unbudgeted encode");
    }
    hyde_obs::disable();
    let obs = hyde_obs::report();
    let sum = |name: &str| obs.counter(name).map_or(0, |c| c.sum);
    let shortcuts = sum("encoding.lex_shortcut");
    let winners = [
        sum("encoding.step8.fig3"),
        sum("encoding.step8.lex"),
        sum("encoding.step8.random"),
    ];
    let step8: u64 = winners.iter().sum();
    assert!(
        shortcuts > 0 && step8 > 0,
        "the cases must exercise both paths ({shortcuts} shortcuts, Step-8 winners {winners:?})"
    );
    assert_eq!(
        shortcuts + step8,
        nontrivial,
        "{shortcuts} shortcuts and Step-8 winners {winners:?} against {nontrivial} non-trivial encodes"
    );
}
