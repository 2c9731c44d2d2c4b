//! λ-set (bound set) selection — Problem 1 of the paper.
//!
//! HYDE adopts the variable partitioning of Jiang et al. (ASP-DAC 1997,
//! reference `[2]`): among candidate bound sets of the target size, pick
//! the one minimizing the number of compatible classes. Classes are
//! counted on the truth table by a prefix-sharing chart scorer; supports
//! with few enough candidates are searched exhaustively, larger ones by
//! seeded sampling.

use crate::chart::{class_count, PrefixScorer};
use crate::dcache::{CacheKey, DecompCache};
use crate::parallel;
use crate::CoreError;
use hyde_logic::TruthTable;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::Arc;

/// Candidate budget: supports with at most this many size-`k` subsets are
/// searched exhaustively, larger ones draw this many seeded samples.
const CANDIDATE_BUDGET: usize = 1200;

/// RNG seed of the sampled search above [`CANDIDATE_BUDGET`].
const SAMPLE_SEED: u64 = 0x9D5E_C0DE;

/// λ-set selector.
///
/// # Example
///
/// ```
/// use hyde_core::varpart::VariablePartitioner;
/// use hyde_logic::TruthTable;
///
/// // (a&b)|(c&d): bound {a,b} (or {c,d}) yields only 2 classes.
/// let f = (TruthTable::var(4, 0) & TruthTable::var(4, 1))
///     | (TruthTable::var(4, 2) & TruthTable::var(4, 3));
/// let vp = VariablePartitioner::default();
/// let (bound, classes) = vp.best_bound_set(&f, 2).unwrap();
/// assert_eq!(classes, 2);
/// assert!(bound == vec![0, 1] || bound == vec![2, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VariablePartitioner {
    /// Hard cap on the number of candidates a search may evaluate; a
    /// search needing more fails with [`CoreError::OutOfBudget`].
    candidate_cap: Option<usize>,
    /// Optional NPN-keyed search memo shared across partitioner clones
    /// (and, through the flow, across circuits). `None` searches the
    /// caller's table directly; a cached search can return a different
    /// bound set of the same class count (see [`Self::with_cache`]).
    cache: Option<Arc<DecompCache>>,
}

impl VariablePartitioner {
    /// Applies the candidate limit from a pipeline budget. Searches
    /// needing more candidates fail with [`CoreError::OutOfBudget`] so the
    /// caller can step down the fallback ladder.
    pub fn with_budget(mut self, budget: &hyde_guard::Budget) -> Self {
        self.candidate_cap = budget.candidates;
        self
    }

    /// Attaches a shared NPN-keyed search memo. Searches on functions the
    /// cache [covers](DecompCache::covers) are canonized, answered from
    /// the memo when possible, and run *on the canonical table* otherwise
    /// (see the [`crate::dcache`] determinism contract). Ties between
    /// bound sets of equally few classes are then broken in canonical
    /// coordinates, so the returned bound set can differ from the one an
    /// uncached partitioner returns, and the mapped network with it.
    pub fn with_cache(mut self, cache: Arc<DecompCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Finds the bound set of size `k` (over the support of `f`) with the
    /// fewest compatible classes. Returns `(bound, class_count)`.
    ///
    /// Ties are broken toward the lexicographically smallest bound set so
    /// runs are reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBoundSet`] if `k` is zero or not smaller
    /// than the support size.
    pub fn best_bound_set(
        &self,
        f: &TruthTable,
        k: usize,
    ) -> Result<(Vec<usize>, usize), CoreError> {
        let support = f.support();
        if k == 0 || k >= support.len() {
            return Err(CoreError::InvalidBoundSet(format!(
                "bound size {k} invalid for support of {} variables",
                support.len()
            )));
        }
        if let Some(cache) = &self.cache {
            if cache.covers(f) {
                return self.best_bound_set_cached(f, k, cache);
            }
        }
        self.select_best(f, candidate_masks(&support, k))
    }

    /// The memoized search: canonize, look up, and on a miss run the
    /// search on the canonical table so the cached value is a pure
    /// function of the key (identical warm or cold, at any thread count).
    /// The returned bound set is the cached canonical bound translated
    /// through the NPN witness; among class-count ties it is the
    /// lexicographically smallest *canonical* candidate, which may be a
    /// different (equally good) tie pick than the uncached search makes.
    fn best_bound_set_cached(
        &self,
        f: &TruthTable,
        k: usize,
        cache: &DecompCache,
    ) -> Result<(Vec<usize>, usize), CoreError> {
        let canon = cache.canonize_timed(f);
        let key = CacheKey::new(&canon.table, k);
        if let Some((canon_bound, classes)) = cache.lookup(&key) {
            return Ok((canon.transform.bound_to_original(&canon_bound), classes));
        }
        // NPN transforms are variable bijections, so the canonical support
        // has the same size and the k-validity check above still holds.
        let candidates = candidate_masks(&canon.table.support(), k);
        let (canon_bound, classes) = self.select_best(&canon.table, candidates)?;
        cache.insert(key, canon_bound.clone(), classes);
        Ok((canon.transform.bound_to_original(&canon_bound), classes))
    }

    /// Like [`Self::best_bound_set`], but candidates are drawn only from
    /// `allowed` (intersected with the support). Used by hyper-function
    /// decomposition to keep pseudo primary inputs in the μ set
    /// (Section 4.3 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBoundSet`] if fewer than `k` allowed
    /// support variables exist or `k` is zero / not smaller than the
    /// support size.
    pub fn best_bound_set_among(
        &self,
        f: &TruthTable,
        k: usize,
        allowed: &[usize],
    ) -> Result<(Vec<usize>, usize), CoreError> {
        let support = f.support();
        let pool: Vec<usize> = support
            .iter()
            .copied()
            .filter(|v| allowed.contains(v))
            .collect();
        if k == 0 || k >= support.len() || pool.len() < k {
            return Err(CoreError::InvalidBoundSet(format!(
                "bound size {k} invalid for {} allowed support variables (support {})",
                pool.len(),
                support.len()
            )));
        }
        if pool == support {
            // An unrestricted pool is exactly best_bound_set's search, so
            // take the memoized path when a cache is attached. Restricted
            // pools stay uncached: the allowed set does not survive NPN
            // relabeling, so it cannot participate in the canonical key.
            if let Some(cache) = &self.cache {
                if cache.covers(f) {
                    return self.best_bound_set_cached(f, k, cache);
                }
            }
        }
        self.select_best(f, candidate_masks(&pool, k))
    }

    /// Scores every candidate (in parallel when worker threads are
    /// available) and reduces to the lexicographically first bound set of
    /// the fewest classes. The callers build `candidates` from a support
    /// they have validated, so every mask is a valid bound set of `f`.
    ///
    /// Candidates are sorted lexicographically once, before the fan-out:
    /// consecutive candidates then share long sorted prefixes, which is
    /// what lets the per-worker [`PrefixScorer`] reuse its promotion
    /// stack. Each worker also keeps an *incumbent*, the fewest classes
    /// it has counted so far, and caps every later count there, so a
    /// candidate that cannot win stops being counted early.
    ///
    /// Capped counts depend on the schedule; the argmin does not. A
    /// worker claims its blocks in increasing input order, so its
    /// incumbent always comes from lexicographically earlier candidates.
    /// A capped candidate therefore reports a count that an earlier
    /// candidate already reached: it can neither beat nor tie the first
    /// minimum. The first minimum itself is never capped, since every
    /// candidate before it has more classes. The result is identical for
    /// any `HYDE_THREADS`.
    fn select_best(
        &self,
        f: &TruthTable,
        mut candidates: Vec<u32>,
    ) -> Result<(Vec<usize>, usize), CoreError> {
        let _obs = hyde_obs::span!("varpart.select_best");
        hyde_obs::counter("varpart.candidates", candidates.len() as u64);
        if let Some(cap) = self.candidate_cap {
            if candidates.len() > cap {
                return Err(CoreError::OutOfBudget(hyde_guard::OutOfBudget::new(
                    hyde_guard::Resource::Candidates,
                    cap as u64,
                )));
            }
        }
        // Lexicographic order of the ascending variable lists is
        // descending order of the bit-reversed masks: the lowest variable
        // becomes the most significant bit.
        candidates.sort_unstable_by_key(|m| Reverse(m.reverse_bits()));
        let counts = parallel::map_chunked_init(
            "varpart.score",
            &candidates,
            parallel::thread_count(),
            || (PrefixScorer::new(f), usize::MAX),
            |(scorer, incumbent), &mask| {
                let count = scorer.score(mask, *incumbent);
                *incumbent = count.min(*incumbent);
                count
            },
        );
        // `min_by_key` keeps the first of equal minima.
        let (&classes, &best) = counts
            .iter()
            .zip(&candidates)
            .min_by_key(|&(&count, _)| count)
            .ok_or_else(|| CoreError::InvalidBoundSet("no candidate bound sets".into()))?;
        let bound = mask_vars(best);
        if f.vars() <= 6 {
            return Ok((bound, classes));
        }
        // Certify the winner: the digest-based score can (with ~2^-128
        // probability) understate the class count, so the value handed
        // onward is recounted exactly — one call per search instead of
        // one per candidate.
        let classes = class_count(f, &bound)?;
        Ok((bound, classes))
    }
}

/// The size-`k` bound-set candidates over `support` as variable masks:
/// every subset up to [`CANDIDATE_BUDGET`] of them, in index-walk order,
/// and a seeded sample of that many beyond.
fn candidate_masks(support: &[usize], k: usize) -> Vec<u32> {
    let bits: Vec<u32> = support.iter().map(|&v| 1 << v).collect();
    if binomial(bits.len(), k) <= CANDIDATE_BUDGET as u128 {
        subset_masks(&bits, k)
    } else {
        sampled_masks(&bits, k)
    }
}

fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let mut r: u128 = 1;
    for i in 0..k.min(n - k) {
        r = r * (n - i) as u128 / (i + 1) as u128;
    }
    r
}

/// Every `k`-subset of `bits`, walking index combinations in
/// lexicographic order.
fn subset_masks(bits: &[u32], k: usize) -> Vec<u32> {
    let n = bits.len();
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().fold(0, |m, &i| m | bits[i]));
        // Advance the combination: bump the last index not yet at its
        // ceiling and renumber the ones after it consecutively.
        let Some(i) = idx.iter().enumerate().rposition(|(i, &x)| x != i + n - k) else {
            return out;
        };
        let start = idx[i] + 1;
        for (slot, x) in idx[i..].iter_mut().zip(start..) {
            *slot = x;
        }
    }
}

/// [`CANDIDATE_BUDGET`] distinct `k`-subsets of `bits`, each the first `k`
/// entries of a seeded shuffle, giving up after eight draws per sample.
fn sampled_masks(bits: &[u32], k: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(CANDIDATE_BUDGET);
    let mut pick = bits.to_vec();
    for _ in 0..CANDIDATE_BUDGET * 8 {
        if out.len() == CANDIDATE_BUDGET {
            break;
        }
        pick.copy_from_slice(bits);
        pick.shuffle(&mut rng);
        let mask = pick.iter().take(k).fold(0, |m, &b| m | b);
        if seen.insert(mask) {
            out.push(mask);
        }
    }
    out
}

/// The variables of a bound-set mask, ascending.
fn mask_vars(mut mask: u32) -> Vec<usize> {
    let mut vars = Vec::with_capacity(mask.count_ones() as usize);
    while mask != 0 {
        vars.push(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(16, 5), 4368);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(7, 0), 1);
    }

    #[test]
    fn subset_masks_enumerate_all() {
        let c = subset_masks(&[1 << 1, 1 << 3, 1 << 5, 1 << 7], 2);
        assert_eq!(c.len(), 6);
        assert_eq!(c[0], 1 << 1 | 1 << 3);
        assert!(c.contains(&(1 << 1 | 1 << 7)));
        assert!(c.contains(&(1 << 3 | 1 << 5)));
        assert_eq!(mask_vars(1 << 1 | 1 << 7), vec![1, 7]);
    }

    #[test]
    fn finds_the_decomposable_bound() {
        let f = (TruthTable::var(6, 0) & TruthTable::var(6, 1) & TruthTable::var(6, 2))
            | (TruthTable::var(6, 3) & TruthTable::var(6, 4) & TruthTable::var(6, 5));
        let vp = VariablePartitioner::default();
        let (bound, classes) = vp.best_bound_set(&f, 3).unwrap();
        assert_eq!(classes, 2);
        assert!(bound == vec![0, 1, 2] || bound == vec![3, 4, 5]);
    }

    /// FNV-1a over a mask list, for pinning long candidate lists.
    fn digest(masks: &[u32]) -> u64 {
        masks.iter().fold(0xcbf2_9ce4_8422_2325, |h, &m| {
            (h ^ u64::from(m)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn candidates_enumerate_within_budget_and_sample_beyond() {
        let small: Vec<usize> = (0..7).collect();
        let all = candidate_masks(&small, 3);
        assert_eq!(all.len(), 35);
        assert!(all.iter().all(|m| m.count_ones() == 3 && m >> 7 == 0));
        assert!(all.windows(2).all(|w| w[0] != w[1]));
        // C(16, 5) = 4368 exceeds the budget: a seeded, repeatable sample,
        // pinned to the output of the earlier `Vec<usize>` sampler (same
        // draws, same order), first entries and FNV-1a digest.
        let wide: Vec<usize> = (0..16).collect();
        let sample = candidate_masks(&wide, 5);
        assert_eq!(sample.len(), CANDIDATE_BUDGET);
        assert_eq!(sample[..4], [44064, 24841, 436, 43552]);
        assert_eq!(sample[CANDIDATE_BUDGET - 1], 57354);
        assert_eq!(digest(&sample), 0x9a9e_053a_cda1_666f);
        for (n, k, pinned) in [
            (13usize, 5usize, 0x5f12_7429_2624_bf07u64),
            (14, 5, 0xf232_99c8_30ad_dd19),
            (20, 5, 0x6927_cf76_aca4_1b0e),
            (16, 4, 0xb7a4_aa19_3b58_163e),
        ] {
            let support: Vec<usize> = (0..n).collect();
            assert_eq!(digest(&candidate_masks(&support, k)), pinned, "n {n} k {k}");
        }
    }

    #[test]
    fn rejects_bad_sizes() {
        let f = TruthTable::var(3, 0) & TruthTable::var(3, 1);
        let vp = VariablePartitioner::default();
        assert!(vp.best_bound_set(&f, 0).is_err());
        assert!(vp.best_bound_set(&f, 2).is_err()); // support is only 2
    }

    #[test]
    fn best_bound_set_is_the_lexicographic_argmin_of_class_count() {
        use rand::{Rng, SeedableRng};
        // Reference: exact chart count of every candidate, ties broken
        // toward the lexicographically smallest bound set.
        fn naive(f: &TruthTable, masks: &[u32]) -> (Vec<usize>, usize) {
            let mut best: Option<(Vec<usize>, usize)> = None;
            for &mask in masks {
                let cand = mask_vars(mask);
                let count = class_count(f, &cand).unwrap();
                let better = match &best {
                    None => true,
                    Some((bb, bc)) => count < *bc || (count == *bc && cand < *bb),
                };
                if better {
                    best = Some((cand, count));
                }
            }
            best.unwrap()
        }
        // A function whose columns under `bound` take only three distinct
        // patterns (so later candidates are capped at a low incumbent).
        fn planted(n: usize, bound: &[usize], rng: &mut StdRng) -> TruthTable {
            let class_of: Vec<usize> = (0..1 << bound.len()).map(|_| rng.gen_range(0..3)).collect();
            let patterns: Vec<TruthTable> = (0..3).map(|_| TruthTable::random(n, rng)).collect();
            let bound_mask: u32 = bound.iter().map(|&v| 1 << v).sum();
            TruthTable::from_fn(n, |m| {
                let col = bound
                    .iter()
                    .enumerate()
                    .fold(0, |c, (i, &v)| c | ((m >> v) as usize & 1) << i);
                patterns[class_of[col]].eval(m & !bound_mask)
            })
        }
        let vp = VariablePartitioner::default();
        let mut rng = StdRng::seed_from_u64(2024);
        // k = 3, 4 at n = 7..10, and k = 5 at n = 11..14, where columns
        // are whole words (the digest path). n = 13, 14 at k = 5 exceed
        // the candidate budget, so those searches are sampled.
        let sizes = (7usize..=10)
            .flat_map(|n| [(n, 3usize), (n, 4)])
            .chain((11..=14).map(|n| (n, 5)));
        for (n, k) in sizes {
            // A plain random function (every candidate ties at 2^k
            // classes) and one with a planted bound set.
            let random = TruthTable::random(n, &mut rng);
            let mut vars: Vec<usize> = (0..n).collect();
            vars.shuffle(&mut rng);
            let planted = planted(n, &vars[..k], &mut rng);
            let masks = candidate_masks(&(0..n).collect::<Vec<_>>(), k);
            if masks.len() as u128 == binomial(n, k) {
                assert!(
                    naive(&planted, &masks).1 <= 3,
                    "n {n} k {k}: planted bound lost"
                );
            }
            for f in [random, planted] {
                assert_eq!(f.support().len(), n);
                assert_eq!(
                    vp.best_bound_set(&f, k).unwrap(),
                    naive(&f, &masks),
                    "n {n} k {k}"
                );
            }
        }
        // Totally symmetric function: every candidate ties, so the
        // lexicographically first bound set wins.
        let sym = TruthTable::from_fn(9, |m| (3..=6).contains(&m.count_ones()));
        let found = vp.best_bound_set(&sym, 4).unwrap();
        assert_eq!(found, naive(&sym, &candidate_masks(&sym.support(), 4)));
        assert_eq!(found.0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn candidate_cap_fails_typed_not_silent() {
        let f = (TruthTable::var(6, 0) & TruthTable::var(6, 1) & TruthTable::var(6, 2))
            | (TruthTable::var(6, 3) & TruthTable::var(6, 4) & TruthTable::var(6, 5));
        // C(6,3) = 20 candidates; a cap of 5 must trip.
        let vp = VariablePartitioner::default()
            .with_budget(&hyde_guard::Budget::unlimited().with_candidates(5));
        match vp.best_bound_set(&f, 3) {
            Err(CoreError::OutOfBudget(e)) => {
                assert_eq!(e.resource, hyde_guard::Resource::Candidates);
                assert_eq!(e.limit, 5);
            }
            other => panic!("expected OutOfBudget, got {other:?}"),
        }
        // A cap above the candidate count changes nothing.
        let roomy = VariablePartitioner::default()
            .with_budget(&hyde_guard::Budget::unlimited().with_candidates(50));
        let plain = VariablePartitioner::default();
        assert_eq!(
            roomy.best_bound_set(&f, 3).unwrap(),
            plain.best_bound_set(&f, 3).unwrap()
        );
    }

    #[test]
    fn cached_search_matches_class_count_and_hits_npn_variants() {
        use crate::npn::{self, NpnTransform};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let cache = Arc::new(crate::dcache::DecompCache::new());
        let plain = VariablePartitioner::default();
        let cached = plain.clone().with_cache(cache.clone());
        let mut rng = StdRng::seed_from_u64(99);
        for n in [5usize, 7, 9] {
            let f = TruthTable::random(n, &mut rng);
            let (pb, pc) = plain.best_bound_set(&f, 3).unwrap();
            let (cb, cc) = cached.best_bound_set(&f, 3).unwrap();
            // Class counts must agree exactly; the bound may be a
            // different tie pick but must realize the same count.
            assert_eq!(pc, cc, "n={n}");
            assert_eq!(
                class_count(&f, &cb).unwrap(),
                class_count(&f, &pb).unwrap(),
                "n={n}"
            );
            // Repeat lookups are deterministic (warm equals first answer).
            assert_eq!(cached.best_bound_set(&f, 3).unwrap(), (cb.clone(), cc));
            // An NPN variant of f must hit the same entry and return the
            // same class count on its own variables.
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let t = NpnTransform {
                perm,
                input_neg: rng.gen::<u32>() & ((1 << n) - 1),
                output_neg: rng.gen(),
            };
            let g = npn::apply(&f, &t);
            let hits_before = cache.stats().hits;
            let (gb, gc) = cached.best_bound_set(&g, 3).unwrap();
            assert_eq!(gc, cc, "NPN variant class count n={n}");
            assert_eq!(class_count(&g, &gb).unwrap(), gc);
            if n <= 6 {
                // The exact canonizer guarantees orbit collapse, so the
                // variant must be answered from the cache.
                assert!(cache.stats().hits > hits_before, "expected a hit at n={n}");
            }
        }
        let s = cache.stats();
        assert!(s.misses >= 3 && s.entries >= 3, "stats: {s:?}");
    }

    #[test]
    fn cached_among_delegates_only_on_full_pool() {
        let cache = Arc::new(crate::dcache::DecompCache::new());
        let vp = VariablePartitioner::default().with_cache(cache.clone());
        let f = (TruthTable::var(6, 0) & TruthTable::var(6, 1) & TruthTable::var(6, 2))
            | (TruthTable::var(6, 3) & TruthTable::var(6, 4) & TruthTable::var(6, 5));
        // Full pool: memoized (one miss, then a hit).
        let all: Vec<usize> = (0..6).collect();
        let a = vp.best_bound_set_among(&f, 3, &all).unwrap();
        let b = vp.best_bound_set_among(&f, 3, &all).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.stats().hits, 1);
        // Restricted pool: uncached, and the restriction is honored.
        let (bound, _) = vp.best_bound_set_among(&f, 3, &[1, 2, 3, 4]).unwrap();
        assert!(bound.iter().all(|v| [1, 2, 3, 4].contains(v)));
        assert_eq!(
            cache.stats().hits,
            1,
            "restricted pool must not touch the cache"
        );
    }

    #[test]
    fn ignores_vacuous_variables() {
        // f over 6 vars but depends only on 0..4.
        let f = (TruthTable::var(6, 0) & TruthTable::var(6, 1))
            | (TruthTable::var(6, 2) & TruthTable::var(6, 3));
        let vp = VariablePartitioner::default();
        let (bound, classes) = vp.best_bound_set(&f, 2).unwrap();
        assert!(bound.iter().all(|&v| v < 4));
        assert_eq!(classes, 2);
    }
}
