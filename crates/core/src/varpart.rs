//! λ-set (bound set) selection — Problem 1 of the paper.
//!
//! HYDE adopts the BDD-based variable partitioning of Jiang et al.
//! (ASP-DAC 1997, reference `[2]`): among candidate bound sets of the target
//! size, pick the one minimizing the number of compatible classes. Small
//! functions are searched exhaustively on truth-table charts; larger ones
//! switch to BDD cut counting and, beyond a candidate budget, seeded
//! sampling.

use crate::chart::{class_count, PrefixScorer};
use crate::dcache::{CacheKey, DecompCache};
use crate::parallel;
use crate::CoreError;
use hyde_logic::TruthTable;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Search strategy for bound-set candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Enumerate every size-`k` subset of the support.
    Exhaustive,
    /// Evaluate a fixed number of random subsets (seeded).
    Sampled {
        /// Number of candidate subsets.
        candidates: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Enumerate exhaustively up to a candidate budget, then sample.
    Auto {
        /// Budget on the number of candidates before switching to sampling.
        budget: usize,
        /// RNG seed for the sampled fallback.
        seed: u64,
    },
}

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
#[derive(Debug, Clone)]
pub struct VariablePartitioner {
    strategy: SearchStrategy,
    /// Use BDD cut counting instead of chart hashing above this support
    /// size. The chart path's prefix-sharing scorer keeps winning well
    /// past word width — the crossover sits where materializing and
    /// repeatedly sweeping the 2^n-bit table loses to BDD restricts.
    bdd_threshold: usize,
    /// Hard cap on the number of candidates a search may evaluate; a
    /// search needing more fails with [`CoreError::OutOfBudget`].
    candidate_cap: Option<usize>,
    /// Node cap applied to the per-worker BDD managers on the cut-count
    /// path (root build only, so the outcome is identical at any
    /// `HYDE_THREADS`).
    bdd_node_cap: Option<usize>,
    /// Optional NPN-keyed search memo shared across partitioner clones
    /// (and, through the flow, across circuits). `None` searches directly.
    cache: Option<Arc<DecompCache>>,
}

impl Default for VariablePartitioner {
    fn default() -> Self {
        VariablePartitioner {
            strategy: SearchStrategy::Auto {
                budget: 1200,
                seed: 0x9D5E_C0DE,
            },
            bdd_threshold: 20,
            candidate_cap: None,
            bdd_node_cap: None,
            cache: None,
        }
    }
}

impl VariablePartitioner {
    /// Creates a partitioner with an explicit strategy.
    pub fn new(strategy: SearchStrategy) -> Self {
        VariablePartitioner {
            strategy,
            ..Self::default()
        }
    }

    /// Applies the candidate and BDD-node limits from a pipeline budget.
    /// Searches exceeding either limit fail with
    /// [`CoreError::OutOfBudget`] so the caller can step down the
    /// fallback ladder.
    pub fn with_budget(mut self, budget: &hyde_guard::Budget) -> Self {
        self.candidate_cap = budget.candidates;
        self.bdd_node_cap = budget.bdd_nodes;
        self
    }

    /// Attaches a shared NPN-keyed search memo. Searches on functions the
    /// cache [covers](DecompCache::covers) are canonized, answered from
    /// the memo when possible, and run *on the canonical table* otherwise
    /// (see the [`crate::dcache`] determinism contract). Without a cache
    /// the partitioner behaves exactly as before.
    pub fn with_cache(mut self, cache: Arc<DecompCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// [`Self::with_cache`] with an optional handle (convenience for
    /// callers threading a configuration through).
    pub fn with_cache_opt(mut self, cache: Option<Arc<DecompCache>>) -> Self {
        self.cache = cache;
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
        let candidates = self.candidates(&support, k);
        self.select_best(f, candidates)
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
        let key = CacheKey::new(&canon.table, k, self.strategy);
        if let Some((canon_bound, classes)) = cache.lookup(&key) {
            return Ok((canon.transform.bound_to_original(&canon_bound), classes));
        }
        // NPN transforms are variable bijections, so the canonical support
        // has the same size and the k-validity check above still holds.
        let canon_support = canon.table.support();
        let candidates = self.candidates(&canon_support, k);
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
        let candidates = self.candidates(&pool, k);
        self.select_best(f, candidates)
    }

    /// Counts compatible classes for every candidate (in parallel when
    /// worker threads are available) and reduces to the best bound set.
    ///
    /// Candidates are sorted lexicographically once, before the fan-out:
    /// on the chart path consecutive candidates then share long sorted
    /// prefixes, which is what lets the per-worker [`PrefixScorer`] reuse
    /// its promotion stack. The fan-out is embarrassingly parallel —
    /// counts are pure per-candidate integers, workers on the BDD path
    /// each build a private manager — and the argmin breaks ties on the
    /// candidate itself, so the result is identical for any
    /// `HYDE_THREADS` and any candidate order.
    fn select_best(
        &self,
        f: &TruthTable,
        mut candidates: Vec<Vec<usize>>,
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
        candidates.sort_unstable();
        let threads = parallel::thread_count();
        let counts: Vec<Result<usize, CoreError>> = if f.vars() > self.bdd_threshold {
            parallel::map_chunked_init(
                "varpart.score",
                &candidates,
                threads,
                || {
                    let mut b = hyde_bdd::Bdd::with_capacity(f.vars(), 1 << 12);
                    // Cap only the root build: it is identical in every
                    // worker, so success or failure cannot depend on how
                    // candidates are chunked across threads.
                    b.set_node_cap(self.bdd_node_cap);
                    let root = b.guarded(|b| b.from_fn(|m| f.eval(m)));
                    b.set_node_cap(None);
                    (b, root)
                },
                |(b, root), cand| match root {
                    Ok(r) => {
                        // Candidate boundaries are GC safe points for the
                        // worker-private manager: only the root survives
                        // between candidates. No-op unless armed (the
                        // node cap above arms a growth-pressure trigger).
                        b.maybe_gc(&[*r]);
                        Ok(b.compatible_class_count(*r, cand))
                    }
                    Err(e) => Err(CoreError::OutOfBudget(*e)),
                },
            )
        } else {
            parallel::map_chunked_init(
                "varpart.score",
                &candidates,
                threads,
                || PrefixScorer::new(f),
                |scorer, cand| scorer.score(cand),
            )
        };
        let mut best: Option<(Vec<usize>, usize)> = None;
        for (cand, count) in candidates.into_iter().zip(counts) {
            let count = count?;
            let better = match &best {
                None => true,
                Some((bb, bc)) => count < *bc || (count == *bc && cand < *bb),
            };
            if better {
                best = Some((cand, count));
            }
        }
        let mut best =
            best.ok_or_else(|| CoreError::InvalidBoundSet("no candidate bound sets".into()))?;
        if f.vars() > 6 && f.vars() <= self.bdd_threshold {
            // Certify the winner: the digest-based score can (with
            // ~2^-128 probability) understate the class count, so the
            // value handed onward is recounted exactly — one call per
            // search instead of one per candidate.
            best.1 = class_count(f, &best.0)?;
        }
        Ok(best)
    }

    fn candidates(&self, support: &[usize], k: usize) -> Vec<Vec<usize>> {
        let total = binomial(support.len(), k);
        match self.strategy {
            SearchStrategy::Exhaustive => combinations(support, k),
            SearchStrategy::Sampled { candidates, seed } => {
                sample_subsets(support, k, candidates, seed)
            }
            SearchStrategy::Auto { budget, seed } => {
                if total <= budget as u128 {
                    combinations(support, k)
                } else {
                    sample_subsets(support, k, budget, seed)
                }
            }
        }
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

fn combinations(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    let n = items.len();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
        }
        if idx[i] == i + n - k {
            return out;
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

fn sample_subsets(items: &[usize], k: usize, count: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 8 {
        attempts += 1;
        let mut pick: Vec<usize> = items.to_vec();
        pick.shuffle(&mut rng);
        pick.truncate(k);
        pick.sort_unstable();
        if seen.insert(pick.clone()) {
            out.push(pick);
        }
    }
    out
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
    fn combinations_enumerate_all() {
        let c = combinations(&[10, 20, 30, 40], 2);
        assert_eq!(c.len(), 6);
        assert!(c.contains(&vec![10, 40]));
        assert!(c.contains(&vec![20, 30]));
    }

    #[test]
    fn finds_the_decomposable_bound() {
        let f = (TruthTable::var(6, 0) & TruthTable::var(6, 1) & TruthTable::var(6, 2))
            | (TruthTable::var(6, 3) & TruthTable::var(6, 4) & TruthTable::var(6, 5));
        let vp = VariablePartitioner::new(SearchStrategy::Exhaustive);
        let (bound, classes) = vp.best_bound_set(&f, 3).unwrap();
        assert_eq!(classes, 2);
        assert!(bound == vec![0, 1, 2] || bound == vec![3, 4, 5]);
    }

    #[test]
    fn sampled_strategy_is_deterministic() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let f = TruthTable::random(10, &mut rng);
        let vp = VariablePartitioner::new(SearchStrategy::Sampled {
            candidates: 30,
            seed: 11,
        });
        let a = vp.best_bound_set(&f, 4).unwrap();
        let b = vp.best_bound_set(&f, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn auto_matches_exhaustive_when_small() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(6);
        let f = TruthTable::random(7, &mut rng);
        let auto = VariablePartitioner::default()
            .best_bound_set(&f, 3)
            .unwrap();
        let exh = VariablePartitioner::new(SearchStrategy::Exhaustive)
            .best_bound_set(&f, 3)
            .unwrap();
        assert_eq!(auto, exh);
    }

    #[test]
    fn bdd_path_agrees_with_chart_path() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let f = TruthTable::random(9, &mut rng);
        let chart_vp = VariablePartitioner {
            strategy: SearchStrategy::Exhaustive,
            bdd_threshold: 30,
            ..VariablePartitioner::default()
        };
        let bdd_vp = VariablePartitioner {
            strategy: SearchStrategy::Exhaustive,
            bdd_threshold: 1,
            ..VariablePartitioner::default()
        };
        let a = chart_vp.best_bound_set(&f, 3).unwrap();
        let b = bdd_vp.best_bound_set(&f, 3).unwrap();
        assert_eq!(a, b);
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
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        // Reference: exact chart count of every k-subset of the support,
        // ties broken toward the lexicographically smallest bound set.
        fn naive(f: &TruthTable, k: usize) -> (Vec<usize>, usize) {
            let mut best: Option<(Vec<usize>, usize)> = None;
            for cand in combinations(&f.support(), k) {
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
        let vp = VariablePartitioner::default();
        let mut rng = StdRng::seed_from_u64(2024);
        for n in 7usize..=10 {
            for k in [3usize, 4] {
                // A plain random function (every candidate ties at 2^k
                // classes) and one with a planted bound set whose columns
                // take only three distinct patterns.
                let random = TruthTable::random(n, &mut rng);
                let mut vars: Vec<usize> = (0..n).collect();
                vars.shuffle(&mut rng);
                let planted_bound = vars[..k].to_vec();
                let class_of: Vec<usize> = (0..1 << k).map(|_| rng.gen_range(0..3)).collect();
                let patterns: Vec<TruthTable> =
                    (0..3).map(|_| TruthTable::random(n, &mut rng)).collect();
                let bound_mask: u32 = planted_bound.iter().map(|&v| 1 << v).sum();
                let planted = TruthTable::from_fn(n, |m| {
                    let col = planted_bound
                        .iter()
                        .enumerate()
                        .fold(0, |c, (i, &v)| c | ((m >> v) as usize & 1) << i);
                    patterns[class_of[col]].eval(m & !bound_mask)
                });
                assert!(naive(&planted, k).1 <= 3, "n {n} k {k}: planted bound lost");
                for f in [random, planted] {
                    assert_eq!(
                        vp.best_bound_set(&f, k).unwrap(),
                        naive(&f, k),
                        "n {n} k {k}"
                    );
                }
            }
        }
        // Totally symmetric function: every candidate ties, so the
        // lexicographically first bound set wins.
        let sym = TruthTable::from_fn(9, |m| (3..=6).contains(&m.count_ones()));
        let found = vp.best_bound_set(&sym, 4).unwrap();
        assert_eq!(found, naive(&sym, 4));
        assert_eq!(found.0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn candidate_cap_fails_typed_not_silent() {
        let f = (TruthTable::var(6, 0) & TruthTable::var(6, 1) & TruthTable::var(6, 2))
            | (TruthTable::var(6, 3) & TruthTable::var(6, 4) & TruthTable::var(6, 5));
        // C(6,3) = 20 candidates; a cap of 5 must trip.
        let vp = VariablePartitioner::new(SearchStrategy::Exhaustive)
            .with_budget(&hyde_guard::Budget::unlimited().with_candidates(5));
        match vp.best_bound_set(&f, 3) {
            Err(CoreError::OutOfBudget(e)) => {
                assert_eq!(e.resource, hyde_guard::Resource::Candidates);
                assert_eq!(e.limit, 5);
            }
            other => panic!("expected OutOfBudget, got {other:?}"),
        }
        // A cap above the candidate count changes nothing.
        let roomy = VariablePartitioner::new(SearchStrategy::Exhaustive)
            .with_budget(&hyde_guard::Budget::unlimited().with_candidates(50));
        let plain = VariablePartitioner::new(SearchStrategy::Exhaustive);
        assert_eq!(
            roomy.best_bound_set(&f, 3).unwrap(),
            plain.best_bound_set(&f, 3).unwrap()
        );
    }

    #[test]
    fn bdd_node_cap_fails_typed_on_cut_count_path() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        let f = TruthTable::random(8, &mut rng);
        let vp = VariablePartitioner {
            strategy: SearchStrategy::Exhaustive,
            bdd_threshold: 1,      // force the BDD path
            bdd_node_cap: Some(8), // a random 8-var function won't fit
            ..VariablePartitioner::default()
        };
        match vp.best_bound_set(&f, 3) {
            Err(CoreError::OutOfBudget(e)) => {
                assert_eq!(e.resource, hyde_guard::Resource::BddNodes)
            }
            other => panic!("expected OutOfBudget, got {other:?}"),
        }
    }

    #[test]
    fn cached_search_matches_class_count_and_hits_npn_variants() {
        use crate::npn::{self, NpnTransform};
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let cache = Arc::new(crate::dcache::DecompCache::new());
        let plain = VariablePartitioner::new(SearchStrategy::Exhaustive);
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
        let vp = VariablePartitioner::new(SearchStrategy::Exhaustive).with_cache(cache.clone());
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
        let vp = VariablePartitioner::new(SearchStrategy::Exhaustive);
        let (bound, classes) = vp.best_bound_set(&f, 2).unwrap();
        assert!(bound.iter().all(|&v| v < 4));
        assert_eq!(classes, 2);
    }
}
