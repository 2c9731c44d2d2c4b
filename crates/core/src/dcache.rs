//! NPN-keyed decomposition cache.
//!
//! Profiling the benchmark suite shows ~90% of the wall clock inside
//! `varpart.select_best`, and the same cone truth tables recur constantly:
//! the hyper-function pipeline re-searches a function after pseudo-input
//! substitution, A/B flow candidates search overlapping cones, and circuits
//! share textbook subfunctions (adders, muxes, parity slices) that differ
//! only by input permutation or polarity. [`DecompCache`] memoizes
//! bound-set searches keyed on the [NPN-canonical form](crate::npn) of the
//! cone, so all of those collapse to one search.
//!
//! # Determinism contract
//!
//! Cached values are **pure functions of the key**. On a miss the search
//! runs *on the canonical table itself* (not the caller's table), so the
//! stored `(bound, classes)` pair depends only on `(canonical table, k)`
//! — never on which caller happened to miss first, the thread
//! count, or warm-vs-cold cache state. Callers translate the canonical
//! bound back through the recorded [`NpnTransform`](crate::npn::NpnTransform)
//! witness; the class count is NPN-invariant so it transfers unchanged.
//!
//! Failed searches (budget trips, invalid sizes) are never inserted, so an
//! error path can never poison later successes.
//!
//! The witness is part of the answer: a table with symmetries reaches its
//! canonical form under several transforms, and each maps the cached
//! bound set back to a different (equally good) bound set of the caller.
//! The canonizer therefore fixes which witness it records — for tables
//! of up to 6 variables the first transform in its enumeration order
//! (see [`crate::npn`]) — so a faster canonizer must return the same
//! witness, not only the same table.
//!
//! # Key cost
//!
//! Every cached search canonizes first, hit or miss. In a single-thread
//! `hyde-bench run` pass on a 2-vCPU host an exact 6-variable
//! canonization takes 60–70 µs, still more than the k = 5 search it
//! memoizes on such a table (a few µs), and a greedy one about 5 µs at 7
//! variables and 200 µs at 16. [`DecompCache`] accumulates the time in
//! nanoseconds and reports it as `canonize_us`, so the cache can be
//! judged against its overhead.
//!
//! # Scoping & eviction
//!
//! The cache is opt-in and is not result-neutral: a partitioner built
//! without one searches the caller's table, and one built with it breaks
//! class-count ties on the canonical table, which can pick a different
//! bound set (and so a different network). It is shared by `Arc`: within
//! a circuit across candidates and recursion levels, and across circuits
//! within a `hyde-bench` run. There is no eviction — entries are
//! immutable and small — but two caps bound memory: an entry cap and a
//! total table-word budget. When either is reached the cache *freezes*:
//! lookups keep hitting, inserts are dropped. Freezing (rather than
//! evicting) keeps warm/cold runs byte-identical — an LRU would make
//! results depend on visit order pressure.

use crate::npn::{self, NpnCanon};
use hyde_logic::TruthTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Largest cone arity the cache will key on. Beyond this the canonize +
/// hash cost and key size outgrow the expected reuse (wide cones are rare
/// and near-unique), so callers fall through to the uncached search.
pub const CACHE_MAX_VARS: usize = 16;

/// Default cap on cached entries.
const DEFAULT_ENTRY_CAP: usize = 1 << 16;

/// Default budget on total stored table words (keys), ~16 MiB.
const DEFAULT_WORD_BUDGET: usize = 1 << 21;

/// Cache key: the canonical table plus everything else the search result
/// depends on. `candidate_cap` is deliberately absent: successful
/// searches do not depend on it (caps only turn successes into errors,
/// and errors are never cached).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    words: Box<[u64]>,
    vars: u8,
    k: u8,
}

impl CacheKey {
    /// Builds the key for searching `canonical` for a size-`k` bound set.
    /// The table must already be canonical — the cache does not
    /// re-canonize.
    pub fn new(canonical: &TruthTable, k: usize) -> Self {
        CacheKey {
            words: canonical.as_words().into(),
            vars: canonical.vars() as u8,
            k: k as u8,
        }
    }

    fn weight(&self) -> usize {
        self.words.len()
    }
}

/// A cached search result in canonical coordinates.
#[derive(Debug, Clone)]
struct CachedBound {
    bound: Vec<usize>,
    classes: usize,
}

/// Counter snapshot from [`DecompCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecompCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real search.
    pub misses: u64,
    /// Inserts dropped because the cache was frozen (full).
    pub rejected: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Total µs spent canonizing through [`DecompCache::canonize_timed`]
    /// (whole µs of the nanosecond total).
    pub canonize_us: u64,
}

/// Shared, thread-safe memo of NPN-canonical bound-set searches.
///
/// See the [module docs](self) for the determinism contract and scoping
/// policy. Obs counters `hyde.npn.hits`, `hyde.npn.misses` and
/// `hyde.npn.canonize_us` are recorded when tracing is enabled.
///
/// Canonization time accumulates in nanoseconds. The obs counter gets
/// the whole µs that each call carries the running total across
/// (`us_carried`), so its sum is the cache's total to within 1 µs
/// however short the calls are (flooring each call to whole µs would
/// drop most of a call that takes a few µs).
#[derive(Debug)]
pub struct DecompCache {
    map: Mutex<HashMap<CacheKey, CachedBound>>,
    entry_cap: usize,
    word_budget: usize,
    words_used: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    canonize_ns: AtomicU64,
}

impl Default for DecompCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DecompCache {
    /// Creates an empty cache with the default caps (64Ki entries,
    /// ~16 MiB of table words).
    pub fn new() -> Self {
        Self::with_caps(DEFAULT_ENTRY_CAP, DEFAULT_WORD_BUDGET)
    }

    /// Creates an empty cache with explicit caps. When either cap is
    /// reached the cache freezes (keeps serving hits, drops inserts).
    pub fn with_caps(entry_cap: usize, word_budget: usize) -> Self {
        DecompCache {
            map: Mutex::new(HashMap::new()),
            entry_cap,
            word_budget,
            words_used: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            canonize_ns: AtomicU64::new(0),
        }
    }

    /// Whether the cache keys functions of this arity at all.
    pub fn covers(&self, f: &TruthTable) -> bool {
        (1..=CACHE_MAX_VARS).contains(&f.vars())
    }

    /// Canonizes `f`, charging the elapsed time to the cache's
    /// canonization total (and the `hyde.npn.canonize_us` obs counter
    /// when tracing).
    pub fn canonize_timed(&self, f: &TruthTable) -> NpnCanon {
        // sa:allow(SA002): the clock feeds only the canonization total;
        // the canonical form itself is a pure function of `f`.
        let start = std::time::Instant::now();
        let canon = npn::canonize(f);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let before = self.canonize_ns.fetch_add(ns, Ordering::Relaxed);
        if hyde_obs::enabled() {
            hyde_obs::counter("hyde.npn.canonize_us", us_carried(before, ns));
        }
        canon
    }

    /// Looks up a previous search result, returning the canonical bound
    /// set and its class count.
    pub fn lookup(&self, key: &CacheKey) -> Option<(Vec<usize>, usize)> {
        let found = {
            let map = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            map.get(key).map(|c| (c.bound.clone(), c.classes))
        };
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if hyde_obs::enabled() {
                hyde_obs::counter("hyde.npn.hits", 1);
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if hyde_obs::enabled() {
                hyde_obs::counter("hyde.npn.misses", 1);
            }
        }
        found
    }

    /// Stores a successful search result (canonical coordinates). Dropped
    /// silently when the cache is frozen; a concurrent duplicate insert
    /// keeps the first value (both are identical by the determinism
    /// contract, so the choice is unobservable).
    pub fn insert(&self, key: CacheKey, bound: Vec<usize>, classes: usize) {
        let weight = key.weight() as u64;
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() >= self.entry_cap
            || self.words_used.load(Ordering::Relaxed) + weight > self.word_budget as u64
        {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        map.entry(key).or_insert_with(|| {
            self.words_used.fetch_add(weight, Ordering::Relaxed);
            CachedBound { bound, classes }
        });
    }

    /// Snapshot of the hit/miss/size counters.
    pub fn stats(&self) -> DecompCacheStats {
        DecompCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            entries: self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len() as u64,
            canonize_us: self.canonize_ns.load(Ordering::Relaxed) / 1000,
        }
    }
}

/// The whole µs a running nanosecond total gains when `ns` is added to
/// `before`: `⌊(before + ns) / 1000⌋ − ⌊before / 1000⌋`. Summed over the
/// calls that built a total, in any order, this is the total's own
/// whole µs, so concurrent callers never lose the sub-µs remainders.
fn us_carried(before: u64, ns: u64) -> u64 {
    before.saturating_add(ns) / 1000 - before / 1000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_for(bits: u64, vars: usize, k: usize) -> CacheKey {
        CacheKey::new(&TruthTable::from_words(vars, vec![bits]), k)
    }

    #[test]
    fn miss_then_hit_roundtrips_the_value() {
        let cache = DecompCache::new();
        let key = key_for(0x8000_0000_0000_0001, 6, 2);
        assert_eq!(cache.lookup(&key), None);
        cache.insert(key.clone(), vec![0, 3], 2);
        assert_eq!(cache.lookup(&key), Some((vec![0, 3], 2)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_k_do_not_collide() {
        let cache = DecompCache::new();
        let t = TruthTable::from_words(6, vec![0xDEAD_BEEF_0BAD_F00D]);
        let k2 = CacheKey::new(&t, 2);
        let k3 = CacheKey::new(&t, 3);
        cache.insert(k2.clone(), vec![0, 1], 4);
        cache.insert(k3.clone(), vec![0, 1, 2], 7);
        assert_eq!(cache.lookup(&k2).unwrap().1, 4);
        assert_eq!(cache.lookup(&k3).unwrap().1, 7);
    }

    #[test]
    fn freezes_at_entry_cap_instead_of_evicting() {
        let cache = DecompCache::with_caps(2, usize::MAX >> 1);
        for i in 0..4u64 {
            cache.insert(key_for(i, 6, 2), vec![0, 1], i as usize);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.rejected, 2);
        // The first two inserts survive; later ones were dropped.
        assert!(cache.lookup(&key_for(0, 6, 2)).is_some());
        assert!(cache.lookup(&key_for(1, 6, 2)).is_some());
        assert!(cache.lookup(&key_for(3, 6, 2)).is_none());
    }

    #[test]
    fn freezes_at_word_budget() {
        // 8-var tables are 4 words each; budget 9 words admits two.
        let cache = DecompCache::with_caps(1024, 9);
        for i in 0..4u64 {
            let t = TruthTable::from_words(8, vec![i, !i, i ^ 7, i << 3]);
            cache.insert(CacheKey::new(&t, 3), vec![0, 1, 2], 3);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.rejected, 2);
    }

    #[test]
    fn duplicate_insert_keeps_first_value_and_size() {
        let cache = DecompCache::new();
        let key = key_for(42, 6, 2);
        cache.insert(key.clone(), vec![0, 1], 3);
        cache.insert(key.clone(), vec![0, 1], 3);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(cache.lookup(&key), Some((vec![0, 1], 3)));
    }

    #[test]
    fn carried_us_sum_to_the_total_whatever_the_call_lengths() {
        assert_eq!(us_carried(0, 999), 0);
        assert_eq!(us_carried(999, 1), 1);
        assert_eq!(us_carried(1500, 2499), 2);
        assert_eq!(us_carried(0, 1000), 1);
        // Calls of a few µs: flooring each one drops its remainder.
        let calls = [700u64, 300, 999, 1, 2500, 450, 50, 3333];
        let mut total = 0u64;
        let mut us = 0u64;
        for ns in calls {
            us += us_carried(total, ns);
            total += ns;
        }
        assert_eq!(total, 8333);
        assert_eq!(us, total / 1000);
        // Flooring each call would have lost 3 of the 8 µs.
        assert_eq!(calls.iter().map(|ns| ns / 1000).sum::<u64>(), 5);
    }

    #[test]
    fn covers_respects_arity_bounds() {
        let cache = DecompCache::new();
        assert!(cache.covers(&TruthTable::from_words(4, vec![0b1010])));
        let wide = TruthTable::zero(CACHE_MAX_VARS + 1);
        assert!(!cache.covers(&wide));
    }
}
