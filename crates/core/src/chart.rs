//! Decomposition charts.
//!
//! For a function `f(X, Y)` with bound (λ) set `X` and free (μ) set `Y`,
//! the decomposition chart has one column per assignment of `X` and one row
//! per assignment of `Y`. Two bound-set vertices are *compatible*
//! (Definition 2.1) iff their columns are identical; the distinct columns
//! are the compatible classes.

use crate::classes::CompatibleClasses;
use crate::CoreError;
use hyde_logic::truthtable::{promote_to_top, split_word_pair};
use hyde_logic::{Isf, TruthTable};

/// A materialized decomposition chart for a completely specified function.
///
/// The bound set is an ordered list of variable indices of `f`; column `c`
/// corresponds to the assignment where bound variable `i` receives bit `i`
/// of `c` (little-endian). The free set is the remaining variables in
/// ascending order, indexed the same way by rows.
#[derive(Debug, Clone)]
pub struct DecompositionChart {
    bound: Vec<usize>,
    free: Vec<usize>,
    /// Column patterns: `columns[c]` is the function of the free variables
    /// observed in column `c` (arity = `free.len()`).
    columns: Vec<TruthTable>,
    classes: CompatibleClasses,
}

impl DecompositionChart {
    /// Builds the chart of `f` for the given bound set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBoundSet`] if a bound variable is out of
    /// range, repeated, or the bound set is empty or covers all variables.
    pub fn new(f: &TruthTable, bound: &[usize]) -> Result<Self, CoreError> {
        let (bound, free) = split_bound_free(f.vars(), bound)?;
        let columns = column_patterns(f, &bound);
        let classes = CompatibleClasses::from_columns(&columns);
        Ok(DecompositionChart {
            bound,
            free,
            columns,
            classes,
        })
    }

    /// Bound (λ) set variables, in column bit order.
    pub fn bound(&self) -> &[usize] {
        &self.bound
    }

    /// Free (μ) set variables, ascending, in row bit order.
    pub fn free(&self) -> &[usize] {
        &self.free
    }

    /// Column pattern of column `c` as a function of the free variables.
    ///
    /// # Panics
    ///
    /// Panics if `c >= 2^bound.len()`.
    pub fn column(&self, c: usize) -> &TruthTable {
        &self.columns[c]
    }

    /// All column patterns in column order.
    pub fn columns(&self) -> &[TruthTable] {
        &self.columns
    }

    /// The compatible classes of the chart.
    pub fn classes(&self) -> &CompatibleClasses {
        &self.classes
    }

    /// Number of compatible classes — the decomposability cost used
    /// throughout the paper.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// Validates and splits a bound set, returning `(bound, free)`.
pub(crate) fn split_bound_free(
    vars: usize,
    bound: &[usize],
) -> Result<(Vec<usize>, Vec<usize>), CoreError> {
    if bound.is_empty() {
        return Err(CoreError::InvalidBoundSet("bound set is empty".into()));
    }
    if bound.len() >= vars {
        return Err(CoreError::InvalidBoundSet(format!(
            "bound set of size {} leaves no free variables (function has {vars})",
            bound.len()
        )));
    }
    let mut seen = vec![false; vars];
    for &v in bound {
        if v >= vars {
            return Err(CoreError::InvalidBoundSet(format!(
                "variable {v} out of range for {vars}-variable function"
            )));
        }
        if seen[v] {
            return Err(CoreError::InvalidBoundSet(format!("variable {v} repeated")));
        }
        seen[v] = true;
    }
    let free: Vec<usize> = (0..vars).filter(|&v| !seen[v]).collect();
    Ok((bound.to_vec(), free))
}

/// Extracts the column patterns of `f` for an ordered bound set: column
/// `c` fixes `bound[i]` to bit `i` of `c` and is a function of the other
/// variables in ascending order. One gather for all columns: the bound
/// variables are promoted to the top of the table (one word-level pass
/// each), after which column `c` is the `c`-th contiguous block.
pub(crate) fn column_patterns(f: &TruthTable, bound: &[usize]) -> Vec<TruthTable> {
    f.promote(bound).top_cofactors(bound.len())
}

/// A decomposition chart for an incompletely specified function.
///
/// Column entries can be don't cares, so compatibility (equal wherever both
/// are specified) is not transitive; the compatible classes of an ISF chart
/// come from the clique partitioning of [`crate::dc_assign`].
#[derive(Debug, Clone)]
pub struct IsfChart {
    bound: Vec<usize>,
    free: Vec<usize>,
    /// Column patterns as ISFs over the free variables.
    columns: Vec<Isf>,
}

impl IsfChart {
    /// Builds the ISF chart of `f` for the given bound set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DecompositionChart::new`].
    pub fn new(f: &Isf, bound: &[usize]) -> Result<Self, CoreError> {
        let (bound, free) = split_bound_free(f.vars(), bound)?;
        let on_cols = column_patterns(f.on_set(), &bound);
        let dc_cols = column_patterns(f.dc_set(), &bound);
        let columns: Vec<Isf> = on_cols
            .into_iter()
            .zip(dc_cols)
            .map(|(on, dc)| Isf::new(on, dc).expect("arities agree by construction"))
            .collect();
        Ok(IsfChart {
            bound,
            free,
            columns,
        })
    }

    /// Bound (λ) set variables.
    pub fn bound(&self) -> &[usize] {
        &self.bound
    }

    /// Free (μ) set variables.
    pub fn free(&self) -> &[usize] {
        &self.free
    }

    /// Column patterns.
    pub fn columns(&self) -> &[Isf] {
        &self.columns
    }

    /// Whether columns `a` and `b` are compatible: they agree on every row
    /// where both are specified.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn columns_compatible(&self, a: usize, b: usize) -> bool {
        let (ca, cb) = (&self.columns[a], &self.columns[b]);
        let both_care = !&(ca.dc_set() | cb.dc_set());
        ((ca.on_set() ^ cb.on_set()) & both_care).is_zero()
    }
}

/// Counts compatible classes of `f` under `bound` without keeping the chart.
///
/// This is the exact counter of λ-set selection. It never materializes
/// column truth tables: the bound variables are promoted to the top of
/// the table ([`TruthTable::promote`]), so each column becomes a
/// contiguous bit run, and the runs are sorted and deduplicated. Only
/// *distinctness* is compared, never column indices.
///
/// # Errors
///
/// Same conditions as [`DecompositionChart::new`].
pub fn class_count(f: &TruthTable, bound: &[usize]) -> Result<usize, CoreError> {
    let (bound, _free) = split_bound_free(f.vars(), bound)?;
    let n = f.vars();
    if n <= 6 {
        let mask = bound.iter().fold(0, |m, &v| m | 1 << v);
        return Ok(class_count_small(f, mask, usize::MAX, &mut Vec::new()));
    }
    let promoted = f.promote(&bound);
    let cols = promoted.as_words();
    let k = bound.len();
    let row_bits = n - k;
    if row_bits >= 6 {
        // Whole-word columns: sort and dedup the word runs.
        let mut runs: Vec<&[u64]> = cols.chunks_exact(1 << (row_bits - 6)).collect();
        runs.sort_unstable();
        runs.dedup();
        Ok(runs.len())
    } else {
        // Sub-word columns: extract each 2^row_bits-bit run into a key.
        let mask = (1u64 << (1usize << row_bits)) - 1;
        let mut keys: Vec<u64> = (0..1usize << k)
            .map(|c| {
                let bitpos = c << row_bits;
                (cols[bitpos >> 6] >> (bitpos & 63)) & mask
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        Ok(keys.len())
    }
}

/// Exact candidate scorer that amortizes table permutations across a
/// lexicographically ordered candidate stream and stops counting once a
/// candidate cannot win.
///
/// [`class_count`] promotes each bound variable with its own pass
/// over the table, so scoring `C(n, k)` candidates re-derives the same
/// partial permutations over and over. This scorer keeps a stack of
/// intermediate tables, one per promoted prefix variable (ascending
/// order, each variable's position adjusted for the prefix already
/// above it), and on the next candidate only redoes the passes past the
/// longest shared sorted-prefix. With whole-word columns the last (highest)
/// bound variable is never promoted: each block of the table under the
/// first `k - 1` variables holds the two columns that differ only in it,
/// and both are digested straight from that block. On a lexicographic
/// stream, where the last variable changes on almost every candidate, a
/// candidate then costs one read of the table and no copy. Candidates
/// are variable masks, so scoring one allocates nothing once the buffers
/// have grown.
///
/// Column dedup is a linear scan over the at most `2^k` distinct keys
/// seen so far, and [`Self::score`] returns its `limit` as soon as that
/// many distinct columns are seen. Whole-word columns are folded into
/// two independent 64-bit hash streams, word by word in column order,
/// and compared as 128-bit digests: equal columns always digest equal,
/// and two *distinct* columns collide only if both streams collide
/// (~`2^-128` per pair), so the count can understate [`class_count`]
/// only with negligible probability — and deterministically, since the
/// digests are a fixed function of the table. Ranking loops that need a
/// certified count recompute the selected winner with [`class_count`].
pub struct PrefixScorer<'f> {
    f: &'f TruthTable,
    /// Promoted prefix variables, ascending original positions.
    prefix: Vec<usize>,
    /// `bufs[j]` holds the table with `prefix[..=j]` promoted to the top.
    bufs: Vec<Vec<u64>>,
    keys: Vec<u64>,
    digests: Vec<u128>,
}

impl<'f> PrefixScorer<'f> {
    /// A scorer for candidates over `f`; buffers grow on first use.
    pub fn new(f: &'f TruthTable) -> Self {
        PrefixScorer {
            f,
            prefix: Vec::new(),
            bufs: Vec::new(),
            keys: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Compatible-class count of the bound set whose variables are the
    /// set bits of `bound`, capped at `limit`: `min(`[`class_count`]`,
    /// limit)`, unless two distinct columns collide in both hash streams
    /// (probability ~`2^-128` per pair, and a fixed function of `f` — the
    /// result is identical on every run and thread count either way).
    ///
    /// The mask is not validated: the caller checks its candidates once
    /// per search. It must be non-empty, name only variables of `f` and
    /// leave at least one variable free.
    pub fn score(&mut self, bound: u32, limit: usize) -> usize {
        let n = self.f.vars();
        debug_assert!(
            bound != 0 && bound >> n == 0 && (bound.count_ones() as usize) < n,
            "bound mask {bound:#x} invalid for a {n}-variable function"
        );
        if n <= 6 {
            return class_count_small(self.f, bound, limit, &mut self.keys);
        }
        let k = bound.count_ones() as usize;
        let row_bits = n - k;
        // Whole-word columns leave the last (highest) bound variable
        // unpromoted; sub-word columns promote all `k`.
        let promoted = if row_bits >= 6 {
            bound & !(1 << (31 - bound.leading_zeros()))
        } else {
            bound
        };
        self.promote_prefix(promoted);
        let src = match promoted.count_ones() as usize {
            0 => self.f.as_words(),
            depth => &self.bufs[depth - 1],
        };
        if row_bits >= 6 {
            // The other `k - 1` bound variables all start below the last
            // one, so promoting them moved it `k - 1` positions down.
            let pos = (bound ^ promoted).trailing_zeros() as usize - (k - 1);
            let cw = 1usize << (row_bits - 6);
            return count_split_columns(src, pos, cw, &mut self.digests, limit);
        }
        // Sub-word columns: extract each run into a key directly.
        let mask = (1u64 << (1usize << row_bits)) - 1;
        self.keys.clear();
        for c in 0..1usize << k {
            let bitpos = c << row_bits;
            let key = (src[bitpos >> 6] >> (bitpos & 63)) & mask;
            if insert_capped(&mut self.keys, key, limit) {
                return limit;
            }
        }
        self.keys.len()
    }

    /// Brings the promotion stack to the variables of `vars`, redoing only
    /// the passes past the prefix shared with the previous candidate.
    /// Afterwards `bufs[j]` holds `f` with the lowest `j + 1` of them
    /// promoted to the top.
    fn promote_prefix(&mut self, vars: u32) {
        let words = self.f.as_words();
        let mut rest = vars;
        let mut shared = 0;
        while shared < self.prefix.len() && self.prefix[shared] == rest.trailing_zeros() as usize {
            rest &= rest - 1;
            shared += 1;
        }
        self.prefix.truncate(shared);
        while self.bufs.len() < vars.count_ones() as usize {
            self.bufs.push(vec![0; words.len()]);
        }
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            // Promoting ascending: the `j` prefix variables already at
            // the top all started below `v`, so `v` sits `j` lower.
            let j = self.prefix.len();
            let pos = v - j;
            if j == 0 {
                promote_to_top(words, &mut self.bufs[0], pos);
            } else {
                let (lo, hi) = self.bufs.split_at_mut(j);
                promote_to_top(&lo[j - 1], &mut hi[0], pos);
            }
            self.prefix.push(v);
        }
    }
}

/// Counts the distinct whole-word columns of a bound set, capped at
/// `limit`, from `src`: the table with every bound variable but the last
/// promoted to the top, and the last one at `pos`. Block `b` of `2 * cw`
/// words holds columns `b` (last variable 0) and `b + 2^(k-1)` (last
/// variable 1), `cw` words each: alternating runs of `2^(pos-6)` words
/// when `pos >= 6`, else the [`split_word_pair`] halves of consecutive
/// word pairs. Both columns are digested in one read of the block, in the
/// word order [`promote_to_top`] would have written them.
fn count_split_columns(
    src: &[u64],
    pos: usize,
    cw: usize,
    digests: &mut Vec<u128>,
    limit: usize,
) -> usize {
    digests.clear();
    for block in src.chunks_exact(2 * cw) {
        let (mut d0, mut d1) = (ColumnDigest::SEED, ColumnDigest::SEED);
        if pos >= 6 {
            let stride = 1usize << (pos - 6);
            for runs in block.chunks_exact(2 * stride) {
                let (r0, r1) = runs.split_at(stride);
                for (&w0, &w1) in r0.iter().zip(r1) {
                    d0.push(w0);
                    d1.push(w1);
                }
            }
        } else {
            for pair in block.chunks_exact(2) {
                if let &[w0, w1] = pair {
                    let (lo, hi) = split_word_pair(w0, w1, pos);
                    d0.push(lo);
                    d1.push(hi);
                }
            }
        }
        if insert_capped(digests, d0.value(), limit) || insert_capped(digests, d1.value(), limit) {
            return limit;
        }
    }
    digests.len()
}

/// The running 128-bit digest of one whole-word column: its words folded
/// in order into two independent 64-bit streams, FNV-1a and a
/// Murmur-constant variant.
#[derive(Clone, Copy)]
struct ColumnDigest(u64, u64);

impl ColumnDigest {
    const SEED: Self = ColumnDigest(0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15);

    #[inline]
    fn push(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.1 = (self.1 ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }

    fn value(self) -> u128 {
        u128::from(self.0) << 64 | u128::from(self.1)
    }
}

/// Adds `key` to `seen` unless it is already there (a linear scan: `seen`
/// holds at most one key per chart column) and reports whether `seen`
/// has reached `limit` keys.
fn insert_capped<K: PartialEq>(seen: &mut Vec<K>, key: K, limit: usize) -> bool {
    if !seen.contains(&key) {
        seen.push(key);
    }
    seen.len() >= limit
}

/// Column extraction for single-word functions (`n <= 6`): at most 64
/// bit probes in all, cheaper than any setup. Returns the class count of
/// the bound set `bound` (a variable mask), capped at `limit`; `keys` is
/// scratch.
fn class_count_small(f: &TruthTable, bound: u32, limit: usize, keys: &mut Vec<u64>) -> usize {
    let word = f.as_words()[0];
    let free = !bound & ((1u32 << f.vars()) - 1);
    keys.clear();
    // `c` and `r` walk the sub-masks of `bound` and `free` in increasing
    // order, so every column reads its rows in the same order.
    let mut c = 0u32;
    loop {
        let mut key = 0u64;
        let mut r = 0u32;
        let mut row = 0;
        loop {
            key |= (word >> (c | r) & 1) << row;
            row += 1;
            r = r.wrapping_sub(free) & free;
            if r == 0 {
                break;
            }
        }
        if insert_capped(keys, key, limit) {
            return limit;
        }
        c = c.wrapping_sub(bound) & bound;
        if c == 0 {
            return keys.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f_ab_cd() -> TruthTable {
        (TruthTable::var(4, 0) & TruthTable::var(4, 1))
            | (TruthTable::var(4, 2) & TruthTable::var(4, 3))
    }

    #[test]
    fn chart_of_and_or() {
        let chart = DecompositionChart::new(&f_ab_cd(), &[0, 1]).unwrap();
        assert_eq!(chart.bound(), &[0, 1]);
        assert_eq!(chart.free(), &[2, 3]);
        assert_eq!(chart.class_count(), 2);
        // Columns 0..2 have pattern c&d, column 3 is constant 1.
        let cd = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        assert_eq!(*chart.column(0), cd);
        assert_eq!(*chart.column(3), TruthTable::one(2));
    }

    #[test]
    fn parity_has_two_classes_any_bound() {
        let f = TruthTable::from_fn(6, |m| m.count_ones() % 2 == 1);
        for bound in [[0usize, 1, 2], [1, 3, 5], [0, 2, 4]] {
            assert_eq!(class_count(&f, &bound).unwrap(), 2);
        }
    }

    #[test]
    fn nondecomposable_function_has_many_classes() {
        // A random-looking function usually has close to 2^|bound| classes.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let f = TruthTable::random(8, &mut rng);
        let n = class_count(&f, &[0, 1, 2, 3]).unwrap();
        assert!(n > 8, "random function had only {n} classes");
    }

    #[test]
    fn bound_order_affects_column_indexing_not_classes() {
        let f = f_ab_cd();
        let a = DecompositionChart::new(&f, &[0, 1]).unwrap();
        let b = DecompositionChart::new(&f, &[1, 0]).unwrap();
        assert_eq!(a.class_count(), b.class_count());
    }

    #[test]
    fn invalid_bound_sets_rejected() {
        let f = f_ab_cd();
        assert!(DecompositionChart::new(&f, &[]).is_err());
        assert!(DecompositionChart::new(&f, &[0, 0]).is_err());
        assert!(DecompositionChart::new(&f, &[9]).is_err());
        assert!(DecompositionChart::new(&f, &[0, 1, 2, 3]).is_err());
    }

    #[test]
    fn class_count_matches_chart() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let f = TruthTable::random(6, &mut rng);
            for bound in [[0usize, 3], [1, 4], [2, 5]] {
                let fast = class_count(&f, &bound).unwrap();
                let chart = DecompositionChart::new(&f, &bound).unwrap();
                assert_eq!(fast, chart.class_count());
            }
        }
    }

    #[test]
    fn isf_chart_compatibility() {
        // f over 3 vars, bound {0}: columns over (x1,x2).
        // on = {m: x0=0, x1=1}, dc = {m: x0=1}.
        let on = TruthTable::from_fn(3, |m| m & 1 == 0 && m >> 1 & 1 == 1);
        let dc = TruthTable::from_fn(3, |m| m & 1 == 1);
        let f = Isf::new(on, dc).unwrap();
        let chart = IsfChart::new(&f, &[0]).unwrap();
        // Column 1 is all-dc, so compatible with column 0.
        assert!(chart.columns_compatible(0, 1));
        assert!(chart.columns_compatible(0, 0));
    }

    #[test]
    fn isf_chart_incompatibility() {
        // Column 0 says row0=1, column 1 says row0=0 -> incompatible.
        let on = TruthTable::from_fn(2, |m| m == 0); // x0=0,x1=0 -> 1
        let f = Isf::completely_specified(on);
        let chart = IsfChart::new(&f, &[0]).unwrap();
        assert!(!chart.columns_compatible(0, 1));
    }

    /// Scalar oracle of [`column_patterns`], the formulation it replaced:
    /// each column is `f` cofactored on every bound variable in turn,
    /// then gathered minterm by minterm onto the free variables.
    fn column_patterns_scalar(f: &TruthTable, bound: &[usize]) -> Vec<TruthTable> {
        let (bound, free) = split_bound_free(f.vars(), bound).unwrap();
        (0..1usize << bound.len())
            .map(|c| {
                let mut col = f.clone();
                for (i, &v) in bound.iter().enumerate() {
                    col = col.cofactor(v, c >> i & 1 == 1);
                }
                TruthTable::from_fn(free.len(), |r| {
                    let full = free
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| r >> i & 1 == 1)
                        .fold(0u32, |m, (_, &v)| m | 1 << v);
                    col.eval(full)
                })
            })
            .collect()
    }

    /// Reference counter: the original materializing implementation.
    fn class_count_naive(f: &TruthTable, bound: &[usize]) -> usize {
        let distinct: std::collections::HashSet<TruthTable> =
            column_patterns_scalar(f, bound).into_iter().collect();
        distinct.len()
    }

    #[test]
    fn column_patterns_match_scalar_oracle_in_any_bound_order() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC015);
        // n up to 12 with k up to 5: row counts from 2^1 to 2^11, both
        // sub-word (< 6 free variables) and whole-word columns.
        for n in 2..=12usize {
            for _ in 0..4 {
                let f = TruthTable::random(n, &mut rng);
                let mut vars: Vec<usize> = (0..n).collect();
                vars.shuffle(&mut rng);
                let k = rng.gen_range(1..n.min(6));
                // Shuffled, so bound orders are mostly non-ascending.
                let bound = &vars[..k];
                let chart = DecompositionChart::new(&f, bound).unwrap();
                let oracle = column_patterns_scalar(&f, bound);
                assert_eq!(chart.columns(), oracle.as_slice(), "n {n} bound {bound:?}");
                assert_eq!(
                    chart.classes(),
                    &CompatibleClasses::from_columns(&oracle),
                    "n {n} bound {bound:?}"
                );
            }
        }
    }

    #[test]
    fn packed_counter_matches_naive_reference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
        let bounds: &[&[usize]] = &[
            &[0],
            &[0, 1],
            &[0, 1, 2],
            &[1, 3, 5],
            &[0, 2, 4, 6],
            &[0, 1, 2, 3, 4],
            &[2, 5, 6, 7],
            &[6, 7],
            &[0, 7],
        ];
        for n in 7..=10 {
            for _ in 0..6 {
                let f = TruthTable::random(n, &mut rng);
                for bound in bounds {
                    if bound.iter().any(|&v| v >= n) || bound.len() >= n {
                        continue;
                    }
                    assert_eq!(
                        class_count(&f, bound).unwrap(),
                        class_count_naive(&f, bound),
                        "n={n} bound {bound:?}"
                    );
                }
            }
        }
        // Structured functions too (naive-random charts are mostly full).
        let parity = TruthTable::from_fn(9, |m| m.count_ones() % 2 == 1);
        assert_eq!(class_count(&parity, &[0, 3, 8]).unwrap(), 2);
        let f = (TruthTable::var(8, 0) & TruthTable::var(8, 1))
            | (TruthTable::var(8, 6) & TruthTable::var(8, 7));
        assert_eq!(
            class_count(&f, &[0, 1]).unwrap(),
            class_count_naive(&f, &[0, 1])
        );
    }

    #[test]
    fn packed_counter_handles_subword_and_whole_word_rows() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let f = TruthTable::random(8, &mut rng);
        // 5 bound vars -> 8-bit rows (sub-word path).
        let b5 = [0usize, 2, 4, 5, 7];
        assert_eq!(class_count(&f, &b5).unwrap(), class_count_naive(&f, &b5));
        // 2 bound vars -> 64-bit rows (whole-word path).
        let b2 = [3usize, 4];
        assert_eq!(class_count(&f, &b2).unwrap(), class_count_naive(&f, &b2));
    }

    fn mask_of(bound: &[usize]) -> u32 {
        bound.iter().map(|&v| 1u32 << v).sum()
    }

    /// Sorted `k`-subsets of `0..n` that put the last bound variable at
    /// every kind of position the whole-word scorer splits on: inside a
    /// word (`pos < 6`), at one-word runs (`pos = 6`) and at longer runs
    /// (`pos > 6`), where `pos = last - (k - 1)`; then `extra` random ones.
    fn bound_sets(
        n: usize,
        k: usize,
        extra: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<Vec<usize>> {
        use rand::seq::SliceRandom;
        let mut sets = Vec::new();
        for last in [k - 1, k + 4, k + 5, k + 6, n - 1] {
            if last >= n {
                continue;
            }
            let mut below: Vec<usize> = (0..last).collect();
            below.shuffle(rng);
            let mut b = below[..k - 1].to_vec();
            b.push(last);
            b.sort_unstable();
            sets.push(b);
        }
        let vars: Vec<usize> = (0..n).collect();
        for _ in 0..extra {
            let mut v = vars.clone();
            v.shuffle(rng);
            let mut b = v[..k].to_vec();
            b.sort_unstable();
            sets.push(b);
        }
        sets
    }

    #[test]
    fn prefix_scorer_matches_class_count_in_any_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        // n <= 11 reaches the sub-word path; n >= 13 is whole-word only,
        // at the widths the suite's searches reach.
        for n in [5usize, 7, 9, 11, 13, 16, 18] {
            let f = TruthTable::random(n, &mut rng);
            let mut scorer = PrefixScorer::new(&f);
            // Lexicographic stream (maximal prefix reuse), then a shuffled
            // stream (stack constantly invalidated) — both must agree.
            for k in 2..=6usize {
                if k >= n {
                    continue;
                }
                let extra = if n >= 16 { 4 } else { 12 };
                let mut cands = bound_sets(n, k, extra, &mut rng);
                cands.shuffle(&mut rng);
                let mut lex = cands.clone();
                lex.sort();
                for c in lex.iter().chain(cands.iter()) {
                    assert_eq!(
                        scorer.score(mask_of(c), usize::MAX),
                        class_count(&f, c).unwrap(),
                        "n {n} bound {c:?}"
                    );
                }
            }
        }
        // Structured function: heavy column duplication means most
        // digests land in equal runs.
        let g = (TruthTable::var(9, 0) & TruthTable::var(9, 7)) ^ TruthTable::var(9, 3);
        let mut scorer = PrefixScorer::new(&g);
        for bound in [
            vec![0, 7],
            vec![1, 2, 4],
            vec![0, 3, 7, 8],
            vec![5, 6],
            vec![0, 1, 2],
        ] {
            assert_eq!(
                scorer.score(mask_of(&bound), usize::MAX),
                class_count(&g, &bound).unwrap(),
                "structured bound {bound:?}"
            );
        }
    }

    #[test]
    fn capped_score_is_the_class_count_clamped_to_the_limit() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D17);
        // n = 6 is the single-word path; n = 9 at k = 5 has sub-word
        // columns and n = 12 at k = 5 whole-word ones; n >= 13 sweeps
        // k = 2..=6 at the suite's widths.
        let mut cases = vec![(6usize, 3usize), (6, 5), (9, 5), (12, 5), (12, 3)];
        for n in [13, 16, 18] {
            cases.extend((2..=6).map(|k| (n, k)));
        }
        for (n, k) in cases {
            // Random tables (near 2^k classes) and structured ones: each
            // column drawn from a few patterns, so counts span 1..=2^k.
            let mut tables = vec![TruthTable::random(n, &mut rng)];
            let pattern_counts: &[usize] = if n >= 13 { &[2, 5] } else { &[1, 2, 5, 13] };
            for &patterns in pattern_counts {
                let pool: Vec<TruthTable> = (0..patterns)
                    .map(|_| TruthTable::random(n, &mut rng))
                    .collect();
                let pick: Vec<usize> = (0..1 << k).map(|_| rng.gen_range(0..patterns)).collect();
                tables.push(TruthTable::from_fn(n, |m| {
                    pool[pick[(m & ((1 << k) - 1)) as usize]].eval(m >> k << k)
                }));
            }
            for f in &tables {
                let mut scorer = PrefixScorer::new(f);
                let mut bounds = if n >= 13 {
                    bound_sets(n, k, 1, &mut rng)
                } else {
                    let vars: Vec<usize> = (0..n).collect();
                    (0..6)
                        .map(|_| {
                            let mut v = vars.clone();
                            v.shuffle(&mut rng);
                            let mut bound = v[..k].to_vec();
                            bound.sort_unstable();
                            bound
                        })
                        .collect()
                };
                // The low k variables select the planted pattern.
                bounds.push((0..k).collect());
                for bound in bounds {
                    let exact = class_count(f, &bound).unwrap();
                    // Every limit up to 33 on the narrow tables; around the
                    // count and the 2^k ceiling on the wide ones.
                    let limits: Vec<usize> = if n >= 13 {
                        let top = 1 << k;
                        vec![1, 2, exact - 1, exact, exact + 1, top, top + 1]
                    } else {
                        (1..=33).collect()
                    };
                    for limit in limits.into_iter().filter(|&l| l > 0) {
                        assert_eq!(
                            scorer.score(mask_of(&bound), limit),
                            exact.min(limit),
                            "n {n} bound {bound:?} limit {limit}"
                        );
                    }
                }
            }
        }
    }

    /// The contiguous-run digests the whole-word scorer replaces: every
    /// bound variable promoted to the top, then each column's `cw`-word
    /// run digested in order, distinct digests sorted.
    fn contiguous_digests(f: &TruthTable, bound: &[usize]) -> Vec<u128> {
        let promoted = f.promote(bound);
        let cw = 1usize << (f.vars() - bound.len() - 6);
        let mut digests: Vec<u128> = promoted
            .as_words()
            .chunks_exact(cw)
            .map(|col| {
                let mut d = ColumnDigest::SEED;
                for &w in col {
                    d.push(w);
                }
                d.value()
            })
            .collect();
        digests.sort_unstable();
        digests.dedup();
        digests
    }

    #[test]
    fn split_digests_equal_the_contiguous_run_digests() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD16E);
        for n in [7usize, 13, 16] {
            // A random table, and one whose low half repeats, so some
            // columns are equal and their digests must be too.
            let f = TruthTable::random(n, &mut rng);
            let low = rng.gen_range(1..n - 1);
            let g = TruthTable::from_fn(n, |m| f.eval(m & !(1 << low)));
            for t in [&f, &g] {
                let mut scorer = PrefixScorer::new(t);
                let mut stream: Vec<Vec<usize>> = (1..=6.min(n - 6))
                    .flat_map(|k| bound_sets(n, k, 6, &mut rng))
                    .collect();
                stream.sort();
                for bound in &stream {
                    let count = scorer.score(mask_of(bound), usize::MAX);
                    let mut fused = scorer.digests.clone();
                    fused.sort_unstable();
                    assert_eq!(fused, contiguous_digests(t, bound), "n {n} bound {bound:?}");
                    assert_eq!(count, fused.len());
                }
            }
        }
    }

    #[test]
    fn chart_agrees_with_bdd_cut() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..5 {
            let f = TruthTable::random(7, &mut rng);
            let mut bdd = hyde_bdd::Bdd::new(7);
            let fr = bdd.from_fn(|m| f.eval(m));
            for bound in [[0usize, 1, 2], [2, 4, 6], [1, 3, 5]] {
                assert_eq!(
                    class_count(&f, &bound).unwrap(),
                    bdd.compatible_class_count(fr, &bound),
                    "bound {bound:?}"
                );
            }
        }
    }
}
