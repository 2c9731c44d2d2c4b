//! NPN canonization of truth tables.
//!
//! Two functions are NPN-equivalent when one becomes the other under some
//! combination of input Negation, input Permutation, and output Negation.
//! Everything the λ-search computes — compatible class counts, best bound
//! sets — is invariant under that equivalence up to relabeling, so the
//! decomposition cache ([`crate::dcache`]) keys its entries on a canonical
//! representative of the orbit:
//!
//! - `n <= 6` (single-word tables): **exact** — the true minimum table
//!   over all `2 · 2^n · n!` transforms.
//! - `n > 6`: **greedy signature-based** — output polarity by minterm
//!   count, per-input polarity by cofactor weight, input order by sorted
//!   cofactor signatures with one pairwise refinement round. Greedy
//!   canonization may map equivalent functions to different
//!   representatives (lower cache hit rate), but never maps inequivalent
//!   functions together, so cache correctness is unaffected.
//!
//! The recorded [`NpnTransform`] is the witness: applying it to the input
//! reproduces the canonical table exactly, which is what lets cached
//! results be translated back into the original variable space.
//!
//! # The witness contract
//!
//! A table with symmetries reaches its minimum under several transforms,
//! and [`NpnTransform::bound_to_original`] maps a cached bound set back
//! through whichever one is recorded, so the choice decides which of
//! several tied bound sets a caller gets. The exact canonizer therefore
//! fixes it: the witness is the **first transform in enumeration order**
//! that reaches the minimum. The order walks the *phases* — one phase is
//! an (output polarity, input-negation mask) pair, output polarity
//! outermost, masks `0..2^n` ascending — and within a phase the `n!`
//! permutations along a Steinhaus–Johnson–Trotter adjacent-transposition
//! tour (`SJT_TOURS`; one word-level delta-swap per step). Enumerating
//! all `2 · 2^n · n!` transforms in that order and keeping the first
//! strict improvement gives exactly this result; that reference survives
//! as the test oracle.
//!
//! # Pruning
//!
//! Input permutation preserves the Hamming weight of every minterm index,
//! so a phase's count of ones per weight class is the same for every
//! table it reaches. Packing each class's ones into that class's lowest
//! minterms gives the smallest table with those counts: a lower bound on
//! the phase. The search runs in two passes:
//!
//! 1. **The minimum.** Phases are walked in ascending order of their
//!    packed bound. The pass stops at the first phase whose bound is not
//!    below the smallest table found so far, because no later phase can
//!    reach a smaller one.
//! 2. **The witness.** Phases are walked in enumeration order. A phase
//!    reaches the minimum only if its permutation invariants equal the
//!    minimum's own: the ones per weight class, and the sorted
//!    per-variable profiles of the ones per weight class among the
//!    minterms with that variable set. Every other phase is skipped
//!    without a tour. The first tour position equal to the minimum is the
//!    reference witness, because every transform before it in
//!    enumeration order reaches a different table.
//!
//! The greedy canonizer measures each cofactor weight once: negating a
//! variable leaves the others' weights alone and complements its own.
//! Pair weights are measured only for variables whose weights tie.

use hyde_logic::TruthTable;

/// A witness transform mapping a function onto its canonical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NpnTransform {
    /// `perm[v]` is the canonical position of original variable `v`.
    pub perm: Vec<usize>,
    /// Bit `v`: original variable `v` is negated before permuting.
    pub input_neg: u32,
    /// The output is complemented.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transform over `n` variables.
    pub fn identity(n: usize) -> Self {
        NpnTransform {
            perm: (0..n).collect(),
            input_neg: 0,
            output_neg: false,
        }
    }

    /// Maps a set of canonical variable positions back to the original
    /// variables (sorted ascending). This is how a cached bound set,
    /// found on the canonical table, is translated to the caller's
    /// function: variable `v` of the original participates iff its
    /// canonical position `perm[v]` does.
    pub fn bound_to_original(&self, canon_bound: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.perm.len())
            .filter(|&v| canon_bound.contains(&self.perm[v]))
            .collect();
        out.sort_unstable();
        out
    }
}

/// A canonical table plus the transform that produced it.
#[derive(Debug, Clone)]
pub struct NpnCanon {
    /// The canonical representative of the NPN orbit.
    pub table: TruthTable,
    /// Witness: `apply(f, &transform) == table`.
    pub transform: NpnTransform,
}

/// Applies `t` to `f`: the result at minterm `y` is
/// `f(x) ^ t.output_neg`, where original variable `v` reads bit
/// `t.perm[v]` of `y`, XORed with bit `v` of `t.input_neg`.
///
/// This is the reference semantics every canonizer is tested against; it
/// is `O(n · 2^n)` and not meant for hot paths.
pub fn apply(f: &TruthTable, t: &NpnTransform) -> TruthTable {
    let n = f.vars();
    assert_eq!(t.perm.len(), n, "transform arity mismatch");
    TruthTable::from_fn(n, |m| {
        let mut m0 = 0u32;
        for v in 0..n {
            m0 |= ((m >> t.perm[v] & 1) ^ (t.input_neg >> v & 1)) << v;
        }
        f.eval(m0) != t.output_neg
    })
}

/// Canonizes `f`: exact for `n <= 6`, greedy signature-based above.
pub fn canonize(f: &TruthTable) -> NpnCanon {
    if f.vars() <= 6 {
        exact_canonize(f)
    } else {
        greedy_canonize(f)
    }
}

// ---------------------------------------------------------------------
// Exact canonizer (n <= 6, single-word tables)
// ---------------------------------------------------------------------

/// Delta-swap masks for exchanging adjacent index bits `p` and `p+1` of
/// a 64-bit table: bits `i` with `(i>>p)&1 == 1 && (i>>(p+1))&1 == 0`,
/// which pair with `i + 2^p`.
const fn swap_mask(p: usize) -> u64 {
    let mut m = 0u64;
    let mut i = 0usize;
    while i < 64 {
        if (i >> p) & 1 == 1 && (i >> (p + 1)) & 1 == 0 {
            m |= 1u64 << i;
        }
        i += 1;
    }
    m
}

const SWAP_MASKS: [u64; 5] = [
    swap_mask(0),
    swap_mask(1),
    swap_mask(2),
    swap_mask(3),
    swap_mask(4),
];

/// Masks of the minterms with index bit `v` clear (the "lo half" of each
/// `2^(v+1)` block), used to negate variable `v` in place.
const fn lo_mask(v: usize) -> u64 {
    let mut m = 0u64;
    let mut i = 0usize;
    while i < 64 {
        if (i >> v) & 1 == 0 {
            m |= 1u64 << i;
        }
        i += 1;
    }
    m
}

const LO_MASKS: [u64; 6] = [
    lo_mask(0),
    lo_mask(1),
    lo_mask(2),
    lo_mask(3),
    lo_mask(4),
    lo_mask(5),
];

/// Exchanges index bits `p` and `p+1` of a packed single-word table.
#[inline]
fn swap_adjacent_u64(w: u64, p: usize) -> u64 {
    let d = 1u32 << p;
    let t = (w ^ (w >> d)) & SWAP_MASKS[p];
    w ^ t ^ (t << d)
}

/// Negates index bit `v` of a packed single-word table.
#[inline]
fn negate_var_u64(w: u64, v: usize) -> u64 {
    let sh = 1u32 << v;
    let m = LO_MASKS[v];
    ((w & m) << sh) | ((w >> sh) & m)
}

/// Minterms of index bit `v` set, for `v < 6` (the empty mask above).
fn hi_mask(v: usize) -> u64 {
    LO_MASKS.get(v).map_or(0, |m| !m)
}

const fn factorial(n: usize) -> usize {
    let mut p = 1;
    let mut i = 2;
    while i <= n {
        p *= i;
        i += 1;
    }
    p
}

/// Room for the longest tour, `6! - 1` swaps.
const TOUR_CAP: usize = 719;

/// The Steinhaus–Johnson–Trotter adjacent-transposition tours:
/// `SJT_TOURS[n]` holds, in its first `n! - 1` entries, swaps (`i`
/// means "exchange positions `i` and `i+1`") that from any starting
/// arrangement of `n` elements visit all `n!` permutations, each reached
/// from the previous by one swap. Built at compile time by the recursion
/// the tour is defined by: the largest element sweeps from the back to
/// the front, one swap of the `n - 1` tour advances the rest, it sweeps
/// back, and so on alternately.
const SJT_TOURS: [[u8; TOUR_CAP]; 7] = sjt_tours();

const fn sjt_tours() -> [[u8; TOUR_CAP]; 7] {
    // Tours 0 and 1 are empty and tour 2 is the single swap `0`, which
    // the zeroed table already holds.
    let mut tours = [[0u8; TOUR_CAP]; 7];
    let mut n = 3;
    while n <= 6 {
        let mut out = [0u8; TOUR_CAP];
        let mut len = 0;
        let mut p = n - 1;
        while p > 0 {
            p -= 1;
            out[len] = p as u8; // sa:allow(SA003): const evaluation; a bad index fails the build
            len += 1;
        }
        let inner = tours[n - 1]; // sa:allow(SA003): const evaluation; a bad index fails the build
        let mut i = 0;
        let mut at_front = true;
        while i < factorial(n - 1) - 1 {
            let s = inner[i]; // sa:allow(SA003): const evaluation; a bad index fails the build
            let mut q = 0;
            while q < n {
                // First the shifted inner swap, then the next sweep.
                let swap = match (q, at_front) {
                    (0, true) => s + 1,
                    (0, false) => s,
                    (_, true) => (q - 1) as u8,
                    (_, false) => (n - 1 - q) as u8,
                };
                out[len] = swap; // sa:allow(SA003): const evaluation; a bad index fails the build
                len += 1;
                q += 1;
            }
            at_front = !at_front;
            i += 1;
        }
        tours[n] = out; // sa:allow(SA003): const evaluation; a bad index fails the build
        n += 1;
    }
    tours
}

/// The SJT tour over `n <= 6` elements (empty for `n <= 1`).
fn sjt_tour(n: usize) -> &'static [u8] {
    let len = factorial(n) - 1;
    SJT_TOURS.get(n).and_then(|t| t.get(..len)).unwrap_or(&[])
}

/// Minterms of a 64-minterm table whose index has Hamming weight `h`.
const fn weight_mask(h: u32) -> u64 {
    let mut m = 0u64;
    let mut i = 0u64;
    while i < 64 {
        if i.count_ones() == h {
            m |= 1u64 << i;
        }
        i += 1;
    }
    m
}

const WEIGHT_MASKS: [u64; 7] = [
    weight_mask(0),
    weight_mask(1),
    weight_mask(2),
    weight_mask(3),
    weight_mask(4),
    weight_mask(5),
    weight_mask(6),
];

/// `PACKED[h][c]`: the `c` lowest minterms of weight `h` (`c` up to
/// `C(6, 3) = 20`). The weight-`h` minterms of an `m`-variable table are
/// the lowest ones of weight `h` overall, so one table serves every
/// `m <= 6`.
const PACKED: [[u64; 21]; 7] = packed_table();

const fn packed_table() -> [[u64; 21]; 7] {
    let mut t = [[0u64; 21]; 7];
    let mut h = 0;
    while h < 7 {
        let mut row = [0u64; 21];
        let mut acc = 0u64;
        let mut c = 1;
        let mut i = 0u64;
        while i < 64 {
            if i.count_ones() == h as u32 {
                acc |= 1u64 << i;
                row[c] = acc; // sa:allow(SA003): const evaluation; a bad index fails the build
                c += 1;
            }
            i += 1;
        }
        t[h] = row; // sa:allow(SA003): const evaluation; a bad index fails the build
        h += 1;
    }
    t
}

/// The `c` lowest minterms of weight `h`; empty for an `h` out of range
/// (only ever asked with `c = 0`).
fn packed(h: usize, c: u32) -> u64 {
    PACKED
        .get(h)
        .and_then(|row| row.get(c as usize))
        .copied()
        .unwrap_or(0)
}

/// Ones of `w` per weight class, 5 bits per class (at most 20 each).
fn weight_counts(w: u64) -> u64 {
    WEIGHT_MASKS
        .iter()
        .fold(0, |acc, &m| acc << 5 | u64::from((w & m).count_ones()))
}

/// Per variable, the ones of `w` per weight class among the minterms
/// with that variable set, 4 bits per class (at most `C(5, 2) = 10`
/// each), sorted: a permutation of the inputs permutes the profiles.
fn cofactor_profiles(w: u64, n: usize) -> [u32; 6] {
    let mut profiles = [0u32; 6];
    for (v, profile) in profiles.iter_mut().enumerate().take(n) {
        let hi = w & hi_mask(v);
        *profile = WEIGHT_MASKS
            .iter()
            .fold(0, |acc, &m| acc << 4 | (hi & m).count_ones());
    }
    profiles.sort_unstable();
    profiles
}

/// The table with the ones of `counts` (as [`weight_counts`] packs them)
/// in each weight class's lowest minterms: no permutation of a table
/// with these counts is smaller.
fn packed_bound(counts: u64) -> u64 {
    (0..7).fold(0, |acc, h| {
        let c = (counts >> (5 * (6 - h))) & 31;
        acc | packed(h, c as u32)
    })
}

/// The smallest table `w` reaches along the tour.
fn tour_min(mut w: u64, tour: &[u8]) -> u64 {
    let mut best = w;
    for &s in tour {
        w = swap_adjacent_u64(w, usize::from(s));
        best = best.min(w);
    }
    best
}

/// The number of tour swaps after which `w` first equals `target`.
fn tour_position(mut w: u64, tour: &[u8], target: u64) -> Option<usize> {
    if w == target {
        return Some(0);
    }
    for (i, &s) in tour.iter().enumerate() {
        w = swap_adjacent_u64(w, usize::from(s));
        if w == target {
            return Some(i + 1);
        }
    }
    None
}

/// Exact NPN canonical form for `n <= 6`: the numerically smallest packed
/// table over the whole orbit, with the first witness transform in
/// enumeration order (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `f.vars() > 6`.
pub fn exact_canonize(f: &TruthTable) -> NpnCanon {
    let n = f.vars();
    assert!(n <= 6, "exact_canonize is limited to 6 variables");
    let size_mask = u64::MAX >> (64 - (1u32 << n));
    let base = f.as_words().first().copied().unwrap_or(0) & size_mask;
    let tour = sjt_tour(n);
    // Phase `o << n | neg` is the table under output polarity `o` and
    // input-negation mask `neg`: the masks double up one variable at a
    // time, then the complemented half follows.
    let phase_count = 2usize << n;
    let mut phases = [0u64; 128];
    if let Some(first) = phases.first_mut() {
        *first = base;
    }
    for v in 0..n {
        let (done, next) = phases.split_at_mut(1 << v);
        for (dst, &src) in next.iter_mut().zip(done.iter()) {
            *dst = negate_var_u64(src, v);
        }
    }
    let (pos, neg) = phases.split_at_mut(phase_count / 2);
    for (dst, &src) in neg.iter_mut().zip(pos.iter()) {
        *dst = !src & size_mask;
    }
    let phases = phases.get(..phase_count).unwrap_or(&[]);

    // Pass 1: the minimum table. Phases go by ascending packed bound
    // until the next bound is not below the minimum.
    let mut order: Vec<(u64, u64)> = phases
        .iter()
        .map(|&w| (packed_bound(weight_counts(w)), w))
        .collect();
    order.sort_unstable();
    let mut min = u64::MAX;
    for &(bound, w) in &order {
        if bound >= min {
            break;
        }
        min = min.min(tour_min(w, tour));
    }

    // Pass 2: the first transform in enumeration order reaching it.
    let counts = weight_counts(min);
    let profiles = cofactor_profiles(min, n);
    let witness = phases.iter().enumerate().find_map(|(phase, &w)| {
        if weight_counts(w) != counts || cofactor_profiles(w, n) != profiles {
            return None;
        }
        tour_position(w, tour, min).map(|steps| (phase, steps))
    });
    // The minimum was reached from some phase, so a witness exists.
    let (phase, steps) = witness.unwrap_or((0, 0));
    // occ[p] is the original variable at canonical position p.
    let mut occ: Vec<usize> = (0..n).collect();
    for &s in tour.iter().take(steps) {
        occ.swap(usize::from(s), usize::from(s) + 1);
    }
    NpnCanon {
        table: TruthTable::from_words(n, vec![min]),
        transform: NpnTransform {
            perm: inverse(&occ),
            input_neg: (phase & ((1 << n) - 1)) as u32,
            output_neg: phase >> n == 1,
        },
    }
}

/// The inverse of a permutation given as `occ[p] = v`: `perm[v] = p`.
fn inverse(occ: &[usize]) -> Vec<usize> {
    (0..occ.len())
        .map(|v| occ.iter().position(|&x| x == v).unwrap_or(v))
        .collect()
}

// ---------------------------------------------------------------------
// Greedy canonizer (n > 6, word-array tables)
// ---------------------------------------------------------------------

/// The minterms of word `i` of a word-array table with variable `v` set.
fn var_set(i: usize, v: usize) -> u64 {
    match v.checked_sub(6) {
        None => hi_mask(v),
        Some(b) if (i >> b) & 1 == 1 => u64::MAX,
        Some(_) => 0,
    }
}

/// Number of minterms with variable `v` = 1 on which `words` is true.
fn cofactor_ones(words: &[u64], v: usize) -> u64 {
    words
        .iter()
        .enumerate()
        .map(|(i, w)| u64::from((w & var_set(i, v)).count_ones()))
        .sum()
}

/// Like [`cofactor_ones`] but restricted to minterms where `u` = 1 too.
fn pair_ones(words: &[u64], v: usize, u: usize) -> u64 {
    words
        .iter()
        .enumerate()
        .map(|(i, w)| u64::from((w & var_set(i, v) & var_set(i, u)).count_ones()))
        .sum()
}

/// Negates variable `v` of a packed word-array table in place.
fn negate_var_words(words: &mut [u64], v: usize) {
    if v >= 6 {
        let stride = 1usize << (v - 6);
        for chunk in words.chunks_mut(2 * stride) {
            let (a, b) = chunk.split_at_mut(stride);
            a.swap_with_slice(b);
        }
    } else {
        for w in words.iter_mut() {
            *w = negate_var_u64(*w, v);
        }
    }
}

/// Greedy signature-based canonical form for `n > 6`.
fn greedy_canonize(f: &TruthTable) -> NpnCanon {
    let n = f.vars();
    let total = 1u64 << n;
    let mut words: Vec<u64> = f.as_words().to_vec();
    // Output polarity: minority of ones (ties keep the original).
    let ones: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
    let output_neg = ones * 2 > total;
    if output_neg {
        for w in &mut words {
            *w = !*w;
        }
    }
    // Input polarities: each variable's positive cofactor carries the
    // minority of the ones (ties keep the original polarity). Negating
    // one variable leaves every other variable's cofactor weight as it
    // is, and a negated variable's weight becomes the complement.
    let mut input_neg = 0u32;
    let now_ones = if output_neg { total - ones } else { ones };
    let mut sigs: Vec<u64> = (0..n).map(|v| cofactor_ones(&words, v)).collect();
    for (v, sig) in sigs.iter_mut().enumerate() {
        if *sig * 2 > now_ones {
            input_neg |= 1 << v;
            negate_var_words(&mut words, v);
            *sig = now_ones - *sig;
        }
    }
    // Input order: ascending by (cofactor weight, pairwise refinement).
    // The refinement vector is each tied variable's sorted multiset of
    // pair weights, which is permutation-invariant over the tied group.
    // The sorts are stable, so unresolved ties keep ascending original
    // order: the result is still deterministic, just not a true orbit
    // invariant.
    let sig = |v: &usize| sigs.get(*v).copied();
    let mut final_order: Vec<usize> = (0..n).collect();
    final_order.sort_by_key(sig);
    for run in final_order.chunk_by_mut(|a, b| sig(a) == sig(b)) {
        if run.len() > 1 {
            run.sort_by_cached_key(|&v| {
                let mut p: Vec<u64> = (0..n)
                    .filter(|&u| u != v)
                    .map(|u| pair_ones(&words, v, u))
                    .collect();
                p.sort_unstable();
                p
            });
        }
    }
    // Promoting every variable in final_order leaves final_order[j] at
    // position j.
    let table = TruthTable::from_words(n, words).promote(&final_order);
    NpnCanon {
        table,
        transform: NpnTransform {
            perm: inverse(&final_order),
            input_neg,
            output_neg,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    // -----------------------------------------------------------------
    // The enumerate-all reference canonizers, kept as oracles.
    // -----------------------------------------------------------------

    /// The SJT tour by its recursive definition.
    fn sjt_swaps(n: usize) -> Vec<usize> {
        if n <= 1 {
            return Vec::new();
        }
        if n == 2 {
            return vec![0];
        }
        let inner = sjt_swaps(n - 1);
        let mut out = Vec::with_capacity(factorial(n) - 1);
        out.extend((0..n - 1).rev());
        let mut at_front = true;
        for &s in &inner {
            out.push(if at_front { s + 1 } else { s });
            if at_front {
                out.extend(0..n - 1);
            } else {
                out.extend((0..n - 1).rev());
            }
            at_front = !at_front;
        }
        out
    }

    /// Every one of the `2 · 2^n · n!` transforms in enumeration order,
    /// keeping the first strict improvement.
    fn reference_exact(f: &TruthTable) -> NpnCanon {
        let n = f.vars();
        let size_mask = if n == 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << n)) - 1
        };
        let base = f.as_words()[0] & size_mask;
        let swaps = sjt_swaps(n);
        let mut best: Option<(u64, Vec<usize>, u32, bool)> = None;
        for output_neg in [false, true] {
            for neg in 0..1u32 << n {
                let mut w = if output_neg { !base & size_mask } else { base };
                for v in 0..n {
                    if neg >> v & 1 == 1 {
                        w = negate_var_u64(w, v);
                    }
                }
                let mut occ: Vec<usize> = (0..n).collect();
                let consider =
                    |w: u64, occ: &[usize], best: &mut Option<(u64, Vec<usize>, u32, bool)>| {
                        if best.as_ref().is_none_or(|(bw, ..)| w < *bw) {
                            *best = Some((w, occ.to_vec(), neg, output_neg));
                        }
                    };
                consider(w, &occ, &mut best);
                for &s in &swaps {
                    w = swap_adjacent_u64(w, s);
                    occ.swap(s, s + 1);
                    consider(w, &occ, &mut best);
                }
            }
        }
        let (w, occ, input_neg, output_neg) = best.expect("orbit is never empty");
        let mut perm = vec![0usize; n];
        for (p, &v) in occ.iter().enumerate() {
            perm[v] = p;
        }
        NpnCanon {
            table: TruthTable::from_words(n, vec![w & size_mask]),
            transform: NpnTransform {
                perm,
                input_neg,
                output_neg,
            },
        }
    }

    /// The greedy canonizer that measures every cofactor weight twice,
    /// before and after the input polarities are set.
    fn reference_greedy(f: &TruthTable) -> NpnCanon {
        let n = f.vars();
        let total = 1u64 << n;
        let mut words: Vec<u64> = f.as_words().to_vec();
        let ones: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
        let output_neg = ones * 2 > total;
        if output_neg {
            for w in &mut words {
                *w = !*w;
            }
        }
        let mut input_neg = 0u32;
        let now_ones = if output_neg { total - ones } else { ones };
        for v in 0..n {
            if cofactor_ones(&words, v) * 2 > now_ones {
                input_neg |= 1 << v;
                negate_var_words(&mut words, v);
            }
        }
        let sigs: Vec<u64> = (0..n).map(|v| cofactor_ones(&words, v)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| sigs[v]);
        let mut refined: Vec<(u64, Vec<u64>)> = Vec::with_capacity(n);
        for &v in &order {
            let tied = order.iter().filter(|&&u| sigs[u] == sigs[v]).count() > 1;
            let pairs = if tied {
                let mut p: Vec<u64> = (0..n)
                    .filter(|&u| u != v)
                    .map(|u| pair_ones(&words, v, u))
                    .collect();
                p.sort_unstable();
                p
            } else {
                Vec::new()
            };
            refined.push((sigs[v], pairs));
        }
        let mut slots: Vec<usize> = (0..order.len()).collect();
        slots.sort_by(|&x, &y| refined[x].cmp(&refined[y]));
        let final_order: Vec<usize> = slots.iter().map(|&s| order[s]).collect();
        let mut perm = vec![0usize; n];
        for (j, &v) in final_order.iter().enumerate() {
            perm[v] = j;
        }
        let table = TruthTable::from_words(n, words).promote(&final_order);
        NpnCanon {
            table,
            transform: NpnTransform {
                perm,
                input_neg,
                output_neg,
            },
        }
    }

    /// Asserts the table and the witness both equal the reference's.
    fn assert_same(got: &NpnCanon, want: &NpnCanon, what: &str) {
        assert_eq!(got.table, want.table, "table differs: {what}");
        assert_eq!(got.transform, want.transform, "witness differs: {what}");
    }

    fn check_exact(f: &TruthTable, what: &str) {
        assert_same(&exact_canonize(f), &reference_exact(f), what);
    }

    /// Function of `n` variables from a minterm predicate.
    fn table(n: usize, pred: impl Fn(u32) -> bool) -> TruthTable {
        TruthTable::from_fn(n, pred)
    }

    // -----------------------------------------------------------------
    // Oracle tests: identical table and witness.
    // -----------------------------------------------------------------

    #[test]
    fn sjt_tours_match_the_recursive_construction() {
        for n in 0..=6 {
            let want: Vec<u8> = sjt_swaps(n).into_iter().map(|s| s as u8).collect();
            assert_eq!(sjt_tour(n), want.as_slice(), "n={n}");
        }
    }

    #[test]
    fn packed_bounds_never_exceed_the_phase_minimum() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in 1..=6usize {
            let tour = sjt_tour(n);
            for _ in 0..20 {
                let w = TruthTable::random(n, &mut rng).as_words()[0];
                let min = tour_min(w, tour);
                assert!(packed_bound(weight_counts(w)) <= min, "n={n} w={w:#x}");
            }
        }
    }

    #[test]
    fn exact_matches_reference_on_every_function_up_to_4_vars() {
        for n in 0..=4usize {
            for bits in 0u64..1 << (1usize << n) {
                check_exact(
                    &TruthTable::from_words(n, vec![bits]),
                    &format!("n={n} {bits:#x}"),
                );
            }
        }
    }

    #[test]
    fn exact_matches_reference_on_seeded_5_and_6_var_functions() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for n in [5usize, 6] {
            for i in 0..40 {
                check_exact(
                    &TruthTable::random(n, &mut rng),
                    &format!("random n={n} #{i}"),
                );
                // Sparse: a handful of ones (and, complemented, of zeros).
                let ones = rng.gen_range(1..6);
                let mut w = 0u64;
                for _ in 0..ones {
                    w |= 1 << rng.gen_range(0..1u32 << n);
                }
                let sparse = TruthTable::from_words(n, vec![w]);
                check_exact(&sparse, &format!("sparse n={n} #{i}"));
                check_exact(&!&sparse, &format!("co-sparse n={n} #{i}"));
            }
            for c in [false, true] {
                check_exact(&table(n, |_| c), &format!("constant {c} n={n}"));
            }
            for v in 0..n as u32 {
                check_exact(
                    &table(n, |m| m >> v & 1 == 1),
                    &format!("literal {v} n={n}"),
                );
                check_exact(
                    &table(n, |m| m >> v & 1 == 0),
                    &format!("literal !{v} n={n}"),
                );
            }
            for th in 0..=n as u32 + 1 {
                check_exact(
                    &table(n, |m| m.count_ones() >= th),
                    &format!("threshold {th} n={n}"),
                );
                // Weighted threshold: variable v counts v + 1.
                let weighted = |m: u32| {
                    (0..n as u32)
                        .filter(|v| m >> v & 1 == 1)
                        .map(|v| v + 1)
                        .sum::<u32>()
                };
                check_exact(
                    &table(n, |m| weighted(m) >= 2 * th),
                    &format!("weighted {th} n={n}"),
                );
            }
        }
        // Every totally symmetric 6-variable function: one output bit per
        // weight class.
        for classes in 0u32..128 {
            check_exact(
                &table(6, |m| classes >> m.count_ones() & 1 == 1),
                &format!("symmetric {classes:#x}"),
            );
        }
        // Multiplexers and selectors: a 4:1 mux (2 selects, 4 data), a
        // 2:1 mux with spare inputs, and data-select mixes with the
        // select bits on shuffled positions.
        check_exact(
            &table(6, |m| m >> (2 + (m & 3)) & 1 == 1),
            "4:1 mux, selects low",
        );
        check_exact(
            &table(6, |m| m >> (m >> 4 & 3) & 1 == 1),
            "4:1 mux, selects high",
        );
        check_exact(&table(5, |m| m >> (1 + (m & 1)) & 1 == 1), "2:1 mux n=5");
        check_exact(
            &table(6, |m| {
                if m & 1 == 1 {
                    m >> 3 & 1 == 1
                } else {
                    m >> 5 & 1 == 1
                }
            }),
            "2:1 mux n=6",
        );
        let mut perm: Vec<usize> = (0..6).collect();
        for i in 0..20 {
            perm.shuffle(&mut rng);
            let mux = table(6, |m| m >> (2 + (m & 3)) & 1 == 1);
            let t = NpnTransform {
                perm: perm.clone(),
                input_neg: rng.gen::<u32>() & 63,
                output_neg: rng.gen(),
            };
            check_exact(&apply(&mux, &t), &format!("transformed mux #{i}"));
            let sel = table(6, |m| {
                (m & 7).count_ones() % 2 == (m >> 3 & 1) && m >> 4 & 3 != 0
            });
            check_exact(&apply(&sel, &t), &format!("transformed selector #{i}"));
        }
    }

    #[test]
    fn greedy_matches_reference_on_random_and_tied_tables() {
        let mut rng = StdRng::seed_from_u64(0x6EED);
        for n in 7..=16usize {
            for i in 0..3 {
                let f = TruthTable::random(n, &mut rng);
                assert_same(
                    &canonize(&f),
                    &reference_greedy(&f),
                    &format!("random n={n} #{i}"),
                );
            }
            // Every cofactor weight ties: parity, majority-like
            // thresholds and symmetric functions, with and without a
            // random transform (the ties survive any transform).
            let symmetric = [
                table(n, |m| m.count_ones() % 2 == 1),
                table(n, |m| m.count_ones() * 2 >= n as u32),
                table(n, |m| m.count_ones() % 3 == 0),
            ];
            for (j, f) in symmetric.iter().enumerate() {
                assert_same(
                    &canonize(f),
                    &reference_greedy(f),
                    &format!("tied n={n} #{j}"),
                );
                let mut perm: Vec<usize> = (0..n).collect();
                perm.shuffle(&mut rng);
                let t = NpnTransform {
                    perm,
                    input_neg: rng.gen::<u32>() & ((1 << n) - 1),
                    output_neg: rng.gen(),
                };
                let g = apply(f, &t);
                assert_same(
                    &canonize(&g),
                    &reference_greedy(&g),
                    &format!("tied+t n={n} #{j}"),
                );
            }
            // Partly tied: a symmetric function of the low half XOR a
            // random function of the high half.
            let h = TruthTable::random(n - n / 2, &mut rng);
            let f = table(n, |m| {
                ((m & ((1 << (n / 2)) - 1)).count_ones() % 2 == 1) != h.eval(m >> (n / 2))
            });
            assert_same(
                &canonize(&f),
                &reference_greedy(&f),
                &format!("half-tied n={n}"),
            );
        }
    }

    /// Random NPN transform over `n` variables.
    fn random_transform(n: usize, rng: &mut StdRng) -> NpnTransform {
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(rng);
        NpnTransform {
            perm,
            input_neg: rng.gen::<u32>() & ((1u32 << n) - 1),
            output_neg: rng.gen(),
        }
    }

    #[test]
    fn sjt_tour_visits_every_permutation() {
        for n in 2..=6 {
            let swaps = sjt_tour(n);
            assert_eq!(swaps.len(), factorial(n) - 1);
            let mut arr: Vec<usize> = (0..n).collect();
            let mut seen = std::collections::HashSet::new();
            seen.insert(arr.clone());
            for &s in swaps {
                arr.swap(usize::from(s), usize::from(s) + 1);
                assert!(seen.insert(arr.clone()), "duplicate permutation");
            }
            assert_eq!(seen.len(), factorial(n));
        }
    }

    #[test]
    fn word_ops_match_reference_apply() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 2..=6usize {
            for _ in 0..10 {
                let f = TruthTable::random(n, &mut rng);
                let w = f.as_words()[0];
                // Negation of a random variable.
                let v = rng.gen_range(0..n);
                let neg = apply(
                    &f,
                    &NpnTransform {
                        input_neg: 1 << v,
                        ..NpnTransform::identity(n)
                    },
                );
                assert_eq!(
                    negate_var_u64(w, v) & neg_mask_for(n),
                    neg.as_words()[0],
                    "negate n={n} v={v}"
                );
                // Adjacent swap.
                if n >= 2 {
                    let p = rng.gen_range(0..n - 1);
                    let mut perm: Vec<usize> = (0..n).collect();
                    perm.swap(p, p + 1);
                    let sw = apply(
                        &f,
                        &NpnTransform {
                            perm,
                            input_neg: 0,
                            output_neg: false,
                        },
                    );
                    assert_eq!(
                        swap_adjacent_u64(w, p) & neg_mask_for(n),
                        sw.as_words()[0],
                        "swap n={n} p={p}"
                    );
                }
            }
        }
    }

    fn neg_mask_for(n: usize) -> u64 {
        if n >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << n)) - 1
        }
    }

    #[test]
    fn exact_transform_witnesses_its_table() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in 1..=6usize {
            for _ in 0..8 {
                let f = TruthTable::random(n, &mut rng);
                let canon = exact_canonize(&f);
                assert_eq!(
                    apply(&f, &canon.transform),
                    canon.table,
                    "witness failed for n={n}"
                );
            }
        }
    }

    #[test]
    fn exact_canonical_form_is_orbit_invariant() {
        // The ISSUE's property: the canonical form of any NPN transform
        // of f equals the canonical form of f itself (n <= 6).
        let mut rng = StdRng::seed_from_u64(31);
        for n in 2..=6usize {
            for _ in 0..6 {
                let f = TruthTable::random(n, &mut rng);
                let base = exact_canonize(&f).table;
                for _ in 0..4 {
                    let t = random_transform(n, &mut rng);
                    let g = apply(&f, &t);
                    assert_eq!(
                        exact_canonize(&g).table,
                        base,
                        "orbit split for n={n} transform {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn npn_class_counts_match_known_values() {
        // Exhaustive over all functions: the number of distinct exact
        // canonical forms must equal the published NPN class counts
        // (OEIS A000370): n=0: 2, n=1: 2, n=2: 4, n=3: 14, n=4: 222.
        for (n, expect) in [(1usize, 2usize), (2, 4), (3, 14)] {
            let mut classes = std::collections::HashSet::new();
            for bits in 0u64..1 << (1usize << n) {
                let f = TruthTable::from_words(n, vec![bits]);
                classes.insert(exact_canonize(&f).table);
            }
            assert_eq!(classes.len(), expect, "n={n}");
        }
        // n=4 exhaustively (65536 functions) — the heavyweight check.
        let mut classes = std::collections::HashSet::new();
        for bits in 0u64..1 << 16 {
            let f = TruthTable::from_words(4, vec![bits]);
            classes.insert(exact_canonize(&f).table);
        }
        assert_eq!(classes.len(), 222, "n=4 NPN class count");
    }

    #[test]
    fn greedy_transform_witnesses_its_table() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in 7..=9usize {
            for _ in 0..6 {
                let f = TruthTable::random(n, &mut rng);
                let canon = canonize(&f);
                assert_eq!(
                    apply(&f, &canon.transform),
                    canon.table,
                    "witness failed for n={n}"
                );
            }
        }
    }

    #[test]
    fn greedy_is_idempotent_and_often_orbit_stable() {
        // Greedy gives no exactness guarantee, but canonizing a canonical
        // table must be a fixpoint up to the identity-orbit choice, and
        // structured functions should land on one representative.
        let mut rng = StdRng::seed_from_u64(51);
        for n in 7..=8usize {
            let f = TruthTable::random(n, &mut rng);
            let c1 = canonize(&f);
            let c2 = canonize(&c1.table);
            assert_eq!(c2.table, canonize(&c2.table).table);
        }
        // Permuting the inputs of a function with all-distinct cofactor
        // weights must not change the greedy representative.
        let f = TruthTable::from_fn(7, |m| {
            (m.count_ones() + (m & 0b101).count_ones() * 2 + (m >> 5)) % 3 == 0
        });
        let base = canonize(&f).table;
        let mut rng = StdRng::seed_from_u64(61);
        let mut stable = 0;
        for _ in 0..8 {
            let mut perm: Vec<usize> = (0..7).collect();
            perm.shuffle(&mut rng);
            let g = apply(
                &f,
                &NpnTransform {
                    perm,
                    input_neg: 0,
                    output_neg: false,
                },
            );
            if canonize(&g).table == base {
                stable += 1;
            }
        }
        assert!(stable >= 6, "greedy was orbit-stable only {stable}/8 times");
    }

    #[test]
    fn bound_translation_preserves_class_counts() {
        // The whole point of the cache: search on the canonical table,
        // translate the bound set back, get the same class count.
        let mut rng = StdRng::seed_from_u64(71);
        for n in [5usize, 6, 8] {
            for _ in 0..5 {
                let f = TruthTable::random(n, &mut rng);
                let canon = canonize(&f);
                for canon_bound in [vec![0usize, 1], vec![1, n - 1], vec![0, 2, 3]] {
                    let orig = canon.transform.bound_to_original(&canon_bound);
                    assert_eq!(orig.len(), canon_bound.len());
                    let a = crate::chart::class_count(&canon.table, &canon_bound).unwrap();
                    let b = crate::chart::class_count(&f, &orig).unwrap();
                    assert_eq!(a, b, "n={n} canon bound {canon_bound:?}");
                }
            }
        }
    }
}
