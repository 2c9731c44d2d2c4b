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
//!   over all `2 · 2^n · n!` transforms, enumerated with word-level
//!   delta-swaps along a Steinhaus–Johnson–Trotter adjacent-transposition
//!   tour (one `O(1)` swap per permutation, not a fresh `O(2^n)` rebuild).
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

/// The Steinhaus–Johnson–Trotter adjacent-transposition tour: applying
/// the returned swaps (`i` means "exchange positions `i` and `i+1`") to
/// any starting arrangement visits all `n!` permutations, each reached
/// from the previous by one swap.
fn sjt_swaps(n: usize) -> Vec<usize> {
    if n <= 1 {
        return Vec::new();
    }
    if n == 2 {
        return vec![0];
    }
    let inner = sjt_swaps(n - 1);
    let mut out = Vec::with_capacity(factorial(n) - 1);
    // The largest element sweeps from the back to the front, then one
    // inner swap advances the rest, then it sweeps back, alternating.
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

fn factorial(n: usize) -> usize {
    (1..=n).product()
}

/// Exact NPN canonical form for `n <= 6`: the numerically smallest packed
/// table over the whole orbit, with a witness transform.
///
/// # Panics
///
/// Panics if `f.vars() > 6`.
pub fn exact_canonize(f: &TruthTable) -> NpnCanon {
    let n = f.vars();
    assert!(n <= 6, "exact_canonize is limited to 6 variables");
    let size_mask = if n == 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << n)) - 1
    };
    let base = f.as_words()[0] & size_mask;
    let swaps = sjt_swaps(n);
    // best: (table, occ, input_neg, output_neg) where occ[p] is the
    // original variable at canonical position p.
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
                    let smaller = match best {
                        None => true,
                        Some((bw, ..)) => w < *bw,
                    };
                    if smaller {
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

// ---------------------------------------------------------------------
// Greedy canonizer (n > 6, word-array tables)
// ---------------------------------------------------------------------

/// Number of minterms with variable `v` = 1 on which `words` is true.
fn cofactor_ones(words: &[u64], v: usize) -> u64 {
    if v >= 6 {
        let stride = 1usize << (v - 6);
        words
            .chunks(2 * stride)
            .map(|c| {
                c[stride..]
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum::<u64>()
            })
            .sum()
    } else {
        let m = !LO_MASKS[v];
        words.iter().map(|w| u64::from((w & m).count_ones())).sum()
    }
}

/// Like [`cofactor_ones`] but restricted to minterms where `u` = 1 too.
fn pair_ones(words: &[u64], v: usize, u: usize) -> u64 {
    debug_assert_ne!(v, u);
    let mask_low = |x: usize| !LO_MASKS[x];
    let mut total = 0u64;
    for (i, &w) in words.iter().enumerate() {
        let mut sel = w;
        for x in [v, u] {
            if x >= 6 {
                if (i >> (x - 6)) & 1 == 0 {
                    sel = 0;
                }
            } else {
                sel &= mask_low(x);
            }
        }
        total += u64::from(sel.count_ones());
    }
    total
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
        let sh = 1u32 << v;
        let m = LO_MASKS[v];
        for w in words.iter_mut() {
            *w = ((*w & m) << sh) | ((*w >> sh) & m);
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
    // minority of the ones (ties keep the original polarity). The
    // per-variable counts are independent, so order does not matter.
    let mut input_neg = 0u32;
    let now_ones = if output_neg { total - ones } else { ones };
    for v in 0..n {
        let c1 = cofactor_ones(&words, v);
        if c1 * 2 > now_ones {
            input_neg |= 1 << v;
            negate_var_words(&mut words, v);
        }
    }
    // Input order: ascending by (cofactor weight, pairwise refinement).
    // The refinement vector is each variable's sorted multiset of pair
    // weights, which is permutation-invariant over the tied group.
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
    // Stable sort so unresolved ties keep ascending original order: the
    // result is still deterministic, just not a true orbit invariant.
    let mut slots: Vec<usize> = (0..order.len()).collect();
    slots.sort_by(|&x, &y| refined[x].cmp(&refined[y]));
    let final_order: Vec<usize> = slots.iter().map(|&s| order[s]).collect();
    // perm[v] = canonical position of v: final_order[j] lands at j.
    let mut perm = vec![0usize; n];
    for (j, &v) in final_order.iter().enumerate() {
        perm[v] = j;
    }
    // Promoting every variable in final_order leaves final_order[j] at
    // position j.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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
            let swaps = sjt_swaps(n);
            assert_eq!(swaps.len(), factorial(n) - 1);
            let mut arr: Vec<usize> = (0..n).collect();
            let mut seen = std::collections::HashSet::new();
            seen.insert(arr.clone());
            for &s in &swaps {
                arr.swap(s, s + 1);
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
