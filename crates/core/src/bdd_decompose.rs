//! OBDD-based functional decomposition.
//!
//! The paper performs decomposition on BDDs (following Lai/Pan/Pedram `[4]`
//! and the λ-set selection of `[2]`): with the bound variables cofactored
//! away, the distinct subfunctions below the cut are the compatible
//! classes. This module mirrors [`crate::decompose`] on that
//! representation, which lifts the truth-table width limit — functions are
//! decomposed symbolically and only the α functions (κ inputs) and the
//! image cofactor structure are enumerated.

use crate::encoding::{ceil_log2, CodeAssignment};
use crate::CoreError;
use hyde_bdd::{Bdd, Ref};
use std::collections::HashMap;

/// A disjoint decomposition computed on BDDs.
#[derive(Debug, Clone)]
pub struct BddDecomposition {
    /// Bound (λ) set variables.
    pub bound: Vec<usize>,
    /// α functions as BDDs over the *bound* variables (same manager).
    pub alphas: Vec<Ref>,
    /// The image function `g` as a BDD over the original manager extended
    /// with `alphas.len()` fresh α variables (see [`bdd_decompose`]).
    pub image: Ref,
    /// Codes assigned to the compatible classes.
    pub codes: CodeAssignment,
    /// Compatible class of each bound-set assignment.
    pub class_of: Vec<usize>,
}

/// Decomposes `f` (owned by `bdd`) with respect to `bound`, strict
/// lexicographic encoding.
///
/// Returns a decomposition whose `image` lives in a *new* manager with
/// variables `0..n` copying the original order plus α variables appended at
/// `n..n+t`; the new manager is returned alongside.
///
/// # Errors
///
/// Returns [`CoreError::InvalidBoundSet`] for malformed bound sets.
// sa:allow(SA010): operates on the caller's manager, whose node cap
// (`set_node_cap`) already bounds every operation performed here.
pub fn bdd_decompose(
    bdd: &mut Bdd,
    f: Ref,
    bound: &[usize],
) -> Result<(BddDecomposition, Bdd), CoreError> {
    let n = bdd.num_vars();
    if bound.is_empty() || bound.len() >= n {
        return Err(CoreError::InvalidBoundSet(format!(
            "bound of size {} over {n} variables",
            bound.len()
        )));
    }
    let mut seen = std::collections::HashSet::new();
    for &v in bound {
        if v >= n || !seen.insert(v) {
            return Err(CoreError::InvalidBoundSet(format!(
                "variable {v} repeated or out of range"
            )));
        }
    }
    // Distinct cofactors = compatible classes.
    let subs = bdd.cut_subfunctions(f, bound);
    let mut class_of = Vec::with_capacity(subs.len());
    let mut reps: Vec<Ref> = Vec::new();
    let mut index: HashMap<Ref, usize> = HashMap::new();
    for &s in &subs {
        let next = reps.len();
        let id = *index.entry(s).or_insert(next);
        if id == next {
            reps.push(s);
        }
        class_of.push(id);
    }
    let m = reps.len();
    let t = ceil_log2(m).max(1);
    let codes = CodeAssignment::new((0..m as u32).collect(), t)?;

    // α functions over the bound variables, built directly in `bdd`.
    let mut alphas = Vec::with_capacity(t);
    for bit in 0..t {
        let mut acc = bdd.zero();
        for (c, &cls) in class_of.iter().enumerate() {
            if codes.code(cls) >> bit & 1 != 1 {
                continue;
            }
            let mut cube = bdd.one();
            for (i, &v) in bound.iter().enumerate() {
                let lit = if c >> i & 1 == 1 {
                    bdd.var(v)
                } else {
                    bdd.nvar(v)
                };
                cube = bdd.and(cube, lit);
            }
            acc = bdd.or(acc, cube);
        }
        alphas.push(acc);
    }

    // Image manager: original variables plus α variables at the end.
    // g = OR over classes of (α-code cube ∧ class representative), where
    // representatives are independent of the bound variables.
    // Pre-size for the copied representatives: the image holds one copy of
    // each class representative plus the code cubes, all bounded by the
    // source manager's population.
    let mut gman = Bdd::with_capacity(n + t, bdd.len());
    let mut g = gman.zero();
    for (cls, &rep) in reps.iter().enumerate() {
        // Copy the representative into the new manager by structural
        // rebuild over the shared variable indices.
        let rep_copy = copy_into(bdd, rep, &mut gman);
        let mut cube = gman.one();
        for bit in 0..t {
            let lit = if codes.code(cls) >> bit & 1 == 1 {
                gman.var(n + bit)
            } else {
                gman.nvar(n + bit)
            };
            cube = gman.and(cube, lit);
        }
        let term = gman.and(cube, rep_copy);
        g = gman.or(g, term);
    }

    Ok((
        BddDecomposition {
            bound: bound.to_vec(),
            alphas,
            image: g,
            codes,
            class_of,
        },
        gman,
    ))
}

/// Structurally copies `f` from `src` into `dst` (same variable indices).
///
/// # Panics
///
/// Panics if `dst` has fewer variables than `src` uses.
pub fn copy_into(src: &Bdd, f: Ref, dst: &mut Bdd) -> Ref {
    let map: Vec<usize> = (0..src.num_vars()).collect();
    copy_into_mapped(src, f, dst, &map)
}

/// Structurally copies `f` from `src` into `dst`, renaming variable `v` to
/// `map[v]`. The map must be monotonically increasing on the support of
/// `f` so the ROBDD order is preserved during the copy.
///
/// # Panics
///
/// Panics if a mapped variable exceeds `dst`'s variable count.
pub fn copy_into_mapped(src: &Bdd, f: Ref, dst: &mut Bdd, map: &[usize]) -> Ref {
    let mut memo: HashMap<Ref, Ref> = HashMap::new();
    copy_rec(src, f, dst, map, &mut memo)
}

// sa:allow(SA010): structure-preserving copy — one node per source
// node, bounded by `compact_to_support`'s pre-sized destination.
fn copy_rec(src: &Bdd, f: Ref, dst: &mut Bdd, map: &[usize], memo: &mut HashMap<Ref, Ref>) -> Ref {
    if f == Ref::FALSE {
        return dst.zero();
    }
    if f == Ref::TRUE {
        return dst.one();
    }
    if let Some(&r) = memo.get(&f) {
        return r;
    }
    let (var, lo, hi) = src.node_parts(f);
    let lo_c = copy_rec(src, lo, dst, map, memo);
    let hi_c = copy_rec(src, hi, dst, map, memo);
    let v = dst.var(map[var]);
    let r = dst.ite(v, hi_c, lo_c);
    memo.insert(f, r);
    r
}

/// Compacts `f` onto its support: returns a new manager over exactly the
/// support variables (in order) plus the translated root, and the support
/// itself (`support[i]` is the old variable at new position `i`).
// sa:allow(SA010): a structure-preserving copy bounded by the source
// node count; it cannot allocate more nodes than already exist.
pub fn compact_to_support(src: &Bdd, f: Ref) -> (Bdd, Ref, Vec<usize>) {
    let support = src.support(f);
    let mut map = vec![usize::MAX; src.num_vars()];
    for (i, &v) in support.iter().enumerate() {
        map[v] = i;
    }
    // The compacted copy can't have more nodes than the source population.
    let mut dst = Bdd::with_capacity(support.len().max(1), src.node_count(f) + 2);
    let g = copy_into_mapped(src, f, &mut dst, &map);
    (dst, g, support)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verifies a BDD decomposition by sampling (or exhausting) the input
    /// space: `g(x, α(x_bound)) == f(x)`.
    fn verify_bdd_decomposition(
        bdd: &Bdd,
        f: Ref,
        d: &BddDecomposition,
        gman: &Bdd,
        max_exhaustive_vars: usize,
    ) -> bool {
        let n = bdd.num_vars();
        let check = |m: u32| -> bool {
            let mut g_in = u64::from(m);
            for (bit, &alpha) in d.alphas.iter().enumerate() {
                if bdd.eval(alpha, m) {
                    g_in |= 1 << (n + bit);
                }
            }
            gman.eval(d.image, g_in as u32) == bdd.eval(f, m)
        };
        if n <= max_exhaustive_vars {
            (0..(1u32 << n)).all(check)
        } else {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xBDD);
            (0..4096).all(|_| check(rng.gen_range(0..(1u64 << n)) as u32))
        }
    }

    #[test]
    fn decomposes_and_verifies_small_function() {
        let mut bdd = Bdd::new(6);
        let f = bdd.from_fn(|m| (m & 0b111).count_ones() >= 2 || m >> 3 == 0b101);
        let (d, gman) = bdd_decompose(&mut bdd, f, &[0, 1, 2]).unwrap();
        assert!(verify_bdd_decomposition(&bdd, f, &d, &gman, 20));
        assert!(d.codes.is_strict());
    }

    #[test]
    fn class_count_matches_chart_path() {
        use hyde_logic::TruthTable;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let tt = TruthTable::random(7, &mut rng);
        let mut bdd = Bdd::new(7);
        let f = bdd.from_fn(|m| tt.eval(m));
        let (d, _) = bdd_decompose(&mut bdd, f, &[1, 3, 5]).unwrap();
        let chart_classes = crate::chart::class_count(&tt, &[1, 3, 5]).unwrap();
        let bdd_classes = d
            .class_of
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert_eq!(chart_classes, bdd_classes);
    }

    #[test]
    fn wide_function_decomposes_symbolically() {
        // 18 variables: far beyond comfortable chart materialization per
        // candidate, trivial for the BDD path.
        let mut bdd = Bdd::new(18);
        let mut f = bdd.zero();
        // f = AND of pairs ORed together: (x0&x1) | (x2&x3) | ...
        for i in (0..18).step_by(2) {
            let a = bdd.var(i);
            let b = bdd.var(i + 1);
            let ab = bdd.and(a, b);
            f = bdd.or(f, ab);
        }
        let (d, gman) = bdd_decompose(&mut bdd, f, &[0, 1, 2, 3]).unwrap();
        // Classes: pairs (x0&x1)|(x2&x3) has 2 classes: "already true" and
        // "not yet true".
        let classes = d
            .class_of
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert_eq!(classes, 2);
        assert!(verify_bdd_decomposition(&bdd, f, &d, &gman, 0));
    }

    #[test]
    fn copy_into_preserves_semantics() {
        let mut a = Bdd::new(5);
        let f = a.from_fn(|m| m % 3 == 0);
        let mut b = Bdd::new(7);
        let g = copy_into(&a, f, &mut b);
        for m in 0u32..32 {
            assert_eq!(a.eval(f, m), b.eval(g, m));
        }
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut bdd = Bdd::new(4);
        let f = bdd.from_fn(|m| m == 3);
        assert!(bdd_decompose(&mut bdd, f, &[]).is_err());
        assert!(bdd_decompose(&mut bdd, f, &[0, 0]).is_err());
        assert!(bdd_decompose(&mut bdd, f, &[0, 1, 2, 3]).is_err());
        assert!(bdd_decompose(&mut bdd, f, &[9]).is_err());
    }
}
