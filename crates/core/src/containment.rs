//! Partition containment and pliable α-function sharing
//! (Definition 4.6, Theorems 4.3/4.4, Example 4.2 of the HYDE paper).
//!
//! If partition `A` of `f_a` is *contained* by partition `B` of `f_b`
//! (w.r.t. the same λ set), then the decomposition functions of `f_b`
//! distinguish the compatible classes of `f_a` as well, so they can be
//! reused — possibly with more bits than `f_a` strictly needs (a *pliable*
//! encoding), which is exactly the LUT saving of Example 4.2.

use crate::chart::{column_patterns, split_bound_free};
use crate::decompose::recomposition_mismatch;
use crate::encoding::{scatter_image, CodeAssignment};
use crate::partition::Partition;
use crate::CoreError;
use hyde_logic::diag::{any_deny, Code, Diagnostic, Location};
use hyde_logic::TruthTable;
use std::collections::HashMap;

/// The partition (Definition 3.1) of `f` with respect to a λ set: position
/// `c` (a bound-set assignment) carries a symbol identifying the column
/// pattern, in a per-call canonical alphabet.
///
/// # Errors
///
/// Propagates bound-set validation errors.
pub fn function_partition(f: &TruthTable, bound: &[usize]) -> Result<Partition, CoreError> {
    let (bound, _) = split_bound_free(f.vars(), bound)?;
    let mut alphabet: HashMap<TruthTable, u32> = HashMap::new();
    let symbols = column_patterns(f, &bound)
        .into_iter()
        .map(|pat| {
            let next = alphabet.len() as u32;
            *alphabet.entry(pat).or_insert(next)
        })
        .collect();
    Ok(Partition::new(symbols))
}

/// Result of reusing another function's α functions.
#[derive(Debug, Clone)]
pub struct SharedAlphas {
    /// The reused decomposition functions (over the bound variables).
    pub alphas: Vec<TruthTable>,
    /// Image of `f_a` under the shared α functions: variables
    /// `0..alphas.len()` are the α bits, then the free variables.
    pub image: TruthTable,
}

/// Attempts to reuse the α functions that strictly encode the classes of
/// `f_b` as the α functions of `f_a` (Theorem 4.4).
///
/// Returns `None` when `f_a`'s partition is not contained by `f_b`'s (two
/// columns of `f_a` with different patterns would receive the same code).
///
/// # Errors
///
/// Propagates bound-set validation errors.
pub fn share_alphas(
    f_a: &TruthTable,
    f_b: &TruthTable,
    bound: &[usize],
) -> Result<Option<SharedAlphas>, CoreError> {
    if f_a.vars() != f_b.vars() {
        return Err(CoreError::InvalidBoundSet(
            "functions must share one input space".into(),
        ));
    }
    let pa = function_partition(f_a, bound)?;
    let pb = function_partition(f_b, bound)?;
    if !pa.is_contained_by(&pb) {
        return Ok(None);
    }
    let (bound_v, free_v) = split_bound_free(f_a.vars(), bound)?;
    // Strict encoding of f_b's classes: class i -> code i.
    let t = crate::encoding::ceil_log2(pb.multiplicity());
    let alphas: Vec<TruthTable> = (0..t)
        .map(|bit| TruthTable::from_fn(bound_v.len(), |c| pb.symbol(c as usize) >> bit & 1 == 1))
        .collect();
    // Image of f_a: code -> the (unique, by containment) column pattern of
    // f_a among columns with that code.
    let mut codes: Vec<u32> = Vec::new();
    let mut patterns: Vec<TruthTable> = Vec::new();
    for (c, pat) in column_patterns(f_a, &bound_v).into_iter().enumerate() {
        let code = pb.symbol(c);
        match codes.iter().position(|&seen| seen == code) {
            Some(i) => debug_assert_eq!(
                patterns.get(i),
                Some(&pat),
                "containment guarantees uniqueness"
            ),
            None => {
                codes.push(code);
                patterns.push(pat);
            }
        }
    }
    let codes = CodeAssignment::new(codes, t)?;
    let image = scatter_image(&patterns, &codes, free_v.len());
    Ok(Some(SharedAlphas { alphas, image }))
}

/// Verifies that shared α functions recompose `f_a` exactly.
///
/// Thin wrapper over [`shared_diagnostics`]: true iff no deny-level
/// diagnostic fires.
pub fn verify_shared(f_a: &TruthTable, bound: &[usize], shared: &SharedAlphas) -> bool {
    !any_deny(&shared_diagnostics(f_a, bound, shared))
}

/// Runs the structured invariant checks of a pliable α-sharing step.
///
/// Emits `HY104` when the shared α functions plus the rebuilt image fail
/// to recompose `f_a` (smallest mismatching minterm reported), or when the
/// bound set itself is malformed.
pub fn shared_diagnostics(
    f_a: &TruthTable,
    bound: &[usize],
    shared: &SharedAlphas,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Ok((bound_v, free_v)) = split_bound_free(f_a.vars(), bound) else {
        out.push(Diagnostic::new(
            Code::EncodingRecomposition,
            format!(
                "bound set {bound:?} is invalid for a {}-variable function",
                f_a.vars()
            ),
        ));
        return out;
    };
    match recomposition_mismatch(f_a, &bound_v, &free_v, &shared.alphas, &shared.image) {
        Ok(None) => {}
        Ok(Some(m)) => out.push(
            Diagnostic::new(
                Code::EncodingRecomposition,
                format!("shared α recomposition differs from f_a at minterm {m}"),
            )
            .at(Location::Minterm(m as usize)),
        ),
        Err(shape) => out.push(Diagnostic::new(Code::EncodingRecomposition, shape)),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn function_partition_symbols() {
        // (a&b)|(c&d) with bound {a,b}: columns 00,01,10 share a pattern.
        let f = (TruthTable::var(4, 0) & TruthTable::var(4, 1))
            | (TruthTable::var(4, 2) & TruthTable::var(4, 3));
        let p = function_partition(&f, &[0, 1]).unwrap();
        assert_eq!(p.symbols(), &[0, 0, 0, 1]);
        assert_eq!(p.multiplicity(), 2);
    }

    #[test]
    fn coarser_partition_shares_finer_alphas() {
        // f_b distinguishes more columns than f_a: sharing must work.
        let f_b = TruthTable::from_fn(5, |m| {
            // Image depends on both bound bits individually.
            let (a, b, y) = (m & 1, m >> 1 & 1, m >> 2);
            (a ^ b) == 1 || (a & b) == 1 && y == 0b111
        });
        let f_a = TruthTable::from_fn(5, |m| {
            // Depends only on a&b of the bound set.
            let (a, b, y) = (m & 1, m >> 1 & 1, m >> 2);
            (a & b) == 1 && y % 2 == 1
        });
        let bound = [0usize, 1];
        let pa = function_partition(&f_a, &bound).unwrap();
        let pb = function_partition(&f_b, &bound).unwrap();
        assert!(pa.is_contained_by(&pb), "pa={pa} pb={pb}");
        let shared = share_alphas(&f_a, &f_b, &bound).unwrap().unwrap();
        assert!(verify_shared(&f_a, &bound, &shared));
    }

    #[test]
    fn incomparable_partitions_cannot_share() {
        // f_a distinguishes a column f_b merges.
        let f_a = TruthTable::from_fn(4, |m| (m & 0b11) == 0 && m >> 2 == 0b01);
        let f_b = TruthTable::from_fn(4, |m| (m & 0b11) == 3 && m >> 2 == 0b10);
        let bound = [0usize, 1];
        let pa = function_partition(&f_a, &bound).unwrap();
        let pb = function_partition(&f_b, &bound).unwrap();
        if !pa.is_contained_by(&pb) {
            assert!(share_alphas(&f_a, &f_b, &bound).unwrap().is_none());
        }
    }

    #[test]
    fn self_sharing_always_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for _ in 0..10 {
            let f = TruthTable::random(6, &mut rng);
            let shared = share_alphas(&f, &f, &[0, 1, 2]).unwrap().unwrap();
            assert!(verify_shared(&f, &[0, 1, 2], &shared));
        }
    }

    #[test]
    fn pliable_sharing_example_4_2_shape() {
        // Build three functions where f0's partition is contained by the
        // conjunction of f1 and f2 (the hyper-function of f1,f2), mirroring
        // Example 4.2: f0 can reuse the 3 shared α functions even though it
        // alone would need only 2.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        loop {
            let f1 = TruthTable::random(6, &mut rng);
            let _f2 = TruthTable::random(6, &mut rng);
            let bound = [0usize, 1, 2, 3];
            // f0: a function whose columns only distinguish what f1 does.
            let p1 = function_partition(&f1, &bound).unwrap();
            let f0 = TruthTable::from_fn(6, |m| {
                let c = (m & 0b1111) as usize;
                p1.symbol(c).is_multiple_of(2) && (m >> 4) == 0b01
            });
            let p0 = function_partition(&f0, &bound).unwrap();
            if p0.multiplicity() < 2 {
                continue;
            }
            assert!(p0.is_contained_by(&p1));
            // Sharing f1's alphas with f0 works even when f0 needs fewer
            // bits (pliable encoding).
            let shared = share_alphas(&f0, &f1, &bound).unwrap().unwrap();
            assert!(verify_shared(&f0, &bound, &shared));
            let own_bits = crate::encoding::ceil_log2(p0.multiplicity());
            assert!(shared.alphas.len() >= own_bits);
            break;
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(4, 0);
        assert!(share_alphas(&a, &b, &[0]).is_err());
    }
}
