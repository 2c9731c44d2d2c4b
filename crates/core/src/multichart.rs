//! Multi-output decomposition charts (the FGSyn-style column encoding view).
//!
//! Lai, Pan and Pedram's column encoding (reference `[4]`, which Section 4.3
//! of the HYDE paper shows to be the pseudo-inputs-in-μ special case of
//! hyper-function decomposition) decomposes a function *vector* with one
//! joint chart: two bound-set vertices are compatible iff **every** output's
//! column patterns agree. The shared α functions encode the joint classes
//! and each output keeps its own image function.

use crate::chart::{column_patterns, split_bound_free};
use crate::decompose::recomposition_mismatch;
use crate::encoding::{build_alphas, ceil_log2, code_diagnostics, scatter_image, CodeAssignment};
use crate::CoreError;
use hyde_logic::diag::{any_deny, Code, Diagnostic, Location};
use hyde_logic::TruthTable;
use std::collections::HashMap;

/// A joint decomposition chart over several outputs sharing one bound set.
#[derive(Debug, Clone)]
pub struct MultiChart {
    bound: Vec<usize>,
    free: Vec<usize>,
    /// `columns[f][c]` — column pattern of output `f` at bound assignment
    /// `c`, as a function of the free variables.
    columns: Vec<Vec<TruthTable>>,
    /// Joint class of each column.
    class_of: Vec<usize>,
    /// A representative column per class.
    representatives: Vec<usize>,
}

impl MultiChart {
    /// Builds the joint chart of `outputs` for `bound`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBoundSet`] for malformed bound sets or
    /// when outputs disagree in arity / no outputs are given.
    pub fn new(outputs: &[TruthTable], bound: &[usize]) -> Result<Self, CoreError> {
        if outputs.is_empty() {
            return Err(CoreError::InvalidBoundSet("no outputs".into()));
        }
        let vars = outputs[0].vars();
        if outputs.iter().any(|f| f.vars() != vars) {
            return Err(CoreError::InvalidBoundSet(
                "outputs must share one input space".into(),
            ));
        }
        let (bound, free) = split_bound_free(vars, bound)?;
        let columns: Vec<Vec<TruthTable>> =
            outputs.iter().map(|f| column_patterns(f, &bound)).collect();
        let n_cols = 1usize << bound.len();
        let mut class_of = vec![0usize; n_cols];
        let mut representatives = Vec::new();
        let mut index: HashMap<Vec<Vec<u64>>, usize> = HashMap::new();
        for c in 0..n_cols {
            let key: Vec<Vec<u64>> = columns
                .iter()
                .map(|cols| cols[c].as_words().to_vec())
                .collect();
            let next = representatives.len();
            let id = *index.entry(key).or_insert(next);
            if id == next {
                representatives.push(c);
            }
            class_of[c] = id;
        }
        Ok(MultiChart {
            bound,
            free,
            columns,
            class_of,
            representatives,
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

    /// Number of joint compatible classes.
    pub fn class_count(&self) -> usize {
        self.representatives.len()
    }

    /// Joint class of each bound assignment.
    pub fn class_map(&self) -> &[usize] {
        &self.class_of
    }

    /// Number of α bits a rigid strict encoding needs.
    pub fn code_bits(&self) -> usize {
        ceil_log2(self.class_count())
    }

    /// Shared α functions for the given strict codes.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != class_count()`.
    pub fn alphas(&self, codes: &CodeAssignment) -> Vec<TruthTable> {
        assert_eq!(codes.len(), self.class_count(), "one code per class");
        build_alphas(&self.class_of, codes, self.bound.len())
    }

    /// Column patterns of output `o` in column order (functions of the
    /// free variables); empty if `o` is out of range.
    pub fn columns(&self, o: usize) -> &[TruthTable] {
        self.columns.get(o).map_or(&[], Vec::as_slice)
    }

    /// Image function of output `o` under the given codes: variables
    /// `0..t` are the α bits, then the free variables.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range or codes mismatch the classes.
    pub fn image(&self, o: usize, codes: &CodeAssignment) -> TruthTable {
        assert_eq!(codes.len(), self.class_count(), "one code per class");
        assert!(o < self.columns.len(), "output {o} out of range");
        let columns = self.columns(o);
        let reps = self.representatives.iter().filter_map(|&c| columns.get(c));
        scatter_image(reps, codes, self.free.len())
    }

    /// Verifies that the shared α functions plus the per-output images
    /// recompose every output exactly.
    ///
    /// Thin wrapper over [`MultiChart::diagnostics`]: true iff no
    /// deny-level diagnostic fires.
    pub fn verify(&self, outputs: &[TruthTable], codes: &CodeAssignment) -> bool {
        !any_deny(&self.diagnostics(outputs, codes))
    }

    /// Runs the structured invariant checks of the joint decomposition.
    ///
    /// Emits `HY101`/`HY102` for the code assignment and `HY104` (with the
    /// offending output as location) for every output whose shared-α
    /// recomposition differs from the specification.
    pub fn diagnostics(&self, outputs: &[TruthTable], codes: &CodeAssignment) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        code_diagnostics(codes, &mut out);
        let alphas = self.alphas(codes);
        for (o, f) in outputs.iter().enumerate() {
            let image = self.image(o, codes);
            let message = match recomposition_mismatch(f, &self.bound, &self.free, &alphas, &image)
            {
                Ok(None) => continue,
                Ok(Some(m)) => {
                    format!("output {o} differs from its joint recomposition at minterm {m}")
                }
                Err(shape) => format!("output {o}: {shape}"),
            };
            out.push(Diagnostic::new(Code::EncodingRecomposition, message).at(Location::Output(o)));
        }
        out
    }
}

/// Counts joint compatible classes without keeping the chart (hot path of
/// joint λ-set selection).
///
/// # Errors
///
/// Same conditions as [`MultiChart::new`].
pub fn joint_class_count(outputs: &[TruthTable], bound: &[usize]) -> Result<usize, CoreError> {
    MultiChart::new(outputs, bound).map(|c| c.class_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn adder_outputs() -> Vec<TruthTable> {
        (0..3)
            .map(|o| {
                TruthTable::from_fn(4, move |m| {
                    let a = m & 0b11;
                    let b = m >> 2;
                    ((a + b) >> o) & 1 == 1
                })
            })
            .collect()
    }

    #[test]
    fn joint_classes_refine_individual_classes() {
        let outs = adder_outputs();
        let chart = MultiChart::new(&outs, &[0, 1]).unwrap();
        for f in &outs {
            let solo = crate::chart::class_count(f, &[0, 1]).unwrap();
            assert!(chart.class_count() >= solo);
        }
        assert!(chart.class_count() <= 4);
    }

    #[test]
    fn recomposition_all_outputs() {
        let outs = adder_outputs();
        let chart = MultiChart::new(&outs, &[0, 1]).unwrap();
        let codes =
            CodeAssignment::new((0..chart.class_count() as u32).collect(), chart.code_bits())
                .unwrap();
        assert!(chart.verify(&outs, &codes));
    }

    #[test]
    fn random_vectors_recompose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(66);
        for _ in 0..10 {
            let outs: Vec<TruthTable> = (0..3).map(|_| TruthTable::random(6, &mut rng)).collect();
            let chart = MultiChart::new(&outs, &[0, 2, 4]).unwrap();
            let codes =
                CodeAssignment::new((0..chart.class_count() as u32).collect(), chart.code_bits())
                    .unwrap();
            assert!(chart.verify(&outs, &codes));
        }
    }

    #[test]
    fn single_output_matches_plain_chart() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let f = TruthTable::random(6, &mut rng);
        let multi = MultiChart::new(std::slice::from_ref(&f), &[0, 1, 2]).unwrap();
        let solo = crate::chart::class_count(&f, &[0, 1, 2]).unwrap();
        assert_eq!(multi.class_count(), solo);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(MultiChart::new(&[], &[0]).is_err());
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(4, 0);
        assert!(MultiChart::new(&[a.clone(), b], &[0]).is_err());
        assert!(MultiChart::new(&[a], &[0, 1, 2]).is_err());
    }

    #[test]
    fn shared_alphas_really_shared() {
        // The α functions depend only on the chart, not the output index.
        let outs = adder_outputs();
        let chart = MultiChart::new(&outs, &[0, 1]).unwrap();
        let codes =
            CodeAssignment::new((0..chart.class_count() as u32).collect(), chart.code_bits())
                .unwrap();
        let a1 = chart.alphas(&codes);
        let a2 = chart.alphas(&codes);
        assert_eq!(a1, a2);
        assert!(a1.iter().all(|a| a.vars() == 2));
    }
}
