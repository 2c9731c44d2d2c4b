//! Hyper-function decomposition (Section 4 of the HYDE paper).
//!
//! A set of `n` distinct functions (*ingredients*) over a shared input
//! space is folded into one single-output *hyper-function* by `⌈log₂ n⌉`
//! *pseudo primary inputs* (Definition 4.1). Single-output decomposition of
//! the hyper-function then extracts sub-logic common to the outputs; only
//! the *duplication cone* — the transitive fanout of nodes fed by pseudo
//! inputs (Definitions 4.2–4.4) — must be replicated per ingredient, with
//! the pseudo inputs collapsed to that ingredient's code (Section 4.2).
//!
//! The ingredient codes are chosen by the same compatible-class encoding
//! machinery (Theorems 4.1/4.2 extend Theorems 3.1/3.2 to this setting):
//! ingredients play the role of compatible class functions.

use crate::classes::CompatibleClasses;
use crate::decompose::Decomposer;
use crate::encoding::{build_image, CodeAssignment, EncoderKind};
use crate::CoreError;
use hyde_logic::network::structural_merge;
use hyde_logic::{Network, NodeId, NodeRole, TruthTable};
use std::collections::HashSet;

/// A hyper-function built from ingredient functions.
///
/// Variable layout of [`HyperFunction::table`]: variables `0..pseudo_bits`
/// are the pseudo primary inputs `η_0..`, variables
/// `pseudo_bits..pseudo_bits + num_inputs` are the shared real inputs.
///
/// # Example
///
/// ```
/// use hyde_core::hyper::HyperFunction;
/// use hyde_core::encoding::EncoderKind;
/// use hyde_logic::TruthTable;
///
/// let f0 = TruthTable::var(3, 0) & TruthTable::var(3, 1);
/// let f1 = TruthTable::var(3, 1) | TruthTable::var(3, 2);
/// let h = HyperFunction::new(vec![f0.clone(), f1], &EncoderKind::Lexicographic, 5).unwrap();
/// assert_eq!(h.pseudo_bits(), 1);
/// assert_eq!(h.recover(0), f0);
/// ```
#[derive(Debug, Clone)]
pub struct HyperFunction {
    ingredients: Vec<TruthTable>,
    num_inputs: usize,
    pseudo_bits: usize,
    codes: CodeAssignment,
    table: TruthTable,
    dc: TruthTable,
}

impl HyperFunction {
    /// Builds a hyper-function from distinct ingredients over the same
    /// input space, encoding the ingredients with `encoder` (κ = `k`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBoundSet`] if `ingredients` is empty or
    /// the ingredients disagree in arity; duplicate ingredients are
    /// rejected too (Definition 4.1 requires distinct functions).
    pub fn new(
        ingredients: Vec<TruthTable>,
        encoder: &EncoderKind,
        k: usize,
    ) -> Result<Self, CoreError> {
        if ingredients.is_empty() {
            return Err(CoreError::InvalidBoundSet("no ingredients".into()));
        }
        let u = ingredients[0].vars();
        if ingredients.iter().any(|f| f.vars() != u) {
            return Err(CoreError::InvalidBoundSet(
                "ingredients must share one input space".into(),
            ));
        }
        let distinct: HashSet<&TruthTable> = ingredients.iter().collect();
        if distinct.len() != ingredients.len() {
            return Err(CoreError::InvalidBoundSet(
                "ingredients must be distinct functions".into(),
            ));
        }
        let _obs = hyde_obs::span!("hyper.fold");
        // Ingredients as "compatible classes": reuse the encoder machinery.
        let classes =
            CompatibleClasses::from_parts((0..ingredients.len()).collect(), ingredients.clone());
        // Unbudgeted and uncached on purpose: budgeting the fold changes mapped output.
        let codes = encoder.encode(&classes, k, &hyde_guard::Budget::unlimited(), None)?;
        let (table, dc) = build_image(&classes, &codes);
        let h = HyperFunction {
            ingredients,
            num_inputs: u,
            pseudo_bits: codes.bits(),
            codes,
            table,
            dc,
        };
        // Invariant gate (HY203): every ingredient must be recoverable by
        // collapsing the pseudo inputs to its code. Active in debug builds
        // and in release builds with `strict-checks`.
        #[cfg(any(debug_assertions, feature = "strict-checks"))]
        for i in 0..h.ingredients.len() {
            assert_eq!(
                h.recover(i),
                h.ingredients[i],
                "HY203: ingredient {i} does not recover from the hyper-function"
            );
        }
        Ok(h)
    }

    /// The ingredient functions.
    pub fn ingredients(&self) -> &[TruthTable] {
        &self.ingredients
    }

    /// Number of shared real inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of pseudo primary inputs (`⌈log₂ n⌉` for rigid encodings).
    pub fn pseudo_bits(&self) -> usize {
        self.pseudo_bits
    }

    /// The ingredient codes.
    pub fn codes(&self) -> &CodeAssignment {
        &self.codes
    }

    /// The hyper-function truth table (pseudo inputs are variables
    /// `0..pseudo_bits`).
    pub fn table(&self) -> &TruthTable {
        &self.table
    }

    /// Don't-care set (pseudo-input codes assigned to no ingredient).
    pub fn dc_set(&self) -> &TruthTable {
        &self.dc
    }

    /// Flips one minterm of the hyper-function table.
    ///
    /// This deliberately breaks the recovery invariant; it exists so the
    /// `hyde-verify` mutation tests can exercise the `HY203` lint. Never
    /// use it in flows.
    #[doc(hidden)]
    pub fn corrupt_table_bit(&mut self, minterm: u32) {
        let v = self.table.eval(minterm);
        self.table.set(minterm, !v);
    }

    /// Proof hook: ingredient `idx`'s code as `(pseudo_var, value)`
    /// unit constraints over the hyper-table variable space, ready to be
    /// asserted as SAT assumptions or BDD cofactors.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn code_units(&self, idx: usize) -> Vec<(usize, bool)> {
        let code = self.codes.code(idx);
        (0..self.pseudo_bits)
            .map(|bit| (bit, code >> bit & 1 == 1))
            .collect()
    }

    /// Recovers ingredient `idx` by cofactoring the pseudo inputs to its
    /// code — must equal the original ingredient.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn recover(&self, idx: usize) -> TruthTable {
        let code = self.codes.code(idx);
        let mut f = self.table.clone();
        for bit in 0..self.pseudo_bits {
            f = f.cofactor(bit, code >> bit & 1 == 1);
        }
        hyde_logic::network::project_to_support(
            &f,
            &(self.pseudo_bits..self.pseudo_bits + self.num_inputs).collect::<Vec<_>>(),
        )
    }

    /// Decomposes the hyper-function into a κ-feasible network whose
    /// primary inputs are `eta0..` (pseudo) followed by `x0..` (real).
    ///
    /// # Errors
    ///
    /// Propagates decomposition errors.
    pub fn decompose(&self, dec: &Decomposer) -> Result<HyperNetwork, CoreError> {
        let _obs = hyde_obs::span!("hyper.decompose");
        let mut net = Network::new("hyper");
        let mut signals = Vec::new();
        let mut pseudo_inputs = Vec::new();
        for b in 0..self.pseudo_bits {
            let id = net.add_input(&format!("eta{b}"));
            pseudo_inputs.push(id);
            signals.push(id);
        }
        for i in 0..self.num_inputs {
            signals.push(net.add_input(&format!("x{i}")));
        }
        // Keep pseudo primary inputs in the μ set wherever possible so the
        // duplication cone stays small (Section 4.3).
        let avoid: std::collections::HashSet<NodeId> = pseudo_inputs.iter().copied().collect();
        let out = dec.decompose_onto_avoiding(&mut net, &self.table, &signals, &avoid, "F")?;
        net.mark_output("F", out);
        Ok(HyperNetwork {
            hyper: self.clone(),
            network: net,
            pseudo_inputs,
        })
    }
}

/// A decomposed hyper-function network plus its duplication analysis.
#[derive(Debug, Clone)]
pub struct HyperNetwork {
    hyper: HyperFunction,
    /// The κ-feasible network computing the hyper-function.
    pub network: Network,
    /// The pseudo primary input nodes (`η`).
    pub pseudo_inputs: Vec<NodeId>,
}

impl HyperNetwork {
    /// The hyper-function this network implements.
    pub fn hyper(&self) -> &HyperFunction {
        &self.hyper
    }

    /// Duplication source (Definition 4.3): nodes with at least one pseudo
    /// primary input as a direct fanin.
    pub fn duplication_source(&self) -> Vec<NodeId> {
        let pseudo: HashSet<NodeId> = self.pseudo_inputs.iter().copied().collect();
        self.network
            .node_ids()
            .into_iter()
            .filter(|&id| {
                self.network.role(id) == NodeRole::Internal
                    && self.network.fanins(id).iter().any(|f| pseudo.contains(f))
            })
            .collect()
    }

    /// Duplication cone (Definition 4.4): union of transitive fanouts of
    /// the duplication source.
    pub fn duplication_cone(&self) -> Vec<NodeId> {
        let mut cone: HashSet<NodeId> = HashSet::new();
        for src in self.duplication_source() {
            cone.extend(self.network.transitive_fanout(src));
        }
        // sa:allow(SA001): collected then sorted, so order cannot leak.
        let mut out: Vec<NodeId> = cone.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// `m`-th layer duplication set (Definition 4.5): nodes in the
    /// transitive fanout of exactly `m` pseudo primary inputs.
    pub fn dset(&self, m: usize) -> Vec<NodeId> {
        let mut count: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
        for &eta in &self.pseudo_inputs {
            for id in self.network.transitive_fanout(eta) {
                if self.network.role(id) == NodeRole::Internal {
                    *count.entry(id).or_insert(0) += 1;
                }
            }
        }
        // sa:allow(SA001): collected then sorted, so order cannot leak.
        let mut out: Vec<NodeId> = count
            .into_iter()
            .filter(|&(_, c)| c == m)
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Proof hook: ingredient `idx`'s code as `(pseudo_node, value)`
    /// unit constraints over the decomposed network's pseudo primary
    /// inputs. A constant-collapse proof asserts these units and checks
    /// the hyper output against the implemented ingredient output.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn ingredient_units(&self, idx: usize) -> Vec<(NodeId, bool)> {
        let code = self.hyper.codes().code(idx);
        self.pseudo_inputs
            .iter()
            .enumerate()
            .map(|(bit, &eta)| (eta, code >> bit & 1 == 1))
            .collect()
    }

    /// Predicted number of LUTs after implementing every ingredient, using
    /// the paper's duplication arithmetic: a node in `DSet_m` (`m < n`)
    /// needs `2^m − 1` extra copies, a node in `DSet_n` needs
    /// `ingredients − 1` extras, and everything outside the cone is shared.
    ///
    /// This is an upper bound: constant collapapse usually erases part of the
    /// cone (compare with [`HyperNetwork::implement_ingredients`]).
    pub fn predicted_lut_bound(&self) -> usize {
        let n = self.pseudo_inputs.len();
        let base = self.network.internal_count();
        let mut extra = 0usize;
        for m in 1..=n {
            let copies = if m == n {
                self.hyper.ingredients().len().saturating_sub(1)
            } else {
                (1usize << m) - 1
            };
            extra += self.dset(m).len() * copies;
        }
        base + extra
    }

    /// Implements every ingredient: clones the network per ingredient,
    /// collapses the pseudo inputs to that ingredient's code, sweeps, and
    /// structurally merges the results so logic outside the duplication
    /// cone is shared (Section 4.2 / Example 4.1).
    ///
    /// # Errors
    ///
    /// Propagates network manipulation failures.
    pub fn implement_ingredients(&self) -> Result<Network, CoreError> {
        let _obs = hyde_obs::span!("hyper.implement");
        hyde_obs::counter("hyper.ingredients", self.hyper.ingredients().len() as u64);
        // Each ingredient collapse works on its own clone, so the fan-out
        // runs on worker threads; results land at their ingredient index
        // and the structural merge below walks them in that order, keeping
        // the network byte-identical for any HYDE_THREADS.
        let indices: Vec<usize> = (0..self.hyper.ingredients().len()).collect();
        let threads = crate::parallel::thread_count();
        let parts: Vec<Network> = crate::parallel::map_chunked(
            "hyper.collapse",
            &indices,
            threads,
            |&idx| -> Result<Network, CoreError> {
                let code = self.hyper.codes().code(idx);
                let mut net = self.network.clone();
                for (bit, &eta) in self.pseudo_inputs.iter().enumerate() {
                    net.collapse_input_constant(eta, code >> bit & 1 == 1)?;
                }
                net.sweep();
                net.rename_outputs(|_| format!("f{idx}"));
                Ok(net)
            },
        )
        .into_iter()
        .collect::<Result<_, _>>()?;
        let refs: Vec<&Network> = parts.iter().collect();
        let mut merged = structural_merge("ingredients", &refs);
        merged.sweep();
        // Invariant gate (HY201): every pseudo input must have been
        // collapsed away; none may survive into the merged implementation.
        // Active in debug builds and in release builds with `strict-checks`.
        #[cfg(any(debug_assertions, feature = "strict-checks"))]
        assert!(
            merged
                .inputs()
                .iter()
                .all(|&id| !merged.node_name(id).starts_with("eta")),
            "HY201: a pseudo primary input leaked into the implemented network"
        );
        Ok(merged)
    }

    /// Time-multiplexed implementation (the paper's conclusion): keep the
    /// decomposed hyper network as-is and drive the pseudo primary inputs
    /// as *mode* pins at run time — no duplication cone replication at all.
    ///
    /// Returns the network (a clone) whose first inputs are the mode pins;
    /// selecting mode `codes().code(i)` makes the single output compute
    /// ingredient `i`.
    pub fn time_multiplexed(&self) -> TimeMultiplexed {
        TimeMultiplexed {
            network: self.network.clone(),
            mode_inputs: self.pseudo_inputs.clone(),
            codes: self.hyper.codes().clone(),
        }
    }

    /// LUTs of the time-multiplexed implementation — always exactly the
    /// hyper network's size, independent of the duplication cone.
    pub fn time_multiplexed_lut_count(&self) -> usize {
        self.network.internal_count()
    }

    /// Convenience: LUT count of [`HyperNetwork::implement_ingredients`].
    ///
    /// # Errors
    ///
    /// Propagates implementation failures.
    pub fn implemented_lut_count(&self) -> Result<usize, CoreError> {
        Ok(self.implement_ingredients()?.internal_count())
    }

    /// Verifies that every implemented output matches its ingredient.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Verification`] on any mismatch.
    pub fn verify_ingredients(&self) -> Result<(), CoreError> {
        let merged = self.implement_ingredients()?;
        let _obs = hyde_obs::span!("hyper.verify");
        let u = self.hyper.num_inputs();
        // Map merged PIs (subset of x0..) by name to variable positions.
        let pi_positions: Vec<usize> = merged
            .inputs()
            .iter()
            .map(|&id| {
                let name = merged.node_name(id);
                name.strip_prefix('x')
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| {
                        CoreError::Verification(format!(
                            "implemented input '{name}' is not named x<i>"
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        // Scan the minterm space in contiguous blocks on worker threads;
        // evaluation is pure per minterm. Blocks report their first
        // mismatch, and walking the reports in block order reproduces the
        // sequential scan's error exactly.
        let total = 1u32 << u;
        let threads = crate::parallel::thread_count();
        let block = total.div_ceil(threads as u32).max(1);
        let ranges: Vec<(u32, u32)> = (0..threads as u32)
            .map(|i| (i * block, ((i + 1) * block).min(total)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let first_bad =
            crate::parallel::map_chunked("hyper.scan", &ranges, threads, |&(lo, hi)| {
                for m in lo..hi {
                    let bits: Vec<bool> = pi_positions.iter().map(|&p| m >> p & 1 == 1).collect();
                    let got = merged.eval(&bits);
                    for (o, &g) in got.iter().enumerate() {
                        if g != self.hyper.ingredients()[o].eval(m) {
                            return Some((o, m));
                        }
                    }
                }
                None
            });
        if let Some((o, m)) = first_bad.into_iter().flatten().next() {
            return Err(CoreError::Verification(format!(
                "ingredient {o} differs at minterm {m}"
            )));
        }
        Ok(())
    }
}

/// A time-multiplexed realization of a hyper-function: one physical copy
/// of the logic whose mode pins select which ingredient it computes
/// (the reconfigurable-computing application sketched in the paper's
/// conclusion).
#[derive(Debug, Clone)]
pub struct TimeMultiplexed {
    /// The κ-feasible network; mode pins are ordinary primary inputs.
    pub network: Network,
    /// The mode (pseudo primary input) pins.
    pub mode_inputs: Vec<NodeId>,
    /// Mode code of each ingredient.
    pub codes: CodeAssignment,
}

impl TimeMultiplexed {
    /// Evaluates ingredient `idx` on `real_inputs` (in `x0..` order) by
    /// driving the mode pins with the ingredient's code.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `real_inputs` has the wrong
    /// length.
    pub fn eval_ingredient(&self, idx: usize, real_inputs: &[bool]) -> bool {
        let code = self.codes.code(idx);
        let mode_count = self.mode_inputs.len();
        assert_eq!(
            real_inputs.len(),
            self.network.inputs().len() - mode_count,
            "wrong number of real input values"
        );
        let mut values = Vec::with_capacity(self.network.inputs().len());
        for b in 0..mode_count {
            values.push(code >> b & 1 == 1);
        }
        values.extend_from_slice(real_inputs);
        self.network.eval(&values)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_ingredients() -> Vec<TruthTable> {
        vec![
            TruthTable::var(4, 0) & TruthTable::var(4, 1),
            TruthTable::var(4, 1) | TruthTable::var(4, 2),
            TruthTable::var(4, 0) ^ TruthTable::var(4, 3),
            TruthTable::from_fn(4, |m| m.count_ones() >= 3),
        ]
    }

    #[test]
    fn construction_and_recovery() {
        let ing = sample_ingredients();
        let h = HyperFunction::new(ing.clone(), &EncoderKind::Lexicographic, 5).unwrap();
        assert_eq!(h.pseudo_bits(), 2);
        assert_eq!(h.num_inputs(), 4);
        for (i, f) in ing.iter().enumerate() {
            assert_eq!(h.recover(i), *f, "ingredient {i}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(HyperFunction::new(vec![], &EncoderKind::Lexicographic, 5).is_err());
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(3, 0);
        assert!(HyperFunction::new(vec![a.clone(), b], &EncoderKind::Lexicographic, 5).is_err());
        assert!(HyperFunction::new(vec![a.clone(), a], &EncoderKind::Lexicographic, 5).is_err());
    }

    #[test]
    fn dc_covers_unused_codes() {
        // 3 ingredients need 2 bits; one code unused.
        let ing = sample_ingredients()[..3].to_vec();
        let h = HyperFunction::new(ing, &EncoderKind::Lexicographic, 5).unwrap();
        assert!(!h.dc_set().is_zero());
        assert_eq!(h.dc_set().count_ones(), 1 << h.num_inputs());
    }

    #[test]
    fn decompose_and_analyze_cone() {
        let ing = sample_ingredients();
        let h = HyperFunction::new(ing, &EncoderKind::Hyde { seed: 3 }, 5).unwrap();
        let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 3 });
        let hn = h.decompose(&dec).unwrap();
        assert!(hn.network.is_k_feasible(5) || hn.network.is_k_feasible(5));
        let ds = hn.duplication_source();
        let cone = hn.duplication_cone();
        // Every source node is in the cone.
        for s in &ds {
            assert!(cone.contains(s));
        }
        // DSets partition the internal cone nodes by pseudo-input reach.
        let total: usize = (1..=hn.pseudo_inputs.len()).map(|m| hn.dset(m).len()).sum();
        let internal_cone = cone
            .iter()
            .filter(|&&id| hn.network.role(id) == NodeRole::Internal)
            .count();
        assert_eq!(total, internal_cone);
        assert!(hn.predicted_lut_bound() >= hn.network.internal_count());
    }

    #[test]
    fn implement_ingredients_is_correct() {
        let ing = sample_ingredients();
        let h = HyperFunction::new(ing.clone(), &EncoderKind::Lexicographic, 5).unwrap();
        let dec = Decomposer::new(5, EncoderKind::Lexicographic);
        let hn = h.decompose(&dec).unwrap();
        hn.verify_ingredients().unwrap();
        let merged = hn.implement_ingredients().unwrap();
        assert_eq!(merged.outputs().len(), ing.len());
        assert!(merged.is_k_feasible(5));
    }

    #[test]
    fn sharing_beats_duplication_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let ing: Vec<TruthTable> = (0..4).map(|_| TruthTable::random(6, &mut rng)).collect();
        let h = HyperFunction::new(ing, &EncoderKind::Hyde { seed: 9 }, 5).unwrap();
        let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 9 });
        let hn = h.decompose(&dec).unwrap();
        let implemented = hn.implemented_lut_count().unwrap();
        assert!(
            implemented <= hn.predicted_lut_bound(),
            "constant collapse must not exceed the duplication arithmetic"
        );
    }

    #[test]
    fn time_multiplexed_uses_no_duplication() {
        let ing = sample_ingredients();
        let h = HyperFunction::new(ing.clone(), &EncoderKind::Hyde { seed: 5 }, 5).unwrap();
        let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 5 });
        let hn = h.decompose(&dec).unwrap();
        let tm = hn.time_multiplexed();
        assert_eq!(tm.network.internal_count(), hn.time_multiplexed_lut_count());
        // Never more than the duplicated implementation's bound; usually
        // much less when the cone is non-trivial.
        assert!(hn.time_multiplexed_lut_count() <= hn.predicted_lut_bound());
        // Functional check per mode.
        for (i, f) in ing.iter().enumerate() {
            for m in 0u32..16 {
                let bits: Vec<bool> = (0..4).map(|v| m >> v & 1 == 1).collect();
                assert_eq!(tm.eval_ingredient(i, &bits), f.eval(m), "mode {i} m {m}");
            }
        }
    }

    #[test]
    fn two_ingredients_single_pseudo_input() {
        let a = TruthTable::var(3, 0) & TruthTable::var(3, 1);
        let b = TruthTable::var(3, 0) ^ TruthTable::var(3, 2);
        let h =
            HyperFunction::new(vec![a.clone(), b.clone()], &EncoderKind::Lexicographic, 4).unwrap();
        assert_eq!(h.pseudo_bits(), 1);
        // Hyper table: eta=0 -> a, eta=1 -> b (lexicographic codes).
        for m in 0u32..8 {
            assert_eq!(h.table().eval(m << 1), a.eval(m));
            assert_eq!(h.table().eval((m << 1) | 1), b.eval(m));
        }
    }
}
