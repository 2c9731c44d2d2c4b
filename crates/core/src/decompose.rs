//! Roth–Karp decomposition steps and recursive LUT network construction.
//!
//! A single [`decompose_step`] performs `f(X, Y) = g(α(X), Y)` for a chosen
//! bound set and encoder; [`Decomposer`] drives the full recursion that the
//! HYDE mapping flow applies to every function: select a λ set, extract
//! compatible classes, encode them, emit the α functions as LUTs, and
//! recurse on the image until everything is κ-feasible. A Shannon-expansion
//! fallback guarantees termination when no bound set is gainful.

use crate::chart::DecompositionChart;
use crate::encoding::{build_alphas, build_image, ceil_log2, CodeAssignment, EncoderKind};
use crate::varpart::VariablePartitioner;
use crate::CoreError;
use hyde_logic::diag::{any_deny, Code, Diagnostic, Location};
use hyde_logic::network::project_to_support;
use hyde_logic::{Network, NodeId, TruthTable};

/// The artifacts of one disjoint decomposition step.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Bound (λ) set variables of the original function.
    pub bound: Vec<usize>,
    /// Free (μ) set variables, ascending.
    pub free: Vec<usize>,
    /// Decomposition (α) functions over the bound variables.
    pub alphas: Vec<TruthTable>,
    /// Image function `g` over `alphas.len() + free.len()` variables
    /// (α bits first), with unused code points resolved to 0.
    pub image: TruthTable,
    /// Don't-care set of the image (unused code points).
    pub image_dc: TruthTable,
    /// The codes assigned to the compatible classes.
    pub codes: CodeAssignment,
}

impl Decomposition {
    /// Number of α functions (`t`).
    pub fn alpha_count(&self) -> usize {
        self.alphas.len()
    }

    /// Recomposes `g(α(x), y)` and checks equality with `f` on every
    /// minterm.
    ///
    /// Thin wrapper over [`Decomposition::diagnostics`]: true iff no
    /// deny-level diagnostic fires.
    pub fn verify(&self, f: &TruthTable) -> bool {
        !any_deny(&self.diagnostics(f))
    }

    /// Proof hook: materializes `g(α(x), y)` as a truth table over the
    /// original variable space, so independent oracles (exhaustive
    /// simulation, SAT/BDD equivalence checks) can compare it against
    /// `f` without re-deriving the recomposition arithmetic.
    pub fn recomposed_table(&self) -> TruthTable {
        let n = self.bound.len() + self.free.len();
        let t = self.alphas.len();
        TruthTable::from_fn(n, |m| {
            let mut x = 0u32;
            for (i, &v) in self.bound.iter().enumerate() {
                if m >> v & 1 == 1 {
                    x |= 1 << i;
                }
            }
            let mut g_in = 0u32;
            for (bit, alpha) in self.alphas.iter().enumerate() {
                if alpha.eval(x) {
                    g_in |= 1 << bit;
                }
            }
            for (i, &v) in self.free.iter().enumerate() {
                if m >> v & 1 == 1 {
                    g_in |= 1 << (t + i);
                }
            }
            self.image.eval(g_in)
        })
    }

    /// Runs the structured invariant checks of one decomposition step.
    ///
    /// Emits `HY101` for non-injective codes, `HY102` (warn) for pliable
    /// code widths, and `HY104` for every recomposition mismatch between
    /// `g(α(x), y)` and `f` (first mismatching minterm reported).
    pub fn diagnostics(&self, f: &TruthTable) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        crate::encoding::code_diagnostics(&self.codes, &mut out);
        let t = self.alphas.len();
        for m in 0..f.num_minterms() as u32 {
            let mut x = 0u32;
            for (i, &v) in self.bound.iter().enumerate() {
                if m >> v & 1 == 1 {
                    x |= 1 << i;
                }
            }
            let mut g_in = 0u32;
            for (bit, alpha) in self.alphas.iter().enumerate() {
                if alpha.eval(x) {
                    g_in |= 1 << bit;
                }
            }
            for (i, &v) in self.free.iter().enumerate() {
                if m >> v & 1 == 1 {
                    g_in |= 1 << (t + i);
                }
            }
            if self.image.eval(g_in) != f.eval(m) {
                out.push(
                    Diagnostic::new(
                        Code::EncodingRecomposition,
                        format!("g(α(x), y) differs from f at minterm {m}"),
                    )
                    .at(Location::Minterm(m as usize)),
                );
                break;
            }
        }
        out
    }
}

/// Performs one decomposition step of `f` with the given bound set and
/// encoder.
///
/// # Errors
///
/// Returns [`CoreError::InvalidBoundSet`] for malformed bound sets and
/// propagates encoder failures.
pub fn decompose_step(
    f: &TruthTable,
    bound: &[usize],
    encoder: &EncoderKind,
    k: usize,
) -> Result<Decomposition, CoreError> {
    step(f, bound, encoder, k, &hyde_guard::Budget::unlimited(), None)
}

/// [`decompose_step`] with the encoder's internal searches run under
/// `budget` (failing with [`CoreError::OutOfBudget`] instead of blowing up
/// on adversarial class structures) and sharing the NPN search memo
/// `cache` (the HYDE encoder runs λ-set searches of its own).
fn step(
    f: &TruthTable,
    bound: &[usize],
    encoder: &EncoderKind,
    k: usize,
    budget: &hyde_guard::Budget,
    cache: Option<&std::sync::Arc<crate::dcache::DecompCache>>,
) -> Result<Decomposition, CoreError> {
    let _obs = hyde_obs::span!("decompose.step");
    hyde_obs::counter("decompose.steps", 1);
    let chart = {
        let _obs = hyde_obs::span!("chart.build");
        DecompositionChart::new(f, bound)?
    };
    let classes = chart.classes();
    hyde_obs::counter("decompose.classes", classes.len() as u64);
    let codes = {
        let _obs = hyde_obs::span!("encoding.encode");
        let mut enc = encoder.build();
        enc.set_budget(*budget);
        if let Some(cache) = cache {
            enc.set_decomp_cache(cache.clone());
        }
        enc.encode(classes, k)?
    };
    let alphas = build_alphas(classes.class_map(), &codes, bound.len());
    let (image, image_dc) = build_image(classes, &codes);
    let d = Decomposition {
        bound: chart.bound().to_vec(),
        free: chart.free().to_vec(),
        alphas,
        image,
        image_dc,
        codes,
    };
    // Invariant gate at the Decomposer step boundary: in debug builds (or
    // release builds with `strict-checks`) every step must lint clean (no
    // deny-level diagnostic).
    #[cfg(any(debug_assertions, feature = "strict-checks"))]
    {
        let diags = d.diagnostics(f);
        assert!(
            !any_deny(&diags),
            "decompose_step invariant gate failed: {}",
            diags
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
    Ok(d)
}

/// Statistics of one recursive decomposition run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecomposeStats {
    /// Number of Roth–Karp steps taken.
    pub steps: usize,
    /// Number of Shannon-expansion fallbacks.
    pub shannon_fallbacks: usize,
    /// Total α functions emitted.
    pub alpha_luts: usize,
}

/// Recursive decomposer producing κ-feasible LUT networks.
///
/// # Example
///
/// ```
/// use hyde_core::decompose::Decomposer;
/// use hyde_core::encoding::EncoderKind;
/// use hyde_logic::TruthTable;
///
/// let f = TruthTable::from_fn(7, |m| m.count_ones() % 2 == 1); // parity-7
/// let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 1 });
/// let (net, _stats) = dec.decompose_to_network(&f, "par7").unwrap();
/// assert!(net.is_k_feasible(5));
/// // The network still computes parity:
/// let bits = [true, false, true, true, false, false, false];
/// assert_eq!(net.eval(&bits), vec![true]);
/// ```
#[derive(Debug, Clone)]
pub struct Decomposer {
    k: usize,
    encoder: EncoderKind,
    budget: hyde_guard::Budget,
    chaos: Option<hyde_guard::Chaos>,
    /// Chaos site context (usually the circuit name); combined with the
    /// node prefix it keys injection deterministically.
    chaos_ctx: String,
    /// Shared NPN-keyed search memo, forwarded to the partitioner and the
    /// encoder at every step (see [`crate::dcache`]).
    cache: Option<std::sync::Arc<crate::dcache::DecompCache>>,
}

impl Decomposer {
    /// Creates a decomposer targeting `k`-input LUTs.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (Shannon fallback needs 3-input muxes).
    pub fn new(k: usize, encoder: EncoderKind) -> Self {
        assert!(k >= 3, "LUT size must be at least 3");
        Decomposer {
            k,
            encoder,
            budget: hyde_guard::Budget::unlimited(),
            chaos: None,
            chaos_ctx: String::new(),
            cache: None,
        }
    }

    /// Applies a resource budget: the λ-set search fails with
    /// [`CoreError::OutOfBudget`] instead of evaluating more candidates
    /// (or growing a BDD larger) than the budget allows, and an expired
    /// deadline aborts the recursion at the next step boundary.
    pub fn with_budget(mut self, budget: hyde_guard::Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms deterministic fault injection. `ctx` (usually the circuit
    /// name) keys the injection sites together with each node prefix.
    pub fn with_chaos(mut self, chaos: Option<hyde_guard::Chaos>, ctx: &str) -> Self {
        self.chaos = chaos;
        self.chaos_ctx = ctx.to_string();
        self
    }

    /// Attaches a shared NPN-keyed search memo: λ-set searches at every
    /// recursion level (and inside the HYDE encoder) are answered from
    /// the cache when possible. `None` disables memoization.
    pub fn with_cache(mut self, cache: Option<std::sync::Arc<crate::dcache::DecompCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// The resource budget in force.
    pub fn budget(&self) -> &hyde_guard::Budget {
        &self.budget
    }

    /// Target LUT size κ.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Decomposes `f` into a fresh κ-feasible network with one output.
    ///
    /// # Errors
    ///
    /// Propagates decomposition errors; verification failures surface as
    /// [`CoreError::Verification`].
    pub fn decompose_to_network(
        &self,
        f: &TruthTable,
        name: &str,
    ) -> Result<(Network, DecomposeStats), CoreError> {
        let mut net = Network::new(name);
        let inputs: Vec<NodeId> = (0..f.vars())
            .map(|i| net.add_input(&format!("x{i}")))
            .collect();
        let mut stats = DecomposeStats::default();
        let out = self.decompose_onto(&mut net, f, &inputs, name, &mut stats)?;
        net.mark_output(name, out);
        Ok((net, stats))
    }

    /// Decomposes `f` inside an existing network, with `signals[i]` driving
    /// variable `i` of `f`. Returns the node computing `f`.
    ///
    /// # Errors
    ///
    /// Propagates decomposition errors.
    pub fn decompose_onto(
        &self,
        net: &mut Network,
        f: &TruthTable,
        signals: &[NodeId],
        prefix: &str,
        stats: &mut DecomposeStats,
    ) -> Result<NodeId, CoreError> {
        self.decompose_onto_avoiding(
            net,
            f,
            signals,
            &std::collections::HashSet::new(),
            prefix,
            stats,
        )
    }

    /// Like [`Self::decompose_onto`], but treats the signals in `avoid` as
    /// pseudo primary inputs to be kept out of bound sets wherever possible
    /// (Section 4.3: "pseudo primary inputs are preferred to be kept in the
    /// μ set during decomposition" so the duplication cone stays small).
    ///
    /// # Errors
    ///
    /// Propagates decomposition errors.
    pub fn decompose_onto_avoiding(
        &self,
        net: &mut Network,
        f: &TruthTable,
        signals: &[NodeId],
        avoid: &std::collections::HashSet<NodeId>,
        prefix: &str,
        stats: &mut DecomposeStats,
    ) -> Result<NodeId, CoreError> {
        assert_eq!(f.vars(), signals.len(), "one signal per variable");
        // Support minimization first.
        let support = f.support();
        if support.len() < f.vars() {
            let reduced = project_to_support(f, &support);
            let sigs: Vec<NodeId> = support.iter().map(|&v| signals[v]).collect();
            return self.decompose_onto_avoiding(net, &reduced, &sigs, avoid, prefix, stats);
        }
        if f.vars() == 0 {
            return Ok(net.add_constant(&format!("{prefix}_const"), !f.is_zero()));
        }
        if f.vars() <= self.k {
            return net
                .add_node(prefix, signals.to_vec(), f.clone())
                .map_err(CoreError::from);
        }
        // Budget gates fire only on non-trivial steps: k-feasible
        // functions above never cost anything worth bounding.
        self.budget.check_deadline()?;
        if let Some(chaos) = self.chaos {
            let site = format!("exact:{}:{}", self.chaos_ctx, prefix);
            if chaos.trips(&site, 4) {
                return Err(CoreError::OutOfBudget(hyde_guard::OutOfBudget::injected(
                    hyde_guard::Resource::Candidates,
                )));
            }
        }
        // Choose a λ set of size k (classes must fit in < k bits to make
        // progress: t + (n-k) < n). Prefer bound sets avoiding pseudo
        // signals; fall back to the unrestricted search.
        let mut vp = VariablePartitioner::default().with_budget(&self.budget);
        if let Some(cache) = &self.cache {
            vp = vp.with_cache(cache.clone());
        }
        let clean: Vec<usize> = (0..f.vars())
            .filter(|&v| !avoid.contains(&signals[v]))
            .collect();
        let mut pick = if clean.len() >= self.k && !avoid.is_empty() {
            match vp.best_bound_set_among(f, self.k, &clean) {
                Ok(p) => Some(p),
                // Budget exhaustion must surface, not be swallowed like
                // an infeasible clean bound set.
                Err(e @ CoreError::OutOfBudget(_)) => return Err(e),
                Err(_) => None,
            }
        } else {
            None
        };
        if pick.as_ref().is_none_or(|(_, c)| ceil_log2(*c) >= self.k) {
            let unrestricted = vp.best_bound_set(f, self.k)?;
            let take_unrestricted = match &pick {
                None => true,
                // Only give up the clean bound set if it makes no progress
                // and the unrestricted one does.
                Some((_, c)) => ceil_log2(*c) >= self.k && ceil_log2(unrestricted.1) < self.k,
            };
            if take_unrestricted {
                pick = Some(unrestricted);
            }
        }
        let (bound, class_cnt) =
            pick.ok_or_else(|| CoreError::InvalidBoundSet("no bound set selected".into()))?;
        let t = ceil_log2(class_cnt);
        if t >= self.k {
            // No gainful bound set: Shannon-expand, preferring a pseudo
            // variable (duplication happens at recovery anyway).
            stats.shannon_fallbacks += 1;
            hyde_obs::counter("decompose.shannon", 1);
            let var = (0..f.vars())
                .rev()
                .find(|&v| avoid.contains(&signals[v]))
                .unwrap_or(f.vars() - 1);
            let f0 = f.cofactor(var, false);
            let f1 = f.cofactor(var, true);
            let n0 = self.decompose_onto_avoiding(
                net,
                &f0,
                signals,
                avoid,
                &format!("{prefix}_lo"),
                stats,
            )?;
            let n1 = self.decompose_onto_avoiding(
                net,
                &f1,
                signals,
                avoid,
                &format!("{prefix}_hi"),
                stats,
            )?;
            // mux(s, a, b) = s ? b : a over vars (s, a, b).
            let mux = TruthTable::from_fn(3, |m| {
                if m & 1 == 1 {
                    m >> 2 & 1 == 1
                } else {
                    m >> 1 & 1 == 1
                }
            });
            return net
                .add_node(prefix, vec![signals[var], n0, n1], mux)
                .map_err(CoreError::from);
        }
        stats.steps += 1;
        let d = step(
            f,
            &bound,
            &self.encoder,
            self.k,
            &self.budget,
            self.cache.as_ref(),
        )?;
        if !d.verify(f) {
            return Err(CoreError::Verification(format!(
                "recomposition mismatch at node {prefix}"
            )));
        }
        // Emit α LUTs (each has |bound| = k inputs). An α built over a
        // pseudo signal is itself pseudo-derived (duplication source).
        let bound_sigs: Vec<NodeId> = d.bound.iter().map(|&v| signals[v]).collect();
        let alpha_tainted = bound_sigs.iter().any(|s| avoid.contains(s));
        let mut next_avoid = avoid.clone();
        let mut g_sigs: Vec<NodeId> = Vec::with_capacity(d.alphas.len() + d.free.len());
        for (i, alpha) in d.alphas.iter().enumerate() {
            let id = net
                .add_node(&format!("{prefix}_a{i}"), bound_sigs.clone(), alpha.clone())
                .map_err(CoreError::from)?;
            stats.alpha_luts += 1;
            if alpha_tainted {
                next_avoid.insert(id);
            }
            g_sigs.push(id);
        }
        for &v in &d.free {
            g_sigs.push(signals[v]);
        }
        // Recurse on the image.
        self.decompose_onto_avoiding(
            net,
            &d.image,
            &g_sigs,
            &next_avoid,
            &format!("{prefix}_g"),
            stats,
        )
    }
}

/// Decomposes a wide function held as a BDD into a κ-feasible network,
/// without ever materializing a full truth table of the function.
///
/// Bound sets are chosen greedily over the BDD (sampled candidates scored
/// by [`hyde_bdd::Bdd::compatible_class_count`]); each step emits the α
/// LUTs (κ-input truth tables enumerated from the α BDDs) and recurses on
/// the image BDD. A Shannon fallback on the topmost support variable
/// guarantees termination.
///
/// # Errors
///
/// Propagates decomposition errors.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use hyde_core::decompose::decompose_bdd_to_network;
/// use hyde_bdd::Bdd;
///
/// // 18-input OR-of-AND-pairs: far beyond truth-table width comfort.
/// let mut bdd = Bdd::new(18);
/// let mut f = bdd.zero();
/// for i in (0..18).step_by(2) {
///     let a = bdd.var(i);
///     let b = bdd.var(i + 1);
///     let ab = bdd.and(a, b);
///     f = bdd.or(f, ab);
/// }
/// let net = decompose_bdd_to_network(&mut bdd, f, 5, "wide", 64)?;
/// assert!(net.is_k_feasible(5));
/// # Ok(())
/// # }
/// ```
pub fn decompose_bdd_to_network(
    bdd: &mut hyde_bdd::Bdd,
    f: hyde_bdd::Ref,
    k: usize,
    name: &str,
    candidate_budget: usize,
) -> Result<Network, CoreError> {
    assert!(k >= 3, "LUT size must be at least 3");
    let _obs = hyde_obs::span!("decompose.bdd");
    let n = bdd.num_vars();
    let mut net = Network::new(name);
    let signals: Vec<NodeId> = (0..n).map(|i| net.add_input(&format!("x{i}"))).collect();
    let out = bdd_rec(
        bdd,
        f,
        k,
        &mut net,
        &signals,
        name,
        candidate_budget,
        0,
        &[],
    )?;
    net.mark_output(name, out);
    net.sweep();
    Ok(net)
}

#[allow(clippy::too_many_arguments)]
fn bdd_rec(
    bdd: &mut hyde_bdd::Bdd,
    f: hyde_bdd::Ref,
    k: usize,
    net: &mut Network,
    signals: &[NodeId],
    prefix: &str,
    budget: usize,
    depth: usize,
    keep: &[hyde_bdd::Ref],
) -> Result<NodeId, CoreError> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    // Recursion entry is a GC safe point: the only live refs in this
    // manager are `f` and the caller-held `keep` roots (pending Shannon
    // siblings). No-op unless a threshold is armed (see set_gc_threshold).
    {
        let mut roots = keep.to_vec();
        roots.push(f);
        bdd.maybe_gc(&roots);
    }
    let support = bdd.support(f);
    if support.is_empty() {
        return Ok(net.add_constant(&format!("{prefix}_const"), f == bdd.one()));
    }
    if support.len() <= k {
        // Enumerate the local truth table over the support.
        let table = TruthTable::from_fn(support.len(), |m| {
            let mut full = 0u32;
            for (i, &v) in support.iter().enumerate() {
                if m >> i & 1 == 1 {
                    full |= 1 << v;
                }
            }
            bdd.eval(f, full)
        });
        let sigs: Vec<NodeId> = support.iter().map(|&v| signals[v]).collect();
        return net.add_node(prefix, sigs, table).map_err(CoreError::from);
    }
    // Candidate bound sets: seeded random k-subsets of the support.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0_0D + depth as u64);
    let mut best: Option<(Vec<usize>, usize)> = None;
    for _ in 0..budget {
        let mut cand = support.clone();
        cand.shuffle(&mut rng);
        cand.truncate(k);
        cand.sort_unstable();
        let classes = bdd.compatible_class_count(f, &cand);
        if best.as_ref().is_none_or(|(_, c)| classes < *c) {
            best = Some((cand, classes));
        }
    }
    let (bound, classes) = best.ok_or_else(|| {
        CoreError::OutOfBudget(hyde_guard::OutOfBudget::new(
            hyde_guard::Resource::Candidates,
            budget as u64,
        ))
    })?;
    let t = crate::encoding::ceil_log2(classes);
    if t >= k {
        // Shannon fallback on the first support variable.
        let var = support[0];
        let f0 = bdd.cofactor(f, var, false);
        let f1 = bdd.cofactor(f, var, true);
        // The low recursion must keep f1 alive (it is still pending in
        // this frame); the high recursion inherits only the caller's
        // roots — f and f0 are dead by then.
        let mut keep_lo = keep.to_vec();
        keep_lo.push(f1);
        let n0 = bdd_rec(
            bdd,
            f0,
            k,
            net,
            signals,
            &format!("{prefix}_lo"),
            budget,
            depth + 1,
            &keep_lo,
        )?;
        let n1 = bdd_rec(
            bdd,
            f1,
            k,
            net,
            signals,
            &format!("{prefix}_hi"),
            budget,
            depth + 1,
            keep,
        )?;
        let mux = TruthTable::from_fn(3, |m| {
            if m & 1 == 1 {
                m >> 2 & 1 == 1
            } else {
                m >> 1 & 1 == 1
            }
        });
        return net
            .add_node(prefix, vec![signals[var], n0, n1], mux)
            .map_err(CoreError::from);
    }
    let (d, gman) = crate::bdd_decompose::bdd_decompose(bdd, f, &bound, None)?;
    // α LUTs: enumerate over the k bound variables.
    let bound_sigs: Vec<NodeId> = d.bound.iter().map(|&v| signals[v]).collect();
    let mut g_signals = signals.to_vec();
    for (i, &alpha) in d.alphas.iter().enumerate() {
        let table = TruthTable::from_fn(d.bound.len(), |m| {
            let mut full = 0u32;
            for (j, &v) in d.bound.iter().enumerate() {
                if m >> j & 1 == 1 {
                    full |= 1 << v;
                }
            }
            bdd.eval(alpha, full)
        });
        let id = net
            .add_node(&format!("{prefix}_a{i}"), bound_sigs.clone(), table)
            .map_err(CoreError::from)?;
        g_signals.push(id);
    }
    // Compact the image onto its support so managers do not grow without
    // bound across recursion levels, then recurse.
    let (mut compacted, g, g_support) = crate::bdd_decompose::compact_to_support(&gman, d.image);
    let compact_signals: Vec<NodeId> = g_support.iter().map(|&v| g_signals[v]).collect();
    drop(gman);
    // Fresh manager for the image: caller-held roots live in the old
    // manager, so the recursion starts with no extra keeps (but inherits
    // the old manager's GC arming so deep recursions stay bounded).
    compacted.set_gc_threshold(bdd.gc_threshold());
    bdd_rec(
        &mut compacted,
        g,
        k,
        net,
        &compact_signals,
        &format!("{prefix}_g"),
        budget,
        depth + 1,
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn single_step_verifies() {
        let f = (TruthTable::var(5, 0) & TruthTable::var(5, 1))
            ^ (TruthTable::var(5, 2) & TruthTable::var(5, 3) & TruthTable::var(5, 4));
        let d = decompose_step(&f, &[0, 1], &EncoderKind::Lexicographic, 4).unwrap();
        assert!(d.verify(&f));
        assert_eq!(d.alpha_count(), 1); // 2 classes -> 1 bit
    }

    #[test]
    fn step_with_random_codes_verifies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for seed in 0..5 {
            let f = TruthTable::random(7, &mut rng);
            let d = decompose_step(&f, &[0, 2, 4], &EncoderKind::Random { seed }, 5).unwrap();
            assert!(d.verify(&f), "seed {seed}");
            assert!(d.codes.is_strict());
        }
    }

    #[test]
    fn parity_decomposes_without_fallback() {
        let f = TruthTable::from_fn(9, |m| m.count_ones() % 2 == 1);
        let dec = Decomposer::new(4, EncoderKind::Lexicographic);
        let (net, stats) = dec.decompose_to_network(&f, "par9").unwrap();
        assert!(net.is_k_feasible(4));
        assert_eq!(stats.shannon_fallbacks, 0);
        for m in 0u32..512 {
            let bits: Vec<bool> = (0..9).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(net.eval(&bits)[0], m.count_ones() % 2 == 1, "m={m}");
        }
    }

    #[test]
    fn random_functions_decompose_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for trial in 0..6 {
            let f = TruthTable::random(8, &mut rng);
            for enc in [
                EncoderKind::Lexicographic,
                EncoderKind::Random { seed: trial },
                EncoderKind::Hyde { seed: trial },
            ] {
                let dec = Decomposer::new(5, enc);
                let (net, _) = dec.decompose_to_network(&f, "rnd").unwrap();
                assert!(net.is_k_feasible(5));
                for m in (0u32..256).step_by(7) {
                    let bits: Vec<bool> = (0..8).map(|i| m >> i & 1 == 1).collect();
                    assert_eq!(net.eval(&bits)[0], f.eval(m), "trial {trial} m {m}");
                }
            }
        }
    }

    #[test]
    fn small_function_is_single_lut() {
        let f = TruthTable::from_fn(4, |m| m.count_ones() >= 2);
        let dec = Decomposer::new(5, EncoderKind::Lexicographic);
        let (net, stats) = dec.decompose_to_network(&f, "maj4").unwrap();
        assert_eq!(net.internal_count(), 1);
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn vacuous_variables_are_dropped() {
        // 8-var function depending on 3 vars only.
        let f = TruthTable::from_fn(8, |m| {
            let (a, b, c) = (m & 1, m >> 3 & 1, m >> 6 & 1);
            a & b | c == 1
        });
        let dec = Decomposer::new(5, EncoderKind::Lexicographic);
        let (net, _) = dec.decompose_to_network(&f, "vac").unwrap();
        assert_eq!(net.internal_count(), 1);
    }

    #[test]
    fn constant_function() {
        let f = TruthTable::one(6);
        let dec = Decomposer::new(4, EncoderKind::Lexicographic);
        let (net, _) = dec.decompose_to_network(&f, "one").unwrap();
        assert_eq!(net.eval(&[false; 6]), vec![true]);
    }

    #[test]
    fn shannon_fallback_still_correct() {
        // Force fallbacks by using a tiny k on dense random functions.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let f = TruthTable::random(6, &mut rng);
        let dec = Decomposer::new(3, EncoderKind::Lexicographic);
        let (net, _stats) = dec.decompose_to_network(&f, "hard").unwrap();
        assert!(net.is_k_feasible(3));
        for m in 0u32..64 {
            let bits: Vec<bool> = (0..6).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(net.eval(&bits)[0], f.eval(m), "m={m}");
        }
    }

    #[test]
    fn bdd_path_maps_wide_functions() {
        // 20-input function: OR of 2-input ANDs, decomposes cleanly.
        let mut bdd = hyde_bdd::Bdd::new(20);
        let mut f = bdd.zero();
        for i in (0..20).step_by(2) {
            let a = bdd.var(i);
            let b = bdd.var(i + 1);
            let ab = bdd.and(a, b);
            f = bdd.or(f, ab);
        }
        let net = decompose_bdd_to_network(&mut bdd, f, 5, "wide20", 32).unwrap();
        assert!(net.is_k_feasible(5));
        // Spot-check correctness via network eval against the BDD.
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let positions: Vec<usize> = net
            .inputs()
            .iter()
            .map(|&id| {
                net.node_name(id)
                    .strip_prefix('x')
                    .and_then(|s| s.parse().ok())
                    .unwrap()
            })
            .collect();
        for _ in 0..500 {
            let m: u32 = rng.gen_range(0..1 << 20);
            let bits: Vec<bool> = positions.iter().map(|&p| m >> p & 1 == 1).collect();
            assert_eq!(net.eval(&bits)[0], bdd.eval(f, m), "m={m}");
        }
    }

    #[test]
    fn bdd_path_agrees_with_table_path_on_small_functions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let tt = TruthTable::random(8, &mut rng);
        let mut bdd = hyde_bdd::Bdd::new(8);
        let f = bdd.from_fn(|m| tt.eval(m));
        let net = decompose_bdd_to_network(&mut bdd, f, 5, "cmp", 64).unwrap();
        assert!(net.is_k_feasible(5));
        let positions: Vec<usize> = net
            .inputs()
            .iter()
            .map(|&id| {
                net.node_name(id)
                    .strip_prefix('x')
                    .and_then(|s| s.parse().ok())
                    .unwrap()
            })
            .collect();
        for m in 0u32..256 {
            let bits: Vec<bool> = positions.iter().map(|&p| m >> p & 1 == 1).collect();
            assert_eq!(net.eval(&bits)[0], tt.eval(m), "m={m}");
        }
    }

    #[test]
    fn decompose_onto_shares_signals() {
        // Two functions over the same inputs inside one network.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let f = TruthTable::random(7, &mut rng);
        let g = TruthTable::random(7, &mut rng);
        let dec = Decomposer::new(5, EncoderKind::Lexicographic);
        let mut net = Network::new("two");
        let inputs: Vec<NodeId> = (0..7).map(|i| net.add_input(&format!("i{i}"))).collect();
        let mut stats = DecomposeStats::default();
        let nf = dec
            .decompose_onto(&mut net, &f, &inputs, "f", &mut stats)
            .unwrap();
        let ng = dec
            .decompose_onto(&mut net, &g, &inputs, "g", &mut stats)
            .unwrap();
        net.mark_output("f", nf);
        net.mark_output("g", ng);
        for m in (0u32..128).step_by(3) {
            let bits: Vec<bool> = (0..7).map(|i| m >> i & 1 == 1).collect();
            let out = net.eval(&bits);
            assert_eq!(out[0], f.eval(m));
            assert_eq!(out[1], g.eval(m));
        }
    }
}
