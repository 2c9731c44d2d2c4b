//! Compatible class encoding (Section 3.2, Figure 3 of the HYDE paper).
//!
//! After a decomposition fixes its compatible classes, the classes must be
//! assigned binary codes. HYDE's insight is that the *number of compatible
//! classes produced by the next decomposition of the image function* is the
//! cost that matters for LUT synthesis — not cube or literal counts as in
//! Murgai et al. `[3]`. The procedure of Figure 3:
//!
//! 1. encode at random; if the image is already κ-feasible, stop (by
//!    Theorem 3.1 the encoding is then irrelevant);
//! 2. run λ-set selection on the trial image to learn which α variables
//!    land in the bound set (`#C` chart columns) and which in the free set
//!    (`#R` rows), plus which original free variables join the bound set;
//! 3. extract each class function's *partition* (Definition 3.1) over the
//!    inner bound positions, in a global symbol alphabet;
//! 4. **Step 5** — group partitions that should share a chart *column* via
//!    a maximum-weight bipartite b-matching on the `Psc` column graph;
//! 5. **Step 7** — iteratively merge row sets with a matching on the
//!    benefit-weighted row graph until at most `#R` rows remain;
//! 6. place classes on the `#R × #C` encoding chart and read codes off the
//!    grid (Theorem 3.2: only row/column membership matters, not the exact
//!    codes);
//! 7. **Step 8** — keep the result only if it beats a random encoding on
//!    the measured class count.
//!
//! Baseline encoders ([`EncoderKind::Lexicographic`],
//! [`EncoderKind::Random`], [`EncoderKind::CubeMin`]) reproduce the
//! comparison points of the evaluation.

use crate::chart::{class_count, column_patterns, split_bound_free};
use crate::classes::CompatibleClasses;
use crate::partition::{shared_psc_sets, Partition};
use crate::varpart::VariablePartitioner;
use crate::CoreError;
use hyde_logic::diag::{Code, Diagnostic, Location};
use hyde_logic::{SopCover, TruthTable};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Binary codes assigned to compatible classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeAssignment {
    codes: Vec<u32>,
    bits: usize,
}

impl CodeAssignment {
    /// Creates an assignment of `bits`-bit codes, one per class.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CodeSpaceTooSmall`] if some code needs more
    /// than `bits` bits or the classes outnumber the code space.
    pub fn new(codes: Vec<u32>, bits: usize) -> Result<Self, CoreError> {
        if codes.len() > (1usize << bits) || codes.iter().any(|&c| c as usize >= 1 << bits) {
            return Err(CoreError::CodeSpaceTooSmall {
                classes: codes.len(),
                bits,
            });
        }
        Ok(CodeAssignment { codes, bits })
    }

    /// Number of classes encoded.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether no class is encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Code of class `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// All codes in class order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Width of the code in bits (`t`, the number of α functions).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Whether each class received a unique code (strict encoding).
    pub fn is_strict(&self) -> bool {
        let distinct: HashSet<u32> = self.codes.iter().copied().collect();
        distinct.len() == self.codes.len()
    }

    /// Whether the code uses the minimum number of bits
    /// (`bits == ⌈log₂ classes⌉`); otherwise the encoding is *pliable*.
    pub fn is_rigid(&self) -> bool {
        self.bits == ceil_log2(self.codes.len())
    }
}

/// Structured invariant checks on a code assignment, appended to `out`.
///
/// Emits `HY101` (deny) for every class whose code collides with an
/// earlier class (non-injective assignment) and `HY102` (warn) when the
/// code width is not `⌈log₂ #classes⌉` (pliable encoding).
pub fn code_diagnostics(codes: &CodeAssignment, out: &mut Vec<Diagnostic>) {
    let mut first_with: HashMap<u32, usize> = HashMap::new();
    for (cls, &code) in codes.codes().iter().enumerate() {
        if let Some(&prev) = first_with.get(&code) {
            out.push(
                Diagnostic::new(
                    Code::EncodingNonInjective,
                    format!("classes {prev} and {cls} share code {code:#b}"),
                )
                .at(Location::Class(cls)),
            );
        } else {
            first_with.insert(code, cls);
        }
    }
    let want = ceil_log2(codes.len());
    if codes.bits() != want {
        out.push(Diagnostic::new(
            Code::EncodingWidthMismatch,
            format!(
                "code width is {} bits but ⌈log₂ {}⌉ = {want} (pliable encoding)",
                codes.bits(),
                codes.len()
            ),
        ));
    }
}

/// `⌈log₂ n⌉`, with `n == 0 or 1` giving 0.
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Builds the image function `g(α_0..α_{t-1}, y)` from classes and codes.
///
/// Image variables: `0..t` are the α bits, `t..t+|μ|` the original free
/// variables (in class-function variable order). Returns `(on, dc)` where
/// the don't-care set covers code points no class uses.
///
/// # Panics
///
/// Panics if `codes.len() != classes.len()` or codes are not strict.
pub fn build_image(
    classes: &CompatibleClasses,
    codes: &CodeAssignment,
) -> (TruthTable, TruthTable) {
    assert_eq!(codes.len(), classes.len(), "one code per class required");
    assert!(
        codes.is_strict(),
        "image construction requires strict codes"
    );
    let t = codes.bits();
    let mu = if classes.is_empty() {
        0
    } else {
        classes.class_fn(0).vars()
    };
    let mut by_code: HashMap<u32, usize> = HashMap::new();
    for (i, &c) in codes.codes().iter().enumerate() {
        by_code.insert(c, i);
    }
    let vars = t + mu;
    let code_mask = (1u32 << t) - 1;
    let on = TruthTable::from_fn(vars, |m| {
        let a = m & code_mask;
        let y = m >> t;
        match by_code.get(&a) {
            Some(&cls) => classes.class_fn(cls).eval(y),
            None => false,
        }
    });
    let dc = TruthTable::from_fn(vars, |m| !by_code.contains_key(&(m & code_mask)));
    (on, dc)
}

/// Derives the α (decomposition) functions over the bound variables from a
/// column-to-class map and codes.
///
/// `class_of[c]` is the class of bound assignment `c`; the result has one
/// table of arity `bound_vars` per code bit.
///
/// # Panics
///
/// Panics if `class_of.len() != 2^bound_vars`.
pub fn build_alphas(
    class_of: &[usize],
    codes: &CodeAssignment,
    bound_vars: usize,
) -> Vec<TruthTable> {
    assert_eq!(class_of.len(), 1 << bound_vars, "column map size mismatch");
    (0..codes.bits())
        .map(|bit| {
            TruthTable::from_fn(bound_vars, |c| {
                codes.code(class_of[c as usize]) >> bit & 1 == 1
            })
        })
        .collect()
}

/// The encoding strategies compared in the paper's evaluation.
#[derive(Debug, Clone)]
pub enum EncoderKind {
    /// Class `i` gets code `i` — the cheapest strict encoding.
    Lexicographic,
    /// A random strict assignment (seeded).
    Random {
        /// RNG seed (deterministic runs).
        seed: u64,
    },
    /// Murgai-style `[3]`: hill-climb over code swaps minimizing the cube
    /// count of the image's irredundant SOP.
    CubeMin {
        /// RNG seed.
        seed: u64,
        /// Hill-climbing iterations.
        iters: usize,
    },
    /// The HYDE procedure of Figure 3 (class-count objective).
    Hyde {
        /// RNG seed for the random trial encodings of Steps 1 and 8.
        seed: u64,
    },
    /// Support-minimizing encoding in the spirit of Huang et al. `[6]` and
    /// Legl et al. `[7]`: hill-climb over code swaps/bit-flips minimizing the
    /// total support of the α functions.
    SupportMin {
        /// RNG seed.
        seed: u64,
        /// Hill-climbing iterations.
        iters: usize,
    },
}

/// A compatible class encoder.
///
/// `k` is the LUT input size κ: encoders may stop early when the image is
/// already κ-feasible and the HYDE encoder uses it for λ-set selection.
pub trait Encoder {
    /// Chooses codes for the classes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CodeSpaceTooSmall`] when the classes cannot be
    /// encoded (only possible for constrained implementations).
    fn encode(
        &mut self,
        classes: &CompatibleClasses,
        k: usize,
    ) -> Result<CodeAssignment, CoreError>;

    /// Applies a resource budget. Encoders whose internal searches can
    /// blow up (the HYDE encoder's λ-set selection) honor it by failing
    /// with [`CoreError::OutOfBudget`]; the default implementation
    /// ignores the budget (cheap encoders have nothing to bound).
    fn set_budget(&mut self, _budget: hyde_guard::Budget) {}

    /// Attaches the shared NPN-keyed decomposition cache. Only encoders
    /// that run λ-set searches internally (the HYDE encoder's step 3)
    /// have anything to memoize; the default implementation ignores it.
    fn set_decomp_cache(&mut self, _cache: std::sync::Arc<crate::dcache::DecompCache>) {}
}

impl EncoderKind {
    /// Instantiates the encoder.
    pub fn build(&self) -> Box<dyn Encoder> {
        let inner: Box<dyn Encoder> = match self {
            EncoderKind::Lexicographic => Box::new(LexEncoder),
            EncoderKind::Random { seed } => Box::new(RandomEncoder { seed: *seed }),
            EncoderKind::CubeMin { seed, iters } => Box::new(CubeMinEncoder {
                seed: *seed,
                iters: *iters,
            }),
            EncoderKind::Hyde { seed } => Box::new(HydeEncoder {
                seed: *seed,
                budget: hyde_guard::Budget::unlimited(),
                cache: None,
            }),
            EncoderKind::SupportMin { seed, iters } => Box::new(SupportMinEncoder {
                seed: *seed,
                iters: *iters,
            }),
        };
        // Invariant gate at the encoder boundary: in debug builds (or
        // release builds with `strict-checks`) every assignment leaving an
        // encoder must lint clean.
        #[cfg(any(debug_assertions, feature = "strict-checks"))]
        let inner: Box<dyn Encoder> = Box::new(CheckedEncoder { inner });
        inner
    }
}

/// Invariant gate wrapped around every encoder by [`EncoderKind::build`]
/// in debug builds (or release builds with `strict-checks`): the returned
/// assignment must code every class and produce no deny-level diagnostic
/// (`HY101`).
#[cfg(any(debug_assertions, feature = "strict-checks"))]
struct CheckedEncoder {
    inner: Box<dyn Encoder>,
}

#[cfg(any(debug_assertions, feature = "strict-checks"))]
impl Encoder for CheckedEncoder {
    fn set_budget(&mut self, budget: hyde_guard::Budget) {
        self.inner.set_budget(budget);
    }

    fn set_decomp_cache(&mut self, cache: std::sync::Arc<crate::dcache::DecompCache>) {
        self.inner.set_decomp_cache(cache);
    }

    fn encode(
        &mut self,
        classes: &CompatibleClasses,
        k: usize,
    ) -> Result<CodeAssignment, CoreError> {
        let codes = self.inner.encode(classes, k)?;
        assert_eq!(
            codes.len(),
            classes.len(),
            "encoder invariant gate: assignment must code every class"
        );
        let mut diags = Vec::new();
        code_diagnostics(&codes, &mut diags);
        assert!(
            !hyde_logic::diag::any_deny(&diags),
            "encoder invariant gate failed: {}",
            diags
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
        Ok(codes)
    }
}

struct LexEncoder;

impl Encoder for LexEncoder {
    fn encode(
        &mut self,
        classes: &CompatibleClasses,
        _k: usize,
    ) -> Result<CodeAssignment, CoreError> {
        let t = ceil_log2(classes.len());
        CodeAssignment::new((0..classes.len() as u32).collect(), t)
    }
}

struct RandomEncoder {
    seed: u64,
}

impl Encoder for RandomEncoder {
    fn encode(
        &mut self,
        classes: &CompatibleClasses,
        _k: usize,
    ) -> Result<CodeAssignment, CoreError> {
        let t = ceil_log2(classes.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        CodeAssignment::new(random_strict_codes(classes.len(), t, &mut rng), t)
    }
}

fn random_strict_codes(n: usize, bits: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut pool: Vec<u32> = (0..1u32 << bits).collect();
    pool.shuffle(rng);
    pool.truncate(n);
    pool
}

struct CubeMinEncoder {
    seed: u64,
    iters: usize,
}

impl Encoder for CubeMinEncoder {
    fn encode(
        &mut self,
        classes: &CompatibleClasses,
        _k: usize,
    ) -> Result<CodeAssignment, CoreError> {
        let t = ceil_log2(classes.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut codes = (0..classes.len() as u32).collect::<Vec<_>>();
        let cost = |codes: &[u32]| -> usize {
            let ca = CodeAssignment::new(codes.to_vec(), t).expect("codes fit");
            let (on, dc) = build_image(classes, &ca);
            let upper = &on | &dc;
            SopCover::isop_between(&on, &upper).cube_count()
        };
        let mut best_cost = cost(&codes);
        for _ in 0..self.iters {
            if classes.len() < 2 {
                break;
            }
            let i = rng.gen_range(0..classes.len());
            let j = rng.gen_range(0..classes.len());
            if i == j {
                continue;
            }
            codes.swap(i, j);
            let c = cost(&codes);
            if c <= best_cost {
                best_cost = c;
            } else {
                codes.swap(i, j);
            }
        }
        CodeAssignment::new(codes, t)
    }
}

/// Support-minimizing encoder (`[6]`/`[7]`-style objective): total α support.
struct SupportMinEncoder {
    seed: u64,
    iters: usize,
}

impl Encoder for SupportMinEncoder {
    fn encode(
        &mut self,
        classes: &CompatibleClasses,
        _k: usize,
    ) -> Result<CodeAssignment, CoreError> {
        let t = ceil_log2(classes.len());
        let class_of = classes.class_map();
        let n_cols = class_of.len();
        // The α support objective needs a genuine chart (columns = 2^b
        // bound assignments); ingredient encodings (arbitrary column
        // counts) fall back to lexicographic codes.
        if !n_cols.is_power_of_two() || classes.len() < 2 {
            return CodeAssignment::new((0..classes.len() as u32).collect(), t);
        }
        let bound_vars = n_cols.trailing_zeros() as usize;
        let cost = |codes: &[u32]| -> usize {
            let ca = CodeAssignment::new(codes.to_vec(), t).expect("codes fit");
            build_alphas(class_of, &ca, bound_vars)
                .iter()
                .map(|a| a.support().len())
                .sum()
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut codes: Vec<u32> = (0..classes.len() as u32).collect();
        let mut best_cost = cost(&codes);
        for _ in 0..self.iters {
            // Either swap two classes' codes or move one class to a free
            // code point.
            let mut cand = codes.clone();
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(0..cand.len());
                let j = rng.gen_range(0..cand.len());
                cand.swap(i, j);
            } else {
                let used: HashSet<u32> = cand.iter().copied().collect();
                let free: Vec<u32> = (0..1u32 << t).filter(|c| !used.contains(c)).collect();
                if free.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..cand.len());
                cand[i] = free[rng.gen_range(0..free.len())];
            }
            let c = cost(&cand);
            if c <= best_cost {
                best_cost = c;
                codes = cand;
            }
        }
        CodeAssignment::new(codes, t)
    }
}

/// The HYDE encoder (Figure 3). See module docs for the procedure.
struct HydeEncoder {
    seed: u64,
    budget: hyde_guard::Budget,
    cache: Option<std::sync::Arc<crate::dcache::DecompCache>>,
}

impl Encoder for HydeEncoder {
    fn set_budget(&mut self, budget: hyde_guard::Budget) {
        self.budget = budget;
    }

    fn set_decomp_cache(&mut self, cache: std::sync::Arc<crate::dcache::DecompCache>) {
        self.cache = Some(cache);
    }

    fn encode(
        &mut self,
        classes: &CompatibleClasses,
        k: usize,
    ) -> Result<CodeAssignment, CoreError> {
        let m = classes.len();
        let t = ceil_log2(m);
        let lex = CodeAssignment::new((0..m as u32).collect(), t)?;
        if m <= 1 || t == 0 {
            return Ok(lex);
        }
        let mu = classes.class_fn(0).vars();
        // Step 2: if the trial image is κ-feasible, the encoding is
        // irrelevant (Theorem 3.1 corollary).
        if t + mu <= k {
            return Ok(lex);
        }
        // Step 3: λ-set selection on the trial image.
        let (g_on, _) = build_image(classes, &lex);
        let g_support = g_on.support();
        if g_support.len() <= k {
            // The image is κ-feasible after vacuous-variable removal.
            return Ok(lex);
        }
        let mut partitioner = VariablePartitioner::default().with_budget(&self.budget);
        if let Some(cache) = &self.cache {
            partitioner = partitioner.with_cache(cache.clone());
        }
        let (lambda2, _) = partitioner.best_bound_set(&g_on, k)?;
        // Split λ' into α variables (code bits) and inner free variables.
        let a_cols: Vec<usize> = lambda2.iter().copied().filter(|&v| v < t).collect();
        let y1: Vec<usize> = lambda2
            .iter()
            .copied()
            .filter(|&v| v >= t)
            .map(|v| v - t)
            .collect();
        let a_rows: Vec<usize> = (0..t).filter(|v| !a_cols.contains(v)).collect();
        if a_cols.is_empty() || a_rows.is_empty() {
            // All α variables on one side: Theorem 3.1 — encoding cannot
            // change the class count; keep the cheap encoding.
            return Ok(lex);
        }
        let n_cols = 1usize << a_cols.len();
        let n_rows = 1usize << a_rows.len();

        // Step 4: class partitions over the inner bound positions, global
        // symbol alphabet over actual column patterns.
        let partitions = class_partitions(classes, &y1)?;

        // Step 5: column sets via b-matching.
        let col_sets = combine_column_sets(&partitions, n_rows);

        // Steps 6-7: row sets via benefit matching.
        let row_sets = combine_row_sets(&partitions, &col_sets, n_rows, n_cols);

        // Placement + code readout.
        let hyde_codes =
            place_and_encode(m, &col_sets, &row_sets, &a_cols, &a_rows, n_rows, n_cols, t)?;

        // Step 8: compare against a random encoding on the real objective.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rand_codes = CodeAssignment::new(random_strict_codes(m, t, &mut rng), t)?;
        let cost = |codes: &CodeAssignment| -> usize {
            let (on, _) = build_image(classes, codes);
            class_count(&on, &lambda2).unwrap_or(usize::MAX)
        };
        let hyde_cost = cost(&hyde_codes);
        let rand_cost = cost(&rand_codes);
        let lex_cost = cost(&lex);
        let mut best = (hyde_cost, hyde_codes);
        if rand_cost < best.0 {
            best = (rand_cost, rand_codes);
        }
        if lex_cost < best.0 {
            best = (lex_cost, lex);
        }
        Ok(best.1)
    }
}

/// Builds the partitions `Π_i` of every class function with respect to the
/// inner bound set `y1`, over a global symbol alphabet (equal symbols across
/// classes iff equal column patterns).
pub fn class_partitions(
    classes: &CompatibleClasses,
    y1: &[usize],
) -> Result<Vec<Partition>, CoreError> {
    let mu = classes.class_fn(0).vars();
    let mut alphabet: HashMap<TruthTable, u32> = HashMap::new();
    let mut out = Vec::with_capacity(classes.len());
    for fc in classes.class_fns() {
        let symbols = if y1.is_empty() || y1.len() >= mu {
            // Degenerate inner bound: single position.
            let next = alphabet.len() as u32;
            let id = *alphabet.entry(fc.clone()).or_insert(next);
            vec![id]
        } else {
            let (bound, free) = split_bound_free(mu, y1)?;
            column_patterns(fc, &bound, &free)
                .into_iter()
                .map(|pat| {
                    let next = alphabet.len() as u32;
                    *alphabet.entry(pat).or_insert(next)
                })
                .collect()
        };
        out.push(Partition::new(symbols));
    }
    Ok(out)
}

/// Step 5: evaluates which classes should be bound in the same column of
/// the encoding chart, via a maximum-weight bipartite b-matching on the
/// column graph `Gc` (one `Uc` vertex per shared `Psc`, capacity `#R`).
///
/// Returns the column sets (groups of class indices); classes matched to no
/// `Psc` vertex form singleton sets. Sets are sorted by descending size.
pub fn combine_column_sets(partitions: &[Partition], n_rows: usize) -> Vec<Vec<usize>> {
    let shared = shared_psc_sets(partitions);
    // Right vertices: copies of each Psc, enough capacity for all havers.
    let mut right_cap: Vec<i64> = Vec::new();
    let mut right_psc: Vec<usize> = Vec::new();
    for (s_idx, s) in shared.iter().enumerate() {
        // The paper allocates ⌈(#Partitions(Psc) − 1)/#R⌉ copies of each
        // Psc vertex (at least one), capping how many column sets one Psc
        // can spawn.
        let copies = (s.partitions.len() - 1).div_ceil(n_rows).max(1);
        for _ in 0..copies {
            right_cap.push(n_rows as i64);
            right_psc.push(s_idx);
        }
    }
    let left_cap = vec![1i64; partitions.len()];
    let mut edges = Vec::new();
    for (r, &s_idx) in right_psc.iter().enumerate() {
        let s = &shared[s_idx];
        let w = (s.positions.len() + s.partitions.len()) as i64;
        for &p in &s.partitions {
            edges.push((p, r, w));
        }
    }
    let matching = hyde_graph::max_weight_b_matching(&left_cap, &right_cap, &edges);
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut grouped: HashSet<usize> = HashSet::new();
    for &(l, r, _) in &matching.edges {
        groups.entry(r).or_default().push(l);
        grouped.insert(l);
    }
    // sa:allow(SA001): every group is sorted and the outer list re-sorted
    // with a total order below, so visit order cannot leak into results.
    let mut out: Vec<Vec<usize>> = groups
        .into_values()
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    for p in 0..partitions.len() {
        if !grouped.contains(&p) {
            out.push(vec![p]);
        }
    }
    out.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    out
}

/// Step 7: merges row sets until at most `n_rows` remain.
///
/// Row sets start as singletons; each round builds the benefit-weighted row
/// graph over the current row sets (represented by disjunction partitions),
/// finds a matching, and merges matched pairs in descending benefit order.
pub fn combine_row_sets(
    partitions: &[Partition],
    col_sets: &[Vec<usize>],
    n_rows: usize,
    n_cols: usize,
) -> Vec<Vec<usize>> {
    // Which column set each class belongs to (singletons included).
    let mut col_of: HashMap<usize, usize> = HashMap::new();
    for (ci, set) in col_sets.iter().enumerate() {
        for &p in set {
            col_of.insert(p, ci);
        }
    }
    // Gc edge weight of each class (for the same-column-set penalty).
    let shared = shared_psc_sets(partitions);
    let mut gc_weight: HashMap<usize, i64> = HashMap::new();
    for s in &shared {
        let w = (s.positions.len() + s.partitions.len()) as i64;
        for &p in &s.partitions {
            let e = gc_weight.entry(p).or_insert(0);
            *e = (*e).max(w);
        }
    }

    // Global symbol statistics.
    let n_symbols: usize = {
        let mut symbols = HashSet::new();
        for p in partitions {
            symbols.extend(p.symbols().iter().copied());
        }
        symbols.len().max(1)
    };

    let mut row_sets: Vec<Vec<usize>> = (0..partitions.len()).map(|p| vec![p]).collect();

    while row_sets.len() > n_rows {
        let reps: Vec<Partition> = row_sets
            .iter()
            .map(|set| {
                let parts: Vec<&Partition> = set.iter().map(|&p| &partitions[p]).collect();
                Partition::disjunction(&parts)
            })
            .collect();
        let sigma = (row_sets.len() as i64 - n_rows as i64).max(0);
        let n_col_sets = estimate_column_sets(&row_sets, &col_of);
        let tau = (n_col_sets as i64 - n_cols as i64).max(0);

        // Pairwise benefits.
        let mut edges: Vec<(usize, usize, i64)> = Vec::new();
        for i in 0..row_sets.len() {
            for j in (i + 1)..row_sets.len() {
                let mut b = merge_benefit(&reps[i], &reps[j], sigma, tau, n_symbols);
                // Same-column-set penalty: don't tear column partners apart.
                let same_col = row_sets[i].iter().any(|p| {
                    row_sets[j]
                        .iter()
                        .any(|q| col_of.get(p) == col_of.get(q) && col_of.contains_key(p))
                });
                if same_col {
                    let w = row_sets[i]
                        .iter()
                        .chain(&row_sets[j])
                        .filter_map(|p| gc_weight.get(p))
                        .copied()
                        .max()
                        .unwrap_or(0);
                    b -= w * 1000;
                }
                edges.push((i, j, b));
            }
        }
        // Maximum-cardinality matching, consumed in descending benefit
        // order (the paper's prescription).
        let pairs = hyde_graph::maximum_matching(
            row_sets.len(),
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        );
        let mut weighted: Vec<(i64, usize, usize)> = pairs
            .iter()
            .map(|&(u, v)| {
                let w = edges
                    .iter()
                    .find(|&&(a, b, _)| (a, b) == (u, v))
                    .map(|&(_, _, w)| w)
                    .unwrap_or(0);
                (w, u, v)
            })
            .collect();
        weighted.sort_by_key(|&(w, _, _)| std::cmp::Reverse(w));
        if weighted.is_empty() {
            break;
        }
        let mut merged_into: HashMap<usize, usize> = HashMap::new();
        let mut remaining = row_sets.len();
        for (_, u, v) in weighted {
            if remaining <= n_rows {
                break;
            }
            merged_into.insert(v, u);
            remaining -= 1;
        }
        if merged_into.is_empty() {
            break;
        }
        let mut new_sets: Vec<Vec<usize>> = Vec::with_capacity(remaining);
        let mut absorbed: HashMap<usize, Vec<usize>> = HashMap::new();
        // sa:allow(SA001): accumulation into per-target sets that are
        // sorted before use; visit order is absorbed by the sort.
        for (&v, &u) in &merged_into {
            absorbed
                .entry(u)
                .or_default()
                .extend(row_sets[v].iter().copied());
        }
        for (i, set) in row_sets.iter().enumerate() {
            if merged_into.contains_key(&i) {
                continue;
            }
            let mut s = set.clone();
            if let Some(extra) = absorbed.get(&i) {
                s.extend(extra.iter().copied());
            }
            s.sort_unstable();
            new_sets.push(s);
        }
        row_sets = new_sets;
    }
    row_sets.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    row_sets
}

fn estimate_column_sets(row_sets: &[Vec<usize>], col_of: &HashMap<usize, usize>) -> usize {
    let mut cols: HashSet<usize> = HashSet::new();
    let mut singles = 0usize;
    for set in row_sets {
        for p in set {
            match col_of.get(p) {
                Some(c) => {
                    cols.insert(*c);
                }
                None => singles += 1,
            }
        }
    }
    cols.len() + singles
}

/// The benefit `σ·Br + τ·Bc` of merging two row sets (Step 7 formulas).
fn merge_benefit(a: &Partition, b: &Partition, sigma: i64, tau: i64, n_symbols: usize) -> i64 {
    let d = Partition::disjunction(&[a, b]);
    let kinds = |p: &Partition| p.symbols().iter().collect::<HashSet<_>>().len() as i64;
    let n = n_symbols as i64;
    let n_ij = kinds(&d);
    let br = n - (n_ij - kinds(a)) - (n_ij - kinds(b));
    // Bc: symbols shared by both, each contributing (occurrences - K).
    let occ = |p: &Partition, s: u32| p.symbols().iter().filter(|&&x| x == s).count() as f64;
    let m = d.len() as f64;
    let k = m / n_symbols as f64;
    let sa: HashSet<u32> = a.symbols().iter().copied().collect();
    let sb: HashSet<u32> = b.symbols().iter().copied().collect();
    let bc: f64 = sa
        .intersection(&sb)
        .map(|&s| occ(a, s) + occ(b, s) - k)
        .sum();
    sigma * br + tau * (bc * 1.0).round() as i64
}

/// Places classes on the `n_rows × n_cols` encoding chart and derives the
/// codes: column bits go to the α variables in the next bound set
/// (`a_cols`), row bits to the α variables in the free set (`a_rows`).
#[allow(clippy::too_many_arguments)]
fn place_and_encode(
    m: usize,
    col_sets: &[Vec<usize>],
    row_sets: &[Vec<usize>],
    a_cols: &[usize],
    a_rows: &[usize],
    n_rows: usize,
    n_cols: usize,
    t: usize,
) -> Result<CodeAssignment, CoreError> {
    let mut grid: Vec<Vec<Option<usize>>> = vec![vec![None; n_cols]; n_rows];
    let mut placed: Vec<Option<(usize, usize)>> = vec![None; m];
    // Column of each class according to Step 5 (sets beyond n_cols
    // dissolve; Step 7 decisions take priority on conflicts).
    let mut col_hint: HashMap<usize, usize> = HashMap::new();
    for (ci, set) in col_sets.iter().enumerate().take(n_cols) {
        for &p in set {
            col_hint.insert(p, ci);
        }
    }
    let place = |grid: &mut Vec<Vec<Option<usize>>>,
                 placed: &mut Vec<Option<(usize, usize)>>,
                 cls: usize,
                 r: usize,
                 want_col: Option<usize>| {
        // Preferred column, else any free cell in this row, else any
        // free cell anywhere (row sets larger than n_cols spill).
        if let Some(c) = want_col {
            if grid[r][c].is_none() {
                grid[r][c] = Some(cls);
                placed[cls] = Some((r, c));
                return;
            }
        }
        if let Some(c) = (0..n_cols).find(|&c| grid[r][c].is_none()) {
            grid[r][c] = Some(cls);
            placed[cls] = Some((r, c));
            return;
        }
        'outer: for (rr, row) in grid.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                if cell.is_none() {
                    *cell = Some(cls);
                    placed[cls] = Some((rr, c));
                    break 'outer;
                }
            }
        }
    };
    for (r, set) in row_sets.iter().enumerate() {
        let r = r.min(n_rows - 1);
        for &cls in set {
            place(&mut grid, &mut placed, cls, r, col_hint.get(&cls).copied());
        }
    }
    // Derive codes: bit positions from the α variable split.
    let mut codes = vec![0u32; m];
    for (cls, pos) in placed.iter().enumerate() {
        let (r, c) = pos.ok_or_else(|| CoreError::CodeSpaceTooSmall {
            classes: m,
            bits: t,
        })?;
        let mut code = 0u32;
        for (i, &bit) in a_cols.iter().enumerate() {
            if c >> i & 1 == 1 {
                code |= 1 << bit;
            }
        }
        for (i, &bit) in a_rows.iter().enumerate() {
            if r >> i & 1 == 1 {
                code |= 1 << bit;
            }
        }
        codes[cls] = code;
    }
    CodeAssignment::new(codes, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::example_3_2_partitions;

    fn classes_from_fns(fns: Vec<TruthTable>) -> CompatibleClasses {
        let class_of: Vec<usize> = (0..fns.len()).collect();
        CompatibleClasses::from_parts(class_of, fns)
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn code_assignment_properties() {
        let ca = CodeAssignment::new(vec![0, 1, 2], 2).unwrap();
        assert!(ca.is_strict());
        assert!(ca.is_rigid());
        let pliable = CodeAssignment::new(vec![0, 1, 2], 3).unwrap();
        assert!(!pliable.is_rigid());
        let collided = CodeAssignment::new(vec![0, 0], 1).unwrap();
        assert!(!collided.is_strict());
        assert!(CodeAssignment::new(vec![0, 1, 4], 2).is_err());
        assert!(CodeAssignment::new(vec![0, 1, 2, 3, 0], 2).is_err());
    }

    #[test]
    fn build_image_and_alphas_recompose() {
        // f = (a&b) | (c&d); bound {a,b} -> 2 classes.
        use crate::chart::DecompositionChart;
        let f = (TruthTable::var(4, 0) & TruthTable::var(4, 1))
            | (TruthTable::var(4, 2) & TruthTable::var(4, 3));
        let chart = DecompositionChart::new(&f, &[0, 1]).unwrap();
        let classes = chart.classes();
        let codes = CodeAssignment::new(vec![0, 1], 1).unwrap();
        let (g, dc) = build_image(classes, &codes);
        assert!(dc.is_zero(), "2 classes fill 1 bit exactly");
        let alphas = build_alphas(classes.class_map(), &codes, 2);
        assert_eq!(alphas.len(), 1);
        // Recompose and compare.
        for m in 0u32..16 {
            let a_val = alphas[0].eval(m & 0b11);
            let y = m >> 2; // free vars c,d
            let g_in = (u32::from(a_val)) | (y << 1);
            assert_eq!(g.eval(g_in), f.eval(m), "minterm {m}");
        }
    }

    #[test]
    fn unused_codes_are_dont_care() {
        let fns = vec![
            TruthTable::var(2, 0),
            TruthTable::var(2, 1),
            TruthTable::one(2),
        ];
        let classes = classes_from_fns(fns);
        let codes = CodeAssignment::new(vec![0, 1, 2], 2).unwrap();
        let (_, dc) = build_image(&classes, &codes);
        // Code 3 unused -> all minterms with low bits 11 are dc.
        for m in 0u32..16 {
            assert_eq!(dc.eval(m), m & 0b11 == 0b11);
        }
    }

    #[test]
    fn lexicographic_encoder() {
        let classes = classes_from_fns(vec![
            TruthTable::zero(1),
            TruthTable::one(1),
            TruthTable::var(1, 0),
        ]);
        let ca = EncoderKind::Lexicographic
            .build()
            .encode(&classes, 5)
            .unwrap();
        assert_eq!(ca.codes(), &[0, 1, 2]);
        assert!(ca.is_strict() && ca.is_rigid());
    }

    #[test]
    fn random_encoder_is_strict_and_deterministic() {
        let classes = classes_from_fns(vec![
            TruthTable::zero(2),
            TruthTable::one(2),
            TruthTable::var(2, 0),
            TruthTable::var(2, 1),
            TruthTable::var(2, 0) ^ TruthTable::var(2, 1),
        ]);
        let a = EncoderKind::Random { seed: 7 }
            .build()
            .encode(&classes, 5)
            .unwrap();
        let b = EncoderKind::Random { seed: 7 }
            .build()
            .encode(&classes, 5)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.is_strict());
        assert_eq!(a.bits(), 3);
    }

    #[test]
    fn cube_min_encoder_never_worse_than_start() {
        let classes = classes_from_fns(vec![
            TruthTable::var(2, 0) & TruthTable::var(2, 1),
            TruthTable::var(2, 0) | TruthTable::var(2, 1),
            TruthTable::var(2, 0) ^ TruthTable::var(2, 1),
            TruthTable::zero(2),
        ]);
        let lex = EncoderKind::Lexicographic
            .build()
            .encode(&classes, 4)
            .unwrap();
        let opt = EncoderKind::CubeMin { seed: 3, iters: 40 }
            .build()
            .encode(&classes, 4)
            .unwrap();
        let cubes = |ca: &CodeAssignment| {
            let (on, dc) = build_image(&classes, ca);
            SopCover::isop_between(&on, &(&on | &dc)).cube_count()
        };
        assert!(cubes(&opt) <= cubes(&lex));
        assert!(opt.is_strict());
    }

    #[test]
    fn support_min_encoder_reduces_alpha_support() {
        use crate::chart::DecompositionChart;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(55);
        let mut improved = 0;
        let mut total = 0;
        for _ in 0..10 {
            let f = TruthTable::random(8, &mut rng);
            let chart = DecompositionChart::new(&f, &[0, 1, 2, 3]).unwrap();
            let classes = chart.classes().clone();
            if classes.len() < 3 {
                continue;
            }
            let t = ceil_log2(classes.len());
            let support_of = |ca: &CodeAssignment| -> usize {
                build_alphas(classes.class_map(), ca, 4)
                    .iter()
                    .map(|a| a.support().len())
                    .sum()
            };
            let lex = CodeAssignment::new((0..classes.len() as u32).collect(), t).unwrap();
            let opt = EncoderKind::SupportMin { seed: 3, iters: 60 }
                .build()
                .encode(&classes, 5)
                .unwrap();
            assert!(opt.is_strict());
            assert!(support_of(&opt) <= support_of(&lex));
            total += 1;
            if support_of(&opt) < support_of(&lex) {
                improved += 1;
            }
        }
        assert!(total >= 5);
        // On random functions alpha supports are usually already full, so
        // just require the optimizer never regresses and the loop ran.
        let _ = improved;
    }

    #[test]
    fn support_min_falls_back_for_ingredient_classes() {
        // 3 classes with identity class_of (not a power of two) -> lex.
        let classes = classes_from_fns(vec![
            TruthTable::zero(2),
            TruthTable::one(2),
            TruthTable::var(2, 0),
        ]);
        let ca = EncoderKind::SupportMin { seed: 1, iters: 10 }
            .build()
            .encode(&classes, 5)
            .unwrap();
        assert_eq!(ca.codes(), &[0, 1, 2]);
    }

    #[test]
    fn column_sets_reproduce_example_3_2_step_5() {
        let partitions = example_3_2_partitions();
        let sets = combine_column_sets(&partitions, 4);
        // Figure 5 result: {3,4,6,8} or {3,4,6,7,8}-choose-4 plus {2,7},
        // remaining singletons. The b-matching is exact, so the two
        // multi-member sets must have total weight 4*7 + 2*4 = 36.
        let multi: Vec<&Vec<usize>> = sets.iter().filter(|s| s.len() > 1).collect();
        assert_eq!(multi.len(), 2, "sets: {sets:?}");
        assert_eq!(multi[0].len(), 4);
        assert_eq!(multi[1].len(), 2);
        // The 4-member set comes from Psc13 = {3,4,6,7,8}.
        for p in multi[0] {
            assert!([3usize, 4, 6, 7, 8].contains(p));
        }
        // All ten partitions covered exactly once.
        let mut all: Vec<usize> = sets.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn row_sets_cover_all_partitions() {
        let partitions = example_3_2_partitions();
        let col_sets = combine_column_sets(&partitions, 4);
        let row_sets = combine_row_sets(&partitions, &col_sets, 4, 4);
        assert!(row_sets.len() <= 4, "row sets: {row_sets:?}");
        let mut all: Vec<usize> = row_sets.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn hyde_encoder_produces_valid_strict_codes() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..10 {
            let f = TruthTable::random(8, &mut rng);
            let chart = crate::chart::DecompositionChart::new(&f, &[0, 1, 2]).unwrap();
            let classes = chart.classes().clone();
            let ca = EncoderKind::Hyde { seed: trial }
                .build()
                .encode(&classes, 5)
                .unwrap();
            assert_eq!(ca.len(), classes.len());
            assert!(ca.is_strict(), "trial {trial}");
        }
    }

    #[test]
    fn hyde_encoder_no_worse_than_random_on_next_class_count() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let mut wins = 0;
        let mut total = 0;
        for trial in 0..12 {
            let f = TruthTable::random(9, &mut rng);
            let chart = crate::chart::DecompositionChart::new(&f, &[0, 1, 2, 3]).unwrap();
            let classes = chart.classes().clone();
            if classes.len() < 3 {
                continue;
            }
            let k = 5;
            let hyde = EncoderKind::Hyde { seed: 1000 + trial }
                .build()
                .encode(&classes, k)
                .unwrap();
            let rand_ca = EncoderKind::Random { seed: 2000 + trial }
                .build()
                .encode(&classes, k)
                .unwrap();
            // Evaluate both on their best k-bound set of the image.
            let vp = VariablePartitioner::default();
            let ncc = |ca: &CodeAssignment| {
                let (on, _) = build_image(&classes, ca);
                let (_, cc) = vp.best_bound_set(&on, k.min(on.vars() - 1)).unwrap();
                cc
            };
            let h = ncc(&hyde);
            let r = ncc(&rand_ca);
            total += 1;
            if h <= r {
                wins += 1;
            }
        }
        assert!(total > 5);
        // The encoder optimizes the class count at its own λ' selection;
        // re-evaluating at each image's independently chosen best bound set
        // adds noise, so require a majority rather than dominance.
        assert!(
            wins * 2 >= total,
            "hyde should usually match or beat random ({wins}/{total})"
        );
    }
}
