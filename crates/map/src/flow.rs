//! End-to-end mapping flows.
//!
//! Four flows reproduce the comparison points of the paper's evaluation:
//!
//! * [`FlowKind::PerOutput`] — each output decomposed independently, no
//!   sharing (the "`[8]` without resubstitution" column of Table 2);
//! * [`FlowKind::SharedAlpha`] — per-output decomposition followed by
//!   structural sharing of identical LUTs (the resubstitution-style
//!   baselines);
//! * [`FlowKind::ColumnEncoding`] — FGSyn-style multi-output Roth–Karp
//!   decomposition: one joint chart per step, α functions shared across
//!   outputs. The paper shows this is the special case of hyper-function
//!   decomposition where pseudo inputs never enter a bound set (§4.3);
//! * [`FlowKind::Hyper`] — the HYDE flow: outputs clustered into
//!   hyper-functions, each decomposed as a single-output function with
//!   compatible class encoding, ingredients recovered by pseudo-input
//!   collapse with everything outside the duplication cone shared.

use crate::cluster::cluster_outputs;
use crate::report::MappingReport;
use crate::xc3000::pack_clbs;
use hyde_bdd::Bdd;
use hyde_core::dcache::DecompCache;
use hyde_core::decompose::{decompose_bdd_to_network, DecomposeStats, Decomposer};
use hyde_core::encoding::{ceil_log2, CodeAssignment, EncoderKind};
use hyde_core::hyper::HyperFunction;
use hyde_core::multichart::{joint_class_count, MultiChart};
use hyde_core::varpart::VariablePartitioner;
use hyde_core::CoreError;
use hyde_guard::{Budget, Chaos, DegradationEvent, OutOfBudget, Resource, Rung};
use hyde_logic::diag::{any_deny, Code, Diagnostic, Location};
use hyde_logic::network::{project_to_support, structural_merge};
use hyde_logic::{Literal, Network, NodeId, NodeRole, SopCover, TruthTable};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Which flow to run.
#[derive(Debug, Clone)]
pub enum FlowKind {
    /// Independent per-output decomposition (no sharing).
    PerOutput {
        /// Compatible class encoder for every step.
        encoder: EncoderKind,
    },
    /// Per-output decomposition plus structural sharing of identical LUTs.
    SharedAlpha {
        /// Compatible class encoder for every step.
        encoder: EncoderKind,
    },
    /// FGSyn-style column encoding: joint multi-output charts with shared
    /// α functions.
    ColumnEncoding {
        /// Encoder for the joint classes.
        encoder: EncoderKind,
    },
    /// The HYDE hyper-function flow: at most [`MAX_CLUSTER`] outputs per
    /// hyper-function, at most [`MAX_UNION`] variables in a cluster's
    /// union support.
    Hyper {
        /// Seed of the HYDE encoder for classes and ingredients.
        seed: u64,
    },
}

/// Maximum ingredients per hyper-function.
pub const MAX_CLUSTER: usize = 4;

/// Maximum union support of a hyper-function cluster.
pub const MAX_UNION: usize = 16;

impl FlowKind {
    /// The full HYDE configuration used by the tables.
    pub fn hyde(seed: u64) -> Self {
        FlowKind::Hyper { seed }
    }

    /// IMODEC-like baseline: rigid strict per-output encoding with
    /// structural sharing.
    pub fn imodec_like() -> Self {
        FlowKind::SharedAlpha {
            encoder: EncoderKind::Lexicographic,
        }
    }

    /// FGSyn-like baseline: column encoding.
    pub fn fgsyn_like() -> Self {
        FlowKind::ColumnEncoding {
            encoder: EncoderKind::Lexicographic,
        }
    }

    /// Short label for table printing.
    pub fn label(&self) -> &'static str {
        match self {
            FlowKind::PerOutput { .. } => "per-output",
            FlowKind::SharedAlpha { .. } => "shared-alpha",
            FlowKind::ColumnEncoding { .. } => "column-enc",
            FlowKind::Hyper { .. } => "hyde",
        }
    }
}

/// One mapping attempt, filled in by [`crate::session::Session`]: the
/// flow, the budget and ladder rung of the attempt, and the session's
/// chaos layer and NPN cache.
#[derive(Debug)]
pub(crate) struct MappingFlow<'a> {
    /// Target LUT size (at least 3, asserted by the session).
    pub(crate) k: usize,
    /// The flow to run.
    pub(crate) kind: &'a FlowKind,
    /// Resource budget threaded through every decomposition step.
    /// Exhausting it does not fail the flow: each exhaustion steps the
    /// affected output down one rung of the fallback ladder (exact
    /// Roth–Karp, BDD cut decomposition, Shannon split, direct SOP cover).
    pub(crate) budget: Budget,
    /// Topmost rung of the fallback ladder this attempt tries. Rungs
    /// above it are skipped without recording degradation events: the
    /// retrying session already took (and recorded) those steps.
    pub(crate) start_rung: Rung,
    /// Deterministic fault-injection layer; `None` injects nothing.
    pub(crate) chaos: Option<Chaos>,
    /// Whether the chaos layer may also inject panics (the
    /// `panic:<circuit>` site), not just budget exhaustions.
    pub(crate) panic_faults: bool,
    /// NPN-keyed λ-search memo shared by every decomposition the session
    /// runs. Cached values are pure functions of their keys, so sharing
    /// never changes results — only how often the search actually runs.
    pub(crate) cache: &'a Arc<DecompCache>,
}

impl MappingFlow<'_> {
    /// Maps a multi-output function vector (all outputs over the same
    /// `n`-variable input space) to a κ-feasible LUT network.
    ///
    /// # Errors
    ///
    /// Propagates decomposition errors; a functional mismatch after mapping
    /// surfaces as [`CoreError::Verification`].
    pub(crate) fn map_outputs(
        &self,
        name: &str,
        outputs: &[TruthTable],
    ) -> Result<MappingReport, CoreError> {
        if outputs.is_empty() {
            return Err(CoreError::InvalidBoundSet("no outputs to map".into()));
        }
        let n = outputs[0].vars();
        if outputs.iter().any(|f| f.vars() != n) {
            return Err(CoreError::InvalidBoundSet(
                "outputs must share one input space".into(),
            ));
        }
        let _obs = hyde_obs::span!("map.outputs");
        hyde_obs::counter("map.output_functions", outputs.len() as u64);
        // Chaos panic site: only armed when the session opts in
        // (`hyde-bench chaos`), so other callers never see injected panics.
        if let Some(chaos) = self.chaos.filter(|_| self.panic_faults) {
            if chaos.trips(&format!("panic:{name}"), 16) {
                panic!("chaos: injected panic for circuit '{name}'");
            }
        }
        // sa:allow(SA002): elapsed time is reported alongside results,
        // never used to choose them.
        let start = Instant::now();
        let mut net = match self.kind {
            FlowKind::PerOutput { encoder } => self.per_output(name, outputs, encoder, false)?,
            FlowKind::SharedAlpha { encoder } => self.per_output(name, outputs, encoder, true)?,
            FlowKind::ColumnEncoding { encoder } => self.column_encoding(outputs, encoder)?,
            FlowKind::Hyper { seed } => {
                self.hyper_flow(name, outputs, &EncoderKind::Hyde { seed: *seed })?
            }
        };
        net.sweep();
        // The xl_cover step of the paper's script: collapse LUTs that fit
        // inside their consumers.
        {
            let _obs = hyde_obs::span!("map.cover");
            crate::cover::compact(&mut net, self.k);
        }
        {
            let _obs = hyde_obs::span!("map.verify");
            self.verify(&net, outputs)?;
        }
        let luts = net.internal_count();
        let depth = net.depth();
        let clbs = if self.k == 5 {
            Some(pack_clbs(&net).clb_count())
        } else {
            None
        };
        Ok(MappingReport {
            name: name.to_owned(),
            network: net,
            luts,
            clbs,
            depth,
            elapsed: start.elapsed(),
        })
    }

    fn fresh_net(&self, n: usize) -> (Network, Vec<NodeId>) {
        let mut net = Network::new("mapped");
        let inputs = (0..n).map(|i| net.add_input(&format!("x{i}"))).collect();
        (net, inputs)
    }

    fn per_output(
        &self,
        name: &str,
        outputs: &[TruthTable],
        encoder: &EncoderKind,
        share: bool,
    ) -> Result<Network, CoreError> {
        let n = outputs[0].vars();
        let (mut net, inputs) = self.fresh_net(n);
        let mut stats = DecomposeStats::default();
        for (o, f) in outputs.iter().enumerate() {
            let id = self.ladder_decompose(
                &mut net,
                f,
                &inputs,
                &format!("o{o}"),
                &mut stats,
                encoder,
                name,
            )?;
            net.mark_output(&format!("o{o}"), id);
        }
        if share {
            net = structural_merge("mapped", &[&net]);
        }
        Ok(net)
    }

    /// Decomposes `f` onto `net` through the fallback ladder: exact
    /// Roth–Karp with compatible class encoding, then BDD cut decomposition
    /// under the node cap, then a Shannon-cofactor split, then a direct SOP
    /// cover. Each budget exhaustion (real or chaos-injected) steps down
    /// exactly one rung and is recorded as a [`DegradationEvent`]; the
    /// direct-cover floor cannot run out of budget, so every in-spec
    /// function still maps.
    #[allow(clippy::too_many_arguments)]
    fn ladder_decompose(
        &self,
        net: &mut Network,
        f: &TruthTable,
        signals: &[NodeId],
        prefix: &str,
        stats: &mut DecomposeStats,
        encoder: &EncoderKind,
        ctx: &str,
    ) -> Result<NodeId, CoreError> {
        let degrade = |from: Rung, resource: Resource, injected: bool| {
            hyde_guard::record_degradation(DegradationEvent {
                context: ctx.to_owned(),
                stage: prefix.to_owned(),
                from,
                to: from.next_down().unwrap_or(Rung::DirectCover),
                resource,
                injected,
            });
        };
        // Rungs above `start_rung` are skipped silently: a retrying
        // supervisor already took (and recorded) those steps.
        // Rung 1: exact Roth–Karp decomposition.
        if self.start_rung <= Rung::Exact {
            let dec = Decomposer::new(self.k, encoder.clone())
                .with_budget(self.budget)
                .with_chaos(self.chaos, ctx)
                .with_cache(Some(self.cache.clone()));
            match dec.decompose_onto(net, f, signals, prefix, stats) {
                Ok(id) => return Ok(id),
                Err(CoreError::OutOfBudget(ob)) => degrade(Rung::Exact, ob.resource, ob.injected),
                Err(e) => return Err(e),
            }
        }
        // Rung 2: BDD cut decomposition under the node cap. Partial nodes
        // left behind by the failed exact attempt are unreachable from any
        // output and disappear in the flow's sweep.
        if self.start_rung <= Rung::BddThreshold {
            match self.bdd_rung(f, ctx, prefix) {
                Ok(sub) => return splice_subnetwork(net, &sub, signals, &format!("{prefix}_r2")),
                Err(CoreError::OutOfBudget(ob)) => {
                    degrade(Rung::BddThreshold, ob.resource, ob.injected);
                }
                Err(e) => return Err(e),
            }
        }
        // Rung 3: Shannon cofactor split. Consumes no budgeted resource
        // beyond the deadline, so it only degrades on an expired deadline
        // or an injected fault.
        if self.start_rung <= Rung::Shannon {
            let injected = self
                .chaos
                .is_some_and(|c| c.trips(&format!("shannon:{ctx}:{prefix}"), 4));
            if injected {
                degrade(Rung::Shannon, Resource::Candidates, true);
            } else {
                match self.budget.check_deadline() {
                    Ok(()) => return self.shannon_onto(net, f, signals, &format!("{prefix}_r3")),
                    Err(ob) => degrade(Rung::Shannon, ob.resource, ob.injected),
                }
            }
        }
        // Rung 4: direct SOP cover — the floor of the ladder.
        self.direct_cover_onto(net, f, signals, &format!("{prefix}_r4"))
    }

    /// Rung 2 of the ladder: builds `f` as a BDD with the budget's node cap
    /// installed and decomposes it by cut counting. Exhausting the cap (or
    /// the chaos layer simulating a unique-table allocation failure)
    /// surfaces as [`CoreError::OutOfBudget`].
    fn bdd_rung(&self, f: &TruthTable, ctx: &str, prefix: &str) -> Result<Network, CoreError> {
        self.budget.check_deadline()?;
        if let Some(chaos) = self.chaos {
            if chaos.trips(&format!("bdd:{ctx}:{prefix}"), 4) {
                return Err(CoreError::OutOfBudget(OutOfBudget::injected(
                    Resource::BddNodes,
                )));
            }
        }
        let mut bdd = Bdd::with_capacity(f.vars(), 1 << 12);
        // Installing the node cap also arms a growth-pressure GC threshold
        // (3/4 of the cap); uncapped runs get an explicit one so large
        // recursions still reclaim dead nodes instead of growing without
        // bound. Chaos runs use a low threshold so the collector (and its
        // injection site inside the sweep) is actually exercised.
        bdd.set_node_cap(self.budget.bdd_nodes);
        if bdd.gc_threshold().is_none() {
            bdd.set_gc_threshold(Some(if self.chaos.is_some() { 512 } else { 1 << 13 }));
        }
        if let Some(chaos) = self.chaos {
            bdd.set_gc_chaos(chaos, &format!("{ctx}:{prefix}"));
        }
        let k = self.k;
        match bdd.guarded(|b| {
            let root = b.from_fn(|m| f.eval(m));
            decompose_bdd_to_network(b, root, k, "r2", 64)
        }) {
            Ok(res) => res,
            Err(ob) => Err(CoreError::OutOfBudget(ob)),
        }
    }

    /// Rung 3 of the ladder: recursive Shannon expansion. Splits on the
    /// highest support variable until the residue fits one LUT.
    fn shannon_onto(
        &self,
        net: &mut Network,
        f: &TruthTable,
        signals: &[NodeId],
        prefix: &str,
    ) -> Result<NodeId, CoreError> {
        let support = f.support();
        if support.is_empty() {
            return Ok(net.add_constant(prefix, f.eval(0)));
        }
        if support.len() <= self.k {
            let table = project_to_support(f, &support);
            let sigs: Vec<NodeId> = support.iter().map(|&v| signals[v]).collect();
            return net.add_node(prefix, sigs, table).map_err(CoreError::from);
        }
        let var = support[support.len() - 1];
        let lo = self.shannon_onto(net, &f.cofactor(var, false), signals, &format!("{prefix}l"))?;
        let hi = self.shannon_onto(net, &f.cofactor(var, true), signals, &format!("{prefix}h"))?;
        let mux = TruthTable::from_fn(3, |m| {
            if m & 1 == 1 {
                m >> 2 & 1 == 1
            } else {
                m >> 1 & 1 == 1
            }
        });
        net.add_node(prefix, vec![signals[var], lo, hi], mux)
            .map_err(CoreError::from)
    }

    /// Rung 4 of the ladder: direct cover. Chops an irredundant SOP cover
    /// of `f` into κ-feasible AND trees (leaf LUTs absorb the literal
    /// polarities) joined by an OR tree. Never consumes budget: this is
    /// the guaranteed floor every function can reach.
    fn direct_cover_onto(
        &self,
        net: &mut Network,
        f: &TruthTable,
        signals: &[NodeId],
        prefix: &str,
    ) -> Result<NodeId, CoreError> {
        let cover = SopCover::isop(f);
        if cover.cube_count() == 0 {
            return Ok(net.add_constant(prefix, false));
        }
        let mut terms: Vec<NodeId> = Vec::with_capacity(cover.cube_count());
        for (ci, cube) in cover.iter().enumerate() {
            let lits: Vec<(usize, bool)> = (0..f.vars())
                .filter_map(|v| match cube.literal(v) {
                    Literal::Positive => Some((v, true)),
                    Literal::Negative => Some((v, false)),
                    Literal::DontCare => None,
                })
                .collect();
            if lits.is_empty() {
                // A literal-free cube is the tautology: f is constant one.
                return Ok(net.add_constant(prefix, true));
            }
            let mut level: Vec<NodeId> = Vec::with_capacity(lits.len().div_ceil(self.k));
            for (gi, chunk) in lits.chunks(self.k).enumerate() {
                let sigs: Vec<NodeId> = chunk.iter().map(|&(v, _)| signals[v]).collect();
                let pol: Vec<bool> = chunk.iter().map(|&(_, p)| p).collect();
                let table = TruthTable::from_fn(chunk.len(), |m| {
                    pol.iter().enumerate().all(|(i, &p)| (m >> i & 1 == 1) == p)
                });
                level.push(net.add_node(&format!("{prefix}_c{ci}a{gi}"), sigs, table)?);
            }
            terms.push(self.reduce_gate(net, level, true, &format!("{prefix}_c{ci}"))?);
        }
        self.reduce_gate(net, terms, false, prefix)
    }

    /// Reduces `level` to a single signal with a balanced tree of κ-input
    /// AND (`is_and`) or OR gates.
    fn reduce_gate(
        &self,
        net: &mut Network,
        mut level: Vec<NodeId>,
        is_and: bool,
        prefix: &str,
    ) -> Result<NodeId, CoreError> {
        let mut round = 0usize;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(self.k));
            for (gi, chunk) in level.chunks(self.k).enumerate() {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let a = chunk.len();
                let mask = (1u32 << a) - 1;
                let table = TruthTable::from_fn(a, |m| {
                    if is_and {
                        m & mask == mask
                    } else {
                        m & mask != 0
                    }
                });
                next.push(net.add_node(
                    &format!("{prefix}g{round}_{gi}"),
                    chunk.to_vec(),
                    table,
                )?);
            }
            level = next;
            round += 1;
        }
        Ok(level[0])
    }

    /// FGSyn-style multi-output decomposition: one joint chart, shared α.
    fn column_encoding(
        &self,
        outputs: &[TruthTable],
        encoder: &EncoderKind,
    ) -> Result<Network, CoreError> {
        let n = outputs[0].vars();
        let (mut net, inputs) = self.fresh_net(n);
        let out_ids =
            self.column_decompose(&mut net, outputs.to_vec(), &inputs, "m", encoder, 0)?;
        for (o, id) in out_ids.into_iter().enumerate() {
            net.mark_output(&format!("o{o}"), id);
        }
        Ok(structural_merge("mapped", &[&net]))
    }

    fn column_decompose(
        &self,
        net: &mut Network,
        fs: Vec<TruthTable>,
        signals: &[NodeId],
        prefix: &str,
        encoder: &EncoderKind,
        depth: usize,
    ) -> Result<Vec<NodeId>, CoreError> {
        let dec = Decomposer::new(self.k, encoder.clone()).with_cache(Some(self.cache.clone()));
        let mut stats = DecomposeStats::default();
        // Union support.
        let mut in_support = vec![false; signals.len()];
        for f in &fs {
            for v in f.support() {
                in_support[v] = true;
            }
        }
        let support: Vec<usize> = (0..signals.len()).filter(|&v| in_support[v]).collect();
        if support.len() < signals.len() {
            let reduced: Vec<TruthTable> =
                fs.iter().map(|f| project_to_support(f, &support)).collect();
            let sigs: Vec<NodeId> = support.iter().map(|&v| signals[v]).collect();
            return self.column_decompose(net, reduced, &sigs, prefix, encoder, depth);
        }
        let n = signals.len();
        // Base case: everything fits in single LUTs.
        if n <= self.k || depth > 3 * n {
            let mut out = Vec::with_capacity(fs.len());
            for (i, f) in fs.iter().enumerate() {
                out.push(dec.decompose_onto(
                    net,
                    f,
                    signals,
                    &format!("{prefix}_f{i}"),
                    &mut stats,
                )?);
            }
            return Ok(out);
        }
        // Joint bound selection: minimize the multiplicity of the stacked
        // chart (distinct column tuples). Candidates are seeded with each
        // output's own best bound set plus the leading variables.
        let vp = VariablePartitioner::default().with_cache(self.cache.clone());
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for f in &fs {
            if f.support().len() > self.k {
                if let Ok((b, _)) = vp.best_bound_set(f, self.k) {
                    candidates.push(b);
                }
            }
        }
        candidates.push((0..self.k).collect());
        candidates.sort();
        candidates.dedup();
        let (bound, classes) = candidates
            .into_iter()
            .map(|b| {
                let c = joint_class_count(&fs, &b).unwrap_or(usize::MAX);
                (b, c)
            })
            .min_by_key(|(b, c)| (*c, b.clone()))
            .ok_or_else(|| CoreError::InvalidBoundSet("no joint bound-set candidate".into()))?;
        let t = ceil_log2(classes);
        if t >= self.k {
            // Joint decomposition not gainful: fall back to per-output.
            let mut out = Vec::with_capacity(fs.len());
            for (i, f) in fs.iter().enumerate() {
                out.push(dec.decompose_onto(
                    net,
                    f,
                    signals,
                    &format!("{prefix}_s{i}"),
                    &mut stats,
                )?);
            }
            return Ok(out);
        }
        // Shared α functions from the joint chart.
        let chart = MultiChart::new(&fs, &bound)?;
        // Encode the joint classes. The encoder sees each class's stacked
        // pattern as a single pseudo class function over free + selector
        // bits, so the class-count objective reflects the true structure.
        let sel_bits = ceil_log2(fs.len());
        let mu = chart.free().len();
        let reps: Vec<usize> = (0..chart.class_count())
            .map(|cls| {
                chart
                    .class_map()
                    .iter()
                    .position(|&x| x == cls)
                    .ok_or_else(|| {
                        CoreError::Verification(format!("joint class {cls} has no chart column"))
                    })
            })
            .collect::<Result<_, _>>()?;
        let per_f: Vec<Vec<TruthTable>> = fs
            .iter()
            .map(|f| chart_columns(f, &bound, chart.free()))
            .collect();
        let stacked: Vec<TruthTable> = reps
            .iter()
            .map(|&c| {
                TruthTable::from_fn(mu + sel_bits, |m| {
                    let y = m & ((1u32 << mu) - 1);
                    let which = (m >> mu) as usize;
                    if which < fs.len() {
                        per_f[which][c].eval(y)
                    } else {
                        false
                    }
                })
            })
            .collect();
        let classes =
            hyde_core::classes::CompatibleClasses::from_parts(chart.class_map().to_vec(), stacked);
        let codes: CodeAssignment = encoder.build().encode(&classes, self.k)?;
        let alphas = chart.alphas(&codes);
        let bound_sigs: Vec<NodeId> = bound.iter().map(|&v| signals[v]).collect();
        let mut g_sigs: Vec<NodeId> = Vec::new();
        for (i, alpha) in alphas.iter().enumerate() {
            g_sigs.push(net.add_node(
                &format!("{prefix}_a{i}"),
                bound_sigs.clone(),
                alpha.clone(),
            )?);
        }
        for &v in chart.free() {
            g_sigs.push(signals[v]);
        }
        // Per-output images over (α bits, free vars).
        let images: Vec<TruthTable> = (0..fs.len()).map(|fi| chart.image(fi, &codes)).collect();
        self.column_decompose(
            net,
            images,
            &g_sigs,
            &format!("{prefix}_g"),
            encoder,
            depth + 1,
        )
    }

    /// The HYDE hyper-function flow.
    fn hyper_flow(
        &self,
        name: &str,
        outputs: &[TruthTable],
        encoder: &EncoderKind,
    ) -> Result<Network, CoreError> {
        let clusters = cluster_outputs(outputs, MAX_CLUSTER, MAX_UNION);
        let dec = Decomposer::new(self.k, encoder.clone())
            .with_budget(self.budget)
            .with_chaos(self.chaos, name)
            .with_cache(Some(self.cache.clone()));
        let mut parts: Vec<Network> = Vec::new();
        for cluster in &clusters {
            if cluster.len() == 1 {
                let o = cluster[0];
                let mut stats = DecomposeStats::default();
                let n = outputs[o].vars();
                let (mut net, inputs) = self.fresh_net(n);
                let id = self.ladder_decompose(
                    &mut net,
                    &outputs[o],
                    &inputs,
                    &format!("o{o}"),
                    &mut stats,
                    encoder,
                    name,
                )?;
                net.mark_output(&format!("o{o}"), id);
                parts.push(net);
            } else {
                let ingredients: Vec<TruthTable> =
                    cluster.iter().map(|&o| outputs[o].clone()).collect();
                // Candidate A: fold into a hyper-function and share. A
                // budget exhaustion anywhere inside the hyper path falls
                // back to the per-output candidate, whose ladder carries
                // its own degradation floor.
                let hyper_net = match (|| -> Result<Network, CoreError> {
                    let h = HyperFunction::new(ingredients.clone(), encoder, self.k)?;
                    let hn = h.decompose(&dec)?;
                    hn.implement_ingredients()
                })() {
                    Ok(net) => Some(net),
                    Err(CoreError::OutOfBudget(_)) => {
                        hyde_obs::counter("guard.hyper_fallback", 1);
                        None
                    }
                    Err(e) => return Err(e),
                };
                // Candidate B: per-output decomposition with structural
                // sharing. Hyper-functions are a sharing *opportunity*; the
                // flow keeps whichever implementation is smaller, as the
                // paper's SIS-embedded tool does through its script loop.
                let n = ingredients[0].vars();
                let (mut solo_net, inputs) = self.fresh_net(n);
                let mut stats = DecomposeStats::default();
                for (i, f) in ingredients.iter().enumerate() {
                    let id = self.ladder_decompose(
                        &mut solo_net,
                        f,
                        &inputs,
                        &format!("f{i}"),
                        &mut stats,
                        encoder,
                        name,
                    )?;
                    solo_net.mark_output(&format!("f{i}"), id);
                }
                let mut solo_net = structural_merge("solo", &[&solo_net]);
                solo_net.sweep();
                let mut best = match hyper_net {
                    Some(mut hyper_net) => {
                        hyper_net.sweep();
                        if hyper_net.internal_count() <= solo_net.internal_count() {
                            hyper_net
                        } else {
                            solo_net
                        }
                    }
                    None => solo_net,
                };
                // Outputs are named f0.. in cluster order: map back.
                let names: Vec<String> = cluster.iter().map(|&o| format!("o{o}")).collect();
                let mut i = 0usize;
                best.rename_outputs(|_| {
                    let nm = names[i].clone();
                    i += 1;
                    nm
                });
                parts.push(best);
            }
        }
        let refs: Vec<&Network> = parts.iter().collect();
        let mut merged = structural_merge("mapped", &refs);
        // Clustering permutes outputs: restore output-index order.
        merged.sort_outputs_by_key(|name| {
            name.strip_prefix('o')
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(usize::MAX)
        });
        Ok(merged)
    }

    /// Checks the mapped network against the specification and fails on
    /// the first deny-level diagnostic: `HY002` when a LUT exceeds the
    /// fanin bound `k`, `HY005` when simulation differs from the
    /// specification tables ([`hyde_logic::sim::check_against_tables`],
    /// inputs placed by their `x<i>` names).
    fn verify(&self, net: &Network, outputs: &[TruthTable]) -> Result<(), CoreError> {
        let mut diags = Vec::new();
        for id in net.node_ids() {
            let fanin = net.fanins(id).len();
            if net.role(id) == NodeRole::Internal && fanin > self.k {
                diags.push(
                    Diagnostic::new(
                        Code::NetworkFaninExceedsK,
                        format!(
                            "LUT '{}' has {fanin} fanins but k = {}",
                            net.node_name(id),
                            self.k
                        ),
                    )
                    .at(Location::Node(id.index())),
                );
            }
        }
        let positions: Option<Vec<usize>> = net
            .inputs()
            .iter()
            .map(|&id| net.node_name(id).strip_prefix('x')?.parse().ok())
            .collect();
        match positions {
            None => diags.push(Diagnostic::new(
                Code::NetworkSpecMismatch,
                "cannot simulate: a mapped input is not named x<i>",
            )),
            Some(positions) => {
                if let Some((m, o)) =
                    hyde_logic::sim::check_against_tables(net, outputs, &positions)
                {
                    diags.push(
                        Diagnostic::new(
                            Code::NetworkSpecMismatch,
                            format!("output {o} differs from its specification at minterm {m}"),
                        )
                        .at(Location::Output(o)),
                    );
                }
            }
        }
        if any_deny(&diags) {
            let msg = diags
                .iter()
                .filter(|d| d.is_deny())
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            return Err(CoreError::Verification(msg));
        }
        Ok(())
    }
}

/// Splices a single-output sub-network whose inputs are named `x<i>` onto
/// `net`, wiring input `x<i>` to `signals[i]` and prefixing every internal
/// node name with `prefix` to keep names unique. Returns the signal
/// driving the sub-network's output.
fn splice_subnetwork(
    net: &mut Network,
    sub: &Network,
    signals: &[NodeId],
    prefix: &str,
) -> Result<NodeId, CoreError> {
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for &id in sub.inputs() {
        let idx = sub
            .node_name(id)
            .strip_prefix('x')
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| {
                CoreError::Verification(format!(
                    "subnetwork input '{}' is not named x<i>",
                    sub.node_name(id)
                ))
            })?;
        let sig = *signals.get(idx).ok_or_else(|| {
            CoreError::Verification(format!("subnetwork input x{idx} exceeds the signal map"))
        })?;
        map.insert(id, sig);
    }
    for id in sub.topo_order()? {
        if sub.role(id) != NodeRole::Internal {
            continue;
        }
        let fanins: Vec<NodeId> = sub.fanins(id).iter().map(|f| map[f]).collect();
        let copied = net.add_node(
            &format!("{prefix}_{}", sub.node_name(id)),
            fanins,
            sub.function(id).clone(),
        )?;
        map.insert(id, copied);
    }
    let (_, out_id) = sub
        .outputs()
        .first()
        .ok_or_else(|| CoreError::Verification("subnetwork has no output".into()))?;
    map.get(out_id)
        .copied()
        .ok_or_else(|| CoreError::Verification("subnetwork output is unreachable".into()))
}

/// Column patterns of `f` for an explicit bound/free split (free variables
/// in ascending order).
fn chart_columns(f: &TruthTable, bound: &[usize], free: &[usize]) -> Vec<TruthTable> {
    let n_cols = 1usize << bound.len();
    let mut out = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let mut col = f.clone();
        for (i, &v) in bound.iter().enumerate() {
            col = col.cofactor(v, c >> i & 1 == 1);
        }
        out.push(project_to_support(&col, free));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{BudgetSpec, Job, JobResult, Session};
    use rand::SeedableRng;

    fn adder_outputs(bits: usize) -> Vec<TruthTable> {
        // (a + b) over `bits`-bit operands: 2*bits inputs, bits+1 outputs.
        let n = 2 * bits;
        (0..=bits)
            .map(|o| {
                TruthTable::from_fn(n, |m| {
                    let a = m & ((1 << bits) - 1);
                    let b = m >> bits;
                    ((a + b) >> o) & 1 == 1
                })
            })
            .collect()
    }

    fn per_output_lex() -> FlowKind {
        FlowKind::PerOutput {
            encoder: EncoderKind::Lexicographic,
        }
    }

    /// Maps `outputs` as job `name` under `budget`; the mapping verified
    /// against `outputs` inside the flow.
    fn map(session: &Session, name: &str, outputs: &[TruthTable], budget: BudgetSpec) -> JobResult {
        let job = Job::new(name, outputs.to_vec()).with_budget(budget);
        session.run(&job).expect("maps")
    }

    #[test]
    fn all_flows_map_an_adder_correctly() {
        let outputs = adder_outputs(3); // 6 inputs, 4 outputs
        for kind in [
            per_output_lex(),
            FlowKind::imodec_like(),
            FlowKind::fgsyn_like(),
            FlowKind::hyde(7),
        ] {
            let label = kind.label();
            let report = map(
                &Session::new(5, kind),
                "add3",
                &outputs,
                BudgetSpec::unlimited(),
            )
            .report;
            assert!(report.network.is_k_feasible(5), "{label}");
            assert!(report.luts > 0, "{label}");
            assert!(report.clbs.is_some(), "{label}");
        }
    }

    #[test]
    fn shared_alpha_never_beats_per_output_count() {
        let outputs = adder_outputs(3);
        let unlimited = BudgetSpec::unlimited();
        let per = map(&Session::new(5, per_output_lex()), "a", &outputs, unlimited);
        let shared = map(
            &Session::new(5, FlowKind::imodec_like()),
            "a",
            &outputs,
            unlimited,
        );
        assert!(shared.report.luts <= per.report.luts);
    }

    #[test]
    fn random_multi_output_all_flows() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let outputs: Vec<TruthTable> = (0..3).map(|_| TruthTable::random(7, &mut rng)).collect();
        for kind in [
            FlowKind::PerOutput {
                encoder: EncoderKind::Random { seed: 5 },
            },
            FlowKind::fgsyn_like(),
            FlowKind::hyde(5),
        ] {
            let label = kind.label();
            let report = map(
                &Session::new(4, kind),
                "rnd",
                &outputs,
                BudgetSpec::unlimited(),
            )
            .report;
            assert!(report.network.is_k_feasible(4), "{label}");
            assert!(report.clbs.is_none(), "k=4 has no CLB packing");
        }
    }

    #[test]
    fn rejects_mismatched_outputs() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(4, 0);
        let session = Session::new(5, FlowKind::fgsyn_like());
        assert!(session.run(&Job::new("bad", vec![a, b])).is_err());
        assert!(session.run(&Job::new("empty", vec![])).is_err());
    }

    #[test]
    fn ladder_rung2_maps_and_verifies_on_candidate_exhaustion() {
        let budget = BudgetSpec {
            candidates: Some(0),
            ..BudgetSpec::unlimited()
        };
        let result = map(
            &Session::new(4, per_output_lex()),
            "rung2",
            &adder_outputs(3),
            budget,
        );
        assert!(result.report.network.is_k_feasible(4));
        let events = result.degradations;
        assert!(!events.is_empty(), "wide outputs must degrade");
        assert!(events
            .iter()
            .all(|e| e.from == Rung::Exact && e.to == Rung::BddThreshold));
        assert!(events.iter().all(|e| e.resource == Resource::Candidates));
    }

    #[test]
    fn ladder_rung3_maps_and_verifies_on_bdd_exhaustion() {
        let budget = BudgetSpec {
            candidates: Some(0),
            bdd_nodes: Some(2),
            ..BudgetSpec::unlimited()
        };
        let result = map(
            &Session::new(4, per_output_lex()),
            "rung3",
            &adder_outputs(3),
            budget,
        );
        assert!(result.report.network.is_k_feasible(4));
        let events = result.degradations;
        assert!(
            events.iter().any(|e| e.from == Rung::BddThreshold
                && e.to == Rung::Shannon
                && e.resource == Resource::BddNodes),
            "node cap must push the ladder past the BDD rung: {events:?}"
        );
    }

    #[test]
    fn ladder_rung4_maps_and_verifies_under_injected_shannon_fault() {
        let f = TruthTable::from_fn(6, |m| m.count_ones() >= 3);
        // Deterministically pick a seed whose schedule faults the Shannon
        // rung for this circuit/stage; the tiny budget forces rungs 1–2
        // down regardless of what else the seed injects.
        let seed = (0..1u64 << 12)
            .find(|&s| Chaos::new(s).trips("shannon:rung4:o0", 4))
            .expect("a quarter of all seeds trip any given site");
        let budget = BudgetSpec {
            candidates: Some(0),
            bdd_nodes: Some(1),
            ..BudgetSpec::unlimited()
        };
        let session = Session::new(4, per_output_lex()).with_chaos(seed);
        let result = map(&session, "rung4", std::slice::from_ref(&f), budget);
        assert!(result.report.network.is_k_feasible(4));
        let events = result.degradations;
        assert!(
            events
                .iter()
                .any(|e| e.from == Rung::Shannon && e.to == Rung::DirectCover && e.injected),
            "injected Shannon fault must land on the direct-cover floor: {events:?}"
        );
    }

    #[test]
    fn hyper_flow_with_tiny_budget_still_verifies() {
        let budget = BudgetSpec {
            candidates: Some(0),
            ..BudgetSpec::unlimited()
        };
        let session = Session::new(5, FlowKind::hyde(7));
        let result = map(&session, "tinyhyper", &adder_outputs(3), budget);
        assert!(result.report.network.is_k_feasible(5));
    }

    #[test]
    fn chaos_degradation_log_is_thread_count_invariant() {
        let outputs = adder_outputs(3);
        let budget = BudgetSpec {
            candidates: Some(4),
            bdd_nodes: Some(64),
            ..BudgetSpec::unlimited()
        };
        let mut logs: Vec<Vec<hyde_guard::DegradationEvent>> = Vec::new();
        let prev = std::env::var("HYDE_THREADS").ok();
        for threads in ["1", "8"] {
            std::env::set_var("HYDE_THREADS", threads);
            let session = Session::new(4, FlowKind::hyde(3)).with_chaos(0xC0FFEE);
            logs.push(map(&session, "det", &outputs, budget).degradations);
        }
        match prev {
            Some(v) => std::env::set_var("HYDE_THREADS", v),
            None => std::env::remove_var("HYDE_THREADS"),
        }
        assert!(!logs[0].is_empty(), "the chaos seed must inject something");
        assert_eq!(
            logs[0], logs[1],
            "degradation log must not depend on HYDE_THREADS"
        );
    }

    #[test]
    fn single_output_flows_agree_on_small_functions() {
        let f = TruthTable::from_fn(4, |m| m.count_ones() >= 2);
        for kind in [
            FlowKind::imodec_like(),
            FlowKind::fgsyn_like(),
            FlowKind::hyde(1),
        ] {
            let result = map(
                &Session::new(5, kind),
                "maj",
                std::slice::from_ref(&f),
                BudgetSpec::unlimited(),
            );
            assert_eq!(result.report.luts, 1);
        }
    }

    #[test]
    fn verify_rejects_a_mapping_that_differs_from_its_spec() {
        let f = TruthTable::from_fn(6, |m| m.count_ones() % 2 == 1);
        let mut net = Network::new("wrong");
        let ins: Vec<NodeId> = (0..6).map(|i| net.add_input(&format!("x{i}"))).collect();
        let g = net.add_node("g", ins, !f.clone()).unwrap();
        net.mark_output("o0", g);
        let cache = Arc::new(DecompCache::new());
        let flow = MappingFlow {
            k: 6,
            kind: &FlowKind::hyde(1),
            budget: Budget::unlimited(),
            start_rung: Rung::Exact,
            chaos: None,
            panic_faults: false,
            cache: &cache,
        };
        match flow.verify(&net, std::slice::from_ref(&f)) {
            Err(CoreError::Verification(msg)) => assert!(msg.contains("HY005"), "{msg}"),
            other => panic!("expected a verification error, got {other:?}"),
        }
        assert!(flow.verify(&net, &[!f]).is_ok());
    }
}
