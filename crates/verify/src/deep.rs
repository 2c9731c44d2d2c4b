//! `HY4xx`: deep semantic proofs behind `hyde-lint --deep`.
//!
//! Where the `HY0xx`–`HY3xx` passes check *structural* invariants, the
//! passes here *prove* functional properties with an oracle independent
//! of the BDD recomposition path that built the artifacts:
//!
//! [`Deep::check`] runs, by artifact variant:
//!
//! * `HY401` (`Network` with a specification, `Hyper`): combinational equivalence of a network
//!   against its specification tables (mapped LUT networks against the
//!   original outputs, decomposed hyper networks against the
//!   hyper-function table), at every width through a Tseitin miter and
//!   the CDCL solver ([`hyde_sat::cec_network_vs_tables`]).
//! * `HY402` (`Decomposition`): SAT-proved semantic injectivity of
//!   a compatible-class encoding: UNSAT of
//!   `∃ x₁ x₂ y. α(x₁) = α(x₂) ∧ f(x₁, y) ≠ f(x₂, y)`.
//! * `HY403` (`Recovery`): constant-collapse correctness of
//!   the duplication cone — asserting an ingredient's code on the pseudo
//!   primary inputs of the decomposed hyper network must reproduce the
//!   implemented ingredient output.
//! * `HY404` (`HyperFn`): the hyper-function table
//!   cofactored at an ingredient's code equals the ingredient
//!   (independent oracle for the structural `HY203` check).
//! * `HY405` (warn, `Network`): internal nodes that are
//!   provably constant over all inputs (stuck-at / dead logic).
//!
//! Every proof is budgeted; a blown budget reports `HY406` so CI fails
//! closed instead of silently skipping an inconclusive proof. Proof
//! effort (variables, clauses, conflicts, time) is kept as a
//! [`ProofRecord`] in the [`Deep`] value until [`Deep::take_proofs`];
//! `hyde-lint --deep` takes them after each circuit or file.

use crate::Artifact;
use hyde_bdd::Bdd;
use hyde_core::decompose::Decomposition;
use hyde_core::hyper::{HyperFunction, HyperNetwork};
use hyde_logic::diag::{Code, Diagnostic, Location};
use hyde_logic::{Network, NodeId, NodeRole, TruthTable};
use hyde_sat::{Budget, CecOutcome, Encoder, Lit, Outcome};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// BDD construction guard: `Bdd::from_fn` enumerates `2^n` minterms and
/// is capped at 28 variables by the manager.
const MAX_SPEC_VARS: usize = 28;

/// Effort limits for the deep passes.
#[derive(Debug, Clone, Copy)]
pub struct DeepConfig {
    /// Conflict budget per individual proof (`HY406` when exceeded).
    pub max_conflicts: u64,
    /// Wall-clock budget per individual proof (`HY406` when exceeded).
    pub max_time: Duration,
}

impl Default for DeepConfig {
    fn default() -> Self {
        DeepConfig {
            max_conflicts: 200_000,
            max_time: Duration::from_secs(10),
        }
    }
}

impl DeepConfig {
    fn budget(&self) -> Budget {
        Budget {
            max_conflicts: self.max_conflicts,
            max_time: self.max_time,
        }
    }
}

/// Statistics of one completed proof.
#[derive(Debug, Clone)]
pub struct ProofRecord {
    /// Pass family: `cec`, `inject`, `collapse`, `recover`, `stuck`.
    pub pass: &'static str,
    /// What was proved, e.g. `output 3` or `ingredient 1`.
    pub subject: String,
    /// Solver variables.
    pub vars: usize,
    /// Problem + learned clauses.
    pub clauses: usize,
    /// Conflicts spent.
    pub conflicts: u64,
    /// Wall-clock milliseconds (fractional: sub-millisecond proofs keep
    /// their real duration instead of truncating to zero).
    pub time_ms: f64,
    /// `proved`, `refuted` or `unknown`.
    pub verdict: &'static str,
}

/// The deep passes with their effort limits and the records of the proofs
/// run since the last [`Deep::take_proofs`].
#[derive(Debug)]
pub struct Deep {
    config: DeepConfig,
    proofs: Vec<ProofRecord>,
}

impl Deep {
    /// Deep passes under `config`, with no proof recorded yet.
    pub fn new(config: DeepConfig) -> Self {
        Deep {
            config,
            proofs: Vec::new(),
        }
    }

    /// Runs the proofs that apply to `artifact`'s variant and returns
    /// their findings in this order: `Network` gets `HY401` (when `spec`
    /// is set), then `HY405`; `Decomposition` `HY402`; `Recovery`
    /// `HY403`; `HyperFn` `HY404`; `Hyper` `HY401` against its own
    /// hyper-function table. Every proof appends one [`ProofRecord`].
    pub fn check(&mut self, artifact: &Artifact<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        match *artifact {
            Artifact::Network { net, spec, .. } => {
                if let Some(spec) = spec {
                    self.cec(net, spec, "", &mut out);
                }
                self.stuck(net, &mut out);
            }
            Artifact::Decomposition {
                decomposition,
                function,
            } => self.injectivity(decomposition, function, &mut out),
            Artifact::Recovery { hyper, implemented } => {
                self.collapse(hyper, implemented, &mut out);
            }
            Artifact::HyperFn(h) => self.recovery(h, &mut out),
            Artifact::Hyper(hn) => {
                // Spec ≡ decomposed: the hyper network against the hyper
                // table (pseudo inputs are table variables 0..).
                let spec = std::slice::from_ref(hn.hyper().table());
                self.cec(&hn.network, spec, "hyper ", &mut out);
            }
            Artifact::Encoding { .. }
            | Artifact::DcAssign { .. }
            | Artifact::Bdd(_)
            | Artifact::Degradations(_) => {}
        }
        out
    }

    /// The records of the proofs run since the last call, in run order.
    pub fn take_proofs(&mut self) -> Vec<ProofRecord> {
        std::mem::take(&mut self.proofs)
    }

    /// `HY401`: proves every network output equivalent to its specification.
    fn cec(&mut self, net: &Network, specs: &[TruthTable], label: &str, out: &mut Vec<Diagnostic>) {
        let n = specs.first().map_or(0, TruthTable::vars);
        if specs.is_empty()
            || n > MAX_SPEC_VARS
            || net.inputs().len() != n
            || net.outputs().len() != specs.len()
            || net.topo_order().is_err()
        {
            // Arity/structure problems are HY001/HY005 territory.
            return;
        }
        let proofs = hyde_sat::cec_network_vs_tables(net, specs, &self.config.budget());
        for p in proofs {
            let verdict = match p.outcome {
                CecOutcome::Equivalent => "proved",
                CecOutcome::Differ(m) => {
                    out.push(
                        Diagnostic::new(
                            Code::DeepCecMismatch,
                            format!(
                                "{label}output {} ('{}') differs from its specification at \
                                 minterm {m} (SAT miter counterexample)",
                                p.output,
                                net.outputs()[p.output].0
                            ),
                        )
                        .at(Location::Output(p.output)),
                    );
                    "refuted"
                }
                CecOutcome::Unknown => {
                    out.push(budget_diag("cec", &format!("{label}output {}", p.output)));
                    "unknown"
                }
            };
            self.proofs.push(ProofRecord {
                pass: "cec",
                subject: format!("{label}output {}", p.output),
                vars: p.vars,
                clauses: p.clauses,
                conflicts: p.conflicts,
                time_ms: p.elapsed.as_secs_f64() * 1e3,
                verdict,
            });
        }
    }

    /// `HY402`: SAT-proves the α encoding separates incompatible points:
    /// no two bound-set minterms with equal codes may disagree on `f` under
    /// any free-set assignment.
    fn injectivity(&mut self, d: &Decomposition, f: &TruthTable, out: &mut Vec<Diagnostic>) {
        let nb = d.bound.len();
        let n = f.vars();
        if nb == 0 || n > MAX_SPEC_VARS || nb + d.free.len() != n {
            return;
        }
        let start = Instant::now();
        let mut enc = Encoder::new();
        let x1 = enc.fresh_inputs(nb);
        let x2 = enc.fresh_inputs(nb);
        let y = enc.fresh_inputs(d.free.len());
        let mut lits1 = vec![enc.lit_false(); n];
        let mut lits2 = vec![enc.lit_false(); n];
        for (i, &v) in d.bound.iter().enumerate() {
            lits1[v] = x1[i];
            lits2[v] = x2[i];
        }
        for (i, &v) in d.free.iter().enumerate() {
            lits1[v] = y[i];
            lits2[v] = y[i];
        }
        let mut bdd = Bdd::new(n);
        let fref = bdd.from_fn(|m| f.eval(m));
        let f1 = enc.encode_bdd(&bdd, fref, &lits1);
        let f2 = enc.encode_bdd(&bdd, fref, &lits2);
        for alpha in &d.alphas {
            let a1 = enc.encode_table(alpha, &x1);
            let a2 = enc.encode_table(alpha, &x2);
            enc.assert_equiv(a1, a2);
        }
        let miter = enc.xor(f1, f2);
        let outcome = enc
            .solver_mut()
            .solve_budgeted(&[miter], &self.config.budget());
        let verdict = match outcome {
            Outcome::Unsat => "proved",
            Outcome::Sat => {
                let read = |lits: &[Lit]| -> u32 {
                    let mut m = 0u32;
                    for (i, l) in lits.iter().enumerate() {
                        if enc.solver().model_value(l.var()) {
                            m |= 1 << i;
                        }
                    }
                    m
                };
                let (m1, m2, my) = (read(&x1), read(&x2), read(&y));
                out.push(
                    Diagnostic::new(
                        Code::DeepEncodingNotInjective,
                        format!(
                            "α maps bound minterms {m1} and {m2} to the same code although \
                             f distinguishes them under free assignment {my}"
                        ),
                    )
                    .at(Location::Minterm(m1 as usize)),
                );
                "refuted"
            }
            Outcome::Unknown => {
                out.push(budget_diag("inject", "the α encoding"));
                "unknown"
            }
        };
        let stats = enc.solver().stats();
        self.proofs.push(ProofRecord {
            pass: "inject",
            subject: format!("alpha separation (t={}, |bound|={nb})", d.alpha_count()),
            vars: stats.vars,
            clauses: stats.clauses + stats.learned,
            conflicts: stats.conflicts,
            time_ms: start.elapsed().as_secs_f64() * 1e3,
            verdict,
        });
    }

    /// `HY403`: proves constant-collapse correctness of the duplication
    /// cone — with the pseudo inputs pinned to ingredient `i`'s code, the
    /// decomposed hyper network must equal implemented output `fᵢ`.
    fn collapse(&mut self, hn: &HyperNetwork, implemented: &Network, out: &mut Vec<Diagnostic>) {
        let net = &hn.network;
        if net.topo_order().is_err()
            || implemented.topo_order().is_err()
            || net.outputs().len() != 1
        {
            return;
        }
        // A leaked pseudo input is HY201's finding; the collapse proof
        // would only restate it with a confusing witness.
        if implemented
            .inputs()
            .iter()
            .any(|&id| implemented.node_name(id).starts_with("eta"))
        {
            return;
        }
        let mut enc = Encoder::new();
        let mut names: HashMap<String, Lit> = HashMap::new();
        let hyper_lits = encode_named(&mut enc, net, &mut names);
        let impl_lits = encode_named(&mut enc, implemented, &mut names);
        let hyper_out = hyper_lits[&net.outputs()[0].1];
        let outputs: HashMap<&str, NodeId> = implemented
            .outputs()
            .iter()
            .map(|(name, id)| (name.as_str(), *id))
            .collect();
        for i in 0..hn.hyper().ingredients().len() {
            let subject = format!("ingredient {i}");
            let Some(&impl_id) = outputs.get(format!("f{i}").as_str()) else {
                out.push(Diagnostic::new(
                    Code::DeepCollapseMismatch,
                    format!("implemented network has no output 'f{i}' to prove against"),
                ));
                continue;
            };
            let start = Instant::now();
            let before = enc.solver().stats();
            let mut assumps: Vec<Lit> = hn
                .ingredient_units(i)
                .into_iter()
                .map(|(eta, v)| {
                    let l = hyper_lits[&eta];
                    if v {
                        l
                    } else {
                        !l
                    }
                })
                .collect();
            let miter = enc.xor(hyper_out, impl_lits[&impl_id]);
            assumps.push(miter);
            let outcome = enc
                .solver_mut()
                .solve_budgeted(&assumps, &self.config.budget());
            let verdict = match outcome {
                Outcome::Unsat => "proved",
                Outcome::Sat => {
                    // Read the real-input witness back in x-name order.
                    let mut bits: Vec<String> = Vec::new();
                    for &id in net.inputs() {
                        let name = net.node_name(id);
                        if name.starts_with("eta") {
                            continue;
                        }
                        let l = hyper_lits[&id];
                        let v = enc.solver().model_value(l.var());
                        bits.push(format!("{name}={}", u8::from(v)));
                    }
                    out.push(
                        Diagnostic::new(
                            Code::DeepCollapseMismatch,
                            format!(
                                "collapsing the pseudo inputs to ingredient {i}'s code does \
                                 not reproduce output 'f{i}' (witness: {})",
                                bits.join(", ")
                            ),
                        )
                        .at(Location::Output(i)),
                    );
                    "refuted"
                }
                Outcome::Unknown => {
                    out.push(budget_diag("collapse", &subject));
                    "unknown"
                }
            };
            let after = enc.solver().stats();
            self.proofs.push(ProofRecord {
                pass: "collapse",
                subject,
                vars: after.vars,
                clauses: after.clauses + after.learned,
                conflicts: after.conflicts - before.conflicts,
                time_ms: start.elapsed().as_secs_f64() * 1e3,
                verdict,
            });
        }
    }

    /// `HY404`: proves the hyper-function table cofactored at each
    /// ingredient's code equals the ingredient — an independent oracle for
    /// the structural `HY203` recovery check.
    fn recovery(&mut self, h: &HyperFunction, out: &mut Vec<Diagnostic>) {
        let pb = h.pseudo_bits();
        let n = h.num_inputs();
        if pb + n > MAX_SPEC_VARS {
            return;
        }
        let mut enc = Encoder::new();
        let eta = enc.fresh_inputs(pb);
        let x = enc.fresh_inputs(n);
        let mut table_lits = eta.clone();
        table_lits.extend_from_slice(&x);
        let mut bdd = Bdd::new(pb + n);
        let href = bdd.from_fn(|m| h.table().eval(m));
        let hyper_lit = enc.encode_bdd(&bdd, href, &table_lits);
        let mut ing_bdd = Bdd::new(n.max(1));
        for (i, ing) in h.ingredients().iter().enumerate() {
            let start = Instant::now();
            let before = enc.solver().stats();
            let iref = ing_bdd.from_fn(|m| ing.eval(m));
            let ing_lit = enc.encode_bdd(&ing_bdd, iref, &x);
            let miter = enc.xor(hyper_lit, ing_lit);
            let mut assumps: Vec<Lit> = h
                .code_units(i)
                .into_iter()
                .map(|(bit, v)| if v { eta[bit] } else { !eta[bit] })
                .collect();
            assumps.push(miter);
            let outcome = enc
                .solver_mut()
                .solve_budgeted(&assumps, &self.config.budget());
            let verdict = match outcome {
                Outcome::Unsat => "proved",
                Outcome::Sat => {
                    let mut m = 0u32;
                    for (b, l) in x.iter().enumerate() {
                        if enc.solver().model_value(l.var()) {
                            m |= 1 << b;
                        }
                    }
                    out.push(
                        Diagnostic::new(
                            Code::DeepRecoveryMismatch,
                            format!(
                                "hyper-function cofactored at ingredient {i}'s code differs \
                                 from the ingredient at input minterm {m}"
                            ),
                        )
                        .at(Location::Minterm(m as usize)),
                    );
                    "refuted"
                }
                Outcome::Unknown => {
                    out.push(budget_diag("recover", &format!("ingredient {i}")));
                    "unknown"
                }
            };
            let after = enc.solver().stats();
            self.proofs.push(ProofRecord {
                pass: "recover",
                subject: format!("ingredient {i}"),
                vars: after.vars,
                clauses: after.clauses + after.learned,
                conflicts: after.conflicts - before.conflicts,
                time_ms: start.elapsed().as_secs_f64() * 1e3,
                verdict,
            });
        }
    }

    /// `HY405` (warn): SAT-based stuck-at sweep — internal nodes whose value
    /// is provably constant for every input assignment are dead logic.
    /// Nodes with a *locally* constant function are skipped (they are
    /// legitimate constant drivers and structurally obvious); the sweep only
    /// flags nodes that look alive but are semantically stuck.
    fn stuck(&mut self, net: &Network, out: &mut Vec<Diagnostic>) {
        if net.inputs().is_empty() || net.topo_order().is_err() {
            return;
        }
        let start = Instant::now();
        let mut enc = Encoder::new();
        let pi: Vec<Lit> = enc.fresh_inputs(net.inputs().len());
        let lits = enc.encode_network(net, &pi);
        let before = enc.solver().stats();
        let budget = self.config.budget();
        let mut checked: HashSet<Lit> = HashSet::new();
        let mut stuck = 0usize;
        let mut unknown = 0usize;
        for id in net.node_ids() {
            if net.role(id) != NodeRole::Internal {
                continue;
            }
            if net.function(id).is_const().is_some() {
                continue;
            }
            let y = lits[&id];
            if y == enc.lit_true() || y == enc.lit_false() || !checked.insert(y) {
                continue;
            }
            let can_be_true = enc.solver_mut().solve_budgeted(&[y], &budget);
            let can_be_false = enc.solver_mut().solve_budgeted(&[!y], &budget);
            if can_be_true == Outcome::Unknown || can_be_false == Outcome::Unknown {
                unknown += 1;
                out.push(budget_diag(
                    "stuck",
                    &format!("node '{}'", net.node_name(id)),
                ));
                continue;
            }
            let stuck_at = match (can_be_true, can_be_false) {
                (Outcome::Unsat, _) => Some(false),
                (_, Outcome::Unsat) => Some(true),
                _ => None,
            };
            if let Some(v) = stuck_at {
                stuck += 1;
                out.push(
                    Diagnostic::new(
                        Code::DeepStuckNode,
                        format!(
                            "node '{}' is provably stuck at {} (dead logic)",
                            net.node_name(id),
                            u8::from(v)
                        ),
                    )
                    .at(Location::Node(id.index())),
                );
            }
        }
        let after = enc.solver().stats();
        self.proofs.push(ProofRecord {
            pass: "stuck",
            subject: format!("sweep ({} nodes)", net.internal_count()),
            vars: after.vars,
            clauses: after.clauses + after.learned,
            conflicts: after.conflicts - before.conflicts,
            time_ms: start.elapsed().as_secs_f64() * 1e3,
            verdict: if unknown > 0 {
                "unknown"
            } else if stuck > 0 {
                "refuted"
            } else {
                "proved"
            },
        });
    }
}

fn budget_diag(pass: &str, subject: &str) -> Diagnostic {
    Diagnostic::new(
        Code::DeepProofBudget,
        format!("{pass} proof for {subject} exceeded its conflict/time budget (inconclusive)"),
    )
}

/// Encodes a network's nodes, sharing primary-input literals across
/// networks by PI *name* (how `structural_merge` matches them).
fn encode_named(
    enc: &mut Encoder,
    net: &Network,
    names: &mut HashMap<String, Lit>,
) -> HashMap<NodeId, Lit> {
    let pi_lits: Vec<Lit> = net
        .inputs()
        .iter()
        .map(|&id| {
            let name = net.node_name(id).to_owned();
            if let Some(&l) = names.get(&name) {
                l
            } else {
                let l = enc.fresh_lit();
                names.insert(name, l);
                l
            }
        })
        .collect();
    enc.encode_network(net, &pi_lits)
}
