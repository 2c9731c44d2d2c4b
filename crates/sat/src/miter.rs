//! Equivalence miters with per-proof statistics.
//!
//! A miter asserts `a XOR b` and asks the solver for a model: UNSAT
//! proves `a == b` everywhere, a model is a concrete input minterm where
//! the two sides disagree. All outputs of one network share a single
//! incremental solver: each output's fan-in cone is encoded right before
//! its proof (nodes shared with earlier cones keep their literals) and
//! proved under an assumption, so learned clauses carry over while no
//! proof propagates through logic that only later outputs need.

use crate::cnf::Lit;
use crate::solver::{Budget, Outcome, Solver, Stats};
use crate::tseitin::Encoder;
use hyde_bdd::Bdd;
use hyde_logic::{Network, NodeId, TruthTable};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Verdict of one equivalence proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CecOutcome {
    /// The two sides are equal for every input assignment.
    Equivalent,
    /// The sides disagree on this input minterm.
    Differ(u32),
    /// The proof budget ran out first.
    Unknown,
}

/// One equivalence proof with its search effort.
#[derive(Debug, Clone)]
pub struct CecProof {
    /// Index of the output proved (position in the spec list).
    pub output: usize,
    /// The verdict.
    pub outcome: CecOutcome,
    /// Solver variables live when the proof finished.
    pub vars: usize,
    /// Problem clauses plus kept learned clauses when the proof finished
    /// (deleted learned clauses are not counted).
    pub clauses: usize,
    /// Conflicts spent on this proof alone.
    pub conflicts: u64,
    /// Decisions spent on this proof alone.
    pub decisions: u64,
    /// Propagations spent on this proof alone.
    pub propagations: u64,
    /// Wall-clock time of this proof alone.
    pub elapsed: Duration,
}

fn delta(before: &Stats, after: &Stats) -> (u64, u64, u64) {
    (
        after.conflicts - before.conflicts,
        after.decisions - before.decisions,
        after.propagations - before.propagations,
    )
}

fn model_minterm(solver: &Solver, pi_lits: &[Lit]) -> u32 {
    let mut m = 0u32;
    for (i, l) in pi_lits.iter().enumerate() {
        if solver.model_value(l.var()) != l.is_neg() {
            m |= 1 << i;
        }
    }
    m
}

/// Proves one miter literal under the shared solver, recording effort.
fn prove(
    enc: &mut Encoder,
    miter: Lit,
    pi_lits: &[Lit],
    output: usize,
    budget: &Budget,
) -> CecProof {
    let before = enc.solver().stats();
    // sa:allow(SA002): elapsed time only annotates the proof record; the
    // outcome is decided by the budgeted solver.
    let start = Instant::now();
    let outcome = match enc.solver_mut().solve_budgeted(&[miter], budget) {
        Outcome::Unsat => CecOutcome::Equivalent,
        Outcome::Sat => CecOutcome::Differ(model_minterm(enc.solver(), pi_lits)),
        Outcome::Unknown => CecOutcome::Unknown,
    };
    let after = enc.solver().stats();
    let (conflicts, decisions, propagations) = delta(&before, &after);
    CecProof {
        output,
        outcome,
        vars: after.vars,
        clauses: after.clauses + after.learned,
        conflicts,
        decisions,
        propagations,
        elapsed: start.elapsed(),
    }
}

/// Encodes the transitive fan-in cone of `root` and returns its literal.
/// Nodes already in `node_lits` (the primary inputs, and nodes of cones
/// encoded before) are reused; each newly encoded node is added. The
/// network must be acyclic, or the walk never ends.
fn encode_cone(
    enc: &mut Encoder,
    net: &Network,
    root: NodeId,
    node_lits: &mut HashMap<NodeId, Lit>,
) -> Lit {
    // Depth-first, post-order: a node is encoded on its second visit,
    // after all of its fanins.
    let mut stack = vec![(root, false)];
    while let Some((id, fanins_done)) = stack.pop() {
        if node_lits.contains_key(&id) {
            continue;
        }
        if fanins_done {
            let fanin_lits: Vec<Lit> = net.fanins(id).iter().map(|f| node_lits[f]).collect();
            let y = enc.encode_table(net.function(id), &fanin_lits);
            node_lits.insert(id, y);
        } else {
            stack.push((id, true));
            stack.extend(net.fanins(id).iter().map(|&f| (f, false)));
        }
    }
    node_lits[&root]
}

/// Proves each network output equivalent to its specification table.
///
/// Each output gets one budgeted miter proof. Right before it, the
/// output's transitive fan-in cone is Tseitin-encoded, reusing the
/// literals of nodes earlier cones already encoded, and its spec table
/// is turned into a BDD (shared manager, so common subfunctions merge)
/// and encoded over the same input literals. Spec variable `i` must
/// correspond to primary input `i` in `net.inputs()` order.
///
/// # Panics
///
/// Panics if the network is cyclic, if `specs.len()` differs from the
/// output count, if any spec's arity differs from the input count, or
/// if the input count exceeds 28 (BDD construction guard).
pub fn cec_network_vs_tables(
    net: &Network,
    specs: &[TruthTable],
    budget: &Budget,
) -> Vec<CecProof> {
    assert_eq!(
        net.outputs().len(),
        specs.len(),
        "output/spec count mismatch"
    );
    let n = net.inputs().len();
    for (o, spec) in specs.iter().enumerate() {
        assert_eq!(spec.vars(), n, "output {o}: input/spec arity mismatch");
    }
    assert!(net.topo_order().is_ok(), "cyclic network cannot be encoded");
    let mut enc = Encoder::new();
    let pi = enc.fresh_inputs(n);
    let mut node_lits: HashMap<NodeId, Lit> = net
        .inputs()
        .iter()
        .copied()
        .zip(pi.iter().copied())
        .collect();
    let mut bdd = Bdd::new(n);
    let mut proofs = Vec::with_capacity(specs.len());
    for (o, (spec, (_, root))) in specs.iter().zip(net.outputs()).enumerate() {
        let out_lit = encode_cone(&mut enc, net, *root, &mut node_lits);
        let spec_ref = bdd.from_fn(|m| spec.eval(m));
        let spec_lit = enc.encode_bdd(&bdd, spec_ref, &pi);
        let m = enc.xor(out_lit, spec_lit);
        proofs.push(prove(&mut enc, m, &pi, o, budget));
    }
    proofs
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyde_logic::Network;

    fn adder_bit_net() -> (Network, Vec<TruthTable>) {
        // sum and carry of a full adder, built from 2-LUTs.
        let mut net = Network::new("fa");
        let a = net.add_input("x0");
        let b = net.add_input("x1");
        let c = net.add_input("x2");
        let xor2 = TruthTable::from_fn(2, |m| m == 1 || m == 2);
        let and2 = TruthTable::from_fn(2, |m| m == 3);
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let ab = net.add_node("ab", vec![a, b], xor2.clone()).unwrap();
        let sum = net.add_node("sum", vec![ab, c], xor2).unwrap();
        let g1 = net.add_node("g1", vec![a, b], and2.clone()).unwrap();
        let g2 = net.add_node("g2", vec![ab, c], and2).unwrap();
        let carry = net.add_node("carry", vec![g1, g2], or2).unwrap();
        net.mark_output("sum", sum);
        net.mark_output("carry", carry);
        let specs = vec![
            TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1),
            TruthTable::from_fn(3, |m| m.count_ones() >= 2),
        ];
        (net, specs)
    }

    #[test]
    fn full_adder_outputs_are_proved_equivalent() {
        let (net, specs) = adder_bit_net();
        let proofs = cec_network_vs_tables(&net, &specs, &Budget::default());
        assert_eq!(proofs.len(), 2);
        for p in &proofs {
            assert_eq!(p.outcome, CecOutcome::Equivalent, "output {}", p.output);
        }
    }

    #[test]
    fn wrong_spec_yields_counterexample() {
        let (net, mut specs) = adder_bit_net();
        let mut t = specs[1].clone();
        t.set(5, !t.eval(5));
        specs[1] = t;
        let proofs = cec_network_vs_tables(&net, &specs, &Budget::default());
        assert_eq!(proofs[0].outcome, CecOutcome::Equivalent);
        assert_eq!(proofs[1].outcome, CecOutcome::Differ(5));
    }

    #[test]
    #[should_panic(expected = "input/spec arity mismatch")]
    fn wider_later_spec_is_rejected() {
        // The second spec has a third variable the network lacks; it
        // differs from the AND whenever x2 = 1.
        let mut net = Network::new("and");
        let a = net.add_input("x0");
        let b = net.add_input("x1");
        let and = net
            .add_node("and", vec![a, b], TruthTable::from_fn(2, |m| m == 3))
            .unwrap();
        net.mark_output("y0", and);
        net.mark_output("y1", and);
        let specs = vec![
            TruthTable::from_fn(2, |m| m == 3),
            TruthTable::from_fn(3, |m| m == 3 || m >= 4),
        ];
        cec_network_vs_tables(&net, &specs, &Budget::default());
    }

    #[test]
    fn output_cones_agree_with_simulation() {
        // `shared` feeds both outputs; `dangling` feeds neither, so no
        // output cone reaches it.
        let mut net = Network::new("cones");
        let x: Vec<NodeId> = (0..4).map(|i| net.add_input(&format!("x{i}"))).collect();
        let and2 = TruthTable::from_fn(2, |m| m == 3);
        let or2 = TruthTable::from_fn(2, |m| m != 0);
        let xor2 = TruthTable::from_fn(2, |m| m == 1 || m == 2);
        let shared = net.add_node("shared", vec![x[0], x[1]], and2).unwrap();
        net.add_node("dangling", vec![x[2], x[3]], or2.clone())
            .unwrap();
        let y0 = net.add_node("y0", vec![shared, x[2]], xor2).unwrap();
        let y1 = net.add_node("y1", vec![x[3], shared], or2).unwrap();
        net.mark_output("y0", y0);
        net.mark_output("y1", y1);
        let sim: Vec<TruthTable> = (0..2)
            .map(|o| {
                TruthTable::from_fn(4, |m| {
                    let bits: Vec<bool> = (0..4).map(|i| m >> i & 1 == 1).collect();
                    net.eval(&bits)[o]
                })
            })
            .collect();
        // The simulated tables, then each with one minterm flipped.
        let flips = (0..2).flat_map(|o| (0..16).map(move |m| Some((o, m))));
        for flip in std::iter::once(None).chain(flips) {
            let mut specs = sim.clone();
            if let Some((o, m)) = flip {
                let bit = specs[o].eval(m);
                specs[o].set(m, !bit);
            }
            let proofs = cec_network_vs_tables(&net, &specs, &Budget::default());
            for (p, (got, spec)) in proofs.iter().zip(sim.iter().zip(&specs)) {
                match p.outcome {
                    CecOutcome::Equivalent => assert_eq!(got, spec, "{flip:?}"),
                    CecOutcome::Differ(m) => {
                        assert_ne!(got.eval(m), spec.eval(m), "{flip:?}: bad counterexample")
                    }
                    CecOutcome::Unknown => panic!("{flip:?}: undecided"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cyclic network")]
    fn cyclic_network_panics() {
        let mut net = Network::new("loop");
        let a = net.add_input("x0");
        let b = net.add_input("x1");
        let and2 = TruthTable::from_fn(2, |m| m == 3);
        let n1 = net.add_node("n1", vec![a, b], and2.clone()).unwrap();
        let n2 = net.add_node("n2", vec![n1, b], and2.clone()).unwrap();
        net.replace_node_unchecked(n1, vec![a, n2], and2.clone());
        net.mark_output("y", n2);
        cec_network_vs_tables(&net, &[and2], &Budget::default());
    }
}
