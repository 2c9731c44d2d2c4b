//! Tseitin encoding of networks, truth tables and BDDs into CNF.
//!
//! The encoder hash-conses the gate frontier: two calls that encode the
//! same function over the same fanin literals return the *same* output
//! literal, so structurally shared logic (two copies of a network, a
//! spec re-encoded per output, repeated BDD subgraphs) costs nothing
//! extra. LUT-style nodes are encoded from ISOP covers of `f` and `!f`
//! (one clause per cube); BDD nodes are encoded as ITE gates (four
//! clauses per node).

use crate::cnf::Lit;
use crate::solver::Solver;
use hyde_bdd::{Bdd, Ref};
use hyde_logic::network::project_to_support;
use hyde_logic::{Literal, Network, NodeId, SopCover, TruthTable};
use std::collections::HashMap;

#[derive(PartialEq, Eq, Hash)]
enum GateKey {
    /// `(vars, table words, fanin literals)` of a LUT gate.
    Table(usize, Vec<u64>, Vec<Lit>),
    /// `(selector, low, high)` of a BDD ITE gate.
    Ite(Lit, Lit, Lit),
    /// Symmetric XOR gate key (literals sorted).
    Xor(Lit, Lit),
}

/// CNF builder with structural hashing on top of a [`Solver`].
///
/// # Example
///
/// ```
/// use hyde_sat::{Encoder, Outcome};
/// use hyde_logic::TruthTable;
///
/// let mut enc = Encoder::new();
/// let ins = enc.fresh_inputs(2);
/// let and = enc.encode_table(&TruthTable::from_fn(2, |m| m == 0b11), &ins);
/// let m = enc.xor(and, ins[0]); // AND(a,b) != a  <=>  a & !b
/// assert_eq!(enc.solver_mut().solve(&[m]), Outcome::Sat);
/// ```
pub struct Encoder {
    solver: Solver,
    truth: Lit,
    cache: HashMap<GateKey, Lit>,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Creates an encoder with an embedded fresh solver.
    pub fn new() -> Self {
        let mut solver = Solver::new();
        let truth = Lit::pos(solver.new_var());
        solver.add_clause(&[truth]);
        Encoder {
            solver,
            truth,
            cache: HashMap::new(),
        }
    }

    /// The literal that is constant true.
    pub fn lit_true(&self) -> Lit {
        self.truth
    }

    /// The literal that is constant false.
    pub fn lit_false(&self) -> Lit {
        !self.truth
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn fresh_lit(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// Allocates `n` fresh input literals.
    pub fn fresh_inputs(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.fresh_lit()).collect()
    }

    /// Access to the underlying solver (for solving and stats).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Read-only access to the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Asserts `a <-> b`.
    pub fn assert_equiv(&mut self, a: Lit, b: Lit) {
        self.solver.add_clause(&[!a, b]);
        self.solver.add_clause(&[a, !b]);
    }

    /// Returns a literal equal to `a XOR b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return self.lit_false();
        }
        if a == !b {
            return self.lit_true();
        }
        if a == self.lit_false() {
            return b;
        }
        if a == self.lit_true() {
            return !b;
        }
        if b == self.lit_false() {
            return a;
        }
        if b == self.lit_true() {
            return !a;
        }
        let key = GateKey::Xor(a.min(b), a.max(b));
        if let Some(&y) = self.cache.get(&key) {
            return y;
        }
        let y = self.fresh_lit();
        self.solver.add_clause(&[!y, a, b]);
        self.solver.add_clause(&[!y, !a, !b]);
        self.solver.add_clause(&[y, !a, b]);
        self.solver.add_clause(&[y, a, !b]);
        self.cache.insert(key, y);
        y
    }

    /// Returns a literal equal to `f(inputs)`, encoding the truth table
    /// as CNF clauses over the ISOP covers of `f` and `!f`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != f.vars()`.
    pub fn encode_table(&mut self, f: &TruthTable, inputs: &[Lit]) -> Lit {
        assert_eq!(inputs.len(), f.vars(), "fanin/arity mismatch");
        // Project away vacuous variables so structurally different
        // fanin lists hash to the same gate when the function agrees.
        let support = f.support();
        if support.is_empty() {
            return if f.is_const() == Some(true) {
                self.lit_true()
            } else {
                self.lit_false()
            };
        }
        let rf = if support.len() == f.vars() {
            f.clone()
        } else {
            project_to_support(f, &support)
        };
        let lits: Vec<Lit> = support.iter().map(|&v| inputs[v]).collect();
        if rf.vars() == 1 {
            // Only non-constant single-variable functions: buffer / not.
            return if rf.eval(1) { lits[0] } else { !lits[0] };
        }
        let key = GateKey::Table(rf.vars(), rf.as_words().to_vec(), lits.clone());
        if let Some(&y) = self.cache.get(&key) {
            return y;
        }
        let y = self.fresh_lit();
        let (on, off) = SopCover::cnf_covers(&rf);
        let mut clause = Vec::with_capacity(rf.vars() + 1);
        for (cover, out) in [(&on, y), (&off, !y)] {
            for cube in cover.cubes() {
                clause.clear();
                clause.push(out);
                for (v, &l) in lits.iter().enumerate() {
                    match cube.literal(v) {
                        Literal::DontCare => {}
                        Literal::Positive => clause.push(!l),
                        Literal::Negative => clause.push(l),
                    }
                }
                self.solver.add_clause(&clause);
            }
        }
        // The complement costs nothing extra: reuse the same gate.
        let nf = !&rf;
        let nkey = GateKey::Table(nf.vars(), nf.as_words().to_vec(), lits);
        self.cache.insert(key, y);
        self.cache.insert(nkey, !y);
        y
    }

    /// Encodes every node of an acyclic network, returning the literal
    /// of each node. `pi_lits` supplies the literals of the primary
    /// inputs in `net.inputs()` order.
    ///
    /// # Panics
    ///
    /// Panics if the network is cyclic or `pi_lits` has the wrong length.
    pub fn encode_network(&mut self, net: &Network, pi_lits: &[Lit]) -> HashMap<NodeId, Lit> {
        assert_eq!(pi_lits.len(), net.inputs().len(), "PI literal mismatch");
        let mut map: HashMap<NodeId, Lit> = HashMap::new();
        for (&id, &l) in net.inputs().iter().zip(pi_lits) {
            map.insert(id, l);
        }
        let order = net.topo_order().expect("cyclic network cannot be encoded");
        for id in order {
            if map.contains_key(&id) {
                continue;
            }
            let fanin_lits: Vec<Lit> = net.fanins(id).iter().map(|f| map[f]).collect();
            let y = self.encode_table(net.function(id), &fanin_lits);
            map.insert(id, y);
        }
        map
    }

    /// Encodes a BDD function as CNF, returning its output literal.
    /// `var_lits[i]` is the literal standing for BDD variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if a BDD variable has no literal in `var_lits`.
    pub fn encode_bdd(&mut self, bdd: &Bdd, f: Ref, var_lits: &[Lit]) -> Lit {
        let mut memo: HashMap<Ref, Lit> = HashMap::new();
        self.encode_bdd_rec(bdd, f, var_lits, &mut memo)
    }

    fn encode_bdd_rec(
        &mut self,
        bdd: &Bdd,
        f: Ref,
        var_lits: &[Lit],
        memo: &mut HashMap<Ref, Lit>,
    ) -> Lit {
        if f == Ref::TRUE {
            return self.lit_true();
        }
        if f == Ref::FALSE {
            return self.lit_false();
        }
        if let Some(&y) = memo.get(&f) {
            return y;
        }
        let (v, lo, hi) = bdd.node_parts(f);
        let l = self.encode_bdd_rec(bdd, lo, var_lits, memo);
        let h = self.encode_bdd_rec(bdd, hi, var_lits, memo);
        let x = var_lits[v];
        let y = self.ite(x, h, l);
        memo.insert(f, y);
        y
    }

    /// Returns a literal equal to `if s then t else e`.
    pub fn ite(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        if t == self.lit_true() && e == self.lit_false() {
            return s;
        }
        if t == self.lit_false() && e == self.lit_true() {
            return !s;
        }
        if t == !e {
            // s ? t : !t  ==  !(s xor t) ... == xnor(s, t)
            return !self.xor(s, t);
        }
        let key = GateKey::Ite(s, t, e);
        if let Some(&y) = self.cache.get(&key) {
            return y;
        }
        let y = self.fresh_lit();
        self.solver.add_clause(&[!s, !t, y]);
        self.solver.add_clause(&[!s, t, !y]);
        self.solver.add_clause(&[s, !e, y]);
        self.solver.add_clause(&[s, e, !y]);
        self.cache.insert(key, y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Outcome;

    /// Checks `lit == f(inputs)` for every minterm by assumption solving.
    fn assert_encodes(enc: &mut Encoder, lit: Lit, f: &TruthTable, inputs: &[Lit]) {
        for m in 0..f.num_minterms() as u32 {
            let mut assumps: Vec<Lit> = inputs
                .iter()
                .enumerate()
                .map(|(i, &l)| if m >> i & 1 == 1 { l } else { !l })
                .collect();
            assumps.push(if f.eval(m) { !lit } else { lit });
            assert_eq!(
                enc.solver_mut().solve(&assumps),
                Outcome::Unsat,
                "minterm {m} disagrees"
            );
        }
    }

    #[test]
    fn table_encoding_matches_truth_table() {
        let mut enc = Encoder::new();
        let ins = enc.fresh_inputs(3);
        for pattern in [0b1110_1000u32, 0b1001_0110, 0b0111_1110, 0b0000_0001] {
            let f = TruthTable::from_fn(3, |m| pattern >> m & 1 == 1);
            let y = enc.encode_table(&f, &ins);
            assert_encodes(&mut enc, y, &f, &ins);
        }
    }

    #[test]
    fn structural_hashing_reuses_gates() {
        let mut enc = Encoder::new();
        let ins = enc.fresh_inputs(2);
        let f = TruthTable::from_fn(2, |m| m == 0b11);
        let a = enc.encode_table(&f, &ins);
        let b = enc.encode_table(&f, &ins);
        assert_eq!(a, b);
        let c = enc.encode_table(&!&f, &ins);
        assert_eq!(c, !a);
    }

    #[test]
    fn vacuous_variables_hash_to_same_gate() {
        let mut enc = Encoder::new();
        let ins = enc.fresh_inputs(3);
        // x0 & x2, once with a vacuous middle variable and once densely.
        let sparse = TruthTable::from_fn(3, |m| m & 0b101 == 0b101);
        let dense = TruthTable::from_fn(2, |m| m == 0b11);
        let a = enc.encode_table(&sparse, &ins);
        let b = enc.encode_table(&dense, &[ins[0], ins[2]]);
        assert_eq!(a, b);
    }

    #[test]
    fn constants_and_buffers_use_no_new_vars() {
        let mut enc = Encoder::new();
        let ins = enc.fresh_inputs(1);
        let before = enc.solver().num_vars();
        let t = enc.encode_table(&TruthTable::one(1), &ins);
        let f = enc.encode_table(&TruthTable::zero(1), &ins);
        let buf = enc.encode_table(&TruthTable::var(1, 0), &ins);
        let inv = enc.encode_table(&!&TruthTable::var(1, 0), &ins);
        assert_eq!(t, enc.lit_true());
        assert_eq!(f, enc.lit_false());
        assert_eq!(buf, ins[0]);
        assert_eq!(inv, !ins[0]);
        assert_eq!(enc.solver().num_vars(), before);
    }

    #[test]
    fn bdd_encoding_matches_function() {
        let mut enc = Encoder::new();
        let ins = enc.fresh_inputs(4);
        let f = TruthTable::from_fn(4, |m| (m.count_ones() % 3) == 1);
        let mut bdd = Bdd::new(4);
        let r = bdd.from_fn(|m| f.eval(m));
        let y = enc.encode_bdd(&bdd, r, &ins);
        assert_encodes(&mut enc, y, &f, &ins);
    }

    #[test]
    fn network_encoding_matches_simulation() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let and = net
            .add_node("and", vec![a, b], TruthTable::from_fn(2, |m| m == 3))
            .unwrap();
        let f = net
            .add_node(
                "f",
                vec![and, c],
                TruthTable::from_fn(2, |m| m == 1 || m == 2),
            )
            .unwrap();
        net.mark_output("f", f);
        let mut enc = Encoder::new();
        let ins = enc.fresh_inputs(3);
        let map = enc.encode_network(&net, &ins);
        let (spec, support) = net.output_function(0);
        assert_eq!(support, vec![0, 1, 2]);
        assert_encodes(&mut enc, map[&f], &spec, &ins);
    }
}
