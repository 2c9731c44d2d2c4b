//! Multi-level Boolean networks in the SIS mold.
//!
//! A [`Network`] is a DAG of nodes, each computing a [`TruthTable`] over its
//! fanins. Primary inputs are nodes without fanins; any node can be marked
//! as a primary output. The HYDE mapping flows build LUT networks from
//! decomposition trees, collapse pseudo primary inputs to constants when
//! recovering hyper-function ingredients (Section 4.2 of the paper), and
//! count k-feasible nodes for the final LUT/CLB reports.

use crate::truthtable::TruthTable;
use crate::LogicError;
use std::collections::HashMap;
use std::fmt;

/// Handle to a node inside a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Dense index of the node (stable across non-destructive edits).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Role of a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Primary input (no fanins, no function).
    PrimaryInput,
    /// Internal node with a local function over its fanins.
    Internal,
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    role: NodeRole,
    fanins: Vec<NodeId>,
    /// Local function over `fanins` (variable `i` = fanin `i`). For primary
    /// inputs this is the 0-variable constant zero and never consulted.
    function: TruthTable,
    dead: bool,
}

/// A combinational multi-level Boolean network.
///
/// # Example
///
/// ```
/// use hyde_logic::{Network, TruthTable};
///
/// let mut net = Network::new("adder_bit");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
/// let sum = net.add_node("sum", vec![a, b], xor).unwrap();
/// net.mark_output("sum", sum);
/// assert_eq!(net.eval(&[true, false]), vec![true]);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: &str) -> Self {
        Network {
            name: name.to_owned(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input.
    pub fn add_input(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_owned(),
            role: NodeRole::PrimaryInput,
            fanins: Vec::new(),
            function: TruthTable::zero(0),
            dead: false,
        });
        self.inputs.push(id);
        id
    }

    /// Adds an internal node computing `function` over `fanins`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Network`] if the function arity does not match
    /// the fanin count or a fanin id is dangling.
    pub fn add_node(
        &mut self,
        name: &str,
        fanins: Vec<NodeId>,
        function: TruthTable,
    ) -> Result<NodeId, LogicError> {
        if function.vars() != fanins.len() {
            return Err(LogicError::Network(format!(
                "node {name}: function has {} vars but {} fanins",
                function.vars(),
                fanins.len()
            )));
        }
        for &f in &fanins {
            if f.0 >= self.nodes.len() || self.nodes[f.0].dead {
                return Err(LogicError::Network(format!(
                    "node {name}: dangling fanin {f}"
                )));
            }
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_owned(),
            role: NodeRole::Internal,
            fanins,
            function,
            dead: false,
        });
        Ok(id)
    }

    /// Adds a constant node.
    pub fn add_constant(&mut self, name: &str, value: bool) -> NodeId {
        let t = if value {
            TruthTable::one(0)
        } else {
            TruthTable::zero(0)
        };
        self.add_node(name, Vec::new(), t)
            .expect("constant node is always valid")
    }

    /// Marks `node` as primary output `name`. The same node may drive
    /// several outputs.
    pub fn mark_output(&mut self, name: &str, node: NodeId) {
        self.outputs.push((name.to_owned(), node));
    }

    /// Renames every output through `f` (receives the current name).
    pub fn rename_outputs<F: FnMut(&str) -> String>(&mut self, mut f: F) {
        for (name, _) in &mut self.outputs {
            *name = f(name);
        }
    }

    /// Reorders the outputs by a key derived from each output's name.
    pub fn sort_outputs_by_key<K: Ord, F: FnMut(&str) -> K>(&mut self, mut f: F) {
        self.outputs.sort_by_key(|(name, _)| f(name));
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs `(name, node)` in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Role of a node.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id.
    pub fn role(&self, id: NodeId) -> NodeRole {
        self.node(id).role
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node(id).name
    }

    /// Fanins of a node.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id.
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).fanins
    }

    /// Local function of a node.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id or if the node is a primary input.
    pub fn function(&self, id: NodeId) -> &TruthTable {
        let n = self.node(id);
        assert!(
            n.role == NodeRole::Internal,
            "primary input {id} has no function"
        );
        &n.function
    }

    /// CNF export hook: the `(isop(f), isop(!f))` cover pair of a node's
    /// local function, ready for clause-per-cube Tseitin encoding.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id or if the node is a primary input.
    pub fn cnf_covers(&self, id: NodeId) -> (crate::SopCover, crate::SopCover) {
        crate::SopCover::cnf_covers(self.function(id))
    }

    /// Replaces the local function and fanins of an internal node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::add_node`], plus the node must be
    /// internal and the new fanins must not create a cycle.
    pub fn replace_node(
        &mut self,
        id: NodeId,
        fanins: Vec<NodeId>,
        function: TruthTable,
    ) -> Result<(), LogicError> {
        if self.node(id).role != NodeRole::Internal {
            return Err(LogicError::Network(format!(
                "cannot replace primary input {id}"
            )));
        }
        if function.vars() != fanins.len() {
            return Err(LogicError::Network(format!("replace {id}: arity mismatch")));
        }
        let old = std::mem::take(&mut self.nodes[id.0].fanins);
        let old_fn = std::mem::replace(&mut self.nodes[id.0].function, function);
        self.nodes[id.0].fanins = fanins;
        if self.topo_order().is_err() {
            // Roll back to preserve the invariant.
            self.nodes[id.0].fanins = old;
            self.nodes[id.0].function = old_fn;
            return Err(LogicError::Network(format!(
                "replace {id}: would create a cycle"
            )));
        }
        let _ = old_fn;
        Ok(())
    }

    /// Replaces fanins/function of an internal node *without* the cycle
    /// check performed by [`Network::replace_node`].
    ///
    /// This deliberately allows constructing broken networks; it exists so
    /// the `hyde-verify` mutation tests can exercise the lints that detect
    /// such breakage (e.g. combinational cycles). Never use it in flows.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input or the arity does not match.
    #[doc(hidden)]
    pub fn replace_node_unchecked(
        &mut self,
        id: NodeId,
        fanins: Vec<NodeId>,
        function: TruthTable,
    ) {
        assert_eq!(self.node(id).role, NodeRole::Internal, "must be internal");
        assert_eq!(function.vars(), fanins.len(), "arity mismatch");
        self.nodes[id.0].fanins = fanins;
        self.nodes[id.0].function = function;
    }

    /// All live node ids in insertion order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].dead)
            .map(NodeId)
            .collect()
    }

    /// Number of live internal nodes — the raw LUT count of a mapped
    /// network.
    pub fn internal_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.dead && n.role == NodeRole::Internal)
            .count()
    }

    /// Maximum fanin count over live internal nodes.
    pub fn max_fanin(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.dead && n.role == NodeRole::Internal)
            .map(|n| n.fanins.len())
            .max()
            .unwrap_or(0)
    }

    /// Whether every live internal node has at most `k` fanins.
    pub fn is_k_feasible(&self, k: usize) -> bool {
        self.max_fanin() <= k
    }

    /// Topological order over live nodes (inputs first).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Network`] if the network contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, LogicError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut fanouts: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut live = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.dead {
                continue;
            }
            live += 1;
            for f in &node.fanins {
                indeg[i] += 1;
                fanouts[f.0].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..n)
            .filter(|&i| !self.nodes[i].dead && indeg[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(live);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(NodeId(v));
            for &w in &fanouts[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if order.len() != live {
            return Err(LogicError::Network("cycle detected".into()));
        }
        Ok(order)
    }

    /// Logic depth of each node (primary inputs at level 0).
    pub fn levels(&self) -> HashMap<NodeId, usize> {
        let order = self.topo_order().expect("network must be acyclic");
        let mut levels = HashMap::new();
        for id in order {
            let node = self.node(id);
            let lvl = node.fanins.iter().map(|f| levels[f] + 1).max().unwrap_or(0);
            levels.insert(id, lvl);
        }
        levels
    }

    /// Maximum logic depth over outputs.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|(_, id)| levels.get(id).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the outputs for one primary-input assignment (in input
    /// declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len()` differs from the input count or the
    /// network is cyclic.
    pub fn eval(&self, input_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "wrong number of input values"
        );
        let order = self.topo_order().expect("network must be acyclic");
        let mut values: HashMap<NodeId, bool> = HashMap::new();
        for (pi, &v) in self.inputs.iter().zip(input_values) {
            values.insert(*pi, v);
        }
        for id in order {
            let node = self.node(id);
            if node.role == NodeRole::PrimaryInput {
                continue;
            }
            let bits: Vec<bool> = node.fanins.iter().map(|f| values[f]).collect();
            values.insert(id, node.function.eval_bits(&bits));
        }
        self.outputs.iter().map(|(_, id)| values[id]).collect()
    }

    /// Evaluates the outputs for up to 64 primary-input assignments at
    /// once: bit `j` of `input_words[i]` is input `i`'s value (declaration
    /// order, as [`Self::eval`]) in assignment `j`, and bit `j` of output
    /// word `o` is output `o`'s value in assignment `j`.
    ///
    /// One topological pass serves all 64 assignments; each node is
    /// evaluated word-parallel with a Shannon mux tree over its local
    /// function, so verification sampling loops batch their minterms
    /// through this instead of calling [`Self::eval`] per minterm.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the input count or the
    /// network is cyclic.
    pub fn eval_batch64(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            input_words.len(),
            self.inputs.len(),
            "wrong number of input words"
        );
        let order = self.topo_order().expect("network must be acyclic");
        let mut values: HashMap<NodeId, u64> = HashMap::new();
        for (pi, &w) in self.inputs.iter().zip(input_words) {
            values.insert(*pi, w);
        }
        let mut ins: Vec<u64> = Vec::new();
        let mut muxes: Vec<u64> = Vec::new();
        for id in order {
            let node = self.node(id);
            if node.role == NodeRole::PrimaryInput {
                continue;
            }
            ins.clear();
            ins.extend(node.fanins.iter().map(|f| values[f]));
            muxes.clear();
            muxes.extend(
                (0..1u32 << ins.len()).map(|e| if node.function.eval(e) { !0u64 } else { 0 }),
            );
            // Mux away one variable per round: after round `i`, entry `j`
            // holds the cofactor words for fanins `i+1..` at index `j`.
            let mut width = muxes.len();
            for &x in &ins {
                width /= 2;
                for j in 0..width {
                    muxes[j] = (muxes[2 * j] & !x) | (muxes[2 * j + 1] & x);
                }
            }
            values.insert(id, muxes[0]);
        }
        self.outputs.iter().map(|(_, id)| values[id]).collect()
    }

    /// Computes, for every live node, its global function over the primary
    /// input space (variable `i` = i-th primary input).
    ///
    /// # Panics
    ///
    /// Panics if the input count exceeds [`TruthTable::MAX_VARS`] or the
    /// network is cyclic.
    pub fn global_tables(&self) -> HashMap<NodeId, TruthTable> {
        let nv = self.inputs.len();
        assert!(
            nv <= TruthTable::MAX_VARS,
            "too many primary inputs for global tables"
        );
        let order = self.topo_order().expect("network must be acyclic");
        let mut tables: HashMap<NodeId, TruthTable> = HashMap::new();
        for (i, pi) in self.inputs.iter().enumerate() {
            tables.insert(*pi, TruthTable::var(nv, i));
        }
        for id in order {
            let node = self.node(id);
            if node.role == NodeRole::PrimaryInput {
                continue;
            }
            // Shannon-expand the local function over the fanins' globals.
            let mut acc = TruthTable::zero(nv);
            for m in 0u32..(1u32 << node.fanins.len()) {
                if !node.function.eval(m) {
                    continue;
                }
                let mut term = TruthTable::one(nv);
                for (j, f) in node.fanins.iter().enumerate() {
                    let g = &tables[f];
                    term = if m >> j & 1 == 1 {
                        &term & g
                    } else {
                        &term & &!g
                    };
                    if term.is_zero() {
                        break;
                    }
                }
                acc = &acc | &term;
            }
            tables.insert(id, acc);
        }
        tables
    }

    /// The global function of output `o` restricted to its support:
    /// returns `(table, support)` where `support[i]` is the primary-input
    /// position feeding table variable `i`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Network::global_tables`]; also panics if
    /// `o >= outputs().len()`.
    pub fn output_function(&self, o: usize) -> (TruthTable, Vec<usize>) {
        let (_, id) = &self.outputs[o];
        let tables = self.global_tables();
        let global = &tables[id];
        let support = global.support();
        let table = project_to_support(global, &support);
        (table, support)
    }

    /// Substitutes a constant for primary input `pi` everywhere and removes
    /// it from the input list (pseudo-primary-input collapse of Section 4.2).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Network`] if `pi` is not a primary input.
    pub fn collapse_input_constant(&mut self, pi: NodeId, value: bool) -> Result<(), LogicError> {
        if self.node(pi).role != NodeRole::PrimaryInput {
            return Err(LogicError::Network(format!("{pi} is not a primary input")));
        }
        for i in 0..self.nodes.len() {
            if self.nodes[i].dead || self.nodes[i].role == NodeRole::PrimaryInput {
                continue;
            }
            while let Some(pos) = self.nodes[i].fanins.iter().position(|&f| f == pi) {
                let cof = self.nodes[i].function.cofactor(pos, value);
                let (new_fn, new_fanins) = drop_fanin(&cof, &self.nodes[i].fanins, pos);
                self.nodes[i].function = new_fn;
                self.nodes[i].fanins = new_fanins;
            }
        }
        // If the input drives an output directly, replace it by a constant
        // node.
        if self.outputs.iter().any(|(_, id)| *id == pi) {
            let c = self.add_constant(&format!("const_{}", self.node(pi).name), value);
            for (_, id) in &mut self.outputs {
                if *id == pi {
                    *id = c;
                }
            }
        }
        self.inputs.retain(|&i| i != pi);
        self.nodes[pi.0].dead = true;
        Ok(())
    }

    /// Removes dead logic: nodes not reachable from any output, vacuous
    /// fanins, and forwards single-input identity (buffer) nodes. Returns
    /// the number of nodes removed.
    pub fn sweep(&mut self) -> usize {
        let before = self.node_ids().len();
        // Drop vacuous fanins and rewrite buffers until a fixpoint.
        loop {
            let mut changed = false;
            // Vacuous fanin elimination.
            for i in 0..self.nodes.len() {
                if self.nodes[i].dead || self.nodes[i].role == NodeRole::PrimaryInput {
                    continue;
                }
                let mut v = 0;
                while v < self.nodes[i].fanins.len() {
                    if !self.nodes[i].function.depends_on(v) {
                        let cof = self.nodes[i].function.cofactor(v, false);
                        let (new_fn, new_fanins) = drop_fanin(&cof, &self.nodes[i].fanins, v);
                        self.nodes[i].function = new_fn;
                        self.nodes[i].fanins = new_fanins;
                        changed = true;
                    } else {
                        v += 1;
                    }
                }
            }
            // Buffer forwarding: node with one fanin computing identity.
            let mut forward: HashMap<NodeId, NodeId> = HashMap::new();
            for i in 0..self.nodes.len() {
                let n = &self.nodes[i];
                if n.dead || n.role == NodeRole::PrimaryInput {
                    continue;
                }
                if n.fanins.len() == 1 && n.function == TruthTable::var(1, 0) {
                    forward.insert(NodeId(i), n.fanins[0]);
                }
            }
            if !forward.is_empty() {
                changed = true;
                let resolve = |mut id: NodeId| {
                    while let Some(&next) = forward.get(&id) {
                        id = next;
                    }
                    id
                };
                for i in 0..self.nodes.len() {
                    if self.nodes[i].dead {
                        continue;
                    }
                    let fanins = self.nodes[i].fanins.clone();
                    self.nodes[i].fanins = fanins.into_iter().map(resolve).collect();
                }
                for (_, id) in &mut self.outputs {
                    *id = resolve(*id);
                }
                // The bypassed buffers are dead now; removing them here
                // also keeps this loop terminating.
                // sa:allow(SA001): independent per-node flag writes;
                // visit order is immaterial.
                for id in forward.keys() {
                    self.nodes[id.0].dead = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Reachability from outputs.
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|(_, id)| id.0).collect();
        while let Some(v) = stack.pop() {
            if reachable[v] {
                continue;
            }
            reachable[v] = true;
            for f in &self.nodes[v].fanins {
                stack.push(f.0);
            }
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.role == NodeRole::Internal && !reachable[i] {
                node.dead = true;
            }
        }
        before - self.node_ids().len()
    }

    /// Collapses (eliminates, in SIS terms) an internal node into every
    /// fanout: each consumer's function is composed with the node's
    /// function and the node is removed. Outputs driven by the node keep a
    /// buffer-free reference via composition into a fresh node when needed.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Network`] if `id` is not an internal node.
    pub fn eliminate(&mut self, id: NodeId) -> Result<(), LogicError> {
        if self.node(id).role != NodeRole::Internal {
            return Err(LogicError::Network(format!("{id} is not internal")));
        }
        let victim_fanins = self.node(id).fanins.clone();
        let victim_fn = self.node(id).function.clone();
        for i in 0..self.nodes.len() {
            if self.nodes[i].dead || self.nodes[i].role == NodeRole::PrimaryInput || NodeId(i) == id
            {
                continue;
            }
            while let Some(pos) = self.nodes[i].fanins.iter().position(|&f| f == id) {
                // New fanin list: existing (minus pos) + victim's fanins.
                let mut fanins: Vec<NodeId> = self.nodes[i].fanins.clone();
                fanins.remove(pos);
                let base = fanins.len();
                let mut victim_map = Vec::with_capacity(victim_fanins.len());
                for &vf in &victim_fanins {
                    match fanins.iter().position(|&f| f == vf) {
                        Some(p) => victim_map.push(p),
                        None => {
                            fanins.push(vf);
                            victim_map.push(fanins.len() - 1);
                        }
                    }
                }
                let _ = base;
                let old_fn = self.nodes[i].function.clone();
                let old_fanins = self.nodes[i].fanins.clone();
                let nv = fanins.len();
                let new_fn = TruthTable::from_fn(nv, |m| {
                    // Evaluate the victim on its mapped inputs.
                    let mut vm = 0u32;
                    for (b, &p) in victim_map.iter().enumerate() {
                        if m >> p & 1 == 1 {
                            vm |= 1 << b;
                        }
                    }
                    let vval = victim_fn.eval(vm);
                    // Rebuild the consumer's original input vector.
                    let mut om = 0u32;
                    for (old_pos, &of) in old_fanins.iter().enumerate() {
                        let bit = if old_pos == pos {
                            vval
                        } else {
                            // Position of of in the new fanin list: for
                            // old_pos < pos it is old_pos, beyond it shifts
                            // down by one.
                            let p = if old_pos < pos { old_pos } else { old_pos - 1 };
                            debug_assert_eq!(fanins[p], of);
                            m >> p & 1 == 1
                        };
                        if bit {
                            om |= 1 << old_pos;
                        }
                    }
                    old_fn.eval(om)
                });
                self.nodes[i].fanins = fanins;
                self.nodes[i].function = new_fn;
            }
        }
        // Outputs driven directly by the victim get a replacement node.
        if self.outputs.iter().any(|(_, o)| *o == id) {
            let name = format!("{}_kept", self.nodes[id.0].name);
            let replacement = self
                .add_node(&name, victim_fanins, victim_fn)
                .expect("victim was valid");
            for (_, o) in &mut self.outputs {
                if *o == id {
                    *o = replacement;
                }
            }
        }
        self.nodes[id.0].dead = true;
        Ok(())
    }

    /// Summary statistics of the network.
    pub fn stats(&self) -> NetworkStats {
        NetworkStats {
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            internal_nodes: self.internal_count(),
            max_fanin: self.max_fanin(),
            depth: if self.outputs.is_empty() {
                0
            } else {
                self.depth()
            },
        }
    }

    /// The set of nodes in the transitive fanout of `start` (including
    /// `start` itself) — `TFO` in Definition 4.2 of the paper.
    pub fn transitive_fanout(&self, start: NodeId) -> Vec<NodeId> {
        let mut fanouts: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if node.dead {
                continue;
            }
            for f in &node.fanins {
                fanouts[f.0].push(i);
            }
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start.0];
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            out.push(NodeId(v));
            for &w in &fanouts[v] {
                stack.push(w);
            }
        }
        out.sort_unstable();
        out
    }

    fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.0];
        assert!(!n.dead, "node {id} has been removed");
        n
    }
}

/// Summary statistics of a network (see [`Network::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkStats {
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Live internal node (LUT) count.
    pub internal_nodes: usize,
    /// Maximum fanin over internal nodes.
    pub max_fanin: usize,
    /// Logic depth in levels.
    pub depth: usize,
}

impl std::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in, {} out, {} nodes, max fanin {}, depth {}",
            self.inputs, self.outputs, self.internal_nodes, self.max_fanin, self.depth
        )
    }
}

/// Rebuilds `(function, fanins)` with the variable at `pos` removed; the
/// function must not depend on that variable.
fn drop_fanin(function: &TruthTable, fanins: &[NodeId], pos: usize) -> (TruthTable, Vec<NodeId>) {
    let old_vars = fanins.len();
    debug_assert_eq!(function.vars(), old_vars);
    let map: Vec<usize> = (0..old_vars)
        .map(|i| match i.cmp(&pos) {
            std::cmp::Ordering::Less => i,
            std::cmp::Ordering::Equal => 0, // vacuous, maps anywhere
            std::cmp::Ordering::Greater => i - 1,
        })
        .collect();
    let new_fn = function
        .permute(
            old_vars
                .saturating_sub(1)
                .max(map.iter().copied().max().map_or(0, |m| m + 1)),
            &map,
        )
        .unwrap_or_else(|_| {
            // Only possible for the degenerate 1-fanin case below.
            TruthTable::zero(0)
        });
    let mut new_fanins = fanins.to_vec();
    new_fanins.remove(pos);
    // Degenerate: removing the only fanin of a constant function.
    if new_fanins.is_empty() {
        let c = function.cofactor(pos.min(function.vars().saturating_sub(1)), false);
        let t = if c.is_zero() {
            TruthTable::zero(0)
        } else {
            TruthTable::one(0)
        };
        return (t, new_fanins);
    }
    (new_fn, new_fanins)
}

/// Projects a global table onto its `support` variables: result variable
/// `i` corresponds to `support[i]`, which may come in any order. Variables
/// outside `support` are read at 0.
///
/// Word-level: every other variable is removed highest first (so lower
/// positions stay valid), one halving pass each; a non-ascending
/// `support` then costs one promotion pass per variable of the result.
///
/// # Panics
///
/// Panics if `support` repeats a variable or names one outside the
/// table; in debug builds, also if it omits a variable the table depends
/// on.
pub fn project_to_support(global: &TruthTable, support: &[usize]) -> TruthTable {
    let mut sorted = support.to_vec();
    sorted.sort_unstable();
    let mut table = global.clone();
    for v in (0..global.vars()).rev() {
        if sorted.binary_search(&v).is_err() {
            table = table.remove_var(v);
        }
    }
    assert_eq!(
        table.vars(),
        support.len(),
        "support must name distinct variables of the table"
    );
    // Variable `j` of `table` is now `sorted[j]`; promoting the ranks in
    // `support` order moves `support[i]` to variable `i`.
    if sorted != support {
        let ranks: Vec<usize> = support
            .iter()
            .filter_map(|v| sorted.binary_search(v).ok())
            .collect();
        table = table.promote(&ranks);
    }
    debug_assert!({
        let sup = global.support();
        sup.iter().all(|v| support.contains(v))
    });
    table
}

/// Structurally merges several networks into one multi-output network,
/// sharing nodes that compute the same function over the same (shared)
/// fanins. Primary inputs are matched by name; outputs keep their names
/// (prefixed by the source network's name when duplicates arise).
///
/// This realizes the sharing argument of hyper-function decomposition:
/// after per-ingredient constant collapse, every node outside the
/// duplication cone is structurally identical across ingredients and merges
/// into a single LUT.
///
/// # Panics
///
/// Panics if any input network is cyclic.
pub fn structural_merge(name: &str, nets: &[&Network]) -> Network {
    let mut out = Network::new(name);
    let mut pi_by_name: HashMap<String, NodeId> = HashMap::new();
    // (function words, fanins) -> node
    let mut cons: HashMap<(Vec<u64>, Vec<NodeId>), NodeId> = HashMap::new();
    let mut seen_outputs: HashMap<String, usize> = HashMap::new();
    for net in nets {
        let order = net.topo_order().expect("network must be acyclic");
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for id in order {
            match net.role(id) {
                NodeRole::PrimaryInput => {
                    let nm = net.node_name(id).to_owned();
                    let pid = *pi_by_name
                        .entry(nm.clone())
                        .or_insert_with(|| out.add_input(&nm));
                    map.insert(id, pid);
                }
                NodeRole::Internal => {
                    let fanins: Vec<NodeId> = net.fanins(id).iter().map(|f| map[f]).collect();
                    let key = (net.function(id).as_words().to_vec(), fanins.clone());
                    let nid = match cons.get(&key) {
                        Some(&n) => n,
                        None => {
                            let n = out
                                .add_node(net.node_name(id), fanins, net.function(id).clone())
                                .expect("arity preserved by construction");
                            cons.insert(key, n);
                            n
                        }
                    };
                    map.insert(id, nid);
                }
            }
        }
        for (oname, oid) in net.outputs() {
            let count = seen_outputs.entry(oname.clone()).or_insert(0);
            let final_name = if *count == 0 {
                oname.clone()
            } else {
                format!("{}_{oname}", net.name())
            };
            *count += 1;
            out.mark_output(&final_name, map[oid]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar oracle of [`project_to_support`], the formulation it
    /// replaced: one representative full minterm per result minterm.
    fn project_to_support_scalar(global: &TruthTable, support: &[usize]) -> TruthTable {
        TruthTable::from_fn(support.len(), |m| {
            let full = support
                .iter()
                .enumerate()
                .filter(|&(i, _)| m >> i & 1 == 1)
                .fold(0u32, |acc, (_, &v)| acc | 1 << v);
            global.eval(full)
        })
    }

    #[test]
    fn project_to_support_matches_scalar_oracle() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5009);
        for n in 0..=11usize {
            for _ in 0..6 {
                let mut vars: Vec<usize> = (0..n).collect();
                vars.shuffle(&mut rng);
                let mut support = vars[..rng.gen_range(0..=n)].to_vec();
                // The table depends on its support only, as the contract
                // requires (vacuous elsewhere).
                let inner = TruthTable::random(support.len(), &mut rng);
                let global = TruthTable::from_fn(n, |m| {
                    let local = support
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| m >> v & 1 == 1)
                        .fold(0u32, |acc, (i, _)| acc | 1 << i);
                    inner.eval(local)
                });
                // Shuffled support, then the same set ascending.
                let shuffled = project_to_support(&global, &support);
                assert_eq!(shuffled, inner, "n {n} support {support:?}");
                assert_eq!(shuffled, project_to_support_scalar(&global, &support));
                support.sort_unstable();
                assert_eq!(
                    project_to_support(&global, &support),
                    project_to_support_scalar(&global, &support),
                    "n {n} support {support:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct variables")]
    fn project_to_support_rejects_repeated_variables() {
        let _ = project_to_support(&TruthTable::var(3, 0), &[0, 0]);
    }

    fn full_adder() -> Network {
        let mut net = Network::new("fa");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let cin = net.add_input("cin");
        let xor3 = TruthTable::from_fn(3, |m| (m.count_ones() % 2) == 1);
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let s = net.add_node("sum", vec![a, b, cin], xor3).unwrap();
        let c = net.add_node("cout", vec![a, b, cin], maj).unwrap();
        net.mark_output("sum", s);
        net.mark_output("cout", c);
        net
    }

    #[test]
    fn eval_full_adder() {
        let net = full_adder();
        for m in 0u32..8 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            let out = net.eval(&bits);
            let total = bits.iter().filter(|&&b| b).count();
            assert_eq!(out[0], total % 2 == 1);
            assert_eq!(out[1], total >= 2);
        }
    }

    #[test]
    fn global_tables_match_eval() {
        let net = full_adder();
        let tables = net.global_tables();
        let (_, sum_id) = &net.outputs()[0];
        for m in 0u32..8 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            assert_eq!(tables[sum_id].eval(m), net.eval(&bits)[0]);
        }
    }

    #[test]
    fn output_function_shrinks_support() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let _unused = net.add_input("b");
        let c = net.add_input("c");
        let and = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let n = net.add_node("and", vec![a, c], and.clone()).unwrap();
        net.mark_output("o", n);
        let (f, support) = net.output_function(0);
        assert_eq!(support, vec![0, 2]);
        assert_eq!(f, and);
    }

    #[test]
    fn cycle_detection() {
        let mut net = Network::new("cyc");
        let a = net.add_input("a");
        let id1 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let n1 = net.add_node("n1", vec![a, a], id1.clone()).unwrap();
        // Rewire n1 to feed itself -> cycle.
        assert!(net.replace_node(n1, vec![a, n1], id1).is_err());
        // Network remains valid after rollback.
        assert!(net.topo_order().is_ok());
    }

    #[test]
    fn levels_and_depth() {
        let mut net = Network::new("chain");
        let a = net.add_input("a");
        let inv = !TruthTable::var(1, 0);
        let n1 = net.add_node("n1", vec![a], inv.clone()).unwrap();
        let n2 = net.add_node("n2", vec![n1], inv.clone()).unwrap();
        net.mark_output("o", n2);
        assert_eq!(net.depth(), 2);
        assert_eq!(net.levels()[&a], 0);
        assert_eq!(net.levels()[&n2], 2);
    }

    #[test]
    fn collapse_input_constant_full_adder() {
        // Tie cin=0: sum becomes a^b, cout becomes a&b.
        let mut net = full_adder();
        let cin = net.inputs()[2];
        net.collapse_input_constant(cin, false).unwrap();
        assert_eq!(net.inputs().len(), 2);
        for m in 0u32..4 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1];
            let out = net.eval(&bits);
            assert_eq!(out[0], bits[0] ^ bits[1]);
            assert_eq!(out[1], bits[0] && bits[1]);
        }
    }

    #[test]
    fn collapse_input_driving_output() {
        let mut net = Network::new("pass");
        let a = net.add_input("a");
        net.mark_output("o", a);
        net.collapse_input_constant(a, true).unwrap();
        assert_eq!(net.eval(&[]), vec![true]);
    }

    #[test]
    fn sweep_removes_dead_and_buffers() {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let inv = !TruthTable::var(1, 0);
        let _dead = net.add_node("dead", vec![b], inv.clone()).unwrap();
        let buf = net.add_node("buf", vec![a], TruthTable::var(1, 0)).unwrap();
        let n = net.add_node("inv", vec![buf], inv).unwrap();
        net.mark_output("o", n);
        let removed = net.sweep();
        assert_eq!(removed, 2); // dead + buffer
        assert_eq!(net.eval(&[true, false]), vec![false]);
        assert_eq!(net.internal_count(), 1);
    }

    #[test]
    fn sweep_drops_vacuous_fanins() {
        let mut net = Network::new("v");
        let a = net.add_input("a");
        let b = net.add_input("b");
        // Function over (a,b) that ignores b.
        let f = TruthTable::var(2, 0);
        let n = net.add_node("n", vec![a, b], f).unwrap();
        net.mark_output("o", n);
        net.sweep();
        // n forwarded to a as a buffer, so output is a.
        assert_eq!(net.eval(&[true, false]), vec![true]);
        assert_eq!(net.eval(&[false, true]), vec![false]);
    }

    #[test]
    fn transitive_fanout() {
        let mut net = Network::new("tfo");
        let a = net.add_input("a");
        let inv = !TruthTable::var(1, 0);
        let n1 = net.add_node("n1", vec![a], inv.clone()).unwrap();
        let n2 = net.add_node("n2", vec![n1], inv.clone()).unwrap();
        let n3 = net.add_node("n3", vec![a], inv).unwrap();
        net.mark_output("o2", n2);
        net.mark_output("o3", n3);
        let tfo = net.transitive_fanout(n1);
        assert_eq!(tfo, vec![n1, n2]);
        let tfo_a = net.transitive_fanout(a);
        assert_eq!(tfo_a.len(), 4);
    }

    #[test]
    fn k_feasibility() {
        let net = full_adder();
        assert!(net.is_k_feasible(3));
        assert!(!net.is_k_feasible(2));
        assert_eq!(net.max_fanin(), 3);
        assert_eq!(net.internal_count(), 2);
    }

    #[test]
    fn eliminate_preserves_function() {
        // y = (a & b) | c built as two nodes; eliminating the AND yields a
        // single 3-input node computing the same function.
        let mut net = Network::new("elim");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
        let t = net.add_node("t", vec![a, b], and2).unwrap();
        let y = net.add_node("y", vec![t, c], or2).unwrap();
        net.mark_output("y", y);
        net.eliminate(t).unwrap();
        assert_eq!(net.internal_count(), 1);
        for m in 0u32..8 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            let expect = (bits[0] && bits[1]) || bits[2];
            assert_eq!(net.eval(&bits), vec![expect], "m={m}");
        }
    }

    #[test]
    fn eliminate_with_shared_fanin() {
        // Consumer already uses one of the victim's fanins: y = t ^ a,
        // t = a & b. After eliminate: y(a,b) = (a&b)^a.
        let mut net = Network::new("share");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let xor2 = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        let t = net.add_node("t", vec![a, b], and2).unwrap();
        let y = net.add_node("y", vec![t, a], xor2).unwrap();
        net.mark_output("y", y);
        net.eliminate(t).unwrap();
        for m in 0u32..4 {
            let (av, bv) = (m & 1 == 1, m >> 1 & 1 == 1);
            assert_eq!(net.eval(&[av, bv]), vec![(av && bv) ^ av], "m={m}");
        }
    }

    #[test]
    fn eliminate_output_driver_keeps_output() {
        let mut net = Network::new("out");
        let a = net.add_input("a");
        let inv = !TruthTable::var(1, 0);
        let n = net.add_node("n", vec![a], inv).unwrap();
        net.mark_output("o", n);
        net.eliminate(n).unwrap();
        assert_eq!(net.eval(&[false]), vec![true]);
    }

    #[test]
    fn eliminate_rejects_primary_input() {
        let mut net = Network::new("pi");
        let a = net.add_input("a");
        assert!(net.eliminate(a).is_err());
    }

    #[test]
    fn stats_report() {
        let net = full_adder();
        let s = net.stats();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.internal_nodes, 2);
        assert_eq!(s.max_fanin, 3);
        assert_eq!(s.depth, 1);
        assert!(s.to_string().contains("2 nodes"));
    }

    #[test]
    fn structural_merge_shares_identical_logic() {
        // Two networks computing a^b and (a^b)|c share the xor node.
        let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        let or2 = TruthTable::var(2, 0) | TruthTable::var(2, 1);
        let mut n1 = Network::new("n1");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let x1 = n1.add_node("x", vec![a, b], xor.clone()).unwrap();
        n1.mark_output("y1", x1);
        let mut n2 = Network::new("n2");
        let a2 = n2.add_input("a");
        let b2 = n2.add_input("b");
        let c2 = n2.add_input("c");
        let x2 = n2.add_node("x", vec![a2, b2], xor).unwrap();
        let o2 = n2.add_node("o", vec![x2, c2], or2).unwrap();
        n2.mark_output("y2", o2);
        let merged = structural_merge("m", &[&n1, &n2]);
        assert_eq!(merged.internal_count(), 2, "xor shared, or unique");
        assert_eq!(merged.inputs().len(), 3);
        let out = merged.eval(&[true, false, false]);
        assert_eq!(out, vec![true, true]);
    }

    #[test]
    fn structural_merge_renames_duplicate_outputs() {
        let mut n1 = Network::new("first");
        let a = n1.add_input("a");
        n1.mark_output("y", a);
        let mut n2 = Network::new("second");
        let a2 = n2.add_input("a");
        let inv = !TruthTable::var(1, 0);
        let o = n2.add_node("inv", vec![a2], inv).unwrap();
        n2.mark_output("y", o);
        let merged = structural_merge("m", &[&n1, &n2]);
        let names: Vec<&str> = merged.outputs().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["y", "second_y"]);
    }

    #[test]
    fn add_node_validates() {
        let mut net = Network::new("bad");
        let a = net.add_input("a");
        assert!(net.add_node("n", vec![a], TruthTable::zero(2)).is_err());
        assert!(net
            .add_node("n", vec![NodeId(99)], TruthTable::zero(1))
            .is_err());
    }
}
