//! Unit-delay timing analysis of mapped LUT networks.
//!
//! LUT-based FPGA timing at the mapping stage is conventionally modeled as
//! one delay unit per LUT level (wire delays are unknown before placement).
//! This module computes arrival times, required times and slacks, and
//! enumerates the critical path — the depth-oriented companion to the
//! area-oriented reports of the tables.

use hyde_logic::{Network, NodeId, NodeRole};
use std::collections::HashMap;

/// Timing report of a mapped network under the unit-delay model.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Arrival time (level) per node.
    pub arrival: HashMap<NodeId, usize>,
    /// Required time per node (against the network's own depth).
    pub required: HashMap<NodeId, usize>,
    /// Critical path from a primary input to the latest output, inputs
    /// first.
    pub critical_path: Vec<NodeId>,
    /// Network depth in LUT levels.
    pub depth: usize,
}

impl TimingReport {
    /// Slack of a node (`required - arrival`); zero on the critical path.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not part of the analyzed network.
    pub fn slack(&self, id: NodeId) -> usize {
        self.required[&id] - self.arrival[&id]
    }

    /// Nodes with zero slack, sorted.
    pub fn critical_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            // sa:allow(SA001): collected then sorted, so order cannot leak.
            .arrival
            .keys()
            .filter(|&&id| self.slack(id) == 0)
            .copied()
            .collect();
        v.sort_unstable();
        v
    }
}

/// Analyzes a network under the unit-delay model.
///
/// # Panics
///
/// Panics if the network is cyclic or has no outputs.
pub fn analyze(net: &Network) -> TimingReport {
    let order = net.topo_order().expect("network must be acyclic");
    assert!(!net.outputs().is_empty(), "network needs outputs");
    // Arrival: PIs at 0, internal nodes at max(fanin)+1.
    let mut arrival: HashMap<NodeId, usize> = HashMap::new();
    for &id in &order {
        let a = match net.role(id) {
            NodeRole::PrimaryInput => 0,
            NodeRole::Internal => net
                .fanins(id)
                .iter()
                .map(|f| arrival[f] + 1)
                .max()
                .unwrap_or(0),
        };
        arrival.insert(id, a);
    }
    let depth = net
        .outputs()
        .iter()
        .map(|(_, id)| arrival[id])
        .max()
        .unwrap_or(0);
    // Required: outputs at depth, propagate backwards.
    let mut required: HashMap<NodeId, usize> = HashMap::new();
    for &id in order.iter().rev() {
        let mut r = if net.outputs().iter().any(|(_, o)| *o == id) {
            depth
        } else {
            usize::MAX
        };
        // Consumers constrain: required(fanin) <= required(consumer) - 1.
        for &c in &order {
            if net.role(c) == NodeRole::Internal && net.fanins(c).contains(&id) {
                if let Some(&rc) = required.get(&c) {
                    r = r.min(rc.saturating_sub(1));
                }
            }
        }
        if r == usize::MAX {
            r = depth; // dangling (will be swept); give full slack
        }
        required.insert(id, r);
    }
    // Critical path: walk back from the latest output through latest
    // fanins.
    let (_, mut cur) = net
        .outputs()
        .iter()
        .max_by_key(|(_, id)| arrival[id])
        .expect("at least one output")
        .clone();
    let mut path = vec![cur];
    while net.role(cur) == NodeRole::Internal {
        let next = net
            .fanins(cur)
            .iter()
            .copied()
            .max_by_key(|f| arrival[f])
            .expect("internal node has fanins");
        path.push(next);
        cur = next;
    }
    path.reverse();
    TimingReport {
        arrival,
        required,
        critical_path: path,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyde_logic::TruthTable;

    fn chain(n: usize) -> Network {
        let mut net = Network::new("chain");
        let a = net.add_input("a");
        let inv = !TruthTable::var(1, 0);
        let mut cur = a;
        for i in 0..n {
            cur = net
                .add_node(&format!("n{i}"), vec![cur], inv.clone())
                .unwrap();
        }
        net.mark_output("o", cur);
        net
    }

    #[test]
    fn chain_depth_and_path() {
        let net = chain(4);
        let t = analyze(&net);
        assert_eq!(t.depth, 4);
        assert_eq!(t.critical_path.len(), 5); // PI + 4 nodes
                                              // Everything on a pure chain is critical.
        for id in net.node_ids() {
            assert_eq!(t.slack(id), 0);
        }
    }

    #[test]
    fn side_branch_has_slack() {
        // Long chain plus a short side path into the final node.
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let inv = !TruthTable::var(1, 0);
        let c1 = net.add_node("c1", vec![a], inv.clone()).unwrap();
        let c2 = net.add_node("c2", vec![c1], inv.clone()).unwrap();
        let short = net.add_node("short", vec![b], inv).unwrap();
        let and2 = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let out = net.add_node("out", vec![c2, short], and2).unwrap();
        net.mark_output("o", out);
        let t = analyze(&net);
        assert_eq!(t.depth, 3);
        assert_eq!(t.slack(short), 1);
        assert_eq!(t.slack(c1), 0);
        assert_eq!(t.slack(out), 0);
        assert!(t.critical_nodes().contains(&c2));
        assert!(!t.critical_nodes().contains(&short));
    }

    #[test]
    fn analyze_mapped_circuit() {
        use crate::{FlowKind, Job, Session};
        let c = hyde_circuits::rd73();
        let report = Session::new(5, FlowKind::hyde(3))
            .run(&Job::new(&c.name, c.outputs.clone()))
            .unwrap()
            .report;
        let t = analyze(&report.network);
        assert_eq!(t.depth, report.depth);
        assert!(!t.critical_path.is_empty());
        // Arrival of the path's last node equals the depth of that output.
        let last = *t.critical_path.last().unwrap();
        assert_eq!(t.arrival[&last], t.depth);
    }
}
