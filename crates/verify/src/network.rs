//! Network checks (`HY0xx`): structural and behavioural invariants of LUT
//! networks. The `HY002` fanin check and the `HY005` mismatch report are
//! [`hyde_logic::sim::fanin_diagnostics`] and
//! [`hyde_logic::sim::spec_diagnostic`], which the mapping flow runs too.

use hyde_logic::diag::{Code, Diagnostic, Location};
use hyde_logic::{Network, NodeId, NodeRole, TruthTable};
use std::collections::{HashMap, HashSet};

/// Finds one cycle through live nodes, in traversal order, or `None` if
/// the network is acyclic.
fn find_cycle(net: &Network) -> Option<Vec<NodeId>> {
    // DFS with an explicit stack; a grey (on-stack) fanin closes a cycle.
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let ids = net.node_ids();
    let mut color: HashMap<usize, u8> = ids.iter().map(|id| (id.index(), WHITE)).collect();
    for &root in &ids {
        if color[&root.index()] != WHITE {
            continue;
        }
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        color.insert(root.index(), GREY);
        while let Some(frame) = stack.last_mut() {
            let (v, i) = (frame.0, frame.1);
            let fanins = net.fanins(v);
            if i < fanins.len() {
                frame.1 += 1;
                let w = fanins[i];
                match color.get(&w.index()).copied().unwrap_or(BLACK) {
                    WHITE => {
                        color.insert(w.index(), GREY);
                        stack.push((w, 0));
                    }
                    GREY => {
                        let pos = stack
                            .iter()
                            .position(|f| f.0 == w)
                            .expect("grey node is on the stack");
                        return Some(stack[pos..].iter().map(|f| f.0).collect());
                    }
                    _ => {}
                }
            } else {
                color.insert(v.index(), BLACK);
                stack.pop();
            }
        }
    }
    None
}

/// `HY001`: combinational cycle detection with the offending cycle
/// reported node by node.
pub(crate) fn cycle(net: &Network, out: &mut Vec<Diagnostic>) {
    if let Some(cycle) = find_cycle(net) {
        let names: Vec<&str> = cycle.iter().map(|&id| net.node_name(id)).collect();
        out.push(
            Diagnostic::new(
                Code::NetworkCycle,
                format!("combinational cycle through {}", names.join(" -> ")),
            )
            .at(Location::Cycle(cycle.iter().map(|id| id.index()).collect())),
        );
    }
}

/// `HY003` (warn): internal nodes unreachable from every primary output.
pub(crate) fn dangling(net: &Network, out: &mut Vec<Diagnostic>) {
    // Reverse reachability from the outputs over fanin edges.
    let mut reachable: HashSet<usize> = HashSet::new();
    let mut work: Vec<NodeId> = net.outputs().iter().map(|&(_, id)| id).collect();
    while let Some(id) = work.pop() {
        if reachable.insert(id.index()) {
            work.extend(net.fanins(id).iter().copied());
        }
    }
    for id in net.node_ids() {
        if net.role(id) == NodeRole::Internal && !reachable.contains(&id.index()) {
            out.push(
                Diagnostic::new(
                    Code::NetworkDangling,
                    format!(
                        "node '{}' is unreachable from every primary output",
                        net.node_name(id)
                    ),
                )
                .at(Location::Node(id.index())),
            );
        }
    }
}

/// `HY004` (warn): a declared fanin the node's truth table does not
/// actually depend on.
pub(crate) fn support(net: &Network, out: &mut Vec<Diagnostic>) {
    for id in net.node_ids() {
        if net.role(id) != NodeRole::Internal {
            continue;
        }
        let f = net.function(id);
        for (pos, &fanin) in net.fanins(id).iter().enumerate() {
            if !f.depends_on(pos) {
                out.push(
                    Diagnostic::new(
                        Code::NetworkVacuousSupport,
                        format!(
                            "node '{}' declares fanin '{}' but its table does not depend on it",
                            net.node_name(id),
                            net.node_name(fanin)
                        ),
                    )
                    .at(Location::Node(id.index())),
                );
            }
        }
    }
}

/// `HY005`: the simulated network differs from its specification tables.
///
/// `spec[o]` is output `o` as a function of the primary inputs in
/// declaration order. The check runs
/// [`hyde_logic::sim::check_against_tables`]: exhaustive up to 12 inputs,
/// a strided sample of [`hyde_logic::sim::SPEC_SAMPLES`] minterms beyond
/// that.
pub(crate) fn spec(net: &Network, spec: &[TruthTable], out: &mut Vec<Diagnostic>) {
    if net.outputs().len() != spec.len() {
        out.push(Diagnostic::new(
            Code::NetworkSpecMismatch,
            format!(
                "network has {} outputs but the specification has {}",
                net.outputs().len(),
                spec.len()
            ),
        ));
        return;
    }
    if spec.is_empty() {
        return;
    }
    if net.topo_order().is_err() {
        // A cyclic network cannot be simulated; HY001 reports it.
        return;
    }
    let n = spec[0].vars();
    if net.inputs().len() != n {
        out.push(Diagnostic::new(
            Code::NetworkSpecMismatch,
            format!(
                "network has {} inputs but the specification has {n} variables",
                net.inputs().len()
            ),
        ));
        return;
    }
    let positions: Vec<usize> = (0..n).collect();
    out.extend(hyde_logic::sim::spec_diagnostic(net, spec, &positions));
}
