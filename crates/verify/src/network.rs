//! Network lints (`HY0xx`): structural and behavioural invariants of LUT
//! networks.

use crate::registry::{Artifact, Lint};
use hyde_logic::diag::{Code, Diagnostic, Location};
use hyde_logic::{Network, NodeId, NodeRole};
use std::collections::{HashMap, HashSet};

/// `HY001`: combinational cycle detection with the offending cycle
/// reported node by node.
pub struct CycleLint;

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

impl Lint for CycleLint {
    fn name(&self) -> &'static str {
        "network-cycle"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::NetworkCycle]
    }

    fn check(&self, artifact: &Artifact<'_>, out: &mut Vec<Diagnostic>) {
        let Artifact::Network { net, .. } = artifact else {
            return;
        };
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
}

/// `HY002`: a LUT node with more than `k` fanins.
pub struct FaninLint;

impl Lint for FaninLint {
    fn name(&self) -> &'static str {
        "network-fanin"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::NetworkFaninExceedsK]
    }

    fn check(&self, artifact: &Artifact<'_>, out: &mut Vec<Diagnostic>) {
        let Artifact::Network {
            net, k: Some(k), ..
        } = artifact
        else {
            return;
        };
        for id in net.node_ids() {
            if net.role(id) != NodeRole::Internal {
                continue;
            }
            let fanin = net.fanins(id).len();
            if fanin > *k {
                out.push(
                    Diagnostic::new(
                        Code::NetworkFaninExceedsK,
                        format!("LUT '{}' has {fanin} fanins but k = {k}", net.node_name(id)),
                    )
                    .at(Location::Node(id.index())),
                );
            }
        }
    }
}

/// `HY003` (warn): internal nodes unreachable from every primary output.
pub struct DanglingLint;

impl Lint for DanglingLint {
    fn name(&self) -> &'static str {
        "network-dangling"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::NetworkDangling]
    }

    fn check(&self, artifact: &Artifact<'_>, out: &mut Vec<Diagnostic>) {
        let Artifact::Network { net, .. } = artifact else {
            return;
        };
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
}

/// `HY004` (warn): a declared fanin the node's truth table does not
/// actually depend on.
pub struct SupportLint;

impl Lint for SupportLint {
    fn name(&self) -> &'static str {
        "network-support"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::NetworkVacuousSupport]
    }

    fn check(&self, artifact: &Artifact<'_>, out: &mut Vec<Diagnostic>) {
        let Artifact::Network { net, .. } = artifact else {
            return;
        };
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
}

/// `HY005`: the simulated network differs from its specification tables.
///
/// `spec[o]` is output `o` as a function of the primary inputs in
/// declaration order. The check runs
/// [`hyde_logic::sim::check_against_tables`]: exhaustive up to 12 inputs,
/// a strided sample of [`hyde_logic::sim::SPEC_SAMPLES`] minterms beyond
/// that.
pub struct SpecLint;

impl Lint for SpecLint {
    fn name(&self) -> &'static str {
        "network-spec"
    }

    fn codes(&self) -> &'static [Code] {
        &[Code::NetworkSpecMismatch]
    }

    fn check(&self, artifact: &Artifact<'_>, out: &mut Vec<Diagnostic>) {
        let Artifact::Network {
            net,
            spec: Some(spec),
            ..
        } = artifact
        else {
            return;
        };
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
        if let Some((m, o)) = hyde_logic::sim::check_against_tables(net, spec, &positions) {
            out.push(
                Diagnostic::new(
                    Code::NetworkSpecMismatch,
                    format!("output {o} differs from its specification at minterm {m}"),
                )
                .at(Location::Output(o)),
            );
        }
    }
}
