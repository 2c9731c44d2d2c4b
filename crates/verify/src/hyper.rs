//! Hyper-function checks (`HY2xx`): pseudo-input bookkeeping, duplication
//! cone boundaries and ingredient recovery.
//!
//! Pseudo primary inputs are named `eta<b>` by
//! [`hyde_core::hyper::HyperFunction::decompose`]; the checks treat that
//! naming convention as ground truth when auditing the registration list.

use hyde_core::hyper::{HyperFunction, HyperNetwork};
use hyde_logic::diag::{Code, Diagnostic, Location};
use hyde_logic::{Network, NodeRole};
use std::collections::HashSet;

/// `HY201`: a pseudo primary input survived into an implemented
/// (per-ingredient) network.
///
/// After ingredient recovery every `eta` input must have been collapsed
/// to a constant; any survivor means logic outside the duplication cone
/// still sees the mode selection.
pub(crate) fn pseudo_leak(implemented: &Network, out: &mut Vec<Diagnostic>) {
    for &id in implemented.inputs() {
        if implemented.node_name(id).starts_with("eta") {
            out.push(
                Diagnostic::new(
                    Code::HyperPseudoLeak,
                    format!(
                        "pseudo input '{}' survived ingredient recovery",
                        implemented.node_name(id)
                    ),
                )
                .at(Location::Node(id.index())),
            );
        }
    }
}

/// `HY202`: duplication-cone bookkeeping of a decomposed hyper network.
///
/// Checks that the registered pseudo inputs and the network agree: every
/// registered pseudo input is a live primary input named `eta<b>`, every
/// `eta`-named input is registered, and the registration count matches
/// the hyper-function's pseudo bit width. An unregistered pseudo input
/// breaks the share boundary — the duplication cone is computed from the
/// registration list, so its fanout would wrongly be treated as shared.
pub(crate) fn cone_bookkeeping(hn: &HyperNetwork, out: &mut Vec<Diagnostic>) {
    let registered: HashSet<usize> = hn.pseudo_inputs.iter().map(|id| id.index()).collect();
    for &id in &hn.pseudo_inputs {
        let live = hn.network.inputs().contains(&id);
        if !live
            || hn.network.role(id) != NodeRole::PrimaryInput
            || !hn.network.node_name(id).starts_with("eta")
        {
            out.push(
                Diagnostic::new(
                    Code::HyperConeViolation,
                    format!(
                        "registered pseudo input '{}' is not a live eta primary input",
                        hn.network.node_name(id)
                    ),
                )
                .at(Location::Node(id.index())),
            );
        }
    }
    for &id in hn.network.inputs() {
        if hn.network.node_name(id).starts_with("eta") && !registered.contains(&id.index()) {
            out.push(
                Diagnostic::new(
                    Code::HyperConeViolation,
                    format!(
                        "input '{}' is a pseudo input but is not registered; its fanout \
                         would wrongly be shared across ingredients",
                        hn.network.node_name(id)
                    ),
                )
                .at(Location::Node(id.index())),
            );
        }
    }
    let bits = hn.hyper().pseudo_bits();
    if hn.pseudo_inputs.len() != bits {
        out.push(Diagnostic::new(
            Code::HyperConeViolation,
            format!(
                "{} pseudo inputs registered but the hyper-function has {bits} pseudo bits",
                hn.pseudo_inputs.len()
            ),
        ));
    }
}

/// `HY203`: recovering an ingredient from the hyper-function table must
/// reproduce the ingredient exactly.
pub(crate) fn recovery(h: &HyperFunction, out: &mut Vec<Diagnostic>) {
    for (idx, ingredient) in h.ingredients().iter().enumerate() {
        if &h.recover(idx) != ingredient {
            out.push(
                Diagnostic::new(
                    Code::HyperRecoveryMismatch,
                    format!(
                        "ingredient {idx} does not recover from the hyper-function \
                         under code {:#b}",
                        h.codes().code(idx)
                    ),
                )
                .at(Location::Class(idx)),
            );
        }
    }
}
