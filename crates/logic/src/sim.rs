//! Simulation-based checking of a network against its specification.
//!
//! Every mapping flow in this reproduction verifies its output; this module
//! provides the shared machinery: the batched network-vs-specification
//! sampler [`check_against_tables`], reporting the first mismatching
//! minterm and output, and the two diagnostics both the mapping flow and
//! `hyde-verify` emit from it: [`fanin_diagnostics`] (`HY002`) and
//! [`spec_diagnostic`] (`HY005`).

use crate::diag::{Code, Diagnostic, Location};
use crate::network::{Network, NodeRole};
use crate::truthtable::TruthTable;

/// How many minterms [`check_against_tables`] simulates: every minterm of
/// an input space of up to 12 variables, a strided sample beyond.
pub const SPEC_SAMPLES: u64 = 1 << 12;

/// Simulates `net` against specification tables and returns the first
/// mismatch as `(minterm, output)`: earliest minterm first, then lowest
/// output. Exhaustive while `2^n <= SPEC_SAMPLES`; wider input spaces
/// simulate every `2^n / SPEC_SAMPLES`-th minterm.
///
/// Primary input `i` (declaration order) carries specification variable
/// `positions[i]`; outputs are matched by position. Minterms are
/// simulated 64 per topological pass.
///
/// # Panics
///
/// Panics if `positions` does not have one entry per primary input, the
/// network has fewer outputs than `spec`, or the network is cyclic.
pub fn check_against_tables(
    net: &Network,
    spec: &[TruthTable],
    positions: &[usize],
) -> Option<(u64, usize)> {
    let n = spec.first().map_or(0, TruthTable::vars);
    let total = 1u64 << n;
    let stride = (total / SPEC_SAMPLES).max(1);
    let mut samples: Vec<u64> = Vec::with_capacity(64);
    let mut next = 0u64;
    while next < total {
        samples.clear();
        while samples.len() < 64 && next < total {
            samples.push(next);
            next += stride;
        }
        // Bit j of every word carries sample j.
        let pack = |bit: &dyn Fn(u64) -> bool| {
            samples
                .iter()
                .enumerate()
                .fold(0u64, |w, (j, &m)| w | u64::from(bit(m)) << j)
        };
        let words: Vec<u64> = positions
            .iter()
            .map(|&p| pack(&|m| m >> p & 1 == 1))
            .collect();
        let got = net.eval_batch64(&words);
        let lanes = u64::MAX >> (64 - samples.len());
        let bad = spec
            .iter()
            .enumerate()
            .filter_map(|(o, f)| {
                let diff = (got[o] ^ pack(&|m| f.eval(m as u32))) & lanes;
                (diff != 0).then(|| (diff.trailing_zeros() as usize, o))
            })
            .min();
        if let Some((j, o)) = bad {
            return Some((samples[j], o));
        }
    }
    None
}

/// `HY002`: appends one diagnostic for every LUT of `net` with more than
/// `k` fanins.
pub fn fanin_diagnostics(net: &Network, k: usize, out: &mut Vec<Diagnostic>) {
    for id in net.node_ids() {
        let fanin = net.fanins(id).len();
        if net.role(id) == NodeRole::Internal && fanin > k {
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

/// `HY005`: the first mismatch [`check_against_tables`] finds, as a
/// diagnostic located at the differing output.
///
/// # Panics
///
/// As [`check_against_tables`].
pub fn spec_diagnostic(
    net: &Network,
    spec: &[TruthTable],
    positions: &[usize],
) -> Option<Diagnostic> {
    let (m, o) = check_against_tables(net, spec, positions)?;
    Some(
        Diagnostic::new(
            Code::NetworkSpecMismatch,
            format!("output {o} differs from its specification at minterm {m}"),
        )
        .at(Location::Output(o)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_net(order_swapped: bool) -> Network {
        let mut net = Network::new("x");
        let (a, b) = if order_swapped {
            let b = net.add_input("b");
            let a = net.add_input("a");
            (a, b)
        } else {
            let a = net.add_input("a");
            let b = net.add_input("b");
            (a, b)
        };
        let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        let n = net.add_node("n", vec![a, b], xor).unwrap();
        net.mark_output("o", n);
        net
    }

    #[test]
    fn check_against_tables_maps_inputs_through_positions() {
        // Inputs declared (b, a) carry specification variables (1, 0).
        let net = xor_net(true);
        let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        assert_eq!(
            check_against_tables(&net, std::slice::from_ref(&xor), &[1, 0]),
            None
        );
        let and = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        // xor and and first differ at minterm 1 (a = 1, b = 0).
        assert_eq!(check_against_tables(&net, &[and], &[1, 0]), Some((1, 0)));
    }
}
