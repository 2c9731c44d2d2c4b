//! Simulation-based equivalence checking.
//!
//! Every mapping flow in this reproduction verifies its output; this module
//! provides the shared machinery: network-vs-network comparison
//! (exhaustive for small input counts, seeded random vectors above that),
//! the batched network-vs-specification sampler [`check_against_tables`]
//! that both the mapping flow and the `HY005` lint run, and a
//! counterexample-reporting API.

use crate::network::{Network, NodeId};
use crate::truthtable::TruthTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// No differing assignment found (exhaustive ⇒ proven, sampled ⇒ high
    /// confidence).
    Equivalent {
        /// Whether every assignment was checked.
        exhaustive: bool,
        /// Number of vectors simulated.
        vectors: u64,
    },
    /// A differing assignment, as input bits in primary-input order.
    Counterexample(Vec<bool>),
}

impl Equivalence {
    /// Whether the check found no mismatch.
    pub fn holds(&self) -> bool {
        matches!(self, Equivalence::Equivalent { .. })
    }
}

/// Compares two networks with identically named primary inputs and the same
/// output count. Inputs are matched by name (order may differ); outputs by
/// position.
///
/// Exhaustive below `2^max_exhaustive_vars` input assignments, otherwise
/// `samples` seeded random vectors.
///
/// # Panics
///
/// Panics if the networks' input *name sets* differ or output counts
/// differ.
pub fn check_networks(
    a: &Network,
    b: &Network,
    max_exhaustive_vars: usize,
    samples: u64,
    seed: u64,
) -> Equivalence {
    let names_a: Vec<&str> = a.inputs().iter().map(|&id| a.node_name(id)).collect();
    let pos_b: Vec<usize> = names_a
        .iter()
        .map(|n| {
            b.inputs()
                .iter()
                .position(|&id| b.node_name(id) == *n)
                .unwrap_or_else(|| panic!("input {n:?} missing from second network"))
        })
        .collect();
    assert_eq!(
        a.inputs().len(),
        b.inputs().len(),
        "input counts must match"
    );
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "output counts must match"
    );
    let n = names_a.len();
    let check_one = |bits_a: &[bool]| -> Option<Vec<bool>> {
        let mut bits_b = vec![false; n];
        for (i, &p) in pos_b.iter().enumerate() {
            bits_b[p] = bits_a[i];
        }
        if a.eval(bits_a) != b.eval(&bits_b) {
            Some(bits_a.to_vec())
        } else {
            None
        }
    };
    if n <= max_exhaustive_vars {
        for m in 0u64..(1u64 << n) {
            let bits: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            if let Some(cex) = check_one(&bits) {
                return Equivalence::Counterexample(cex);
            }
        }
        Equivalence::Equivalent {
            exhaustive: true,
            vectors: 1 << n,
        }
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..samples {
            let bits: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            if let Some(cex) = check_one(&bits) {
                return Equivalence::Counterexample(cex);
            }
        }
        Equivalence::Equivalent {
            exhaustive: false,
            vectors: samples,
        }
    }
}

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

/// Simulates `vectors` random input assignments, returning per-node toggle
/// counts — a cheap activity profile for mapped networks.
///
/// # Panics
///
/// Panics if the network is cyclic.
pub fn activity_profile(
    net: &Network,
    vectors: u64,
    seed: u64,
) -> std::collections::HashMap<NodeId, u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let order = net.topo_order().expect("network must be acyclic");
    let mut last: std::collections::HashMap<NodeId, bool> = std::collections::HashMap::new();
    let mut toggles: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();
    for t in 0..vectors {
        let bits: Vec<bool> = (0..net.inputs().len()).map(|_| rng.gen()).collect();
        let mut values: std::collections::HashMap<NodeId, bool> = std::collections::HashMap::new();
        for (pi, &v) in net.inputs().iter().zip(&bits) {
            values.insert(*pi, v);
        }
        for &id in &order {
            if values.contains_key(&id) {
                continue;
            }
            let in_bits: Vec<bool> = net.fanins(id).iter().map(|f| values[f]).collect();
            values.insert(id, net.function(id).eval_bits(&in_bits));
        }
        // sa:allow(SA001): independent per-id updates into keyed maps;
        // visit order is immaterial.
        for (&id, &v) in &values {
            if t > 0 && last.get(&id) != Some(&v) {
                *toggles.entry(id).or_insert(0) += 1;
            }
            last.insert(id, v);
        }
    }
    toggles
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
    fn equivalent_networks_with_permuted_inputs() {
        let a = xor_net(false);
        let b = xor_net(true);
        let r = check_networks(&a, &b, 16, 100, 1);
        assert!(r.holds());
        assert_eq!(
            r,
            Equivalence::Equivalent {
                exhaustive: true,
                vectors: 4
            }
        );
    }

    #[test]
    fn counterexample_reported() {
        let a = xor_net(false);
        let mut b = Network::new("y");
        let ba = b.add_input("a");
        let bb = b.add_input("b");
        let and = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let n = b.add_node("n", vec![ba, bb], and).unwrap();
        b.mark_output("o", n);
        match check_networks(&a, &b, 16, 100, 1) {
            Equivalence::Counterexample(bits) => {
                // xor != and exactly where exactly one input is set or both.
                assert_eq!(bits.len(), 2);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn sampled_mode_above_threshold() {
        let a = xor_net(false);
        let b = xor_net(false);
        let r = check_networks(&a, &b, 1, 64, 9);
        assert_eq!(
            r,
            Equivalence::Equivalent {
                exhaustive: false,
                vectors: 64
            }
        );
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

    #[test]
    fn activity_profile_counts_toggles() {
        let net = xor_net(false);
        let prof = activity_profile(&net, 200, 3);
        // With random stimulus every node toggles at least once.
        assert!(prof.values().all(|&t| t > 0));
        assert!(prof.len() >= 3);
    }
}
