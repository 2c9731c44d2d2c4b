//! Correctness oracle, independent of the mapper.
//!
//! Every result is re-parsed from its BLIF text with
//! `hyde_logic::blif::parse` and simulated exhaustively here, 64
//! minterms per word, straight from each LUT's local truth table. It
//! shares no code with the flow's own verification
//! (`sim::check_against_tables` / `Network::eval_batch64`), so a bug
//! there cannot hide a wrong network. Scalar `Network::eval` would be
//! just as independent, but it re-sorts the network and allocates a hash
//! map per minterm: 19.2 s for the 25-circuit suite on the 2-vCPU
//! development machine, against 0.12 s here.

use hyde_logic::{Network, NodeRole, TruthTable};

/// Widest network the oracle simulates exhaustively.
const MAX_INPUTS: usize = 20;

/// Input `i < 6` as a word over 64 consecutive minterms.
const LOW_VARS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Exhaustive output tables of `net`: output `o` at minterm `m` is bit
/// `m % 64` of `tables[o][m / 64]`; primary input `i` (declaration
/// order) is bit `i` of `m`.
///
/// # Errors
///
/// A cyclic network, or one too wide to enumerate.
pub fn simulate(net: &Network) -> Result<Vec<Vec<u64>>, String> {
    let n = net.inputs().len();
    if n > MAX_INPUTS {
        return Err(format!("{} inputs is too wide to enumerate", n));
    }
    let words = (1usize << n).div_ceil(64);
    let order = net.topo_order().map_err(|e| e.to_string())?;
    let slots = order.iter().map(|id| id.index() + 1).max().unwrap_or(0);
    let mut value: Vec<Vec<u64>> = vec![Vec::new(); slots];
    for (i, pi) in net.inputs().iter().enumerate() {
        value[pi.index()] = (0..words)
            .map(|w| match LOW_VARS.get(i) {
                Some(&pattern) => pattern,
                None if w >> (i - 6) & 1 == 1 => !0,
                None => 0,
            })
            .collect();
    }
    for id in order {
        if net.role(id) == NodeRole::PrimaryInput {
            continue;
        }
        let fanins = net.fanins(id);
        let function = net.function(id);
        let on: Vec<u32> = (0..1u32 << fanins.len())
            .filter(|&p| function.eval(p))
            .collect();
        let words_of: Vec<&[u64]> = fanins.iter().map(|f| value[f.index()].as_slice()).collect();
        value[id.index()] = (0..words)
            .map(|w| {
                on.iter().fold(0u64, |acc, &p| {
                    let cube = words_of.iter().enumerate().fold(!0u64, |t, (j, f)| {
                        t & if p >> j & 1 == 1 { f[w] } else { !f[w] }
                    });
                    acc | cube
                })
            })
            .collect();
    }
    Ok(net
        .outputs()
        .iter()
        .map(|(_, id)| value[id.index()].clone())
        .collect())
}

/// Value of a simulated table at minterm `m`.
pub fn bit(table: &[u64], m: u32) -> bool {
    table[m as usize / 64] >> (m % 64) & 1 == 1
}

/// The first minterm where a simulated output differs from `spec`.
pub fn first_difference(table: &[u64], spec: &TruthTable) -> Option<u32> {
    (0..1u32 << spec.vars()).find(|&m| bit(table, m) != spec.eval(m))
}

/// Re-parses a result BLIF and checks it: `k`-feasible, one primary input
/// per spec variable, one output per spec, and every output equal to its
/// spec on every minterm.
///
/// # Errors
///
/// A description of the first violation.
pub fn check_blif(blif: &str, specs: &[TruthTable], k: usize) -> Result<(), String> {
    let net = hyde_logic::blif::parse(blif).map_err(|e| format!("BLIF does not parse: {e}"))?;
    let vars = specs.first().map_or(0, TruthTable::vars);
    if net.inputs().len() != vars || net.outputs().len() != specs.len() {
        return Err(format!(
            "{} inputs / {} outputs, expected {vars} / {}",
            net.inputs().len(),
            net.outputs().len(),
            specs.len()
        ));
    }
    if !net.is_k_feasible(k) {
        return Err(format!("not {k}-feasible (max fanin {})", net.max_fanin()));
    }
    for (o, (table, spec)) in simulate(&net)?.iter().zip(specs).enumerate() {
        if let Some(m) = first_difference(table, spec) {
            return Err(format!(
                "output {o} ({}) is wrong at minterm {m}",
                net.outputs()[o].0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<TruthTable> {
        vec![
            TruthTable::from_fn(7, |m| m.count_ones() % 2 == 1),
            TruthTable::from_fn(7, |m| (m & 0x7) + (m >> 3 & 0xF) > 9),
        ]
    }

    #[test]
    fn simulation_agrees_with_scalar_eval() {
        let session = hyde_map::Session::new(5, hyde_map::FlowKind::hyde(0xDA98));
        let blif = session
            .run(&hyde_map::Job::new("t", specs()))
            .expect("maps")
            .blif();
        let net = hyde_logic::blif::parse(&blif).expect("parses");
        let tables = simulate(&net).expect("simulates");
        for m in 0..128u32 {
            let bits: Vec<bool> = (0..7).map(|i| m >> i & 1 == 1).collect();
            let scalar = net.eval(&bits);
            for (o, t) in tables.iter().enumerate() {
                assert_eq!(bit(t, m), scalar[o], "output {o} minterm {m}");
            }
        }
        assert_eq!(check_blif(&blif, &specs(), 5), Ok(()));
    }

    #[test]
    fn wrong_networks_are_caught() {
        let session = hyde_map::Session::new(5, hyde_map::FlowKind::hyde(0xDA98));
        let blif = session
            .run(&hyde_map::Job::new("t", specs()))
            .expect("maps")
            .blif();
        let mut wrong = specs();
        let flipped = !wrong[1].eval(77);
        wrong[1].set(77, flipped);
        let err = check_blif(&blif, &wrong, 5).expect_err("one flipped minterm");
        assert!(err.contains("minterm 77"), "{err}");
        assert!(check_blif(&blif, &specs()[..1], 5).is_err());
        assert!(check_blif(&blif, &specs(), 2).is_err());
        assert!(check_blif("garbage", &specs(), 5).is_err());
    }
}
