//! Decompose a 20-input function symbolically — wider than truth tables
//! comfortably go — using the OBDD-native path.
//!
//! Run with `cargo run --release --example wide_function`.

use hyde::bdd::Bdd;
use hyde::core::decompose::decompose_bdd_to_network;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 20-input comparator-flavoured function: (a > b) XOR parity(low a).
    let mut bdd = Bdd::new(20);
    let f = {
        // Build symbolically: compare two 10-bit halves.
        let mut gt = bdd.zero();
        let mut eq = bdd.one();
        for i in (0..10).rev() {
            let ai = bdd.var(i);
            let bi = bdd.var(10 + i);
            let nbi = bdd.not(bi);
            let ai_gt = bdd.and(ai, nbi);
            let this = bdd.and(eq, ai_gt);
            gt = bdd.or(gt, this);
            let x = bdd.xor(ai, bi);
            let same = bdd.not(x);
            eq = bdd.and(eq, same);
        }
        let mut par = bdd.zero();
        for i in 0..4 {
            let v = bdd.var(i);
            par = bdd.xor(par, v);
        }
        bdd.xor(gt, par)
    };
    println!("f over 20 inputs: {} BDD nodes", bdd.node_count(f));

    // Symbolic decomposition to 5-LUTs — no 2^20-bit truth table involved.
    let net = decompose_bdd_to_network(&mut bdd, f, 5, "wide")?;
    println!(
        "mapped to {} LUTs, depth {} ({} primary inputs used)",
        net.internal_count(),
        net.depth(),
        net.inputs().len()
    );

    // Spot-check against the BDD on random vectors.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let positions: Vec<usize> = net
        .inputs()
        .iter()
        .map(|&id| {
            net.node_name(id)
                .strip_prefix('x')
                .and_then(|s| s.parse().ok())
                .expect("inputs named x<i>")
        })
        .collect();
    for _ in 0..2000 {
        let m: u32 = rng.gen_range(0..1 << 20);
        let bits: Vec<bool> = positions.iter().map(|&p| m >> p & 1 == 1).collect();
        assert_eq!(net.eval(&bits)[0], bdd.eval(f, m));
    }
    println!("2000 random vectors verified");
    Ok(())
}
