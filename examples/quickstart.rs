//! Quickstart: decompose a single function with compatible class encoding.
//!
//! Run with `cargo run --example quickstart`.

use hyde::core::chart::DecompositionChart;
use hyde::core::decompose::Decomposer;
use hyde::core::encoding::EncoderKind;
use hyde::core::varpart::VariablePartitioner;
use hyde::logic::TruthTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 9-input symmetric function (the 9sym benchmark).
    let f = TruthTable::from_fn(9, |m| (3..=6).contains(&m.count_ones()));
    println!(
        "f = 9sym: {} minterms over {} inputs",
        f.count_ones(),
        f.vars()
    );

    // 1. Pick a bound (lambda) set: the variable partitioner searches for
    //    the subset with the fewest compatible classes.
    let vp = VariablePartitioner::default();
    let (bound, classes) = vp.best_bound_set(&f, 5)?;
    println!("best 5-variable bound set {bound:?} -> {classes} compatible classes");

    // 2. Inspect the decomposition chart.
    let chart = DecompositionChart::new(&f, &bound)?;
    println!(
        "chart: {} columns, {} free variables, class sizes {:?}",
        chart.columns().len(),
        chart.free().len(),
        (0..chart.class_count())
            .map(|i| chart.classes().members(i).len())
            .collect::<Vec<_>>()
    );

    // 3. Decompose recursively into a 5-LUT network using the HYDE
    //    compatible class encoder.
    let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 1 });
    let net = dec.decompose_to_network(&f, "sym9")?;
    println!(
        "mapped to {} LUTs, depth {}",
        net.internal_count(),
        net.depth()
    );

    // 4. The network is functionally identical to f.
    for m in [0u32, 7, 63, 255, 511] {
        let bits: Vec<bool> = (0..9).map(|i| m >> i & 1 == 1).collect();
        assert_eq!(net.eval(&bits)[0], f.eval(m));
    }
    println!("verification passed");
    Ok(())
}
