//! Compare compatible class encoders on one decomposition: how the code
//! assignment changes the image function's *next* decomposition.
//!
//! Run with `cargo run --release --example encoding_explorer`.

use hyde::core::chart::DecompositionChart;
use hyde::core::encoding::{build_image, EncoderKind};
use hyde::core::varpart::VariablePartitioner;
use hyde::logic::{SopCover, TruthTable};
use hyde_guard::Budget;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(0xE0C0DE);
    let f = TruthTable::random(9, &mut rng);
    let bound = VariablePartitioner::default().best_bound_set(&f, 4)?.0;
    let chart = DecompositionChart::new(&f, &bound)?;
    let classes = chart.classes().clone();
    println!(
        "f: 9 random inputs, bound {bound:?}, {} compatible classes ({} code bits)",
        classes.len(),
        hyde::core::encoding::ceil_log2(classes.len())
    );
    println!(
        "{:<22}{:>16}{:>12}{:>12}",
        "encoder", "g classes@best", "g cubes", "strict"
    );
    let encoders: Vec<(&str, EncoderKind)> = vec![
        ("lexicographic", EncoderKind::Lexicographic),
        ("random", EncoderKind::Random { seed: 42 }),
        (
            "cube-min (Murgai)",
            EncoderKind::CubeMin {
                seed: 42,
                iters: 60,
            },
        ),
        ("hyde (class-count)", EncoderKind::Hyde { seed: 42 }),
    ];
    let vp = VariablePartitioner::default();
    for (name, enc) in encoders {
        let codes = enc.encode(&classes, 5, &Budget::unlimited(), None)?;
        let (g, dc) = build_image(&classes, &codes);
        let (_, next_classes) = vp.best_bound_set(&g, 5.min(g.vars() - 1))?;
        let cubes = SopCover::isop_between(&g, &(&g | &dc)).cube_count();
        println!(
            "{name:<22}{next_classes:>16}{cubes:>12}{:>12}",
            codes.is_strict()
        );
    }
    println!("\nlower 'g classes' means the next decomposition needs fewer alpha LUTs —");
    println!("the paper's argument for the class-count objective over cube counts.");
    Ok(())
}
