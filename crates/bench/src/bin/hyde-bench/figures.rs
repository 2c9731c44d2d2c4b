//! `hyde-bench figures`: the worked examples behind the paper's figures.
//!
//! The HYDE paper's figures are illustrative (charts, graphs, example
//! networks) rather than measured plots; this module re-runs each worked
//! example on the reproduction and prints the artifacts the figures show.

use hyde_core::chart::DecompositionChart;
use hyde_core::encoding::{
    build_image_on, ceil_log2, combine_column_sets, combine_row_sets, CodeAssignment, EncoderKind,
};
use hyde_core::hyper::HyperFunction;
use hyde_core::partition::{example_3_2_partitions, shared_psc_sets};
use hyde_core::Decomposer;
use hyde_logic::TruthTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The figure names `hyde-bench figures` accepts.
pub const NAMES: &[&str] = &[
    "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
];

/// Prints the worked examples of the named figures (all when `names` is
/// empty), each example once.
pub fn run(names: &[String]) {
    let want = |f: &str| names.is_empty() || names.iter().any(|a| a == f);
    if want("fig1") || want("fig2") {
        figures_1_and_2();
    }
    if want("fig4") || want("fig5") {
        figures_4_and_5();
    }
    if want("fig6") || want("fig7") {
        figures_6_and_7();
    }
    if want("fig8") || want("fig9") {
        figures_8_and_9();
    }
    if want("fig10") {
        figure_10();
    }
}

/// Builds a 6-variable function with exactly three compatible classes under
/// bound {a,b,c}, mirroring the function of Figure 1: three distinct column
/// patterns are distributed over the eight bound-set columns.
fn example_3_1_function() -> TruthTable {
    let mut rng = StdRng::seed_from_u64(0x316);
    loop {
        // Three random, distinct column patterns over the free vars (x,y,z).
        let pats: Vec<TruthTable> = (0..3).map(|_| TruthTable::random(3, &mut rng)).collect();
        if pats[0] == pats[1] || pats[1] == pats[2] || pats[0] == pats[2] {
            continue;
        }
        let class_of = [0usize, 1, 2, 0, 1, 2, 0, 1];
        return TruthTable::from_fn(6, |m| pats[class_of[(m & 0b111) as usize]].eval(m >> 3));
    }
}

fn figures_1_and_2() {
    println!("== Figures 1-2 / Example 3.1: encoding changes the class count of g ==");
    let f = example_3_1_function();
    let chart = DecompositionChart::new(&f, &[0, 1, 2]).expect("valid bound set");
    let classes = chart.classes().clone();
    println!(
        "f(a,b,c,x,y,z) with lambda = {{a,b,c}}: {} compatible classes",
        classes.len()
    );
    // Enumerate every strict 2-bit encoding of the 3 classes and measure
    // the class count of g under lambda' = {alpha0, x, y} (g vars: a0 a1 x y z).
    let mut best = usize::MAX;
    let mut worst = 0usize;
    let codes_pool: Vec<[u32; 3]> = (0u32..64)
        .map(|i| [i >> 4, (i >> 2) & 3, i & 3])
        .filter(|&[a, b, c]| a != b && b != c && a != c)
        .collect();
    for codes in &codes_pool {
        let ca = CodeAssignment::new(codes.to_vec(), 2).expect("codes fit");
        let g = build_image_on(&classes, &ca);
        let cc = hyde_core::chart::class_count(&g, &[0, 2, 3]).expect("valid bound");
        best = best.min(cc);
        worst = worst.max(cc);
    }
    println!(
        "over all {} strict encodings, classes of g under {{a0,x,y}}: best {best}, worst {worst}",
        codes_pool.len()
    );
    println!("(the paper's Figure 2 shows exactly this: case 1 vs case 2 differ)\n");
}

fn figures_4_and_5() {
    println!("== Figures 4-5 / Example 3.2 Step 5: Psc analysis and column b-matching ==");
    let parts = example_3_2_partitions();
    for (i, p) in parts.iter().enumerate() {
        println!("  Pi_{i} = {p}");
    }
    println!("-- shared Psc sets (Figure 4b) --");
    for s in shared_psc_sets(&parts) {
        let pos: Vec<String> = s.positions.iter().map(|p| format!("p{p}")).collect();
        let who = partition_names(&s.partitions);
        println!("  {} shared by {{{who}}}", pos.join(""));
    }
    println!("-- column sets from max-weight b-matching (Figure 5, #R=4) --");
    for set in combine_column_sets(&parts, 4) {
        println!("  {{{}}}", partition_names(&set));
    }
    println!();
}

/// `Pi_a,Pi_b,...` for a set of partition indices.
fn partition_names(set: &[usize]) -> String {
    let names: Vec<String> = set.iter().map(|p| format!("Pi_{p}")).collect();
    names.join(",")
}

fn figures_6_and_7() {
    println!("== Figures 6-7 / Example 3.2 Step 7: row merging and the final chart ==");
    let parts = example_3_2_partitions();
    let col_sets = combine_column_sets(&parts, 4);
    let row_sets = combine_row_sets(&parts, &col_sets, 4, 4);
    println!("-- row sets after benefit matching (<= #R = 4) --");
    for set in &row_sets {
        println!("  {{{}}}", partition_names(set));
    }
    println!("(paper reaches {{Pi1,Pi3,Pi0,Pi9}}, {{Pi2,Pi4}}, {{Pi5,Pi6}}, {{Pi7,Pi8}})");
    println!();
}

fn figures_8_and_9() {
    println!("== Figures 8-9 / Example 4.1: hyper-function duplication cone ==");
    // Four ingredients over 9 real inputs with the paper's support shapes.
    let mut rng = StdRng::seed_from_u64(0x41);
    let mut mask = |vars: &[usize]| {
        // Restrict support: quantify away the excluded variables.
        let f = TruthTable::random(9, &mut rng);
        (0..9)
            .filter(|v| !vars.contains(v))
            .fold(f, |g, v| g.cofactor(v, false))
    };
    let f0 = mask(&[0, 1, 2, 3, 4, 5, 7, 8]);
    let f1 = mask(&[0, 1, 2, 3, 4, 5, 6]);
    let f2 = mask(&[0, 1, 2, 3, 4, 5]);
    let f3 = match mask(&[0, 1, 2, 3, 4, 5]) {
        g if g == f2 => !&g, // distinct from f2
        g => g,
    };
    let h = HyperFunction::new(vec![f0, f1, f2, f3], &EncoderKind::Hyde { seed: 0x41 }, 5)
        .expect("valid ingredients");
    println!(
        "hyper-function F: B^{} -> B with {} pseudo primary inputs",
        h.num_inputs() + h.pseudo_bits(),
        h.pseudo_bits()
    );
    let dec = Decomposer::new(5, EncoderKind::Hyde { seed: 0x41 });
    let hn = h.decompose(&dec).expect("decomposition succeeds");
    println!("decomposed network: {} LUTs", hn.network.internal_count());
    println!(
        "duplication source DS: {} nodes",
        hn.duplication_source().len()
    );
    println!("duplication cone DC: {} nodes", hn.duplication_cone().len());
    for m in 1..=h.pseudo_bits() {
        println!("  DSet_{m}: {} nodes", hn.dset(m).len());
    }
    println!(
        "paper's duplication bound: {} LUTs; after constant collapse + sharing: {} LUTs",
        hn.predicted_lut_bound(),
        hn.implemented_lut_count().expect("implementation succeeds")
    );
    hn.verify_ingredients().expect("all ingredients recovered");
    println!(
        "all {} ingredients verified after recovery\n",
        h.ingredients().len()
    );
}

fn figure_10() {
    println!("== Figure 10 / Example 4.2: pliable vs rigid encoding ==");
    // Construct f0 contained by f1's partition (as in the paper: Pi0
    // contained by Pic12), then compare LUT counts when f0 reuses the
    // shared alphas (pliable) vs encoding its own classes rigidly.
    let mut rng = StdRng::seed_from_u64(0x42);
    let bound = [0usize, 1, 2, 3];
    loop {
        let f1 = TruthTable::random(6, &mut rng);
        let p1 = hyde_core::containment::function_partition(&f1, &bound).expect("valid");
        if p1.multiplicity() < 5 || ceil_log2(p1.multiplicity()) >= 4 {
            continue;
        }
        // f0's columns group by p1's symbol mod 4, so its partition is a
        // coarsening of p1 (contained by it) with up to 4 classes.
        let f0 = TruthTable::from_fn(6, |m| {
            let c = (m & 0b1111) as usize;
            (m >> 4) == (p1.symbol(c) % 4)
        });
        let p0 = hyde_core::containment::function_partition(&f0, &bound).expect("valid");
        if p0.multiplicity() < 3 || !p0.is_contained_by(&p1) {
            continue;
        }
        let shared = hyde_core::containment::share_alphas(&f0, &f1, &bound)
            .expect("valid")
            .expect("containment holds");
        assert!(hyde_core::containment::verify_shared(&f0, &bound, &shared));
        let own_bits = ceil_log2(p0.multiplicity());
        println!(
            "Pi0 multiplicity {} (needs {own_bits} bits alone); shared alphas: {} (pliable)",
            p0.multiplicity(),
            shared.alphas.len()
        );
        println!(
            "rigid encoding would add {} extra alpha LUT(s) for f0's own decomposition \
             functions; pliable sharing adds 0 (Figure 10's two-LUT saving)",
            own_bits
        );
        break;
    }
    println!();
}
