//! Manual timing of the algorithmic kernels (experiment P1): BDD build
//! and cut-class counting, blossom and b-matching, clique partition, the
//! encoding steps of Example 3.2, class counting, the λ-search, ISOP and
//! the four table builders of a decomposition step (chart columns, image,
//! support projection, recomposition check) and NPN canonization, the
//! key of the λ-search memo (exact at 6 variables on random, totally
//! symmetric and multiplexer tables; greedy at 8, 12 and 16 variables on
//! random and tied tables).
//! Each kernel runs once to warm up, then a fixed number of iterations,
//! and the median iteration time is printed (per table for the NPN sets).
//! Run with:
//! `cargo test --release -p hyde-bench --test kernels -- --ignored --nocapture`

use hyde_core::chart::{class_count, DecompositionChart};
use hyde_core::decompose::decompose_step;
use hyde_core::encoding::{
    build_image, ceil_log2, combine_column_sets, combine_row_sets, CodeAssignment, EncoderKind,
};
use hyde_core::npn::{self, NpnTransform};
use hyde_core::partition::example_3_2_partitions;
use hyde_core::varpart::VariablePartitioner;
use hyde_logic::network::project_to_support;
use hyde_logic::{SopCover, TruthTable};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Runs `f` once to warm up, then `iters` times; the median time.
fn median_time<F: FnMut() -> R, R>(iters: u32, mut f: F) -> Duration {
    std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn bench<F: FnMut() -> R, R>(name: &str, iters: u32, f: F) {
    let median = median_time(iters, f);
    println!("{name:<36} {median:>12.2?}/iter median  ({iters} iters)");
}

/// Like [`bench`] over a set of `items` inputs, printing the median
/// iteration time divided by the set size.
fn bench_each<F: FnMut() -> R, R>(name: &str, iters: u32, items: usize, f: F) {
    let median = median_time(iters, f) / items as u32;
    println!("{name:<36} {median:>12.2?}/table median  ({iters} iters of {items})");
}

fn bench_bdd_ops() {
    for vars in [10usize, 14] {
        bench(&format!("bdd/build_parity/{vars}"), 20, || {
            let mut bdd = hyde_bdd::Bdd::new(vars);
            let f = bdd.from_fn(|m| m.count_ones() % 2 == 1);
            bdd.node_count(f)
        });
    }
    let mut bdd = hyde_bdd::Bdd::new(16);
    let f = bdd.from_fn(|m| m.count_ones() % 2 == 1);
    bench("bdd/cut_classes_parity16", 20, || {
        bdd.compatible_class_count(f, &[0, 3, 5, 7, 9])
    });
}

fn bench_matching() {
    let mut rng = StdRng::seed_from_u64(1);
    for n in [50usize, 150] {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.08) {
                    edges.push((u, v));
                }
            }
        }
        bench(&format!("matching/blossom/{n}"), 10, || {
            hyde_graph::maximum_matching(n, &edges)
        });
    }
    let left_cap = vec![1i64; 40];
    let right_cap = vec![4i64; 10];
    let mut rng = StdRng::seed_from_u64(2);
    let mut edges = Vec::new();
    for l in 0..40 {
        for r in 0..10 {
            if rng.gen_bool(0.3) {
                edges.push((l, r, rng.gen_range(1..12i64)));
            }
        }
    }
    bench("matching/b_matching_column_graph", 20, || {
        hyde_graph::max_weight_b_matching(&left_cap, &right_cap, &edges)
    });
}

fn bench_clique_partition() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 32;
    let mut adj = vec![vec![false; n]; n];
    for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
        let e = rng.gen_bool(0.5);
        adj[u][v] = e;
        adj[v][u] = e;
    }
    bench("clique_partition_32", 50, || {
        hyde_graph::partition_into_cliques(n, |u, v| adj[u][v])
    });
}

fn bench_encoding_steps() {
    let parts = example_3_2_partitions();
    bench("encoding/column_sets_example_3_2", 100, || {
        combine_column_sets(&parts, 4)
    });
    let col_sets = combine_column_sets(&parts, 4);
    bench("encoding/row_sets_example_3_2", 100, || {
        combine_row_sets(&parts, &col_sets, 4, 4)
    });
}

fn bench_chart_and_varpart() {
    let mut rng = StdRng::seed_from_u64(4);
    let f10 = TruthTable::random(10, &mut rng);
    bench("decomp/class_count_10v_bound5", 50, || {
        class_count(&f10, &[0, 2, 4, 6, 8]).expect("valid")
    });
    let vp = VariablePartitioner::default();
    bench("decomp/varpart_10v_k5", 5, || {
        vp.best_bound_set(&f10, 5).expect("valid")
    });
    // The suite's widest searches run at 16-18 variables, where the
    // sampled candidate stream and whole-word columns dominate.
    let f16 = TruthTable::random(16, &mut StdRng::seed_from_u64(16));
    bench("decomp/varpart_16v_k5", 5, || {
        vp.best_bound_set(&f16, 5).expect("valid")
    });
    let f8 = TruthTable::random(8, &mut rng);
    bench("decomp/isop_8v", 50, || SopCover::isop(&f8).cube_count());
}

/// The table builders of one Roth–Karp step on a 14-variable function
/// with a non-ascending 5-variable bound set (9 free variables, so
/// whole-word chart columns and a 14-variable image).
fn bench_step_tables() {
    let mut rng = StdRng::seed_from_u64(5);
    let f = TruthTable::random(14, &mut rng);
    let bound = [9usize, 2, 5, 0, 12];
    bench("step/chart_columns_14v_bound5", 50, || {
        DecompositionChart::new(&f, &bound).expect("valid")
    });
    let chart = DecompositionChart::new(&f, &bound).expect("valid");
    let classes = chart.classes();
    let m = classes.len();
    let codes = CodeAssignment::new((0..m as u32).collect(), ceil_log2(m)).expect("fits");
    bench("step/build_image_14v", 50, || build_image(classes, &codes));
    // A 16-variable table vacuous in two variables, projected away.
    let wide = TruthTable::from_fn(16, |x| {
        let y = (x & 0b111) | (x >> 4 & 0x7F) << 3 | (x >> 12) << 10;
        f.eval(y)
    });
    let support: Vec<usize> = (0..16).filter(|&v| v != 3 && v != 11).collect();
    bench("step/project_to_support_16v_to_14v", 50, || {
        project_to_support(&wide, &support)
    });
    let d = decompose_step(&f, &bound, &EncoderKind::Lexicographic, 5).expect("valid");
    bench("step/recomposition_check_14v", 50, || d.verify(&f));
}

/// A random NPN transform of `f`.
fn transformed(f: &TruthTable, rng: &mut StdRng) -> TruthTable {
    let n = f.vars();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let t = NpnTransform {
        perm,
        input_neg: rng.gen::<u32>() & ((1 << n) - 1),
        output_neg: rng.gen(),
    };
    npn::apply(f, &t)
}

/// NPN canonization, the key of the λ-search memo: the exact canonizer
/// on 6-variable sets (random; every fourth totally symmetric function;
/// a 4:1 multiplexer under random transforms) and the greedy one on
/// random and tied (symmetric, so every cofactor weight ties) tables.
fn bench_npn() {
    let mut rng = StdRng::seed_from_u64(6);
    let random: Vec<TruthTable> = (0..32).map(|_| TruthTable::random(6, &mut rng)).collect();
    let symmetric: Vec<TruthTable> = (0..128u32)
        .step_by(4)
        .map(|c| TruthTable::from_fn(6, |m| c >> m.count_ones() & 1 == 1))
        .collect();
    let mux = TruthTable::from_fn(6, |m| m >> (2 + (m & 3)) & 1 == 1);
    let muxes: Vec<TruthTable> = (0..16).map(|_| transformed(&mux, &mut rng)).collect();
    for (set, tables) in [
        ("random", &random),
        ("symmetric", &symmetric),
        ("mux", &muxes),
    ] {
        bench_each(
            &format!("npn/exact_canonize_6v/{set}"),
            10,
            tables.len(),
            || tables.iter().map(npn::canonize).count(),
        );
    }
    for n in [8usize, 12, 16] {
        let mut tables: Vec<TruthTable> = (0..8).map(|_| TruthTable::random(n, &mut rng)).collect();
        for f in [
            TruthTable::from_fn(n, |m| m.count_ones() % 2 == 1),
            TruthTable::from_fn(n, |m| m.count_ones() * 2 >= n as u32),
            TruthTable::from_fn(n, |m| m.count_ones() % 3 == 0),
        ] {
            tables.push(transformed(&f, &mut rng));
        }
        bench_each(
            &format!("npn/greedy_canonize_{n}v"),
            20,
            tables.len(),
            || tables.iter().map(npn::canonize).count(),
        );
    }
}

#[test]
#[ignore]
fn kernels() {
    bench_bdd_ops();
    bench_matching();
    bench_clique_partition();
    bench_encoding_steps();
    bench_chart_and_varpart();
    bench_step_tables();
    bench_npn();
}
