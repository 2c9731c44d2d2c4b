//! Manual timing of the algorithmic kernels (experiment P1): BDD build
//! and cut-class counting, blossom and b-matching, clique partition, the
//! encoding steps of Example 3.2, class counting, the λ-search and ISOP.
//! Each kernel runs once to warm up, then a fixed number of iterations,
//! and the median iteration time is printed. Run with:
//! `cargo test --release -p hyde-bench --test kernels -- --ignored --nocapture`

use hyde_core::chart::class_count;
use hyde_core::encoding::{combine_column_sets, combine_row_sets};
use hyde_core::partition::example_3_2_partitions;
use hyde_core::varpart::VariablePartitioner;
use hyde_logic::{SopCover, TruthTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

fn bench<F: FnMut() -> R, R>(name: &str, iters: u32, mut f: F) {
    std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    println!("{name:<36} {median:>12.2?}/iter median  ({iters} iters)");
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
    let f8 = TruthTable::random(8, &mut rng);
    bench("decomp/isop_8v", 50, || SopCover::isop(&f8).cube_count());
}

#[test]
#[ignore]
fn kernels() {
    bench_bdd_ops();
    bench_matching();
    bench_clique_partition();
    bench_encoding_steps();
    bench_chart_and_varpart();
}
