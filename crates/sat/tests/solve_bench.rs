//! Manual timing of the CDCL kernel: propagations per second and
//! microseconds per conflict on fixed instances, each solved from a
//! fresh solver several times (median reported). The search counters and
//! the kept and deleted learned-clause counts are printed too, so a
//! change can show how it moved the search as well as its speed. Run
//! with:
//! `cargo test --release -p hyde-sat --test solve_bench -- --ignored --nocapture`

use hyde_bdd::Bdd;
use hyde_logic::TruthTable;
use hyde_sat::{Encoder, Lit, Outcome, Solver, Stats};
use std::time::Instant;

mod common;
use common::{pigeonhole, random_3sat, solver_with};

const REPS: usize = 5;

/// A miter proving a 12-input table equal to itself through two
/// encodings (BDD gates and ISOP covers), the shape of a CEC proof.
fn table_miter() -> (Encoder, Lit) {
    let n = 12;
    let f = TruthTable::from_fn(n, |m| (m.wrapping_mul(37) ^ (m >> 3)) % 5 < 2);
    let mut enc = Encoder::new();
    let pi = enc.fresh_inputs(n);
    let mut bdd = Bdd::new(n);
    let r = bdd.from_fn(|m| f.eval(m));
    let via_bdd = enc.encode_bdd(&bdd, r, &pi);
    let via_cover = enc.encode_table(&f, &pi);
    let miter = enc.xor(via_bdd, via_cover);
    (enc, miter)
}

/// Miters of eight 12-input tables, each against a second encoding of
/// itself, proved output by output on one incremental solver the way
/// `cec_network_vs_tables` proves a circuit: learned clauses of earlier
/// outputs stay in the database for later ones. Encoding is timed with
/// the proofs, as it interleaves with them.
fn multi_output_cec() -> (Outcome, Stats, f64) {
    let n = 12;
    let mut enc = Encoder::new();
    let pi = enc.fresh_inputs(n);
    let mut bdd = Bdd::new(n);
    let t = Instant::now();
    let mut out = Outcome::Unsat;
    for k in 0..8u32 {
        let f = TruthTable::from_fn(n, |m| {
            (m.wrapping_mul(37 + 2 * k) ^ (m >> (3 + k % 4))) % 5 < 2
        });
        let r = bdd.from_fn(|m| f.eval(m));
        let via_bdd = enc.encode_bdd(&bdd, r, &pi);
        let via_cover = enc.encode_table(&f, &pi);
        let miter = enc.xor(via_bdd, via_cover);
        if enc.solver_mut().solve(&[miter]) != Outcome::Unsat {
            out = Outcome::Sat;
        }
    }
    (out, enc.solver().stats(), t.elapsed().as_secs_f64() * 1e3)
}

/// Solves and returns the verdict, the solver's counters and the solve
/// time in milliseconds (building the instance is not timed).
fn timed(s: &mut Solver, assumptions: &[Lit]) -> (Outcome, Stats, f64) {
    let t = Instant::now();
    let out = s.solve(assumptions);
    (out, s.stats(), t.elapsed().as_secs_f64() * 1e3)
}

#[test]
#[ignore]
fn solve_bench() {
    type Run = fn() -> (Outcome, Stats, f64);
    let instances: [(&str, Run); 5] = [
        ("php 8->7", || timed(&mut pigeonhole(8, 7), &[])),
        ("3-SAT 175v", || {
            timed(&mut solver_with(175, &random_3sat(0x5678, 175)), &[])
        }),
        ("3-SAT 200v", || {
            timed(&mut solver_with(200, &random_3sat(0xdef0, 200)), &[])
        }),
        ("miter 12-in", || {
            let (mut enc, miter) = table_miter();
            timed(enc.solver_mut(), &[miter])
        }),
        ("cec 8-out", multi_output_cec),
    ];
    for (name, run) in instances {
        let runs: Vec<(Outcome, Stats, f64)> = (0..REPS).map(|_| run()).collect();
        let mut ms: Vec<f64> = runs.iter().map(|r| r.2).collect();
        ms.sort_by(f64::total_cmp);
        let med = ms[REPS / 2];
        let (out, st, _) = runs[0];
        println!(
            "{name:<12} {out:?}: {} conflicts, {} decisions, {} propagations, {} restarts, \
             {} learned kept, {} deleted | \
             median {med:.1} ms (min {:.1}), {:.2} M prop/s, {:.2} us/conflict",
            st.conflicts,
            st.decisions,
            st.propagations,
            st.restarts,
            st.learned,
            st.deleted,
            ms[0],
            st.propagations as f64 / med / 1e3,
            med * 1e3 / st.conflicts.max(1) as f64,
        );
    }
}
