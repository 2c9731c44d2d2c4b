//! Golden search-identity test for the CDCL solver.
//!
//! Each solve on a fixed instance is pinned to its exact search effort:
//! `(outcome, conflicts, decisions, propagations, restarts)`, so a change
//! to the solver's data layout or speed must show that it takes the same
//! decisions, propagations, conflicts and restarts step for step. A
//! change that alters the search itself moves these numbers on purpose
//! and must re-capture them with a stated reason.
//!
//! The numbers were last re-captured when blocker literals, recursive
//! learned-clause minimization and LBD-ranked learned-clause deletion
//! joined the solver: each of the three changes which clauses are
//! learned, kept or visited first, and so the search path.
//! `pigeonhole_8_into_7` crosses a learned-clause reduction, so the
//! deletion ranking and the arena compaction are pinned as well.
//!
//! Every instance runs well under a second in a debug build.

use hyde_bdd::Bdd;
use hyde_logic::TruthTable;
use hyde_sat::{Encoder, Lit, Outcome, Solver};
use Outcome::{Sat, Unsat};

mod common;
use common::{pigeonhole, random_3sat, solver_with};

/// `(outcome, conflicts, decisions, propagations, restarts)` of one solve.
type Step = (Outcome, u64, u64, u64, u64);

/// Solves under `assumptions` and returns the effort of this call alone.
fn step(s: &mut Solver, assumptions: &[Lit]) -> Step {
    let before = s.stats();
    let out = s.solve(assumptions);
    let after = s.stats();
    (
        out,
        after.conflicts - before.conflicts,
        after.decisions - before.decisions,
        after.propagations - before.propagations,
        after.restarts - before.restarts,
    )
}

fn assert_steps(name: &str, got: &[Step], want: &[Step]) {
    assert_eq!(got, want, "{name}: search path moved; got {got:?}");
}

fn satisfies(s: &Solver, clause: &[Lit]) -> bool {
    clause.iter().any(|l| s.model_value(l.var()) != l.is_neg())
}

#[test]
fn pigeonhole_6_into_5() {
    let mut s = pigeonhole(6, 5);
    let got = vec![step(&mut s, &[])];
    assert_steps("php 6->5", &got, &[(Unsat, 146, 190, 1620, 0)]);
}

#[test]
fn pigeonhole_8_into_7() {
    let mut s = pigeonhole(8, 7);
    let got = vec![step(&mut s, &[])];
    assert!(s.stats().deleted > 0, "the solve must cross a reduction");
    assert_steps("php 8->7", &got, &[(Unsat, 2994, 3459, 36524, 6)]);
}

#[test]
fn random_3sat_near_threshold() {
    let instances: [(u64, usize); 6] = [
        (0x9e37_79b9_7f4a_7c15, 40),
        (0xd1b5_4a32_d192_ed03, 40),
        (0x2545_f491_4f6c_dd1d, 50),
        (0x8cb9_2ba7_2f3d_8dd7, 50),
        (0x94d0_49bb_1331_11eb, 60),
        (0xbf58_476d_1ce4_e5b9, 60),
    ];
    let mut got = Vec::new();
    for &(seed, vars) in &instances {
        let cnf = random_3sat(seed, vars);
        let mut s = solver_with(vars, &cnf);
        let st = step(&mut s, &[]);
        if st.0 == Sat {
            assert!(cnf.iter().all(|c| satisfies(&s, c)), "bad model");
        }
        got.push(st);
    }
    assert!(got.iter().any(|st| st.0 == Sat) && got.iter().any(|st| st.0 == Unsat));
    assert_steps(
        "random 3-SAT",
        &got,
        &[
            (Unsat, 65, 69, 763, 0),
            (Unsat, 49, 51, 657, 0),
            (Unsat, 57, 60, 845, 0),
            (Sat, 56, 74, 842, 0),
            (Sat, 94, 114, 1407, 0),
            (Unsat, 71, 87, 1021, 0),
        ],
    );
}

#[test]
fn activity_rescale_and_restarts() {
    // Activities are rescaled by 1e-100 once the bump increment passes
    // 1e100, which takes about 4490 conflicts at the 0.95 decay. This
    // instance needs 4914, so its search crosses the rescale (which can
    // create new activity ties), a dozen Luby restarts and two
    // learned-clause reductions.
    let mut s = solver_with(175, &random_3sat(0x1111, 175));
    let got = vec![step(&mut s, &[])];
    assert_steps("rescale", &got, &[(Unsat, 4914, 5816, 164049, 12)]);
}

#[test]
fn incremental_table_miters() {
    // Two fixed 10-input tables and a one-bit mutant of the first, on one
    // shared solver, each side encoded as BDD gates over shared inputs.
    // Each table is also encoded a second way (ISOP covers)
    // so the equivalence miters need real search, and learned clauses
    // carry from one query to the next.
    let n = 10;
    let a = TruthTable::from_fn(n, |m| (m.wrapping_mul(37) ^ (m >> 3)) % 5 < 2);
    let b = TruthTable::from_fn(n, |m| (m.count_ones() + (m & 0x2a).count_ones()) % 3 == 0);
    let flip = 0x1b5;
    let mut mutant = a.clone();
    mutant.set(flip, !mutant.eval(flip));

    let mut enc = Encoder::new();
    let pi = enc.fresh_inputs(n);
    let mut bdd = Bdd::new(n);
    let ra = bdd.from_fn(|m| a.eval(m));
    let rb = bdd.from_fn(|m| b.eval(m));
    let rm = bdd.from_fn(|m| mutant.eval(m));
    let a_bdd = enc.encode_bdd(&bdd, ra, &pi);
    let b_bdd = enc.encode_bdd(&bdd, rb, &pi);
    let m_bdd = enc.encode_bdd(&bdd, rm, &pi);
    let a_tab = enc.encode_table(&a, &pi);
    let b_tab = enc.encode_table(&b, &pi);
    let a_vs_mutant = enc.xor(a_bdd, m_bdd);
    let a_vs_b = enc.xor(a_bdd, b_bdd);
    let a_same = enc.xor(a_bdd, a_tab);
    let b_same = enc.xor(b_bdd, b_tab);
    let mutant_vs_tab = enc.xor(m_bdd, a_tab);

    let minterm = |s: &Solver| -> u32 {
        pi.iter()
            .enumerate()
            .filter(|(_, l)| s.model_value(l.var()) != l.is_neg())
            .fold(0, |m, (i, _)| m | 1 << i)
    };
    let s = enc.solver_mut();
    let mut got = Vec::new();
    got.push(step(s, &[a_vs_mutant]));
    assert_eq!(minterm(s), flip, "the mutant differs only at {flip}");
    got.push(step(s, &[a_same]));
    got.push(step(s, &[a_vs_b]));
    let m = minterm(s);
    assert_ne!(a.eval(m), b.eval(m), "counterexample must separate a and b");
    got.push(step(s, &[b_same]));
    got.push(step(s, &[mutant_vs_tab, pi[0], !pi[3]]));
    got.push(step(s, &[mutant_vs_tab]));
    assert_eq!(minterm(s), flip);
    got.push(step(s, &[a_same, !pi[9]]));
    got.push(step(s, &[a_vs_b, pi[1], pi[2], !pi[5]]));
    assert_steps(
        "incremental miters",
        &got,
        &[
            (Sat, 7, 19, 376, 0),
            (Unsat, 362, 383, 13653, 1),
            (Sat, 0, 9, 157, 0),
            (Unsat, 873, 879, 67036, 2),
            (Sat, 6, 13, 408, 0),
            (Sat, 0, 5, 156, 0),
            (Unsat, 0, 0, 0, 0),
            (Sat, 0, 5, 156, 0),
        ],
    );
}
