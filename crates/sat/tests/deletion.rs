//! Learned-clause deletion keeps the solver sound across incremental
//! calls: after a solve that crosses at least one reduction, later solves
//! under assumptions still return models of the problem clauses and
//! cores that are genuine.

use hyde_sat::{Lit, Outcome, Solver};

mod common;
use common::{random_3sat, solver_with};

#[test]
fn incremental_solves_after_a_reduction_stay_sound() {
    let vars = 180;
    let cnf = random_3sat(0x5678, vars);
    let mut s = solver_with(vars, &cnf);
    assert_eq!(s.solve(&[]), Outcome::Sat);
    assert!(
        s.stats().deleted > 0,
        "the first solve must cross a reduction"
    );
    let holds = |s: &Solver, l: &Lit| s.model_value(l.var()) != l.is_neg();
    let model: Vec<Lit> = (0..vars).map(|v| Lit::new(v, !s.model_value(v))).collect();

    // Assumptions drawn from the first model, some with one literal
    // flipped: the flipped ones are often contradictory.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let (mut sat, mut unsat) = (0, 0);
    for call in 0..40 {
        let mut assumed: Vec<Lit> = (0..1 + next(12)).map(|_| model[next(vars)]).collect();
        if call % 2 == 1 {
            let k = next(assumed.len());
            assumed[k] = !assumed[k];
        }
        match s.solve(&assumed) {
            Outcome::Sat => {
                sat += 1;
                assert!(
                    cnf.iter().all(|c| c.iter().any(|l| holds(&s, l))),
                    "call {call}: model misses a clause"
                );
                assert!(
                    assumed.iter().all(|l| holds(&s, l)),
                    "call {call}: model misses an assumption"
                );
            }
            Outcome::Unsat => {
                unsat += 1;
                let core = s.unsat_core().to_vec();
                assert!(
                    core.iter().all(|l| assumed.contains(l)),
                    "call {call}: core ⊄ assumptions"
                );
                let mut fresh = solver_with(vars, &cnf);
                assert_eq!(
                    fresh.solve(&core),
                    Outcome::Unsat,
                    "call {call}: core is satisfiable"
                );
            }
            Outcome::Unknown => unreachable!("unlimited budget"),
        }
    }
    assert!(sat > 5 && unsat > 5, "{sat} SAT / {unsat} UNSAT answers");
}
