//! Instance generators shared by the solver's integration tests.
// Each test binary uses a different subset of the generators.
#![allow(dead_code)]

use hyde_sat::{Lit, Solver};

/// Deterministic xorshift64 so the instances are reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Uniform random 3-SAT over `vars` variables with round(4.26 * vars)
/// clauses, the hardest ratio: three distinct variables per clause,
/// random signs.
pub fn random_3sat(seed: u64, vars: usize) -> Vec<Vec<Lit>> {
    let clauses = (4.26 * vars as f64).round() as usize;
    let mut rng = XorShift(seed);
    (0..clauses)
        .map(|_| {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = (rng.next() % vars as u64) as usize;
                if c.iter().all(|l| l.var() != v) {
                    c.push(Lit::new(v, rng.next() & 1 == 1));
                }
            }
            c
        })
        .collect()
}

/// A solver holding `cnf` over `vars` variables.
pub fn solver_with(vars: usize, cnf: &[Vec<Lit>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..vars {
        s.new_var();
    }
    for c in cnf {
        s.add_clause(c);
    }
    s
}

/// The pigeonhole principle for `pigeons` into `holes`: every pigeon
/// sits in a hole, no hole holds two. UNSAT when `pigeons > holes`.
pub fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect())
        .collect();
    for row in &p {
        s.add_clause(row);
    }
    for h in 0..holes {
        let column: Vec<Lit> = p.iter().map(|row| row[h]).collect();
        for (i, &a) in column.iter().enumerate() {
            for &b in &column[i + 1..] {
                s.add_clause(&[!a, !b]);
            }
        }
    }
    s
}
