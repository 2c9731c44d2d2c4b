//! Cubes and sum-of-products covers.
//!
//! The Murgai-style encoding baseline (reference `[3]` of the paper) scores
//! encodings by the number of cubes/literals in the image function, so the
//! reproduction needs an SOP view of truth tables. [`SopCover::isop`]
//! implements the Minato–Morreale irredundant SOP construction, which is
//! also what the PLA writer uses.

use crate::truthtable::TruthTable;
use crate::LogicError;
use std::fmt;

/// Polarity of a variable within a cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Literal {
    /// Variable does not appear in the cube.
    DontCare,
    /// Variable appears complemented.
    Negative,
    /// Variable appears positive.
    Positive,
}

impl Literal {
    /// PLA character for this literal (`-`, `0`, `1`).
    pub fn to_char(self) -> char {
        match self {
            Literal::DontCare => '-',
            Literal::Negative => '0',
            Literal::Positive => '1',
        }
    }

    /// Parses a PLA character.
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '-' | '2' => Some(Literal::DontCare),
            '0' => Some(Literal::Negative),
            '1' => Some(Literal::Positive),
            _ => None,
        }
    }
}

/// A product term over `n` variables.
///
/// # Example
///
/// ```
/// use hyde_logic::Cube;
///
/// let c: Cube = "1-0".parse().unwrap();
/// assert!(c.contains(0b001));
/// assert!(!c.contains(0b101));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    lits: Vec<Literal>,
}

impl Cube {
    /// The full cube (tautology) over `vars` variables.
    pub fn full(vars: usize) -> Self {
        Cube {
            lits: vec![Literal::DontCare; vars],
        }
    }

    /// Creates a cube from explicit literals.
    pub fn from_literals(lits: Vec<Literal>) -> Self {
        Cube { lits }
    }

    /// Number of variables in the cube's space.
    pub fn vars(&self) -> usize {
        self.lits.len()
    }

    /// Literal at position `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn literal(&self, var: usize) -> Literal {
        self.lits[var]
    }

    /// Restricts the cube by one more literal, returning the refinement.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn with(&self, var: usize, lit: Literal) -> Self {
        let mut c = self.clone();
        c.lits[var] = lit;
        c
    }

    /// Whether the minterm lies inside the cube.
    pub fn contains(&self, m: u32) -> bool {
        self.lits.iter().enumerate().all(|(i, l)| match l {
            Literal::DontCare => true,
            Literal::Negative => m >> i & 1 == 0,
            Literal::Positive => m >> i & 1 == 1,
        })
    }

    /// The cube as a truth table.
    pub fn to_truth_table(&self) -> TruthTable {
        let mut t = TruthTable::one(self.vars());
        for (i, l) in self.lits.iter().enumerate() {
            match l {
                Literal::DontCare => {}
                Literal::Negative => t = &t & &!&TruthTable::var(self.vars(), i),
                Literal::Positive => t = &t & &TruthTable::var(self.vars(), i),
            }
        }
        t
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.lits {
            write!(f, "{}", l.to_char())?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Cube {
    type Err = LogicError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lits: Option<Vec<Literal>> = s.chars().map(Literal::from_char).collect();
        lits.map(Cube::from_literals).ok_or(LogicError::Parse {
            line: 0,
            message: format!("invalid cube string {s:?}"),
        })
    }
}

/// A sum-of-products cover: a disjunction of cubes.
///
/// # Example
///
/// ```
/// use hyde_logic::{SopCover, TruthTable};
///
/// let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
/// let sop = SopCover::isop(&xor);
/// assert_eq!(sop.cube_count(), 2);
/// assert_eq!(sop.to_truth_table(2), xor);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SopCover {
    cubes: Vec<Cube>,
}

impl SopCover {
    /// The empty (constant-zero) cover.
    pub fn new() -> Self {
        SopCover { cubes: Vec::new() }
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Iterates over the cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.cubes.iter()
    }

    /// Adds a cube.
    pub fn push(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// Number of cubes — the Murgai-style encoding cost.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Evaluates the cover as a truth table over `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if some cube has a different arity than `vars`.
    pub fn to_truth_table(&self, vars: usize) -> TruthTable {
        let mut t = TruthTable::zero(vars);
        for c in &self.cubes {
            assert_eq!(c.vars(), vars, "cube arity mismatch");
            t = &t | &c.to_truth_table();
        }
        t
    }

    /// Computes an irredundant SOP cover of `f` (Minato–Morreale ISOP over
    /// the interval `[f, f]`).
    pub fn isop(f: &TruthTable) -> Self {
        Self::isop_between(f, f)
    }

    /// The CNF export pair `(isop(f), isop(!f))`: a Tseitin encoder turns
    /// each on-set cube into a clause implying the gate output and each
    /// off-set cube into a clause implying its complement.
    pub fn cnf_covers(f: &TruthTable) -> (Self, Self) {
        (Self::isop(f), Self::isop(&!f))
    }

    /// Computes an irredundant SOP `g` with `lower <= g <= upper`
    /// (minterm-wise); `lower` is the on-set that must be covered, `upper`
    /// adds don't cares.
    ///
    /// # Panics
    ///
    /// Panics if arities differ or `lower` is not contained in `upper`.
    pub fn isop_between(lower: &TruthTable, upper: &TruthTable) -> Self {
        assert_eq!(lower.vars(), upper.vars(), "arity mismatch");
        assert!(
            (lower & &!upper).is_zero(),
            "lower bound must be contained in upper bound"
        );
        let mut cubes = Vec::new();
        isop_rec(lower, upper, 0, &Cube::full(lower.vars()), &mut cubes);
        SopCover { cubes }
    }
}

impl FromIterator<Cube> for SopCover {
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Self {
        SopCover {
            cubes: iter.into_iter().collect(),
        }
    }
}

impl Extend<Cube> for SopCover {
    fn extend<T: IntoIterator<Item = Cube>>(&mut self, iter: T) {
        self.cubes.extend(iter);
    }
}

impl<'a> IntoIterator for &'a SopCover {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;
    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

impl fmt::Display for SopCover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Recursive ISOP: returns cubes covering at least `lower` and at most
/// `upper`, restricted to the sub-space described by `ctx`, expanding on
/// variable `var` and beyond. The produced cover (as a function) is recorded
/// through `out`.
fn isop_rec(
    lower: &TruthTable,
    upper: &TruthTable,
    var: usize,
    ctx: &Cube,
    out: &mut Vec<Cube>,
) -> TruthTable {
    let vars = lower.vars();
    if lower.is_zero() {
        return TruthTable::zero(vars);
    }
    if var == vars {
        // Nonzero lower bound with no variables left: emit the context cube.
        out.push(ctx.clone());
        return TruthTable::one(vars);
    }
    if !lower.depends_on(var) && !upper.depends_on(var) {
        return isop_rec(lower, upper, var + 1, ctx, out);
    }
    let l0 = lower.cofactor(var, false);
    let l1 = lower.cofactor(var, true);
    let u0 = upper.cofactor(var, false);
    let u1 = upper.cofactor(var, true);

    // Cubes that must contain !var: needed in the 0-half but not allowed in
    // the 1-half.
    let lower0 = &l0 & &!&u1;
    let c0 = isop_rec(
        &lower0,
        &u0,
        var + 1,
        &ctx.with(var, Literal::Negative),
        out,
    );
    // Cubes that must contain var.
    let lower1 = &l1 & &!&u0;
    let c1 = isop_rec(
        &lower1,
        &u1,
        var + 1,
        &ctx.with(var, Literal::Positive),
        out,
    );
    // Remaining minterms can be covered by cubes independent of var.
    let rest = &(&l0 & &!&c0) | &(&l1 & &!&c1);
    let upper_star = &u0 & &u1;
    let cd = isop_rec(&rest, &upper_star, var + 1, ctx, out);

    let v = TruthTable::var(vars, var);
    &(&(&!&v & &c0) | &(&v & &c1)) | &cd
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cube_parse_display_roundtrip() {
        let c: Cube = "1-0-".parse().unwrap();
        assert_eq!(c.to_string(), "1-0-");
        assert_eq!(c.vars(), 4);
    }

    #[test]
    fn cube_parse_rejects_garbage() {
        assert!("1x0".parse::<Cube>().is_err());
    }

    #[test]
    fn cube_containment() {
        let c: Cube = "1-0".parse().unwrap();
        // var0='1', var2='0' (string index i = variable i)
        for m in 0u32..8 {
            let expect = (m & 1 == 1) && (m >> 2 & 1 == 0);
            assert_eq!(c.contains(m), expect, "m={m}");
        }
    }

    #[test]
    fn cube_truth_table_matches_contains() {
        let c: Cube = "01-".parse().unwrap();
        let t = c.to_truth_table();
        for m in 0u32..8 {
            assert_eq!(t.eval(m), c.contains(m));
        }
    }

    #[test]
    fn full_cube_is_tautology() {
        assert!(Cube::full(3).to_truth_table().is_one());
        assert_eq!(Cube::full(3).to_string(), "---");
    }

    #[test]
    fn isop_exact_on_random_functions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for vars in 0..7usize {
            for _ in 0..20 {
                let f = TruthTable::random(vars, &mut rng);
                let sop = SopCover::isop(&f);
                assert_eq!(sop.to_truth_table(vars), f, "vars={vars} f={f:?}");
            }
        }
    }

    #[test]
    fn isop_of_constants() {
        let zero = TruthTable::zero(4);
        assert_eq!(SopCover::isop(&zero).cube_count(), 0);
        let one = TruthTable::one(4);
        let sop = SopCover::isop(&one);
        assert_eq!(sop.cubes(), [Cube::full(4)]);
    }

    #[test]
    fn isop_xor_needs_two_cubes() {
        let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        let sop = SopCover::isop(&xor);
        assert_eq!(sop.cube_count(), 2);
        assert!(sop.iter().all(|c| !c.to_string().contains('-')));
    }

    #[test]
    fn isop_single_cube_function() {
        // f = x0 & !x2 over 3 vars is one cube.
        let f = &TruthTable::var(3, 0) & &!&TruthTable::var(3, 2);
        let sop = SopCover::isop(&f);
        assert_eq!(sop.cube_count(), 1);
        assert_eq!(sop.cubes()[0].to_string(), "1-0");
    }

    #[test]
    fn isop_between_uses_dont_cares() {
        // on = {11}, dc = everything else: single full cube suffices.
        let on = TruthTable::from_minterms(2, &[3]);
        let upper = TruthTable::one(2);
        let sop = SopCover::isop_between(&on, &upper);
        assert_eq!(sop.cube_count(), 1);
        let t = sop.to_truth_table(2);
        assert!((&on & &!&t).is_zero());
    }

    #[test]
    fn isop_between_respects_bounds_randomly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..40 {
            let a = TruthTable::random(5, &mut rng);
            let b = TruthTable::random(5, &mut rng);
            let lower = &a & &b;
            let upper = &a | &b;
            let sop = SopCover::isop_between(&lower, &upper);
            let t = sop.to_truth_table(5);
            assert!((&lower & &!&t).is_zero(), "missed on-set");
            assert!((&t & &!&upper).is_zero(), "exceeded upper bound");
        }
    }

    #[test]
    fn isop_irredundant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..25 {
            let f = TruthTable::random(5, &mut rng);
            let sop = SopCover::isop(&f);
            // Dropping any single cube must lose some minterm.
            for skip in 0..sop.cube_count() {
                let rest: SopCover = sop
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, c)| c.clone())
                    .collect();
                assert_ne!(rest.to_truth_table(5), f, "cube {skip} was redundant");
            }
        }
    }

    #[test]
    fn cover_display() {
        let sop: SopCover = ["1-", "01"].iter().map(|c| c.parse().unwrap()).collect();
        assert_eq!(sop.to_string(), "1- + 01");
        assert_eq!(SopCover::new().to_string(), "0");
    }
}
