//! Bit-packed complete truth tables and incompletely specified functions.
//!
//! A [`TruthTable`] over `n` variables stores one bit per minterm in
//! little-endian order: bit `m` of the table is `f(x)` where variable `i`
//! contributes bit `i` of the minterm index `m`. Variable 0 is therefore the
//! "fastest toggling" input. All decomposition-chart machinery in
//! `hyde-core` is built on cofactor extraction over these tables.

use crate::LogicError;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

const WORD_BITS: usize = 64;

/// A completely specified Boolean function of `n` variables, `n <= 30`.
///
/// # Example
///
/// ```
/// use hyde_logic::TruthTable;
///
/// let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
/// assert!(xor.eval(0b01));
/// assert!(!xor.eval(0b11));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    vars: usize,
    words: Vec<u64>,
}

fn words_for(vars: usize) -> usize {
    if vars >= 6 {
        1 << (vars - 6)
    } else {
        1
    }
}

/// Mask of the valid bits in the (single) word of a small table.
fn small_mask(vars: usize) -> u64 {
    debug_assert!(vars < 6);
    (1u64 << (1 << vars)) - 1
}

impl TruthTable {
    /// Maximum supported variable count.
    pub const MAX_VARS: usize = 30;

    /// The constant-zero function of `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars > Self::MAX_VARS`.
    pub fn zero(vars: usize) -> Self {
        assert!(vars <= Self::MAX_VARS, "too many variables: {vars}");
        TruthTable {
            vars,
            words: vec![0; words_for(vars)],
        }
    }

    /// The constant-one function of `vars` variables.
    pub fn one(vars: usize) -> Self {
        let mut t = Self::zero(vars);
        let fill = if vars < 6 { small_mask(vars) } else { !0u64 };
        for w in &mut t.words {
            *w = fill;
        }
        t
    }

    /// The 2:1 multiplexer `s ? b : a` over the variables `(s, a, b)`,
    /// the join of a Shannon split on `s` with cofactors `a` and `b`.
    pub fn mux() -> Self {
        Self::from_fn(3, |m| {
            if m & 1 == 1 {
                m >> 2 & 1 == 1
            } else {
                m >> 1 & 1 == 1
            }
        })
    }

    /// The projection function returning variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= vars` or `vars > Self::MAX_VARS`.
    pub fn var(vars: usize, var: usize) -> Self {
        assert!(var < vars, "variable {var} out of range for {vars} vars");
        let mut t = Self::zero(vars);
        if var < 6 {
            // Pattern repeats within each word.
            let mut pat = 0u64;
            for m in 0..WORD_BITS.min(1 << vars) {
                if m >> var & 1 == 1 {
                    pat |= 1 << m;
                }
            }
            for w in &mut t.words {
                *w = pat;
            }
            if vars < 6 {
                t.words[0] &= small_mask(vars);
            }
        } else {
            let stride = 1usize << (var - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if i / stride % 2 == 1 {
                    *w = !0;
                }
            }
        }
        t
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `vars > Self::MAX_VARS`.
    pub fn from_fn<F: FnMut(u32) -> bool>(vars: usize, mut f: F) -> Self {
        let mut t = Self::zero(vars);
        for m in 0u32..(1u32 << vars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a table from explicit minterm indices that evaluate to 1.
    ///
    /// # Panics
    ///
    /// Panics if any minterm is out of range.
    pub fn from_minterms(vars: usize, minterms: &[u32]) -> Self {
        let mut t = Self::zero(vars);
        for &m in minterms {
            assert!((m as usize) < (1usize << vars), "minterm out of range");
            t.set(m, true);
        }
        t
    }

    /// Builds a table directly from its packed word representation (the
    /// layout returned by [`TruthTable::as_words`]): bit `m & 63` of word
    /// `m >> 6` is minterm `m`. Bits beyond `2^vars` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` does not match `vars` or
    /// `vars > Self::MAX_VARS`.
    pub fn from_words(vars: usize, words: Vec<u64>) -> Self {
        assert!(vars <= Self::MAX_VARS, "too many variables: {vars}");
        assert_eq!(
            words.len(),
            words_for(vars),
            "word count does not match {vars} variables"
        );
        let mut t = TruthTable { vars, words };
        if vars < 6 {
            t.words[0] &= small_mask(vars);
        }
        t
    }

    /// Uniformly random function, for workloads and property tests.
    pub fn random<R: rand::Rng>(vars: usize, rng: &mut R) -> Self {
        let mut t = Self::zero(vars);
        for w in &mut t.words {
            *w = rng.gen();
        }
        if vars < 6 {
            t.words[0] &= small_mask(vars);
        }
        t
    }

    /// Number of input variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Number of minterms (`2^vars`).
    pub fn num_minterms(&self) -> usize {
        1 << self.vars
    }

    /// Evaluates the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^vars`.
    pub fn eval(&self, m: u32) -> bool {
        let m = m as usize;
        assert!(m < self.num_minterms(), "minterm out of range");
        self.words[m / WORD_BITS] >> (m % WORD_BITS) & 1 == 1
    }

    /// Sets the value of minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^vars`.
    pub fn set(&mut self, m: u32, value: bool) {
        let m = m as usize;
        assert!(m < self.num_minterms(), "minterm out of range");
        let (w, b) = (m / WORD_BITS, m % WORD_BITS);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the function is constant zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the function is constant one.
    pub fn is_one(&self) -> bool {
        *self == Self::one(self.vars)
    }

    /// Whether the function is a constant.
    pub fn is_const(&self) -> Option<bool> {
        if self.is_zero() {
            Some(false)
        } else if self.is_one() {
            Some(true)
        } else {
            None
        }
    }

    /// Positive cofactor with respect to `var` (result keeps the arity; the
    /// cofactored variable becomes vacuous).
    ///
    /// # Panics
    ///
    /// Panics if `var >= vars`.
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.vars, "variable out of range");
        let mut out = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            // Select the half of each var-block and duplicate it.
            let block = block_mask(var);
            for w in &mut out.words {
                let half = if value {
                    (*w >> shift) & block
                } else {
                    *w & block
                };
                *w = half | (half << shift);
            }
        } else {
            let stride = 1usize << (var - 6);
            let n = out.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..stride {
                    let src = if value { i + stride + j } else { i + j };
                    let v = out.words[src];
                    out.words[i + j] = v;
                    out.words[i + stride + j] = v;
                }
                i += 2 * stride;
            }
        }
        out
    }

    /// Whether `var` actually influences the function.
    ///
    /// Compares the two cofactor halves in place, without building either
    /// cofactor: an XOR-shift under the block mask inside each word below
    /// variable 6, a comparison of adjacent word strides above it.
    ///
    /// # Panics
    ///
    /// Panics if `var >= vars`.
    pub fn depends_on(&self, var: usize) -> bool {
        assert!(var < self.vars, "variable out of range");
        if var < 6 {
            let (shift, block) = (1usize << var, block_mask(var));
            self.words.iter().any(|&w| (w ^ w >> shift) & block != 0)
        } else {
            let stride = 1usize << (var - 6);
            self.words.chunks_exact(2 * stride).any(|pair| {
                let (lo, hi) = pair.split_at(stride);
                lo != hi
            })
        }
    }

    /// The set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// The same function with the variables of `top` moved to the top of
    /// the variable order: `top[i]` becomes variable
    /// `vars - top.len() + i`, and the other variables keep their relative
    /// order below. Block `c` of `2^(vars - top.len())` minterms then holds
    /// the cofactor at `top[i] = bit i of c`, which
    /// [`TruthTable::top_cofactors`] splits off. One word-level pass per
    /// variable of `top` (see [`promote_to_top`]).
    ///
    /// # Panics
    ///
    /// Panics if `top` repeats a variable or names one `>= vars`.
    pub fn promote(&self, top: &[usize]) -> TruthTable {
        let mut seen = 0u32;
        for &v in top {
            assert!(
                v < self.vars && seen >> v & 1 == 0,
                "promoted variables must be distinct variables of the table"
            );
            seen |= 1 << v;
        }
        let mut cur = self.words.clone();
        let mut next = vec![0; cur.len()];
        // Current positions of the variables still to promote: promoting
        // the one at `p` shifts every variable above `p` down by one.
        let mut pending = top.to_vec();
        let mut rest = pending.as_mut_slice();
        while let Some((&mut p, tail)) = rest.split_first_mut() {
            if p + 1 < self.vars {
                if let [w] = cur.as_mut_slice() {
                    let (lo, hi) = unshuffle64(*w, p);
                    *w = lo | hi << (1usize << (self.vars - 1));
                } else {
                    promote_to_top(&cur, &mut next, p);
                    std::mem::swap(&mut cur, &mut next);
                }
            }
            for q in tail.iter_mut().filter(|q| **q > p) {
                *q -= 1;
            }
            rest = tail;
        }
        TruthTable {
            vars: self.vars,
            words: cur,
        }
    }

    /// The `2^j` cofactors over the top `j` variables, in block order: entry
    /// `c` fixes variable `vars - j + i` to bit `i` of `c` and is a function
    /// of the low `vars - j` variables.
    ///
    /// # Panics
    ///
    /// Panics if `j > vars`.
    pub fn top_cofactors(&self, j: usize) -> Vec<TruthTable> {
        assert!(
            j <= self.vars,
            "cannot split {j} of {} variables",
            self.vars
        );
        let low = self.vars - j;
        if low >= 6 {
            return self
                .words
                .chunks_exact(1 << (low - 6))
                .map(|block| TruthTable {
                    vars: low,
                    words: block.to_vec(),
                })
                .collect();
        }
        let (width, mask) = (1usize << low, small_mask(low));
        self.words
            .iter()
            .flat_map(|&w| {
                (0..WORD_BITS).step_by(width).map(move |s| TruthTable {
                    vars: low,
                    words: vec![w >> s & mask],
                })
            })
            .take(1 << j)
            .collect()
    }

    /// The cofactor at `var = 0` with `var` removed: variables above `var`
    /// move down by one. Writes only the kept half, one word-level pass.
    ///
    /// # Panics
    ///
    /// Panics if `var >= vars`.
    pub(crate) fn remove_var(&self, var: usize) -> TruthTable {
        assert!(var < self.vars, "variable out of range");
        let words = if self.vars <= 6 {
            self.words.iter().map(|&w| unshuffle64(w, var).0).collect()
        } else if var >= 6 {
            let stride = 1usize << (var - 6);
            self.words
                .chunks_exact(2 * stride)
                .flat_map(|pair| pair.iter().take(stride))
                .copied()
                .collect()
        } else {
            self.words
                .chunks_exact(2)
                .map(|pair| {
                    pair.iter()
                        .zip([0, 32])
                        .fold(0, |acc, (&w, s)| acc | unshuffle64(w, var).0 << s)
                })
                .collect()
        };
        TruthTable {
            vars: self.vars - 1,
            words,
        }
    }

    /// Returns the same function re-expressed over a (possibly larger)
    /// variable space, mapping old variable `i` to `map[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::VarOutOfRange`] if some `map[i] >= new_vars`,
    /// and [`LogicError::ArityMismatch`] if `map.len() != self.vars()`.
    pub fn permute(&self, new_vars: usize, map: &[usize]) -> Result<Self, LogicError> {
        if map.len() != self.vars {
            return Err(LogicError::ArityMismatch {
                left: map.len(),
                right: self.vars,
            });
        }
        for &t in map {
            if t >= new_vars {
                return Err(LogicError::VarOutOfRange {
                    var: t,
                    arity: new_vars,
                });
            }
        }
        let mut out = Self::zero(new_vars);
        for m in 0u32..(1u32 << new_vars) {
            let mut old = 0u32;
            for (i, &t) in map.iter().enumerate() {
                if m >> t & 1 == 1 {
                    old |= 1 << i;
                }
            }
            if self.eval(old) {
                out.set(m, true);
            }
        }
        Ok(out)
    }

    /// Existential quantification over `var`: `f[var=0] | f[var=1]`.
    pub fn exists(&self, var: usize) -> Self {
        &self.cofactor(var, false) | &self.cofactor(var, true)
    }

    /// Universal quantification over `var`: `f[var=0] & f[var=1]`.
    pub fn forall(&self, var: usize) -> Self {
        &self.cofactor(var, false) & &self.cofactor(var, true)
    }

    /// Composes `sub` into `var`: result is `f` with `var` replaced by the
    /// function `sub` (same arity as `f`).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ArityMismatch`] on arity disagreement and
    /// [`LogicError::VarOutOfRange`] if `var >= vars`.
    pub fn compose(&self, var: usize, sub: &TruthTable) -> Result<Self, LogicError> {
        if sub.vars != self.vars {
            return Err(LogicError::ArityMismatch {
                left: self.vars,
                right: sub.vars,
            });
        }
        if var >= self.vars {
            return Err(LogicError::VarOutOfRange {
                var,
                arity: self.vars,
            });
        }
        let f1 = self.cofactor(var, true);
        let f0 = self.cofactor(var, false);
        Ok(&(sub & &f1) | &(&!sub & &f0))
    }

    /// Raw little-endian words of the table (read-only view).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Evaluates the function on a minterm given per-variable values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != vars`.
    pub fn eval_bits(&self, values: &[bool]) -> bool {
        assert_eq!(values.len(), self.vars, "wrong number of input values");
        let mut m = 0u32;
        for (i, &b) in values.iter().enumerate() {
            if b {
                m |= 1 << i;
            }
        }
        self.eval(m)
    }

    fn assert_same_arity(&self, other: &Self) {
        assert_eq!(
            self.vars, other.vars,
            "truth table arity mismatch: {} vs {}",
            self.vars, other.vars
        );
    }
}

/// Mask selecting, within a 64-bit word, the minterms whose bit `var` is 0
/// (for `var < 6`): `0x5555…` for variable 0 up to `0x0000_0000_FFFF_FFFF`
/// for variable 5, i.e. `!0 / (2^(2^var) + 1)`.
fn block_mask(var: usize) -> u64 {
    !0 / ((1u64 << (1 << var)) + 1)
}

/// Reorders the packed table `src` (`2^n` bits in at least two words, so
/// `n >= 7`) into `dst` so the variable at `pos` becomes the top (most
/// significant) index bit, with all other variables keeping their
/// relative order. One linear pass: block copies when `pos >= 6`,
/// word-level perfect unshuffles below.
pub fn promote_to_top(src: &[u64], dst: &mut [u64], pos: usize) {
    let (lo, hi) = dst.split_at_mut(src.len() / 2);
    if pos >= 6 {
        let stride = 1usize << (pos - 6);
        let halves = lo.chunks_exact_mut(stride).zip(hi.chunks_exact_mut(stride));
        for (pair, (l, h)) in src.chunks_exact(2 * stride).zip(halves) {
            let (p0, p1) = pair.split_at(stride);
            l.copy_from_slice(p0);
            h.copy_from_slice(p1);
        }
    } else {
        for (pair, (l, h)) in src.chunks_exact(2).zip(lo.iter_mut().zip(hi.iter_mut())) {
            if let &[w0, w1] = pair {
                (*l, *h) = split_word_pair(w0, w1, pos);
            }
        }
    }
}

/// Splits two consecutive table words on the variable at `pos` (in
/// `0..6`): returns `(lo, hi)`, the 64 minterms of the pair with that
/// variable at 0 and at 1, each in order and packed into one word. These
/// are the words [`promote_to_top`] writes to the low and high half.
#[inline]
pub fn split_word_pair(w0: u64, w1: u64, pos: usize) -> (u64, u64) {
    let (l0, h0) = unshuffle64(w0, pos);
    let (l1, h1) = unshuffle64(w1, pos);
    (l0 | l1 << 32, h0 | h1 << 32)
}

/// Delta-swap mask for the perfect-unshuffle step with shift `s`: bits
/// `i` with `i mod 4s` in `[s, 2s)` (Hacker's Delight 7-2, generalized
/// to 64 bits and arbitrary power-of-two group sizes).
const fn unshuffle_mask(s: u32) -> u64 {
    let mut m = 0u64;
    let mut i = 0u32;
    while i < 64 {
        let r = i % (4 * s);
        if r >= s && r < 2 * s {
            m |= 1u64 << i;
        }
        i += 1;
    }
    m
}

/// `UNSHUFFLE_MASKS[i]` is the delta-swap mask for shift `2^i`.
const UNSHUFFLE_MASKS: [u64; 5] = [
    unshuffle_mask(1),
    unshuffle_mask(2),
    unshuffle_mask(4),
    unshuffle_mask(8),
    unshuffle_mask(16),
];

/// Splits `w` into `(lo, hi)`: `lo` packs the bit groups of size
/// `2^pos` at even group indices into the low 32 bits (order preserved),
/// `hi` the odd group indices. `pos` must be in `0..6`.
#[inline]
fn unshuffle64(w: u64, pos: usize) -> (u64, u64) {
    let mut x = w;
    for (i, &m) in UNSHUFFLE_MASKS.iter().enumerate().skip(pos) {
        let s = 1u32 << i;
        let t = (x ^ (x >> s)) & m;
        x ^= t ^ (t << s);
    }
    (x & 0xFFFF_FFFF, x >> 32)
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars; ", self.vars)?;
        if self.vars <= 6 {
            let bits = 1usize << self.vars;
            for m in (0..bits).rev() {
                write!(f, "{}", u8::from(self.eval(m as u32)))?;
            }
        } else {
            write!(f, "{} ones of {}", self.count_ones(), self.num_minterms())?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hex string, most significant word first, like ABC's truth tables.
        for w in self.words.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        Ok(())
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                self.assert_same_arity(rhs);
                TruthTable {
                    vars: self.vars,
                    words: self
                        .words
                        .iter()
                        .zip(&rhs.words)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }
        impl $trait for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, &);
impl_bitop!(BitOr, bitor, |);
impl_bitop!(BitXor, bitxor, ^);

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let mut out = TruthTable {
            vars: self.vars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        if self.vars < 6 {
            out.words[0] &= small_mask(self.vars);
        }
        out
    }
}

impl Not for TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        !&self
    }
}

/// An incompletely specified function: on-set plus don't-care set.
///
/// The care off-set is everything outside `on | dc`. Used by the don't-care
/// assignment machinery of Section 3.1.
///
/// # Example
///
/// ```
/// use hyde_logic::{Isf, TruthTable};
///
/// let on = TruthTable::from_minterms(2, &[3]);
/// let dc = TruthTable::from_minterms(2, &[0]);
/// let f = Isf::new(on, dc).unwrap();
/// assert!(f.is_dc(0));
/// assert!(!f.is_dc(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Isf {
    on: TruthTable,
    dc: TruthTable,
}

impl Isf {
    /// Creates an ISF from an on-set and a don't-care set.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ArityMismatch`] if the arities disagree. The
    /// on-set is normalized to exclude don't-care minterms.
    pub fn new(on: TruthTable, dc: TruthTable) -> Result<Self, LogicError> {
        if on.vars() != dc.vars() {
            return Err(LogicError::ArityMismatch {
                left: on.vars(),
                right: dc.vars(),
            });
        }
        let on = &on & &!&dc;
        Ok(Isf { on, dc })
    }

    /// A completely specified function viewed as an ISF.
    pub fn completely_specified(on: TruthTable) -> Self {
        let dc = TruthTable::zero(on.vars());
        Isf { on, dc }
    }

    /// Number of input variables.
    pub fn vars(&self) -> usize {
        self.on.vars()
    }

    /// On-set (guaranteed disjoint from the dc-set).
    pub fn on_set(&self) -> &TruthTable {
        &self.on
    }

    /// Don't-care set.
    pub fn dc_set(&self) -> &TruthTable {
        &self.dc
    }

    /// Whether minterm `m` is a don't care.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn is_dc(&self, m: u32) -> bool {
        self.dc.eval(m)
    }

    /// Value on minterm `m`: `None` when don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn value(&self, m: u32) -> Option<bool> {
        if self.dc.eval(m) {
            None
        } else {
            Some(self.on.eval(m))
        }
    }

    /// Whether `other` is a valid completion: agrees with every care value.
    pub fn admits(&self, other: &TruthTable) -> bool {
        if other.vars() != self.vars() {
            return false;
        }
        let care = !&self.dc;
        (&(other ^ &self.on) & &care).is_zero()
    }

    /// Cofactor on `var` (both sets cofactored).
    ///
    /// # Panics
    ///
    /// Panics if `var >= vars`.
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        Isf {
            on: self.on.cofactor(var, value),
            dc: self.dc.cofactor(var, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constants() {
        for v in 0..8 {
            assert!(TruthTable::zero(v).is_zero());
            assert!(TruthTable::one(v).is_one());
            assert_eq!(TruthTable::one(v).count_ones(), 1 << v);
            assert_eq!(TruthTable::zero(v).is_const(), Some(false));
            assert_eq!(TruthTable::one(v).is_const(), Some(true));
        }
    }

    #[test]
    fn var_projection_all_positions() {
        for vars in 1..10 {
            for v in 0..vars {
                let t = TruthTable::var(vars, v);
                for m in 0u32..(1 << vars) {
                    assert_eq!(t.eval(m), m >> v & 1 == 1, "vars={vars} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn mux_selects_b_when_s_is_set() {
        let (s, a, b) = (
            TruthTable::var(3, 0),
            TruthTable::var(3, 1),
            TruthTable::var(3, 2),
        );
        assert_eq!(TruthTable::mux(), (&s & &b) | (&!&s & &a));
    }

    #[test]
    fn bit_ops_match_semantics() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 3);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        for m in 0u32..16 {
            let (av, bv) = (m & 1 == 1, m >> 3 & 1 == 1);
            assert_eq!(and.eval(m), av && bv);
            assert_eq!(or.eval(m), av || bv);
            assert_eq!(xor.eval(m), av != bv);
        }
    }

    #[test]
    fn not_respects_small_mask() {
        let t = TruthTable::zero(3);
        let n = !&t;
        assert!(n.is_one());
        assert_eq!(n.as_words()[0], 0xFF);
    }

    #[test]
    fn cofactor_small_and_large_vars() {
        for vars in [3usize, 6, 7, 8] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let t = TruthTable::random(vars, &mut rng);
            for v in 0..vars {
                for val in [false, true] {
                    let c = t.cofactor(v, val);
                    for m in 0u32..(1 << vars) {
                        let forced = if val { m | (1 << v) } else { m & !(1 << v) };
                        assert_eq!(
                            c.eval(m),
                            t.eval(forced),
                            "vars={vars} v={v} val={val} m={m}"
                        );
                    }
                    assert!(!c.depends_on(v));
                }
            }
        }
    }

    /// Deposits the low bits of `bits` at the variable positions `vars`.
    fn scatter(bits: usize, vars: &[usize]) -> u32 {
        vars.iter()
            .enumerate()
            .filter(|&(i, _)| bits >> i & 1 == 1)
            .fold(0, |m, (_, &v)| m | 1 << v)
    }

    #[test]
    fn depends_on_matches_cofactor_oracle() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDE9);
        for vars in 1..=10 {
            for _ in 0..8 {
                // Random tables depend on everything; mask some variables
                // out by cofactoring so both answers occur.
                let mut t = TruthTable::random(vars, &mut rng);
                for v in 0..vars {
                    if rng.gen_bool(0.4) {
                        t = t.cofactor(v, rng.gen_bool(0.5));
                    }
                }
                for v in 0..vars {
                    let oracle = t.cofactor(v, false) != t.cofactor(v, true);
                    assert_eq!(t.depends_on(v), oracle, "vars {vars} var {v}");
                }
            }
        }
    }

    #[test]
    fn promote_and_top_cofactors_match_scalar_gather() {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9A7);
        for vars in 0..=10usize {
            for _ in 0..6 {
                let t = TruthTable::random(vars, &mut rng);
                let mut order: Vec<usize> = (0..vars).collect();
                order.shuffle(&mut rng);
                let j = rng.gen_range(0..=vars);
                let top = &order[..j];
                let rest: Vec<usize> = (0..vars).filter(|v| !top.contains(v)).collect();
                let blocks = t.promote(top).top_cofactors(j);
                assert_eq!(blocks.len(), 1 << j);
                for (c, block) in blocks.iter().enumerate() {
                    assert_eq!(block.vars(), vars - j);
                    for r in 0..1usize << (vars - j) {
                        let m = scatter(c, top) | scatter(r, &rest);
                        assert_eq!(block.eval(r as u32), t.eval(m), "top {top:?} c {c} r {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn remove_var_is_the_zero_cofactor_without_the_variable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7E3);
        for vars in 1..=10usize {
            let t = TruthTable::random(vars, &mut rng);
            for v in 0..vars {
                let r = t.remove_var(v);
                assert_eq!(r.vars(), vars - 1);
                for m in 0u32..1 << (vars - 1) {
                    let low = m & ((1 << v) - 1);
                    let full = low | (m >> v) << (v + 1);
                    assert_eq!(r.eval(m), t.eval(full), "vars {vars} var {v} m {m}");
                }
            }
        }
    }

    #[test]
    fn unshuffle_matches_bitwise_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for pos in 0..6usize {
            let g = 1usize << pos;
            for _ in 0..50 {
                let w = TruthTable::random(6, &mut rng).as_words()[0];
                let (lo, hi) = unshuffle64(w, pos);
                let (mut rlo, mut rhi) = (0u64, 0u64);
                let (mut nlo, mut nhi) = (0usize, 0usize);
                for i in 0..64 {
                    let bit = w >> i & 1;
                    if (i / g).is_multiple_of(2) {
                        rlo |= bit << nlo;
                        nlo += 1;
                    } else {
                        rhi |= bit << nhi;
                        nhi += 1;
                    }
                }
                assert_eq!((lo, hi), (rlo, rhi), "pos {pos} word {w:#x}");
            }
        }
    }

    #[test]
    fn support_detects_vacuous_vars() {
        // f = x0 & x2 over 4 vars.
        let f = &TruthTable::var(4, 0) & &TruthTable::var(4, 2);
        assert_eq!(f.support(), vec![0, 2]);
        assert!(f.depends_on(0));
        assert!(!f.depends_on(1));
    }

    #[test]
    fn permute_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let f = TruthTable::random(4, &mut rng);
        let g = f.permute(4, &[2, 0, 3, 1]).unwrap();
        // invert the permutation
        let h = g.permute(4, &[1, 3, 0, 2]).unwrap();
        assert_eq!(f, h);
    }

    #[test]
    fn permute_into_larger_space() {
        let f = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        let g = f.permute(4, &[3, 1]).unwrap();
        for m in 0u32..16 {
            assert_eq!(g.eval(m), (m >> 3 & 1) != (m >> 1 & 1));
        }
    }

    #[test]
    fn permute_errors() {
        let f = TruthTable::var(2, 0);
        assert!(matches!(
            f.permute(2, &[0]),
            Err(LogicError::ArityMismatch { .. })
        ));
        assert!(matches!(
            f.permute(2, &[0, 5]),
            Err(LogicError::VarOutOfRange { .. })
        ));
    }

    #[test]
    fn quantification() {
        let f = &TruthTable::var(3, 0) & &TruthTable::var(3, 1);
        assert_eq!(f.exists(0), TruthTable::var(3, 1));
        assert!(f.forall(0).is_zero());
    }

    #[test]
    fn compose_substitutes() {
        // f = x0 & x1; substitute x0 := x2 -> x2 & x1.
        let f = &TruthTable::var(3, 0) & &TruthTable::var(3, 1);
        let g = f.compose(0, &TruthTable::var(3, 2)).unwrap();
        assert_eq!(g, &TruthTable::var(3, 2) & &TruthTable::var(3, 1));
    }

    #[test]
    fn eval_bits_matches_eval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let f = TruthTable::random(5, &mut rng);
        for m in 0u32..32 {
            let bits: Vec<bool> = (0..5).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(f.eval_bits(&bits), f.eval(m));
        }
    }

    #[test]
    fn from_minterms_and_count() {
        let f = TruthTable::from_minterms(3, &[1, 3, 5]);
        assert_eq!(f.count_ones(), 3);
        assert!(f.eval(1) && f.eval(3) && f.eval(5));
        assert!(!f.eval(0));
    }

    #[test]
    fn display_hex() {
        let f = TruthTable::var(3, 2);
        assert_eq!(format!("{f}"), "00000000000000f0");
    }

    #[test]
    fn isf_normalizes_on_set() {
        let on = TruthTable::from_minterms(2, &[0, 3]);
        let dc = TruthTable::from_minterms(2, &[0]);
        let f = Isf::new(on, dc).unwrap();
        assert_eq!(f.value(0), None);
        assert_eq!(f.value(3), Some(true));
        assert_eq!(f.value(1), Some(false));
        assert!(!f.dc_set().is_zero());
    }

    #[test]
    fn isf_admits_completions() {
        let on = TruthTable::from_minterms(2, &[3]);
        let dc = TruthTable::from_minterms(2, &[0]);
        let f = Isf::new(on, dc).unwrap();
        assert!(f.admits(&TruthTable::from_minterms(2, &[3])));
        assert!(f.admits(&TruthTable::from_minterms(2, &[0, 3])));
        assert!(!f.admits(&TruthTable::from_minterms(2, &[1, 3])));
        assert!(!f.admits(&TruthTable::from_minterms(3, &[3])));
    }

    #[test]
    fn zero_var_tables() {
        let z = TruthTable::zero(0);
        let o = TruthTable::one(0);
        assert!(!z.eval(0));
        assert!(o.eval(0));
        assert_eq!((&z | &o).count_ones(), 1);
    }
}
