//! Conflict-driven clause-learning SAT solver.
//!
//! A compact MiniSat-style core: two-watched-literal propagation with
//! blocker literals, first-UIP learning with recursive clause
//! minimization, heap-ordered VSIDS branching (highest activity first,
//! the lowest variable index winning ties), Luby restarts, LBD-ranked
//! learned-clause deletion, and assumption-based solving with
//! failed-assumption extraction.
//!
//! Learned clauses are deleted at restarts: once the kept ones reach
//! `2000 + 300 * reductions`, the worse half by literal block distance
//! (LBD, the number of decision levels a clause spans when learned) goes,
//! except glue clauses (LBD ≤ 2), binary clauses and the reasons of
//! assigned variables. The ranking breaks ties by clause index, so the
//! search is deterministic. The arena is compacted right away, so the
//! space of deleted clauses is reclaimed.
//!
//! Data layout: all clause literals live back to back in one flat arena,
//! located by a `(start, len)` span per clause index; a watch pairs a
//! clause index with a blocker literal from the same clause, so a watch
//! whose blocker is true is skipped without reading the clause; truth
//! values are kept per literal, so reading one is a single load.
//! `tests/search_identity.rs` pins the search (every decision,
//! propagation, conflict and restart) on fixed instances.

use crate::cnf::Lit;
use std::cmp::Reverse;
use std::time::{Duration, Instant};

/// Result of a (budgeted) solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The clauses (under the given assumptions) are unsatisfiable; the
    /// failed assumptions are available via [`Solver::unsat_core`].
    Unsat,
    /// The conflict or time budget ran out before an answer was proved.
    Unknown,
}

/// Search-effort counters, cumulative over the solver's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Number of variables allocated.
    pub vars: usize,
    /// Number of problem clauses added (after root-level simplification).
    pub clauses: usize,
    /// Number of learned clauses currently kept.
    pub learned: usize,
    /// Learned clauses deleted so far.
    pub deleted: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Effort bound for one solve call.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum number of conflicts before giving up with
    /// [`Outcome::Unknown`].
    pub max_conflicts: u64,
    /// Wall-clock limit for the call.
    pub max_time: Duration,
}

impl Budget {
    /// A practically unlimited budget.
    pub fn unlimited() -> Self {
        Budget {
            max_conflicts: u64::MAX,
            max_time: Duration::from_secs(u64::MAX / 4),
        }
    }

    /// A budget with the given conflict cap and a generous time cap.
    pub fn conflicts(max_conflicts: u64) -> Self {
        Budget {
            max_conflicts,
            max_time: Duration::from_secs(3600),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_conflicts: 200_000,
            max_time: Duration::from_secs(10),
        }
    }
}

const UNASSIGNED: i8 = 0;
const NO_REASON: i32 = -1;
const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 256;
/// A restart reduces the learned clauses once the kept ones reach
/// `REDUCE_BASE + REDUCE_STEP * (reductions so far)`.
const REDUCE_BASE: usize = 2000;
const REDUCE_STEP: usize = 300;

/// Where one clause lives in the arena: `arena[start..start + len]`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    /// LBD of a learned clause when it was learned; `0` for a problem
    /// clause, which is never deleted.
    lbd: u32,
}

/// One entry of a watch list: clause `ci` watches the list's literal,
/// and `blocker` is another literal of the clause. A true blocker
/// satisfies the clause, so propagation skips it unread.
#[derive(Debug, Clone, Copy)]
struct Watch {
    ci: u32,
    blocker: Lit,
}

/// The bit standing for decision level `level` in a 32-bit summary of a
/// set of levels (MiniSat's abstract level).
#[inline]
fn abstract_level(level: u32) -> u32 {
    1 << (level & 31)
}

/// The truth value of `l` in a literal-indexed value array.
#[inline]
fn lit_value(vals: &[i8], l: Lit) -> i8 {
    vals[l.index()]
}

/// Sets `l` to `truth` and `!l` to its negation (`0` unassigns both).
#[inline]
fn set_value(vals: &mut [i8], l: Lit, truth: i8) {
    let base = l.index() & !1;
    vals[base..base + 2].copy_from_slice(&if l.is_neg() {
        [-truth, truth]
    } else {
        [truth, -truth]
    });
}

/// Decision order: a binary max-heap of variables keyed on activity,
/// the lower index winning ties. That is a strict total order, so the
/// top is exactly the variable a linear scan for the first highest
/// activity would pick, whatever the heap's internal layout.
///
/// The heap holds every unassigned variable and possibly some assigned
/// ones, which [`Solver::pick_branch_var`] drops lazily from the top.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// `pos[v]` is `v`'s slot in `heap`, or [`VarOrder::ABSENT`].
    pos: Vec<u32>,
}

impl VarOrder {
    const ABSENT: u32 = u32::MAX;

    /// Whether `a` must be decided before `b`.
    #[inline]
    fn before(act: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (act[a as usize], act[b as usize]);
        x > y || (x == y && a < b)
    }

    #[inline]
    fn place(&mut self, slot: usize, v: u32) {
        self.heap[slot] = v;
        self.pos[v as usize] = slot as u32;
    }

    fn top(&self) -> Option<usize> {
        self.heap.first().map(|&v| v as usize)
    }

    /// Registers a new variable `v == pos.len()` and queues it.
    fn add_var(&mut self, v: usize, act: &[f64]) {
        self.pos.push(Self::ABSENT);
        self.insert(v, act);
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.pos[v] == Self::ABSENT {
            self.heap.push(v as u32);
            self.sift_up(self.heap.len() - 1, act);
        }
    }

    /// Restores the heap after `v`'s activity grew.
    fn raised(&mut self, v: usize, act: &[f64]) {
        let slot = self.pos[v];
        if slot != Self::ABSENT {
            self.sift_up(slot as usize, act);
        }
    }

    /// Removes the top variable.
    fn pop(&mut self, act: &[f64]) {
        if let Some(last) = self.heap.pop() {
            if let Some(&top) = self.heap.first() {
                self.pos[top as usize] = Self::ABSENT;
                self.place(0, last);
                self.sift_down(0, act);
            } else {
                self.pos[last as usize] = Self::ABSENT;
            }
        }
    }

    /// Re-heapifies in place, for when many keys changed at once.
    fn rebuild(&mut self, act: &[f64]) {
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot, act);
        }
    }

    fn sift_up(&mut self, mut slot: usize, act: &[f64]) {
        let v = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(act, v, p) {
                break;
            }
            self.place(slot, p);
            slot = parent;
        }
        self.place(slot, v);
    }

    fn sift_down(&mut self, mut slot: usize, act: &[f64]) {
        let v = self.heap[slot];
        loop {
            let left = 2 * slot + 1;
            let Some(&l) = self.heap.get(left) else { break };
            let child = match self.heap.get(left + 1) {
                Some(&r) if Self::before(act, r, l) => (left + 1, r),
                _ => (left, l),
            };
            if !Self::before(act, child.1, v) {
                break;
            }
            self.place(slot, child.1);
            slot = child.0;
        }
        self.place(slot, v);
    }
}

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use hyde_sat::{Lit, Outcome, Solver};
///
/// let mut s = Solver::new();
/// let a = Lit::pos(s.new_var());
/// let b = Lit::pos(s.new_var());
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a, b]);
/// assert_eq!(s.solve(&[]), Outcome::Sat);
/// assert!(s.model_value(b.var()));
/// assert_eq!(s.solve(&[!b]), Outcome::Unsat);
/// assert_eq!(s.unsat_core(), &[!b]);
/// ```
#[derive(Debug)]
pub struct Solver {
    /// Every clause's literals back to back; `spans[ci]` locates clause
    /// `ci`. Watched literals sit at offsets 0 and 1.
    arena: Vec<Lit>,
    spans: Vec<Span>,
    /// `watches[lit.index()]` lists clauses to inspect when `lit`
    /// becomes true (they watch `!lit`).
    watches: Vec<Vec<Watch>>,
    /// Per-literal truth value, `vals[lit.index()]`: `1` true, `-1`
    /// false, `0` unassigned.
    vals: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<i32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    polarity: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch for clause minimization: literals marked `seen` that must
    /// be unmarked afterwards, and the depth-first walk's stack.
    to_clear: Vec<Lit>,
    stack: Vec<Lit>,
    core: Vec<Lit>,
    /// Snapshot of `vals` at the last [`Outcome::Sat`] answer; the
    /// search itself backtracks to the root so the solver stays
    /// incremental (more clauses/solves may follow).
    model: Vec<i8>,
    ok: bool,
    reductions: usize,
    stats: Stats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            spans: Vec::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrder::default(),
            polarity: Vec::new(),
            seen: Vec::new(),
            to_clear: Vec::new(),
            stack: Vec::new(),
            core: Vec::new(),
            model: Vec::new(),
            ok: true,
            reductions: 0,
            stats: Stats::default(),
        }
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.level.len();
        self.vals.extend([UNASSIGNED; 2]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.add_var(v, &self.activity);
        self.stats.vars = self.level.len();
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Whether the clause set is still possibly satisfiable (false once
    /// a root-level contradiction has been derived).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn value(&self, l: Lit) -> i8 {
        lit_value(&self.vals, l)
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// The arena range of clause `ci`.
    fn range(&self, ci: usize) -> std::ops::Range<usize> {
        let Span { start, len, .. } = self.spans[ci];
        start as usize..(start + len) as usize
    }

    /// Adds a clause. Must be called at decision level 0 (i.e. outside
    /// of `solve`). Returns `false` if the clause set became trivially
    /// unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if any literal's variable has not been allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause during search");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        for l in &c {
            assert!(l.var() < self.num_vars(), "literal {l} out of range");
        }
        c.sort_unstable();
        c.dedup();
        // Tautology or already-satisfied at root level.
        if c.windows(2)
            .any(|w| matches!(*w, [a, b] if a.var() == b.var()))
        {
            return true;
        }
        if c.iter().any(|&l| self.value(l) == 1) {
            return true;
        }
        c.retain(|&l| self.value(l) != -1);
        match c.as_slice() {
            [] => {
                self.ok = false;
                false
            }
            &[unit] => {
                self.enqueue(unit, NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(&c, 0);
                true
            }
        }
    }

    /// Appends a clause of two or more literals to the arena and watches
    /// its first two, each with the other as blocker. `lbd` is `0` for a
    /// problem clause.
    fn attach(&mut self, lits: &[Lit], lbd: u32) -> usize {
        let ci = self.spans.len();
        if let [a, b, ..] = *lits {
            for (watched, blocker) in [(a, b), (b, a)] {
                self.watches[(!watched).index()].push(Watch {
                    ci: ci as u32,
                    blocker,
                });
            }
        }
        self.spans.push(Span {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
            lbd,
        });
        self.arena.extend_from_slice(lits);
        if lbd > 0 {
            self.stats.learned += 1;
        } else {
            self.stats.clauses += 1;
        }
        ci
    }

    fn enqueue(&mut self, l: Lit, reason: i32) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        set_value(&mut self.vals, l, 1);
        self.level[l.var()] = self.decision_level() as u32;
        self.reason[l.var()] = reason;
        self.trail.push(l);
    }

    /// Runs unit propagation to fixpoint; returns a conflicting clause
    /// index if one is found.
    fn propagate(&mut self) -> Option<usize> {
        while let Some(&p) = self.trail.get(self.qhead) {
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Scan `p`'s list detached: a watch never moves onto the
            // false literal, so nothing is pushed back onto it meanwhile.
            // Kept watches are compacted to the front, `ws[..kept]`.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            let mut kept = 0;
            let mut i = 0;
            while let Some(&w) = ws.get(i) {
                i += 1;
                let w = if lit_value(&self.vals, w.blocker) == 1 {
                    w
                } else {
                    let range = self.range(w.ci as usize);
                    let c = &mut self.arena[range];
                    // Normalize so the falsified watched literal sits at 1.
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                    let first = c[0];
                    let first_value = lit_value(&self.vals, first);
                    let w = Watch {
                        ci: w.ci,
                        blocker: first,
                    };
                    if first_value != 1 {
                        if let Some(k) = (2..c.len()).find(|&k| lit_value(&self.vals, c[k]) != -1) {
                            c.swap(1, k);
                            self.watches[(!c[1]).index()].push(w);
                            continue;
                        }
                        if first_value == -1 {
                            conflict = Some(w.ci as usize);
                        } else {
                            self.enqueue(first, w.ci as i32);
                        }
                    }
                    w
                };
                ws[kept] = w;
                kept += 1;
                if conflict.is_some() {
                    // Keep the unvisited watches and flush the queue so the
                    // caller restarts propagation cleanly after
                    // backtracking.
                    ws.copy_within(i.., kept);
                    kept += ws.len() - i;
                    self.qhead = self.trail.len();
                    break;
                }
            }
            ws.truncate(kept);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, var: usize) {
        let a = &mut self.activity[var];
        *a += self.var_inc;
        if *a > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a /= RESCALE_LIMIT;
            }
            self.var_inc /= RESCALE_LIMIT;
            // Dividing keeps the order but can round distinct activities
            // into ties, which the index tie-break may now order the
            // other way round.
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(var, &self.activity);
        }
    }

    fn decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the minimized learned clause
    /// (with the asserting literal at index 0 and a highest-level literal
    /// at index 1) and the backjump level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, usize) {
        let current = self.decision_level();
        // The learned clause's literals below the current level.
        let mut tail: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut ci = conflict;
        let mut skip_head = false;
        let uip = loop {
            let range = self.range(ci);
            for k in range.start + usize::from(skip_head)..range.end {
                let q = self.arena[k];
                let v = q.var();
                let level = self.level[v] as usize;
                if !self.seen[v] && level > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if level == current {
                        counter += 1;
                    } else {
                        tail.push(q);
                    }
                }
            }
            // Walk back to the next marked literal on the trail.
            let p = loop {
                idx -= 1;
                let p = self.trail[idx];
                if self.seen[p.var()] {
                    break p;
                }
            };
            self.seen[p.var()] = false;
            counter -= 1;
            if counter == 0 {
                break !p;
            }
            ci = self.reason[p.var()] as usize;
            skip_head = true; // reason clause holds p at index 0
        };
        self.minimize(&mut tail);
        // The first literal of the highest level goes first in the tail.
        let highest = tail
            .iter()
            .map(|l| self.level[l.var()])
            .enumerate()
            .max_by_key(|&(k, level)| (level, Reverse(k)));
        let mut back = 0;
        if let Some((k, level)) = highest {
            tail.swap(0, k);
            back = level as usize;
        }
        tail.insert(0, uip);
        (tail, back)
    }

    /// Recursive learned-clause minimization (MiniSat's `litRedundant`):
    /// drops every literal of `tail` (the learned clause minus its
    /// asserting literal) that the others imply through reason clauses.
    /// Expects the variables of `tail` marked `seen`, and leaves every
    /// mark cleared.
    fn minimize(&mut self, tail: &mut Vec<Lit>) {
        let levels = tail
            .iter()
            .fold(0, |acc, l| acc | abstract_level(self.level[l.var()]));
        self.to_clear.clear();
        self.to_clear.extend_from_slice(tail);
        tail.retain(|&l| self.reason[l.var()] == NO_REASON || !self.redundant(l, levels));
        for l in self.to_clear.drain(..) {
            self.seen[l.var()] = false;
        }
    }

    /// Whether literal `p` of a learned clause, false by propagation, is
    /// implied by the clause's other literals: every path back through
    /// reason clauses ends in a marked (`seen`) or root-level literal. `levels`
    /// is the abstract level of the clause; a literal whose level is not
    /// in it cannot be implied by the clause and fails fast. Literals
    /// proved implied stay marked, recorded in `to_clear`.
    fn redundant(&mut self, p: Lit, levels: u32) -> bool {
        let top = self.to_clear.len();
        self.stack.clear();
        self.stack.push(p);
        while let Some(q) = self.stack.pop() {
            // The reason clause holds `!q`, the literal it implied, at
            // index 0.
            let range = self.range(self.reason[q.var()] as usize);
            for k in range.start + 1..range.end {
                let r = self.arena[k];
                let v = r.var();
                let level = self.level[v];
                if self.seen[v] || level == 0 {
                    continue;
                }
                if self.reason[v] != NO_REASON && abstract_level(level) & levels != 0 {
                    self.seen[v] = true;
                    self.stack.push(r);
                    self.to_clear.push(r);
                } else {
                    for l in self.to_clear.drain(top..) {
                        self.seen[l.var()] = false;
                    }
                    return false;
                }
            }
        }
        true
    }

    /// The number of distinct decision levels among `lits`.
    fn lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Deletes the worse half of the learned clauses, ranked by LBD
    /// (highest first) and then by clause index, sparing glue (LBD ≤ 2),
    /// binary and locked clauses, then compacts the arena and re-indexes
    /// spans, watches and reasons. Runs at decision level 0.
    fn reduce_learned(&mut self) {
        const DELETED: u32 = u32::MAX;
        debug_assert_eq!(self.decision_level(), 0);
        self.reductions += 1;
        let mut locked = vec![false; self.spans.len()];
        for &r in self.reason.iter().filter(|&&r| r != NO_REASON) {
            locked[r as usize] = true;
        }
        // Learned clauses, worst first, each with whether it may go.
        let mut ranked: Vec<(Reverse<u32>, usize, bool)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lbd > 0)
            .map(|(ci, s)| (Reverse(s.lbd), ci, s.lbd > 2 && s.len > 2 && !locked[ci]))
            .collect();
        ranked.sort_unstable();
        // `remap[ci]` becomes the clause's new index, `DELETED` if it goes.
        let mut remap = vec![0; self.spans.len()];
        for &(_, ci, deletable) in ranked.iter().take(ranked.len() / 2) {
            if deletable {
                remap[ci] = DELETED;
            }
        }
        let old = std::mem::replace(&mut self.spans, Vec::with_capacity(remap.len()));
        let mut end = 0;
        for (span, to) in old.into_iter().zip(&mut remap) {
            if *to == DELETED {
                continue;
            }
            *to = self.spans.len() as u32;
            let start = span.start as usize;
            self.arena
                .copy_within(start..start + span.len as usize, end as usize);
            self.spans.push(Span { start: end, ..span });
            end += span.len;
        }
        self.arena.truncate(end as usize);
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                w.ci = remap[w.ci as usize];
                w.ci != DELETED
            });
        }
        for r in self.reason.iter_mut().filter(|r| **r != NO_REASON) {
            *r = remap[*r as usize] as i32;
        }
        let deleted = remap.iter().filter(|&&to| to == DELETED).count();
        self.stats.learned -= deleted;
        self.stats.deleted += deleted as u64;
    }

    /// Computes the subset of assumptions responsible for forcing
    /// `failed` false (the failed-assumption / UNSAT-core set).
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        let Some(&start) = self.trail_lim.first() else {
            return core;
        };
        self.seen[failed.var()] = true;
        for i in (start..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !std::mem::take(&mut self.seen[v]) {
                continue;
            }
            let r = self.reason[v];
            if r == NO_REASON {
                // Decisions below the first conflict are assumptions.
                core.push(l);
            } else {
                let range = self.range(r as usize);
                for k in range.start + 1..range.end {
                    let q = self.arena[k].var();
                    if self.level[q] > 0 {
                        self.seen[q] = true;
                    }
                }
            }
        }
        self.seen[failed.var()] = false;
        core
    }

    fn backtrack(&mut self, to_level: usize) {
        if self.decision_level() <= to_level {
            return;
        }
        let bound = self.trail_lim[to_level];
        for l in self.trail.drain(bound..).rev() {
            let v = l.var();
            self.polarity[v] = !l.is_neg();
            set_value(&mut self.vals, l, UNASSIGNED);
            self.reason[v] = NO_REASON;
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(to_level);
        self.qhead = self.qhead.min(self.trail.len());
    }

    /// The unassigned variable with the highest activity, lowest index
    /// first among equals. It stays queued until it is found assigned.
    fn pick_branch_var(&mut self) -> Option<usize> {
        while let Some(v) = self.order.top() {
            if self.value(Lit::pos(v)) == UNASSIGNED {
                return Some(v);
            }
            self.order.pop(&self.activity);
        }
        None
    }

    /// Solves under the given assumptions with an unlimited budget.
    pub fn solve(&mut self, assumptions: &[Lit]) -> Outcome {
        self.solve_budgeted(assumptions, &Budget::unlimited())
    }

    /// Solves under the given assumptions, giving up with
    /// [`Outcome::Unknown`] once the budget is exhausted.
    pub fn solve_budgeted(&mut self, assumptions: &[Lit], budget: &Budget) -> Outcome {
        let _obs = hyde_obs::span!("sat.solve");
        let before = self.stats;
        let out = self.solve_budgeted_inner(assumptions, budget);
        if hyde_obs::enabled() {
            hyde_obs::counter("sat.solves", 1);
            hyde_obs::counter("sat.vars", self.stats.vars as u64);
            hyde_obs::counter("sat.clauses", self.stats.clauses as u64);
            hyde_obs::counter("sat.conflicts", self.stats.conflicts - before.conflicts);
            hyde_obs::counter("sat.decisions", self.stats.decisions - before.decisions);
            hyde_obs::counter(
                "sat.propagations",
                self.stats.propagations - before.propagations,
            );
            hyde_obs::counter("sat.restarts", self.stats.restarts - before.restarts);
        }
        out
    }

    fn solve_budgeted_inner(&mut self, assumptions: &[Lit], budget: &Budget) -> Outcome {
        self.core.clear();
        if !self.ok {
            return Outcome::Unsat;
        }
        // sa:allow(SA002): the time budget decides only whether we stop
        // with Outcome::Unknown; it cannot alter a Sat/Unsat answer.
        let start = Instant::now();
        let start_conflicts = self.stats.conflicts;
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return Outcome::Unsat;
        }
        let mut restart_seq = 1u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(ci) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Outcome::Unsat;
                }
                let (learnt, back) = self.analyze(ci);
                let lbd = self.lbd(&learnt);
                self.backtrack(back);
                if let [unit] = *learnt.as_slice() {
                    self.enqueue(unit, NO_REASON);
                } else {
                    let ci = self.attach(&learnt, lbd);
                    self.enqueue(learnt[0], ci as i32);
                }
                self.decay();
                if self.stats.conflicts - start_conflicts >= budget.max_conflicts
                    || start.elapsed() >= budget.max_time
                {
                    self.backtrack(0);
                    return Outcome::Unknown;
                }
                if conflicts_since_restart >= luby(restart_seq) * RESTART_BASE {
                    restart_seq += 1;
                    conflicts_since_restart = 0;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    if self.stats.learned >= REDUCE_BASE + REDUCE_STEP * self.reductions {
                        self.reduce_learned();
                    }
                }
            } else if let Some(&a) = assumptions.get(self.decision_level()) {
                assert!(a.var() < self.num_vars(), "assumption {a} out of range");
                match self.value(a) {
                    1 => self.trail_lim.push(self.trail.len()),
                    -1 => {
                        self.core = self.analyze_final(a);
                        self.backtrack(0);
                        return Outcome::Unsat;
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, NO_REASON);
                    }
                }
            } else if let Some(v) = self.pick_branch_var() {
                if start.elapsed() >= budget.max_time {
                    self.backtrack(0);
                    return Outcome::Unknown;
                }
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(Lit::new(v, !self.polarity[v]), NO_REASON);
            } else {
                self.model.clone_from(&self.vals);
                self.backtrack(0);
                return Outcome::Sat;
            }
        }
    }

    /// The truth value of `var` in the model found by the last
    /// [`Outcome::Sat`] answer.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range; the value is only meaningful
    /// directly after a `Sat` outcome (before further clauses/solves).
    pub fn model_value(&self, var: usize) -> bool {
        self.model[Lit::pos(var).index()] == 1
    }

    /// After an [`Outcome::Unsat`] answer under assumptions: the subset
    /// of assumption literals that together are contradictory. Empty if
    /// the clause set is unsatisfiable regardless of assumptions.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }
}

/// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ...
fn luby(mut i: u64) -> u64 {
    // 1-based: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... If i+1 is a power of
    // two then i = 2^k - 1 ends a block and the value is 2^(k-1);
    // otherwise strip the largest complete block below i and recurse.
    loop {
        if (i + 1).is_power_of_two() {
            return (i + 1) >> 1;
        }
        let k = 63 - (i + 1).leading_zeros();
        i -= (1u64 << k) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, neg: bool) -> Lit {
        Lit::new(v, neg)
    }

    fn fresh(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn luby_prefix_matches_reference() {
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn unit_propagation_chains_to_fixpoint() {
        // a, a->b, b->c forces c without any decision.
        let mut s = Solver::new();
        let v = fresh(&mut s, 3);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        assert_eq!(s.solve(&[]), Outcome::Sat);
        assert_eq!(s.stats().decisions, 0);
        assert!(s.model_value(v[2].var()));
    }

    #[test]
    fn root_contradiction_is_unsat() {
        let mut s = Solver::new();
        let v = fresh(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(&[]), Outcome::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn conflict_analysis_learns_and_solves_xor_chain() {
        // x1 xor x2 xor x3 = 1 as CNF; satisfiable, needs real search.
        let mut s = Solver::new();
        let v = fresh(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.add_clause(&[v[0], !v[1], !v[2]]);
        s.add_clause(&[!v[0], v[1], !v[2]]);
        s.add_clause(&[!v[0], !v[1], v[2]]);
        assert_eq!(s.solve(&[]), Outcome::Sat);
        let parity = s.model_value(0) ^ s.model_value(1) ^ s.model_value(2);
        assert!(parity);
    }

    #[test]
    fn conflict_analysis_proves_pigeonhole_3_into_2() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes: UNSAT, and the
        // proof requires learning (no root-level contradiction exists).
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3).map(|_| fresh(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[!*a, !*b]);
                }
            }
        }
        assert_eq!(s.solve(&[]), Outcome::Unsat);
        assert!(s.stats().conflicts > 0, "PHP needs conflict analysis");
    }

    #[test]
    fn assumptions_yield_minimal_failed_set() {
        // a & b -> bot, c free. Core must mention a and b only.
        let mut s = Solver::new();
        let v = fresh(&mut s, 3);
        s.add_clause(&[!v[0], !v[1]]);
        assert_eq!(s.solve(&[v[0], v[2], v[1]]), Outcome::Unsat);
        let mut core = s.unsat_core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![v[0], v[1]]);
        // Still satisfiable under the remaining assumption alone.
        assert_eq!(s.solve(&[v[2]]), Outcome::Sat);
    }

    #[test]
    fn unsat_core_traces_through_propagation() {
        // Assumptions a, d; a -> b, b -> c, c & d -> bot. The core must
        // pull in `a` through the implication chain, not just `d`.
        let mut s = Solver::new();
        let v = fresh(&mut s, 4);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[2], !v[3]]);
        assert_eq!(s.solve(&[v[0], v[3]]), Outcome::Unsat);
        let mut core = s.unsat_core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![v[0], v[3]]);
    }

    #[test]
    fn budget_zero_time_reports_unknown() {
        let mut s = Solver::new();
        let v = fresh(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        let b = Budget {
            max_conflicts: u64::MAX,
            max_time: Duration::from_secs(0),
        };
        assert_eq!(s.solve_budgeted(&[], &b), Outcome::Unknown);
        // The solver stays usable after an Unknown answer.
        assert_eq!(s.solve(&[]), Outcome::Sat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let nvars = 6 + (round % 4);
            let nclauses = 2 * nvars + (round % 7);
            let mut s = Solver::new();
            let v = fresh(&mut s, nvars);
            let mut cls: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let r = next() as usize;
                    c.push(lit(r % nvars, (r >> 8) & 1 == 1));
                }
                cls.push(c);
            }
            for c in &cls {
                s.add_clause(c);
            }
            let brute = (0u32..1 << nvars).any(|m| {
                cls.iter()
                    .all(|c| c.iter().any(|l| (m >> l.var() & 1 == 1) != l.is_neg()))
            });
            let got = s.solve(&[]);
            assert_eq!(
                got,
                if brute { Outcome::Sat } else { Outcome::Unsat },
                "round {round} disagrees with brute force"
            );
            if got == Outcome::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|l| s.model_value(l.var()) != l.is_neg()),
                        "model does not satisfy clause"
                    );
                }
            }
            let _ = &v;
        }
    }

    #[test]
    fn incremental_solving_agrees_with_brute_force() {
        // One solver per round across many solves: clauses arrive in
        // batches between calls and every call runs under fresh random
        // assumptions, so value resets, decision-heap re-insertion and
        // learned clauses all carry from one call into the next.
        let mut state = 0x0ddc_0ffe_e15e_a5e5u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let holds = |m: usize, l: &Lit| (m >> l.var() & 1 == 1) != l.is_neg();
        let (mut sat, mut unsat, mut unknown) = (0, 0, 0);
        for round in 0..24 {
            let nvars = 6 + round % 5;
            let mut s = Solver::new();
            fresh(&mut s, nvars);
            let mut cls: Vec<Vec<Lit>> = Vec::new();
            for _batch in 0..8 {
                for _ in 0..nvars / 2 {
                    let len = if next(32) == 0 { 1 } else { 3 + next(2) };
                    let c: Vec<Lit> = (0..len).map(|_| lit(next(nvars), next(2) == 1)).collect();
                    s.add_clause(&c);
                    cls.push(c);
                }
                // Minterms satisfying the clause set so far.
                let models: Vec<usize> = (0..1 << nvars)
                    .filter(|&m| cls.iter().all(|c| c.iter().any(|l| holds(m, l))))
                    .collect();
                let sat_under =
                    |assumed: &[Lit]| models.iter().any(|&m| assumed.iter().all(|l| holds(m, l)));
                for call in 0..4 {
                    let assumed: Vec<Lit> = (0..next(5))
                        .map(|_| lit(next(nvars), next(2) == 1))
                        .collect();
                    let budget = if call == 3 {
                        Budget::conflicts(1)
                    } else {
                        Budget::unlimited()
                    };
                    let got = s.solve_budgeted(&assumed, &budget);
                    let want = sat_under(&assumed);
                    match got {
                        Outcome::Unknown => {
                            unknown += 1;
                            continue;
                        }
                        Outcome::Sat => sat += 1,
                        Outcome::Unsat => unsat += 1,
                    }
                    assert_eq!(got == Outcome::Sat, want, "round {round}: verdict");
                    if got == Outcome::Sat {
                        let model_lit = |l: &Lit| s.model_value(l.var()) != l.is_neg();
                        assert!(cls.iter().all(|c| c.iter().any(model_lit)));
                        assert!(assumed.iter().all(model_lit));
                    } else {
                        let core = s.unsat_core();
                        assert!(
                            core.iter().all(|l| assumed.contains(l)),
                            "core ⊄ assumptions"
                        );
                        assert!(!sat_under(core), "round {round}: core is satisfiable");
                    }
                }
            }
        }
        assert!(
            sat > 100 && unsat > 100 && unknown > 0,
            "{sat}/{unsat}/{unknown}"
        );
    }
}
