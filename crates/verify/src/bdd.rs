//! BDD manager audit (`HY3xx`): ROBDD structural invariants over the
//! manager's node table.

use hyde_bdd::{Bdd, Ref};
use hyde_logic::diag::{Code, Diagnostic, Location};
use std::collections::HashMap;

/// `HY301`/`HY302`: ordering/reduction invariant and unique-table audit.
///
/// Every non-terminal node must satisfy `var(node) < var(lo), var(hi)`
/// (terminals order last), have two distinct children (a node with
/// `lo == hi` is redundant and must have been reduced away), and own a
/// unique `(var, lo, hi)` triple — a duplicate means hash-consing was
/// bypassed and `Ref` equality no longer implies function equality.
pub(crate) fn audit(bdd: &Bdd, out: &mut Vec<Diagnostic>) {
    let num_vars = bdd.num_vars();
    let triples: Vec<(usize, usize, Ref, Ref)> = bdd.node_triples().collect();
    let vars: Vec<usize> = triples.iter().map(|&(_, var, _, _)| var).collect();
    // Level of a node for ordering purposes: terminals sort last.
    let level_of = |r: Ref| -> usize {
        if r.index() < 2 {
            usize::MAX
        } else {
            vars.get(r.index() - 2).copied().unwrap_or(usize::MAX)
        }
    };
    let mut seen: HashMap<(usize, usize, usize), usize> = HashMap::new();
    for &(i, var, lo, hi) in &triples {
        if var >= num_vars {
            out.push(
                Diagnostic::new(
                    Code::BddOrdering,
                    format!("node {i} labels variable {var} but the order has {num_vars}"),
                )
                .at(Location::BddNode(i)),
            );
            continue;
        }
        if lo == hi {
            out.push(
                Diagnostic::new(
                    Code::BddOrdering,
                    format!(
                        "node {i} is redundant: both children are node {}",
                        lo.index()
                    ),
                )
                .at(Location::BddNode(i)),
            );
        }
        for (child, which) in [(lo, "lo"), (hi, "hi")] {
            let lvl = level_of(child);
            if lvl <= var {
                out.push(
                    Diagnostic::new(
                        Code::BddOrdering,
                        format!(
                            "node {i} (var {var}) has {which} child {} at var {lvl}: \
                             ordering requires var(node) < var(child)",
                            child.index()
                        ),
                    )
                    .at(Location::BddNode(i)),
                );
            }
        }
        if let Some(&first) = seen.get(&(var, lo.index(), hi.index())) {
            out.push(
                Diagnostic::new(
                    Code::BddDuplicateTriple,
                    format!(
                        "nodes {first} and {i} share the triple (var {var}, lo {}, hi {}): \
                         hash-consing was bypassed",
                        lo.index(),
                        hi.index()
                    ),
                )
                .at(Location::BddNode(i)),
            );
        } else {
            seen.insert((var, lo.index(), hi.index()), i);
        }
    }
}
