//! Encoding checks (`HY1xx`): invariants of compatible-class code
//! assignments, don't-care assignments and decomposition recomposition.
//!
//! * `HY101`/`HY102`: non-injective class codes and pliable code widths,
//!   [`hyde_core::encoding::code_diagnostics`];
//! * `HY103`: a don't-care assignment that merged incompatible chart
//!   columns (below);
//! * `HY104` (plus `HY101`/`HY102` on the step's codes): a decomposition
//!   step must recompose to the function it decomposed,
//!   [`hyde_core::decompose::Decomposition::diagnostics`].

use hyde_core::chart::IsfChart;
use hyde_core::classes::CompatibleClasses;
use hyde_logic::diag::{Code, Diagnostic, Location};

/// `HY103`: a don't-care assignment that merged incompatible chart
/// columns into one class.
///
/// Two ISF columns are compatible iff they agree wherever both are
/// specified (Section 3.1 of the paper); an assignment may only merge
/// compatible columns, otherwise the completed function changes on the
/// care set.
pub(crate) fn dc_assign(chart: &IsfChart, classes: &CompatibleClasses, out: &mut Vec<Diagnostic>) {
    let columns = chart.columns().len();
    if classes.class_map().len() != columns {
        out.push(Diagnostic::new(
            Code::EncodingDcMergesIncompatible,
            format!(
                "assignment maps {} columns but the chart has {columns}",
                classes.class_map().len()
            ),
        ));
        return;
    }
    // Group columns by assigned class, then check pairwise
    // compatibility inside every class.
    let nclasses = classes
        .class_map()
        .iter()
        .max()
        .map_or(classes.len(), |&m| classes.len().max(m + 1));
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); nclasses];
    for (col, &cls) in classes.class_map().iter().enumerate() {
        members[cls].push(col);
    }
    for (cls, cols) in members.iter().enumerate() {
        for (i, &a) in cols.iter().enumerate() {
            for &b in &cols[i + 1..] {
                if !chart.columns_compatible(a, b) {
                    out.push(
                        Diagnostic::new(
                            Code::EncodingDcMergesIncompatible,
                            format!(
                                "don't-care assignment merged incompatible columns {a} and {b}"
                            ),
                        )
                        .at(Location::Class(cls)),
                    );
                }
            }
        }
    }
}
