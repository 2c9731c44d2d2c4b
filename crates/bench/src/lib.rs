//! Shared harness for regenerating the HYDE paper's tables and figures.
//!
//! The binaries (`table1`, `table2`, `figures`, `ablation`) print the same
//! rows the paper reports; this library holds the flow runners, the
//! embedded paper numbers for side-by-side comparison, and the table
//! formatting. [`chaos`] holds the fault-injection drill behind
//! `hyde-bench --chaos`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

use hyde_circuits::Circuit;
use hyde_core::CoreError;
use hyde_map::flow::{FlowKind, MappingFlow};
use hyde_map::MappingReport;

/// Paper numbers for Table 1 (XC3000 CLB counts): (circuit, IMODEC, FGSyn,
/// HYDE). `None` marks a dash in the paper.
pub const PAPER_TABLE1: &[(&str, Option<u32>, Option<u32>, u32)] = &[
    ("5xp1", Some(9), Some(9), 10),
    ("9sym", Some(7), Some(7), 6),
    ("alu2", Some(46), Some(55), 43),
    ("alu4", Some(168), Some(56), 140),
    ("apex6", Some(129), Some(181), 135),
    ("apex7", Some(41), Some(43), 39),
    ("clip", Some(12), Some(18), 11),
    ("count", Some(26), Some(23), 24),
    ("des", Some(489), None, 408),
    ("duke2", Some(122), Some(85), 75),
    ("e64", Some(55), Some(44), 48),
    ("f51m", Some(8), Some(8), 8),
    ("misex1", Some(9), Some(8), 9),
    ("misex2", Some(21), Some(22), 22),
    ("rd73", Some(5), Some(5), 5),
    ("rd84", Some(8), Some(8), 7),
    ("rot", Some(127), Some(136), 125),
    ("sao2", Some(17), Some(25), 17),
    ("vg2", Some(19), Some(17), 18),
    ("z4ml", Some(4), Some(4), 4),
    ("C499", Some(50), Some(54), 50),
    ("C880", Some(81), Some(87), 68),
];

/// One Table 2 row: (circuit, `[8]` w/o resub, `[8]` w/ resub, `[8]` PO,
/// HYDE). `None` marks a dash.
pub type Table2Row = (&'static str, Option<u32>, Option<u32>, Option<u32>, u32);

/// Paper numbers for Table 2 (5-input LUT counts).
pub const PAPER_TABLE2: &[Table2Row] = &[
    ("5xp1", Some(15), Some(11), Some(10), 13),
    ("9sym", Some(7), Some(7), Some(7), 6),
    ("alu2", Some(48), Some(48), Some(48), 50),
    ("alu4", Some(172), Some(90), Some(56), 206),
    ("apex4", Some(374), Some(374), Some(374), 354),
    ("apex6", Some(192), Some(161), Some(155), 186),
    ("apex7", Some(120), Some(61), Some(54), 54),
    ("b9", Some(53), Some(39), Some(37), 36),
    ("clip", Some(18), Some(11), Some(14), 14),
    ("count", Some(52), Some(31), Some(31), 31),
    ("des", None, None, None, 561),
    ("duke2", Some(175), Some(155), Some(150), 116),
    ("e64", None, None, None, 80),
    ("f51m", Some(12), Some(10), Some(8), 12),
    ("misex1", Some(12), Some(10), Some(10), 13),
    ("misex2", Some(40), Some(36), Some(36), 29),
    ("misex3", Some(195), Some(213), Some(120), 131),
    ("rd73", Some(8), Some(6), Some(6), 6),
    ("rd84", Some(12), Some(7), Some(8), 9),
    ("rot", None, None, None, 185),
    ("sao2", Some(23), Some(21), Some(21), 22),
    ("vg2", Some(44), Some(21), Some(17), 18),
    ("z4ml", Some(6), Some(5), Some(4), 5),
    ("C499", None, None, None, 70),
    ("C880", None, None, None, 81),
];

/// One measured row: circuit name plus one report per flow.
#[derive(Debug)]
pub struct Row {
    /// Circuit name.
    pub circuit: String,
    /// Reports in flow order.
    pub reports: Vec<MappingReport>,
}

/// Runs every flow on every circuit, returning one [`Row`] per circuit.
///
/// # Errors
///
/// Propagates the first mapping failure (the suite is expected to map
/// cleanly; failures indicate bugs).
pub fn run_suite(
    circuits: &[Circuit],
    flows: &[(String, MappingFlow)],
) -> Result<Vec<Row>, CoreError> {
    let mut rows = Vec::with_capacity(circuits.len());
    for c in circuits {
        let mut reports = Vec::with_capacity(flows.len());
        for (_, flow) in flows {
            reports.push(flow.map_outputs(&c.name, &c.outputs)?);
        }
        rows.push(Row {
            circuit: c.name.clone(),
            reports,
        });
    }
    Ok(rows)
}

/// Formats rows as an aligned text table; `metric` extracts the number to
/// print per report (CLBs or LUTs).
pub fn format_table(
    title: &str,
    flows: &[(String, MappingFlow)],
    rows: &[Row],
    metric: impl Fn(&MappingReport) -> usize,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = write!(s, "{:<10}", "circuit");
    for (name, _) in flows {
        let _ = write!(s, "{name:>14}");
    }
    let _ = writeln!(s, "{:>10}", "time(s)");
    let mut totals = vec![0usize; flows.len()];
    for row in rows {
        let _ = write!(s, "{:<10}", row.circuit);
        for (i, r) in row.reports.iter().enumerate() {
            let v = metric(r);
            totals[i] += v;
            let _ = write!(s, "{v:>14}");
        }
        let t: f64 = row.reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
        let _ = writeln!(s, "{t:>10.2}");
    }
    let _ = write!(s, "{:<10}", "Total");
    for t in &totals {
        let _ = write!(s, "{t:>14}");
    }
    let _ = writeln!(s);
    s
}

/// The standard flow set for Table 1: IMODEC-like, FGSyn-like, HYDE.
pub fn table1_flows(k: usize) -> Vec<(String, MappingFlow)> {
    vec![
        (
            "imodec-like".into(),
            MappingFlow::new(k, FlowKind::imodec_like()),
        ),
        (
            "fgsyn-like".into(),
            MappingFlow::new(k, FlowKind::fgsyn_like()),
        ),
        ("hyde".into(), MappingFlow::new(k, FlowKind::hyde(0xDA98))),
    ]
}

/// The flow set for Table 2: no sharing, structural sharing, HYDE.
pub fn table2_flows(k: usize) -> Vec<(String, MappingFlow)> {
    vec![
        (
            "no-share".into(),
            MappingFlow::new(
                k,
                FlowKind::PerOutput {
                    encoder: hyde_core::encoding::EncoderKind::Lexicographic,
                },
            ),
        ),
        (
            "shared".into(),
            MappingFlow::new(k, FlowKind::imodec_like()),
        ),
        ("hyde".into(), MappingFlow::new(k, FlowKind::hyde(0xDA98))),
    ]
}

/// Summarizes how often the last flow (HYDE) wins/ties/loses against the
/// best baseline, the shape comparison that must match the paper.
pub fn shape_summary(rows: &[Row], metric: impl Fn(&MappingReport) -> usize) -> String {
    let mut wins = 0;
    let mut ties = 0;
    let mut losses = 0;
    for row in rows {
        let hyde = metric(row.reports.last().expect("at least one flow"));
        let best_baseline = row.reports[..row.reports.len() - 1]
            .iter()
            .map(&metric)
            .min()
            .unwrap_or(usize::MAX);
        match hyde.cmp(&best_baseline) {
            std::cmp::Ordering::Less => wins += 1,
            std::cmp::Ordering::Equal => ties += 1,
            std::cmp::Ordering::Greater => losses += 1,
        }
    }
    format!("HYDE vs best baseline: {wins} wins, {ties} ties, {losses} losses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent_with_published_totals() {
        // Table 1 subtotal over rows where every tool has a number:
        // IMODEC 964, FGSyn 895, HYDE 864 (paper's Subtotal line).
        let (mut i_sum, mut f_sum, mut h_sum) = (0u32, 0u32, 0u32);
        for &(_, i, f, h) in PAPER_TABLE1 {
            if let (Some(i), Some(f)) = (i, f) {
                i_sum += i;
                f_sum += f;
                h_sum += h;
            }
        }
        assert_eq!(i_sum, 964);
        assert_eq!(f_sum, 895);
        assert_eq!(h_sum, 864);
        // Table 1 full totals: IMODEC 1453, HYDE 1272.
        let i_total: u32 = PAPER_TABLE1.iter().filter_map(|r| r.1).sum();
        let h_total: u32 = PAPER_TABLE1.iter().map(|r| r.3).sum();
        assert_eq!(i_total, 1453);
        assert_eq!(h_total, 1272);
    }

    #[test]
    fn paper_table2_totals() {
        // HYDE total 1311 (over rows where [8] reports a number);
        // subtotal (-alu4) comparison 1110 vs 1105.
        let h_total: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.1.is_some())
            .map(|r| r.4)
            .sum();
        assert_eq!(h_total, 1311);
        let po_sub: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.0 != "alu4")
            .filter_map(|r| r.3)
            .sum();
        let h_sub: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.0 != "alu4" && r.3.is_some())
            .map(|r| r.4)
            .sum();
        assert_eq!(po_sub, 1110);
        assert_eq!(h_sub, 1105);
    }

    #[test]
    fn run_suite_smoke() {
        let circuits = vec![hyde_circuits::rd73()];
        let flows = table2_flows(5);
        let rows = run_suite(&circuits, &flows).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].reports.len(), 3);
        let table = format_table("t", &flows, &rows, |r| r.luts);
        assert!(table.contains("rd73"));
        assert!(table.contains("Total"));
        let shape = shape_summary(&rows, |r| r.luts);
        assert!(shape.contains("HYDE"));
    }
}
