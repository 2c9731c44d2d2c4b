//! Shared harness behind the `hyde-bench` binary.
//!
//! [`map_each`] is the crate's one suite loop: every subcommand that maps
//! circuits (`run`, `chaos`, `table1`, `table2`, `sweep`, `ablation`,
//! `map`) runs each circuit as a [`Job`] on a [`Session`], the same
//! supervised path `hyde-lint` and `hyde-serve` use, so one flow reports
//! one number everywhere. [`paper_table`] regenerates Tables 1 and 2
//! ([`TABLE1`], [`TABLE2`]) beside the paper's own numbers. [`chaos`]
//! holds the fault-injection drill behind `hyde-bench chaos`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

use hyde_circuits::Circuit;
use hyde_core::encoding::EncoderKind;
use hyde_map::flow::FlowKind;
use hyde_map::session::{BudgetSpec, Job, JobError, JobResult, Session};
use hyde_map::MappingReport;
use std::fmt::Write as _;

/// One row of a paper table: circuit name and one number per column,
/// `None` marking a dash in the paper.
pub type PaperRow = (&'static str, &'static [Option<u32>]);

/// Paper numbers for Table 1 (XC3000 CLB counts): IMODEC, FGSyn, HYDE.
pub const PAPER_TABLE1: &[PaperRow] = &[
    ("5xp1", &[Some(9), Some(9), Some(10)]),
    ("9sym", &[Some(7), Some(7), Some(6)]),
    ("alu2", &[Some(46), Some(55), Some(43)]),
    ("alu4", &[Some(168), Some(56), Some(140)]),
    ("apex6", &[Some(129), Some(181), Some(135)]),
    ("apex7", &[Some(41), Some(43), Some(39)]),
    ("clip", &[Some(12), Some(18), Some(11)]),
    ("count", &[Some(26), Some(23), Some(24)]),
    ("des", &[Some(489), None, Some(408)]),
    ("duke2", &[Some(122), Some(85), Some(75)]),
    ("e64", &[Some(55), Some(44), Some(48)]),
    ("f51m", &[Some(8), Some(8), Some(8)]),
    ("misex1", &[Some(9), Some(8), Some(9)]),
    ("misex2", &[Some(21), Some(22), Some(22)]),
    ("rd73", &[Some(5), Some(5), Some(5)]),
    ("rd84", &[Some(8), Some(8), Some(7)]),
    ("rot", &[Some(127), Some(136), Some(125)]),
    ("sao2", &[Some(17), Some(25), Some(17)]),
    ("vg2", &[Some(19), Some(17), Some(18)]),
    ("z4ml", &[Some(4), Some(4), Some(4)]),
    ("C499", &[Some(50), Some(54), Some(50)]),
    ("C880", &[Some(81), Some(87), Some(68)]),
];

/// Paper numbers for Table 2 (5-input LUT counts): `[8]` w/o resub,
/// `[8]` w/ resub, `[8]` PO, HYDE.
pub const PAPER_TABLE2: &[PaperRow] = &[
    ("5xp1", &[Some(15), Some(11), Some(10), Some(13)]),
    ("9sym", &[Some(7), Some(7), Some(7), Some(6)]),
    ("alu2", &[Some(48), Some(48), Some(48), Some(50)]),
    ("alu4", &[Some(172), Some(90), Some(56), Some(206)]),
    ("apex4", &[Some(374), Some(374), Some(374), Some(354)]),
    ("apex6", &[Some(192), Some(161), Some(155), Some(186)]),
    ("apex7", &[Some(120), Some(61), Some(54), Some(54)]),
    ("b9", &[Some(53), Some(39), Some(37), Some(36)]),
    ("clip", &[Some(18), Some(11), Some(14), Some(14)]),
    ("count", &[Some(52), Some(31), Some(31), Some(31)]),
    ("des", &[None, None, None, Some(561)]),
    ("duke2", &[Some(175), Some(155), Some(150), Some(116)]),
    ("e64", &[None, None, None, Some(80)]),
    ("f51m", &[Some(12), Some(10), Some(8), Some(12)]),
    ("misex1", &[Some(12), Some(10), Some(10), Some(13)]),
    ("misex2", &[Some(40), Some(36), Some(36), Some(29)]),
    ("misex3", &[Some(195), Some(213), Some(120), Some(131)]),
    ("rd73", &[Some(8), Some(6), Some(6), Some(6)]),
    ("rd84", &[Some(12), Some(7), Some(8), Some(9)]),
    ("rot", &[None, None, None, Some(185)]),
    ("sao2", &[Some(23), Some(21), Some(21), Some(22)]),
    ("vg2", &[Some(44), Some(21), Some(17), Some(18)]),
    ("z4ml", &[Some(6), Some(5), Some(4), Some(5)]),
    ("C499", &[None, None, None, Some(70)]),
    ("C880", &[None, None, None, Some(81)]),
];

/// Maps each circuit as one [`Job`] on `session` under `budget`, lazily
/// and in suite order, inside one `bench.circuit` span per circuit.
pub fn map_each<'a>(
    session: &'a Session,
    circuits: &'a [Circuit],
    budget: BudgetSpec,
) -> impl Iterator<Item = (&'a Circuit, Result<JobResult, JobError>)> + 'a {
    circuits.iter().map(move |c| {
        let _obs = hyde_obs::span!("bench.circuit");
        let job = Job::new(&c.name, c.outputs.clone()).with_budget(budget);
        (c, session.run(&job))
    })
}

/// Maps every circuit to `k`-LUTs with `kind` on one fresh [`Session`]
/// and returns the reports in suite order.
///
/// # Errors
///
/// The text of the first circuit's [`JobError`] (the suite is expected to
/// map cleanly; a failure indicates a bug).
pub fn map_suite(
    k: usize,
    kind: FlowKind,
    circuits: &[Circuit],
) -> Result<Vec<MappingReport>, String> {
    let session = Session::new(k, kind);
    map_each(&session, circuits, BudgetSpec::unlimited())
        .map(|(_, result)| result.map(|r| r.report).map_err(|e| e.to_string()))
        .collect()
}

/// A paper table as `hyde-bench table1|table2` regenerates it: the
/// flows measured at k = 5 (HYDE last), the number one mapping
/// contributes, and the paper's own columns (header, width) and rows
/// printed beside them for shape reference.
pub struct PaperTable {
    number: u8,
    what: &'static str,
    flows: fn() -> Vec<(&'static str, FlowKind)>,
    metric: fn(&MappingReport) -> usize,
    paper_columns: &'static [(&'static str, usize)],
    paper_rows: &'static [PaperRow],
}

/// Table 1: XC3000 CLB counts for the IMODEC-like, FGSyn-like and HYDE
/// flows.
pub const TABLE1: PaperTable = PaperTable {
    number: 1,
    what: "XC3000 CLB counts",
    flows: || {
        vec![
            ("imodec-like", FlowKind::imodec_like()),
            ("fgsyn-like", FlowKind::fgsyn_like()),
            ("hyde", FlowKind::hyde(0xDA98)),
        ]
    },
    metric: |r| r.clbs.expect("k=5 flows always pack CLBs"),
    paper_columns: &[("IMODEC[5]", 14), ("FGSyn[4]", 14), ("HYDE", 14)],
    paper_rows: PAPER_TABLE1,
};

/// Table 2: 5-input LUT counts for no sharing, structural sharing and
/// HYDE.
pub const TABLE2: PaperTable = PaperTable {
    number: 2,
    what: "5-input LUT counts",
    flows: || {
        vec![
            (
                "no-share",
                FlowKind::PerOutput {
                    encoder: EncoderKind::Lexicographic,
                },
            ),
            ("shared", FlowKind::imodec_like()),
            ("hyde", FlowKind::hyde(0xDA98)),
        ]
    },
    metric: |r| r.luts,
    paper_columns: &[
        ("[8] no-rs", 14),
        ("[8] resub", 14),
        ("[8] PO", 14),
        ("HYDE", 10),
    ],
    paper_rows: PAPER_TABLE2,
};

/// Maps `circuits` under every flow of `table` and renders the measured
/// table (with per-circuit mapping time), how often HYDE wins, ties or
/// loses against the best baseline — the shape comparison that must
/// match the paper — and the paper's own table.
///
/// # Errors
///
/// The first circuit that fails to map, as [`map_suite`] reports it.
pub fn paper_table(table: &PaperTable, circuits: &[Circuit]) -> Result<String, String> {
    let (n, what, metric) = (table.number, table.what, table.metric);
    let flows = (table.flows)();
    eprintln!(
        "mapping {} circuits with {} flows for Table {n} (k=5)...",
        circuits.len(),
        flows.len()
    );
    let columns = flows
        .iter()
        .map(|(_, kind)| map_suite(5, kind.clone(), circuits))
        .collect::<Result<Vec<_>, _>>()?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Table {n}: {what} (measured on this reproduction's suite) =="
    );
    let _ = write!(s, "{:<10}", "circuit");
    for (name, _) in &flows {
        let _ = write!(s, "{name:>14}");
    }
    let _ = writeln!(s, "{:>10}", "time(s)");
    let mut totals = vec![0usize; flows.len()];
    let (mut wins, mut ties, mut losses) = (0, 0, 0);
    for (i, c) in circuits.iter().enumerate() {
        let row: Vec<&MappingReport> = columns.iter().map(|col| &col[i]).collect();
        let _ = write!(s, "{:<10}", c.name);
        for (total, r) in totals.iter_mut().zip(&row) {
            let v = metric(r);
            *total += v;
            let _ = write!(s, "{v:>14}");
        }
        let t: f64 = row.iter().map(|r| r.elapsed.as_secs_f64()).sum();
        let _ = writeln!(s, "{t:>10.2}");
        if let Some((hyde, baselines)) = row.split_last() {
            let best = baselines.iter().map(|r| metric(r)).min();
            match metric(hyde).cmp(&best.unwrap_or(usize::MAX)) {
                std::cmp::Ordering::Less => wins += 1,
                std::cmp::Ordering::Equal => ties += 1,
                std::cmp::Ordering::Greater => losses += 1,
            }
        }
    }
    let _ = write!(s, "{:<10}", "Total");
    for t in &totals {
        let _ = write!(s, "{t:>14}");
    }
    let _ = writeln!(s, "\n");
    let _ = writeln!(
        s,
        "HYDE vs best baseline: {wins} wins, {ties} ties, {losses} losses\n"
    );
    let _ = writeln!(
        s,
        "== Paper's Table {n} (original MCNC circuits, for shape reference) =="
    );
    let _ = write!(s, "{:<10}", "circuit");
    for &(header, width) in table.paper_columns {
        let _ = write!(s, "{header:>width$}");
    }
    s.push('\n');
    for &(name, values) in table.paper_rows {
        let _ = write!(s, "{name:<10}");
        for (v, &(_, width)) in values.iter().zip(table.paper_columns) {
            let v = v.map_or("-".to_string(), |x| x.to_string());
            let _ = write!(s, "{v:>width$}");
        }
        s.push('\n');
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent_with_published_totals() {
        // Table 1 subtotal over rows where every tool has a number:
        // IMODEC 964, FGSyn 895, HYDE 864 (paper's Subtotal line).
        let (mut i_sum, mut f_sum, mut h_sum) = (0u32, 0u32, 0u32);
        for &(_, row) in PAPER_TABLE1 {
            if let [Some(i), Some(f), Some(h)] = *row {
                i_sum += i;
                f_sum += f;
                h_sum += h;
            }
        }
        assert_eq!(i_sum, 964);
        assert_eq!(f_sum, 895);
        assert_eq!(h_sum, 864);
        // Table 1 full totals: IMODEC 1453, HYDE 1272.
        let i_total: u32 = PAPER_TABLE1.iter().filter_map(|r| r.1[0]).sum();
        let h_total: u32 = PAPER_TABLE1.iter().filter_map(|r| r.1[2]).sum();
        assert_eq!(i_total, 1453);
        assert_eq!(h_total, 1272);
    }

    #[test]
    fn paper_table2_totals() {
        // HYDE total 1311 (over rows where [8] reports a number);
        // subtotal (-alu4) comparison 1110 vs 1105.
        let h_total: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.1[0].is_some())
            .filter_map(|r| r.1[3])
            .sum();
        assert_eq!(h_total, 1311);
        let po_sub: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.0 != "alu4")
            .filter_map(|r| r.1[2])
            .sum();
        let h_sub: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.0 != "alu4" && r.1[2].is_some())
            .filter_map(|r| r.1[3])
            .sum();
        assert_eq!(po_sub, 1110);
        assert_eq!(h_sub, 1105);
    }

    #[test]
    fn paper_table_smoke() {
        let table = paper_table(&TABLE2, &[hyde_circuits::rd73()]).unwrap();
        assert!(table.contains("rd73"));
        assert!(table.contains("Total"));
        assert!(table.contains("HYDE vs best baseline"));
        assert!(table.contains("Paper's Table 2"));
    }
}
