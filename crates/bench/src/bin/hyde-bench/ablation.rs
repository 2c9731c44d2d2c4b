//! `hyde-bench ablation` and `hyde-bench sweep`: the studies of the
//! design choices called out in `DESIGN.md`.
//!
//! * `encoding` (A1) — class-count objective (HYDE) vs cube-count
//!   (Murgai-like) vs random vs lexicographic, measured as total LUTs on
//!   the small suite.
//! * `dc` (A2) — don't-care assignment on/off: compatible class counts on
//!   incompletely specified charts.
//! * `hyper` (A3) — hyper-function flow vs per-output vs column encoding.
//! * `sweep` (A4) — every flow's total LUTs at k ∈ {4, 5, 6}. The paper
//!   evaluates k = 4/5 devices (XC3000 CLBs and 5-LUTs); the sweep shows
//!   where the flows' orderings hold across the LUT-size axis.

use hyde_bench::map_suite;
use hyde_core::chart::{class_count, IsfChart};
use hyde_core::dc_assign::assign_dont_cares;
use hyde_core::encoding::EncoderKind;
use hyde_logic::{Isf, TruthTable};
use hyde_map::flow::FlowKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sections `hyde-bench ablation` accepts.
pub const SECTIONS: &[&str] = &["encoding", "dc", "hyper"];

/// Prints the named ablations (all three when `sections` is empty).
///
/// # Errors
///
/// The first suite circuit that fails to map, as
/// [`hyde_bench::map_suite`] reports it.
pub fn run(sections: &[String]) -> Result<(), String> {
    let want = |s: &str| sections.is_empty() || sections.iter().any(|a| a == s);
    if want("encoding") {
        ablate_encoding()?;
    }
    if want("dc") {
        ablate_dc();
    }
    if want("hyper") {
        ablate_hyper()?;
    }
    Ok(())
}

/// Prints the `head` line, then one row per flow: its name padded to
/// `width`, then its total LUTs over the small suite at each `k` of `ks`.
fn luts_table(
    head: &str,
    width: usize,
    ks: &[usize],
    flows: &[(&str, FlowKind)],
) -> Result<(), String> {
    let circuits = hyde_circuits::suite_small();
    println!("{head}");
    for (name, kind) in flows {
        let mut row = format!("{name:<width$}");
        for &k in ks {
            let reports = map_suite(k, kind.clone(), &circuits)?;
            row += &format!("{:>10}", reports.iter().map(|r| r.luts).sum::<usize>());
        }
        println!("{row}");
    }
    Ok(())
}

fn ablate_encoding() -> Result<(), String> {
    println!("== Ablation A1: encoding objective (total 5-LUTs, small suite) ==");
    let encoders = [
        ("lexicographic", EncoderKind::Lexicographic),
        ("random", EncoderKind::Random { seed: 77 }),
        (
            "cube-min [3]",
            EncoderKind::CubeMin {
                seed: 77,
                iters: 30,
            },
        ),
        ("hyde (class-count)", EncoderKind::Hyde { seed: 77 }),
    ];
    let flows = encoders.map(|(name, encoder)| (name, FlowKind::SharedAlpha { encoder }));
    luts_table(
        &format!("{:<22}{:>10}", "encoder", "luts"),
        22,
        &[5],
        &flows,
    )?;
    println!();
    Ok(())
}

fn ablate_dc() {
    println!("== Ablation A2: don't-care assignment (Section 3.1) ==");
    let mut rng = StdRng::seed_from_u64(3);
    let mut with_dc = 0usize;
    let mut without_dc = 0usize;
    let trials = 40;
    for _ in 0..trials {
        let on = TruthTable::random(8, &mut rng);
        let dc_mask = TruthTable::from_fn(8, |_| rng.gen_bool(0.3));
        let dc = &dc_mask & &!&on;
        let f = Isf::new(on.clone(), dc).expect("arities agree");
        let bound = [0usize, 1, 2, 3];
        // Without assignment: treat dc as 0.
        without_dc += class_count(&on, &bound).expect("valid bound");
        // With clique-partitioning assignment.
        let a = assign_dont_cares(&f, &bound).expect("valid bound");
        with_dc += a.classes.len();
        // The chart view agrees.
        let chart = IsfChart::new(&f, &bound).expect("valid bound");
        assert_eq!(chart.columns().len(), 16);
    }
    println!("{trials} random 8-var ISFs (30% dc), bound size 4:");
    println!("  total classes without dc assignment: {without_dc}");
    println!("  total classes with clique partitioning: {with_dc}");
    println!(
        "  reduction: {:.1}%\n",
        100.0 * (without_dc - with_dc) as f64 / without_dc as f64
    );
}

fn ablate_hyper() -> Result<(), String> {
    println!("== Ablation A3: multi-output strategy (total 5-LUTs, small suite) ==");
    let hyde = EncoderKind::Hyde { seed: 5 };
    let flows = [
        (
            "per-output",
            FlowKind::PerOutput {
                encoder: hyde.clone(),
            },
        ),
        ("shared-alpha", FlowKind::SharedAlpha { encoder: hyde }),
        ("column-enc [4]", FlowKind::fgsyn_like()),
        ("hyper (HYDE)", FlowKind::hyde(5)),
    ];
    luts_table(&format!("{:<18}{:>10}", "flow", "luts"), 18, &[5], &flows)?;
    println!();
    Ok(())
}

/// A4, the LUT-size sweep: every flow's total LUTs over the small suite
/// at k = 4, 5 and 6.
///
/// # Errors
///
/// The first suite circuit that fails to map, as
/// [`hyde_bench::map_suite`] reports it.
pub fn sweep() -> Result<(), String> {
    let per_output = FlowKind::PerOutput {
        encoder: EncoderKind::Lexicographic,
    };
    let flows = [
        ("per-output", per_output),
        ("shared", FlowKind::imodec_like()),
        ("fgsyn", FlowKind::fgsyn_like()),
        ("hyde", FlowKind::hyde(0xDA98)),
    ];
    let head = format!("{:<12}{:>10}{:>10}{:>10}", "flow", "k=4", "k=5", "k=6");
    luts_table(&head, 12, &[4, 5, 6], &flows)?;
    println!("\n(total 5-LUT-equivalent node counts over the small suite; lower is better)");
    Ok(())
}
