//! Map benchmark circuits to Xilinx XC3000 CLBs with three flows and
//! compare the counts (the Table 1 experiment on a few circuits).
//!
//! Run with `cargo run --release --example map_xc3000`.

use hyde::map::{FlowKind, Job, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuits = vec![
        hyde::circuits::rd73(),
        hyde::circuits::rd84(),
        hyde::circuits::sym9(),
        hyde::circuits::z4ml(),
        hyde::circuits::misex1(),
    ];
    let flows = [
        ("imodec-like", FlowKind::imodec_like()),
        ("fgsyn-like", FlowKind::fgsyn_like()),
        ("hyde", FlowKind::hyde(0xDA98)),
    ];
    println!(
        "{:<10}{:>8}{:>6}{:>14}{:>8}{:>6}",
        "circuit", "in/out", "", "flow", "CLBs", "LUTs"
    );
    for c in &circuits {
        for (label, kind) in &flows {
            let job = Job::new(&c.name, c.outputs.clone());
            let report = Session::new(5, kind.clone()).run(&job)?.report;
            println!(
                "{:<10}{:>5}/{:<3}{:>17}{:>8}{:>6}",
                c.name,
                c.inputs,
                c.output_count(),
                label,
                report.clbs.expect("k=5 packs CLBs"),
                report.luts
            );
        }
        println!();
    }
    Ok(())
}
