//! End-to-end checks on the `hyde-bench` command line: the `map`
//! subcommand on a PLA file, a `figures` run, a `run` that must ignore
//! `HYDE_CHAOS`, and the usage errors.

use hyde_logic::{blif, pla::Pla};
use std::path::PathBuf;
use std::process::{Command, Output};

fn hyde_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyde-bench"))
        .args(args)
        .output()
        .expect("hyde-bench runs")
}

#[test]
fn map_writes_a_k_feasible_blif_equal_to_the_pla() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_map");
    std::fs::create_dir_all(&dir).unwrap();
    let (input, out) = (dir.join("rd73.pla"), dir.join("rd73.blif"));
    let pla = hyde_circuits::rd73().to_pla().to_text();
    std::fs::write(&input, &pla).unwrap();
    let _ = std::fs::remove_file(&out);
    let (input, out_arg) = (input.to_str().unwrap(), out.to_str().unwrap());
    let run = hyde_bench(&["map", input, "--k", "4", "--out", out_arg]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    assert!(run.stdout.is_empty(), "--out leaves stdout empty");

    let net = blif::parse(&std::fs::read_to_string(&out).unwrap()).expect("BLIF parses");
    assert!(net.is_k_feasible(4));
    let tables = net.global_tables();
    let mapped: Vec<_> = net
        .outputs()
        .iter()
        .map(|(_, id)| tables[id].clone())
        .collect();
    assert_eq!(mapped, Pla::parse(&pla).unwrap().output_tables());
}

#[test]
fn figures_fig10_succeeds() {
    let run = hyde_bench(&["figures", "fig10"]);
    assert!(run.status.success());
    assert!(String::from_utf8_lossy(&run.stdout).contains("Figure 10"));
}

#[test]
fn run_ignores_hyde_chaos_in_the_environment() {
    // Only `hyde-lint` reads HYDE_CHAOS; a seed in the environment must
    // not inject faults into the plain suite run.
    let luts = |chaos: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hyde-bench"));
        cmd.args(["run", "--circuits", "alu4"])
            .env_remove("HYDE_CHAOS");
        if let Some(seed) = chaos {
            cmd.env("HYDE_CHAOS", seed);
        }
        let run = cmd.output().expect("hyde-bench runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{stderr}");
        stderr
            .split_whitespace()
            .find(|w| w.starts_with("luts="))
            .expect("the run reports luts=")
            .to_owned()
    };
    assert_eq!(luts(None), luts(Some("1998")));
}

#[test]
fn usage_errors_exit_2_with_usage() {
    for args in [&["frobnicate"][..], &["map"][..]] {
        let run = hyde_bench(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("Usage: hyde-bench"), "{args:?}: {stderr}");
    }
}
