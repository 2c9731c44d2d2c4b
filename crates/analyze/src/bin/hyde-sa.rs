//! `hyde-sa` — the workspace static analyzer, as a standalone binary.
//!
//! ```text
//! hyde-sa [--root DIR] [--json PATH] [--list-passes] [--update-ratchets]
//! ```
//!
//! Exit codes: 0 clean, 1 deny findings survived, 2 usage/IO error. Set
//! `HYDE_TRACE=<path>` to write Chrome-trace/flamegraph artifacts via
//! hyde-obs.

use std::path::PathBuf;
use std::process::ExitCode;

use hyde_analyze::error::SaError;
use hyde_analyze::registry::Registry;

/// Prints one line to stdout, ignoring broken-pipe errors so
/// `hyde-sa ... | head` exits cleanly instead of panicking.
fn out(line: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "{line}");
}

struct Opts {
    root: PathBuf,
    json: Option<PathBuf>,
    list_passes: bool,
    update_ratchets: bool,
}

fn parse_args() -> Result<Opts, SaError> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json: None,
        list_passes: false,
        update_ratchets: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args
                    .next()
                    .ok_or_else(|| SaError::Usage("--root needs a directory".into()))?;
                opts.root = PathBuf::from(v);
            }
            "--json" => {
                let v = args
                    .next()
                    .ok_or_else(|| SaError::Usage("--json needs a path".into()))?;
                opts.json = Some(PathBuf::from(v));
            }
            "--list-passes" => opts.list_passes = true,
            "--update-ratchets" => opts.update_ratchets = true,
            "--help" | "-h" => {
                out("hyde-sa: workspace static analysis\n\n\
                     usage: hyde-sa [--root DIR] [--json PATH] [--list-passes] \
                     [--update-ratchets]\n\n\
                     --root DIR          workspace root to analyze (default: .)\n\
                     --json PATH         also write the report as hyde-sa-v2 JSON\n\
                     --list-passes       print the registered passes and exit\n\
                     --update-ratchets   regenerate crates/analyze/ratchets/ and exit");
                std::process::exit(0);
            }
            other => {
                return Err(SaError::Usage(format!("unknown argument `{other}`")));
            }
        }
    }
    Ok(opts)
}

fn run() -> Result<bool, SaError> {
    let opts = parse_args()?;
    if opts.list_passes {
        for (name, codes) in Registry::with_defaults().pass_list() {
            out(&format!("{name}: {}", codes.join(", ")));
        }
        return Ok(true);
    }
    if opts.update_ratchets {
        for path in hyde_analyze::update_ratchets(&opts.root)? {
            out(&format!("wrote {path}"));
        }
        return Ok(true);
    }
    let report = hyde_analyze::analyze_root(&opts.root)?;
    if let Some(json_path) = &opts.json {
        std::fs::write(json_path, report.to_json())
            .map_err(|e| SaError::Io(format!("{}: {e}", json_path.display())))?;
    }
    for f in &report.findings {
        out(&f.to_string());
    }
    for n in &report.notes {
        out(&format!("note: {n}"));
    }
    out(&format!(
        "hyde-sa: {} files, {} passes, {} findings ({} warnings), {} allowed",
        report.files_scanned,
        report.passes.len(),
        report.denies().count(),
        report.warnings().count(),
        report.allowed()
    ));
    Ok(report.clean())
}

fn main() -> ExitCode {
    let trace = hyde_obs::init_from_env();
    let code = match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hyde-sa: {e}");
            ExitCode::from(2)
        }
    };
    if let Some(path) = trace {
        match hyde_obs::write_artifacts(&path) {
            Ok(folded) => eprintln!("hyde-sa: trace written to {path} (+ {folded})"),
            Err(e) => eprintln!("hyde-sa: failed to write trace artifacts: {e}"),
        }
    }
    code
}
