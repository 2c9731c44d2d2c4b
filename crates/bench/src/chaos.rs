//! The chaos drill (`hyde-bench chaos`) and its `CHAOS_<name>.json`
//! report, which `hyde-serve --drill` writes in the same schema.
//!
//! Both drivers run every circuit as a single-attempt [`Session`] job,
//! the supervised path `hyde-serve` uses, so a panicking circuit becomes
//! a recorded outcome instead of aborting the batch. Timing lives in
//! `hyde-benchmark/`, not here.
//!
//! The JSON is hand-rolled (the build is offline, no serde) and
//! versioned by its `schema` field.

use hyde_circuits::Circuit;
use hyde_core::CoreError;
use hyde_map::flow::FlowKind;
use hyde_map::session::{BudgetSpec, JobErrorKind, Session};
use hyde_obs::json::escape;
use std::fmt::Write as _;

/// Schema tag of chaos-drill reports (`CHAOS_<name>.json`).
pub const CHAOS_SCHEMA: &str = "hyde-chaos-v1";

/// How one circuit fared under a chaos drill.
#[derive(Debug, Clone)]
pub enum ChaosStatus {
    /// Mapped and passed the flow's CEC gate.
    Ok {
        /// LUTs in the (possibly degraded) network.
        luts: usize,
    },
    /// The flow returned a typed error.
    Failed {
        /// The error text.
        error: String,
    },
    /// The flow panicked (isolated per circuit; chaos injects these
    /// deliberately when `HYDE_CHAOS_PANIC=1`).
    Panicked {
        /// The panic message.
        message: String,
    },
}

/// Per-circuit record of a chaos drill.
#[derive(Debug, Clone)]
pub struct ChaosSample {
    /// Circuit name.
    pub name: String,
    /// Outcome.
    pub status: ChaosStatus,
    /// Degradation events the ladder recorded for this circuit.
    pub degradations: Vec<hyde_guard::DegradationEvent>,
}

/// One full chaos drill over the suite.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Run label (`CHAOS_<name>.json`).
    pub name: String,
    /// The chaos seed driving the fault schedule.
    pub seed: u64,
    /// LUT size the flow targeted.
    pub k: usize,
    /// Per-circuit samples, in suite order.
    pub samples: Vec<ChaosSample>,
}

impl ChaosRun {
    /// Total degradation events across all circuits.
    pub fn total_degradations(&self) -> usize {
        self.samples.iter().map(|s| s.degradations.len()).sum()
    }
}

/// Runs the HYDE flow over `circuits` with the chaos layer armed on
/// `seed`: budget exhaustions, simulated BDD allocation failures and (when
/// `HYDE_CHAOS_PANIC=1`) injected panics, every circuit isolated so the
/// drill always completes. `budget` adds *real* per-circuit resource caps
/// on top of the injected ones (pass [`BudgetSpec::unlimited`] for
/// injection-only drills). Each circuit runs as a single-attempt
/// [`Session`] job, so panic isolation and degradation capture are the
/// same supervised path `hyde-serve` uses; every `Ok` sample's network
/// already passed the flow's CEC verification gate.
pub fn run_chaos(
    name: &str,
    circuits: &[Circuit],
    k: usize,
    seed: u64,
    budget: BudgetSpec,
) -> ChaosRun {
    let session = Session::new(k, FlowKind::hyde(0xDA98)).with_chaos(seed);
    let samples = crate::map_each(&session, circuits, budget)
        .map(|(c, result)| {
            let (status, degradations) = match result {
                Ok(result) => (
                    ChaosStatus::Ok {
                        luts: result.report.luts,
                    },
                    result.degradations,
                ),
                Err(e) => {
                    let status = match e.kind {
                        JobErrorKind::Panicked(message) => ChaosStatus::Panicked { message },
                        JobErrorKind::Mapping(error) => ChaosStatus::Failed { error },
                        JobErrorKind::OutOfBudget(ob) => ChaosStatus::Failed {
                            error: CoreError::OutOfBudget(ob).to_string(),
                        },
                    };
                    (status, e.degradations)
                }
            };
            ChaosSample {
                name: c.name.clone(),
                status,
                degradations,
            }
        })
        .collect();
    ChaosRun {
        name: name.to_owned(),
        seed,
        k,
        samples,
    }
}

/// Serializes a chaos drill to `CHAOS_<name>.json` (schema
/// [`CHAOS_SCHEMA`]).
pub fn chaos_to_json(run: &ChaosRun) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{CHAOS_SCHEMA}\",");
    let _ = writeln!(s, "  \"name\": \"{}\",", escape(&run.name));
    let _ = writeln!(s, "  \"seed\": {},", run.seed);
    let _ = writeln!(s, "  \"k\": {},", run.k);
    s.push_str("  \"circuits\": [\n");
    let (mut ok, mut failed, mut panicked) = (0, 0, 0);
    for (i, c) in run.samples.iter().enumerate() {
        let _ = write!(s, "    {{\"name\": \"{}\", ", escape(&c.name));
        let _ = match &c.status {
            ChaosStatus::Ok { luts } => {
                ok += 1;
                write!(s, "\"status\": \"ok\", \"luts\": {luts}")
            }
            ChaosStatus::Failed { error } => {
                failed += 1;
                write!(
                    s,
                    "\"status\": \"failed\", \"error\": \"{}\"",
                    escape(error)
                )
            }
            ChaosStatus::Panicked { message } => {
                panicked += 1;
                write!(
                    s,
                    "\"status\": \"panicked\", \"error\": \"{}\"",
                    escape(message)
                )
            }
        };
        s.push_str(", \"degradations\": [");
        for (j, e) in c.degradations.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"stage\": \"{}\", \"from\": \"{}\", \"to\": \"{}\", \
                 \"resource\": \"{}\", \"injected\": {}}}",
                if j > 0 { ", " } else { "" },
                escape(&e.stage),
                e.from,
                e.to,
                e.resource,
                e.injected
            );
        }
        s.push_str("]}");
        if i + 1 < run.samples.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    let _ = write!(
        s,
        "  \"totals\": {{\"ok\": {ok}, \"failed\": {failed}, \"panicked\": {panicked}, \
         \"degradations\": {}}}",
        run.total_degradations()
    );
    s.push_str("\n}\n");
    s
}

/// Structural sanity check used by `cargo xtask chaos`: the document must
/// carry the chaos schema tag, a circuits array, and a totals object
/// reporting zero hard failures (a `failed` circuit means a rung of the
/// fallback ladder broke, which the drill treats as a defect).
pub fn validate_chaos_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{CHAOS_SCHEMA}\"")) {
        return Err(format!("missing schema tag {CHAOS_SCHEMA}"));
    }
    if !json.contains("\"circuits\": [") {
        return Err("missing circuits array".into());
    }
    let Some(pos) = json.find("\"failed\":") else {
        return Err("missing totals.failed".into());
    };
    let after = json[pos + "\"failed\":".len()..].trim_start();
    let end = after
        .find(|ch: char| !ch.is_ascii_digit())
        .unwrap_or(after.len());
    match after[..end].parse::<usize>() {
        Ok(0) => Ok(()),
        Ok(n) => Err(format!("{n} circuit(s) failed with typed errors")),
        Err(_) => Err("totals.failed not parsable".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_json_round_trips_and_validates() {
        let run = ChaosRun {
            name: "unit".into(),
            seed: 42,
            k: 5,
            samples: vec![
                ChaosSample {
                    name: "a".into(),
                    status: ChaosStatus::Ok { luts: 7 },
                    degradations: Vec::new(),
                },
                ChaosSample {
                    name: "b".into(),
                    status: ChaosStatus::Panicked {
                        message: "chaos: injected panic".into(),
                    },
                    degradations: Vec::new(),
                },
            ],
        };
        let json = chaos_to_json(&run);
        validate_chaos_json(&json).unwrap();
        hyde_obs::json::parse(&json).unwrap();

        let mut failed = run.clone();
        failed.samples[0].status = ChaosStatus::Failed {
            error: "rung broke".into(),
        };
        let err = validate_chaos_json(&chaos_to_json(&failed)).unwrap_err();
        assert!(err.contains("failed"), "{err}");
        assert!(validate_chaos_json("{}").is_err());
    }
}
