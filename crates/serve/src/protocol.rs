//! Newline-delimited JSON protocol: one request object per line, one
//! response object per line.
//!
//! The wire vocabulary is deliberately tiny — `submit`, `status`,
//! `result`, `cancel`, `shutdown` — and every malformed input maps to a
//! structured [`ProtoError`] with a stable `code` token, mirroring the
//! BLIF/PLA parser hardening: truncated frames, oversized frames, bad
//! UTF-8, unknown ops and job kinds, duplicate ids are all *answers*,
//! never panics or silent drops.
//!
//! ```text
//! → {"op":"submit","id":"j1","kind":"suite","circuit":"misex1"}
//! ← {"ok":true,"id":"j1","state":"queued"}
//! → {"op":"status","id":"j1"}
//! ← {"ok":true,"id":"j1","state":"running","attempt":1}
//! → {"op":"result","id":"j1"}
//! ← {"ok":true,"id":"j1","state":"done","luts":17,"depth":3,"blif":"..."}
//! ```

use hyde_map::session::BudgetSpec;
use hyde_obs::json::{self, Json};
use std::fmt;

/// Cap on one request line (bytes, including the newline). A frame past
/// this is answered with `oversized-frame` and the connection closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A structured protocol error: stable machine-readable `code`, human
/// `message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable lower-case error token (`bad-json`, `unknown-op`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Shorthand constructor.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }

    /// Renders the error as a one-line JSON response.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":\"{}\",\"message\":\"{}\"}}\n",
            self.code,
            json::escape(&self.message)
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Where a job's functions come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// A named circuit of the built-in benchmark suite.
    Suite {
        /// Suite circuit name (e.g. `misex1`).
        circuit: String,
    },
    /// An inline PLA text (the generic job source).
    Pla {
        /// PLA source text.
        text: String,
    },
}

impl JobKind {
    /// Stable kind token for journals and responses.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobKind::Suite { .. } => "suite",
            JobKind::Pla { .. } => "pla",
        }
    }
}

/// A validated job submission: everything needed to (re-)create the
/// typed [`hyde_map::Job`], journal-durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique job id.
    pub id: String,
    /// Circuit/network name.
    pub name: String,
    /// Function source.
    pub kind: JobKind,
    /// Per-attempt resource budget.
    pub budget: BudgetSpec,
}

impl JobSpec {
    /// Resolves the spec into a runnable job. Deterministic: replaying
    /// the same spec yields the same job.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] (`unknown-job-kind` for a suite name
    /// that does not exist, `bad-field` for an unparsable PLA).
    pub fn resolve(&self) -> Result<hyde_map::Job, ProtoError> {
        let outputs = match &self.kind {
            JobKind::Suite { circuit } => hyde_circuits::by_name(circuit)
                .map(|c| c.outputs)
                .ok_or_else(|| {
                    ProtoError::new(
                        "unknown-job-kind",
                        format!("no suite circuit named '{circuit}'"),
                    )
                })?,
            JobKind::Pla { text } => hyde_logic::pla::Pla::parse(text)
                .map_err(|e| ProtoError::new("bad-field", format!("pla: {e}")))?
                .output_tables(),
        };
        let mut job = hyde_map::Job::new(&self.id, outputs).with_budget(self.budget);
        job.name = self.name.clone();
        Ok(job)
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a job.
    Submit(JobSpec),
    /// Query a job's state.
    Status {
        /// Job id.
        id: String,
    },
    /// Fetch a terminal job's result body.
    Result {
        /// Job id.
        id: String,
    },
    /// Cancel a queued job.
    Cancel {
        /// Job id.
        id: String,
    },
    /// Drain and stop the service.
    Shutdown,
}

fn str_field(doc: &Json, key: &str) -> Result<String, ProtoError> {
    match doc.get(key) {
        Some(v) => v
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| ProtoError::new("bad-field", format!("'{key}' must be a string"))),
        None => Err(ProtoError::new(
            "missing-field",
            format!("request lacks '{key}'"),
        )),
    }
}

fn num_field(doc: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_num()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| {
                    ProtoError::new(
                        "bad-field",
                        format!("'{key}' must be a non-negative number"),
                    )
                })?;
            Ok(Some(n as u64))
        }
    }
}

/// Parses the optional `budget` object of a submission.
fn budget_field(doc: &Json) -> Result<BudgetSpec, ProtoError> {
    let Some(b) = doc.get("budget") else {
        return Ok(BudgetSpec::unlimited());
    };
    if !matches!(b, Json::Obj(_)) {
        return Err(ProtoError::new("bad-field", "'budget' must be an object"));
    }
    Ok(BudgetSpec {
        deadline_ms: num_field(b, "deadline_ms")?,
        bdd_nodes: num_field(b, "bdd_nodes")?.map(|n| n as usize),
        candidates: num_field(b, "candidates")?.map(|n| n as usize),
    })
}

/// Parses a submission object (everything after `"op":"submit"`).
pub fn parse_submit(doc: &Json) -> Result<JobSpec, ProtoError> {
    let id = str_field(doc, "id")?;
    if id.is_empty() || id.len() > 256 {
        return Err(ProtoError::new("bad-field", "'id' must be 1..=256 chars"));
    }
    let kind = match doc.get("kind").and_then(Json::as_str) {
        Some("suite") => JobKind::Suite {
            circuit: str_field(doc, "circuit")?,
        },
        Some("pla") => JobKind::Pla {
            text: str_field(doc, "pla")?,
        },
        Some(other) => {
            return Err(ProtoError::new(
                "unknown-job-kind",
                format!("kind '{other}' is not 'suite' or 'pla'"),
            ))
        }
        None => return Err(ProtoError::new("missing-field", "request lacks 'kind'")),
    };
    let name = match doc.get("name").and_then(Json::as_str) {
        Some(n) => n.to_owned(),
        None => match &kind {
            JobKind::Suite { circuit } => circuit.clone(),
            JobKind::Pla { .. } => id.clone(),
        },
    };
    let spec = JobSpec {
        id,
        name,
        kind,
        budget: budget_field(doc)?,
    };
    // Validate eagerly: a submission that cannot resolve must be a
    // structured parse-time error, not a quarantined job later.
    spec.resolve()?;
    Ok(spec)
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a structured [`ProtoError`] for every malformed input.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc =
        json::parse(line.trim_end()).map_err(|e| ProtoError::new("bad-json", e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ProtoError::new("bad-json", "request must be an object"));
    }
    match doc.get("op").and_then(Json::as_str) {
        Some("submit") => Ok(Request::Submit(parse_submit(&doc)?)),
        Some("status") => Ok(Request::Status {
            id: str_field(&doc, "id")?,
        }),
        Some("result") => Ok(Request::Result {
            id: str_field(&doc, "id")?,
        }),
        Some("cancel") => Ok(Request::Cancel {
            id: str_field(&doc, "id")?,
        }),
        Some("shutdown") => Ok(Request::Shutdown),
        Some(other) => Err(ProtoError::new(
            "unknown-op",
            format!("op '{other}' is not submit/status/result/cancel/shutdown"),
        )),
        None => Err(ProtoError::new("missing-field", "request lacks 'op'")),
    }
}

/// Renders a budget spec as a JSON object (used by the journal).
pub fn budget_json(b: &BudgetSpec) -> String {
    let mut parts = Vec::new();
    if let Some(v) = b.deadline_ms {
        parts.push(format!("\"deadline_ms\":{v}"));
    }
    if let Some(v) = b.bdd_nodes {
        parts.push(format!("\"bdd_nodes\":{v}"));
    }
    if let Some(v) = b.candidates {
        parts.push(format!("\"candidates\":{v}"));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders a rejection as a one-line JSON response.
pub fn rejected_json(r: &hyde_guard::Rejected) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"rejected\",\"reason\":\"{}\",\"retry_after_ms\":{}}}\n",
        r.reason.as_str(),
        r.retry_after.as_millis()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_with_defaults() {
        let req = parse_request(
            "{\"op\":\"submit\",\"id\":\"j1\",\"kind\":\"suite\",\"circuit\":\"misex1\"}",
        )
        .unwrap();
        let Request::Submit(spec) = req else {
            panic!("not a submit")
        };
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.name, "misex1");
        assert_eq!(spec.budget, BudgetSpec::unlimited());
        assert!(spec.resolve().is_ok());
    }

    #[test]
    fn pla_submissions_resolve_inline_text() {
        let pla = ".i 2\n.o 1\n.p 2\n01 1\n10 1\n.e\n";
        let line = format!(
            "{{\"op\":\"submit\",\"id\":\"x\",\"kind\":\"pla\",\"pla\":\"{}\"}}",
            pla.replace('\n', "\\n")
        );
        let Request::Submit(spec) = parse_request(&line).unwrap() else {
            panic!("not a submit")
        };
        let job = spec.resolve().unwrap();
        assert_eq!(job.outputs.len(), 1);
        assert_eq!(job.outputs[0].vars(), 2);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let cases: &[(&str, &str)] = &[
            ("", "bad-json"),
            ("{", "bad-json"),
            ("[1,2]", "bad-json"),
            ("{\"op\":\"submit\"}", "missing-field"),
            ("{\"op\":\"submit\",\"id\":\"\",\"kind\":\"suite\",\"circuit\":\"x\"}", "bad-field"),
            ("{\"op\":\"submit\",\"id\":\"j\",\"kind\":\"blend\"}", "unknown-job-kind"),
            (
                "{\"op\":\"submit\",\"id\":\"j\",\"kind\":\"suite\",\"circuit\":\"nope\"}",
                "unknown-job-kind",
            ),
            (
                "{\"op\":\"submit\",\"id\":\"j\",\"kind\":\"pla\",\"pla\":\"garbage\"}",
                "bad-field",
            ),
            ("{\"op\":\"warp\"}", "unknown-op"),
            ("{\"id\":\"j\"}", "missing-field"),
            ("{\"op\":\"status\"}", "missing-field"),
            (
                "{\"op\":\"submit\",\"id\":\"j\",\"kind\":\"suite\",\"circuit\":\"misex1\",\"budget\":3}",
                "bad-field",
            ),
        ];
        for (line, code) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, *code, "{line} → {err}");
            // Every error renders as parsable single-line JSON.
            let rendered = err.to_json();
            assert!(rendered.ends_with('\n'));
            hyde_obs::json::parse(rendered.trim_end()).expect("error response is JSON");
        }
    }
}
