//! Findings, per-pass summaries and the `ANALYZE.json` emitter.

use hyde_obs::json::escape;

/// JSON schema tag written into `ANALYZE.json`, and the only schema
/// accepted as `--baseline` input (see [`crate::baseline`]).
pub const SCHEMA: &str = "hyde-sa-v2";

/// How a surviving finding affects the exit status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run (exit 1).
    Deny,
    /// Reported but does not fail the run (SA013).
    Warn,
}

impl Severity {
    /// Lower-case tag used in JSON and terminal output.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One analyzer finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable code, e.g. `SA001`.
    pub code: &'static str,
    /// Pass name, e.g. `determinism`.
    pub pass: &'static str,
    /// Workspace-relative file (or `Cargo.toml` / `DESIGN.md` path).
    pub file: String,
    /// 1-based line, 0 when the finding is file- or workspace-level.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Whether the finding fails the run.
    pub severity: Severity,
    /// Call-path evidence (entry-first hops), empty for token-level
    /// findings.
    pub path: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Deny => "",
            Severity::Warn => "warning: ",
        };
        if self.line == 0 {
            write!(
                f,
                "{}{} [{}] {}: {}",
                sev, self.code, self.pass, self.file, self.message
            )?;
        } else {
            write!(
                f,
                "{}{} [{}] {}:{}: {}",
                sev, self.code, self.pass, self.file, self.line, self.message
            )?;
        }
        for hop in &self.path {
            write!(f, "\n      {hop}")?;
        }
        Ok(())
    }
}

/// Per-pass roll-up.
#[derive(Clone, Debug)]
pub struct PassSummary {
    /// Pass name.
    pub pass: &'static str,
    /// Codes the pass can emit.
    pub codes: Vec<&'static str>,
    /// Deny findings that survived allows/ratchets.
    pub findings: usize,
    /// Warn findings that survived allows.
    pub warnings: usize,
    /// Findings suppressed by `sa:allow` directives.
    pub allowed: usize,
}

/// The result of one full analysis run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Surviving findings, in pass order.
    pub findings: Vec<Finding>,
    /// Per-pass summaries, in pass order.
    pub passes: Vec<PassSummary>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Ratchet improvement notes (counts below their committed cap).
    pub notes: Vec<String>,
}

impl Report {
    /// True when no deny-level finding survived (warnings do not fail
    /// the run).
    pub fn clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Deny)
    }

    /// The deny-level findings.
    pub fn denies(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
    }

    /// The warn-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
    }

    /// Total suppressed findings across passes.
    pub fn allowed(&self) -> usize {
        self.passes.iter().map(|p| p.allowed).sum()
    }

    /// Serializes the report as `hyde-sa-v2` JSON (hand-rolled, no
    /// serde — the build is offline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"allowed\": {},\n", self.allowed()));
        s.push_str("  \"passes\": [\n");
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|p| {
                let codes: Vec<String> =
                    p.codes.iter().map(|c| format!("\"{}\"", escape(c))).collect();
                format!(
                    "    {{\"pass\": \"{}\", \"codes\": [{}], \"findings\": {}, \"warnings\": {}, \"allowed\": {}}}",
                    escape(p.pass),
                    codes.join(", "),
                    p.findings,
                    p.warnings,
                    p.allowed
                )
            })
            .collect();
        s.push_str(&passes.join(",\n"));
        s.push_str("\n  ],\n");
        s.push_str("  \"findings\": [\n");
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                let path: Vec<String> =
                    f.path.iter().map(|h| format!("\"{}\"", escape(h))).collect();
                format!(
                    "    {{\"code\": \"{}\", \"pass\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"path\": [{}]}}",
                    escape(f.code),
                    escape(f.pass),
                    escape(f.severity.tag()),
                    escape(&f.file),
                    f.line,
                    escape(&f.message),
                    path.join(", ")
                )
            })
            .collect();
        s.push_str(&findings.join(",\n"));
        s.push_str("\n  ],\n");
        s.push_str("  \"notes\": [\n");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("    \"{}\"", escape(n)))
            .collect();
        s.push_str(&notes.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_escapes_and_tags_schema() {
        let mut r = Report {
            files_scanned: 2,
            ..Report::default()
        };
        r.passes.push(PassSummary {
            pass: "determinism",
            codes: vec!["SA001", "SA002"],
            findings: 1,
            warnings: 0,
            allowed: 3,
        });
        r.findings.push(Finding {
            code: "SA001",
            pass: "determinism",
            file: "crates/core/src/x.rs".into(),
            line: 7,
            message: "iterates a \"HashMap\"".into(),
            severity: Severity::Deny,
            path: vec!["crates/core/src/x.rs::f".into()],
        });
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"hyde-sa-v2\""));
        assert!(json.contains("\\\"HashMap\\\""));
        assert!(json.contains("\"severity\": \"deny\""));
        assert!(json.contains("\"path\": [\"crates/core/src/x.rs::f\"]"));
        assert!(json.contains("\"allowed\": 3"));
        assert!(!r.clean());
    }

    #[test]
    fn warnings_do_not_fail() {
        let mut r = Report::default();
        r.findings.push(Finding {
            code: "SA013",
            pass: "suppressions",
            file: "crates/core/src/x.rs".into(),
            line: 3,
            message: "stale allow".into(),
            severity: Severity::Warn,
            path: Vec::new(),
        });
        assert!(r.clean());
        assert_eq!(r.warnings().count(), 1);
        assert_eq!(r.denies().count(), 0);
    }
}
