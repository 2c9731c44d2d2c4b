//! `--baseline` diff mode: compare a fresh report against a committed
//! `ANALYZE.json` and surface only findings that are *new*.
//!
//! A finding's identity is `(code, file, message)` — the line is
//! deliberately excluded so unrelated edits shifting a finding down a
//! file do not register as regressions. Only reports in the current
//! schema ([`crate::report::SCHEMA`]) are accepted as baseline input.

use std::collections::BTreeSet;

use crate::report::{Finding, Report, Severity};
use hyde_obs::json::{self, Json};

/// One baseline entry: the identity triple of a previously-known
/// finding.
type Key = (String, String, String);

/// A parsed baseline report.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Identity keys of every finding in the baseline.
    keys: BTreeSet<Key>,
    /// Schema tag the baseline was written with.
    pub schema: String,
}

impl Baseline {
    /// Parses baseline JSON in the current report schema.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let root = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let schema = root
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("baseline has no \"schema\" field")?;
        if schema != crate::report::SCHEMA {
            return Err(format!("unsupported baseline schema '{schema}'"));
        }
        let findings = root
            .get("findings")
            .and_then(Json::as_arr)
            .ok_or("baseline has no \"findings\" array")?;
        let mut keys = BTreeSet::new();
        for f in findings {
            let field = |name: &str| {
                f.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("baseline finding missing \"{name}\""))
            };
            keys.insert((field("code")?, field("file")?, field("message")?));
        }
        Ok(Baseline {
            keys,
            schema: schema.to_owned(),
        })
    }

    /// True when `f` already appears in the baseline.
    pub fn contains(&self, f: &Finding) -> bool {
        // Identity is by value; build the key without cloning `f`.
        self.keys
            .iter()
            .any(|(c, fi, m)| c == f.code && fi == &f.file && m == &f.message)
    }

    /// The deny findings in `report` that are new relative to this
    /// baseline (warnings never gate).
    pub fn new_denies<'a>(&self, report: &'a Report) -> Vec<&'a Finding> {
        report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Deny && !self.contains(f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(code: &'static str, file: &str, message: &str) -> Finding {
        Finding {
            code,
            pass: "p",
            file: file.to_owned(),
            line: 9,
            message: message.to_owned(),
            severity: Severity::Deny,
            path: Vec::new(),
        }
    }

    #[test]
    fn accepts_v2() {
        let v2 = r#"{"schema": "hyde-sa-v2", "findings": [
            {"code": "SA009", "pass": "p", "severity": "deny", "file": "b.rs",
             "line": 1, "message": "m2", "path": ["x", "y"]}
        ]}"#;
        let b = Baseline::parse(v2).unwrap();
        assert_eq!(b.schema, "hyde-sa-v2");
        assert!(b.contains(&finding("SA009", "b.rs", "m2")));
        assert!(!b.contains(&finding("SA009", "b.rs", "other")));
    }

    #[test]
    fn rejects_old_and_unknown_schemas() {
        for version in ["v1", "v9"] {
            let text = format!(r#"{{"schema": "hyde-sa-{version}", "findings": []}}"#);
            assert!(
                Baseline::parse(&text).is_err(),
                "hyde-sa-{version} accepted"
            );
        }
        assert!(Baseline::parse("not json").is_err());
    }

    #[test]
    fn diff_surfaces_only_new_denies() {
        let b = Baseline::parse(
            r#"{"schema": "hyde-sa-v2", "findings": [
                {"code": "SA001", "file": "a.rs", "message": "known"}]}"#,
        )
        .unwrap();
        let mut report = Report::default();
        report.findings.push(finding("SA001", "a.rs", "known"));
        report.findings.push(finding("SA003", "b.rs", "fresh"));
        let mut warn = finding("SA013", "c.rs", "stale");
        warn.severity = Severity::Warn;
        report.findings.push(warn);
        let new = b.new_denies(&report);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].file, "b.rs");
    }
}
