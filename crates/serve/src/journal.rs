//! Write-ahead job journal: one hand-rolled JSON object per line,
//! fsynced on every state transition.
//!
//! The journal is the durability layer of `hyde-serve`: `submitted` is
//! written (and synced) before the client's ack, `started`/`retried`
//! mark execution progress, and `completed`/`cancelled` close a job —
//! carrying the full result body so a restart answers `result` queries
//! for work finished before the crash. [`replay`] folds an event stream
//! back into the pending queue and the terminal-state map; a torn final
//! line (the signature of a mid-write `SIGKILL`) is dropped, which is
//! sound because its ack can never have been sent.

use crate::protocol::{budget_json, parse_submit, JobKind, JobSpec};
use hyde_obs::json::{self, Json};
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// One durable state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// A job was admitted (written before the submit ack).
    Submitted {
        /// The full spec, so replay can re-create the job.
        spec: JobSpec,
    },
    /// A worker picked the job up.
    Started {
        /// Job id.
        id: String,
        /// 1-based attempt about to run.
        attempt: u32,
    },
    /// An attempt failed and a retry was scheduled.
    Retried {
        /// Job id.
        id: String,
        /// The attempt that failed.
        attempt: u32,
        /// Outcome token of the failed attempt.
        outcome: String,
    },
    /// The job reached a terminal state.
    Completed {
        /// Job id.
        id: String,
        /// Terminal body.
        outcome: Terminal,
    },
    /// A queued job was cancelled.
    Cancelled {
        /// Job id.
        id: String,
    },
}

/// Terminal outcome recorded by a `completed` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminal {
    /// Mapped and verified.
    Done {
        /// LUT count.
        luts: usize,
        /// Depth in LUT levels.
        depth: usize,
        /// The mapped network (BLIF), so results survive restarts.
        blif: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Retries exhausted; job quarantined.
    Quarantined {
        /// Terminal error text.
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// Encodes an event as one JSON line (no trailing newline).
pub fn encode(ev: &JournalEvent) -> String {
    match ev {
        JournalEvent::Submitted { spec } => {
            let source = match &spec.kind {
                JobKind::Suite { circuit } => {
                    format!(
                        "\"kind\":\"suite\",\"circuit\":\"{}\"",
                        json::escape(circuit)
                    )
                }
                JobKind::Pla { text } => {
                    format!("\"kind\":\"pla\",\"pla\":\"{}\"", json::escape(text))
                }
            };
            format!(
                "{{\"ev\":\"submitted\",\"id\":\"{}\",\"name\":\"{}\",{source},\"budget\":{}}}",
                json::escape(&spec.id),
                json::escape(&spec.name),
                budget_json(&spec.budget)
            )
        }
        JournalEvent::Started { id, attempt } => format!(
            "{{\"ev\":\"started\",\"id\":\"{}\",\"attempt\":{attempt}}}",
            json::escape(id)
        ),
        JournalEvent::Retried {
            id,
            attempt,
            outcome,
        } => format!(
            "{{\"ev\":\"retried\",\"id\":\"{}\",\"attempt\":{attempt},\"outcome\":\"{}\"}}",
            json::escape(id),
            json::escape(outcome)
        ),
        JournalEvent::Completed { id, outcome } => match outcome {
            Terminal::Done {
                luts,
                depth,
                blif,
                attempts,
            } => format!(
                "{{\"ev\":\"completed\",\"id\":\"{}\",\"state\":\"done\",\"luts\":{luts},\
                 \"depth\":{depth},\"attempts\":{attempts},\"blif\":\"{}\"}}",
                json::escape(id),
                json::escape(blif)
            ),
            Terminal::Quarantined { error, attempts } => format!(
                "{{\"ev\":\"completed\",\"id\":\"{}\",\"state\":\"quarantined\",\
                 \"attempts\":{attempts},\"error\":\"{}\"}}",
                json::escape(id),
                json::escape(error)
            ),
        },
        JournalEvent::Cancelled { id } => {
            format!("{{\"ev\":\"cancelled\",\"id\":\"{}\"}}", json::escape(id))
        }
    }
}

fn req_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("journal event lacks string '{key}'"))
}

fn req_num(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_num)
        .filter(|n| n.is_finite() && *n >= 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("journal event lacks number '{key}'"))
}

/// Decodes one journal line.
///
/// # Errors
///
/// Returns a description of the structural violation (the caller
/// decides whether the line is a tolerable torn tail).
pub fn decode(line: &str) -> Result<JournalEvent, String> {
    let doc = json::parse(line.trim_end()).map_err(|e| e.to_string())?;
    match doc.get("ev").and_then(Json::as_str) {
        // A `submitted` line carries exactly a submit request's fields.
        Some("submitted") => Ok(JournalEvent::Submitted {
            spec: parse_submit(&doc).map_err(|e| e.to_string())?,
        }),
        Some("started") => Ok(JournalEvent::Started {
            id: req_str(&doc, "id")?,
            attempt: req_num(&doc, "attempt")? as u32,
        }),
        Some("retried") => Ok(JournalEvent::Retried {
            id: req_str(&doc, "id")?,
            attempt: req_num(&doc, "attempt")? as u32,
            outcome: req_str(&doc, "outcome")?,
        }),
        Some("completed") => {
            let id = req_str(&doc, "id")?;
            let attempts = req_num(&doc, "attempts")? as u32;
            let outcome = match doc.get("state").and_then(Json::as_str) {
                Some("done") => Terminal::Done {
                    luts: req_num(&doc, "luts")? as usize,
                    depth: req_num(&doc, "depth")? as usize,
                    blif: req_str(&doc, "blif")?,
                    attempts,
                },
                Some("quarantined") => Terminal::Quarantined {
                    error: req_str(&doc, "error")?,
                    attempts,
                },
                other => return Err(format!("bad completed state {other:?}")),
            };
            Ok(JournalEvent::Completed { id, outcome })
        }
        Some("cancelled") => Ok(JournalEvent::Cancelled {
            id: req_str(&doc, "id")?,
        }),
        other => Err(format!("unknown journal event {other:?}")),
    }
}

/// The state a journal replay reconstructs.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Jobs submitted but not terminal, in submission order (includes
    /// jobs that were mid-flight: mapping is deterministic and pure, so
    /// restarting an interrupted attempt is idempotent).
    pub pending: Vec<JobSpec>,
    /// Terminal jobs: `(id, outcome)` in completion order.
    pub terminal: Vec<(String, Terminal)>,
    /// Ids cancelled while queued.
    pub cancelled: Vec<String>,
    /// Undecodable lines skipped (at most the torn tail under the
    /// fsync-before-ack discipline; more indicates corruption).
    pub skipped_lines: usize,
}

/// Folds an event stream into recovered state.
pub fn replay(events: &[JournalEvent]) -> Recovered {
    let mut rec = Recovered::default();
    for ev in events {
        match ev {
            JournalEvent::Submitted { spec } => {
                if rec.pending.iter().all(|s| s.id != spec.id) {
                    rec.pending.push(spec.clone());
                }
            }
            JournalEvent::Started { .. } | JournalEvent::Retried { .. } => {}
            JournalEvent::Completed { id, outcome } => {
                rec.pending.retain(|s| s.id != *id);
                rec.terminal.push((id.clone(), outcome.clone()));
            }
            JournalEvent::Cancelled { id } => {
                rec.pending.retain(|s| s.id != *id);
                rec.cancelled.push(id.clone());
            }
        }
    }
    rec
}

/// An append-only journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, returning the
    /// handle and the decoded events already on disk. Undecodable lines
    /// are counted and skipped, not fatal.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Vec<JournalEvent>, usize)> {
        let mut events = Vec::new();
        let mut skipped = 0usize;
        if path.exists() {
            let reader = BufReader::new(File::open(path)?);
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                match decode(&line) {
                    Ok(ev) => events.push(ev),
                    Err(_) => skipped += 1,
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            events,
            skipped,
        ))
    }

    /// Appends one event and syncs it to disk before returning — the
    /// write-ahead contract: no ack, no response, no state transition
    /// is observable before its journal record is durable.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures.
    pub fn append(&mut self, ev: &JournalEvent) -> std::io::Result<()> {
        let mut line = encode(ev);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        hyde_obs::counter("serve.journal.events", 1);
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyde_map::session::BudgetSpec;

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            name: "misex1".into(),
            kind: JobKind::Suite {
                circuit: "misex1".into(),
            },
            budget: BudgetSpec {
                deadline_ms: Some(500),
                ..BudgetSpec::unlimited()
            },
        }
    }

    #[test]
    fn events_round_trip_through_encode_decode() {
        let evs = vec![
            JournalEvent::Submitted { spec: spec("j1") },
            JournalEvent::Started {
                id: "j1".into(),
                attempt: 1,
            },
            JournalEvent::Retried {
                id: "j1".into(),
                attempt: 1,
                outcome: "injected-kill".into(),
            },
            JournalEvent::Completed {
                id: "j1".into(),
                outcome: Terminal::Done {
                    luts: 9,
                    depth: 3,
                    blif: ".model m\n.end\n".into(),
                    attempts: 2,
                },
            },
            JournalEvent::Completed {
                id: "j2".into(),
                outcome: Terminal::Quarantined {
                    error: "panicked: chaos".into(),
                    attempts: 3,
                },
            },
            JournalEvent::Cancelled { id: "j3".into() },
            // Every budget field set, on the other job kind.
            JournalEvent::Submitted {
                spec: JobSpec {
                    id: "j4".into(),
                    name: "and2".into(),
                    kind: JobKind::Pla {
                        text: ".i 2\n.o 1\n11 1\n.e\n".into(),
                    },
                    budget: BudgetSpec {
                        deadline_ms: Some(500),
                        bdd_nodes: Some(65_536),
                        candidates: Some(64),
                    },
                },
            },
        ];
        for ev in &evs {
            let line = encode(ev);
            assert_eq!(&decode(&line).expect(&line), ev, "{line}");
        }
    }

    #[test]
    fn replay_recovers_pending_and_terminal_jobs() {
        let events = vec![
            JournalEvent::Submitted { spec: spec("a") },
            JournalEvent::Submitted { spec: spec("b") },
            JournalEvent::Submitted { spec: spec("c") },
            JournalEvent::Started {
                id: "a".into(),
                attempt: 1,
            },
            JournalEvent::Completed {
                id: "a".into(),
                outcome: Terminal::Quarantined {
                    error: "x".into(),
                    attempts: 3,
                },
            },
            JournalEvent::Cancelled { id: "c".into() },
            JournalEvent::Started {
                id: "b".into(),
                attempt: 1,
            },
        ];
        let rec = replay(&events);
        // `b` was mid-flight at the cut: it must come back as pending.
        assert_eq!(
            rec.pending
                .iter()
                .map(|s| s.id.as_str())
                .collect::<Vec<_>>(),
            vec!["b"]
        );
        assert_eq!(rec.terminal.len(), 1);
        assert_eq!(rec.cancelled, vec!["c".to_string()]);
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("hyde-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let mut text = String::new();
        text.push_str(&encode(&JournalEvent::Submitted { spec: spec("a") }));
        text.push('\n');
        text.push_str("{\"ev\":\"submitted\",\"id\":\"b\",\"na"); // torn mid-write
        std::fs::write(&path, text).unwrap();
        let (_j, events, skipped) = Journal::open(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
