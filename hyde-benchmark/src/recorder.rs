//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer — a `Session::run`,
//! a CEC call, a protocol round trip — and are kept in memory with their
//! name, start, end, parent and job id, then written out as JSON lines
//! when the run ends. They are separate from `hyde_obs` on purpose: the
//! program's own tracing stays off during timed passes, and measuring it
//! must not depend on it.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed (`session.run`, `cec.call`, `serve.submit`, ...).
    pub name: &'static str,
    /// Start, seconds since the recorder's epoch.
    pub start: f64,
    /// End, seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Circuit, proof or job the span belongs to.
    pub job: String,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Thread-safe, append-only span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Seconds since the epoch.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a span that ran from `start` until now; returns its index
    /// (the `parent` of spans nested in it).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        job: &str,
    ) -> usize {
        let span = Span {
            name,
            start: self.at(start),
            end: self.at(Instant::now()),
            parent,
            job: job.to_owned(),
        };
        let mut spans = self.spans.lock().expect("recorder mutex");
        spans.push(span);
        spans.len() - 1
    }

    /// Reserves a parent span before its children run; [`Self::close`]
    /// sets its end.
    pub fn open(&self, name: &'static str, parent: Option<usize>, job: &str) -> usize {
        self.record(name, Instant::now(), parent, job)
    }

    /// Ends a span reserved with [`Self::open`] now.
    pub fn close(&self, index: usize) {
        let end = self.at(Instant::now());
        self.spans.lock().expect("recorder mutex")[index].end = end;
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("recorder mutex")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Durations (ms) of the spans called `name` that belong to `job`.
    pub fn durations_of(&self, name: &str, job: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("recorder mutex")
            .iter()
            .filter(|s| s.name == name && s.job == job)
            .map(Span::ms)
            .collect()
    }

    /// Duration (ms) of one span.
    pub fn duration(&self, index: usize) -> f64 {
        self.spans.lock().expect("recorder mutex")[index].ms()
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self
            .spans
            .lock()
            .expect("recorder mutex")
            .iter()
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"job\":\"{}\"}}",
                s.name,
                s.start,
                s.end,
                hyde_obs::json::escape(&s.job)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let rec = Recorder::default();
        let pass = rec.open("pass", None, "p0");
        let child = rec.record("session.run", Instant::now(), Some(pass), "rd73");
        rec.close(pass);
        assert_eq!(rec.durations("session.run").len(), 1);
        assert_eq!(rec.durations_of("session.run", "rd73").len(), 1);
        assert!(rec.durations_of("session.run", "z4ml").is_empty());
        assert!(rec.duration(pass) >= rec.duration(child));
        let text = rec.to_json_lines();
        for line in text.lines() {
            hyde_obs::json::parse(line).expect("span line is JSON");
        }
        assert!(text.contains("\"parent\":0"));
    }
}
