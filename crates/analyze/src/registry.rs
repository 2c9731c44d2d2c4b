//! The pass registry: the [`Pass`] trait and the [`Registry`] that fans
//! the workspace's source files out to every pass.
//!
//! v2 additions: passes receive a [`Cx`] carrying the workspace *and*
//! the call graph (built once per run), findings carry a severity, and
//! every suppression an emitter applies is recorded as a
//! `(file, directive line)` pair so the post-phase SA013 pass can flag
//! stale `sa:allow` directives.

use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::report::{Finding, PassSummary, Report, Severity};
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Everything a pass can see: the workspace and the call graph.
pub struct Cx<'a> {
    /// The analyzed workspace.
    pub ws: &'a Workspace,
    /// The cross-crate call graph (symbol table inside).
    pub graph: &'a CallGraph,
}

/// A suppression that fired: `(file path, directive line)`.
pub type UsedAllow = (String, u32);

/// Collects findings for one pass, applying `sa:allow` directives.
pub struct Emitter {
    pass: &'static str,
    findings: Vec<Finding>,
    allowed: usize,
    notes: Vec<String>,
    used_allows: BTreeSet<UsedAllow>,
}

impl Emitter {
    fn new(pass: &'static str) -> Emitter {
        Emitter {
            pass,
            findings: Vec::new(),
            allowed: 0,
            notes: Vec::new(),
            used_allows: BTreeSet::new(),
        }
    }

    /// Emits a deny finding anchored in `file`, honoring its allow
    /// directives.
    pub fn emit(&mut self, file: &SourceFile, code: &'static str, line: u32, message: String) {
        self.emit_with_path(file, code, line, message, Vec::new());
    }

    /// Emits a deny finding with call-path evidence, honoring allow
    /// directives at `line`.
    pub fn emit_with_path(
        &mut self,
        file: &SourceFile,
        code: &'static str,
        line: u32,
        message: String,
        path: Vec<String>,
    ) {
        if let Some(directive) = file.allow_match(code, line) {
            self.allowed += 1;
            self.used_allows.insert((file.path.clone(), directive));
        } else {
            self.findings.push(Finding {
                code,
                pass: self.pass,
                file: file.path.clone(),
                line,
                message,
                severity: Severity::Deny,
                path,
            });
        }
    }

    /// Emits a warn finding anchored in `file`, honoring its allow
    /// directives.
    pub fn warn(&mut self, file: &SourceFile, code: &'static str, line: u32, message: String) {
        if let Some(directive) = file.allow_match(code, line) {
            self.allowed += 1;
            self.used_allows.insert((file.path.clone(), directive));
        } else {
            self.findings.push(Finding {
                code,
                pass: self.pass,
                file: file.path.clone(),
                line,
                message,
                severity: Severity::Warn,
                path: Vec::new(),
            });
        }
    }

    /// Emits a deny finding against a path with no allow-directive
    /// support (manifests, `DESIGN.md`, ratchet files, workspace-level
    /// checks).
    pub fn emit_path(&mut self, path: &str, code: &'static str, line: u32, message: String) {
        self.findings.push(Finding {
            code,
            pass: self.pass,
            file: path.to_owned(),
            line,
            message,
            severity: Severity::Deny,
            path: Vec::new(),
        });
    }

    /// Records that the allow directive at `(file, line)` suppressed a
    /// finding — used by passes that apply directives through a side
    /// channel (e.g. SA003's ratchet counting, SA009's site filter).
    pub fn mark_allow_used(&mut self, file: &SourceFile, directive_line: u32) {
        self.used_allows.insert((file.path.clone(), directive_line));
    }

    /// True when this emitter itself recorded the directive at
    /// `(file, line)` as used — lets SA013 avoid warning about an
    /// SA013-allow that just suppressed another SA013 warning.
    pub fn was_allow_used(&self, file: &SourceFile, directive_line: u32) -> bool {
        self.used_allows
            .contains(&(file.path.clone(), directive_line))
    }

    /// Records a non-failing improvement note (e.g. a ratchet count
    /// below its committed cap).
    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }
}

/// One static-analysis pass.
pub trait Pass {
    /// Short kebab-case name, e.g. `"determinism"`.
    fn name(&self) -> &'static str;
    /// The stable `SAxxx` codes this pass can emit.
    fn codes(&self) -> &'static [&'static str];
    /// Appends findings on `cx` to `out`.
    fn check(&self, cx: &Cx, out: &mut Emitter);
    /// Post-phase hook, run after every pass's `check` with the union
    /// of suppressions that fired. Only SA013 implements this.
    fn post(&self, cx: &Cx, used: &BTreeSet<UsedAllow>, out: &mut Emitter) {
        let _ = (cx, used, out);
    }
}

/// An ordered collection of passes run as one analysis.
pub struct Registry {
    passes: Vec<Box<dyn Pass>>,
}

impl Registry {
    /// An empty registry.
    pub fn empty() -> Registry {
        Registry { passes: Vec::new() }
    }

    /// A registry with every pass shipped by this crate.
    pub fn with_defaults() -> Registry {
        let mut r = Registry::empty();
        r.register(Box::new(crate::passes::determinism::DeterminismPass));
        r.register(Box::new(crate::passes::panic_surface::PanicSurfacePass));
        r.register(Box::new(crate::passes::obs::ObsPass));
        r.register(Box::new(crate::passes::diag::DiagRegistryPass));
        r.register(Box::new(crate::passes::features::FeatureHygienePass));
        r.register(Box::new(crate::passes::panic_reach::PanicReachPass));
        r.register(Box::new(crate::passes::budget_flow::BudgetFlowPass));
        r.register(Box::new(crate::passes::par_merge::ParMergePass));
        let known = r.all_codes_with("SA013");
        r.register(Box::new(crate::passes::suppressions::SuppressionsPass {
            known_codes: known,
        }));
        r
    }

    /// Adds a pass to the end of the run order.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// `(name, codes)` of the registered passes, in run order.
    pub fn pass_list(&self) -> Vec<(&'static str, &'static [&'static str])> {
        self.passes.iter().map(|p| (p.name(), p.codes())).collect()
    }

    /// Every code any registered pass can emit, in run order.
    pub fn all_codes(&self) -> Vec<&'static str> {
        self.passes
            .iter()
            .flat_map(|p| p.codes().iter().copied())
            .collect()
    }

    fn all_codes_with(&self, extra: &'static str) -> Vec<&'static str> {
        let mut v = self.all_codes();
        v.push(extra);
        v
    }

    /// Runs every pass over `ws` and collects the report. The call
    /// graph is built once and shared; the post phase (SA013) runs
    /// after every check with the union of used suppressions.
    pub fn run(&self, ws: &Workspace) -> Report {
        let graph = CallGraph::build(ws);
        let cx = Cx { ws, graph: &graph };
        let mut report = Report {
            files_scanned: ws.files.len(),
            ..Report::default()
        };
        let mut used: BTreeSet<UsedAllow> = BTreeSet::new();
        let mut emitters: Vec<Emitter> = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let _obs = hyde_obs::span!("sa.pass");
            let mut em = Emitter::new(pass.name());
            pass.check(&cx, &mut em);
            used.extend(em.used_allows.iter().cloned());
            emitters.push(em);
        }
        for (pass, em) in self.passes.iter().zip(emitters.iter_mut()) {
            pass.post(&cx, &used, em);
        }
        for em in emitters {
            let denies = em
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Deny)
                .count();
            report.passes.push(PassSummary {
                pass: em.pass,
                codes: self
                    .passes
                    .iter()
                    .find(|p| p.name() == em.pass)
                    .map(|p| p.codes().to_vec())
                    .unwrap_or_default(),
                findings: denies,
                warnings: em.findings.len() - denies,
                allowed: em.allowed,
            });
            report.findings.extend(em.findings);
            report.notes.extend(em.notes);
        }
        hyde_obs::counter("sa.findings", report.findings.len() as u64);
        hyde_obs::counter("sa.allowed", report.allowed() as u64);
        report
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_defaults()
    }
}
