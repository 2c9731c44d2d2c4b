//! SA003 — panic surface, ratcheted per file across the workspace.
//!
//! Counts `.unwrap()` / `.expect(` / `.unwrap_unchecked(` calls,
//! `panic!` / `unreachable!` / `todo!` / `unimplemented!` invocations
//! and `[idx]` index expressions in production code (library and binary
//! sources; test code is free to panic) and ratchets the per-file
//! counts against `crates/analyze/ratchets/SA003-panic-surface.txt`.
//! Counts may go down freely — and should, toward typed errors — but
//! only up with a justified ratchet bump. Individual genuinely
//! unreachable sites can instead carry an `sa:allow(SA003)` directive,
//! which removes them from the count.
//!
//! `assert!`/`debug_assert!` are deliberately *not* counted: invariant
//! gates are sanctioned (see `strict-checks`), panics as control flow
//! are not.

use crate::lexer::{self, Tok, TokKind};
use crate::ratchet::Ratchet;
use crate::registry::{Cx, Emitter, Pass};
use crate::source::{FileKind, SourceFile};
use crate::workspace::Workspace;

/// The panic-surface ratchet pass (SA003).
pub struct PanicSurfacePass;

/// Ratchet file name under `crates/analyze/ratchets/`.
pub const RATCHET_FILE: &str = "SA003-panic-surface.txt";

/// Header written into a regenerated ratchet file.
pub const RATCHET_HEADER: &str = "\
Per-file panic-surface ratchet for production code (lib + bin sources),
enforced by `cargo xtask analyze` (pass SA003). Counted sites:
.unwrap() / .expect( / .unwrap_unchecked(, panic!/unreachable!/todo!/
unimplemented!, and [idx] index expressions. Test code is exempt;
sites with an inline `sa:allow(SA003): reason` directive are exempt.
Counts may go DOWN freely (lower the cap when they do) and may only go
UP with a justification in the PR: fallible paths return typed errors
(CoreError, LogicError, SaError, OutOfBudget degradation), so a new
panic site needs to argue it is truly unreachable.
Regenerate with `cargo run -p hyde-analyze --bin hyde-sa -- --update-ratchets`.";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_unchecked"];

fn eligible(f: &SourceFile) -> bool {
    matches!(f.kind, FileKind::Lib | FileKind::Bin)
}

/// One raw panic-surface site (no test-code or allow filtering).
#[derive(Clone, Copy, Debug)]
pub struct Site {
    /// 1-based line of the site.
    pub line: u32,
    /// Human-readable site kind, e.g. `` `.unwrap()` ``.
    pub what: &'static str,
    /// True for `expr[idx]` indexing — counted by SA003's per-file
    /// ratchet, excluded from SA009's reachability (it would make
    /// nearly every fn panic-reaching).
    pub indexing: bool,
}

/// Scans a token window for raw panic-surface sites. Callers apply
/// their own test-code / allow-directive filtering.
pub fn scan_sites(toks: &[Tok]) -> Vec<Site> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // `.unwrap()` / `.expect(` / `.unwrap_unchecked(`
        if t.is_punct('.') && toks.get(i + 2).is_some_and(|p| p.is_punct('(')) {
            if let Some(m) = toks
                .get(i + 1)
                .filter(|m| m.kind == TokKind::Ident && PANIC_METHODS.contains(&m.text.as_str()))
            {
                let what = match m.text.as_str() {
                    "unwrap" => "`.unwrap()`",
                    "expect" => "`.expect(..)`",
                    _ => "`.unwrap_unchecked()`",
                };
                out.push(Site {
                    line: t.line,
                    what,
                    indexing: false,
                });
                continue;
            }
        }
        // `panic!(` and friends
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|b| b.is_punct('!'))
        {
            let what = match t.text.as_str() {
                "panic" => "`panic!`",
                "unreachable" => "`unreachable!`",
                "todo" => "`todo!`",
                _ => "`unimplemented!`",
            };
            out.push(Site {
                line: t.line,
                what,
                indexing: false,
            });
            continue;
        }
        // `expr[idx]` index expressions: `[` after an identifier (not a
        // keyword), `)` or `]`. Attribute/`vec![`/array-literal/slice
        // -pattern brackets follow `#`, `!`, `=`, `(`, `,`, keywords …
        // and are not counted.
        if t.is_punct('[') && i > 0 {
            let indexes = toks.get(i - 1).is_some_and(|p| match p.kind {
                TokKind::Ident => !lexer::is_keyword(&p.text),
                TokKind::Punct => p.is_punct(')') || p.is_punct(']'),
                _ => false,
            });
            if indexes {
                out.push(Site {
                    line: t.line,
                    what: "`[idx]` indexing",
                    indexing: true,
                });
            }
        }
    }
    out
}

/// Counts the panic-surface sites of one file (allow-directive and
/// test-code exempt sites excluded).
pub fn count_file(file: &SourceFile) -> usize {
    scan_sites(file.toks())
        .iter()
        .filter(|s| !file.in_test_code(s.line) && !file.allowed("SA003", s.line))
        .count()
}

/// Per-file counts over the whole workspace, sorted by path.
pub fn counts(ws: &Workspace) -> Vec<(String, usize)> {
    ws.files
        .iter()
        .filter(|f| eligible(f))
        .map(|f| (f.path.clone(), count_file(f)))
        .collect()
}

/// Renders a fresh ratchet file from the current workspace state.
pub fn render_ratchet(ws: &Workspace) -> String {
    Ratchet::render(RATCHET_HEADER, &counts(ws))
}

impl Pass for PanicSurfacePass {
    fn name(&self) -> &'static str {
        "panic-surface"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SA003"]
    }

    fn check(&self, cx: &Cx, out: &mut Emitter) {
        let ws = cx.ws;
        // Record which SA003 allow directives actually fire, for SA013.
        for file in ws.files.iter().filter(|f| eligible(f)) {
            for site in scan_sites(file.toks()) {
                if file.in_test_code(site.line) {
                    continue;
                }
                if let Some(directive) = file.allow_match("SA003", site.line) {
                    out.mark_allow_used(file, directive);
                }
            }
        }
        let Some(text) = ws.ratchet(RATCHET_FILE) else {
            out.emit_path(
                RATCHET_FILE,
                "SA003",
                0,
                "panic-surface ratchet file is missing; regenerate with \
                 `hyde-sa --update-ratchets` and commit it"
                    .into(),
            );
            return;
        };
        let (ratchet, issues) = Ratchet::parse(text);
        for issue in issues {
            out.emit_path(RATCHET_FILE, "SA003", 0, issue);
        }
        let observed = counts(ws);
        for (path, count) in &observed {
            let cap = ratchet.cap(path);
            if *count > cap {
                out.emit_path(
                    path,
                    "SA003",
                    0,
                    format!(
                        "{count} panic-surface sites (ratchet caps it at {cap}); return \
                         typed errors, add `sa:allow(SA003): reason` for truly unreachable \
                         sites, or justify the ratchet bump in the PR"
                    ),
                );
            } else if *count < cap {
                out.note(format!(
                    "SA003: {path} is down to {count} panic-surface sites (ratchet says \
                     {cap}); consider ratcheting {RATCHET_FILE} down"
                ));
            }
        }
        // Stale ratchet entries keep the file honest.
        for (path, _) in &ratchet.entries {
            if !observed.iter().any(|(p, _)| p == path) {
                out.emit_path(
                    RATCHET_FILE,
                    "SA003",
                    0,
                    format!("stale ratchet entry for missing file {path}"),
                );
            }
        }
    }
}
