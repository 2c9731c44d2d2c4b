//! Hand-rolled recursive-descent parser from the token stream
//! ([`crate::lexer`]) to the item-level AST ([`crate::ast`]).
//!
//! Design rules, in priority order:
//!
//! 1. **Total**: parsing never fails. Anything that does not parse as a
//!    recognized item becomes an [`ItemKind::Other`] span, so malformed
//!    or exotic code degrades to "opaque tokens", never to a panic or an
//!    error.
//! 2. **Tiling**: the top-level item spans of [`parse_file`] cover the
//!    token stream exactly — no gaps, no overlaps. Every helper clamps
//!    to its region, so unbalanced brackets cannot leak past it. A
//!    property test in `tests/parser.rs` checks the invariant over every
//!    real workspace file.
//! 3. **Shallow**: expression parsing keeps only calls, method calls,
//!    macros and closures (what the interprocedural passes consume);
//!    all other expression structure is walked through transparently,
//!    so a call nested five levels deep in `if let` scrutinees still
//!    shows up.
//!
//! Known approximations (documented in DESIGN.md): `const`-generic
//! defaults with brace expressions can end a `struct` item early (the
//! remainder tiles into `Other`), and a closure the positional
//! heuristic misses is flattened into its surrounding expression list —
//! its calls are still collected, only the `Closure` wrapper is lost.

use crate::ast::{Ast, Block, Expr, FnDecl, ImplBlock, Item, ItemKind};
use crate::lexer::{self, Tok, TokKind};

/// Parses a full token stream into an [`Ast`] whose top-level item
/// spans tile `toks` exactly.
pub fn parse_file(toks: &[Tok]) -> Ast {
    let p = Parser { toks };
    Ast {
        items: p.items_range(0, toks.len()),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
}

/// Path-leading keywords that start a resolvable call path.
const PATH_KEYWORDS: &[&str] = &["self", "Self", "crate", "super"];

/// Keywords after which a `|` starts a closure.
const CLOSURE_PREV_KEYWORDS: &[&str] = &["return", "else", "in", "match"];

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&'a Tok> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
    }

    fn ident(&self, i: usize) -> Option<&'a str> {
        self.tok(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    /// Index just past the matching close of the `(`/`[`/`{` at `open`
    /// (same-type nesting), clamped to `end`. For any other token,
    /// `open + 1`.
    fn skip_group(&self, open: usize, end: usize) -> usize {
        let Some(t) = self.tok(open) else {
            return end;
        };
        let close = match t.text.chars().next() {
            Some('(') if t.kind == TokKind::Punct => ')',
            Some('[') if t.kind == TokKind::Punct => ']',
            Some('{') if t.kind == TokKind::Punct => '}',
            _ => return (open + 1).min(end),
        };
        let open_c = t.text.chars().next().unwrap_or('(');
        let mut depth = 0usize;
        let mut i = open;
        while i < end {
            if self.is_punct(i, open_c) {
                depth += 1;
            } else if self.is_punct(i, close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        end
    }

    /// The matching `>` for the `<` at `open` (skipping `->` arrows and
    /// bracket groups), or `None` when the region ends or a `;`
    /// intervenes first.
    fn match_angle(&self, open: usize, end: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{') {
                i = self.skip_group(i, end);
                continue;
            }
            if self.is_punct(i, '<') {
                depth += 1;
            } else if self.is_punct(i, '>') && !(i > 0 && self.is_punct(i - 1, '-')) {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            } else if self.is_punct(i, ';') {
                return None;
            }
            i += 1;
        }
        None
    }

    // -----------------------------------------------------------------
    // Items
    // -----------------------------------------------------------------

    /// Parses `[start, end)` into items whose spans tile it exactly.
    fn items_range(&self, start: usize, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        let mut other_start: Option<usize> = None;
        let mut i = start;
        while i < end {
            if let Some((item, next)) = self.try_item(i, end) {
                debug_assert!(next > i && item.span == (i, next - 1));
                if let Some(os) = other_start.take() {
                    out.push(Item {
                        span: (os, i - 1),
                        kind: ItemKind::Other,
                    });
                }
                out.push(item);
                i = next;
            } else {
                if other_start.is_none() {
                    other_start = Some(i);
                }
                i = self.skip_group(i, end);
            }
        }
        if let Some(os) = other_start {
            out.push(Item {
                span: (os, end - 1),
                kind: ItemKind::Other,
            });
        }
        out
    }

    /// Tries to parse one item at `start`; returns the item and the
    /// index just past it, or `None` (cursor conceptually unmoved).
    fn try_item(&self, start: usize, end: usize) -> Option<(Item, usize)> {
        let mut i = start;
        // Attributes: `#[...]` and `#![...]`.
        loop {
            if self.is_punct(i, '#') {
                let mut j = i + 1;
                if self.is_punct(j, '!') {
                    j += 1;
                }
                if self.is_punct(j, '[') {
                    i = self.skip_group(j, end);
                    continue;
                }
            }
            break;
        }
        // Visibility: only a bare `pub` is public; `pub(crate)`,
        // `pub(super)` and `pub(in …)` stay inside the crate.
        let mut is_pub = false;
        if self.ident(i) == Some("pub") {
            i += 1;
            if self.is_punct(i, '(') {
                i = self.skip_group(i, end);
            } else {
                is_pub = true;
            }
        }
        // Modifiers before the item keyword.
        loop {
            match self.ident(i) {
                Some("unsafe") | Some("async") | Some("default") => i += 1,
                Some("const")
                    if matches!(
                        self.ident(i + 1),
                        Some("fn") | Some("unsafe") | Some("async") | Some("extern")
                    ) =>
                {
                    i += 1;
                }
                Some("extern")
                    if self.ident(i + 1) == Some("fn") || {
                        self.tok(i + 1).is_some_and(|t| t.kind == TokKind::Str)
                            && self.ident(i + 2) == Some("fn")
                    } =>
                {
                    i += 1;
                    if self.tok(i).is_some_and(|t| t.kind == TokKind::Str) {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        match self.ident(i)? {
            "fn" => self.parse_fn(start, i, is_pub, end),
            "impl" => self.parse_impl(start, i, end),
            "trait" => self.parse_trait(start, i, end),
            "mod" => self.parse_mod(start, i, end),
            "use" => self.parse_use(start, i, end),
            "struct" | "enum" | "union" | "macro_rules" | "macro" => {
                let next = self.consume_braced_or_semi(i, end)?;
                Some((
                    Item {
                        span: (start, next - 1),
                        kind: ItemKind::Other,
                    },
                    next,
                ))
            }
            "static" | "type" | "const" => {
                let next = self.consume_to_semi(i, end)?;
                Some((
                    Item {
                        span: (start, next - 1),
                        kind: ItemKind::Other,
                    },
                    next,
                ))
            }
            _ => None,
        }
    }

    /// Consumes an item ending at the first top-level `{...}` block or
    /// `;` (structs, enums, `macro_rules!`).
    fn consume_braced_or_semi(&self, from: usize, end: usize) -> Option<usize> {
        let mut i = from;
        while i < end {
            if self.is_punct(i, '{') {
                return Some(self.skip_group(i, end));
            }
            if self.is_punct(i, ';') {
                return Some(i + 1);
            }
            if self.is_punct(i, '(') || self.is_punct(i, '[') {
                i = self.skip_group(i, end);
                continue;
            }
            i += 1;
        }
        None
    }

    /// Consumes an item ending at the first top-level `;`, skipping all
    /// bracket groups (statics/consts with struct-literal initializers).
    fn consume_to_semi(&self, from: usize, end: usize) -> Option<usize> {
        let mut i = from;
        while i < end {
            if self.is_punct(i, ';') {
                return Some(i + 1);
            }
            if self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{') {
                i = self.skip_group(i, end);
                continue;
            }
            i += 1;
        }
        None
    }

    fn parse_fn(
        &self,
        start: usize,
        fn_idx: usize,
        is_pub: bool,
        end: usize,
    ) -> Option<(Item, usize)> {
        let name_tok = self.tok(fn_idx + 1).filter(|t| t.kind == TokKind::Ident)?;
        let mut i = fn_idx + 2;
        if self.is_punct(i, '<') {
            i = self.match_angle(i, end)? + 1;
        }
        if !self.is_punct(i, '(') {
            return None;
        }
        let after_params = self.skip_group(i, end);
        // Scan the signature tail (return type, where clause) for the
        // body `{` or a terminating `;` at angle depth 0.
        let mut j = after_params;
        let mut angle = 0i32;
        let (body_open, sig_close) = loop {
            let t = self.tok(j)?;
            if t.is_punct('(') || t.is_punct('[') {
                j = self.skip_group(j, end);
                continue;
            }
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(j > 0 && self.is_punct(j - 1, '-')) {
                angle -= 1;
            } else if t.is_punct('{') && angle <= 0 {
                break (Some(j), j);
            } else if t.is_punct(';') && angle <= 0 {
                break (None, j + 1);
            }
            j += 1;
            if j >= end {
                return None;
            }
        };
        let sig = (fn_idx, sig_close.saturating_sub(1).max(fn_idx));
        let sig_idents: Vec<String> = self
            .toks
            .get(sig.0..=sig.1)
            .unwrap_or_default()
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        let (body, next) = match body_open {
            Some(open) => {
                let after = self.skip_group(open, end);
                let close = after - 1;
                (
                    Some(Block {
                        span: (open, close),
                        exprs: self.exprs(open + 1, close),
                    }),
                    after,
                )
            }
            None => (None, sig_close),
        };
        Some((
            Item {
                span: (start, next - 1),
                kind: ItemKind::Fn(FnDecl {
                    name: name_tok.text.clone(),
                    line: self.tok(fn_idx).map_or(0, |t| t.line),
                    is_pub,
                    sig,
                    sig_idents,
                    body,
                }),
            },
            next,
        ))
    }

    fn parse_impl(&self, start: usize, impl_idx: usize, end: usize) -> Option<(Item, usize)> {
        let mut i = impl_idx + 1;
        if self.is_punct(i, '<') {
            i = self.match_angle(i, end)? + 1;
        }
        let mut pre_for: Vec<String> = Vec::new();
        let mut post_for: Vec<String> = Vec::new();
        let mut seen_for = false;
        let mut in_where = false;
        let open = loop {
            let t = self.tok(i)?;
            if t.is_punct('{') {
                break i;
            }
            if t.is_punct('(') || t.is_punct('[') {
                i = self.skip_group(i, end);
                continue;
            }
            if t.is_punct('<') {
                i = self.match_angle(i, end)? + 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "for" => seen_for = true,
                    "where" => in_where = true,
                    "dyn" | "mut" | "as" => {}
                    name if !in_where => {
                        if seen_for {
                            post_for.push(name.to_owned());
                        } else {
                            pre_for.push(name.to_owned());
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
            if i >= end {
                return None;
            }
        };
        let (owner, of_trait) = if seen_for {
            (post_for.last()?.clone(), pre_for.last().cloned())
        } else {
            (pre_for.last()?.clone(), None)
        };
        let next = self.skip_group(open, end);
        let items = self.items_range(open + 1, next - 1);
        Some((
            Item {
                span: (start, next - 1),
                kind: ItemKind::Impl(ImplBlock {
                    owner,
                    of_trait,
                    is_trait: false,
                    items,
                }),
            },
            next,
        ))
    }

    fn parse_trait(&self, start: usize, trait_idx: usize, end: usize) -> Option<(Item, usize)> {
        let name = self.ident(trait_idx + 1)?.to_owned();
        let mut i = trait_idx + 2;
        let open = loop {
            let t = self.tok(i)?;
            if t.is_punct('{') {
                break i;
            }
            if t.is_punct(';') {
                // `trait Alias = ...;` — opaque.
                return Some((
                    Item {
                        span: (start, i),
                        kind: ItemKind::Other,
                    },
                    i + 1,
                ));
            }
            if t.is_punct('<') {
                i = self.match_angle(i, end)? + 1;
                continue;
            }
            i = self.skip_group(i, end);
            if i >= end {
                return None;
            }
        };
        let next = self.skip_group(open, end);
        let items = self.items_range(open + 1, next - 1);
        Some((
            Item {
                span: (start, next - 1),
                kind: ItemKind::Impl(ImplBlock {
                    owner: name,
                    of_trait: None,
                    is_trait: true,
                    items,
                }),
            },
            next,
        ))
    }

    fn parse_mod(&self, start: usize, mod_idx: usize, end: usize) -> Option<(Item, usize)> {
        let name = self.ident(mod_idx + 1)?.to_owned();
        if self.is_punct(mod_idx + 2, ';') {
            return Some((
                Item {
                    span: (start, mod_idx + 2),
                    kind: ItemKind::Other,
                },
                mod_idx + 3,
            ));
        }
        if !self.is_punct(mod_idx + 2, '{') {
            return None;
        }
        let next = self.skip_group(mod_idx + 2, end);
        let items = self.items_range(mod_idx + 3, next - 1);
        Some((
            Item {
                span: (start, next - 1),
                kind: ItemKind::Mod { name, items },
            },
            next,
        ))
    }

    fn parse_use(&self, start: usize, use_idx: usize, end: usize) -> Option<(Item, usize)> {
        let semi = self.consume_to_semi(use_idx, end)?;
        let mut imports = Vec::new();
        self.use_tree(use_idx + 1, semi - 1, Vec::new(), &mut imports);
        Some((
            Item {
                span: (start, semi - 1),
                kind: ItemKind::Use { imports },
            },
            semi,
        ))
    }

    /// Flattens one use-tree in `[i, end)` (exclusive of the `;`),
    /// appending `(binding, path)` pairs.
    fn use_tree(
        &self,
        mut i: usize,
        end: usize,
        mut path: Vec<String>,
        out: &mut Vec<(String, Vec<String>)>,
    ) {
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.kind == TokKind::Ident {
                if t.text == "as" {
                    if let Some(alias) = self.ident(i + 1) {
                        out.push((alias.to_owned(), path));
                    }
                    return;
                }
                path.push(t.text.clone());
                i += 1;
                continue;
            }
            if t.is_punct(':') && self.is_punct(i + 1, ':') {
                i += 2;
                continue;
            }
            if t.is_punct('*') {
                path.push("*".to_owned());
                out.push(("*".to_owned(), path));
                return;
            }
            if t.is_punct('{') {
                let close = self.skip_group(i, end + 1).saturating_sub(1);
                let mut seg_start = i + 1;
                let mut j = i + 1;
                while j < close {
                    if self.is_punct(j, '{') || self.is_punct(j, '(') {
                        j = self.skip_group(j, close);
                        continue;
                    }
                    if self.is_punct(j, ',') {
                        self.use_tree(seg_start, j, path.clone(), out);
                        seg_start = j + 1;
                    }
                    j += 1;
                }
                if seg_start < close {
                    self.use_tree(seg_start, close, path, out);
                }
                return;
            }
            i += 1;
        }
        if let Some(last) = path.last().cloned() {
            out.push((last, path));
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    /// True when a `|` preceded (at the same nesting level) by `prev`
    /// starts a closure rather than a bitwise-or / pattern alternative.
    fn closure_position(prev: Option<&Tok>) -> bool {
        match prev {
            None => true,
            Some(t) if t.kind == TokKind::Punct => {
                matches!(
                    t.text.chars().next(),
                    Some('(')
                        | Some(',')
                        | Some('=')
                        | Some('{')
                        | Some(';')
                        | Some('[')
                        | Some('>')
                        | Some('&')
                )
            }
            Some(t) if t.kind == TokKind::Ident => CLOSURE_PREV_KEYWORDS.contains(&t.text.as_str()),
            _ => false,
        }
    }

    /// Flattens `[start, end)` into the expression constructs the
    /// passes consume. Always total; never panics on malformed input.
    fn exprs(&self, start: usize, end: usize) -> Vec<Expr> {
        let mut out = Vec::new();
        let mut prev: Option<&Tok> = None;
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            // `move |...|` / `|...|` closures.
            if t.is_ident("move") && self.is_punct(i + 1, '|') {
                if let Some((c, next)) = self.parse_closure(i, i + 1, end) {
                    out.push(c);
                    prev = None;
                    i = next;
                    continue;
                }
            }
            if t.is_punct('|') && Self::closure_position(prev) {
                if let Some((c, next)) = self.parse_closure(i, i, end) {
                    out.push(c);
                    prev = None;
                    i = next;
                    continue;
                }
            }
            // Macro invocations: `name!(..)` / `name![..]` / `name!{..}`.
            if t.kind == TokKind::Ident
                && self.is_punct(i + 1, '!')
                && (self.is_punct(i + 2, '(')
                    || self.is_punct(i + 2, '[')
                    || self.is_punct(i + 2, '{'))
            {
                let next = self.skip_group(i + 2, end);
                out.push(Expr::Macro {
                    name: t.text.clone(),
                    inner: self.exprs(i + 3, next.saturating_sub(1)),
                    line: t.line,
                });
                prev = self.tok(next - 1);
                i = next;
                continue;
            }
            // Paths and calls.
            if t.kind == TokKind::Ident
                && (!lexer::is_keyword(&t.text) || PATH_KEYWORDS.contains(&t.text.as_str()))
            {
                let (path, after) = self.parse_path(i, end);
                if self.is_punct(after, '!')
                    && (self.is_punct(after + 1, '(')
                        || self.is_punct(after + 1, '[')
                        || self.is_punct(after + 1, '{'))
                {
                    let next = self.skip_group(after + 1, end);
                    out.push(Expr::Macro {
                        name: path.last().cloned().unwrap_or_default(),
                        inner: self.exprs(after + 2, next.saturating_sub(1)),
                        line: t.line,
                    });
                    prev = self.tok(next - 1);
                    i = next;
                    continue;
                }
                if self.is_punct(after, '(') {
                    let next = self.skip_group(after, end);
                    out.push(Expr::Call {
                        path,
                        args: self.parse_args(after + 1, next.saturating_sub(1)),
                        line: t.line,
                    });
                    prev = self.tok(next - 1);
                    i = next;
                    continue;
                }
                prev = self.tok(after - 1);
                i = after;
                continue;
            }
            // Method calls: `.name(..)` with optional turbofish.
            if t.is_punct('.') {
                if let Some(m) = self.tok(i + 1).filter(|m| m.kind == TokKind::Ident) {
                    let mut j = i + 2;
                    if self.is_punct(j, ':')
                        && self.is_punct(j + 1, ':')
                        && self.is_punct(j + 2, '<')
                    {
                        if let Some(close) = self.match_angle(j + 2, end) {
                            j = close + 1;
                        }
                    }
                    if self.is_punct(j, '(') {
                        let next = self.skip_group(j, end);
                        out.push(Expr::Method {
                            name: m.text.clone(),
                            args: self.parse_args(j + 1, next.saturating_sub(1)),
                            line: m.line,
                        });
                        prev = self.tok(next - 1);
                        i = next;
                        continue;
                    }
                    prev = Some(m);
                    i += 2;
                    continue;
                }
            }
            // Transparent bracket groups.
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                let next = self.skip_group(i, end);
                out.extend(self.exprs(i + 1, next.saturating_sub(1)));
                prev = self.tok(next - 1);
                i = next;
                continue;
            }
            prev = Some(t);
            i += 1;
        }
        out
    }

    /// Parses a path `seg(::seg)*` with embedded turbofish; returns the
    /// segments and the index just past the path.
    fn parse_path(&self, start: usize, end: usize) -> (Vec<String>, usize) {
        let mut path = vec![self.tok(start).map(|t| t.text.clone()).unwrap_or_default()];
        let mut i = start + 1;
        while i + 1 < end && self.is_punct(i, ':') && self.is_punct(i + 1, ':') {
            if self.is_punct(i + 2, '<') {
                match self.match_angle(i + 2, end) {
                    Some(close) => {
                        i = close + 1;
                        continue;
                    }
                    None => break,
                }
            }
            match self.tok(i + 2).filter(|t| t.kind == TokKind::Ident) {
                Some(seg) => {
                    path.push(seg.text.clone());
                    i += 3;
                }
                None => break,
            }
        }
        (path, i)
    }

    /// Splits `[start, end)` at top-level commas (closure-parameter
    /// commas excluded) and parses each slice.
    fn parse_args(&self, start: usize, end: usize) -> Vec<Vec<Expr>> {
        let mut parts = Vec::new();
        let mut part_start = start;
        let mut prev: Option<&Tok> = None;
        let mut i = start;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                i = self.skip_group(i, end);
                prev = self.tok(i - 1);
                continue;
            }
            if t.is_punct('|') && Self::closure_position(prev) {
                i = self.closure_params_end(i, end);
                prev = self.tok(i - 1);
                continue;
            }
            if t.is_punct(',') {
                parts.push((part_start, i));
                part_start = i + 1;
            }
            prev = Some(t);
            i += 1;
        }
        if part_start < end {
            parts.push((part_start, end));
        }
        parts.into_iter().map(|(s, e)| self.exprs(s, e)).collect()
    }

    /// Index just past the closing `|` of the closure-parameter list
    /// opening at `bar`.
    fn closure_params_end(&self, bar: usize, end: usize) -> usize {
        if self.is_punct(bar + 1, '|') {
            return (bar + 2).min(end);
        }
        let mut i = bar + 1;
        while i < end {
            if self.is_punct(i, '(') || self.is_punct(i, '[') {
                i = self.skip_group(i, end);
                continue;
            }
            if self.is_punct(i, '|') {
                return i + 1;
            }
            i += 1;
        }
        end
    }

    /// Parses a closure whose span starts at `span_start` (`move` or the
    /// opening `|`) with the `|` at `bar`.
    fn parse_closure(&self, span_start: usize, bar: usize, end: usize) -> Option<(Expr, usize)> {
        let after_params = self.closure_params_end(bar, end);
        if after_params > end || (after_params == end && !self.is_punct(after_params - 1, '|')) {
            return None;
        }
        let params: Vec<String> = self
            .toks
            .get(bar + 1..after_params.saturating_sub(1))
            .unwrap_or_default()
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !lexer::is_keyword(&t.text))
            .map(|t| t.text.clone())
            .collect();
        let line = self.tok(bar).map_or(0, |t| t.line);
        if self.is_punct(after_params, '{') {
            let next = self.skip_group(after_params, end);
            return Some((
                Expr::Closure {
                    params,
                    body: self.exprs(after_params + 1, next.saturating_sub(1)),
                    span: (span_start, next - 1),
                    line,
                },
                next,
            ));
        }
        // Expression body: up to the next top-level `,` or `;`.
        let mut i = after_params;
        while i < end {
            if self.is_punct(i, '(') || self.is_punct(i, '[') || self.is_punct(i, '{') {
                i = self.skip_group(i, end);
                continue;
            }
            if self.is_punct(i, ',') || self.is_punct(i, ';') {
                break;
            }
            i += 1;
        }
        Some((
            Expr::Closure {
                params,
                body: self.exprs(after_params, i),
                span: (span_start, i.saturating_sub(1).max(span_start)),
                line,
            },
            i,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;

    fn parse(src: &str) -> Ast {
        parse_file(&lexer::lex(src).toks)
    }

    fn fn_names(a: &Ast) -> Vec<(Option<String>, String)> {
        let mut out = Vec::new();
        ast::visit_fns(&a.items, &mut |owner, f| {
            out.push((owner.map(str::to_owned), f.name.clone()));
        });
        out
    }

    #[test]
    fn tiling_has_no_gaps() {
        let src = "use a::b;\npub struct S { x: u8 }\nimpl S { pub fn f(&self) {} }\nfn g() {}";
        let toks = lexer::lex(src).toks;
        let a = parse_file(&toks);
        let mut next = 0usize;
        for item in &a.items {
            assert_eq!(item.span.0, next, "gap before item {item:?}");
            assert!(item.span.1 >= item.span.0);
            next = item.span.1 + 1;
        }
        assert_eq!(next, toks.len());
    }

    #[test]
    fn fns_in_impls_and_traits() {
        let a = parse(
            "impl fmt::Display for Err { fn fmt(&self) -> R { self.go() } }\n\
             trait T { fn required(&self); fn default_body(&self) { helper() } }\n\
             pub fn free<T: Into<String>>(x: T) -> Result<(), E> { x.into() }",
        );
        assert_eq!(
            fn_names(&a),
            [
                (Some("Err".into()), "fmt".into()),
                (Some("T".into()), "required".into()),
                (Some("T".into()), "default_body".into()),
                (None, "free".into()),
            ]
        );
    }

    #[test]
    fn calls_methods_macros_closures() {
        let a = parse(
            "fn f(b: &Budget) { let v = helper(x); v.push(g::h(1)); \
             format!(\"{}\", v.len()); items.iter().map(|&(lo, hi)| score(lo, hi)); }",
        );
        let mut calls = Vec::new();
        let mut closures = 0;
        ast::visit_fns(&a.items, &mut |_, f| {
            if let Some(b) = &f.body {
                ast::visit(&b.exprs, &mut |e| match e {
                    Expr::Call { path, .. } => calls.push(path.join("::")),
                    Expr::Method { name, .. } => calls.push(format!(".{name}")),
                    Expr::Closure { params, .. } => {
                        closures += 1;
                        assert_eq!(params, &["lo", "hi"]);
                    }
                    Expr::Macro { name, .. } => calls.push(format!("{name}!")),
                });
            }
        });
        assert!(calls.contains(&"helper".to_owned()));
        assert!(calls.contains(&".push".to_owned()));
        assert!(calls.contains(&"g::h".to_owned()));
        assert!(calls.contains(&"format!".to_owned()));
        assert!(calls.contains(&".len".to_owned()));
        assert!(calls.contains(&"score".to_owned()));
        assert_eq!(closures, 1);
    }

    #[test]
    fn use_trees_flatten() {
        let a =
            parse("use crate::ast::{Ast, Expr as E, nested::{x, y}};\nuse hyde_core::parallel::*;");
        let mut imports = Vec::new();
        for item in &a.items {
            if let ItemKind::Use { imports: im } = &item.kind {
                imports.extend(im.clone());
            }
        }
        assert!(imports.contains(&(
            "Ast".into(),
            vec!["crate".into(), "ast".into(), "Ast".into()]
        )));
        assert!(imports.contains(&(
            "E".into(),
            vec!["crate".into(), "ast".into(), "Expr".into()]
        )));
        assert!(imports.contains(&(
            "y".into(),
            vec!["crate".into(), "ast".into(), "nested".into(), "y".into()]
        )));
        assert!(imports
            .iter()
            .any(|(b, p)| b == "*" && p.first().is_some_and(|s| s == "hyde_core")));
    }

    #[test]
    fn budget_shows_in_sig_idents() {
        let a = parse("pub fn entry(b: &hyde_guard::Budget, n: usize) -> R { go(b, n) }");
        let mut found = false;
        ast::visit_fns(&a.items, &mut |_, f| {
            found |= f.sig_idents.iter().any(|s| s == "Budget");
        });
        assert!(found);
    }
}
