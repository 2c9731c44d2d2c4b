//! Workspace symbol table and call-path resolution.
//!
//! Resolution is deliberately **over-approximating**: when a call path
//! is ambiguous, every workspace function it *could* name becomes a
//! candidate, so reachability passes (SA009/SA010) err toward flagging.
//! The tiers, first non-empty wins (documented in DESIGN.md):
//!
//! 1. single-segment `f(..)` — fns named `f` in the same file, else the
//!    same crate, else (via this file's `use` imports) the crate the
//!    import points at; unresolved single segments are assumed to be
//!    `std`/prelude and dropped rather than matched workspace-wide.
//! 2. qualified `Qual::f(..)` — the union of: methods named `f` whose
//!    `impl`/`trait` owner is `Qual` anywhere in the workspace; free
//!    fns named `f` in files whose stem is `qual` (module paths); and,
//!    when the first segment names a workspace crate (`hyde_core` →
//!    `core`), fns named `f` in that crate. `self`/`crate`/`super`
//!    qualifiers resolve within the calling crate; `Self` resolves
//!    against the enclosing `impl` owner.
//! 3. method `.f(..)` — every workspace `impl`/`trait` method named `f`
//!    (receiver types are not tracked).

use std::collections::BTreeMap;

use crate::ast::{self, Block, Expr};
use crate::source::FileKind;
use crate::workspace::Workspace;

/// One function in the workspace symbol table.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index of the containing file in `ws.files`.
    pub file: usize,
    /// Enclosing `impl`/`trait` owner type, `None` for free fns.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// A bare `pub` qualifier (see [`crate::ast::FnDecl::is_pub`]).
    pub is_pub: bool,
    /// True when the fn lives in test code (test file or `#[cfg(test)]`
    /// region).
    pub in_test: bool,
    /// Signature token span in the file's token stream.
    pub sig: (usize, usize),
    /// Identifiers appearing in the signature.
    pub sig_idents: Vec<String>,
    /// Body span and expression tree, `None` for bodiless declarations.
    pub body: Option<Block>,
    /// Stable display id: `<path>::[Owner::]name` — the SA009 ratchet
    /// entry format.
    pub display: String,
}

/// The workspace symbol table.
#[derive(Clone, Debug, Default)]
pub struct Symbols {
    /// Every fn in the workspace, in (file, source) order.
    pub fns: Vec<FnNode>,
    /// Name → fn indices (ascending).
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per-file imports: binding → full use path.
    imports: Vec<BTreeMap<String, Vec<String>>>,
}

/// Maps a path root segment to a workspace crate directory name:
/// `hyde_core` → `core`, `hyde` → `hyde` (the root package).
fn crate_of_root(root: &str) -> Option<&str> {
    if root == "hyde" {
        return Some("hyde");
    }
    root.strip_prefix("hyde_")
}

/// The module stem of a file path (`crates/core/src/parallel.rs` →
/// `parallel`).
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(path)
}

impl Symbols {
    /// Builds the symbol table for `ws`.
    pub fn collect(ws: &Workspace) -> Symbols {
        let mut syms = Symbols::default();
        for (file_idx, file) in ws.files.iter().enumerate() {
            let mut imports = BTreeMap::new();
            collect_imports(&file.ast.items, &mut imports);
            syms.imports.push(imports);
            ast::visit_fns(&file.ast.items, &mut |owner, decl| {
                let display = match owner {
                    Some(o) => format!("{}::{}::{}", file.path, o, decl.name),
                    None => format!("{}::{}", file.path, decl.name),
                };
                let idx = syms.fns.len();
                syms.fns.push(FnNode {
                    file: file_idx,
                    owner: owner.map(str::to_owned),
                    name: decl.name.clone(),
                    line: decl.line,
                    is_pub: decl.is_pub,
                    in_test: file.in_test_code(decl.line),
                    sig: decl.sig,
                    sig_idents: decl.sig_idents.clone(),
                    body: decl.body.clone(),
                    display,
                });
                syms.by_name.entry(decl.name.clone()).or_default().push(idx);
            });
        }
        syms
    }

    /// All fns named `name`, filtered by `pred`.
    fn named(&self, name: &str, pred: impl Fn(&FnNode) -> bool) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|v| v.iter().copied().filter(|&i| pred(&self.fns[i])).collect())
            .unwrap_or_default()
    }

    /// Resolves a call path written in `file_idx` (inside an impl of
    /// `caller_owner`, when any) to candidate fn indices.
    pub fn resolve_call(
        &self,
        ws: &Workspace,
        file_idx: usize,
        caller_owner: Option<&str>,
        path: &[String],
    ) -> Vec<usize> {
        let Some(name) = path.last() else {
            return Vec::new();
        };
        if path.len() == 1 {
            let same_file = self.named(name, |f| f.file == file_idx);
            if !same_file.is_empty() {
                return same_file;
            }
            let crate_name = &ws.files[file_idx].crate_name;
            let same_crate = self.named(name, |f| &ws.files[f.file].crate_name == crate_name);
            if !same_crate.is_empty() {
                return same_crate;
            }
            // Imported free fn: `use hyde_core::parallel::thread_count;`.
            if let Some(target) = self
                .imports
                .get(file_idx)
                .and_then(|im| im.get(name.as_str()))
            {
                if let Some(krate) = target.first().and_then(|r| crate_of_root(r)) {
                    return self.named(name, |f| ws.files[f.file].crate_name == krate);
                }
            }
            // Unresolved single segment: std/prelude, not workspace code.
            return Vec::new();
        }
        let qual = &path[path.len() - 2];
        let qual = if qual == "Self" {
            caller_owner.unwrap_or(qual.as_str())
        } else {
            qual.as_str()
        };
        if matches!(qual, "self" | "crate" | "super") {
            let crate_name = &ws.files[file_idx].crate_name;
            return self.named(name, |f| &ws.files[f.file].crate_name == crate_name);
        }
        let mut out = self.named(name, |f| f.owner.as_deref() == Some(qual));
        out.extend(self.named(name, |f| {
            f.owner.is_none() && file_stem(&ws.files[f.file].path) == qual
        }));
        if let Some(krate) = crate_of_root(&path[0]) {
            out.extend(self.named(name, |f| ws.files[f.file].crate_name == krate));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resolves a method call `.name(..)` to every workspace
    /// `impl`/`trait` method of that name.
    pub fn resolve_method(&self, name: &str) -> Vec<usize> {
        self.named(name, |f| f.owner.is_some())
    }

    /// Indices of the production (non-test, `Lib`-file) fns, the domain
    /// most passes quantify over.
    pub fn production_fns<'a>(
        &'a self,
        ws: &'a Workspace,
    ) -> impl Iterator<Item = (usize, &'a FnNode)> + 'a {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.in_test && ws.files[f.file].kind == FileKind::Lib)
    }
}

fn collect_imports(items: &[ast::Item], out: &mut BTreeMap<String, Vec<String>>) {
    for item in items {
        match &item.kind {
            ast::ItemKind::Use { imports } => {
                for (binding, path) in imports {
                    out.insert(binding.clone(), path.clone());
                }
            }
            ast::ItemKind::Mod { items, .. } => collect_imports(items, out),
            ast::ItemKind::Impl(b) => collect_imports(&b.items, out),
            _ => {}
        }
    }
}

/// Walks a fn body's expression tree, if it has one.
pub fn visit_body<'a>(node: &'a FnNode, f: &mut impl FnMut(&'a Expr)) {
    if let Some(body) = &node.body {
        ast::visit(&body.exprs, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws() -> Workspace {
        Workspace::from_sources(&[
            (
                "crates/core/src/a.rs",
                "use hyde_bdd::Bdd;\npub struct T;\nimpl T { pub fn m(&self) { helper() } }\n\
                 fn helper() { other::go() }\n",
            ),
            ("crates/core/src/other.rs", "pub fn go() {}"),
            (
                "crates/bdd/src/lib.rs",
                "pub struct Bdd;\nimpl Bdd { pub fn new() -> Bdd { Bdd } }",
            ),
        ])
    }

    #[test]
    fn collects_and_displays() {
        let w = ws();
        let s = Symbols::collect(&w);
        let displays: Vec<&str> = s.fns.iter().map(|f| f.display.as_str()).collect();
        assert!(displays.contains(&"crates/core/src/a.rs::T::m"));
        assert!(displays.contains(&"crates/core/src/a.rs::helper"));
        assert!(displays.contains(&"crates/bdd/src/lib.rs::Bdd::new"));
    }

    #[test]
    fn resolves_same_file_then_crate_then_owner() {
        let w = ws();
        let s = Symbols::collect(&w);
        let a_idx = w
            .files
            .iter()
            .position(|f| f.path.ends_with("a.rs"))
            .unwrap();
        let helper = s.resolve_call(&w, a_idx, Some("T"), &["helper".into()]);
        assert_eq!(helper.len(), 1);
        assert_eq!(s.fns[helper[0]].display, "crates/core/src/a.rs::helper");
        // `other::go` — module-stem tier.
        let go = s.resolve_call(&w, a_idx, None, &["other".into(), "go".into()]);
        assert_eq!(go.len(), 1);
        // `Bdd::new` — owner tier, cross-crate.
        let new = s.resolve_call(&w, a_idx, None, &["Bdd".into(), "new".into()]);
        assert_eq!(new.len(), 1);
        assert_eq!(s.fns[new[0]].display, "crates/bdd/src/lib.rs::Bdd::new");
        // Unresolved single segment drops to std.
        assert!(s
            .resolve_call(&w, a_idx, None, &["println".into()])
            .is_empty());
    }
}
