//! Item-level AST produced by the recursive-descent parser
//! ([`crate::parse`]).
//!
//! The shape is deliberately shallow: passes need *who calls what*, not
//! full expression semantics. Items carry exact token spans — the
//! parser guarantees the top-level item spans tile the token stream
//! with no gaps and no overlaps (verified by a property test over the
//! real workspace), so every token is attributable to exactly one item.
//! Function bodies are flattened into expression trees that keep only
//! the four constructs the interprocedural passes consume: calls,
//! method calls, macro invocations and closures.

/// A parsed file: top-level items in source order.
#[derive(Clone, Debug, Default)]
pub struct Ast {
    /// Items in source order; spans tile the token stream exactly.
    pub items: Vec<Item>,
}

/// One item with its inclusive token span `(first, last)`.
#[derive(Clone, Debug)]
pub struct Item {
    /// Inclusive token-index range covered by the item (attributes and
    /// visibility included).
    pub span: (usize, usize),
    /// What the item is.
    pub kind: ItemKind,
}

/// Item discriminant.
#[derive(Clone, Debug)]
pub enum ItemKind {
    /// A free function (or, nested under [`ItemKind::Impl`], a method).
    Fn(FnDecl),
    /// An `impl` block or `trait` definition with its methods.
    Impl(ImplBlock),
    /// An inline `mod name { ... }` with its nested items.
    Mod {
        /// Module name.
        name: String,
        /// Items inside the braces.
        items: Vec<Item>,
    },
    /// A `use` declaration, flattened: one `(binding, full path)` pair
    /// per imported name (the binding is the alias after `as`, else the
    /// last path segment).
    Use {
        /// Flattened imports.
        imports: Vec<(String, Vec<String>)>,
    },
    /// Anything else (structs, enums, consts, statics, type aliases,
    /// `macro_rules!` definitions, stray tokens): span-only filler that
    /// keeps the tiling invariant.
    Other,
}

/// An `impl` block or `trait` definition.
#[derive(Clone, Debug)]
pub struct ImplBlock {
    /// The implementing type's (or trait's) last path segment — the
    /// receiver name methods resolve against.
    pub owner: String,
    /// For `impl Trait for Type`, the trait's last path segment.
    pub of_trait: Option<String>,
    /// True for `trait` definitions (methods may be bodiless).
    pub is_trait: bool,
    /// Methods and nested items.
    pub items: Vec<Item>,
}

/// One function declaration.
#[derive(Clone, Debug)]
pub struct FnDecl {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// A bare `pub` qualifier (`pub(crate)` and other restricted
    /// visibilities do not count).
    pub is_pub: bool,
    /// Inclusive token span of the signature (`fn` keyword through the
    /// token before the body `{` or the terminating `;`).
    pub sig: (usize, usize),
    /// Identifiers appearing in the signature — parameter names and
    /// type-path segments alike; the budget-flow pass looks for
    /// `Budget` here.
    pub sig_idents: Vec<String>,
    /// The body, `None` for bodiless trait-method declarations.
    pub body: Option<Block>,
}

/// A brace-delimited function body.
#[derive(Clone, Debug)]
pub struct Block {
    /// Inclusive token span including both braces.
    pub span: (usize, usize),
    /// Flattened expression tree.
    pub exprs: Vec<Expr>,
}

/// The expression constructs the passes consume.
#[derive(Clone, Debug)]
pub enum Expr {
    /// `path::to::f(args)` — also matches enum-variant constructors and
    /// struct tuple constructors, which the resolver simply fails to
    /// resolve to a workspace fn.
    Call {
        /// Path segments (`["Bdd", "new"]` for `Bdd::new`).
        path: Vec<String>,
        /// One expression list per argument.
        args: Vec<Vec<Expr>>,
        /// 1-based line of the call.
        line: u32,
    },
    /// `.name(args)` — the receiver is not tracked; method resolution
    /// over-approximates by name.
    Method {
        /// Method name.
        name: String,
        /// One expression list per argument.
        args: Vec<Vec<Expr>>,
        /// 1-based line of the call.
        line: u32,
    },
    /// `name!(...)` — inner tokens are parsed as expressions so calls
    /// inside `format!`/`vec!` arguments still show up.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Expressions found among the macro's tokens.
        inner: Vec<Expr>,
        /// 1-based line of the invocation.
        line: u32,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Parameter-pattern identifiers (destructured names included).
        params: Vec<String>,
        /// Body expressions.
        body: Vec<Expr>,
        /// Inclusive token span from the opening `|` through the last
        /// body token.
        span: (usize, usize),
        /// 1-based line of the opening `|`.
        line: u32,
    },
}

impl Expr {
    /// The 1-based line the expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Call { line, .. }
            | Expr::Method { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Closure { line, .. } => *line,
        }
    }
}

/// Depth-first pre-order walk over an expression forest.
pub fn visit<'a>(exprs: &'a [Expr], f: &mut impl FnMut(&'a Expr)) {
    for e in exprs {
        f(e);
        match e {
            Expr::Call { args, .. } | Expr::Method { args, .. } => {
                for a in args {
                    visit(a, f);
                }
            }
            Expr::Macro { inner, .. } => visit(inner, f),
            Expr::Closure { body, .. } => visit(body, f),
        }
    }
}

/// Depth-first walk over an item forest, yielding every function with
/// the owner name of its enclosing `impl`/`trait` block (if any).
pub fn visit_fns<'a>(items: &'a [Item], f: &mut impl FnMut(Option<&'a str>, &'a FnDecl)) {
    visit_fns_in(items, None, f);
}

fn visit_fns_in<'a>(
    items: &'a [Item],
    owner: Option<&'a str>,
    f: &mut impl FnMut(Option<&'a str>, &'a FnDecl),
) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(decl) => f(owner, decl),
            ItemKind::Impl(block) => visit_fns_in(&block.items, Some(&block.owner), f),
            ItemKind::Mod { items, .. } => visit_fns_in(items, owner, f),
            ItemKind::Use { .. } | ItemKind::Other => {}
        }
    }
}
