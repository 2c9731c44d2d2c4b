//! Workspace knowledge the passes check against: crate classes, the
//! documented span/counter taxonomies, and the phase-function roster.
//!
//! This file is the analyzer-side copy of contracts stated in
//! `DESIGN.md`; SA005/SA006 verify the two stay in sync (every name
//! listed here must appear in `DESIGN.md`, every literal in the source
//! must appear here).

/// Crates whose outputs feed the byte-identical determinism guarantee
/// (`tests/parallel_determinism.rs`): unordered iteration and
/// wall-clock/thread/env reads are denied here unless allowlisted.
pub const RESULT_AFFECTING: &[&str] = &["core", "bdd", "map", "sat", "logic"];

/// Crates whose public constructors of BDD/SAT work must thread a
/// `guard::Budget` (or an explicit cap) — the admission-control
/// boundary of the degradation ladder.
pub const BUDGETED: &[&str] = &["core", "map"];

/// The documented span taxonomy (`DESIGN.md` → Observability). Every
/// `span!`/`map_chunked*` name literal in non-test code must be listed
/// here, and each entry must appear somewhere in its crate.
pub const SPANS: &[(&str, &str)] = &[
    ("varpart.select_best", "core"),
    ("varpart.score", "core"),
    ("decompose.step", "core"),
    ("decompose.bdd", "core"),
    ("chart.build", "core"),
    ("encoding.encode", "core"),
    ("hyper.fold", "core"),
    ("hyper.decompose", "core"),
    ("hyper.implement", "core"),
    ("hyper.collapse", "core"),
    ("hyper.verify", "core"),
    ("hyper.scan", "core"),
    ("map.outputs", "map"),
    ("map.cluster", "map"),
    ("map.cover", "map"),
    ("map.verify", "map"),
    ("sat.solve", "sat"),
    ("lint.file", "verify"),
    ("lint.circuit", "verify"),
    ("bench.circuit", "bench"),
    ("serve.request", "serve"),
    ("serve.job", "serve"),
    ("sa.lex", "analyze"),
    ("sa.parse", "analyze"),
    ("sa.resolve", "analyze"),
    ("sa.callgraph", "analyze"),
    ("sa.pass", "analyze"),
];

/// The documented counter taxonomy. Every `counter(...)` name literal
/// in non-test code (and every `guard.degrade.*` literal anywhere in
/// production code) must be listed here.
pub const COUNTERS: &[&str] = &[
    "varpart.candidates",
    "decompose.steps",
    "decompose.classes",
    "decompose.shannon",
    "hyper.ingredients",
    "map.output_functions",
    "sat.solves",
    "sat.vars",
    "sat.propagations",
    "sat.clauses",
    "sat.conflicts",
    "sat.decisions",
    "sat.restarts",
    "proof.records",
    "proof.vars",
    "proof.clauses",
    "proof.conflicts",
    "bdd.managers",
    "bdd.nodes",
    "bdd.unique_lookups",
    "bdd.unique_probes",
    "bdd.unique_hits",
    "bdd.cache_lookups",
    "bdd.cache_hits",
    "bdd.cache_evictions",
    "bdd.unique_growths",
    "bdd.cache_growths",
    "bdd.gc.runs",
    "bdd.gc.reclaimed",
    "hyde.npn.hits",
    "hyde.npn.misses",
    "hyde.npn.canonize_us",
    "sched.steal.blocks",
    "sched.steal.steals",
    "serve.requests",
    "serve.submitted",
    "serve.completed",
    "serve.retries",
    "serve.quarantined",
    "serve.rejected",
    "serve.cancelled",
    "serve.recovered",
    "serve.journal.events",
    "serve.watchdog.overruns",
    "guard.chaos.injected",
    "guard.hyper_fallback",
    "guard.degrade.exact",
    "guard.degrade.bdd_threshold",
    "guard.degrade.shannon",
    "guard.degrade.direct_cover",
    "sa.files",
    "sa.fns",
    "sa.calls",
    "sa.findings",
    "sa.allowed",
];

/// The documented histogram-family taxonomy. Every `observe(...)` name
/// literal in non-test code must be listed here, and each entry must
/// appear somewhere in its crate.
pub const HISTOGRAMS: &[(&str, &str)] = &[
    ("serve.request_us", "serve"),
    ("serve.job_wall_us", "serve"),
    ("serve.queue_wait_us", "serve"),
];

/// Phase-level functions that must open their documented span:
/// `(crate, file name, function, span)`.
pub const PHASE_FNS: &[(&str, &str, &str, &str)] = &[
    ("core", "varpart.rs", "select_best", "varpart.select_best"),
    ("core", "decompose.rs", "step", "decompose.step"),
    (
        "core",
        "decompose.rs",
        "decompose_bdd_to_network",
        "decompose.bdd",
    ),
    ("core", "hyper.rs", "decompose", "hyper.decompose"),
    (
        "core",
        "hyper.rs",
        "implement_ingredients",
        "hyper.implement",
    ),
    ("core", "hyper.rs", "verify_ingredients", "hyper.verify"),
    ("map", "flow.rs", "map_outputs", "map.outputs"),
    ("map", "cluster.rs", "cluster_outputs", "map.cluster"),
    ("sat", "solver.rs", "solve_budgeted", "sat.solve"),
];

/// Where the `HY` diagnostic codes are canonically declared (the
/// `Code::as_str` match).
pub const DIAG_DECL_FILE: &str = "crates/logic/src/diag.rs";

/// Iterator methods whose visit order leaks into results when called on
/// a `HashMap`/`HashSet`.
pub const ORDER_SENSITIVE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Iterator sinks that are order-insensitive: a flagged iteration whose
/// statement terminates in one of these is merge-safe and not reported.
pub const ORDER_SAFE_SINKS: &[&str] = &["count", "sum", "min", "max", "all", "any", "len"];

/// BDD-node-constructing methods watched by the budget pass.
pub const BDD_CONSTRUCTORS: &[&str] = &[
    "ite",
    "and",
    "or",
    "xor",
    "not",
    "from_fn",
    "cut_subfunctions",
    "compatible_class_count",
    "restrict_cube",
    "permute",
];

/// Evidence that a function threads (or caps) a budget.
pub const BUDGET_EVIDENCE: &[&str] = &[
    "Budget",
    "budget",
    "guarded",
    "set_node_cap",
    "node_cap",
    "with_budget",
    "solve_budgeted",
];
