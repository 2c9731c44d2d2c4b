//! Structured diagnostics for the verification layer.
//!
//! Every invariant check in the workspace reports violations as
//! [`Diagnostic`] values carrying a stable [`Code`], a [`Severity`], a
//! human-readable message and a [`Location`]. The code space is
//! partitioned by subsystem:
//!
//! | range   | subsystem                          |
//! |---------|------------------------------------|
//! | `HY0xx` | LUT networks                       |
//! | `HY1xx` | compatible-class encodings         |
//! | `HY2xx` | hyper-functions                    |
//! | `HY3xx` | BDD manager                        |
//! | `HY4xx` | deep semantic proofs (SAT/BDD CEC) |
//! | `HY5xx` | budgeted execution / degradation   |
//! | `HY6xx` | observability / telemetry          |
//!
//! The model lives here, at the bottom of the crate stack, so that
//! `hyde-core` and `hyde-map` can emit diagnostics without depending on
//! `hyde-verify`.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never fails a run.
    Note,
    /// Suspicious but not necessarily wrong.
    Warn,
    /// An invariant violation; `hyde-lint` exits non-zero.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Stable diagnostic codes. Codes are append-only: once shipped, a code
/// keeps its meaning forever so downstream tooling can match on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// HY001: the network contains a combinational cycle.
    NetworkCycle,
    /// HY002: a LUT node has more than `k` fanins.
    NetworkFaninExceedsK,
    /// HY003: a node is dangling (no fanout) and unreachable from any
    /// primary output.
    NetworkDangling,
    /// HY004: a node's declared fanin does not affect its truth table
    /// (vacuous support), or the table depends on an undeclared input.
    NetworkVacuousSupport,
    /// HY005: the network's simulated behaviour differs from its
    /// specification truth tables.
    NetworkSpecMismatch,
    /// HY101: two distinct compatible classes share a code word
    /// (non-injective assignment).
    EncodingNonInjective,
    /// HY102: the code width differs from `⌈log₂ #classes⌉`.
    EncodingWidthMismatch,
    /// HY103: a don't-care assignment merged two incompatible columns.
    EncodingDcMergesIncompatible,
    /// HY104: recomposing `f = g(α(λ), μ)` does not reproduce the
    /// original function.
    EncodingRecomposition,
    /// HY201: a pseudo primary input remains alive outside the
    /// duplication cone after ingredient recovery.
    HyperPseudoLeak,
    /// HY202: the duplication cone / share boundary is violated
    /// (a shared node feeds a pseudo input's cone improperly).
    HyperConeViolation,
    /// HY203: recovering an ingredient from the hyper-function does not
    /// reproduce the ingredient.
    HyperRecoveryMismatch,
    /// HY301: a BDD node violates the variable ordering invariant
    /// `var(node) < var(lo), var(hi)`.
    BddOrdering,
    /// HY302: two live BDD nodes share a `(var, lo, hi)` triple
    /// (broken hash-consing).
    BddDuplicateTriple,
    /// HY401: a combinational equivalence proof found an input minterm
    /// on which a network and its specification disagree.
    DeepCecMismatch,
    /// HY402: a SAT proof found two bound-set points with equal codes
    /// (`α(x₁) = α(x₂)`) on which the function differs — the
    /// compatible-class encoding is not semantically injective.
    DeepEncodingNotInjective,
    /// HY403: collapsing the pseudo primary inputs of the duplication
    /// cone to an ingredient's code does not reproduce the implemented
    /// ingredient output (constant-collapse correctness).
    DeepCollapseMismatch,
    /// HY404: a SAT/BDD proof found a minterm where cofactoring the
    /// hyper-function at an ingredient's code differs from the
    /// ingredient (independent oracle for HY203).
    DeepRecoveryMismatch,
    /// HY405: an internal node is provably constant over all reachable
    /// inputs (stuck-at / dead logic).
    DeepStuckNode,
    /// HY406: a deep proof exhausted its conflict/time budget and is
    /// inconclusive.
    DeepProofBudget,
    /// HY501: an output stepped down from exact Roth–Karp decomposition
    /// to the BDD cut path after a budget exhaustion.
    DegradedBddPath,
    /// HY502: an output stepped down to a Shannon-cofactor split.
    DegradedShannon,
    /// HY503: an output stepped down to the direct-cover floor of the
    /// fallback ladder.
    DegradedDirectCover,
    /// HY504: a resource budget was exhausted and no lower rung could
    /// absorb it — the run produced no output for the affected circuit.
    BudgetExhausted,
    /// HY505: a degradation was caused by a chaos-injected fault rather
    /// than a genuine resource exhaustion (`HYDE_CHAOS` armed).
    ChaosInjected,
    /// HY601: the trace event buffer hit its cap and events were
    /// dropped — the exported timeline is truncated (aggregated
    /// counters and latency histograms keep recording past the cap).
    ObsDroppedEvents,
}

impl Code {
    /// All shipped codes, in numeric order.
    pub const ALL: [Code; 26] = [
        Code::NetworkCycle,
        Code::NetworkFaninExceedsK,
        Code::NetworkDangling,
        Code::NetworkVacuousSupport,
        Code::NetworkSpecMismatch,
        Code::EncodingNonInjective,
        Code::EncodingWidthMismatch,
        Code::EncodingDcMergesIncompatible,
        Code::EncodingRecomposition,
        Code::HyperPseudoLeak,
        Code::HyperConeViolation,
        Code::HyperRecoveryMismatch,
        Code::BddOrdering,
        Code::BddDuplicateTriple,
        Code::DeepCecMismatch,
        Code::DeepEncodingNotInjective,
        Code::DeepCollapseMismatch,
        Code::DeepRecoveryMismatch,
        Code::DeepStuckNode,
        Code::DeepProofBudget,
        Code::DegradedBddPath,
        Code::DegradedShannon,
        Code::DegradedDirectCover,
        Code::BudgetExhausted,
        Code::ChaosInjected,
        Code::ObsDroppedEvents,
    ];

    /// The stable `HYxxx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NetworkCycle => "HY001",
            Code::NetworkFaninExceedsK => "HY002",
            Code::NetworkDangling => "HY003",
            Code::NetworkVacuousSupport => "HY004",
            Code::NetworkSpecMismatch => "HY005",
            Code::EncodingNonInjective => "HY101",
            Code::EncodingWidthMismatch => "HY102",
            Code::EncodingDcMergesIncompatible => "HY103",
            Code::EncodingRecomposition => "HY104",
            Code::HyperPseudoLeak => "HY201",
            Code::HyperConeViolation => "HY202",
            Code::HyperRecoveryMismatch => "HY203",
            Code::BddOrdering => "HY301",
            Code::BddDuplicateTriple => "HY302",
            Code::DeepCecMismatch => "HY401",
            Code::DeepEncodingNotInjective => "HY402",
            Code::DeepCollapseMismatch => "HY403",
            Code::DeepRecoveryMismatch => "HY404",
            Code::DeepStuckNode => "HY405",
            Code::DeepProofBudget => "HY406",
            Code::DegradedBddPath => "HY501",
            Code::DegradedShannon => "HY502",
            Code::DegradedDirectCover => "HY503",
            Code::BudgetExhausted => "HY504",
            Code::ChaosInjected => "HY505",
            Code::ObsDroppedEvents => "HY601",
        }
    }

    /// The severity a diagnostic with this code carries unless overridden.
    ///
    /// Hard invariant violations default to [`Severity::Deny`]; structural
    /// hygiene findings (dangling nodes, vacuous support, width padding,
    /// provably-constant nodes) default to [`Severity::Warn`] because
    /// flows may legitimately produce them transiently. Degradation
    /// reports (`HY501`–`HY503`) warn — the output is still verified
    /// correct, only its quality changed — and `HY505` is a note because
    /// a chaos-injected fault says nothing about the input. A truncated
    /// trace (`HY601`) warns: the run's results are unaffected, but the
    /// exported timeline is incomplete.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::NetworkDangling
            | Code::NetworkVacuousSupport
            | Code::EncodingWidthMismatch
            | Code::DeepStuckNode
            | Code::DegradedBddPath
            | Code::DegradedShannon
            | Code::DegradedDirectCover
            | Code::ObsDroppedEvents => Severity::Warn,
            Code::ChaosInjected => Severity::Note,
            _ => Severity::Deny,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in an artifact a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Location {
    /// No specific location.
    #[default]
    None,
    /// A network node, by index.
    Node(usize),
    /// A primary output, by index.
    Output(usize),
    /// A compatible class, by index.
    Class(usize),
    /// A BDD node, by index.
    BddNode(usize),
    /// An input variable, by index.
    Var(usize),
    /// A minterm of a truth table.
    Minterm(usize),
    /// A cycle through network nodes, in traversal order.
    Cycle(Vec<usize>),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::None => Ok(()),
            Location::Node(n) => write!(f, "node {n}"),
            Location::Output(o) => write!(f, "output {o}"),
            Location::Class(c) => write!(f, "class {c}"),
            Location::BddNode(n) => write!(f, "bdd node {n}"),
            Location::Var(v) => write!(f, "var {v}"),
            Location::Minterm(m) => write!(f, "minterm {m}"),
            Location::Cycle(nodes) => {
                write!(f, "cycle ")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
        }
    }
}

/// A single finding from a verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code identifying the finding kind.
    pub code: Code,
    /// Effective severity (defaults to [`Code::default_severity`]).
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Where the finding points.
    pub location: Location,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity and no
    /// location.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            location: Location::None,
        }
    }

    /// Attaches a location.
    #[must_use]
    pub fn at(mut self, location: Location) -> Self {
        self.location = location;
        self
    }

    /// Overrides the severity.
    #[must_use]
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// True if this diagnostic should fail a run.
    pub fn is_deny(&self) -> bool {
        self.severity == Severity::Deny
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.code, self.severity, self.message)?;
        if self.location != Location::None {
            write!(f, " (at {})", self.location)?;
        }
        Ok(())
    }
}

/// True if any diagnostic in `diags` is deny-level.
pub fn any_deny(diags: &[Diagnostic]) -> bool {
    diags.iter().any(Diagnostic::is_deny)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for code in Code::ALL {
            let s = code.as_str();
            assert!(s.starts_with("HY") && s.len() == 5, "bad code {s}");
            assert!(seen.insert(s), "duplicate code {s}");
        }
    }

    #[test]
    fn display_formats() {
        let d = Diagnostic::new(Code::NetworkCycle, "cycle detected")
            .at(Location::Cycle(vec![1, 2, 3]));
        assert_eq!(
            d.to_string(),
            "HY001 [deny] cycle detected (at cycle 1 -> 2 -> 3)"
        );
        let d = Diagnostic::new(Code::NetworkDangling, "dangling").severity(Severity::Note);
        assert_eq!(d.to_string(), "HY003 [note] dangling");
        assert!(!any_deny(&[d]));
    }

    #[test]
    fn obs_dropped_events_warns_without_denying() {
        let d = Diagnostic::new(Code::ObsDroppedEvents, "1234 event(s) dropped");
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(d.to_string(), "HY601 [warn] 1234 event(s) dropped");
        assert!(!any_deny(&[d]));
    }
}
