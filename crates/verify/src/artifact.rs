//! The [`Artifact`] input enum and its structural checks,
//! [`Artifact::lint`].

use crate::{bdd, encoding, guard, hyper, network};
use hyde_bdd::Bdd;
use hyde_core::chart::IsfChart;
use hyde_core::classes::CompatibleClasses;
use hyde_core::decompose::Decomposition;
use hyde_core::encoding::{code_diagnostics, CodeAssignment};
use hyde_core::hyper::{HyperFunction, HyperNetwork};
use hyde_logic::diag::Diagnostic;
use hyde_logic::{Network, TruthTable};

/// Anything `hyde-verify` can check. Each variant bundles one artifact
/// with the context its invariants are stated against.
#[derive(Clone, Copy)]
pub enum Artifact<'a> {
    /// A LUT network, optionally with a fanin bound `k` and a
    /// specification (`spec[o]` is output `o` over the primary inputs in
    /// declaration order).
    Network {
        /// The network under inspection.
        net: &'a Network,
        /// LUT fanin bound; `None` skips the `HY002` check.
        k: Option<usize>,
        /// Specification truth tables; `None` skips the `HY005` check.
        spec: Option<&'a [TruthTable]>,
    },
    /// A compatible-class code assignment on its own.
    Encoding {
        /// The code assignment under inspection.
        codes: &'a CodeAssignment,
    },
    /// A don't-care assignment: the ISF chart it was computed from plus
    /// the resulting merged classes (`classes.class_of(c)` maps chart
    /// column `c` to its class).
    DcAssign {
        /// The incompletely specified chart.
        chart: &'a IsfChart,
        /// The merged classes produced by the assignment.
        classes: &'a CompatibleClasses,
    },
    /// One Roth–Karp decomposition step together with the function it
    /// decomposed.
    Decomposition {
        /// The decomposition artifacts.
        decomposition: &'a Decomposition,
        /// The original function.
        function: &'a TruthTable,
    },
    /// A hyper-function on its own (recovery invariants).
    HyperFn(&'a HyperFunction),
    /// A decomposed hyper-function network (duplication bookkeeping).
    Hyper(&'a HyperNetwork),
    /// A hyper network plus the merged per-ingredient implementation
    /// produced from it (pseudo-input leak check).
    Recovery {
        /// The hyper network the implementation came from.
        hyper: &'a HyperNetwork,
        /// The merged per-ingredient network.
        implemented: &'a Network,
    },
    /// A BDD manager.
    Bdd(&'a Bdd),
    /// Degradation events recorded by the guard layer during a mapping
    /// run (`HY5xx`).
    Degradations(&'a [hyde_guard::DegradationEvent]),
}

impl<'a> Artifact<'a> {
    /// A bare network artifact (no fanin bound, no specification).
    pub fn network(net: &'a Network) -> Self {
        Artifact::Network {
            net,
            k: None,
            spec: None,
        }
    }

    /// Runs the structural checks that apply to this variant and returns
    /// their findings in this order:
    ///
    /// * `Network`: `HY001`, `HY002` (when `k` is set), `HY003`, `HY004`,
    ///   `HY005` (when `spec` is set);
    /// * `Encoding`: `HY101`/`HY102`; `DcAssign`: `HY103`;
    ///   `Decomposition`: [`Decomposition::diagnostics`] (`HY104` plus
    ///   `HY101`/`HY102` on the step's codes);
    /// * `HyperFn`: `HY203`; `Hyper`: `HY202`, then `HY203`;
    ///   `Recovery`: `HY201`;
    /// * `Bdd`: `HY301`/`HY302`;
    /// * `Degradations`: one [`crate::guard::event_diagnostic`] per event.
    ///
    /// The `HY4xx` proofs are [`crate::deep::Deep::check`]'s.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        match *self {
            Artifact::Network { net, k, spec } => {
                network::cycle(net, &mut out);
                if let Some(k) = k {
                    hyde_logic::sim::fanin_diagnostics(net, k, &mut out);
                }
                network::dangling(net, &mut out);
                network::support(net, &mut out);
                if let Some(spec) = spec {
                    network::spec(net, spec, &mut out);
                }
            }
            Artifact::Encoding { codes } => code_diagnostics(codes, &mut out),
            Artifact::DcAssign { chart, classes } => encoding::dc_assign(chart, classes, &mut out),
            Artifact::Decomposition {
                decomposition,
                function,
            } => out.extend(decomposition.diagnostics(function)),
            Artifact::HyperFn(h) => hyper::recovery(h, &mut out),
            Artifact::Hyper(hn) => {
                hyper::cone_bookkeeping(hn, &mut out);
                hyper::recovery(hn.hyper(), &mut out);
            }
            Artifact::Recovery { implemented, .. } => hyper::pseudo_leak(implemented, &mut out),
            Artifact::Bdd(bdd) => bdd::audit(bdd, &mut out),
            Artifact::Degradations(events) => {
                out.extend(events.iter().map(guard::event_diagnostic));
            }
        }
        out
    }
}
