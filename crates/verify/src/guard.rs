//! `HY5xx`: budgeted execution and graceful degradation.
//!
//! The mapping flows in `hyde-map` run every output down a fallback
//! ladder — exact Roth–Karp, BDD cut decomposition, Shannon split, direct
//! SOP cover — stepping one rung per budget exhaustion and recording each
//! step as a [`hyde_guard::DegradationEvent`]. This module surfaces those
//! events as structured diagnostics so `hyde-lint` output and batch
//! reports carry them next to the semantic findings:
//!
//! * `HY501`/`HY502`/`HY503` (warn) — an output landed on the BDD,
//!   Shannon or direct-cover rung. The result is still verified correct
//!   (the flow's own CEC gate, plus `HY401` under `--deep`); only the
//!   implementation quality changed.
//! * `HY505` (note) — the degradation was injected by the deterministic
//!   chaos layer (`HYDE_CHAOS`), not caused by the input.
//!
//! `HY504` (deny) is emitted by the drivers themselves when a budget
//! exhaustion escapes every rung and a circuit produces no output.

use hyde_guard::{DegradationEvent, Rung};
use hyde_logic::diag::{Code, Diagnostic};

/// The diagnostic for one degradation event: the code names the rung the
/// work landed on, the message carries the full transition.
pub fn event_diagnostic(e: &DegradationEvent) -> Diagnostic {
    let code = if e.injected {
        Code::ChaosInjected
    } else {
        match e.to {
            Rung::BddThreshold => Code::DegradedBddPath,
            Rung::Shannon => Code::DegradedShannon,
            // `Exact` is never a degradation target; treat a malformed
            // event conservatively as the floor.
            Rung::DirectCover | Rung::Exact => Code::DegradedDirectCover,
        }
    };
    Diagnostic::new(code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Artifact;
    use hyde_guard::Resource;

    fn event(to: Rung, injected: bool) -> DegradationEvent {
        DegradationEvent {
            context: "c17".into(),
            stage: "o0".into(),
            from: Rung::Exact,
            to,
            resource: Resource::Candidates,
            injected,
        }
    }

    #[test]
    fn events_map_to_their_rung_codes() {
        let events = [
            event(Rung::BddThreshold, false),
            event(Rung::Shannon, false),
            event(Rung::DirectCover, false),
            event(Rung::Shannon, true),
        ];
        let diags = Artifact::Degradations(&events).lint();
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                Code::DegradedBddPath,
                Code::DegradedShannon,
                Code::DegradedDirectCover,
                Code::ChaosInjected,
            ]
        );
        assert!(!hyde_logic::diag::any_deny(&diags), "degradations warn");
        assert!(diags[0].message.contains("c17/o0"));
    }

    #[test]
    fn budget_exhausted_denies() {
        // HY504 is the driver-emitted code for an exhaustion no rung
        // absorbed: unlike HY501-HY503 it must deny, because work was
        // actually lost.
        let d = Diagnostic::new(
            Code::BudgetExhausted,
            "c17/o0: budget exhausted below the direct-cover floor",
        );
        assert_eq!(d.code.as_str(), "HY504");
        assert!(hyde_logic::diag::any_deny(&[d]));
    }
}
