//! The BDD rung's managers report their work: a candidate-starved job
//! degrades from the exact λ-search to the BDD rung, and every manager
//! that rung creates flushes its statistics into
//! [`hyde_bdd::global_stats`] when it drops. `hyde-benchmark`'s `bdd.*`
//! per-layer metrics read those totals.
//!
//! This file holds one test, so its process sees no other BDD work.

use hyde_map::session::{BudgetSpec, Job, Session};
use hyde_map::FlowKind;

#[test]
fn forced_bdd_rung_flushes_flow_stats_into_telemetry() {
    let c = hyde_circuits::rd73();
    let before = hyde_bdd::global_stats();
    let dropped_before = hyde_bdd::global_managers_dropped();
    let budget = BudgetSpec {
        candidates: Some(0),
        ..BudgetSpec::unlimited()
    };
    let result = Session::new(5, FlowKind::hyde(0xDA98))
        .run(&Job::new(&c.name, c.outputs.clone()).with_budget(budget))
        .expect("the ladder absorbs candidate exhaustion");
    assert!(
        !result.degradations.is_empty(),
        "a zero candidate budget must degrade"
    );
    assert!(
        hyde_bdd::global_managers_dropped() > dropped_before,
        "BDD rung never dropped a manager"
    );
    let after = hyde_bdd::global_stats();
    let lookups = after.cache_lookups - before.cache_lookups;
    let hits = after.cache_hits - before.cache_hits;
    assert!(lookups > 0, "the BDD rung made no cached operations");
    assert!(hits > 0 && hits <= lookups, "{hits} hits of {lookups}");
    assert!(after.unique_probes > before.unique_probes);
}
