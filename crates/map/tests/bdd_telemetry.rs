//! The BDD rung's managers report their work: a candidate-starved job
//! degrades from the exact λ-search to the BDD rung, and every manager
//! that rung creates flushes its statistics into the `bdd.*` obs
//! counters when it drops. `hyde-benchmark`'s `bdd.*` per-layer metrics
//! are those counters, read from the traced pass's `ObsReport`.
//!
//! This file holds one test, so its process owns the obs collector.

use hyde_map::session::{BudgetSpec, Job, Session};
use hyde_map::FlowKind;

#[test]
fn forced_bdd_rung_flushes_flow_stats_into_telemetry() {
    let c = hyde_circuits::rd73();
    let budget = BudgetSpec {
        candidates: Some(0),
        ..BudgetSpec::unlimited()
    };
    hyde_obs::reset();
    hyde_obs::enable();
    let result = Session::new(5, FlowKind::hyde(0xDA98))
        .run(&Job::new(&c.name, c.outputs.clone()).with_budget(budget))
        .expect("the ladder absorbs candidate exhaustion");
    hyde_obs::disable();
    assert!(
        !result.degradations.is_empty(),
        "a zero candidate budget must degrade"
    );
    let obs = hyde_obs::report();
    let sum = |name: &str| obs.counter(name).map_or(0, |c| c.sum);
    assert!(sum("bdd.managers") > 0, "BDD rung never dropped a manager");
    let (lookups, hits) = (sum("bdd.cache_lookups"), sum("bdd.cache_hits"));
    assert!(lookups > 0, "the BDD rung made no cached operations");
    assert!(hits > 0 && hits <= lookups, "{hits} hits of {lookups}");
    assert!(sum("bdd.unique_probes") > 0);
}
