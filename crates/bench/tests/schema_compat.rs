//! Schema-compatibility checks for the `hyde-bench-v3` document (S6 of
//! the telemetry PR): the v3 obs section adds percentile and histogram
//! keys *additively*, so a reader written against v2 — one that only
//! knows `name`/`count`/`total_us`/`self_us` and `name`/`count`/`sum` —
//! must read a v3 document unchanged. The schema validator accepts only
//! the v3 tag.

use hyde_bench::perf::{run_bench_observed, to_json, validate_json, SCHEMA};
use hyde_obs::json::{self, Json};

/// A v2-era reader: extracts only the keys the v2 schema documented,
/// ignoring everything it does not know. Returns
/// `(phases as (name, count, self_us), counters as (name, count, sum))`.
#[allow(clippy::type_complexity)]
fn v2_read_obs(doc: &Json) -> (Vec<(String, u64, u64)>, Vec<(String, u64, u64)>) {
    let obs = doc.get("obs").expect("document has an obs section");
    let phases = obs
        .get("phases")
        .and_then(Json::as_arr)
        .expect("obs.phases")
        .iter()
        .map(|p| {
            (
                p.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                p.get("count").and_then(Json::as_num).expect("count") as u64,
                p.get("self_us").and_then(Json::as_num).expect("self_us") as u64,
            )
        })
        .collect();
    let counters = obs
        .get("counters")
        .and_then(Json::as_arr)
        .expect("obs.counters")
        .iter()
        .map(|c| {
            (
                c.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned(),
                c.get("count").and_then(Json::as_num).expect("count") as u64,
                c.get("sum").and_then(Json::as_num).expect("sum") as u64,
            )
        })
        .collect();
    (phases, counters)
}

#[test]
fn v3_obs_section_round_trips_through_a_v2_reader() {
    std::env::set_var("HYDE_THREADS", "1");
    let circuits = vec![hyde_circuits::rd73()];
    let run = run_bench_observed("schema_compat", &circuits, 5).expect("flow maps rd73");
    std::env::remove_var("HYDE_THREADS");

    let text = to_json(&run, None);
    assert!(text.contains(&format!("\"schema\": \"{SCHEMA}\"")));
    validate_json(&text).expect("v3 document validates");

    let doc = json::parse(&text).expect("v3 document parses");
    let (phases, counters) = v2_read_obs(&doc);
    assert!(
        phases
            .iter()
            .any(|(name, count, _)| name == "map.outputs" && *count > 0),
        "v2 reader sees the phase rows: {phases:?}"
    );
    assert!(
        counters
            .iter()
            .any(|(name, _, sum)| name == "varpart.candidates" && *sum > 0),
        "v2 reader sees the counter rows: {counters:?}"
    );

    // The same section does carry the v3 additions the v2 reader skipped.
    let obs = doc.get("obs").expect("obs");
    let has_percentiles = obs
        .get("phases")
        .and_then(Json::as_arr)
        .expect("phases")
        .iter()
        .any(|p| p.get("p95_us").is_some());
    assert!(has_percentiles, "a traced run reports span percentiles");
    assert!(
        obs.get("hists").and_then(Json::as_arr).is_some(),
        "v3 has a hists array"
    );
}

#[test]
fn validator_accepts_only_the_current_schema() {
    let stub = |tag: &str| {
        format!(
            "{{\"schema\": \"{tag}\", \"name\": \"t\", \"k\": 5, \"threads\": 1, \
             \"circuits\": [{{\"name\": \"rd73\", \"inputs\": 7, \"outputs\": 3, \
             \"wall_ms\": 1.0, \"luts\": 6, \"depth\": 2, \"bdd_nodes\": 10}}], \
             \"totals\": {{\"wall_ms\": 1.0, \"luts\": 6, \"bdd_nodes\": 10}}}}"
        )
    };
    validate_json(&stub(SCHEMA)).unwrap_or_else(|e| panic!("{SCHEMA} rejected: {e}"));
    for tag in ["hyde-bench-v1", "hyde-bench-v2", "hyde-bench-v99"] {
        assert!(validate_json(&stub(tag)).is_err(), "{tag} accepted");
    }
}
