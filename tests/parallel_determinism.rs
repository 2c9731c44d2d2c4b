//! The parallel fan-out paths (bound-set candidate evaluation, ingredient
//! implementation) must be bit-for-bit deterministic: whatever
//! `HYDE_THREADS` says, the mapped network is byte-identical.
//!
//! Everything lives in ONE test function: `HYDE_THREADS` is process-global
//! state, and the harness runs separate `#[test]`s concurrently.

use hyde_map::flow::{FlowKind, MappingFlow};

#[test]
fn networks_are_byte_identical_across_thread_counts() {
    // z4ml/misex1 exercise the small-chart path; b9 (16 inputs) runs the
    // wide-chart prefix-reuse scorer through the work-stealing
    // scheduler, where block claim order varies with the thread count
    // and must not show through.
    let picked = ["z4ml", "misex1", "b9"];
    let circuits: Vec<_> = hyde_circuits::suite()
        .into_iter()
        .filter(|c| picked.contains(&c.name.as_str()))
        .collect();
    assert_eq!(circuits.len(), picked.len(), "suite must contain the picks");
    let flow = MappingFlow::new(5, FlowKind::hyde(0xDA98));

    // thread_count() honours the env override (clamped), and falls back
    // sanely on garbage.
    std::env::set_var("HYDE_THREADS", "3");
    assert_eq!(hyde_core::parallel::thread_count(), 3);
    std::env::set_var("HYDE_THREADS", "0");
    assert_eq!(hyde_core::parallel::thread_count(), 1, "clamped up to 1");
    std::env::set_var("HYDE_THREADS", "9999");
    assert_eq!(hyde_core::parallel::thread_count(), 256, "clamped to max");
    std::env::set_var("HYDE_THREADS", "not-a-number");
    assert!(hyde_core::parallel::thread_count() >= 1);

    let run_all = || -> Vec<String> {
        circuits
            .iter()
            .map(|c| {
                let report = flow
                    .map_outputs(&c.name, &c.outputs)
                    .expect("suite circuits map cleanly");
                hyde_logic::blif::write(&report.network)
            })
            .collect()
    };

    std::env::set_var("HYDE_THREADS", "1");
    let sequential = run_all();
    // The flow's NPN decomposition cache is cold for the run above and
    // warm for every run below, so these comparisons also pin the cache
    // determinism contract: memoized answers must be byte-identical to
    // searched ones, at any thread count.
    for threads in ["1", "2", "8"] {
        std::env::set_var("HYDE_THREADS", threads);
        let parallel = run_all();
        for (name, (seq, par)) in picked.iter().zip(sequential.iter().zip(&parallel)) {
            assert_eq!(
                seq, par,
                "{name}: HYDE_THREADS={threads} produced a different network"
            );
        }
    }
    std::env::remove_var("HYDE_THREADS");

    // The service path must agree with the offline `Session` byte for
    // byte at any worker count, even when chaos-injected worker kills
    // force retries: supervision may change *when* a job runs and how
    // many attempts it takes, never *what* it produces. Seed 42 trips
    // a worker fault on every one of the picked circuits, so the retry
    // path is genuinely exercised (asserted below).
    let seed = 42;
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // injected kills are expected
    let offline = hyde_serve::drill::offline_session(seed);
    let expected: Vec<_> = circuits
        .iter()
        .map(|c| {
            offline
                .run(&hyde_serve::drill::offline_job(c))
                .map(|r| r.blif())
                .map_err(|e| e.to_string())
        })
        .collect();
    for workers in [1usize, 8] {
        let service = hyde_serve::service::MapService::start(
            hyde_serve::drill::drill_config(seed, workers),
            None,
        )
        .expect("in-memory service starts");
        let ids: Vec<String> = circuits.iter().map(|c| c.name.clone()).collect();
        for c in &circuits {
            service
                .submit(hyde_serve::drill::suite_spec(&c.name))
                .expect("suite circuits admit");
        }
        assert!(
            service.wait_terminal(&ids, std::time::Duration::from_secs(300)),
            "workers={workers}: jobs stuck non-terminal"
        );
        let mut retried = 0u32;
        for (c, want) in circuits.iter().zip(&expected) {
            let state = service.state(&c.name).expect("submitted job has a state");
            match (state, want) {
                (hyde_serve::service::JobState::Done { blif, attempts, .. }, Ok(expect)) => {
                    retried += attempts.saturating_sub(1);
                    assert_eq!(
                        &blif, expect,
                        "{}: workers={workers} diverged from the offline session",
                        c.name
                    );
                }
                (hyde_serve::service::JobState::Quarantined { .. }, Err(_)) => {}
                (state, want) => panic!(
                    "{}: workers={workers} fate mismatch: service={state:?} offline_ok={}",
                    c.name,
                    want.is_ok()
                ),
            }
        }
        assert!(
            retried > 0,
            "workers={workers}: the chaos seed was expected to force retries"
        );
        service.shutdown(std::time::Duration::from_secs(10));
    }
    std::panic::set_hook(prev_hook);
}
