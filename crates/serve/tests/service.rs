//! End-to-end tests for `hyde-serve`: the TCP protocol surface, the
//! malformed-request corpus, admission backpressure, and journal-based
//! recovery after a mid-run shutdown.

#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

use hyde_guard::{AdmissionLimits, RetryPolicy};
use hyde_serve::drill::{offline_job, run_supervised_drill, suite_spec};
use hyde_serve::{JobState, MapService, ServeConfig, Server, SubmitError};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

static TEMP_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hyde-serve-test-{tag}-{}-{n}", std::process::id()))
}

fn quiet_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::standard()
    }
}

fn start_server(cfg: ServeConfig) -> (Arc<MapService>, Server) {
    let service = Arc::new(MapService::start(cfg, None).expect("service start"));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    (service, server)
}

/// One request/response exchange on a fresh connection.
fn request(addr: &std::net::SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    response
}

fn poll_until(
    addr: &std::net::SocketAddr,
    id: &str,
    want: &str,
    timeout: Duration,
) -> Option<String> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let resp = request(addr, &format!("{{\"op\":\"status\",\"id\":\"{id}\"}}"));
        if resp.contains(&format!("\"state\":\"{want}\"")) {
            return Some(resp);
        }
        if std::time::Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submit_status_result_over_tcp_matches_offline_session() {
    let (service, server) = start_server(quiet_cfg(2));
    let addr = server.local_addr();
    let resp = request(
        &addr,
        "{\"op\":\"submit\",\"id\":\"j1\",\"kind\":\"suite\",\"circuit\":\"misex1\"}",
    );
    assert!(resp.contains("\"ok\":true"), "submit failed: {resp}");
    assert!(
        poll_until(&addr, "j1", "done", Duration::from_secs(120)).is_some(),
        "job never finished"
    );
    let resp = request(&addr, "{\"op\":\"result\",\"id\":\"j1\"}");
    let doc = hyde_obs::json::parse(resp.trim()).expect("result json");
    let blif = doc.get("blif").and_then(|b| b.as_str()).expect("blif");
    // The served output must byte-match the plain offline session.
    let offline = hyde_map::Session::new(5, hyde_map::FlowKind::hyde(0xDA98));
    let circuit = hyde_circuits::suite()
        .into_iter()
        .find(|c| c.name == "misex1")
        .unwrap();
    let reference = offline.run(&offline_job(&circuit)).expect("offline map");
    assert_eq!(blif, reference.blif());
    server.shutdown();
    service.shutdown(Duration::from_secs(10));
}

#[test]
fn duplicate_unknown_and_cancel_paths() {
    // Zero workers: jobs stay queued so cancellation is deterministic.
    let (service, server) = start_server(quiet_cfg(0));
    let addr = server.local_addr();
    let submit = "{\"op\":\"submit\",\"id\":\"dup\",\"kind\":\"suite\",\"circuit\":\"rd73\"}";
    assert!(request(&addr, submit).contains("\"ok\":true"));
    let resp = request(&addr, submit);
    assert!(resp.contains("duplicate-id"), "want duplicate-id: {resp}");
    let resp = request(&addr, "{\"op\":\"status\",\"id\":\"ghost\"}");
    assert!(resp.contains("unknown-id"), "want unknown-id: {resp}");
    let resp = request(&addr, "{\"op\":\"cancel\",\"id\":\"dup\"}");
    assert!(resp.contains("\"state\":\"cancelled\""), "cancel: {resp}");
    // Terminal jobs are not cancellable.
    let resp = request(&addr, "{\"op\":\"cancel\",\"id\":\"dup\"}");
    assert!(resp.contains("not-cancellable"), "re-cancel: {resp}");
    server.shutdown();
    service.shutdown(Duration::from_secs(5));
}

#[test]
fn admission_backpressure_is_a_typed_rejection() {
    let cfg = ServeConfig {
        workers: 0,
        limits: AdmissionLimits {
            max_depth: 1,
            max_pending_nodes: u64::MAX,
        },
        ..ServeConfig::standard()
    };
    let (service, server) = start_server(cfg);
    let addr = server.local_addr();
    assert!(request(
        &addr,
        "{\"op\":\"submit\",\"id\":\"a\",\"kind\":\"suite\",\"circuit\":\"rd73\"}"
    )
    .contains("\"ok\":true"));
    let resp = request(
        &addr,
        "{\"op\":\"submit\",\"id\":\"b\",\"kind\":\"suite\",\"circuit\":\"rd84\"}",
    );
    assert!(resp.contains("\"error\":\"rejected\""), "reject: {resp}");
    assert!(resp.contains("\"reason\":\"queue-full\""), "reason: {resp}");
    assert!(resp.contains("retry_after_ms"), "hint: {resp}");
    server.shutdown();
    service.shutdown(Duration::from_secs(5));
}

/// Malformed frames get structured errors, and the server survives the
/// whole corpus: a well-formed request still works afterwards.
#[test]
fn malformed_request_corpus_over_tcp() {
    let (service, server) = start_server(quiet_cfg(1));
    let addr = server.local_addr();
    let corpus: &[(&[u8], &str)] = &[
        (b"{\"op\":", "bad-json"),
        (b"not json at all", "bad-json"),
        (b"{}", "missing-field"),
        (b"{\"op\":\"warp\"}", "unknown-op"),
        (b"{\"op\":\"submit\",\"id\":\"x\"}", "missing-field"),
        (
            b"{\"op\":\"submit\",\"id\":\"x\",\"kind\":\"quantum\"}",
            "unknown-job-kind",
        ),
        (
            b"{\"op\":\"submit\",\"id\":\"x\",\"kind\":\"suite\",\"circuit\":\"nope\"}",
            "unknown-job-kind",
        ),
        (
            b"{\"op\":\"submit\",\"id\":\"\",\"kind\":\"suite\",\"circuit\":\"rd73\"}",
            "bad-field",
        ),
        (b"{\"op\":\"status\"}", "missing-field"),
        (b"\xff\xfe{\"op\":\"status\"}", "bad-utf8"),
    ];
    for (bytes, want) in corpus {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(
            response.contains(want),
            "corpus {:?}: want {want}, got {response}",
            String::from_utf8_lossy(bytes)
        );
        // Every error is itself a parsable single-line JSON object.
        hyde_obs::json::parse(response.trim()).expect("error response parses");
    }

    // Truncated frame: half-close mid-line.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"{\"op\":\"stat").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    assert!(response.contains("truncated-frame"), "got {response}");

    // Oversized frame: a line past the cap is rejected, not buffered.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let big = vec![b'x'; hyde_serve::protocol::MAX_LINE_BYTES + 10];
    stream.write_all(&big).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    assert!(response.contains("oversized-frame"), "got {response}");

    // The server is still healthy after the whole corpus.
    let resp = request(&addr, "{\"op\":\"status\",\"id\":\"ghost\"}");
    assert!(resp.contains("unknown-id"));
    server.shutdown();
    service.shutdown(Duration::from_secs(5));
}

/// The parser never panics on arbitrary input: sweep the corpus plus
/// mutations through `parse_request` under `catch_unwind`.
#[test]
fn parser_never_panics_on_corpus_mutations() {
    // (request line, whether it is a well-formed request)
    let seeds = [
        (
            "{\"op\":\"submit\",\"id\":\"x\",\"kind\":\"suite\",\"circuit\":\"rd73\"}",
            true,
        ),
        (
            "{\"op\":\"submit\",\"id\":\"x\",\"kind\":\"pla\",\"pla\":\".i 1\\n.o 1\\n1 1\\n.e\"}",
            true,
        ),
        ("{\"op\":\"status\",\"id\":\"x\"}", true),
        ("{\"op\":\"cancel\",\"id\":\"x\"}", true),
        ("{\"op\":\"shutdown\"}", true),
        ("[1,2,3]", false),
        ("\"just a string\"", false),
        ("{\"op\":{\"nested\":true}}", false),
    ];
    let parses = |line: &str| {
        std::panic::catch_unwind(|| hyde_serve::protocol::parse_request(line).is_ok())
            .unwrap_or_else(|_| panic!("parser panicked on {line:?}"))
    };
    for (seed, valid) in seeds {
        assert_eq!(parses(seed), valid, "{seed:?}");
        // A strict prefix of a JSON document is never a whole document.
        for cut in 0..seed.len() {
            assert!(!parses(&seed[..cut]), "accepted {:?}", &seed[..cut]);
        }
        // Single quotes are not JSON string delimiters.
        let noisy = seed.replace('"', "'");
        assert!(!parses(&noisy), "accepted {noisy:?}");
    }
}

/// HTTP endpoints share the port: `/metrics` renders Prometheus text
/// whose counter samples match the flushed `ObsReport` exactly,
/// `/healthz` reports worker and queue gauges, anything else is a 404.
#[test]
fn http_metrics_and_healthz_share_the_port() {
    let (service, server) = start_server(quiet_cfg(1));
    let addr = server.local_addr();
    let get = |path: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };

    hyde_obs::reset();
    hyde_obs::enable();
    {
        let _span = hyde_obs::span!("map.outputs");
        hyde_obs::counter("bdd.nodes", 123);
        hyde_obs::counter("bdd.nodes", 77);
        hyde_obs::counter("sat.conflicts", 9);
        hyde_obs::observe("bench.circuit_wall_us", 4200);
    }
    let health = get("/healthz");
    assert!(health.contains("200 OK"), "healthz: {health}");
    assert!(health.contains("\"workers\": 1"), "healthz: {health}");
    let missing = get("/nope");
    assert!(missing.contains("404"), "404: {missing}");

    // Other tests in this binary record while tracing is on, so bracket
    // each scrape with two reports and keep the first window in which
    // the only change is the scrape's own `serve.requests` increment.
    // Counters only grow, so the second report is then exactly what the
    // scrape rendered.
    let totals = |r: &hyde_obs::ObsReport| -> Vec<(String, u64, u64)> {
        r.counters
            .iter()
            .map(|c| (c.name.clone(), c.count, c.sum))
            .collect()
    };
    let (metrics, report) = (0..50)
        .find_map(|_| {
            let mut expected = totals(&hyde_obs::report());
            let own = expected
                .iter_mut()
                .find(|c| c.0 == "serve.requests")
                .expect("earlier requests were counted");
            own.1 += 1;
            own.2 += 1;
            let metrics = get("/metrics");
            let report = hyde_obs::report();
            (totals(&report) == expected).then_some((metrics, report))
        })
        .expect("no quiet scrape window in 50 tries");
    hyde_obs::disable();

    let (head, body) = metrics.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.contains("200 OK"), "metrics: {head}");
    assert!(report.counter("bdd.nodes").is_some_and(|c| c.sum >= 200));
    let samples = hyde_obs::prom::parse(body).expect("scrape parses");
    let sample = |metric: &str, name: &str| {
        samples
            .iter()
            .find(|s| s.metric == metric && s.label("counter") == Some(name))
            .unwrap_or_else(|| panic!("scrape is missing {metric} for `{name}`"))
            .value
    };
    for c in &report.counters {
        assert_eq!(
            sample("hyde_counter_total", &c.name),
            c.sum as f64,
            "sum of `{}`",
            c.name
        );
        assert_eq!(
            sample("hyde_counter_calls_total", &c.name),
            c.count as f64,
            "calls of `{}`",
            c.name
        );
    }
    assert!(
        samples.iter().any(|s| s.metric == "hyde_observed_bucket"
            && s.label("family") == Some("bench.circuit_wall_us")),
        "scrape is missing the observed-value histogram"
    );
    server.shutdown();
    service.shutdown(Duration::from_secs(5));
}

/// Shutdown mid-run journals the queue; a restart on the same journal
/// replays it and finishes every job with offline-identical output.
#[test]
fn journal_replay_recovers_a_mid_run_shutdown() {
    let journal = temp_path("replay");
    let circuits = hyde_circuits::suite_small();
    let cfg = ServeConfig {
        workers: 1,
        retry: RetryPolicy::single_attempt(),
        ..ServeConfig::standard()
    };
    let service = MapService::start(cfg.clone(), Some(&journal)).expect("start");
    for c in &circuits {
        service.submit(suite_spec(&c.name)).expect("submit");
    }
    // Give the worker a moment, then stop without draining: the rest of
    // the queue must survive in the journal.
    std::thread::sleep(Duration::from_millis(50));
    service.shutdown(Duration::from_millis(200));
    drop(service);

    let service = MapService::start(cfg, Some(&journal)).expect("restart");
    let ids: Vec<String> = circuits.iter().map(|c| c.name.clone()).collect();
    assert!(
        service.wait_terminal(&ids, Duration::from_secs(300)),
        "replayed jobs did not finish (queue={}, running={})",
        service.queue_depth(),
        service.running_count()
    );
    let offline = hyde_map::Session::new(5, hyde_map::FlowKind::hyde(0xDA98));
    for c in &circuits {
        match service.state(&c.name) {
            Some(JobState::Done { blif, .. }) => {
                let reference = offline.run(&offline_job(c)).expect("offline");
                assert_eq!(blif, reference.blif(), "{} differs after replay", c.name);
            }
            other => panic!("{}: unexpected state {other:?}", c.name),
        }
    }
    // Submitting a replayed id again is still a duplicate.
    assert!(matches!(
        service.submit(suite_spec(&circuits[0].name)),
        Err(SubmitError::Duplicate)
    ));
    service.shutdown(Duration::from_secs(5));
    std::fs::remove_file(&journal).expect("remove the test journal");
}

/// The in-process chaos drill holds on the small suite: every job
/// terminal, zero typed failures, outputs byte-identical to offline.
#[test]
fn supervised_drill_small_suite() {
    let summary = run_supervised_drill(
        42,
        &hyde_circuits::suite_small(),
        4,
        None,
        Duration::from_secs(300),
    )
    .expect("drill");
    assert_eq!(summary.failed, 0);
    assert!(summary.mismatches.is_empty());
    assert_eq!(
        summary.ok + summary.quarantined,
        hyde_circuits::suite_small().len()
    );
}
