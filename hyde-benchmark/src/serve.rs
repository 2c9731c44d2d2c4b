//! `serve_open`: the service path. A `hyde-serve` process (this binary
//! re-executed as `serve-child`, which runs the same `MapService` +
//! `Server` pair the shipped daemon's server mode does, 2 workers, a
//! fsynced journal) takes newline-JSON jobs over TCP from one client
//! process: senders that submit jobs, and a poller on its own connection
//! that sends one `status` request every 0.5 ms, round-robin over the
//! outstanding jobs.
//!
//! Traffic: 80% `kind:pla` jobs over a pool of 48 functions with Zipf
//! (s = 1) popularity, 20% `kind:suite` jobs over `suite_small`. After
//! set-up (one job per `suite_small` circuit, then 2 s of warm-up at the
//! open rate) the client sends an open-loop Poisson stream at a fixed 20
//! jobs/s for 60% of `--seconds` and times each job from when it was
//! due; then, for the rest, a closed loop keeps 4 jobs in flight over a
//! fixed 40-job batch and times each batch.

use crate::gen::{job_mix, pla_pool, poisson_arrivals, stream, PoolFn, Spec, SplitMix64};
use crate::mapping::{map_pass, Mapped, SMOKE_CIRCUITS};
use crate::metrics::{Report, Value};
use crate::oracle;
use crate::stats;
use crate::workload::{record_end_to_end, timed_passes, Ctx, Quality};
use hyde_circuits::Circuit;
use hyde_map::Job;
use hyde_obs::json::{self, Json};
use hyde_serve::{MapService, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service worker threads.
const WORKERS: usize = 2;
/// Open-loop sending threads, each with its own connection.
const SENDERS: usize = 4;
/// Jobs in flight in the closed loop.
const WINDOW: usize = 4;
/// Poll interval of the status poller.
const POLL: Duration = Duration::from_micros(500);
/// A job not terminal this long after it was due counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Shape of the offered traffic.
struct Traffic {
    /// Open-loop arrival rate, jobs per second.
    rate: f64,
    /// Unmeasured open-loop lead-in, seconds.
    warmup_s: f64,
    /// Measured open-loop phase, seconds.
    open_s: f64,
    /// Closed-loop phase, seconds.
    closed_s: f64,
    /// PLA pool size.
    pool: usize,
    /// Jobs per closed-loop batch.
    batch: usize,
    /// Circuits `kind:suite` jobs draw from.
    suite: Vec<Circuit>,
    /// p99 send lateness beyond which the load generator fell behind and
    /// the run is invalid.
    max_late_ms: f64,
}

fn traffic(ctx: &Ctx) -> Traffic {
    let small = hyde_circuits::suite_small();
    if ctx.smoke {
        // Sized for a debug build, which maps an order of magnitude
        // slower than a release build.
        Traffic {
            rate: 4.0,
            warmup_s: 0.5,
            open_s: 2.0,
            closed_s: 2.0,
            pool: 3,
            batch: 3,
            suite: small
                .into_iter()
                .filter(|c| SMOKE_CIRCUITS.contains(&c.name.as_str()))
                .collect(),
            max_late_ms: 5000.0,
        }
    } else {
        Traffic {
            // Well under a fifth of the 120–190 jobs/s the closed loop
            // sustained on the 2-vCPU machine the bounds were measured on.
            // At 40 jobs/s one seed's p50 varied by 54% between runs
            // there, against 14% at this rate.
            rate: 20.0,
            warmup_s: 2.0,
            open_s: 0.6 * ctx.seconds,
            closed_s: 0.4 * ctx.seconds,
            pool: 48,
            batch: 40,
            suite: small,
            max_late_ms: 250.0,
        }
    }
}

/// `serve-child <journal>`: the daemon side. Runs until stdin reaches
/// EOF, drains, then prints its peak memory and the per-layer numbers of
/// its always-on `hyde_obs` collector as one JSON line.
///
/// # Errors
///
/// Start-up failures.
pub fn child_main(journal: &Path) -> Result<(), String> {
    hyde_obs::enable();
    let cfg = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::standard()
    };
    let service =
        Arc::new(MapService::start(cfg, Some(journal)).map_err(|e| format!("start: {e}"))?);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "{}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    // EOF (or a broken stdin) is the stop signal either way.
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    service.shutdown(Duration::from_secs(30));
    let layer: Vec<String> = crate::layers::from_obs(&hyde_obs::report())
        .into_iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    writeln!(
        out,
        "{{\"peak_rss_mb\": {}, \"layer\": {{{}}}}}",
        crate::workload::peak_rss_mb(),
        layer.join(", ")
    )
    .map_err(|e| e.to_string())
}

/// The server process, stopped and reaped on drop.
struct ServerChild {
    proc: Child,
    addr: String,
    /// Reads the server's stdout after the address line, to its end.
    rest: Option<JoinHandle<String>>,
    dir: PathBuf,
}

impl ServerChild {
    fn spawn(dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut proc = Command::new(exe)
            .arg("serve-child")
            .arg(dir.join("journal.jsonl"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = proc.stdout.take().ok_or("server stdout missing")?;
        let mut reader = BufReader::new(stdout);
        let mut addr = String::new();
        let read = reader.read_line(&mut addr);
        let rest = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = reader.read_to_string(&mut text);
            text
        });
        let child = ServerChild {
            proc,
            addr: addr.trim().to_owned(),
            rest: Some(rest),
            dir,
        };
        match read {
            Ok(_) if !child.addr.is_empty() => Ok(child),
            _ => Err("server printed no address".into()),
        }
    }

    /// Closes stdin (the stop signal), waits for the drain, and returns
    /// the server's final JSON line.
    fn finish(mut self) -> Result<Json, String> {
        drop(self.proc.stdin.take());
        let rest = self.rest.take().ok_or("server output already taken")?;
        let deadline = Instant::now() + Duration::from_secs(60);
        while !rest.is_finished() {
            if Instant::now() > deadline {
                return Err("server did not stop within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let text = rest
            .join()
            .map_err(|_| "server output reader panicked".to_owned())?;
        let status = self.proc.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        json::parse(text.trim()).map_err(|e| format!("server report: {e}"))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if matches!(self.proc.try_wait(), Ok(None)) {
            let _ = self.proc.kill();
        }
        let _ = self.proc.wait();
        if let Some(rest) = self.rest.take() {
            let _ = rest.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One persistent protocol connection; reconnects once when the server
/// closed it (it drops connections idle for 2 s).
struct Conn {
    addr: String,
    io: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Conn {
    fn new(addr: &str) -> Self {
        Conn {
            addr: addr.to_owned(),
            io: None,
        }
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        let mut last = String::new();
        for _ in 0..2 {
            if self.io.is_none() {
                let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
                s.set_nodelay(true).map_err(|e| e.to_string())?;
                s.set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(|e| e.to_string())?;
                let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
                self.io = Some((r, s));
            }
            let (r, w) = self.io.as_mut().expect("connected above");
            let mut resp = String::new();
            match w
                .write_all(format!("{line}\n").as_bytes())
                .and_then(|()| r.read_line(&mut resp))
            {
                Ok(n) if n > 0 => return json::parse(resp.trim()).map_err(|e| e.to_string()),
                Ok(_) => last = "connection closed".into(),
                Err(e) => last = e.to_string(),
            }
            self.io = None;
        }
        Err(format!("request failed: {last}"))
    }
}

/// A submitted job not yet terminal.
struct Pending {
    id: String,
    spec: Spec,
    due: Instant,
    measured: bool,
}

/// A job that reached an end.
struct Finished {
    id: String,
    spec: Spec,
    latency_ms: f64,
    measured: bool,
    /// `done`, or why not (`quarantined`, `rejected`, `timed-out`, ...).
    state: String,
    luts: Option<f64>,
}

#[derive(Default)]
struct Shared {
    pending: Mutex<Vec<Pending>>,
    changed: Condvar,
    finished: Mutex<Vec<Finished>>,
    submitting: AtomicBool,
}

impl Shared {
    fn finish(&self, p: Pending, state: &str, luts: Option<f64>) {
        self.finished
            .lock()
            .expect("finished mutex")
            .push(Finished {
                id: p.id,
                spec: p.spec,
                latency_ms: p.due.elapsed().as_secs_f64() * 1e3,
                measured: p.measured,
                state: state.to_owned(),
                luts,
            });
    }

    /// Blocks until at most `n` jobs are pending.
    fn wait_pending_at_most(&self, n: usize) {
        let mut pending = self.pending.lock().expect("pending mutex");
        while pending.len() > n {
            pending = self
                .changed
                .wait_timeout(pending, Duration::from_millis(50))
                .expect("pending mutex")
                .0;
        }
    }
}

/// The poller: one `status` request every 0.5 ms, round-robin over the
/// outstanding jobs, so its load on the 2-core machine stays fixed however
/// many jobs are in flight.
fn poll_loop(ctx: &Ctx, addr: &str, shared: &Shared) -> Result<(), String> {
    let mut conn = Conn::new(addr);
    let mut next = 0usize;
    loop {
        let job = {
            let pending = shared.pending.lock().expect("pending mutex");
            if pending.is_empty() {
                if !shared.submitting.load(Ordering::SeqCst) {
                    return Ok(());
                }
                None
            } else {
                next %= pending.len();
                Some((pending[next].id.clone(), pending[next].due))
            }
        };
        if let Some((id, due)) = job {
            let t = Instant::now();
            let resp = conn.request(&format!("{{\"op\":\"status\",\"id\":\"{id}\"}}"))?;
            ctx.rec.record("serve.status", t, None, &id);
            let state = resp
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            let terminal = matches!(state, "done" | "quarantined" | "cancelled");
            if terminal || due.elapsed() > JOB_TIMEOUT {
                let mut pending = shared.pending.lock().expect("pending mutex");
                if let Some(i) = pending.iter().position(|p| p.id == id) {
                    // The last job moves into slot `i`: poll it next.
                    let p = pending.swap_remove(i);
                    let state = if terminal { state } else { "timed-out" };
                    shared.finish(p, state, resp.get("luts").and_then(Json::as_num));
                }
                shared.changed.notify_all();
            } else {
                next += 1;
            }
        }
        std::thread::sleep(POLL);
    }
}

/// The client's side of the traffic, shared by its sending threads.
struct Client<'a> {
    ctx: &'a Ctx,
    shared: &'a Shared,
    pool: &'a [PoolFn],
    suite: &'a [Circuit],
    sent: AtomicU64,
    /// Send lateness of each measured open-loop job, ms.
    late_ms: Mutex<Vec<f64>>,
}

impl Client<'_> {
    fn submit(
        &self,
        conn: &mut Conn,
        id: String,
        spec: Spec,
        due: Instant,
        measured: bool,
    ) -> Result<(), String> {
        let body = match spec {
            Spec::Pla(r) => format!(
                "\"kind\":\"pla\",\"name\":\"{}\",\"pla\":\"{}\"",
                self.pool[r].name,
                json::escape(&self.pool[r].pla)
            ),
            Spec::Suite(i) => format!("\"kind\":\"suite\",\"circuit\":\"{}\"", self.suite[i].name),
        };
        let t = Instant::now();
        let resp = conn.request(&format!("{{\"op\":\"submit\",\"id\":\"{id}\",{body}}}"))?;
        self.ctx.rec.record("serve.submit", t, None, &id);
        self.sent.fetch_add(1, Ordering::Relaxed);
        let p = Pending {
            id,
            spec,
            due,
            measured,
        };
        if resp.get("ok") == Some(&Json::Bool(true)) {
            self.shared.pending.lock().expect("pending mutex").push(p);
        } else {
            let why = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("refused");
            self.shared.finish(p, why, None);
        }
        Ok(())
    }

    /// The open loop: `SENDERS` threads, each with its own connection,
    /// take the scheduled jobs in order and send each when it is due. A
    /// slow acknowledgement (a `kind:suite` submit) holds up one sender,
    /// not the jobs due after it, as with independent users.
    fn open_loop(
        &self,
        addr: &str,
        start: Instant,
        arrivals: &[f64],
        mix: &[Spec],
        warmup_s: f64,
    ) -> Result<(), String> {
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let senders: Vec<_> = (0..SENDERS)
                .map(|_| {
                    s.spawn(|| -> Result<(), String> {
                        let mut conn = Conn::new(addr);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let (Some(&at), Some(&spec)) = (arrivals.get(i), mix.get(i)) else {
                                return Ok(());
                            };
                            let due = start + Duration::from_secs_f64(at);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let measured = at >= warmup_s;
                            if measured {
                                let late = due.elapsed().as_secs_f64() * 1e3;
                                self.late_ms.lock().expect("late mutex").push(late);
                            }
                            self.submit(&mut conn, format!("o{i}"), spec, due, measured)?;
                        }
                    })
                })
                .collect();
            senders
                .into_iter()
                .try_for_each(|h| h.join().map_err(|_| "sender panicked".to_owned())?)
        })
    }

    /// Submits `specs` keeping at most `WINDOW` in flight and returns
    /// once all are terminal; the batch's wall time in seconds.
    fn closed_batch(&self, conn: &mut Conn, tag: &str, specs: &[Spec]) -> Result<f64, String> {
        let t = Instant::now();
        for (j, &spec) in specs.iter().enumerate() {
            self.shared.wait_pending_at_most(WINDOW - 1);
            self.submit(conn, format!("{tag}-{j}"), spec, Instant::now(), false)?;
        }
        self.shared.wait_pending_at_most(0);
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Runs `serve_open`.
///
/// # Errors
///
/// A correctness violation (a served netlist that is wrong or differs
/// from the offline `Session::run` of the same spec), a load generator
/// that fell behind, or a server that failed.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = ctx.report("serve_open");
    let t0 = Instant::now();
    let tr = traffic(ctx);
    let pool = pla_pool(ctx.seed, tr.pool);
    let mut mix_rng = SplitMix64::stream(ctx.seed, stream::MIX);
    let arrivals = poisson_arrivals(
        &mut SplitMix64::stream(ctx.seed, stream::ARRIVALS),
        tr.rate,
        tr.warmup_s + tr.open_s,
    );
    let open_mix = job_mix(&mut mix_rng, arrivals.len(), tr.pool, tr.suite.len());
    let batch = job_mix(&mut mix_rng, tr.batch, tr.pool, tr.suite.len());

    let server = ServerChild::spawn(ctx.out.join(format!("serve-{}", std::process::id())))?;
    let shared = Shared::default();
    shared.submitting.store(true, Ordering::SeqCst);
    let client = Client {
        ctx,
        shared: &shared,
        pool: &pool,
        suite: &tr.suite,
        sent: AtomicU64::new(0),
        late_ms: Mutex::new(Vec::new()),
    };
    let mut conn = Conn::new(&server.addr);
    let mut open_start = t0;
    let mut batch_walls = Vec::new();
    std::thread::scope(|s| {
        let poller = s.spawn(|| poll_loop(ctx, &server.addr, &shared));
        let result = (|| -> Result<(), String> {
            let suite_specs: Vec<Spec> = (0..tr.suite.len()).map(Spec::Suite).collect();
            client.closed_batch(&mut conn, "w", &suite_specs)?;
            open_start = Instant::now() + Duration::from_millis(10);
            client.open_loop(&server.addr, open_start, &arrivals, &open_mix, tr.warmup_s)?;
            shared.wait_pending_at_most(0);
            let mut batches = 0;
            batch_walls = timed_passes(tr.closed_s, 3, || {
                batches += 1;
                client.closed_batch(&mut conn, &format!("c{batches}"), &batch)
            })?;
            Ok(())
        })();
        shared.submitting.store(false, Ordering::SeqCst);
        let polled = poller.join().map_err(|_| "poller panicked".to_owned())?;
        result.and(polled)
    })?;
    let setup_s = (open_start - t0).as_secs_f64() + tr.warmup_s;

    // Every distinct spec's served netlist must be the offline
    // Session::run netlist, and correct.
    let finished = std::mem::take(&mut *shared.finished.lock().expect("finished mutex"));
    let mut first_done: BTreeMap<Spec, (&str, Option<f64>)> = BTreeMap::new();
    for f in finished.iter().filter(|f| f.state == "done") {
        let (_, luts) = first_done.entry(f.spec).or_insert((&f.id, f.luts));
        if *luts != f.luts {
            return Err(format!("{:?}: LUT count differs between jobs", f.spec));
        }
    }
    let (names, tables): (Vec<String>, Vec<_>) = first_done
        .keys()
        .map(|&spec| match spec {
            Spec::Pla(r) => (pool[r].name.clone(), pool[r].tables()),
            Spec::Suite(i) => (tr.suite[i].name.clone(), tr.suite[i].outputs.clone()),
        })
        .unzip();
    let jobs: Vec<Job> = names
        .iter()
        .zip(&tables)
        .map(|(n, t)| Job::new(n, t.clone()))
        .collect();
    let offline = map_pass(ctx, &jobs, "offline.run", None);
    for (((spec, (id, _)), reference), specs) in first_done.iter().zip(&offline).zip(&tables) {
        let t = Instant::now();
        let resp = conn.request(&format!("{{\"op\":\"result\",\"id\":\"{id}\"}}"))?;
        ctx.rec.record("serve.result", t, None, id);
        let blif = resp
            .get("blif")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{id}: result has no BLIF"))?;
        let reference = reference
            .as_ref()
            .ok_or_else(|| format!("{spec:?}: offline mapping failed"))?;
        if blif != reference.blif {
            return Err(format!(
                "{spec:?}: served BLIF differs from the offline Session::run"
            ));
        }
        oracle::check_blif(blif, specs, 5).map_err(|e| format!("{spec:?}: {e}"))?;
    }
    // Set-up served every `suite_small` circuit, so their quality is
    // that of the netlists just checked.
    let suite_mapped: Vec<Option<Mapped>> = first_done
        .keys()
        .zip(&offline)
        .filter(|(spec, _)| matches!(spec, Spec::Suite(_)))
        .map(|(_, m)| m.clone())
        .collect();

    let server_report = server.finish()?;

    let latencies: Vec<f64> = finished
        .iter()
        .filter(|f| f.measured && f.state == "done")
        .map(|f| f.latency_ms)
        .collect();
    if latencies.is_empty() {
        return Err("no measured job completed".into());
    }
    let peak = server_report
        .get("peak_rss_mb")
        .and_then(Json::as_num)
        .ok_or("server report lacks peak_rss_mb")?;
    record_end_to_end(
        &mut report,
        stats::median(&batch_walls),
        &batch_walls,
        &latencies,
        Quality::of(&suite_mapped),
        peak,
        setup_s,
    );
    if let Some(Json::Obj(layer)) = server_report.get("layer") {
        for (name, v) in layer {
            if let Some(v) = v.as_num() {
                report.layer.insert(name.clone(), Value::of(v, 1));
            }
        }
    }
    let sorted = stats::sorted(&latencies);
    let late = stats::sorted(&client.late_ms.lock().expect("late mutex"));
    let late_p99 = stats::percentile(&late, 99.0);
    let acks = stats::sorted(&ctx.rec.durations("serve.submit"));
    let rtts = stats::sorted(&ctx.rec.durations("serve.status"));
    let client_side = [
        (
            "serve.submit_ack_ms_p50",
            stats::percentile(&acks, 50.0),
            acks.len(),
        ),
        (
            "serve.submit_ack_ms_p99",
            stats::percentile(&acks, 99.0),
            acks.len(),
        ),
        (
            "serve.status_rtt_ms_p50",
            stats::percentile(&rtts, 50.0),
            rtts.len(),
        ),
        (
            "serve.latency_p99_ms",
            stats::percentile(&sorted, 99.0),
            sorted.len(),
        ),
        ("serve.latency_samples", sorted.len() as f64, sorted.len()),
        ("loadgen.late_ms_p99", late_p99, late.len()),
        ("loadgen.sent", late.len() as f64, late.len()),
    ];
    for (name, v, n) in client_side {
        report.layer.insert(name.to_owned(), Value::of(v, n));
    }
    eprintln!(
        "serve_open: closed loop {:.1} jobs/s ({} batches of {})",
        tr.batch as f64 / stats::median(&batch_walls),
        batch_walls.len(),
        tr.batch
    );
    if let Some((p, v, n)) = stats::tail(&latencies) {
        eprintln!("serve_open: latency tail p{p} = {v:.3} ms over {n} jobs");
    }
    let half = latencies.len() / 2;
    if half > 0 {
        eprintln!(
            "serve_open: open-loop p50 {:.3} ms in the first half, {:.3} ms in the second",
            stats::median(&latencies[..half]),
            stats::median(&latencies[half..])
        );
    }
    if late_p99 > tr.max_late_ms {
        return Err(format!(
            "load generator fell behind: p99 send lateness {late_p99:.1} ms > {} ms",
            tr.max_late_ms
        ));
    }
    report.attempted = client.sent.load(Ordering::Relaxed);
    report.failed = finished.iter().filter(|f| f.state != "done").count() as u64;
    Ok(report)
}
