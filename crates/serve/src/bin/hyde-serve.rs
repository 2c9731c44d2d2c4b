//! The `hyde-serve` daemon and its crash-recovery drill.
//!
//! Server mode binds the newline-JSON/HTTP front end and runs until
//! stdin reaches EOF or a client sends `{"op":"shutdown"}`, then drains
//! in-flight jobs and exits. Drill mode (`--drill <seed>`) runs the
//! supervised chaos drill in-process, then the out-of-process
//! kill/restart scenario: spawn a serving child, `SIGKILL` it mid-run,
//! restart it on the same journal, and require the replay to finish
//! every job with outputs byte-identical to the offline `Session` path.

use hyde_serve::drill::{
    drill_config, offline_job, offline_session, run_supervised_drill, tcp_request,
};
use hyde_serve::service::MapService;
use hyde_serve::Server;
use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Read as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
hyde-serve: crash-tolerant mapping service (newline-JSON over TCP + /metrics)

Usage: hyde-serve [OPTIONS]

Options:
  --addr <ADDR>     bind address (default 127.0.0.1:0)
  --workers <N>     worker threads (default 4)
  --journal <FILE>  write-ahead journal; replayed on startup so queued
                    and in-flight jobs survive a process kill
  --chaos <SEED>    arm the deterministic fault-injection layer
  --worker-faults   also arm the worker kill/stall sites (needs --chaos)
  --print-addr      print the bound address on stdout once listening
  --drill <SEED>    run the crash-recovery drill (in-process supervision
                    drill, then SIGKILL + journal-replay of a child
                    server) and write CHAOS_serve_s<SEED>.json
  --drill-out <FILE> drill artifact path
  --smoke           drill over the small suite instead of all 25 circuits
  -h, --help        this message

Protocol (one JSON object per line):
  {\"op\":\"submit\",\"id\":\"j1\",\"kind\":\"suite\",\"circuit\":\"misex1\"}
  {\"op\":\"submit\",\"id\":\"j2\",\"kind\":\"pla\",\"pla\":\".i 2\\n.o 1\\n...\"}
  {\"op\":\"status\",\"id\":\"j1\"}   {\"op\":\"result\",\"id\":\"j1\"}
  {\"op\":\"cancel\",\"id\":\"j1\"}   {\"op\":\"shutdown\"}";

struct Options {
    addr: String,
    workers: usize,
    journal: Option<PathBuf>,
    chaos: Option<u64>,
    worker_faults: bool,
    print_addr: bool,
    drill: Option<u64>,
    drill_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        journal: None,
        chaos: None,
        worker_faults: false,
        print_addr: false,
        drill: None,
        drill_out: None,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--addr" => o.addr = take("--addr")?,
            "--workers" => {
                o.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--journal" => o.journal = Some(PathBuf::from(take("--journal")?)),
            "--chaos" => {
                o.chaos = Some(
                    take("--chaos")?
                        .parse()
                        .map_err(|e| format!("--chaos: {e}"))?,
                )
            }
            "--worker-faults" => o.worker_faults = true,
            "--print-addr" => o.print_addr = true,
            "--drill" => {
                o.drill = Some(
                    take("--drill")?
                        .parse()
                        .map_err(|e| format!("--drill: {e}"))?,
                )
            }
            "--drill-out" => o.drill_out = Some(PathBuf::from(take("--drill-out")?)),
            "--smoke" => o.smoke = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (see --help)")),
        }
    }
    if o.worker_faults && o.chaos.is_none() {
        return Err("--worker-faults needs --chaos <SEED>".into());
    }
    if o.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hyde-serve: {e}");
            return ExitCode::from(2);
        }
    };
    hyde_obs::enable();
    // Injected worker kills are expected, supervised outcomes when
    // faults are armed — drop the default panic banner so drill output
    // stays readable (real panics still surface as quarantine errors).
    if opts.drill.is_some() || opts.worker_faults {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let result = match opts.drill {
        Some(seed) => run_drill(seed, &opts),
        None => run_server(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hyde-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_server(opts: &Options) -> Result<(), String> {
    let mut cfg = hyde_serve::ServeConfig::standard();
    cfg.workers = opts.workers;
    cfg.chaos = opts.chaos;
    cfg.worker_faults = opts.worker_faults;
    if opts.worker_faults {
        // Serving drills use the drill retry schedule so the offline
        // comparison path can reproduce it exactly.
        cfg.retry = drill_config(opts.chaos.unwrap_or_default(), opts.workers).retry;
    }
    let service = Arc::new(
        MapService::start(cfg, opts.journal.as_deref()).map_err(|e| format!("start: {e}"))?,
    );
    let server =
        Server::bind(opts.addr.as_str(), Arc::clone(&service)).map_err(|e| format!("bind: {e}"))?;
    if opts.print_addr {
        println!("{}", server.local_addr());
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    // Run until stdin EOF (daemon convention: the supervisor owns our
    // stdin) or a client's shutdown request.
    let eof = Arc::new(AtomicBool::new(false));
    let eof2 = Arc::clone(&eof);
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::stdin().lock().read_to_end(&mut sink);
        eof2.store(true, Ordering::Relaxed);
    });
    while !eof.load(Ordering::Relaxed) && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    service.shutdown(Duration::from_secs(30));
    Ok(())
}

fn circuits_for(smoke: bool) -> Vec<hyde_circuits::Circuit> {
    if smoke {
        hyde_circuits::suite_small()
    } else {
        hyde_circuits::suite()
    }
}

fn run_drill(seed: u64, opts: &Options) -> Result<(), String> {
    let circuits = circuits_for(opts.smoke);
    let dir = PathBuf::from(format!("target/serve-drill/s{seed}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    // Phase A: in-process supervision drill (kills/stalls injected,
    // every job terminal, outputs byte-identical to the offline path).
    let inproc_journal = dir.join("inproc.jsonl");
    let _ = std::fs::remove_file(&inproc_journal);
    let summary = run_supervised_drill(
        seed,
        &circuits,
        opts.workers,
        Some(&inproc_journal),
        Duration::from_secs(900),
    )?;
    eprintln!(
        "serve-drill s{seed}: in-process ok={} quarantined={} retries={}",
        summary.ok, summary.quarantined, summary.retries
    );

    // Phase B: kill a serving child mid-run, restart on the same
    // journal, and require the replay to finish the remaining jobs.
    let journal = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let recovered = kill_restart_scenario(seed, &circuits, &journal, opts.workers)?;
    eprintln!("serve-drill s{seed}: kill/restart recovered {recovered} job(s) from the journal");

    let json = hyde_bench::chaos::chaos_to_json(&summary.run);
    hyde_bench::chaos::validate_chaos_json(&json)?;
    let out = opts
        .drill_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("CHAOS_serve_s{seed}.json")));
    std::fs::write(&out, &json).map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("serve-drill s{seed}: wrote {}", out.display());
    Ok(())
}

struct Child {
    proc: std::process::Child,
    addr: String,
}

fn spawn_server(seed: u64, journal: &std::path::Path, workers: usize) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut proc = std::process::Command::new(exe)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--chaos",
            &seed.to_string(),
            "--worker-faults",
            "--journal",
        ])
        .arg(journal)
        .arg("--print-addr")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = proc.stdout.take().ok_or("child stdout missing")?;
    let mut addr = String::new();
    BufReader::new(stdout)
        .read_line(&mut addr)
        .map_err(|e| format!("read child addr: {e}"))?;
    let addr = addr.trim().to_owned();
    if addr.is_empty() {
        let _ = proc.kill();
        return Err("child printed no address".into());
    }
    Ok(Child { proc, addr })
}

/// Polls every job's status once; returns `id → state token`.
fn poll_states(addr: &str, ids: &[String]) -> Result<HashMap<String, String>, String> {
    let mut states = HashMap::new();
    for id in ids {
        let resp = tcp_request(addr, &format!("{{\"op\":\"status\",\"id\":\"{id}\"}}"))?;
        let doc = hyde_obs::json::parse(resp.trim()).map_err(|e| format!("status {id}: {e}"))?;
        let state = doc
            .get("state")
            .and_then(|s| s.as_str())
            .unwrap_or("unknown")
            .to_owned();
        states.insert(id.clone(), state);
    }
    Ok(states)
}

fn terminal(state: &str) -> bool {
    matches!(state, "done" | "quarantined" | "cancelled")
}

fn kill_restart_scenario(
    seed: u64,
    circuits: &[hyde_circuits::Circuit],
    journal: &std::path::Path,
    workers: usize,
) -> Result<usize, String> {
    let ids: Vec<String> = circuits.iter().map(|c| c.name.clone()).collect();
    let mut child = spawn_server(seed, journal, workers)?;
    for c in circuits {
        let line = format!(
            "{{\"op\":\"submit\",\"id\":\"{0}\",\"kind\":\"suite\",\"circuit\":\"{0}\"}}",
            c.name
        );
        let resp = tcp_request(&child.addr, &line)?;
        if !resp.contains("\"ok\":true") {
            let _ = child.proc.kill();
            return Err(format!("submit {} rejected: {resp}", c.name));
        }
    }
    // Let a few jobs finish, then SIGKILL mid-run.
    let kill_after = (ids.len() / 8).max(1);
    let deadline = Instant::now() + Duration::from_secs(900);
    let before_kill;
    loop {
        let states = poll_states(&child.addr, &ids)?;
        let done = states.values().filter(|s| terminal(s)).count();
        if done >= kill_after {
            before_kill = states;
            break;
        }
        if Instant::now() > deadline {
            let _ = child.proc.kill();
            return Err("kill/restart: no progress before kill point".into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.proc.kill().map_err(|e| format!("kill child: {e}"))?;
    let _ = child.proc.wait();
    let unfinished = before_kill.values().filter(|s| !terminal(s)).count();

    // Restart on the same journal: replay must recover the queue and
    // finish every remaining job.
    let mut child = spawn_server(seed, journal, workers)?;
    let deadline = Instant::now() + Duration::from_secs(900);
    loop {
        let states = poll_states(&child.addr, &ids)?;
        if states.values().all(|s| terminal(s)) {
            break;
        }
        if Instant::now() > deadline {
            let _ = child.proc.kill();
            return Err(format!(
                "kill/restart: jobs stuck after replay: {:?}",
                states
                    .iter()
                    .filter(|(_, s)| !terminal(s))
                    .collect::<Vec<_>>()
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // Byte-identity: every successful result must match the offline
    // session path, whatever the worker count or kill timing.
    let offline = offline_session(seed);
    for c in circuits {
        let resp = tcp_request(
            &child.addr,
            &format!("{{\"op\":\"result\",\"id\":\"{}\"}}", c.name),
        )?;
        let doc =
            hyde_obs::json::parse(resp.trim()).map_err(|e| format!("result {}: {e}", c.name))?;
        let state = doc.get("state").and_then(|s| s.as_str()).unwrap_or("");
        let reference = offline.run(&offline_job(c));
        match (state, &reference) {
            ("done", Ok(r)) => {
                let blif = doc
                    .get("blif")
                    .and_then(|b| b.as_str())
                    .ok_or_else(|| format!("{}: done result lacks blif", c.name))?;
                if blif != r.blif() {
                    let _ = child.proc.kill();
                    return Err(format!("{}: blif differs from offline path", c.name));
                }
            }
            ("quarantined", Err(_)) => {}
            (s, r) => {
                let _ = child.proc.kill();
                return Err(format!(
                    "{}: serve={s} vs offline={}",
                    c.name,
                    if r.is_ok() { "ok" } else { "quarantined" }
                ));
            }
        }
    }

    // Graceful stop: close the child's stdin (EOF → drain → exit).
    let _ = tcp_request(&child.addr, "{\"op\":\"shutdown\"}");
    drop(child.proc.stdin.take());
    let waited = Instant::now();
    loop {
        match child.proc.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if waited.elapsed() > Duration::from_secs(60) => {
                let _ = child.proc.kill();
                break;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(_) => break,
        }
    }
    Ok(unfinished)
}
