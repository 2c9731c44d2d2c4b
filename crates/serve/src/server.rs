//! TCP front end: newline-delimited JSON on the same port as a
//! minimal HTTP subset for `GET /metrics` and `GET /healthz`.
//!
//! This is the workspace's only TCP/HTTP skeleton: `std::net` only, 2 s
//! socket timeouts, bounded heads, stop-flag plus self-poke shutdown,
//! and one thread per connection so a slow poller cannot wedge
//! submissions.

use crate::protocol::{self, ProtoError, Request, MAX_LINE_BYTES};
use crate::service::{JobState, MapService, SubmitError};
use hyde_obs::json;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Cap on an HTTP request head.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// A running front end. Drop (or [`Server::shutdown`]) stops the
/// accept loop; the service itself is shut down separately.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and serves `service` in background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, service: Arc<MapService>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let t_stop = Arc::clone(&stop);
        let t_req = Arc::clone(&shutdown_requested);
        let handle = std::thread::Builder::new()
            .name("hyde-serve-accept".to_owned())
            .spawn(move || {
                for conn in listener.incoming() {
                    if t_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let service = Arc::clone(&service);
                        let req = Arc::clone(&t_req);
                        let spawned = std::thread::Builder::new()
                            .name("hyde-serve-conn".to_owned())
                            .spawn(move || handle_connection(stream, &service, &req));
                        // The stream moved into the failed spawn and is
                        // closed with it.
                        if let Err(e) = spawned {
                            eprintln!(
                                "hyde-serve: dropping a connection, cannot spawn its thread: {e}"
                            );
                        }
                    }
                }
            })?;
        Ok(Server {
            local_addr,
            stop,
            shutdown_requested,
            handle: Some(handle),
        })
    }

    /// The bound address (port 0 resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a client asked the daemon to shut down.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept so the loop sees `stop`; if the
            // connect fails, the loop has already exited.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the wake-up connection only unblocks accept; failure means nothing is blocked"
            )]
            let _ = TcpStream::connect_timeout(&self.local_addr, IO_TIMEOUT);
            if handle.join().is_err() {
                eprintln!("hyde-serve: the accept thread panicked");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn handle_connection(stream: TcpStream, service: &MapService, shutdown_req: &AtomicBool) {
    // A connection without timeouts could pin its thread forever: drop it.
    let timeouts = stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)));
    if let Err(e) = timeouts {
        eprintln!("hyde-serve: dropping a connection, cannot set its timeouts: {e}");
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    loop {
        let mut line: Vec<u8> = Vec::new();
        // Bounded read: never buffer more than the frame cap + 1.
        let complete = match read_limited_line(&mut reader, &mut line) {
            Ok(c) => c,
            Err(_) => return,
        };
        if line.is_empty() {
            return; // clean EOF between frames
        }
        let t0 = Instant::now();
        let _span = hyde_obs::span!("serve.request");
        hyde_obs::counter("serve.requests", 1);
        if line.starts_with(b"GET ") || line.starts_with(b"HEAD ") {
            handle_http(&mut reader, &mut stream, &line, service);
            hyde_obs::observe("serve.request_us", t0.elapsed().as_micros() as u64);
            return;
        }
        // Oversized and truncated frames get an error reply, then the
        // connection closes: the rest of the stream is unframed.
        let (response, close) = if line.len() > MAX_LINE_BYTES {
            let e = ProtoError::new(
                "oversized-frame",
                format!("frame exceeds {MAX_LINE_BYTES} bytes"),
            );
            (e.to_json(), true)
        } else if !complete {
            // EOF hit mid-line: answer (the client may have half-closed).
            let e = ProtoError::new("truncated-frame", "connection closed mid-frame");
            (e.to_json(), true)
        } else {
            let response = match std::str::from_utf8(&line) {
                Ok(text) => dispatch(text, service, shutdown_req),
                Err(_) => ProtoError::new("bad-utf8", "request line is not valid UTF-8").to_json(),
            };
            (response, false)
        };
        let ok = write_line(&mut stream, &response).is_ok();
        hyde_obs::observe("serve.request_us", t0.elapsed().as_micros() as u64);
        if close || !ok {
            return;
        }
    }
}

/// Reads one `\n`-terminated line, allowing at most `MAX_LINE_BYTES+1`
/// buffered bytes. Returns whether a full line (with newline) arrived.
fn read_limited_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
) -> std::io::Result<bool> {
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return Ok(false),
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Ok(true);
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE_BYTES {
                    return Ok(true); // oversized; caller rejects
                }
            }
            Err(e) => {
                if line.is_empty() {
                    return Err(e);
                }
                return Ok(false);
            }
        }
    }
}

fn write_line(stream: &mut TcpStream, response: &str) -> std::io::Result<()> {
    stream.write_all(response.as_bytes())
}

/// Executes one parsed request line against the service.
fn dispatch(line: &str, service: &MapService, shutdown_req: &AtomicBool) -> String {
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err(e) => return e.to_json(),
    };
    match request {
        Request::Submit(spec) => {
            let id = spec.id.clone();
            match service.submit(spec) {
                Ok(()) => format!(
                    "{{\"ok\":true,\"id\":\"{}\",\"state\":\"queued\"}}\n",
                    json::escape(&id)
                ),
                Err(SubmitError::Duplicate) => {
                    ProtoError::new("duplicate-id", format!("job '{id}' already exists")).to_json()
                }
                Err(SubmitError::Rejected(r)) => protocol::rejected_json(&r),
                Err(SubmitError::Journal(e)) => {
                    ProtoError::new("journal-error", e.to_string()).to_json()
                }
            }
        }
        Request::Status { id } => match service.state(&id) {
            Some(state) => state_json(&id, &state, false),
            None => unknown_id(&id),
        },
        Request::Result { id } => match service.state(&id) {
            Some(state) => state_json(&id, &state, true),
            None => unknown_id(&id),
        },
        Request::Cancel { id } => match service.cancel(&id) {
            Ok(true) => format!(
                "{{\"ok\":true,\"id\":\"{}\",\"state\":\"cancelled\"}}\n",
                json::escape(&id)
            ),
            Ok(false) => ProtoError::new(
                "not-cancellable",
                format!("job '{id}' is running or terminal"),
            )
            .to_json(),
            Err(()) => unknown_id(&id),
        },
        Request::Shutdown => {
            shutdown_req.store(true, Ordering::Relaxed);
            "{\"ok\":true,\"state\":\"shutting-down\"}\n".to_owned()
        }
    }
}

fn unknown_id(id: &str) -> String {
    ProtoError::new("unknown-id", format!("no job '{id}'")).to_json()
}

/// Renders a job state as a response line. `body` includes the result
/// payload (BLIF) for terminal `done` states.
fn state_json(id: &str, state: &JobState, body: bool) -> String {
    let id = json::escape(id);
    match state {
        JobState::Queued => format!("{{\"ok\":true,\"id\":\"{id}\",\"state\":\"queued\"}}\n"),
        JobState::Running { attempt } => {
            format!("{{\"ok\":true,\"id\":\"{id}\",\"state\":\"running\",\"attempt\":{attempt}}}\n")
        }
        JobState::Done {
            luts,
            depth,
            blif,
            attempts,
            degradations,
        } => {
            if body {
                format!(
                    "{{\"ok\":true,\"id\":\"{id}\",\"state\":\"done\",\"luts\":{luts},\
                     \"depth\":{depth},\"attempts\":{attempts},\"degradations\":{},\
                     \"blif\":\"{}\"}}\n",
                    degradations.len(),
                    json::escape(blif)
                )
            } else {
                format!(
                    "{{\"ok\":true,\"id\":\"{id}\",\"state\":\"done\",\"luts\":{luts},\
                     \"depth\":{depth},\"attempts\":{attempts}}}\n"
                )
            }
        }
        JobState::Quarantined { error, attempts } => format!(
            "{{\"ok\":true,\"id\":\"{id}\",\"state\":\"quarantined\",\"attempts\":{attempts},\
             \"error\":\"{}\"}}\n",
            json::escape(error)
        ),
        JobState::Cancelled => {
            format!("{{\"ok\":true,\"id\":\"{id}\",\"state\":\"cancelled\"}}\n")
        }
    }
}

/// Serves one HTTP request whose first line is already in `first`.
fn handle_http(
    reader: &mut BufReader<TcpStream>,
    stream: &mut TcpStream,
    first: &[u8],
    service: &MapService,
) {
    // Drain the head (bounded) so the client sees a clean exchange.
    let mut head_bytes = first.len();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(n) => {
                head_bytes += n;
                if line == "\r\n" || line == "\n" || head_bytes >= MAX_HTTP_HEAD {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let first = String::from_utf8_lossy(first);
    let path = first.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => {
            let report = hyde_obs::report();
            let hists = hyde_obs::histograms();
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                hyde_obs::prom::render(&report, &hists),
            )
        }
        "/healthz" | "/health" => ("200 OK", "application/json", service.healthz_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_owned(),
        ),
    };
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the connection closes after this reply, so a failed write has no one to report to"
    )]
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}
