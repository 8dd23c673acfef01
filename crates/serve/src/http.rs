//! The HTTP observability listener: a zero-dependency HTTP/1.1 server
//! on a **separate port** ([`crate::ServeConfig::obs_addr`]) exposing
//! the service to off-the-shelf monitoring:
//!
//! | endpoint   | content                                              |
//! |------------|------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of everything the server  |
//! |            | knows: build info, uptime, native counters, windowed |
//! |            | stage histograms with OpenMetrics exemplars, plus    |
//! |            | the `AMOE_OBS` registry                              |
//! | `/healthz` | liveness — 200 until the process exits               |
//! | `/readyz`  | readiness — 200 while accepting work, 503 from the   |
//! |            | moment `SHUTDOWN` drain begins                       |
//! | `/vars`    | JSON snapshot of counters and window quantiles       |
//! | `/trace`   | the trace ring as Chrome trace-event JSON            |
//!
//! The listener is deliberately minimal: `GET` only, no body reads,
//! keep-alive with pipelining (requests already buffered are answered
//! in order), an 8 KiB header cap (431 beyond it), and 400 on anything
//! that does not parse as an HTTP/1.x request line. Because bodies are
//! never read, a 405 and any head that declares a body
//! (`Content-Length` > 0 or `Transfer-Encoding`) get their answer and
//! then the connection is closed: the unread body would otherwise be
//! parsed as the next request head. Handlers poll the stop flag on a
//! short read timeout, so [`ObsListener::stop`] wins even against an
//! idle keep-alive peer.
//!
//! Scrapes are designed to stay off the score path: rendering takes
//! the windows lock for one merge pass (the same lock a request holds
//! for two histogram increments) and never touches the model or the
//! admission queue's lock beyond a depth read.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use amoe_obs::expose::Renderer;
use amoe_obs::trace;

use crate::protocol;
use crate::server::Shared;

/// Request head cap (request line + headers). Anything longer is
/// answered `431` and the connection closed.
const MAX_HEAD: usize = 8 * 1024;

/// How long a handler blocks in `read` before re-checking the stop
/// flag; also bounds how long `stop()` waits for idle connections.
const READ_POLL: Duration = Duration::from_millis(200);

/// The running observability listener. Owned by
/// [`crate::Server`]; stopped **after** the main drain so `/healthz`
/// stays answerable until the process is really done.
pub(crate) struct ObsListener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ObsListener {
    /// Binds `addr` (port 0 for ephemeral) and starts the accept loop.
    pub(crate) fn start(addr: impl ToSocketAddrs, shared: Arc<Shared>) -> io::Result<ObsListener> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Nonblocking accept + stop-flag polling: the listener has no
        // protocol peer to wake it, so it polls instead of parking.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("amoe-obs-http".into())
                .spawn(move || accept_loop(&listener, &shared, &stop))?
        };
        Ok(ObsListener {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept loop and every connection handler to exit,
    /// and joins them.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &Arc<AtomicBool>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let stop = Arc::clone(stop);
                let spawned =
                    thread::Builder::new()
                        .name("amoe-obs-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, &shared, &stop);
                        });
                if let Ok(h) = spawned {
                    handlers.push(h);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
        // Reap finished handlers so a long-lived server doesn't
        // accumulate one JoinHandle per scrape ever made.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// One parsed request head.
#[derive(Debug, PartialEq, Eq)]
struct ParsedRequest {
    method: String,
    path: String,
    /// HTTP/1.1 defaults to keep-alive; `Connection: close` (or
    /// HTTP/1.0 without `keep-alive`) turns it off.
    keep_alive: bool,
    /// The head declares a body (`Content-Length` > 0, or any
    /// `Transfer-Encoding`) that the listener will not read.
    has_body: bool,
}

/// Parses a request head (everything before the `\r\n\r\n`
/// terminator, which the caller has already located).
fn parse_request(head: &[u8]) -> Result<ParsedRequest, String> {
    let text = std::str::from_utf8(head).map_err(|_| "head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("malformed request line {request_line:?}"));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(format!("malformed method {method:?}"));
    }
    if !path.starts_with('/') {
        return Err(format!("malformed path {path:?}"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(format!("unsupported version {other:?}")),
    };
    let mut keep_alive = http11;
    let mut has_body = false;
    for line in lines {
        if line.is_empty() {
            continue; // trailing empty split before the terminator
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line {line:?}"));
        };
        if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            // An unparsable length is as untrustworthy as a body.
            has_body |= value.trim().parse::<u64>() != Ok(0);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            has_body = true;
        }
    }
    Ok(ParsedRequest {
        method: method.to_string(),
        path: path.to_string(),
        keep_alive,
        has_body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serves one connection: keep-alive loop with carry-over, so
/// pipelined requests already sitting in the buffer are answered
/// back-to-back without waiting for another read.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    // The accepted socket may inherit the listener's nonblocking mode
    // on some platforms; force blocking + a short timeout so the
    // handler polls the stop flag instead of parking forever.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // Assemble the next request head (pipelined requests may
        // already be buffered from the previous read).
        let head_end = loop {
            if let Some(end) = find_head_end(&buf) {
                break end;
            }
            if buf.len() > MAX_HEAD {
                write_response(&mut stream, 431, "text/plain", b"header too large\n", false)?;
                return Ok(());
            }
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // peer closed between requests
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue; // read timeout: re-check the stop flag
                }
                Err(e) => return Err(e),
            }
        };
        let parsed = parse_request(&buf[..head_end]);
        buf.drain(..head_end + 4);
        let Ok(request) = parsed else {
            // Garbage on the wire: answer 400 and close — framing is
            // unrecoverable, later bytes cannot be trusted as requests.
            write_response(&mut stream, 400, "text/plain", b"bad request\n", false)?;
            return Ok(());
        };
        let (status, ctype, body) = route(&request, shared);
        // Bodies are never read, so the bytes after a body-bearing head
        // (or a 405, whose body may follow) cannot be trusted as the
        // next head: answer, then close.
        let keep_alive = request.keep_alive && !request.has_body && status != 405;
        write_response(&mut stream, status, ctype, body.as_bytes(), keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Dispatches one request to its endpoint.
fn route(request: &ParsedRequest, shared: &Shared) -> (u16, &'static str, String) {
    if request.method != "GET" {
        return (405, "text/plain", "only GET is supported\n".into());
    }
    // Ignore any query string: /metrics?foo=bar scrapes normally.
    let path = request.path.split('?').next().unwrap_or("");
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            render_metrics(shared),
        ),
        "/healthz" => (200, "text/plain", "ok\n".into()),
        "/readyz" => {
            if shared.shutdown.load(Ordering::SeqCst) {
                (503, "text/plain", "draining\n".into())
            } else {
                (200, "text/plain", "ready\n".into())
            }
        }
        "/vars" => (200, "application/json", render_vars(shared)),
        "/trace" => (200, "application/json", trace::chrome_json()),
        _ => (404, "text/plain", "not found\n".into()),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    ctype: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    // One write per response: header + body coalesced so a scrape is
    // one segment on loopback.
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)
}

/// Renders the `/metrics` page: build info and uptime, the server's
/// native always-on counters and windowed stage histograms (with
/// exemplars), then the `AMOE_OBS` registry snapshot.
pub(crate) fn render_metrics(shared: &Shared) -> String {
    let mut r = Renderer::new();
    let stats = &shared.stats;

    let version = env!("CARGO_PKG_VERSION");
    let protocol_version = protocol::VERSION.to_string();
    let threads = amoe_tensor::pool::threads().to_string();
    r.gauge_with(
        "amoe_build_info",
        &[
            ("version", version),
            ("protocol", &protocol_version),
            ("threads", &threads),
        ],
        1.0,
    );
    r.gauge(
        "amoe_uptime_seconds",
        shared.started.elapsed().as_secs_f64(),
    );
    // Readiness as a gauge so dashboards can graph drain windows.
    let ready = !shared.shutdown.load(Ordering::SeqCst);
    r.gauge("amoe_ready", if ready { 1.0 } else { 0.0 });
    // Model freshness: the live checkpoint generation (0 = boot
    // model) and seconds since it was swapped in. Both move on every
    // successful RELOAD, so staleness alerts can fire on either.
    r.gauge(
        "amoe_model_generation",
        shared.model_generation.load(Ordering::Relaxed) as f64,
    );
    r.gauge(
        "amoe_model_age_seconds",
        shared.model_swapped.lock().unwrap().elapsed().as_secs_f64(),
    );

    // Native monotonic counters (always on, independent of AMOE_OBS).
    r.counter("serve.requests", stats.requests.load(Ordering::Relaxed));
    r.counter("serve.rows", stats.rows.load(Ordering::Relaxed));
    r.counter("serve.ok", stats.ok.load(Ordering::Relaxed));
    r.counter("serve.errors", stats.errors.load(Ordering::Relaxed));
    r.counter("serve.reloads", stats.reloads.load(Ordering::Relaxed));
    r.counter("serve.batches", stats.batches.load(Ordering::Relaxed));
    r.counter("serve.overloaded", stats.overloaded.load(Ordering::Relaxed));
    r.gauge("serve.queue_depth", shared.queue.len() as f64);

    // The five windowed stage quantile families, each carrying its
    // window's max-value exemplar.
    {
        let mut guard = stats.windows.lock().unwrap();
        let w = &mut *guard;
        for (family, win) in [
            ("serve.window.request_latency_us", &mut w.request_latency_us),
            ("serve.window.queue_wait_us", &mut w.queue_wait_us),
            ("serve.window.compute_us", &mut w.compute_us),
            ("serve.window.reply_write_us", &mut w.reply_write_us),
            ("serve.window.queue_depth", &mut w.queue_depth),
        ] {
            r.histogram(family, &win.merged(), win.exemplar());
        }
    }

    // The AMOE_OBS registry (pool.*, serving.*, trainer.*, lifetime
    // serve.* histograms…). It records no series the server counts
    // natively, so the two sources never share a family.
    r.snapshot(&amoe_obs::snapshot());
    r.finish()
}

/// Renders the `/vars` JSON snapshot: identity, counters and window
/// quantiles in one self-describing object (numbers always finite, per
/// the workspace JSON contract).
fn render_vars(shared: &Shared) -> String {
    use amoe_obs::json::{write_f64, write_str};
    use std::fmt::Write as _;

    let stats = &shared.stats;
    let snapshot = stats.snapshot(shared.queue.len());
    let window = stats.window_stats();

    let mut s = String::with_capacity(1024);
    s.push('{');
    write_str(&mut s, "version");
    s.push(':');
    write_str(&mut s, env!("CARGO_PKG_VERSION"));
    let _ = write!(s, ",\"protocol\":{}", protocol::VERSION);
    let _ = write!(s, ",\"threads\":{}", amoe_tensor::pool::threads());
    let ready = !shared.shutdown.load(Ordering::SeqCst);
    let _ = write!(s, ",\"ready\":{ready}");
    s.push_str(",\"uptime_secs\":");
    write_f64(&mut s, shared.started.elapsed().as_secs_f64());
    let _ = write!(
        s,
        ",\"model_generation\":{}",
        shared.model_generation.load(Ordering::SeqCst)
    );
    s.push_str(",\"model_age_secs\":");
    write_f64(
        &mut s,
        shared.model_swapped.lock().unwrap().elapsed().as_secs_f64(),
    );
    for (key, v) in [
        ("requests", snapshot.requests),
        ("rows", snapshot.rows),
        ("ok", snapshot.ok),
        ("overloaded", snapshot.overloaded),
        ("errors", snapshot.errors),
        ("batches", snapshot.batches),
        ("reloads", snapshot.reloads),
        ("queue_depth", snapshot.queue_depth),
    ] {
        let _ = write!(s, ",\"{key}\":{v}");
    }
    s.push_str(",\"window_secs\":");
    write_f64(&mut s, window.window_secs);
    s.push_str(",\"window\":{");
    for (i, (key, q)) in [
        ("request_latency_us", &window.request_latency_us),
        ("queue_wait_us", &window.queue_wait_us),
        ("compute_us", &window.compute_us),
        ("reply_write_us", &window.reply_write_us),
        ("queue_depth", &window.queue_depth),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{key}\":{{\"count\":{},\"p50\":", q.count);
        write_f64(&mut s, q.p50);
        s.push_str(",\"p95\":");
        write_f64(&mut s, q.p95);
        s.push_str(",\"p99\":");
        write_f64(&mut s, q.p99);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// Minimal HTTP/1.1 GET over a fresh connection: the in-repo scrape
/// client used by tests and `amoe-serve scrape` (no external HTTP
/// library in the workspace). Returns the status code and the body.
///
/// # Errors
/// Connection, timeout, and malformed-response errors.
pub fn http_get(
    addr: impl ToSocketAddrs,
    path: &str,
    timeout: Duration,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    // One write: `write!` on an unbuffered socket sends each formatted
    // piece as its own segment, and a server that reads the head once
    // sees a partial request (and resets on close with bytes unread).
    let request = format!("GET {path} HTTP/1.1\r\nHost: amoe\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    // `Connection: close` makes EOF the body delimiter.
    let mut data = Vec::new();
    stream.read_to_end(&mut data)?;
    let text = String::from_utf8_lossy(&data).into_owned();
    let head_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status_line = text.lines().next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;
    Ok((status, text[head_end + 4..].to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_accepts_plain_get() {
        let r = parse_request(b"GET /metrics HTTP/1.1\r\nHost: x").expect("parses");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parse_request_honours_connection_header() {
        let r = parse_request(b"GET / HTTP/1.1\r\nConnection: close").unwrap();
        assert!(!r.keep_alive);
        let r = parse_request(b"GET / HTTP/1.0").unwrap();
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = parse_request(b"GET / HTTP/1.0\r\nConnection: Keep-Alive").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn parse_request_rejects_garbage() {
        // Binary noise, bad request lines, non-HTTP versions, headers
        // without colons: everything a confused client might send.
        for head in [
            &b"\x00\x01\x02\xff\xfe"[..],
            b"GET",
            b"GET /x",
            b"GET /x HTTP/2.0",
            b"GET /x SMTP/1.1",
            b"get /x HTTP/1.1",
            b"GET x HTTP/1.1",
            b"GET /x HTTP/1.1 extra",
            b"GET /x HTTP/1.1\r\nno-colon-header",
            b"",
        ] {
            assert!(parse_request(head).is_err(), "{head:?} should be rejected");
        }
    }

    #[test]
    fn parse_request_flags_declared_bodies() {
        for (head, has_body) in [
            (&b"GET / HTTP/1.1"[..], false),
            (b"GET / HTTP/1.1\r\nContent-Length: 0", false),
            (b"POST / HTTP/1.1\r\nContent-Length: 5", true),
            (b"POST / HTTP/1.1\r\ncontent-length: lots", true),
            (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked", true),
        ] {
            let r = parse_request(head).unwrap();
            assert_eq!(r.has_body, has_body, "{head:?}");
        }
    }

    #[test]
    fn parse_request_keeps_non_get_methods_for_the_405_path() {
        let r = parse_request(b"POST /metrics HTTP/1.1").unwrap();
        assert_eq!(r.method, "POST");
    }

    #[test]
    fn find_head_end_locates_the_terminator() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial"), None);
    }

    #[test]
    fn http_get_parses_a_canned_response() {
        // A one-shot mini server that answers a fixed page exercises
        // the client half without a full serving stack.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            let body = b"hello\n";
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            s.write_all(head.as_bytes()).unwrap();
            s.write_all(body).unwrap();
        });
        let (status, body) = http_get(addr, "/x", Duration::from_secs(5)).expect("get");
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hello\n");
    }

    #[test]
    fn http_get_rejects_non_http_noise() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            s.write_all(b"not http at all").unwrap();
        });
        assert!(http_get(addr, "/x", Duration::from_secs(5)).is_err());
        server.join().unwrap();
    }
}
