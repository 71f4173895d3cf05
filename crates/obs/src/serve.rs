//! Std-only live scrape endpoint: a tiny HTTP/1.1 server over
//! [`std::net::TcpListener`] exposing one [`Registry`].
//!
//! The routes are one table, `ROUTES`: `/` lists it, the
//! `obs_http_requests_total{path}` label set is it, and the dispatcher
//! answers each entry. Among them:
//!
//! * `/metrics`  — Prometheus text exposition (the existing encoder).
//! * `/healthz`  — liveness JSON (tri-state `ok`/`degraded`/`stalled`
//!   verdict from [`crate::health`], uptime, published window lines, run
//!   state, stall count).
//! * `/statusz`  — the live run-health plane: manifest header, progress
//!   ledger, per-worker liveness, ETA (`/statusz/ndjson` for machines).
//! * `/windows`, `/population[/ndjson]`, `/alerts[/ndjson]` — the bodies
//!   their producers last published ([`Registry::publish`]), or a
//!   placeholder before the first.
//! * `/profile`  — the stage table of the span histograms (see
//!   [`crate::span::render_stages`]).
//! * `/quitz`    — request a clean shutdown (used by the CI smoke test).
//!
//! One accept loop on one thread, one connection at a time: a scrape
//! endpoint for a handful of clients, not a web server. The listener is
//! non-blocking so the loop can observe the shutdown flag within
//! ~25 ms; [`ServerHandle::join`] sets the flag and joins the thread,
//! and every response closes its connection (`Connection: close`).
//!
//! The registry reference is `&'static`: the intended producers are the
//! process-global registry ([`crate::global`]) or a deliberately leaked
//! long-lived one — a scrape server outliving its registry is exactly
//! the bug this signature makes unrepresentable.

use crate::registry::Registry;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to a running scrape server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (query it when serving on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Has shutdown been requested (via `Self::request_shutdown` or a
    /// `/quitz` hit)?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Ask the accept loop to exit after its current connection.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Request shutdown and wait for the accept loop to exit.
    pub fn join(mut self) {
        self.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `127.0.0.1:port` (0 picks an ephemeral port) and serve
/// `registry` until shutdown is requested.
pub fn serve(registry: &'static Registry, port: u16) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::Builder::new()
        .name("obs-serve".into())
        .spawn(move || accept_loop(listener, registry, &flag))?;
    Ok(ServerHandle {
        addr,
        shutdown,
        thread: Some(thread),
    })
}

fn accept_loop(listener: TcpListener, registry: &'static Registry, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // accept() inherits the listener's O_NONBLOCK on BSD and
                // macOS (not Linux); the per-connection I/O must block.
                let _ = stream.set_nonblocking(false);
                // Per-connection failures (client hangup mid-write) must
                // not take the loop down.
                let _ = handle(stream, registry, shutdown);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// How long a client has to deliver its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Read the request head (we only need the request line; headers are
/// drained and discarded). Bounded at 8 KiB — anything larger is not a
/// scrape request — and at [`HEAD_DEADLINE`] for all of it: each read
/// waits only for what is left, so a client trickling bytes cannot hold
/// the one accept thread longer than a silent one.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<String> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    while buf.len() < 8192 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                buf.push(byte[0]);
                if buf.ends_with(b"\r\n\r\n") || buf.ends_with(b"\n\n") {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    // "GET /path HTTP/1.1" — tolerate a bare "GET /path".
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return Ok(format!("!{method}")); // signals 405 below
    }
    // Strip any query string; routes don't take parameters.
    Ok(path.split('?').next().unwrap_or("/").to_string())
}

fn handle(
    mut stream: TcpStream,
    registry: &'static Registry,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let path = read_request_path(&mut stream)?;
    let (status, content_type, body) = route(&path, registry, shutdown);
    // Known routes get a labeled hit counter; everything else folds into
    // "other" so request paths can't explode metric cardinality.
    let label = ROUTES
        .iter()
        .find(|(known, ..)| *known == path)
        .map_or("other", |(known, ..)| known);
    registry
        .counter_with("obs_http_requests_total", &[("path", label)])
        .inc();
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let deadline = Instant::now() + RESPONSE_DEADLINE;
    write_all_by(&mut stream, head.as_bytes(), deadline)?;
    write_all_by(&mut stream, body.as_bytes(), deadline)
}

/// How long a client has to take its whole response.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(2);

/// `write_all` against a deadline for all of it: each write waits only for
/// what is left, so a client that asks and never reads — a body larger than
/// the socket buffers would otherwise park the one accept thread for as long
/// as it likes — is cut off like one that never finishes asking.
fn write_all_by(
    stream: &mut TcpStream,
    mut bytes: &[u8],
    deadline: Instant,
) -> std::io::Result<()> {
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

const TEXT: &str = "text/plain; charset=utf-8";
const NDJSON: &str = "application/x-ndjson";

/// A published route's content type and the body it serves before the
/// first publish ([`Registry::publish`]); `None` for a computed route.
type Published = Option<(&'static str, &'static str)>;

/// Every route: its path, the line `/` lists it with, and how a published
/// one answers. The index and the hit counter's label set are read from
/// here; [`route`] answers each entry, every published one in one arm.
const ROUTES: [(&str, &str, Published); 12] = [
    ("/", "this index", None),
    (
        "/metrics",
        "Prometheus text exposition of every series",
        None,
    ),
    (
        "/healthz",
        "liveness JSON: verdict, uptime, window lines, run state, stall count",
        None,
    ),
    (
        "/statusz",
        "run health: progress, rate, ETA, classes, alerts, workers",
        None,
    ),
    (
        "/statusz/ndjson",
        "run health: a statusz line, then one per worker",
        None,
    ),
    (
        "/windows",
        "closed windows, adscope then decode (NDJSON)",
        Some((NDJSON, "")),
    ),
    (
        "/population",
        "Table 3 so far and the population sketches (human table)",
        Some((TEXT, "population: no report published yet\n")),
    ),
    (
        "/population/ndjson",
        "Table 3 so far and the sketches (NDJSON)",
        Some((NDJSON, "")),
    ),
    (
        "/alerts",
        "alert rules, phases and timeline (human table)",
        Some((TEXT, "alerts: no engine published yet\n")),
    ),
    // One parseable line even before an engine publishes, so NDJSON
    // checkers always pass.
    (
        "/alerts/ndjson",
        "alert rules, phases and timeline (NDJSON)",
        Some((NDJSON, "{\"event\":\"alerts\",\"published\":false}\n")),
    ),
    (
        "/profile",
        "stage table of the span histograms (generator, codec)",
        None,
    ),
    ("/quitz", "request clean shutdown", None),
];

fn route(
    path: &str,
    registry: &'static Registry,
    shutdown: &AtomicBool,
) -> (&'static str, &'static str, String) {
    let published = ROUTES.iter().find(|r| r.0 == path).and_then(|r| r.2);
    if let Some((content_type, placeholder)) = published {
        let body = match registry.body(path) {
            b if b.is_empty() => placeholder.to_string(),
            b => b,
        };
        return ("200 OK", content_type, body);
    }
    match path {
        "/" => {
            let mut index = String::from("annoyed-users obs endpoint\n");
            for (path, what, _) in ROUTES {
                let _ = writeln!(index, "{path:<19}{what}");
            }
            ("200 OK", TEXT, index)
        }
        "/metrics" => {
            // Refresh the point-in-time process gauges so every scrape sees
            // current values, not the ones at publish time.
            crate::process::record_process(registry);
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                registry.render_prometheus(),
            )
        }
        "/healthz" => {
            let verdict = crate::health::verdict(registry);
            let health = registry.health().snapshot();
            (
                "200 OK",
                "application/json",
                format!(
                    "{{\"status\":\"{}\",\"uptime_ns\":{},\"windows\":{},\
                     \"run_active\":{},\"stalls\":{}}}\n",
                    verdict.as_str(),
                    registry.elapsed_ns(),
                    registry.body("/windows").lines().count(),
                    health.active,
                    health.stalls,
                ),
            )
        }
        "/statusz" => ("200 OK", TEXT, crate::health::render_statusz(registry)),
        "/statusz/ndjson" => (
            "200 OK",
            NDJSON,
            crate::health::render_statusz_ndjson(registry),
        ),
        "/profile" => (
            "200 OK",
            TEXT,
            crate::span::render_stages(&registry.snapshot()),
        ),
        "/quitz" => {
            shutdown.store(true, Ordering::Relaxed);
            ("200 OK", TEXT, "bye\n".to_string())
        }
        p if p.starts_with('!') => (
            "405 Method Not Allowed",
            TEXT,
            "only GET is served here\n".to_string(),
        ),
        _ => (
            "404 Not Found",
            TEXT,
            "unknown path; GET / lists routes\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately leaked registry: the server signature wants
    /// `&'static`, and a test registry leaking ~1 KiB once is fine.
    fn static_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    fn get(port: u16, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).expect("read response");
        let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_healthz_windows_profile() {
        let r = static_registry();
        r.counter("serve_test_total").add(7);
        {
            let _s = r.span("serve_stage");
        }
        r.publish([(
            "/windows",
            "{\"event\":\"window\",\"scope\":\"test\",\"index\":0}\n".into(),
        )]);
        let h = serve(r, 0).expect("bind ephemeral");
        let port = h.port();

        let (head, body) = get(port, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(crate::prometheus::validate_exposition(&body).is_ok());
        assert!(body.contains("serve_test_total 7"));

        let (head, body) = get(port, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"windows\":1,"), "{body}");

        let (_, body) = get(port, "/windows");
        assert!(body.contains("\"scope\":\"test\""));

        let (_, body) = get(port, "/profile");
        assert!(body.contains("  serve_stage\n"), "{body}");

        let (head, _) = get(port, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        // Scrapes were themselves counted.
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("obs_http_requests_total", &[("path", "/metrics")]),
            1
        );
        assert_eq!(
            snap.counter("obs_http_requests_total", &[("path", "other")]),
            1
        );
        h.join();
    }

    /// The one table: each route answers 200 (`/quitz` last, so the loop
    /// only stops after it), a published route its placeholder before any
    /// publish, and `/` names exactly the table's paths.
    #[test]
    fn every_route_answers_and_the_index_names_exactly_the_routes() {
        let r = static_registry();
        let h = serve(r, 0).expect("bind");
        let port = h.port();
        assert_eq!(ROUTES[ROUTES.len() - 1].0, "/quitz");
        let mut index = String::new();
        for (path, _, published) in ROUTES {
            let (head, body) = get(port, path);
            assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
            if let Some((content_type, placeholder)) = published {
                assert!(head.contains(content_type), "{path}: {head}");
                assert_eq!(body, placeholder, "{path}");
            }
            if path == "/" {
                index = body;
            }
        }
        h.join();
        let named: Vec<&str> = index
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().next().unwrap_or(""))
            .collect();
        assert_eq!(named, ROUTES.map(|(path, ..)| path));
        let snap = r.snapshot();
        for (path, ..) in ROUTES {
            let hits = snap.counter("obs_http_requests_total", &[("path", path)]);
            assert_eq!(hits, 1, "{path}");
        }
    }

    /// A published route serves its last body: a later publish replaces
    /// the body, it does not append to it, and leaves other routes alone.
    #[test]
    fn a_later_publish_replaces_the_body_it_serves() {
        let r = static_registry();
        r.publish([
            ("/alerts", "first\n".into()),
            ("/alerts/ndjson", "{}\n".into()),
        ]);
        r.publish([("/alerts", "second\n".into())]);
        let h = serve(r, 0).expect("bind");
        let port = h.port();
        assert_eq!(get(port, "/alerts").1, "second\n");
        assert_eq!(get(port, "/alerts/ndjson").1, "{}\n");
        let (_, body) = get(port, "/population");
        assert_eq!(body, "population: no report published yet\n");
        h.join();
    }

    #[test]
    fn statusz_and_healthz_reflect_the_health_plane() {
        let r = static_registry();
        r.health().begin_run("serve-test", 200, r.elapsed_ns());
        r.health().advance(r.elapsed_ns(), 100, 10, 1);
        r.health().worker(0).beat(r.elapsed_ns(), 10);
        let h = serve(r, 0).expect("bind");
        let port = h.port();

        let (head, body) = get(port, "/statusz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("serve-test"), "{body}");
        assert!(body.contains("50.0%"), "{body}");

        let (_, body) = get(port, "/statusz/ndjson");
        assert!(body.contains("\"event\":\"statusz\""), "{body}");
        assert!(body.contains("\"event\":\"worker\""), "{body}");

        let (_, body) = get(port, "/healthz");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"run_active\":true"), "{body}");

        // Each scrape refreshes the process gauges.
        let (_, body) = get(port, "/metrics");
        assert!(body.contains("process_open_fds") || crate::process::open_fds().is_none());

        let snap = r.snapshot();
        assert_eq!(
            snap.counter("obs_http_requests_total", &[("path", "/statusz")]),
            1
        );
        h.join();
    }

    /// `/healthz` is the verdict and four facts, in this order, and
    /// nothing else.
    #[test]
    fn healthz_is_exactly_its_five_keys_in_order() {
        let r = static_registry();
        let h = serve(r, 0).expect("bind");
        let (_, body) = get(h.port(), "/healthz");
        h.join();
        let keys: Vec<&str> = body
            .trim_end()
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .map(|field| field.split(':').next().unwrap_or("").trim_matches('"'))
            .collect();
        let want = ["status", "uptime_ns", "windows", "run_active", "stalls"];
        assert_eq!(keys, want, "{body}");
    }

    #[test]
    fn quitz_stops_the_loop() {
        let r = static_registry();
        let h = serve(r, 0).expect("bind");
        let port = h.port();
        let (head, body) = get(port, "/quitz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "bye\n");
        assert!(h.shutdown_requested());
        h.join(); // returns promptly: the loop saw the flag
                  // The port is released once the loop exits (give the OS a beat).
        std::thread::sleep(Duration::from_millis(100));
        assert!(TcpListener::bind(("127.0.0.1", port)).is_ok());
    }

    /// One client sends a byte every 300 ms, each well inside a per-read
    /// timeout; the next client must not wait for it past the deadline.
    #[test]
    fn a_trickling_client_is_cut_off_at_the_head_deadline() {
        let r = static_registry();
        let h = serve(r, 0).expect("bind");
        let port = h.port();
        let stop = Arc::new(AtomicBool::new(false));
        let (connected_tx, connected_rx) = std::sync::mpsc::channel();
        let trickler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
                connected_tx.send(()).unwrap();
                for b in b"GET /metrics HTTP/1.1\r\nX-Slow: "
                    .iter()
                    .chain([b'x'].iter().cycle())
                {
                    // A write error means the server hung up on us: done.
                    if stop.load(Ordering::Relaxed) || s.write_all(&[*b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(300));
                }
            })
        };
        connected_rx.recv().unwrap();
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut buf = String::new();
        let answered = s.read_to_string(&mut buf);
        stop.store(true, Ordering::Relaxed);
        trickler.join().unwrap();
        h.join();
        assert!(answered.is_ok(), "/healthz not answered within 3 s");
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
    }

    /// One client asks for a `/metrics` body larger than the socket buffers
    /// and never reads it; the next client must not wait for it past the
    /// response deadline.
    #[test]
    fn a_client_that_never_reads_is_cut_off_at_the_response_deadline() {
        let r = static_registry();
        // ≈ 16 MiB of exposition; a loopback pair buffers a few.
        let filler = "x".repeat(8192);
        for i in 0..2048 {
            r.counter_with("serve_big_total", &[("k", &format!("{i}-{filler}"))])
                .inc();
        }
        let h = serve(r, 0).expect("bind");
        let port = h.port();
        // Connected and asked before the second client connects, so the
        // accept loop takes it first.
        let mut deaf = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write!(deaf, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        s.set_read_timeout(Some(RESPONSE_DEADLINE + Duration::from_secs(3)))
            .unwrap();
        write!(s, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut buf = String::new();
        let answered = s.read_to_string(&mut buf);
        // Hung up before the join, so a server still writing to it fails
        // this test instead of hanging it.
        drop(deaf);
        h.join();
        assert!(answered.is_ok(), "/healthz not answered within 5 s");
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
    }

    #[test]
    fn non_get_is_rejected() {
        let r = static_registry();
        let h = serve(r, 0).expect("bind");
        let mut s = TcpStream::connect(("127.0.0.1", h.port())).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 405"), "{buf}");
        h.join();
    }
}
