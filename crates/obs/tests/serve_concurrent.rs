//! Concurrency hammer for the scrape endpoint: many clients fetching
//! `/metrics` and `/statusz` while the registry (counters, histograms,
//! and the health plane) mutates underneath them.
//!
//! What must hold:
//!
//! * every response is a complete, well-formed exposition — a scrape
//!   taken mid-mutation is a *consistent snapshot*, never a torn one;
//! * `/statusz` and `/statusz/ndjson` always render (the health plane's
//!   locks are never poisoned or deadlocked by concurrent begin/advance
//!   /finish cycles);
//! * the per-path request counter accounts for exactly the requests the
//!   clients made — none dropped, none double-counted.

use obs::Registry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
fn concurrent_scrapes_see_consistent_expositions_and_exact_counts() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 25;

    let r = static_registry();
    r.counter("hammer_seed_total").add(1);
    let h = obs::serve(r, 0).expect("bind ephemeral");
    let port = h.port();

    let stop = Arc::new(AtomicBool::new(false));
    let mutator = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let health = r.health();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                // Churn every surface a scrape renders: counters with
                // fresh label values, histograms, and full
                // health-plane run cycles with worker registration.
                r.counter_with("hammer_labeled_total", &[("shard", &(i % 7).to_string())])
                    .add(1);
                r.histogram("hammer_duration_ns").record(i * 37);
                health.begin_run(&format!("hammer-run-{i}"), 1000, i);
                for w in 0..3 {
                    health.worker(w).beat(i, 5);
                }
                health.advance(i, i % 1000, 10, 1);
                if i.is_multiple_of(3) {
                    health.finish_run(i);
                }
            }
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                for k in 0..REQUESTS_PER_CLIENT {
                    // Cycle the four read surfaces; validate /metrics
                    // bodies strictly — a torn exposition fails parse.
                    let path = match (c + k) % 4 {
                        0 => "/metrics",
                        1 => "/statusz",
                        2 => "/statusz/ndjson",
                        _ => "/healthz",
                    };
                    let (head, body) = get(port, path);
                    assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
                    match path {
                        "/metrics" => {
                            obs::validate_exposition(&body)
                                .unwrap_or_else(|e| panic!("torn exposition: {e}\n{body}"));
                        }
                        "/statusz" => {
                            assert!(body.contains("# statusz"), "{body}");
                            assert!(body.contains("health:"), "{body}");
                        }
                        "/statusz/ndjson" => {
                            assert!(
                                body.lines()
                                    .next()
                                    .unwrap_or("")
                                    .contains("\"event\":\"statusz\""),
                                "{body}"
                            );
                        }
                        _ => {
                            assert!(body.contains("\"status\":"), "{body}");
                        }
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    stop.store(true, Ordering::Relaxed);
    mutator.join().expect("mutator thread");

    // Exactly CLIENTS * REQUESTS_PER_CLIENT requests were served, split
    // evenly across the four paths by construction.
    let snap = r.snapshot();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let per_path = (total / 4) as u64;
    for path in ["/metrics", "/statusz", "/statusz/ndjson", "/healthz"] {
        assert_eq!(
            snap.counter("obs_http_requests_total", &[("path", path)]),
            per_path,
            "request count for {path}"
        );
    }
    assert_eq!(snap.counter_sum("obs_http_requests_total"), total as u64);

    h.join();
}
