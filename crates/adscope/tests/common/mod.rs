//! What the path-vs-path equivalence suites share: one classifier, one
//! messy trace generator, temp files and the base stream options. A suite
//! keeps a generator of its own only where its trace really differs.

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use abp_filter::FilterList;
use adscope::classify::PassiveClassifier;
use adscope::pipeline::ClassifiedRequest;
use adscope::stream::{Fold, StreamOptions};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::codec::write_trace;
use netsim::record::{Trace, TraceMeta, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub fn classifier() -> PassiveClassifier {
    PassiveClassifier::new(vec![
        FilterList::parse(
            "easylist",
            "||ads.example^$third-party\n/banners/\n@@*callback=ok*\n",
        ),
        FilterList::parse("easylist-regionalia", "/werbung/\n"),
        FilterList::parse("easyprivacy", "/pixel/\n"),
        FilterList::parse("acceptable-ads", "@@||nice.example^\n"),
    ])
}

/// A randomized multi-user trace exercising every feature that is
/// sensitive to sharding or streaming: several ⟨IP, UA⟩ pairs (including
/// absent UA), referers, redirects with backfill targets, missing content
/// types, out-of-order timestamps (one of them a garbled, far-future one),
/// and quarantined (empty-host) records —
/// and a hit on every list, alone and under the whitelist, with handshake
/// gaps on both sides of 100 ms, so that no counter of a fold stays zero.
pub fn messy_trace(n: usize, users: u32, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records: Vec<TraceRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let client = rng.gen_range(1..=users);
        let ua = match rng.gen_range(0..4) {
            0 => Some("UA-Desktop/1.0".to_string()),
            1 => Some("UA-Mobile/2.0".to_string()),
            2 => Some(String::new()),
            _ => None,
        };
        let mut ts = i as f64 * 0.2;
        if rng.gen_bool(0.1) {
            ts -= 0.5; // out of order
        }
        if i == n / 2 {
            ts = 1234.56789e12; // `1234.56789012`, one byte garbled: finite, far ahead
        }
        let (host, uri, location, status) = match rng.gen_range(0..9) {
            0 => ("pub.example", "/".to_string(), None, 200),
            1 => ("ads.example", format!("/creative{i}.gif"), None, 200),
            2 => ("x.example", format!("/banners/{i}.gif"), None, 200),
            3 => (
                "r.example",
                format!("/go?id={i}"),
                Some(format!("http://media.example/spot{i}.mp4")),
                302,
            ),
            4 => ("media.example", format!("/spot{i}.mp4"), None, 200),
            5 => ("", "/quarantined".to_string(), None, 200),
            6 => ("track.example", format!("/pixel/{i}.gif"), None, 200),
            7 => ("x.example", format!("/werbung/{i}.gif"), None, 200),
            // Whitelisted: over an EasyList hit, over an EasyPrivacy hit, alone.
            _ => match i % 3 {
                0 => ("nice.example", format!("/banners/{i}.gif"), None, 200),
                1 => ("nice.example", format!("/pixel/{i}.gif"), None, 200),
                _ => ("nice.example", format!("/font{i}.woff"), None, 200),
            },
        };
        let referer = if rng.gen_bool(0.6) {
            Some("http://pub.example/".to_string())
        } else {
            None
        };
        let content_type = match rng.gen_range(0..4) {
            0 => Some("text/html".to_string()),
            1 => Some("image/gif".to_string()),
            2 => Some("video/mp4".to_string()),
            _ => None,
        };
        records.push(TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
            server_ip: rng.gen_range(10..20),
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri,
                referer,
                user_agent: ua,
            },
            response: ResponseHeaders {
                status,
                content_type,
                content_length: Some(rng.gen_range(10..5000)),
                location,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: rng.gen_range(2.0..250.0),
        }));
    }
    Trace {
        meta: TraceMeta {
            name: "messy-equiv".into(),
            duration_secs: n as f64,
            subscribers: users as usize,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

/// `base` plus the count `ANNOYED_THREADS` names, if it names a new one
/// (CI adds the machine's own).
pub fn thread_counts(base: &[usize]) -> Vec<usize> {
    let mut counts = base.to_vec();
    let extra = std::env::var("ANNOYED_THREADS").ok();
    if let Some(extra) = extra.and_then(|v| v.parse::<usize>().ok()) {
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// A fresh temp path unique across test binaries (the pid), parallel test
/// threads and cases (the serial).
pub fn temp_path(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("adscope-equiv-{}-{tag}-{n}", std::process::id()))
}

pub fn write_trace_file(trace: &Trace, tag: &str) -> PathBuf {
    let path = temp_path(tag);
    let f = std::fs::File::create(&path).unwrap();
    write_trace(trace, f).unwrap();
    path
}

/// The stream options every suite starts from; each switches its own plane
/// on over them.
pub fn stream_opts(threads: usize, chunk: usize) -> StreamOptions {
    StreamOptions {
        threads,
        chunk_records: chunk,
        ..StreamOptions::default()
    }
}

/// The equivalence suites' fold: every request a run classified, to be
/// compared with the oracle's vector.
#[derive(Clone, Default)]
pub struct Collect(Vec<(u64, ClassifiedRequest)>);

impl Fold for Collect {
    fn observe(&mut self, pos: u64, req: &ClassifiedRequest) {
        self.0.push((pos, req.clone()));
    }
    fn merge(&mut self, part: Collect) {
        self.0.extend(part.0);
    }
}

impl Collect {
    /// The requests in trace order (workers finalize out of it).
    pub fn requests(mut self) -> Vec<ClassifiedRequest> {
        self.0.sort_by_key(|(pos, _)| *pos);
        self.0.into_iter().map(|(_, req)| req).collect()
    }
}
