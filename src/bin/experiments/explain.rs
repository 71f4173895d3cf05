//! `experiments explain` — print the verdict-provenance decision tree
//! for one URL.
//!
//! Without `--trace`, the URL is classified inside a small synthesized
//! two-record capture (a page root on `pub.example` plus the target
//! request referred by it) against a fixture rule set that includes a
//! whitelist override: `easylist` blocks `niceads.example`, the
//! `acceptable-ads` list excepts it — the paper's §3.1 acceptable-ads
//! situation, and the golden test's subject. With `--trace`, the given
//! NDJSON capture is replayed through the lossy reader instead and the
//! URL is looked up among its records.
//!
//! The pipeline runs with the provenance sampler wide open
//! (`sample_ppm = 1_000_000`), the decision tree is printed, and the
//! full provenance NDJSON is written to
//! `target/experiments/explain_trace.ndjson` — then re-parsed line by
//! line with `netsim::json` and reported as `trace: VALID (N records)`.
//! Everything printed is deterministic (derived trace/span ids, no
//! wall-clock), which is what lets the golden test compare bytes.

use crate::cli::{die, Args};
use crate::manifest;
use abp_filter::FilterList;
use adscope::pipeline::classify_trace;
use adscope::provenance::TraceOptions;
use adscope::{PassiveClassifier, PipelineOptions};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::{HttpTransaction, Method};
use http_model::Url;
use netsim::record::{Trace, TraceMeta, TraceRecord};
use std::path::PathBuf;

pub const USAGE: &str = "experiments explain --url <u> [--trace <file>]";

/// Entry point for the `explain` subcommand. Exits the process.
pub fn run(args: &[String]) -> ! {
    let mut url_arg: Option<&str> = None;
    let mut trace_arg: Option<PathBuf> = None;
    let mut a = Args::new("explain", USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--url" => url_arg = Some(a.value(flag)),
            "--trace" => trace_arg = Some(a.path(flag)),
            other => a.unknown(other),
        }
    }
    let Some(raw_url) = url_arg else {
        a.usage_error("explain requires --url <u>");
    };
    let Ok(url) = Url::parse(raw_url) else {
        a.usage_error(&format!("bad --url value: cannot parse URL {raw_url:?}"));
    };

    let trace = match &trace_arg {
        Some(path) => crate::world::read_trace_file("explain", path),
        None => synthesized_trace(&url),
    };

    let classifier = fixture_classifier();
    let opts = PipelineOptions {
        trace: TraceOptions {
            sample_ppm: 1_000_000,
            always_sample_exceptional: true,
        },
        ..Default::default()
    };
    let out = classify_trace(&trace, &classifier, opts);

    // Look the URL up among the sampled records by its *raw* captured
    // form (provenance keeps both raw and normalized).
    let raw = url.as_string();
    let Some(vp) = out.provenance.iter().find(|vp| vp.url == raw) else {
        die(format!(
            "URL {raw:?} not found among the trace's {} records",
            out.requests.len()
        ));
    };
    print!("{}", vp.render_tree());

    // Export the full provenance NDJSON, one record a line in record
    // order, and prove it parses.
    let ndjson: String = out
        .provenance
        .iter()
        .map(|vp| vp.to_json() + "\n")
        .collect();
    let path = manifest::out_dir().join("explain_trace.ndjson");
    manifest::write_artifact(&path, &ndjson);
    let parsed = manifest::check_ndjson(&ndjson)
        .unwrap_or_else(|e| die(format!("invalid NDJSON in {}: {e}", path.display())));
    println!("trace: VALID ({parsed} records) -> {}", path.display());

    // Manifest: the provenance NDJSON is fully deterministic (derived
    // ids, no wall clock), so it replays byte-exactly. Stdout is
    // golden-pinned; the stamp goes to files and stderr only.
    let mut m = manifest::stamp("explain");
    m.config("url", &raw);
    let mut replay = vec!["explain".to_string(), "--url".into(), raw.clone()];
    if let Some(p) = &trace_arg {
        m.config("trace", p.display());
        manifest::set_dataset(&mut m, p);
        replay.extend(["--trace".into(), p.display().to_string()]);
    }
    m.replay = replay;
    manifest::add_artifact(
        &mut m,
        "explain_trace.ndjson",
        &path,
        obs::DigestMode::Exact,
    );
    manifest::write(m, None);
    std::process::exit(0);
}

/// The fixture rule set: EasyList-shaped blocking rules, EasyPrivacy
/// tracking rules, and an acceptable-ads whitelist that overrides the
/// `niceads.example` block — the §3.1 situation `explain` demonstrates.
pub(crate) fn fixture_classifier() -> PassiveClassifier {
    PassiveClassifier::new(vec![
        FilterList::parse(
            "easylist",
            "||niceads.example^\n||ads.example^$third-party\n/banners/\n",
        ),
        FilterList::parse("easyprivacy", "/pixel/\n||tracker.example^\n"),
        FilterList::parse("acceptable-ads", "@@||niceads.example^\n"),
    ])
}

/// A minimal two-record capture: the page root on `pub.example`, then
/// the target URL referred by it half a second later.
fn synthesized_trace(url: &Url) -> Trace {
    let uri = match url.query() {
        Some(q) => format!("{}?{q}", url.path()),
        None => url.path().to_string(),
    };
    Trace {
        meta: TraceMeta {
            name: "explain".into(),
            duration_secs: 1.0,
            subscribers: 1,
            start_hour: 12,
            start_weekday: 2,
        },
        records: vec![
            TraceRecord::Http(HttpTransaction {
                ts: 0.0,
                client_ip: 9,
                server_ip: 1,
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: "pub.example".into(),
                    uri: "/".into(),
                    referer: None,
                    user_agent: Some("UA".into()),
                },
                response: ResponseHeaders {
                    status: 200,
                    content_type: Some("text/html".into()),
                    content_length: Some(1000),
                    location: None,
                },
                tcp_handshake_ms: 1.0,
                http_handshake_ms: 2.0,
            }),
            TraceRecord::Http(HttpTransaction {
                ts: 0.5,
                client_ip: 9,
                server_ip: 2,
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: url.host().to_string(),
                    uri,
                    referer: Some("http://pub.example/".into()),
                    user_agent: Some("UA".into()),
                },
                response: ResponseHeaders {
                    status: 200,
                    content_type: None,
                    content_length: Some(500),
                    location: None,
                },
                tcp_handshake_ms: 1.0,
                http_handshake_ms: 2.0,
            }),
        ],
    }
}
