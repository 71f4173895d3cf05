//! Thread-count adapters over the materialized flow in [`crate::pipeline`],
//! and the user → shard hash that flow and [`crate::stream`] partition by.

use crate::classify::PassiveClassifier;
use crate::pipeline::{classify_trace_on, ClassifiedTrace, PipelineOptions};
use netsim::record::Trace;

/// Deterministic shard assignment: FNV-1a over the user key. A missing
/// User-Agent hashes differently from an empty one, as in the per-user
/// stages' `(u32, Option<&str>)` map key. One shard holds every user and
/// is not hashed for: the byte-serial walk costs ≈1 ns per User-Agent byte.
pub(crate) fn shard_of(client_ip: u32, user_agent: Option<&str>, nshards: u64) -> usize {
    if nshards == 1 {
        return 0;
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mix = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(PRIME);
    let h = client_ip.to_le_bytes().into_iter().fold(OFFSET, mix);
    let h = match user_agent {
        None => mix(h, 0xff),
        Some(ua) => ua.bytes().fold(mix(h, 0x01), mix),
    };
    (h % nshards) as usize
}

/// [`crate::pipeline::classify_trace`] with the per-user stages fanned out
/// over `threads` workers (`0` means [`parallel::available_parallelism`]):
/// identical output at any count. Metrics go to the global [`obs`] registry.
pub fn classify_trace_sharded(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    threads: usize,
) -> ClassifiedTrace {
    classify_trace_on(trace, classifier, opts, threads, obs::global())
}

/// Like [`classify_trace_sharded`], recording metrics into `registry`.
pub fn classify_trace_sharded_in(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    threads: usize,
    registry: &obs::Registry,
) -> ClassifiedTrace {
    classify_trace_on(trace, classifier, opts, threads, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradationReport;
    use crate::pipeline::classify_trace_in;
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};
    use netsim::record::{TraceMeta, TraceRecord};

    fn classifier() -> PassiveClassifier {
        PassiveClassifier::new(vec![
            FilterList::parse(
                "easylist",
                "||ads.example^$third-party\n/banners/\n@@*callback=ok*\n",
            ),
            FilterList::parse("easyprivacy", "/pixel/\n"),
        ])
    }

    fn tx(ts: f64, client: u32, ua: Option<&str>, host: &str, uri: &str) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri: uri.into(),
                referer: Some("http://pub.example/".into()),
                user_agent: ua.map(str::to_string),
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some("image/gif".into()),
                content_length: Some(100),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn mixed_trace() -> Trace {
        let mut records = vec![];
        for i in 0..60u32 {
            let client = i % 7;
            let ua = match i % 3 {
                0 => Some("UA-A"),
                1 => Some("UA-B"),
                _ => None,
            };
            let (host, uri) = match i % 4 {
                0 => ("pub.example", "/".to_string()),
                1 => ("ads.example", format!("/creative{i}.gif")),
                2 => ("x.example", format!("/banners/{i}.gif")),
                _ => ("cdn.example", format!("/lib{i}.js")),
            };
            records.push(tx(i as f64 * 0.1, client, ua, host, &uri));
        }
        Trace {
            meta: TraceMeta {
                name: "shard-t".into(),
                duration_secs: 10.0,
                subscribers: 7,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        }
    }

    #[test]
    fn sharded_equals_sequential_across_thread_counts() {
        let trace = mixed_trace();
        let c = classifier();
        let seq_reg = obs::Registry::new();
        let seq = classify_trace_in(&trace, &c, PipelineOptions::default(), &seq_reg);
        for threads in [1usize, 2, 3, 8] {
            let reg = obs::Registry::new();
            let par =
                classify_trace_sharded_in(&trace, &c, PipelineOptions::default(), threads, &reg);
            assert_eq!(par.requests, seq.requests, "threads={threads}");
            assert_eq!(par.degradation, seq.degradation, "threads={threads}");
            assert_eq!(par.dropped, seq.dropped);
            assert_eq!(par.https_flows, seq.https_flows);
            assert_eq!(par.meta, seq.meta);
        }
    }

    #[test]
    fn shard_assignment_is_deterministic_and_distinguishes_absent_ua() {
        let a = shard_of(1, Some(""), 1 << 32);
        let b = shard_of(1, None, 1 << 32);
        assert_ne!(a, b, "empty UA and absent UA are distinct users");
        for _ in 0..3 {
            assert_eq!(shard_of(7, Some("UA-A"), 16), shard_of(7, Some("UA-A"), 16));
        }
    }

    #[test]
    fn empty_trace_classifies_to_empty() {
        let trace = Trace {
            meta: TraceMeta {
                name: "empty".into(),
                duration_secs: 0.0,
                subscribers: 0,
                start_hour: 0,
                start_weekday: 0,
            },
            records: vec![],
        };
        let reg = obs::Registry::new();
        let out =
            classify_trace_sharded_in(&trace, &classifier(), PipelineOptions::default(), 4, &reg);
        assert!(out.requests.is_empty());
        assert_eq!(out.degradation, DegradationReport::default());
    }
}
