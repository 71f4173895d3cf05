//! Property tests: the lossy trace reader must never panic, whatever bytes
//! it is fed, and its accounting must reconcile with the fault injector.

use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::codec::{read_trace_lossy, write_trace, CodecStats};
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{Trace, TraceMeta, TraceRecord};
use netsim::stream::ChunkReader;
use proptest::prelude::*;

fn small_trace(n: usize) -> Trace {
    let records = (0..n)
        .map(|i| {
            TraceRecord::Http(HttpTransaction {
                ts: i as f64 * 0.25,
                client_ip: 1 + (i as u32 % 7),
                server_ip: 50 + (i as u32 % 13),
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: format!("h{}.example", i % 5),
                    uri: format!("/obj/{i}?q={i}"),
                    referer: if i % 3 == 0 {
                        Some("http://h0.example/".into())
                    } else {
                        None
                    },
                    user_agent: Some("UA".into()),
                },
                response: ResponseHeaders {
                    status: if i % 11 == 0 { 302 } else { 200 },
                    content_type: Some("image/gif".into()),
                    content_length: Some(100 + i as u64),
                    location: if i % 11 == 0 {
                        Some(format!("http://h1.example/target/{i}"))
                    } else {
                        None
                    },
                },
                tcp_handshake_ms: 1.0,
                http_handshake_ms: 2.5,
            })
        })
        .collect();
    Trace {
        meta: TraceMeta {
            name: "prop-corruption".into(),
            duration_secs: n as f64,
            subscribers: 7,
            start_hour: 12,
            start_weekday: 2,
        },
        records,
    }
}

proptest! {
    /// Absolutely arbitrary bytes: the reader may reject everything, but it
    /// must return (never panic) and its line accounting must balance.
    #[test]
    fn lossy_reader_survives_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        if let Ok((trace, stats)) = read_trace_lossy(bytes.as_slice()) {
            prop_assert_eq!(trace.records.len(), stats.records_read);
            prop_assert_eq!(stats.lines_seen(), stats.records_read + stats.total_skipped());
        }
        // Err is also fine (e.g. unrecoverable header) — just no panic.
    }

    /// Arbitrary mutations of a *valid* trace stream: flip random bytes and
    /// splice random garbage, then require the reader to absorb it.
    #[test]
    fn lossy_reader_survives_mutated_valid_stream(
        n in 1usize..40,
        flips in proptest::collection::vec((0usize..100_000, 0u8..=255), 0..64),
        splice_at in 0usize..100_000,
        garbage in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let mut bytes = Vec::new();
        write_trace(&small_trace(n), &mut bytes).expect("write");
        for (pos, val) in flips {
            let len = bytes.len();
            if len > 0 {
                bytes[pos % len] = val;
            }
        }
        let pos = splice_at % (bytes.len() + 1);
        bytes.splice(pos..pos, garbage);
        if let Ok((trace, stats)) = read_trace_lossy(bytes.as_slice()) {
            prop_assert_eq!(trace.records.len(), stats.records_read);
        }
    }

    /// The fault injector's wire-level model reconciles exactly with the
    /// reader's statistics: every line the injector left behind is either
    /// read or accounted in a skip bucket.
    #[test]
    fn fault_counts_reconcile_with_reader_stats(
        n in 1usize..60,
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let original = small_trace(n);
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let mut bytes = Vec::new();
        write_trace(&original, &mut bytes).expect("write");
        let corrupted = injector.corrupt_bytes(&bytes);
        let (trace, stats) = read_trace_lossy(corrupted.as_slice())
            .expect("wire faults never destroy the whole stream");
        prop_assert_eq!(
            stats.lines_seen(),
            injector.counts().expected_records(n),
            "reader must see exactly the lines the injector emitted"
        );
        prop_assert_eq!(trace.records.len(), stats.records_read);
        // Truncation and garbling can only lose records, never invent them.
        prop_assert!(trace.records.len() <= injector.counts().expected_records(n));
    }

    /// The in-memory fault model keeps every record decodable: dropped
    /// headers are legal states, so a full write/read roundtrip is lossless.
    #[test]
    fn in_memory_faults_stay_decodable(
        n in 1usize..60,
        rate in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let original = small_trace(n);
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let faulted = injector.corrupt_trace(&original);
        let mut bytes = Vec::new();
        write_trace(&faulted, &mut bytes).expect("write");
        let (back, stats) = read_trace_lossy(bytes.as_slice()).expect("read");
        prop_assert_eq!(stats.total_skipped(), 0, "no wire faults were applied");
        prop_assert_eq!(back.records.len(), faulted.records.len());
    }

    /// Small chunks and the one chunk of `read_trace_lossy` agree.
    #[test]
    fn streaming_and_oneshot_agree(
        n in 1usize..40,
        rate in 0.0f64..0.4,
        seed in 0u64..500,
    ) {
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let mut bytes = Vec::new();
        write_trace(&small_trace(n), &mut bytes).expect("write");
        let corrupted = injector.corrupt_bytes(&bytes);
        let (oneshot, oneshot_stats) =
            read_trace_lossy(corrupted.as_slice()).expect("oneshot");
        let reader = ChunkReader::new(corrupted.as_slice(), 7).expect("stream open");
        let (mut streamed, mut stats) = (Vec::new(), CodecStats::default());
        for chunk in reader {
            stats.merge(&chunk.stats);
            streamed.extend(chunk.records);
        }
        prop_assert_eq!(streamed, oneshot.records);
        prop_assert_eq!(stats, oneshot_stats);
    }
}
