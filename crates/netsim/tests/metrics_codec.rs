//! The reader's metrics must reconcile with its own `CodecStats`:
//! same record count, and one `netsim_resync_total{reason=...}` increment
//! per skipped line, under the matching reason.

use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::codec::{write_trace, CodecStats};
use netsim::record::{Trace, TraceMeta, TraceRecord};
use netsim::stream::ChunkReader;

fn small_trace(n: usize) -> Trace {
    let records = (0..n)
        .map(|i| {
            TraceRecord::Http(HttpTransaction {
                ts: i as f64,
                client_ip: 1,
                server_ip: 50,
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: format!("h{i}.example"),
                    uri: format!("/obj/{i}"),
                    referer: None,
                    user_agent: Some("UA".into()),
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
        })
        .collect();
    Trace {
        meta: TraceMeta {
            name: "metrics-codec".into(),
            duration_secs: n as f64,
            subscribers: 1,
            start_hour: 12,
            start_weekday: 2,
        },
        records,
    }
}

#[test]
fn lossy_reader_metrics_reconcile_with_stats() {
    let mut bytes = Vec::new();
    write_trace(&small_trace(8), &mut bytes).expect("write");
    // Splice corruption after the header line: one line of JSON garbage,
    // one valid-JSON-wrong-schema line, one invalid-UTF-8 line.
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
    let mut corrupted = bytes[..header_end].to_vec();
    corrupted.extend_from_slice(b"{not json at all\n");
    corrupted.extend_from_slice(b"{\"Unknown\":{\"x\":1}}\n");
    corrupted.extend_from_slice(&[0xFF, 0xFE, b'z', b'\n']);
    corrupted.extend_from_slice(&bytes[header_end..]);

    let registry = obs::Registry::new();
    let reader =
        ChunkReader::with_registry(corrupted.as_slice(), 3, &registry).expect("reader opens");
    let mut stats = CodecStats::default();
    for chunk in reader {
        assert_eq!(chunk.records.len(), chunk.stats.records_read);
        stats.merge(&chunk.stats);
    }
    assert_eq!(
        stats.records_read, 8,
        "all genuine records survive the corruption"
    );
    assert_eq!(stats.skipped_bad_json, 1);
    assert_eq!(stats.skipped_bad_schema, 1);
    assert_eq!(stats.skipped_non_utf8, 1);

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("netsim_lossy_records_read_total", &[]),
        stats.records_read as u64
    );
    assert_eq!(
        snap.counter("netsim_resync_total", &[("reason", "bad_json")]),
        stats.skipped_bad_json as u64
    );
    assert_eq!(
        snap.counter("netsim_resync_total", &[("reason", "bad_schema")]),
        stats.skipped_bad_schema as u64
    );
    assert_eq!(
        snap.counter("netsim_resync_total", &[("reason", "non_utf8")]),
        stats.skipped_non_utf8 as u64
    );
    assert_eq!(
        snap.counter("netsim_resync_total", &[("reason", "oversize")]),
        0
    );
    assert_eq!(
        snap.counter_sum("netsim_resync_total"),
        stats.total_skipped() as u64
    );
    // Bytes accounting covers at least the kept record lines.
    assert!(snap.counter("netsim_lossy_bytes_read_total", &[]) > 0);
}

/// The reader counts the input bytes a kept line took, so on an all-valid
/// stream whose last line has no newline every chunk size agrees with the
/// input length past the header.
#[test]
fn lossy_bytes_read_agree_across_chunk_sizes_on_unterminated_input() {
    let mut bytes = Vec::new();
    write_trace(&small_trace(5), &mut bytes).expect("write");
    assert_eq!(bytes.pop(), Some(b'\n'), "drop the final newline");
    let header_len = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
    let want = (bytes.len() - header_len) as u64;

    for chunk_records in [2, usize::MAX] {
        let registry = obs::Registry::new();
        let reader = ChunkReader::with_registry(bytes.as_slice(), chunk_records, &registry)
            .expect("reader opens");
        assert_eq!(reader.map(|c| c.records.len()).sum::<usize>(), 5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("netsim_lossy_bytes_read_total", &[]), want);
    }
}
