//! Multi-core NDJSON trace decode.
//!
//! NDJSON's framing makes the format embarrassingly parallel: any byte
//! offset can be snapped forward to the next `\n` and the stream splits
//! into self-contained chunks of whole lines. The functions here split a
//! trace byte buffer into roughly equal chunks on line boundaries, decode
//! the chunks concurrently on a [`parallel::Pool`], and merge the results
//! **in input order**, so the output is byte-identical to what the
//! sequential readers in [`crate::codec`] produce:
//!
//! * [`read_trace_parallel`] mirrors [`crate::codec::read_trace`]
//!   (strict), including exact 1-based line numbers in errors — the
//!   lowest erroring line wins, as it would sequentially.
//! * [`read_trace_lossy_parallel`] mirrors
//!   [`crate::codec::read_trace_lossy`]; per-chunk [`CodecStats`] merge
//!   via [`CodecStats::merge`], which keeps the fault-accounting
//!   invariants (one fault ↔ one skipped line) exact.
//!
//! Both take the input as a byte slice rather than `impl Read`: chunked
//! decode needs random access, and at the scales where parallelism pays
//! off the trace is an mmap-able file or an in-memory buffer anyway.

use crate::codec::{
    decode_header, decode_line_lossy, decode_text, recovered_meta, CodecError, CodecStats,
    DecodeWindows, LossyLine, ReaderMetrics, MAX_LINE_BYTES,
};
use crate::record::{Trace, TraceRecord};
use crate::scan::find_newline;
use ::parallel::{split_ranges, Pool};
use obs::events::FieldValue;
use obs::trace::{seed_from_name, SpanId, TraceId};

/// Emit the decode trace context for one parallel read: a root `decode`
/// span plus one child span per chunk, all ids derived from the trace
/// name and input size. These are *physical-plan* spans — the chunk
/// layout legitimately varies with the thread count (unlike the logical
/// per-request traces in `adscope`, which are thread-invariant by
/// contract) — so they go to the event log, not the provenance sink.
fn emit_decode_spans(
    registry: &obs::Registry,
    meta_name: &str,
    total_bytes: usize,
    chunk_records: &[u64],
    threads: usize,
) {
    let trace = TraceId::derive(seed_from_name(meta_name), total_bytes as u64);
    let root = SpanId::derive(trace, "decode");
    registry.event(
        "decode_span",
        vec![
            ("trace_id", FieldValue::Str(trace.to_hex())),
            ("span_id", FieldValue::Str(root.to_hex())),
            ("stage", FieldValue::Str("decode".into())),
            ("bytes", FieldValue::U64(total_bytes as u64)),
            ("records", FieldValue::U64(chunk_records.iter().sum())),
            ("chunks", FieldValue::U64(chunk_records.len() as u64)),
            ("threads", FieldValue::U64(threads as u64)),
        ],
    );
    for (i, &records) in chunk_records.iter().enumerate() {
        let span = SpanId::derive_indexed(trace, "chunk", i as u64);
        registry.event(
            "decode_span",
            vec![
                ("trace_id", FieldValue::Str(trace.to_hex())),
                ("span_id", FieldValue::Str(span.to_hex())),
                ("parent_id", FieldValue::Str(root.to_hex())),
                ("stage", FieldValue::Str("chunk".into())),
                ("index", FieldValue::U64(i as u64)),
                ("records", FieldValue::U64(records)),
            ],
        );
    }
}

/// Window one chunk's decoded records (hour-wide buckets on the trace
/// clock). Infinite watermark makes the partial order-insensitive, so
/// the input-order merge below reproduces the whole-stream report for
/// any chunk layout — the decode-side half of the window determinism
/// contract.
fn chunk_windows(records: &[TraceRecord]) -> obs::WindowReport {
    let mut w = DecodeWindows::hourly();
    for rec in records {
        w.observe(rec);
    }
    w.finish()
}

/// Merge per-chunk window partials in input order and publish the result
/// into the registry's window log under the `decode` scope.
fn merge_and_publish_windows(registry: &obs::Registry, partials: Vec<obs::WindowReport>) {
    let mut merged = obs::WindowReport::default();
    for p in &partials {
        merged.merge(p);
    }
    // Late observations (non-finite timestamps in lossy-decoded records)
    // stay visible even when no window closed at all.
    if merged.late > 0 {
        registry.counter("obs_window_late_total").add(merged.late);
    }
    if merged.windows.is_empty() {
        return;
    }
    for line in merged.render_ndjson("decode").lines() {
        registry.windows().push(line.to_string());
    }
    registry
        .counter("netsim_decode_windows_closed_total")
        .add(merged.windows.len() as u64);
}

/// Iterate the lines of `bytes` (excluding the `\n` terminators). A
/// trailing line without a final newline is yielded too, matching
/// `read_line`-based sequential readers.
fn lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        if pos >= bytes.len() {
            return None;
        }
        let rest = &bytes[pos..];
        match find_newline(rest) {
            Some(idx) => {
                pos += idx + 1;
                Some(&rest[..idx])
            }
            None => {
                pos = bytes.len();
                Some(rest)
            }
        }
    })
}

/// Split `body` into at most `parts` chunks of whole lines, sized by
/// bytes. Chunk boundaries are snapped forward to the next newline, so a
/// line is never split; fewer chunks than requested come back when the
/// data is small or a single line spans several nominal chunks.
fn chunk_on_lines(body: &[u8], parts: usize) -> Vec<&[u8]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    for r in split_ranges(body.len(), parts) {
        if r.end <= start {
            continue; // a long line swallowed this nominal chunk
        }
        let end = if r.end == body.len() {
            body.len()
        } else {
            match find_newline(&body[r.end..]) {
                Some(idx) => r.end + idx + 1,
                None => body.len(),
            }
        };
        chunks.push(&body[start..end]);
        start = end;
    }
    if start < body.len() {
        chunks.push(&body[start..]);
    }
    chunks
}

/// Split off the header line. Returns `(header_without_newline, body)`;
/// the body is empty when the stream has a single line.
fn split_header(bytes: &[u8]) -> (&[u8], &[u8]) {
    match find_newline(bytes) {
        Some(idx) => (&bytes[..idx], &bytes[idx + 1..]),
        None => (bytes, &[]),
    }
}

/// Strict parallel read of an in-memory trace: the parallel counterpart
/// of [`crate::codec::read_trace`]. `threads == 0` means
/// [`parallel::available_parallelism`]; `threads == 1` still goes through
/// the chunking path with one chunk, which is the sequential code shape.
///
/// Errors are deterministic: if several chunks contain malformed lines,
/// the error reported is the one on the lowest line number — exactly the
/// line the sequential reader would have stopped at.
pub fn read_trace_parallel(bytes: &[u8], threads: usize) -> Result<Trace, CodecError> {
    let pool = Pool::new(threads);
    let registry = obs::global();
    let mut span = registry.span_with("netsim_codec", &[("op", "read_strict_parallel")]);

    if bytes.is_empty() {
        return Err(CodecError::BadHeader("empty stream".to_string()));
    }
    let (header, body) = split_header(bytes);
    let header_text = std::str::from_utf8(header)
        .map_err(|_| CodecError::BadHeader("header is not UTF-8".to_string()))?;
    if header_text.trim().is_empty() {
        return Err(CodecError::BadHeader("empty stream".to_string()));
    }
    let meta = decode_header(header_text)?;

    let chunks = chunk_on_lines(body, pool.threads());
    // Each worker returns its decoded records plus its line count, so
    // absolute line numbers reconstruct exactly: the header is line 1,
    // chunk c's first line is 2 + Σ lines(chunks[..c]).
    type ChunkOut = Result<(Vec<TraceRecord>, usize, Option<obs::WindowReport>), (usize, String)>;
    let outs: Vec<ChunkOut> = pool.map(chunks, |_, chunk| {
        let mut records = Vec::new();
        let mut line_count = 0usize;
        for line in lines(chunk) {
            line_count += 1;
            let text = match std::str::from_utf8(line) {
                Ok(t) => t.trim(),
                Err(_) => return Err((line_count, "invalid UTF-8".to_string())),
            };
            if text.is_empty() {
                continue;
            }
            let rec = decode_text(text).map_err(|e| (line_count, e.into_text()))?;
            records.push(rec);
        }
        let windows = obs::enabled().then(|| chunk_windows(&records));
        Ok((records, line_count, windows))
    });

    let mut records = Vec::new();
    let mut lines_before = 0usize;
    let mut chunk_records: Vec<u64> = Vec::new();
    let mut window_partials: Vec<obs::WindowReport> = Vec::new();
    for out in outs {
        match out {
            Ok((mut recs, line_count, windows)) => {
                chunk_records.push(recs.len() as u64);
                records.append(&mut recs);
                lines_before += line_count;
                window_partials.extend(windows);
            }
            Err((relative_line, error)) => {
                return Err(CodecError::BadRecord {
                    line: 1 + lines_before + relative_line,
                    error,
                });
            }
        }
    }
    emit_decode_spans(
        registry,
        &meta.name,
        bytes.len(),
        &chunk_records,
        pool.threads(),
    );
    merge_and_publish_windows(registry, window_partials);

    span.count("records", records.len() as u64);
    span.count("bytes", bytes.len() as u64);
    span.count("threads", pool.threads() as u64);
    let elapsed = span.end();
    registry
        .counter("netsim_records_read_total")
        .add(records.len() as u64);
    registry
        .counter("netsim_bytes_read_total")
        .add(bytes.len() as u64);
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        registry
            .gauge("netsim_read_throughput_rps")
            .set(records.len() as f64 / secs);
        registry
            .gauge("netsim_read_throughput_bps")
            .set(bytes.len() as f64 / secs);
    }
    Ok(Trace { meta, records })
}

/// Per-chunk result of a lossy parallel decode.
struct LossyChunk {
    records: Vec<TraceRecord>,
    stats: CodecStats,
    kept_bytes: u64,
    windows: Option<obs::WindowReport>,
}

/// Lossy parallel read: the parallel counterpart of
/// [`crate::codec::read_trace_lossy`]. Records, metadata, and the merged
/// [`CodecStats`] are identical to the sequential reader's for any input,
/// clean or corrupt — each chunk worker applies the same per-line verdict
/// (`decode_line_lossy`) the streaming reader uses, and per-chunk stats
/// fold together with [`CodecStats::merge`] in input order.
pub fn read_trace_lossy_parallel(bytes: &[u8], threads: usize) -> (Trace, CodecStats) {
    let registry = obs::global();
    read_trace_lossy_parallel_in(bytes, threads, registry)
}

/// Like [`read_trace_lossy_parallel`], recording metrics into `registry`.
pub fn read_trace_lossy_parallel_in(
    bytes: &[u8],
    threads: usize,
    registry: &obs::Registry,
) -> (Trace, CodecStats) {
    let pool = Pool::new(threads);
    let metrics = ReaderMetrics::bind(registry);
    let mut stats = CodecStats::default();

    // Header: same recovery policy as `TraceReader::with_registry` — a
    // missing, oversize, or undecodable header substitutes placeholder
    // metadata and flags it, never aborts.
    let (meta, body) = if bytes.is_empty() {
        stats.header_recovered = true;
        (recovered_meta(), &[][..])
    } else {
        let (header, body) = split_header(bytes);
        let meta = if header.len() > MAX_LINE_BYTES {
            stats.header_recovered = true;
            recovered_meta()
        } else {
            match std::str::from_utf8(header)
                .ok()
                .and_then(|t| decode_header(t).ok())
            {
                Some(meta) => meta,
                None => {
                    stats.header_recovered = true;
                    recovered_meta()
                }
            }
        };
        (meta, body)
    };

    let chunks = chunk_on_lines(body, pool.threads());
    let outs: Vec<LossyChunk> = pool.map(chunks, |_, chunk| {
        let mut out = LossyChunk {
            records: Vec::new(),
            stats: CodecStats::default(),
            kept_bytes: 0,
            windows: None,
        };
        for line in lines(chunk) {
            match decode_line_lossy(line, line.len() > MAX_LINE_BYTES) {
                LossyLine::Record(rec) => {
                    out.stats.records_read += 1;
                    out.kept_bytes += line.len() as u64 + 1;
                    out.records.push(rec);
                }
                LossyLine::Blank => out.stats.blank_lines += 1,
                LossyLine::BadJson => out.stats.skipped_bad_json += 1,
                LossyLine::BadSchema => out.stats.skipped_bad_schema += 1,
                LossyLine::NonUtf8 => out.stats.skipped_non_utf8 += 1,
                LossyLine::Oversize => out.stats.skipped_oversize += 1,
            }
        }
        out.windows = obs::enabled().then(|| chunk_windows(&out.records));
        out
    });

    let mut records = Vec::new();
    let mut kept_bytes = 0u64;
    let mut chunk_records: Vec<u64> = Vec::new();
    let mut window_partials: Vec<obs::WindowReport> = Vec::new();
    for chunk in outs {
        let LossyChunk {
            records: mut recs,
            stats: chunk_stats,
            kept_bytes: chunk_bytes,
            windows,
        } = chunk;
        chunk_records.push(recs.len() as u64);
        records.append(&mut recs);
        stats.merge(&chunk_stats);
        kept_bytes += chunk_bytes;
        window_partials.extend(windows);
    }
    emit_decode_spans(
        registry,
        &meta.name,
        bytes.len(),
        &chunk_records,
        pool.threads(),
    );
    merge_and_publish_windows(registry, window_partials);

    metrics.records.add(stats.records_read as u64);
    metrics.bytes.add(kept_bytes);
    metrics.resync_bad_json.add(stats.skipped_bad_json as u64);
    metrics
        .resync_bad_schema
        .add(stats.skipped_bad_schema as u64);
    metrics.resync_non_utf8.add(stats.skipped_non_utf8 as u64);
    metrics.resync_oversize.add(stats.skipped_oversize as u64);

    (Trace { meta, records }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_trace, read_trace_lossy, write_trace};
    use crate::record::{TlsConnection, TraceMeta};
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};

    fn trace_with(n: usize) -> Trace {
        Trace {
            meta: TraceMeta {
                name: "RBN-P".into(),
                duration_secs: 60.0,
                subscribers: 4,
                start_hour: 9,
                start_weekday: 2,
            },
            records: (0..n)
                .map(|i| {
                    if i % 5 == 4 {
                        TraceRecord::Https(TlsConnection {
                            ts: i as f64,
                            client_ip: (i % 7) as u32,
                            server_ip: 50,
                            server_port: 443,
                            bytes: 900 + i as u64,
                        })
                    } else {
                        TraceRecord::Http(HttpTransaction {
                            ts: i as f64,
                            client_ip: (i % 7) as u32,
                            server_ip: 40,
                            server_port: 80,
                            method: Method::Get,
                            request: RequestHeaders {
                                host: format!("h{}.example", i % 11),
                                uri: format!("/p/{i}?x=\"1\""),
                                referer: (i % 3 == 0).then(|| "http://r.example/".into()),
                                user_agent: Some("UA/2.0".into()),
                            },
                            response: ResponseHeaders {
                                status: 200,
                                content_type: Some("text/html".into()),
                                content_length: Some(512),
                                location: None,
                            },
                            tcp_handshake_ms: 10.0,
                            http_handshake_ms: 55.5,
                        })
                    }
                })
                .collect(),
        }
    }

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(trace, &mut buf).unwrap();
        buf
    }

    #[test]
    fn strict_parallel_matches_sequential() {
        let trace = trace_with(200);
        let bytes = encode(&trace);
        let seq = read_trace(bytes.as_slice()).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = read_trace_parallel(&bytes, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn strict_parallel_reports_lowest_error_line() {
        let trace = trace_with(50);
        let mut text = String::from_utf8(encode(&trace)).unwrap();
        // Corrupt two lines; the lower one must win under any thread count.
        let mut lines: Vec<&str> = text.lines().collect();
        let corrupt_a = "{broken";
        let corrupt_b = "also broken";
        lines[40] = corrupt_b;
        lines[12] = corrupt_a;
        text = lines.join("\n");
        text.push('\n');
        let seq_err = read_trace(text.as_bytes()).unwrap_err();
        let seq_line = match seq_err {
            CodecError::BadRecord { line, .. } => line,
            other => panic!("expected BadRecord, got {other:?}"),
        };
        assert_eq!(seq_line, 13);
        for threads in [1, 2, 8] {
            match read_trace_parallel(text.as_bytes(), threads) {
                Err(CodecError::BadRecord { line, .. }) => {
                    assert_eq!(line, seq_line, "threads={threads}")
                }
                other => panic!("expected BadRecord, got {other:?}"),
            }
        }
    }

    #[test]
    fn strict_parallel_rejects_empty_and_bad_header() {
        assert!(matches!(
            read_trace_parallel(b"", 4),
            Err(CodecError::BadHeader(_))
        ));
        assert!(matches!(
            read_trace_parallel(b"\xff\xfe\n", 4),
            Err(CodecError::BadHeader(_))
        ));
    }

    #[test]
    fn lossy_parallel_matches_sequential_on_corrupt_input() {
        let trace = trace_with(100);
        let mut bytes = encode(&trace);
        // Manual corruption across the buffer: truncate a line, break a
        // schema, insert noise and non-UTF-8, and append a no-newline tail.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
        let half = lines[10].len() / 2;
        lines[10].truncate(half);
        lines[30] = b"{\"Http\":{\"ts\":\"oops\"}}".to_vec();
        lines[55] = b"!!! noise".to_vec();
        lines[70] = b"\xff\xfe bad".to_vec();
        lines[80] = b"   ".to_vec();
        bytes = lines.join(&b"\n"[..]);
        bytes.extend_from_slice(b"\n{\"Https\":{\"ts\":1.0,\"client_ip\":1,\"server_ip\":2,\"server_port\":443,\"bytes\":10}}");

        let (seq, seq_stats) = read_trace_lossy(bytes.as_slice()).unwrap();
        for threads in [1, 2, 5, 8] {
            let (par, par_stats) = read_trace_lossy_parallel(&bytes, threads);
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(par_stats, seq_stats, "threads={threads}");
        }
        assert!(seq_stats.total_skipped() >= 4);
    }

    #[test]
    fn lossy_parallel_recovers_header() {
        let trace = trace_with(10);
        let mut bytes = encode(&trace);
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        for b in &mut bytes[..nl] {
            *b = b'#';
        }
        let (seq, seq_stats) = read_trace_lossy(bytes.as_slice()).unwrap();
        let (par, par_stats) = read_trace_lossy_parallel(&bytes, 4);
        assert_eq!(par, seq);
        assert_eq!(par_stats, seq_stats);
        assert!(par_stats.header_recovered);
        assert_eq!(par.meta.name, "<recovered>");
    }

    #[test]
    fn lossy_parallel_empty_stream() {
        let (seq, seq_stats) = read_trace_lossy(std::io::empty()).unwrap();
        let (par, par_stats) = read_trace_lossy_parallel(b"", 8);
        assert_eq!(par, seq);
        assert_eq!(par_stats, seq_stats);
        assert!(par_stats.header_recovered);
    }

    #[test]
    fn lossy_parallel_oversize_line() {
        let trace = trace_with(3);
        let mut bytes = encode(&trace);
        bytes.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES + 5));
        bytes.push(b'\n');
        let (seq, seq_stats) = read_trace_lossy(bytes.as_slice()).unwrap();
        for threads in [1, 2, 8] {
            let (par, par_stats) = read_trace_lossy_parallel(&bytes, threads);
            assert_eq!(par, seq, "threads={threads}");
            assert_eq!(par_stats, seq_stats, "threads={threads}");
            assert_eq!(par_stats.skipped_oversize, 1);
        }
    }

    #[test]
    fn decode_spans_carry_deterministic_trace_context() {
        let trace = trace_with(40);
        let bytes = encode(&trace);
        let reg = obs::Registry::new();
        let (out, _) = read_trace_lossy_parallel_in(&bytes, 4, &reg);
        assert_eq!(out.records.len(), 40);

        let events = reg.events().snapshot();
        let spans: Vec<_> = events.iter().filter(|e| e.name == "decode_span").collect();
        assert!(spans.len() >= 2, "one root plus at least one chunk span");

        let expect_trace =
            TraceId::derive(seed_from_name(&trace.meta.name), bytes.len() as u64).to_hex();
        for e in &spans {
            let tid = e
                .fields
                .iter()
                .find(|(k, _)| *k == "trace_id")
                .and_then(|(_, v)| match v {
                    FieldValue::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .expect("trace_id field");
            assert_eq!(tid, expect_trace, "all decode spans share the trace id");
        }
        // Chunk spans name the root as parent.
        let root = SpanId::derive(
            TraceId::derive(seed_from_name(&trace.meta.name), bytes.len() as u64),
            "decode",
        )
        .to_hex();
        let chunk_parents: Vec<_> = spans
            .iter()
            .filter_map(|e| {
                e.fields
                    .iter()
                    .find(|(k, _)| *k == "parent_id")
                    .and_then(|(_, v)| match v {
                        FieldValue::Str(s) => Some(s.clone()),
                        _ => None,
                    })
            })
            .collect();
        assert!(!chunk_parents.is_empty());
        assert!(chunk_parents.iter().all(|p| *p == root));
    }

    #[test]
    fn decode_windows_identical_across_thread_counts() {
        let trace = trace_with(300);
        let bytes = encode(&trace);
        // Baseline: window the sequentially-decoded records directly.
        let mut whole = DecodeWindows::hourly();
        for rec in &trace.records {
            whole.observe(rec);
        }
        let want = whole.finish().render_ndjson("decode");
        assert!(!want.is_empty());
        for threads in [1usize, 2, 4, 8] {
            let reg = obs::Registry::new();
            let (out, _) = read_trace_lossy_parallel_in(&bytes, threads, &reg);
            assert_eq!(out.records.len(), 300);
            let got = reg
                .windows()
                .snapshot()
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>();
            assert_eq!(got, want, "decode windows, threads={threads}");
            assert!(
                reg.snapshot()
                    .counter("netsim_decode_windows_closed_total", &[])
                    > 0,
                "closed-window counter recorded"
            );
        }
    }

    #[test]
    fn chunks_cover_body_exactly_on_line_boundaries() {
        let trace = trace_with(64);
        let bytes = encode(&trace);
        let (_, body) = split_header(&bytes);
        for parts in [1usize, 2, 3, 7, 16] {
            let chunks = chunk_on_lines(body, parts);
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, body.len(), "parts={parts}");
            assert!(chunks.len() <= parts.max(1));
            for (i, c) in chunks.iter().enumerate() {
                assert!(!c.is_empty());
                if i + 1 < chunks.len() {
                    assert_eq!(c.last(), Some(&b'\n'), "chunk {i} must end on a line");
                }
            }
        }
    }
}
