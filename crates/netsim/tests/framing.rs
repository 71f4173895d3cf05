//! Line framing under hostile read patterns.
//!
//! The streaming readers decode a line in place when it lies inside the
//! `BufReader`'s buffer and reassemble it only when it straddles a refill.
//! Which of the two happens depends on how the source hands out bytes, so
//! here a `Read` that dribbles 1…k bytes per call drives `ChunkReader` and
//! `read_trace_lossy` over an input with every framing hazard — CRLF, blank
//! lines, corrupt and non-UTF-8 lines, a record longer than the read
//! buffer, a line longer than `MAX_LINE_BYTES`, no final newline — and the
//! records, per-chunk `CodecStats` and `end_offset`s must equal both a
//! whole-buffer read and a reference that splits on `\n` by hand.

use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::codec::{
    hooks, read_trace_lossy, record_to_json, write_trace, CodecStats, MAX_LINE_BYTES,
};
use netsim::record::{TlsConnection, Trace, TraceMeta, TraceRecord};
use netsim::stream::ChunkReader;
use std::io::Read;

/// Hands out between 1 and `k` bytes per `read`, sizes from a fixed LCG.
struct Dribble<'a> {
    data: &'a [u8],
    k: usize,
    state: u64,
}

impl<'a> Dribble<'a> {
    fn new(data: &'a [u8], k: usize) -> Dribble<'a> {
        Dribble {
            data,
            k,
            state: k as u64,
        }
    }
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let want = 1 + (self.state >> 33) as usize % self.k;
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn http(i: usize, uri_len: usize) -> TraceRecord {
    TraceRecord::Http(HttpTransaction {
        ts: i as f64 * 0.5,
        client_ip: 1 + i as u32 % 5,
        server_ip: 40,
        server_port: 80,
        method: Method::Get,
        request: RequestHeaders {
            host: format!("h{i}.example"),
            uri: format!("/{}", "x".repeat(uri_len)),
            referer: i.is_multiple_of(2).then(|| "http://r.example/".into()),
            user_agent: Some("UA/1.0 (λ)".into()),
        },
        response: ResponseHeaders {
            status: 200,
            content_type: Some("text/html".into()),
            content_length: Some(100 + i as u64),
            location: None,
        },
        tcp_handshake_ms: 1.5,
        http_handshake_ms: 7.25,
    })
}

/// A trace body with every framing hazard. `final_newline` decides whether
/// the last record line is terminated.
fn hazard_input(final_newline: bool) -> Vec<u8> {
    let meta = TraceMeta {
        name: "RBN-F".into(),
        duration_secs: 60.0,
        subscribers: 5,
        start_hour: 9,
        start_weekday: 3,
    };
    let mut bytes = Vec::new();
    write_trace(
        &Trace {
            meta,
            records: Vec::new(),
        },
        &mut bytes,
    )
    .expect("header");
    let mut push = |line: &[u8], end: &[u8]| {
        bytes.extend_from_slice(line);
        bytes.extend_from_slice(end);
    };
    for i in 0..12 {
        push(record_to_json(&http(i, 20 + i)).as_bytes(), b"\n");
    }
    // CRLF-terminated records, blank and whitespace-only lines.
    push(record_to_json(&http(12, 30)).as_bytes(), b"\r\n");
    push(b"", b"\n");
    push(b"", b"\r\n");
    push(b"   \t", b"\n");
    push(record_to_json(&http(13, 30)).as_bytes(), b"\r\n");
    // Corrupt lines: not JSON, wrong schema, invalid UTF-8, an escaped
    // string (the generic path's record).
    push(b"!!! noise !!!", b"\n");
    push(b"{\"Http\":{\"ts\":\"oops\"}}", b"\n");
    push(b"\xff\xfe garbage", b"\n");
    push(
        record_to_json(&TraceRecord::Http(HttpTransaction {
            request: RequestHeaders {
                host: "q.example".into(),
                uri: "/x?q=\"quoted\"\\".into(),
                referer: None,
                user_agent: None,
            },
            ..match http(14, 1) {
                TraceRecord::Http(t) => t,
                TraceRecord::Https(_) => unreachable!(),
            }
        }))
        .as_bytes(),
        b"\n",
    );
    // A valid record several read buffers long (std's default is 8 KiB).
    push(record_to_json(&http(15, 40_000)).as_bytes(), b"\n");
    for i in 16..20 {
        push(record_to_json(&http(i, 10)).as_bytes(), b"\n");
    }
    // A line over the cap: skipped as oversize, its tail discarded.
    push(&vec![b'y'; MAX_LINE_BYTES + 10], b"\n");
    // A line of exactly the cap is not oversize (it is merely not JSON).
    push(&vec![b'z'; MAX_LINE_BYTES], b"\n");
    push(
        record_to_json(&TraceRecord::Https(TlsConnection {
            ts: 99.0,
            client_ip: 3,
            server_ip: 9,
            server_port: 443,
            bytes: 4096,
        }))
        .as_bytes(),
        b"\n",
    );
    push(
        record_to_json(&http(21, 5)).as_bytes(),
        if final_newline { b"\n" } else { &[] },
    );
    bytes
}

/// One expected chunk: records, stats delta, end offset.
type Expected = (Vec<TraceRecord>, CodecStats, u64);

/// `ChunkReader`'s contract restated without any of its code: split on
/// `\n` by hand, judge each line with the codec's per-line verdict, close a
/// chunk right after the line that completes it.
fn reference_chunks(bytes: &[u8], chunk_records: usize) -> Vec<Expected> {
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
    let mut out = Vec::new();
    let mut records = Vec::new();
    let mut stats = CodecStats::default();
    let mut offset = header_end;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let (line, consumed) = match rest.iter().position(|&b| b == b'\n') {
            Some(idx) => (&rest[..idx], idx + 1),
            None => (rest, rest.len()),
        };
        offset += consumed;
        match hooks::line_verdict(line) {
            Ok(Some(rec)) => {
                stats.records_read += 1;
                records.push(rec);
            }
            Ok(None) => stats.blank_lines += 1,
            Err("bad_json") => stats.skipped_bad_json += 1,
            Err("bad_schema") => stats.skipped_bad_schema += 1,
            Err("non_utf8") => stats.skipped_non_utf8 += 1,
            Err("oversize") => stats.skipped_oversize += 1,
            Err(other) => panic!("unknown skip reason {other}"),
        }
        if records.len() == chunk_records {
            out.push((
                std::mem::take(&mut records),
                std::mem::take(&mut stats),
                offset as u64,
            ));
        }
    }
    if !records.is_empty() || stats != CodecStats::default() {
        out.push((records, stats, offset as u64));
    }
    out
}

fn chunks_of<R: Read>(reader: ChunkReader<R>) -> Vec<Expected> {
    reader.map(|c| (c.records, c.stats, c.end_offset)).collect()
}

const DRIBBLES: [usize; 10] = [1, 2, 3, 7, 64, 500, 8191, 8192, 8193, 100_000];

#[test]
fn chunk_reader_is_indifferent_to_the_read_pattern() {
    for final_newline in [true, false] {
        let bytes = hazard_input(final_newline);
        for chunk_records in [1usize, 5, 8192] {
            let want = reference_chunks(&bytes, chunk_records);
            let total: usize = want.iter().map(|c| c.1.records_read).sum();
            assert_eq!(total, 22, "hazard input holds 22 decodable records");
            assert_eq!(want.last().expect("chunks").2, bytes.len() as u64);
            let whole = chunks_of(ChunkReader::new(bytes.as_slice(), chunk_records).expect("open"));
            assert_eq!(whole, want, "whole buffer, chunk_records={chunk_records}");
            for k in DRIBBLES {
                let reader =
                    ChunkReader::new(Dribble::new(&bytes, k), chunk_records).expect("open");
                assert_eq!(reader.meta().name, "RBN-F");
                assert_eq!(
                    chunks_of(reader),
                    want,
                    "k={k} chunk_records={chunk_records} final_newline={final_newline}"
                );
            }
        }
    }
}

#[test]
fn chunk_reader_resumes_at_every_end_offset_under_dribble() {
    let bytes = hazard_input(false);
    let want = reference_chunks(&bytes, 5);
    let meta = ChunkReader::new(bytes.as_slice(), 5)
        .expect("open")
        .meta()
        .clone();
    for (i, (_, _, end_offset)) in want.iter().enumerate() {
        let resumed = ChunkReader::resume(
            Dribble::new(&bytes[*end_offset as usize..], 7),
            meta.clone(),
            *end_offset,
            i as u64 + 1,
            5,
            &obs::Registry::new(),
        );
        assert_eq!(chunks_of(resumed), want[i + 1..], "resume after chunk {i}");
    }
}

#[test]
fn trace_reader_is_indifferent_to_the_read_pattern() {
    for final_newline in [true, false] {
        let bytes = hazard_input(final_newline);
        let reference = reference_chunks(&bytes, usize::MAX);
        let (want_records, want_stats, _) = &reference[0];
        let (whole, whole_stats) = read_trace_lossy(bytes.as_slice()).expect("read");
        assert_eq!(&whole.records, want_records);
        assert_eq!(&whole_stats, want_stats);
        assert_eq!(whole_stats.skipped_oversize, 1);
        assert_eq!(whole_stats.skipped_bad_json, 2);
        assert_eq!(whole_stats.skipped_bad_schema, 1);
        assert_eq!(whole_stats.skipped_non_utf8, 1);
        assert_eq!(whole_stats.blank_lines, 3);
        for k in DRIBBLES {
            let (trace, stats) = read_trace_lossy(Dribble::new(&bytes, k)).expect("read");
            assert_eq!(trace.meta, whole.meta, "k={k}");
            assert_eq!(&trace.records, want_records, "k={k}");
            assert_eq!(&stats, want_stats, "k={k}");
        }
    }
}

/// Header hazards: oversize, missing, and unterminated headers recover the
/// same way however the bytes arrive, and the offset still counts them.
#[test]
fn header_recovery_is_indifferent_to_the_read_pattern() {
    let record = record_to_json(&http(0, 10));
    let mut oversize = vec![b'#'; MAX_LINE_BYTES + 1];
    oversize.push(b'\n');
    oversize.extend_from_slice(record.as_bytes());
    oversize.push(b'\n');
    let unterminated = b"{\"format\":\"annoyed-users-trace\"".to_vec();
    for (what, bytes, want_records) in [
        ("oversize header", oversize, 1usize),
        ("unterminated header only", unterminated, 0),
        ("empty", Vec::new(), 0),
    ] {
        for k in [1usize, 7, 8192, 100_000] {
            let mut reader = ChunkReader::new(Dribble::new(&bytes, k), 4).expect("open");
            assert_eq!(reader.meta().name, "<recovered>", "{what} k={k}");
            let chunks: Vec<_> = reader.by_ref().collect();
            assert!(chunks[0].stats.header_recovered, "{what} k={k}");
            let records: usize = chunks.iter().map(|c| c.records.len()).sum();
            assert_eq!(records, want_records, "{what} k={k}");
            assert_eq!(reader.offset(), bytes.len() as u64, "{what} k={k}");
        }
    }
}

/// `chunk_records` reaches the reader from the command line, bounded below
/// only. The reader reserves for a chunk of plausible size and grows from
/// there; it used to ask the allocator for `chunk_records × 208` bytes
/// before reading one, and 20.8 TB aborted the process.
#[test]
fn a_huge_chunk_size_is_not_reserved_up_front() {
    let trace = Trace {
        meta: TraceMeta {
            name: "RBN-H".into(),
            duration_secs: 1.0,
            subscribers: 1,
            start_hour: 0,
            start_weekday: 0,
        },
        records: (0..3).map(|i| http(i, 10)).collect(),
    };
    let mut bytes = Vec::new();
    write_trace(&trace, &mut bytes).expect("encode");
    let mut reader = ChunkReader::new(bytes.as_slice(), 100_000_000_000).expect("open");
    let chunk = reader.next_chunk().expect("one chunk");
    assert_eq!(chunk.records, trace.records);
    assert_eq!(chunk.end_offset, bytes.len() as u64);
    assert!(reader.next_chunk().is_none());
}
