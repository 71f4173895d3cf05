//! Incremental trace streaming: chunk-by-chunk decode and record-by-record
//! encode, with byte-offset accounting for checkpoint/resume.
//!
//! [`ChunkReader`] is the trace reader. It decodes without materializing
//! the trace, batches records (the unit the streaming pipeline sends over
//! its bounded channels) and tracks how many input bytes each chunk
//! consumed (the unit a checkpoint manifest must store to resume a killed
//! run), over one line loop (`codec::LossyLines`: header-recovery policy,
//! line framer, per-line keep/skip verdict and tally), so any chunk size
//! yields byte-for-byte the same records and [`CodecStats`] totals as
//! [`crate::codec::read_trace_lossy`], its one chunk. [`ChunkSource`] is
//! the same chunking with each record lent as a [`RecordView`] of the framed
//! line (the stream router's way in); `next_chunk` is the owned adapter.
//!
//! [`TraceWriter`] is the encode-side dual: it emits the same bytes as
//! [`crate::codec::write_trace`] one record at a time, so the generator
//! can persist a trace while streaming it without a full-trace `Vec`.

use crate::codec::{self, CodecError, CodecStats, Kept, LossyLines, FORMAT_NAME, FORMAT_VERSION};
use crate::json;
use crate::record::{RecordView, TraceMeta, TraceRecord};
use std::io::{BufWriter, Read, Write};

/// One decoded batch of records plus its accounting.
#[derive(Debug)]
pub struct StreamChunk {
    /// 0-based chunk sequence number.
    pub seq: u64,
    /// Records decoded from this span of the stream, in stream order.
    pub records: Vec<TraceRecord>,
    /// Skip/keep accounting for this chunk only (a delta; the header
    /// recovery flag, if any, lands on chunk 0).
    pub stats: CodecStats,
    /// Byte offset just past the last line this chunk consumed — a safe
    /// resume point for [`ChunkReader::resume`].
    pub end_offset: u64,
}

impl StreamChunk {
    /// Records that never were bytes: all read, none skipped, no resume offset.
    pub fn in_memory(seq: u64, records: Vec<TraceRecord>) -> StreamChunk {
        StreamChunk {
            seq,
            stats: CodecStats {
                records_read: records.len(),
                ..CodecStats::default()
            },
            end_offset: 0,
            records,
        }
    }
}

/// The most records a chunk-sized buffer is reserved for up front (the
/// command line bounds `chunk_records` below only); a larger chunk grows.
pub const MAX_CHUNK_RESERVE: usize = 1 << 16;

/// A chunk's accounting: its `stats` and its `end_offset`.
pub type ChunkEnd = (CodecStats, u64);

/// Where the stream router gets its records, each lent as a view for one
/// call: the file reader ([`ChunkReader`]) or in-memory chunks ([`OwnedChunks`]).
pub trait ChunkSource {
    /// Lend the next chunk's records to `each` in stream order; `None` at end of stream.
    fn next_chunk_with(&mut self, each: impl FnMut(RecordView<'_>)) -> Option<ChunkEnd>;
}

/// An iterator of in-memory chunks, its owned records viewed in place.
pub struct OwnedChunks<I>(pub I);

impl<I: Iterator<Item = StreamChunk>> ChunkSource for OwnedChunks<I> {
    fn next_chunk_with(&mut self, mut each: impl FnMut(RecordView<'_>)) -> Option<ChunkEnd> {
        let chunk = self.0.next()?;
        chunk.records.iter().map(RecordView::of).for_each(&mut each);
        Some((chunk.stats, chunk.end_offset))
    }
}

/// A loss-tolerant chunked trace reader with byte-offset accounting.
///
/// Corrupt lines are skipped and tallied, a damaged header is replaced with
/// placeholder metadata, and records arrive in batches of up to
/// `chunk_records`, each carrying the byte offset of its end so a
/// checkpoint can name an exact resume point. Throughput and resync metrics
/// (`netsim_lossy_*`, `netsim_resync_total{reason=...}`) go to the global
/// [`obs`] registry or the one passed to [`ChunkReader::with_registry`].
pub struct ChunkReader<R: Read> {
    lines: LossyLines<R>,
    meta: TraceMeta,
    chunk_records: usize,
    seq: u64,
    /// Header-recovery flag awaiting the first chunk's stats.
    pending_header_recovered: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Open a trace stream from its start (header line included); only an
    /// I/O error on the header line is fatal.
    pub fn new(source: R, chunk_records: usize) -> Result<ChunkReader<R>, CodecError> {
        ChunkReader::with_registry(source, chunk_records, obs::global())
    }

    /// Like [`ChunkReader::new`], recording metrics into `registry`.
    pub fn with_registry(
        source: R,
        chunk_records: usize,
        registry: &obs::Registry,
    ) -> Result<ChunkReader<R>, CodecError> {
        let (lines, meta, header_recovered) = LossyLines::open(source, registry)?;
        Ok(ChunkReader {
            lines,
            meta,
            chunk_records: chunk_records.max(1),
            seq: 0,
            pending_header_recovered: header_recovered,
        })
    }

    /// Resume mid-stream: `source` must already be positioned at `offset`
    /// (a prior chunk's `end_offset`), with `meta` and `seq` restored from
    /// the checkpoint manifest. No header line is expected or consumed.
    pub fn resume(
        source: R,
        meta: TraceMeta,
        offset: u64,
        seq: u64,
        chunk_records: usize,
        registry: &obs::Registry,
    ) -> ChunkReader<R> {
        ChunkReader {
            lines: LossyLines::resume(source, offset, registry),
            meta,
            chunk_records: chunk_records.max(1),
            seq,
            pending_header_recovered: false,
        }
    }

    /// Trace metadata from the header (or the recovery placeholder, or
    /// the checkpoint on resume).
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Byte offset just past the last consumed line.
    pub fn offset(&self) -> u64 {
        self.lines.offset
    }

    /// Decode the next chunk, or `None` at end of stream. Every chunk
    /// holds at least one record except when trailing corrupt/blank lines
    /// leave a final chunk carrying only their accounting.
    pub fn next_chunk(&mut self) -> Option<StreamChunk> {
        let seq = self.seq;
        let mut records = Vec::with_capacity(self.chunk_records.min(MAX_CHUNK_RESERVE));
        let (stats, end_offset) = self.chunk_of(|kept| records.push(kept.into_record()))?;
        Some(StreamChunk {
            seq,
            records,
            stats,
            end_offset,
        })
    }

    /// One chunk of the line loop: up to `chunk_records` kept records go to
    /// `each` as they come off their lines.
    #[inline]
    fn chunk_of(&mut self, mut each: impl FnMut(Kept<'_>)) -> Option<ChunkEnd> {
        let mut stats = CodecStats {
            header_recovered: std::mem::take(&mut self.pending_header_recovered),
            ..CodecStats::default()
        };
        while stats.records_read < self.chunk_records
            && self.lines.next_kept(&mut stats, &mut each).is_some()
        {}
        // A chunk without a record means the loop hit end of input; one
        // that also tallied nothing has nothing to report.
        if stats == CodecStats::default() {
            return None;
        }
        self.seq += 1;
        Some((stats, self.lines.offset))
    }
}

impl<R: Read> ChunkSource for ChunkReader<R> {
    fn next_chunk_with(&mut self, mut each: impl FnMut(RecordView<'_>)) -> Option<ChunkEnd> {
        self.chunk_of(|kept| each(kept.view()))
    }
}

impl<R: Read> Iterator for ChunkReader<R> {
    type Item = StreamChunk;
    fn next(&mut self) -> Option<StreamChunk> {
        self.next_chunk()
    }
}

/// Incremental trace writer — the streaming dual of
/// [`crate::codec::write_trace`], producing byte-identical output.
pub struct TraceWriter<W: Write> {
    sink: BufWriter<W>,
    line: String,
    records: u64,
    bytes: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a trace: writes the header line immediately.
    pub fn new(sink: W, meta: &TraceMeta) -> Result<TraceWriter<W>, CodecError> {
        let mut w = BufWriter::new(sink);
        let mut line = String::with_capacity(512);
        line.push_str("{\"format\":");
        json::write_str(&mut line, FORMAT_NAME);
        use std::fmt::Write as _;
        let _ = write!(line, ",\"version\":{FORMAT_VERSION},\"meta\":");
        codec::encode_meta(&mut line, meta);
        line.push_str("}\n");
        w.write_all(line.as_bytes())?;
        let bytes = line.len() as u64;
        Ok(TraceWriter {
            sink: w,
            line,
            records: 0,
            bytes,
        })
    }

    /// Append one record line.
    pub fn write_record(&mut self, r: &TraceRecord) -> Result<(), CodecError> {
        self.line.clear();
        codec::encode_record(&mut self.line, r);
        self.line.push('\n');
        self.sink.write_all(self.line.as_bytes())?;
        self.records += 1;
        self.bytes += self.line.len() as u64;
        Ok(())
    }

    /// Flush and finish. Returns `(records, bytes)` written.
    pub fn finish(mut self) -> Result<(u64, u64), CodecError> {
        self.sink.flush()?;
        Ok((self.records, self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_trace_lossy, write_trace};
    use crate::record::{TlsConnection, Trace};
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "RBN-S".into(),
            duration_secs: 90.0,
            subscribers: 4,
            start_hour: 15,
            start_weekday: 2,
        }
    }

    fn records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                if i % 5 == 4 {
                    TraceRecord::Https(TlsConnection {
                        ts: i as f64,
                        client_ip: 7,
                        server_ip: 9,
                        server_port: 443,
                        bytes: 4000 + i as u64,
                    })
                } else {
                    TraceRecord::Http(HttpTransaction {
                        ts: i as f64,
                        client_ip: 1 + (i as u32 % 3),
                        server_ip: 50,
                        server_port: 80,
                        method: Method::Get,
                        request: RequestHeaders {
                            host: format!("h{i}.example"),
                            uri: format!("/p/{i}?q=\"x\""),
                            referer: (i % 2 == 0).then(|| "http://r.example/".into()),
                            user_agent: Some("UA/1.0".into()),
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
            })
            .collect()
    }

    fn encoded(n: usize) -> Vec<u8> {
        let trace = Trace {
            meta: meta(),
            records: records(n),
        };
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        buf
    }

    #[test]
    fn chunked_concat_equals_lossy_read() {
        let buf = encoded(23);
        let (whole, whole_stats) = read_trace_lossy(buf.as_slice()).unwrap();
        let mut reader = ChunkReader::new(buf.as_slice(), 7).unwrap();
        assert_eq!(reader.meta(), &whole.meta);
        let mut all = Vec::new();
        let mut merged = CodecStats::default();
        for chunk in reader.by_ref() {
            assert!(chunk.records.len() <= 7);
            merged.merge(&chunk.stats);
            all.extend(chunk.records);
        }
        assert_eq!(all, whole.records);
        assert_eq!(merged, whole_stats);
        assert_eq!(reader.offset(), buf.len() as u64);
    }

    #[test]
    fn chunk_offsets_are_resume_points() {
        let buf = encoded(20);
        let mut reader = ChunkReader::new(buf.as_slice(), 6).unwrap();
        let first = reader.next_chunk().unwrap();
        assert_eq!(first.seq, 0);
        let rest_direct: Vec<TraceRecord> = reader.flat_map(|c| c.records).collect();

        // Re-open at first.end_offset and confirm the same remainder.
        let resumed = ChunkReader::resume(
            &buf[first.end_offset as usize..],
            meta(),
            first.end_offset,
            first.seq + 1,
            6,
            &obs::Registry::new(),
        );
        let mut seqs = Vec::new();
        let mut rest_resumed = Vec::new();
        for c in resumed {
            seqs.push(c.seq);
            rest_resumed.extend(c.records);
        }
        assert_eq!(rest_resumed, rest_direct);
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn corrupt_lines_and_header_counted_like_lossy_reader() {
        let mut buf = encoded(10);
        // Destroy the header and inject garbage mid-stream.
        let nl = buf.iter().position(|&b| b == b'\n').unwrap();
        for b in &mut buf[..nl] {
            *b = b'#';
        }
        buf.extend_from_slice(b"not json\n\xff\xfe\n\n");
        let (whole, whole_stats) = read_trace_lossy(buf.as_slice()).unwrap();
        let mut reader = ChunkReader::new(buf.as_slice(), 4).unwrap();
        assert_eq!(reader.meta().name, "<recovered>");
        let mut merged = CodecStats::default();
        let mut all = Vec::new();
        let mut first = true;
        for chunk in reader.by_ref() {
            assert_eq!(
                chunk.stats.header_recovered, first,
                "recovery flag rides on chunk 0 only"
            );
            first = false;
            merged.merge(&chunk.stats);
            all.extend(chunk.records);
        }
        assert_eq!(all, whole.records);
        assert_eq!(merged, whole_stats);
    }

    #[test]
    fn empty_stream_yields_one_recovery_chunk() {
        let mut reader = ChunkReader::new(std::io::empty(), 8).unwrap();
        let chunk = reader.next_chunk().unwrap();
        assert!(chunk.records.is_empty());
        assert!(chunk.stats.header_recovered);
        assert!(reader.next_chunk().is_none());
    }

    #[test]
    fn trace_writer_matches_one_shot_writer() {
        let recs = records(15);
        let trace = Trace {
            meta: meta(),
            records: recs.clone(),
        };
        let mut whole = Vec::new();
        write_trace(&trace, &mut whole).unwrap();

        let mut streamed = Vec::new();
        let mut w = TraceWriter::new(&mut streamed, &meta()).unwrap();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let (n, bytes) = w.finish().unwrap();
        assert_eq!(n, 15);
        assert_eq!(bytes, streamed.len() as u64);
        assert_eq!(streamed, whole);
    }
}
