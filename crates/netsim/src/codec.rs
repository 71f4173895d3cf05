//! Trace persistence: a versioned newline-delimited JSON format.
//!
//! The first line is a header object (`{"format":"annoyed-users-trace",
//! "version":1, "meta":{...}}`); each subsequent line is one
//! [`TraceRecord`]. NDJSON keeps the reader streaming-friendly — traces can
//! be bigger than memory on the writing side — while staying debuggable
//! with standard tools.
//!
//! There is one reader, and it is lossy: NDJSON's per-line framing means a
//! corrupt record only poisons its own line, so the reader resyncs at the
//! next newline, counts what it skipped (and why) in [`CodecStats`], and
//! keeps going. This models the reality of the paper's ISP vantage point,
//! where capture loss and truncation are routine and a monitoring pipeline
//! must degrade rather than crash. [`crate::stream::ChunkReader`] is that
//! reader; [`read_trace_lossy`] collects one chunk of it that no record
//! count fills.
//!
//! The reader decodes a record line at one point, `decode_text`: first the
//! schema-directed scanner (`scan::scan_view`), which walks the exact
//! bytes [`record_to_json`] writes and yields a [`RecordView`] whose
//! strings are slices of the line, and —
//! whenever the scanner declines, for whatever reason — the generic
//! `json::parse` + `decode_record` pair. The scanner never rejects a line,
//! it only declines it, so the generic pair stays the single authority on
//! bad-JSON versus bad-schema, and the verdict on any line is the one the
//! generic pair alone would give (`tests/scan_differential.rs` holds the
//! two to each other). The line loop is `LossyLines`: `scan::LineFramer`
//! hands out each line in place from the read buffer unless it straddles a
//! refill, `decode_line_lossy` gives the verdict, one tally updates
//! [`CodecStats`] and the metrics, and a kept record goes to the caller as
//! it came off the line (`Kept`).

use crate::json::{self, DecodeError, Value};
use crate::record::{RecordView, Trace, TraceMeta, TraceRecord};
use crate::scan::{scan_view, LineFramer};
use crate::stream::{ChunkReader, TraceWriter};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::{HttpTransaction, Method};
use std::io::{self, Read, Write};

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Format magic string.
pub(crate) const FORMAT_NAME: &str = "annoyed-users-trace";
/// Longest record line the lossy reader will buffer. Real records are a
/// few hundred bytes; anything bigger is corruption (e.g. a lost newline
/// gluing many records together) and is skipped without unbounded memory.
#[doc(hidden)]
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Errors from reading or writing a trace stream. The reader recovers
/// from every bad line and header, so only I/O can fail.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn encode_meta(out: &mut String, m: &TraceMeta) {
    out.push_str("{\"name\":");
    json::write_str(out, &m.name);
    out.push_str(",\"duration_secs\":");
    json::write_f64(out, m.duration_secs);
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ",\"subscribers\":{},\"start_hour\":{},\"start_weekday\":{}}}",
        m.subscribers, m.start_hour, m.start_weekday
    );
}

pub(crate) fn encode_record(out: &mut String, r: &TraceRecord) {
    use std::fmt::Write as _;
    match r {
        TraceRecord::Http(t) => {
            out.push_str("{\"Http\":{\"ts\":");
            json::write_f64(out, t.ts);
            let _ = write!(
                out,
                ",\"client_ip\":{},\"server_ip\":{},\"server_port\":{},\"method\":\"{:?}\",\"request\":{{\"host\":",
                t.client_ip, t.server_ip, t.server_port, t.method
            );
            json::write_str(out, &t.request.host);
            out.push_str(",\"uri\":");
            json::write_str(out, &t.request.uri);
            out.push_str(",\"referer\":");
            json::write_opt_str(out, t.request.referer.as_deref());
            out.push_str(",\"user_agent\":");
            json::write_opt_str(out, t.request.user_agent.as_deref());
            let _ = write!(out, "}},\"response\":{{\"status\":{}", t.response.status);
            out.push_str(",\"content_type\":");
            json::write_opt_str(out, t.response.content_type.as_deref());
            out.push_str(",\"content_length\":");
            match t.response.content_length {
                Some(n) => {
                    let _ = write!(out, "{n}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"location\":");
            json::write_opt_str(out, t.response.location.as_deref());
            out.push_str("},\"tcp_handshake_ms\":");
            json::write_f64(out, t.tcp_handshake_ms);
            out.push_str(",\"http_handshake_ms\":");
            json::write_f64(out, t.http_handshake_ms);
            out.push_str("}}");
        }
        TraceRecord::Https(t) => {
            out.push_str("{\"Https\":{\"ts\":");
            json::write_f64(out, t.ts);
            let _ = write!(
                out,
                ",\"client_ip\":{},\"server_ip\":{},\"server_port\":{},\"bytes\":{}}}}}",
                t.client_ip, t.server_ip, t.server_port, t.bytes
            );
        }
    }
}

/// Encode one record as its NDJSON line (newline excluded) — the exact
/// bytes [`write_trace`] would emit for it. The quarantine sidecar uses
/// this so quarantined lines stay replayable through any trace reader.
pub fn record_to_json(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(256);
    encode_record(&mut out, r);
    out
}

/// Write a trace to any sink: the header, then every record through
/// [`TraceWriter`]; the `netsim_codec{op=write}` span times both.
pub fn write_trace<W: Write>(trace: &Trace, sink: W) -> Result<(), CodecError> {
    let _span = obs::global().span_with("netsim_codec", &[("op", "write")]);
    let mut writer = TraceWriter::new(sink, &trace.meta)?;
    for r in &trace.records {
        writer.write_record(r)?;
    }
    writer.finish()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_meta(v: &Value<'_>) -> Result<TraceMeta, DecodeError> {
    Ok(TraceMeta {
        name: v.field("name")?,
        duration_secs: v.field("duration_secs")?,
        subscribers: v.field("subscribers")?,
        start_hour: v.field("start_hour")?,
        start_weekday: v.field("start_weekday")?,
    })
}

fn decode_method(v: &Value<'_>) -> Result<Method, DecodeError> {
    match v.as_str() {
        Some("Get") => Ok(Method::Get),
        Some("Post") => Ok(Method::Post),
        Some("Head") => Ok(Method::Head),
        other => Err(DecodeError::new(format!("unknown method {other:?}"))),
    }
}

fn decode_http(v: &Value<'_>) -> Result<HttpTransaction, DecodeError> {
    // Optional header fields: absent or `null` is `None`, any other
    // non-string is refused.
    let request = |r: &Value<'_>| {
        Ok(RequestHeaders {
            host: r.field("host")?,
            uri: r.field("uri")?,
            referer: r.opt_field("referer")?,
            user_agent: r.opt_field("user_agent")?,
        })
    };
    let response = |r: &Value<'_>| {
        Ok(ResponseHeaders {
            status: r.field("status")?,
            content_type: r.opt_field("content_type")?,
            content_length: r.opt_field("content_length")?,
            location: r.opt_field("location")?,
        })
    };
    Ok(HttpTransaction {
        ts: v.field("ts")?,
        client_ip: v.field("client_ip")?,
        server_ip: v.field("server_ip")?,
        server_port: v.field("server_port")?,
        method: v.field_with("method", decode_method)?,
        request: v.field_with("request", request)?,
        response: v.field_with("response", response)?,
        tcp_handshake_ms: v.field("tcp_handshake_ms")?,
        http_handshake_ms: v.field("http_handshake_ms")?,
    })
}

fn decode_tls(v: &Value<'_>) -> Result<crate::record::TlsConnection, DecodeError> {
    Ok(crate::record::TlsConnection {
        ts: v.field("ts")?,
        client_ip: v.field("client_ip")?,
        server_ip: v.field("server_ip")?,
        server_port: v.field("server_port")?,
        bytes: v.field("bytes")?,
    })
}

fn decode_record(v: &Value<'_>) -> Result<TraceRecord, DecodeError> {
    match v {
        Value::Object(fields) if fields.len() == 1 => match fields[0].0.as_ref() {
            "Http" => Ok(TraceRecord::Http(decode_http(&fields[0].1)?)),
            "Https" => Ok(TraceRecord::Https(decode_tls(&fields[0].1)?)),
            other => Err(DecodeError::new(format!(
                "unknown record variant {other:?}"
            ))),
        },
        _ => Err(DecodeError::new(
            "record must be an object with exactly one variant key",
        )),
    }
}

/// Why a trimmed, non-empty line is not a record.
enum LineError {
    /// `json::parse` refused it.
    Json,
    /// It parsed, but `decode_record` refused the tree.
    Schema,
}

/// The generic decode of one trimmed, non-empty line: the full `Value`
/// tree, then the schema walk. The authority on every verdict, and the
/// oracle the scanner is tested against.
fn decode_text_generic(text: &str) -> Result<TraceRecord, LineError> {
    let value = json::parse(text).map_err(|_| LineError::Json)?;
    decode_record(&value).map_err(|_| LineError::Schema)
}

/// A decoded record as it came off its line: a view of the line when the
/// scanner took it, the generic pair's owned record otherwise. Whichever
/// form the caller wants costs one copy of each string at most.
#[allow(clippy::large_enum_variant)] // consumed on the spot, like `LossyLine`
pub(crate) enum Kept<'a> {
    Scanned(RecordView<'a>),
    Decoded(TraceRecord),
}

impl Kept<'_> {
    pub(crate) fn view(&self) -> RecordView<'_> {
        match self {
            Kept::Scanned(view) => view.clone(),
            Kept::Decoded(rec) => RecordView::of(rec),
        }
    }

    pub(crate) fn into_record(self) -> TraceRecord {
        match self {
            Kept::Scanned(view) => view.to_record(),
            Kept::Decoded(rec) => rec,
        }
    }
}

/// Decode one trimmed, non-empty line — the one point the reader goes
/// through. Lines in the writer's own
/// spelling are decoded by [`scan_view`] without building a tree; it
/// declines everything else, and then the generic path decides.
fn decode_text(text: &str) -> Result<Kept<'_>, LineError> {
    match scan_view(text) {
        Some(view) => Ok(Kept::Scanned(view)),
        None => decode_text_generic(text).map(Kept::Decoded),
    }
}

/// The metadata of a header line, or `None` when it is not this format's
/// header (malformed, another format, another version).
pub(crate) fn decode_header(line: &str) -> Option<TraceMeta> {
    let v = json::parse(line.trim()).ok()?;
    let format: String = v.field("format").ok()?;
    let version: u32 = v.field("version").ok()?;
    if format != FORMAT_NAME || version != FORMAT_VERSION {
        return None;
    }
    v.field_with("meta", decode_meta).ok()
}

// ---------------------------------------------------------------------------
// Lossy reading
// ---------------------------------------------------------------------------

/// Per-reason accounting of what a lossy read kept and dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Records successfully decoded.
    pub records_read: usize,
    /// Blank lines (tolerated, not counted as skips).
    pub blank_lines: usize,
    /// Lines that were not valid JSON.
    pub skipped_bad_json: usize,
    /// Lines that parsed as JSON but did not decode as a trace record.
    pub skipped_bad_schema: usize,
    /// Lines containing invalid UTF-8.
    pub skipped_non_utf8: usize,
    /// Lines longer than [`MAX_LINE_BYTES`].
    pub skipped_oversize: usize,
    /// I/O errors encountered mid-stream (reading stops at the first).
    pub io_errors: usize,
    /// True when the header line was missing or corrupt and default
    /// metadata was substituted.
    pub header_recovered: bool,
}

impl CodecStats {
    /// Total record lines dropped, across all skip reasons.
    pub fn total_skipped(&self) -> usize {
        self.skipped_bad_json
            + self.skipped_bad_schema
            + self.skipped_non_utf8
            + self.skipped_oversize
    }

    /// Total non-blank record lines seen (kept + skipped).
    #[cfg(test)]
    pub(crate) fn lines_seen(&self) -> usize {
        self.records_read + self.total_skipped()
    }

    /// Fold another reader's accounting into this one. Counters add;
    /// `header_recovered` ORs (the header exists once per stream, so at
    /// most one of the merged readers can have recovered it). The
    /// per-chunk deltas of [`crate::stream::ChunkReader`] merged in any
    /// grouping equal the stats of one chunk over the whole stream.
    pub fn merge(&mut self, other: &CodecStats) {
        self.records_read += other.records_read;
        self.blank_lines += other.blank_lines;
        self.skipped_bad_json += other.skipped_bad_json;
        self.skipped_bad_schema += other.skipped_bad_schema;
        self.skipped_non_utf8 += other.skipped_non_utf8;
        self.skipped_oversize += other.skipped_oversize;
        self.io_errors += other.io_errors;
        self.header_recovered |= other.header_recovered;
    }
}

impl std::fmt::Display for CodecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read {} / skipped {} (json {}, schema {}, utf8 {}, oversize {})",
            self.records_read,
            self.total_skipped(),
            self.skipped_bad_json,
            self.skipped_bad_schema,
            self.skipped_non_utf8,
            self.skipped_oversize
        )?;
        if self.header_recovered {
            write!(f, ", header recovered")?;
        }
        if self.io_errors > 0 {
            write!(f, ", {} I/O errors", self.io_errors)?;
        }
        Ok(())
    }
}

/// What the reader decided about one raw line. One function makes this
/// call for every line, so identical bytes always produce the identical
/// keep/skip verdict.
//
// The Record variant dominates the enum's size, but every value is
// consumed on the spot (moved into the output Vec or dropped), so
// boxing it would trade one stack move per line for one heap
// allocation per record on the hottest path in the codec.
#[allow(clippy::large_enum_variant)]
enum LossyLine<'a> {
    /// Whitespace-only line; tolerated, tallied separately.
    Blank,
    /// A decodable record.
    Record(Kept<'a>),
    /// Not valid JSON.
    BadJson,
    /// Valid JSON, wrong shape.
    BadSchema,
    /// Invalid UTF-8.
    NonUtf8,
    /// Longer than [`MAX_LINE_BYTES`].
    Oversize,
}

/// Decide what to do with one line (newline excluded). `overflow` marks a
/// line the framer found longer than [`MAX_LINE_BYTES`].
fn decode_line_lossy(buf: &[u8], overflow: bool) -> LossyLine<'_> {
    classify_line(buf, overflow, decode_text)
}

fn classify_line<'a>(
    buf: &'a [u8],
    overflow: bool,
    decode: impl Fn(&'a str) -> Result<Kept<'a>, LineError>,
) -> LossyLine<'a> {
    if overflow {
        return LossyLine::Oversize;
    }
    let Ok(text) = std::str::from_utf8(buf) else {
        return LossyLine::NonUtf8;
    };
    let text = text.trim();
    if text.is_empty() {
        return LossyLine::Blank;
    }
    match decode(text) {
        Ok(rec) => LossyLine::Record(rec),
        Err(LineError::Json) => LossyLine::BadJson,
        Err(LineError::Schema) => LossyLine::BadSchema,
    }
}

/// Hooks for `tests/scan_differential.rs`; not part of the API. A verdict
/// is `Ok(Some(record))`, `Ok(None)` for a blank line, or `Err` with the
/// skip reason as `netsim_resync_total` labels it.
#[doc(hidden)]
pub mod hooks {
    use super::*;

    fn verdict(line: LossyLine<'_>) -> Result<Option<TraceRecord>, &'static str> {
        match line {
            LossyLine::Record(rec) => Ok(Some(rec.into_record())),
            LossyLine::Blank => Ok(None),
            LossyLine::BadJson => Err("bad_json"),
            LossyLine::BadSchema => Err("bad_schema"),
            LossyLine::NonUtf8 => Err("non_utf8"),
            LossyLine::Oversize => Err("oversize"),
        }
    }

    /// What the readers decide about `line` (scanner, then generic path).
    pub fn line_verdict(line: &[u8]) -> Result<Option<TraceRecord>, &'static str> {
        verdict(decode_line_lossy(line, line.len() > MAX_LINE_BYTES))
    }

    /// What the generic path alone decides about `line`.
    pub fn line_verdict_generic(line: &[u8]) -> Result<Option<TraceRecord>, &'static str> {
        verdict(classify_line(line, line.len() > MAX_LINE_BYTES, |text| {
            decode_text_generic(text).map(Kept::Decoded)
        }))
    }

    /// The scanner alone, its borrowed view of `text` as the stream router
    /// gets it: `None` means it declined the line.
    pub fn scan_view(text: &str) -> Option<RecordView<'_>> {
        crate::scan::scan_view(text)
    }
}

/// Metric handles for the reader, bound once at construction so the
/// per-record hot path is a relaxed atomic add, never a registry lookup.
#[derive(Debug, Clone)]
struct ReaderMetrics {
    records: obs::Counter,
    bytes: obs::Counter,
    resync_bad_json: obs::Counter,
    resync_bad_schema: obs::Counter,
    resync_non_utf8: obs::Counter,
    resync_oversize: obs::Counter,
}

impl ReaderMetrics {
    fn bind(registry: &obs::Registry) -> ReaderMetrics {
        let resync = |reason| registry.counter_with("netsim_resync_total", &[("reason", reason)]);
        ReaderMetrics {
            records: registry.counter("netsim_lossy_records_read_total"),
            bytes: registry.counter("netsim_lossy_bytes_read_total"),
            resync_bad_json: resync("bad_json"),
            resync_bad_schema: resync("bad_schema"),
            resync_non_utf8: resync("non_utf8"),
            resync_oversize: resync("oversize"),
        }
    }
}

/// The line loop of [`crate::stream::ChunkReader`]: frame a line, decide
/// its verdict, tally it into the caller's [`CodecStats`] and the
/// `netsim_lossy_*` / `netsim_resync_total` metrics, until a record turns
/// up.
pub(crate) struct LossyLines<R: Read> {
    framer: LineFramer<R>,
    metrics: ReaderMetrics,
    /// Input bytes consumed so far — past the last framed line, so a safe
    /// resume point.
    pub(crate) offset: u64,
    done: bool,
}

impl<R: Read> LossyLines<R> {
    /// Open at the start of a stream and consume the header line under the
    /// lossy policy. Returns the metadata and whether it is the recovery
    /// placeholder; only an I/O error on the header line is fatal.
    pub(crate) fn open(
        source: R,
        registry: &obs::Registry,
    ) -> io::Result<(LossyLines<R>, TraceMeta, bool)> {
        let mut lines = LossyLines::resume(source, 0, registry);
        let (meta, header_recovered, consumed) = lines.framer.read_header_lossy()?;
        lines.offset = consumed;
        Ok((lines, meta, header_recovered))
    }

    /// Continue mid-stream: `source` is positioned at `offset`, a record
    /// boundary; no header line is expected.
    pub(crate) fn resume(source: R, offset: u64, registry: &obs::Registry) -> LossyLines<R> {
        LossyLines {
            framer: LineFramer::new(source),
            metrics: ReaderMetrics::bind(registry),
            offset,
            done: false,
        }
    }

    /// Hand the next decodable record to `take`, tallying every line on
    /// the way; the record may borrow the framed line, so it cannot outlive
    /// the call. `None` at end of input or at the first I/O error (counted
    /// in `stats`).
    #[inline]
    pub(crate) fn next_kept<T>(
        &mut self,
        stats: &mut CodecStats,
        take: impl FnOnce(Kept<'_>) -> T,
    ) -> Option<T> {
        while !self.done {
            let line = match self.framer.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(_) => {
                    stats.io_errors += 1;
                    self.done = true;
                    break;
                }
            };
            self.offset += line.consumed;
            match decode_line_lossy(line.bytes, line.overflow) {
                LossyLine::Record(rec) => {
                    stats.records_read += 1;
                    self.metrics.records.inc();
                    self.metrics.bytes.add(line.consumed);
                    return Some(take(rec));
                }
                LossyLine::Blank => stats.blank_lines += 1,
                LossyLine::BadJson => {
                    stats.skipped_bad_json += 1;
                    self.metrics.resync_bad_json.inc();
                }
                LossyLine::BadSchema => {
                    stats.skipped_bad_schema += 1;
                    self.metrics.resync_bad_schema.inc();
                }
                LossyLine::NonUtf8 => {
                    stats.skipped_non_utf8 += 1;
                    self.metrics.resync_non_utf8.inc();
                }
                LossyLine::Oversize => {
                    stats.skipped_oversize += 1;
                    self.metrics.resync_oversize.inc();
                }
            }
        }
        None
    }
}

/// The counter series a decode window carries, in cell order: the one place
/// their names are spelled.
pub const DECODE_COUNTERS: [&str; 4] = ["records", "http", "https", "bytes"];

/// Window one decoded record by its trace timestamp into a series of
/// [`DECODE_COUNTERS`]: its record, its protocol and its bytes.
pub fn observe_decode(windows: &mut obs::WindowSeries, rec: &RecordView<'_>) {
    let (ts, protocol, bytes) = match rec {
        RecordView::Http(tx) => (tx.ts, 1, tx.content_length.unwrap_or(0)),
        RecordView::Https(conn) => (conn.ts, 2, conn.bytes),
    };
    let mut w = windows.at(ts);
    w.count(0, 1);
    w.count(protocol, 1);
    w.count(3, bytes);
}

pub(crate) fn recovered_meta() -> TraceMeta {
    TraceMeta {
        name: "<recovered>".to_string(),
        duration_secs: 0.0,
        subscribers: 0,
        start_hour: 0,
        start_weekday: 0,
    }
}

/// Read a trace leniently, collecting every decodable record plus the
/// skip accounting: the one chunk of a [`ChunkReader`] whose chunk size no
/// record count reaches. A corrupt or missing header is recovered with
/// placeholder metadata (flagged in the stats); only an I/O failure on the
/// header line returns `Err`. Metrics go to the global [`obs`] registry.
pub fn read_trace_lossy<R: Read>(source: R) -> Result<(Trace, CodecStats), CodecError> {
    let mut reader = ChunkReader::new(source, usize::MAX)?;
    let chunk = reader.next_chunk();
    let (records, stats) = chunk.map_or_else(Default::default, |c| (c.records, c.stats));
    let meta = reader.meta().clone();
    Ok((Trace { meta, records }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TlsConnection;

    fn sample_trace() -> Trace {
        Trace {
            meta: TraceMeta {
                name: "RBN-T".into(),
                duration_secs: 60.0,
                subscribers: 3,
                start_hour: 15,
                start_weekday: 1,
            },
            records: vec![TraceRecord::Https(TlsConnection {
                ts: 1.5,
                client_ip: 7,
                server_ip: 9,
                server_port: 443,
                bytes: 1234,
            })],
        }
    }

    fn http_trace(n: usize) -> Trace {
        let mut t = sample_trace();
        t.records = (0..n)
            .map(|i| {
                TraceRecord::Http(HttpTransaction {
                    ts: i as f64,
                    client_ip: 1,
                    server_ip: 2,
                    server_port: 80,
                    method: Method::Get,
                    request: RequestHeaders {
                        host: format!("host{i}.example"),
                        uri: "/x?q=\"quoted\"".to_string(),
                        referer: (i % 2 == 0).then(|| "http://ref.example/".to_string()),
                        user_agent: Some("UA/1.0 (λ)".to_string()),
                    },
                    response: ResponseHeaders {
                        status: 200,
                        content_type: Some("text/html".to_string()),
                        content_length: Some(1000 + i as u64),
                        location: None,
                    },
                    tcp_handshake_ms: 12.5,
                    http_handshake_ms: 80.25,
                })
            })
            .collect();
        t
    }

    #[test]
    fn lossy_round_trips_what_the_writer_wrote() {
        for trace in [sample_trace(), http_trace(20)] {
            let mut buf = Vec::new();
            write_trace(&trace, &mut buf).unwrap();
            buf.extend_from_slice(b"\n\n");
            let (back, stats) = read_trace_lossy(buf.as_slice()).unwrap();
            assert_eq!(back, trace);
            assert_eq!(stats.records_read, trace.records.len());
            assert_eq!(stats.blank_lines, 2);
            assert_eq!(stats.total_skipped(), 0);
            assert!(!stats.header_recovered);
        }
    }

    #[test]
    fn lossy_resyncs_after_corrupt_lines() {
        let trace = http_trace(10);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Corrupt record lines 2 and 7 (indexes 2 and 7 after the header)
        // three different ways, and add one invalid-UTF-8 line.
        lines[2] = lines[2][..lines[2].len() / 2].to_string(); // truncation
        lines[7] = "{\"Http\":{\"ts\":\"oops\"}}".to_string(); // schema break
        lines.push("!!! noise !!!".to_string());
        let mut bytes = lines.join("\n").into_bytes();
        bytes.extend_from_slice(b"\n\xff\xfe garbage\n");

        let (out, stats) = read_trace_lossy(bytes.as_slice()).unwrap();
        assert_eq!(out.records.len(), 8);
        assert_eq!(stats.records_read, 8);
        assert_eq!(stats.skipped_bad_json, 2); // truncation + "!!! noise !!!"
        assert_eq!(stats.skipped_bad_schema, 1);
        assert_eq!(stats.skipped_non_utf8, 1);
        assert_eq!(stats.total_skipped(), 4);
        assert_eq!(out.meta, trace.meta);
    }

    #[test]
    fn lossy_recovers_from_corrupt_header() {
        let trace = http_trace(3);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let nl = buf.iter().position(|&b| b == b'\n').unwrap();
        let meta = r#""meta":{"name":"x","duration_secs":1.0,"subscribers":1,"start_hour":0,"start_weekday":0}"#;
        // A destroyed header line, a foreign format and a foreign version
        // are all replaced by placeholder metadata; every record survives.
        for header in [
            "#".repeat(nl),
            format!(r#"{{"format":"something-else","version":1,{meta}}}"#),
            format!(r#"{{"format":"{FORMAT_NAME}","version":99,{meta}}}"#),
        ] {
            let mut data = header.into_bytes();
            data.extend_from_slice(&buf[nl..]);
            let (out, stats) = read_trace_lossy(data.as_slice()).unwrap();
            assert!(stats.header_recovered);
            assert_eq!(out.meta.name, "<recovered>");
            assert_eq!(out.records, trace.records);
            assert_eq!(stats.total_skipped(), 0);
        }
        // The same header at this version is accepted.
        let good = format!(r#"{{"format":"{FORMAT_NAME}","version":{FORMAT_VERSION},{meta}}}"#);
        let mut data = good.into_bytes();
        data.extend_from_slice(&buf[nl..]);
        let (out, stats) = read_trace_lossy(data.as_slice()).unwrap();
        assert!(!stats.header_recovered);
        assert_eq!(out.meta.name, "x");
    }

    #[test]
    fn lossy_handles_empty_stream() {
        let (out, stats) = read_trace_lossy(io::empty()).unwrap();
        assert!(out.records.is_empty());
        assert!(stats.header_recovered);
        assert_eq!(stats.lines_seen(), 0);
    }

    #[test]
    fn lossy_skips_oversize_lines() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        // A single giant line (no newline until the end).
        buf.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 10));
        buf.push(b'\n');
        let (out, stats) = read_trace_lossy(buf.as_slice()).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(stats.skipped_oversize, 1);
    }

    #[test]
    fn stats_display_is_informative() {
        let stats = CodecStats {
            records_read: 5,
            skipped_bad_json: 2,
            header_recovered: true,
            ..Default::default()
        };
        let s = stats.to_string();
        assert!(s.contains("read 5"));
        assert!(s.contains("header recovered"));
    }

    proptest::proptest! {
        /// `CodecStats::merge` is a plain counter sum: merging in any
        /// grouping yields the same totals as counting in one pass.
        #[test]
        fn codec_stats_merge_is_additive(
            a in proptest::collection::vec(0usize..50, 7),
            b in proptest::collection::vec(0usize..50, 7),
            ha_bit in 0u8..2,
            hb_bit in 0u8..2,
        ) {
            use proptest::prop_assert_eq;
            let (ha, hb) = (ha_bit == 1, hb_bit == 1);
            let build = |v: &[usize], h: bool| CodecStats {
                records_read: v[0],
                blank_lines: v[1],
                skipped_bad_json: v[2],
                skipped_bad_schema: v[3],
                skipped_non_utf8: v[4],
                skipped_oversize: v[5],
                io_errors: v[6],
                header_recovered: h,
            };
            let sa = build(&a, ha);
            let sb = build(&b, hb);
            let mut left = sa.clone();
            left.merge(&sb);
            let mut right = sb.clone();
            right.merge(&sa);
            prop_assert_eq!(&left, &right, "merge is commutative");
            prop_assert_eq!(left.records_read, sa.records_read + sb.records_read);
            prop_assert_eq!(left.total_skipped(), sa.total_skipped() + sb.total_skipped());
            prop_assert_eq!(left.lines_seen(), sa.lines_seen() + sb.lines_seen());
            prop_assert_eq!(left.header_recovered, ha || hb);
            // Identity element.
            let mut with_default = sa.clone();
            with_default.merge(&CodecStats::default());
            prop_assert_eq!(with_default, sa);
        }
    }
}
