//! Byte-level scanning under the codec: the in-place line framer every
//! streaming reader shares, and the schema-directed record scanner that is
//! the decode fast path. Both find bytes eight at a time through
//! [`obs::find_newline`] and [`obs::find_string_stop`].
//!
//! Nothing here decides a verdict on its own. [`scan_view`] accepts only
//! the exact byte sequence [`crate::codec::encode_record`] writes for a
//! record whose strings needed no escaping; on any other input it returns
//! `None` and the generic `json::parse` + `decode_record` pair decides, so
//! that pair stays the single authority for what is bad JSON, what is bad
//! schema, and what the strict readers' error text says.

use crate::codec::{decode_header, recovered_meta, MAX_LINE_BYTES};
use crate::record::{HttpView, RecordView, TlsConnection, TraceMeta};
use http_model::transaction::Method;
use obs::{find_newline, find_string_stop};
use std::io::{self, BufRead, BufReader, Read};

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

/// One framed line, borrowed from the framer until its next call.
pub(crate) struct Line<'a> {
    /// The line without its `\n`; when `overflow` is set, some prefix of it.
    pub(crate) bytes: &'a [u8],
    /// The line was longer than [`MAX_LINE_BYTES`]; its tail was read and
    /// discarded.
    pub(crate) overflow: bool,
    /// Input bytes the line took, newline included — what a resume offset
    /// advances by.
    pub(crate) consumed: u64,
}

/// Newline framing for the lossy readers. A line that lies wholly inside
/// the `BufReader`'s buffer is handed out in place; only a line that
/// straddles a refill is reassembled in a side buffer.
pub(crate) struct LineFramer<R: Read> {
    reader: BufReader<R>,
    /// Buffer bytes the previously returned in-place line occupies,
    /// released at the next call (the caller still borrows them until then).
    held: usize,
    spill: Vec<u8>,
}

impl<R: Read> LineFramer<R> {
    pub(crate) fn new(source: R) -> LineFramer<R> {
        LineFramer {
            reader: BufReader::new(source),
            held: 0,
            spill: Vec::new(),
        }
    }

    /// The next line, or `None` at end of input. A final line without a
    /// newline is yielded too.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<Line<'_>>> {
        self.reader.consume(std::mem::take(&mut self.held));
        let buffered = self.reader.fill_buf()?;
        if buffered.is_empty() {
            return Ok(None);
        }
        if let Some(idx) = find_newline(buffered) {
            self.held = idx + 1;
            return Ok(Some(Line {
                bytes: &self.reader.buffer()[..idx],
                overflow: idx > MAX_LINE_BYTES,
                consumed: idx as u64 + 1,
            }));
        }
        self.spill.clear();
        let mut overflow = false;
        let mut consumed = 0u64;
        loop {
            let buffered = self.reader.fill_buf()?;
            if buffered.is_empty() {
                break;
            }
            let (take, used, done) = match find_newline(buffered) {
                Some(idx) => (&buffered[..idx], idx + 1, true),
                None => (buffered, buffered.len(), false),
            };
            let room = MAX_LINE_BYTES - self.spill.len();
            overflow |= take.len() > room;
            self.spill.extend_from_slice(&take[..take.len().min(room)]);
            self.reader.consume(used);
            consumed += used as u64;
            if done {
                break;
            }
        }
        Ok(Some(Line {
            bytes: &self.spill,
            overflow,
            consumed,
        }))
    }

    /// Consume the header line under the lossy policy: a missing, oversize
    /// or undecodable header is replaced by placeholder metadata, never an
    /// abort. Returns the metadata, whether it was recovered, and the bytes
    /// consumed.
    pub(crate) fn read_header_lossy(&mut self) -> io::Result<(TraceMeta, bool, u64)> {
        let Some(line) = self.next_line()? else {
            return Ok((recovered_meta(), true, 0));
        };
        let decoded = if line.overflow {
            None
        } else {
            decode_header(&String::from_utf8_lossy(line.bytes))
        };
        Ok(match decoded {
            Some(meta) => (meta, false, line.consumed),
            None => (recovered_meta(), true, line.consumed),
        })
    }
}

// ---------------------------------------------------------------------------
// Schema-directed record scanner
// ---------------------------------------------------------------------------

/// Decode a record line by walking the exact bytes
/// [`crate::codec::encode_record`] writes: key literals in writer order, no
/// whitespace, strings without escapes, unsigned integers of at most 19
/// digits without leading zeros, floats with a fraction or exponent.
/// Anything else — including every line the generic path would reject — is
/// `None`, which means "ask the generic path", never "bad line". The
/// strings of the view are slices of `text`; nothing is copied.
pub(crate) fn scan_view(text: &str) -> Option<RecordView<'_>> {
    let mut s = Scanner { text, pos: 0 };
    let record = if s.lit(b"{\"Http\":{\"ts\":").is_some() {
        RecordView::Http(s.http_body()?)
    } else {
        s.lit(b"{\"Https\":{\"ts\":")?;
        RecordView::Https(s.tls_body()?)
    };
    s.lit(b"}}")?;
    (s.pos == text.len()).then_some(record)
}

struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    #[inline]
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        self.rest().starts_with(lit).then(|| self.pos += lit.len())
    }

    /// What `json::parse` reads as `Value::Int` and `as_u64` accepts,
    /// restricted to the writer's spelling.
    fn uint(&mut self) -> Option<u64> {
        let rest = self.rest();
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        // 19 digits cannot overflow a u64; the writer never pads with zeros.
        // Whatever follows must match the next key literal, so a fraction
        // or exponent (a float to the generic parser) fails there.
        if digits == 0 || digits > 19 || (digits > 1 && rest[0] == b'0') {
            return None;
        }
        self.pos += digits;
        Some(
            rest[..digits]
                .iter()
                .fold(0u64, |n, &b| n * 10 + u64::from(b - b'0')),
        )
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.uint()?).ok()
    }

    fn u16(&mut self) -> Option<u16> {
        u16::try_from(self.uint()?).ok()
    }

    /// The generic parser's float: the same token set, the same
    /// `str::parse::<f64>`, the same finiteness check. A token without
    /// fraction or exponent is an integer there and is left to it.
    fn float(&mut self) -> Option<f64> {
        let rest = self.rest();
        if !matches!(rest.first(), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let len = rest
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        let token = &self.text[self.pos..self.pos + len];
        if !token.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            return None;
        }
        let f: f64 = token.parse().ok()?;
        if !f.is_finite() {
            return None;
        }
        self.pos += len;
        Some(f)
    }

    /// An escape-free string, borrowed. Both delimiters are ASCII quotes,
    /// so the slice falls on character boundaries of the `&str` input.
    fn string(&mut self) -> Option<&'a str> {
        self.lit(b"\"")?;
        let rest = self.rest();
        let end = find_string_stop(rest)?;
        if rest[end] != b'"' {
            return None;
        }
        let s = &self.text[self.pos..self.pos + end];
        self.pos += end + 1;
        Some(s)
    }

    fn opt_string(&mut self) -> Option<Option<&'a str>> {
        if self.lit(b"null").is_some() {
            return Some(None);
        }
        Some(Some(self.string()?))
    }

    fn method(&mut self) -> Option<Method> {
        if self.lit(b"\"Get\"").is_some() {
            Some(Method::Get)
        } else if self.lit(b"\"Post\"").is_some() {
            Some(Method::Post)
        } else {
            self.lit(b"\"Head\"").map(|()| Method::Head)
        }
    }

    /// The fields both variants open with, after `"ts":`: timestamp, client
    /// address, server address, server port.
    fn flow_head(&mut self) -> Option<(f64, u32, u32, u16)> {
        let ts = self.float()?;
        self.lit(b",\"client_ip\":")?;
        let client_ip = self.u32()?;
        self.lit(b",\"server_ip\":")?;
        let server_ip = self.u32()?;
        self.lit(b",\"server_port\":")?;
        Some((ts, client_ip, server_ip, self.u16()?))
    }

    /// Everything of an `Http` record after `"ts":` up to the closing `}}`.
    fn http_body(&mut self) -> Option<HttpView<'a>> {
        let (ts, client_ip, server_ip, server_port) = self.flow_head()?;
        self.lit(b",\"method\":")?;
        let method = self.method()?;
        self.lit(b",\"request\":{\"host\":")?;
        let host = self.string()?;
        self.lit(b",\"uri\":")?;
        let uri = self.string()?;
        self.lit(b",\"referer\":")?;
        let referer = self.opt_string()?;
        self.lit(b",\"user_agent\":")?;
        let user_agent = self.opt_string()?;
        self.lit(b"},\"response\":{\"status\":")?;
        let status = self.u16()?;
        self.lit(b",\"content_type\":")?;
        let content_type = self.opt_string()?;
        self.lit(b",\"content_length\":")?;
        let content_length = if self.lit(b"null").is_some() {
            None
        } else {
            Some(self.uint()?)
        };
        self.lit(b",\"location\":")?;
        let location = self.opt_string()?;
        self.lit(b"},\"tcp_handshake_ms\":")?;
        let tcp_handshake_ms = self.float()?;
        self.lit(b",\"http_handshake_ms\":")?;
        let http_handshake_ms = self.float()?;
        Some(HttpView {
            ts,
            client_ip,
            server_ip,
            server_port,
            method,
            host,
            uri,
            referer,
            user_agent,
            status,
            content_type,
            content_length,
            location,
            tcp_handshake_ms,
            http_handshake_ms,
        })
    }

    /// Everything of an `Https` record after `"ts":` up to the closing `}}`.
    fn tls_body(&mut self) -> Option<TlsConnection> {
        let (ts, client_ip, server_ip, server_port) = self.flow_head()?;
        self.lit(b",\"bytes\":")?;
        let bytes = self.uint()?;
        Some(TlsConnection {
            ts,
            client_ip,
            server_ip,
            server_port,
            bytes,
        })
    }
}
