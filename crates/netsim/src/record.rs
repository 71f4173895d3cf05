//! Trace records: what the DAG-style monitor writes to disk.

use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;

/// An opaque HTTPS flow record. Port-based classification tells the monitor
/// this is TLS on 443; nothing inside the connection is visible. The paper
/// uses exactly two properties of such flows: the server address (matched
/// against the list of Adblock Plus server IPs) and the byte volume.
#[derive(Debug, Clone, PartialEq)]
pub struct TlsConnection {
    /// Seconds since trace start.
    pub ts: f64,
    /// Anonymized client address label.
    pub client_ip: u32,
    /// Server address label.
    pub server_ip: u32,
    /// Server port (443).
    pub server_port: u16,
    /// Total bytes transferred over the connection.
    pub bytes: u64,
}

/// One captured record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// An HTTP transaction with header fields (TCP port 80).
    Http(HttpTransaction),
    /// An opaque TLS flow (TCP port 443).
    Https(TlsConnection),
}

impl TraceRecord {
    /// Timestamp of the record.
    pub fn ts(&self) -> f64 {
        match self {
            TraceRecord::Http(t) => t.ts,
            TraceRecord::Https(t) => t.ts,
        }
    }

    /// Anonymized client address.
    pub fn client_ip(&self) -> u32 {
        match self {
            TraceRecord::Http(t) => t.client_ip,
            TraceRecord::Https(t) => t.client_ip,
        }
    }
}

/// An HTTP transaction whose header strings are borrowed: from the framed
/// line the record scanner walked, or from an owned [`HttpTransaction`]
/// ([`HttpView::of`]). Field for field the owned type, flattened.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // every field is documented on `HttpTransaction`
pub struct HttpView<'a> {
    pub ts: f64,
    pub client_ip: u32,
    pub server_ip: u32,
    pub server_port: u16,
    pub method: Method,
    pub host: &'a str,
    pub uri: &'a str,
    pub referer: Option<&'a str>,
    pub user_agent: Option<&'a str>,
    pub status: u16,
    pub content_type: Option<&'a str>,
    pub content_length: Option<u64>,
    pub location: Option<&'a str>,
    pub tcp_handshake_ms: f64,
    pub http_handshake_ms: f64,
}

impl<'a> HttpView<'a> {
    /// View an owned transaction; nothing is copied.
    pub fn of(tx: &'a HttpTransaction) -> HttpView<'a> {
        HttpView {
            ts: tx.ts,
            client_ip: tx.client_ip,
            server_ip: tx.server_ip,
            server_port: tx.server_port,
            method: tx.method,
            host: &tx.request.host,
            uri: &tx.request.uri,
            referer: tx.request.referer.as_deref(),
            user_agent: tx.request.user_agent.as_deref(),
            status: tx.response.status,
            content_type: tx.response.content_type.as_deref(),
            content_length: tx.response.content_length,
            location: tx.response.location.as_deref(),
            tcp_handshake_ms: tx.tcp_handshake_ms,
            http_handshake_ms: tx.http_handshake_ms,
        }
    }

    /// The owned transaction: one copy of each header string.
    pub fn to_transaction(&self) -> HttpTransaction {
        let owned = |s: Option<&str>| s.map(str::to_owned);
        HttpTransaction {
            ts: self.ts,
            client_ip: self.client_ip,
            server_ip: self.server_ip,
            server_port: self.server_port,
            method: self.method,
            request: RequestHeaders {
                host: self.host.to_owned(),
                uri: self.uri.to_owned(),
                referer: owned(self.referer),
                user_agent: owned(self.user_agent),
            },
            response: ResponseHeaders {
                status: self.status,
                content_type: owned(self.content_type),
                content_length: self.content_length,
                location: owned(self.location),
            },
            tcp_handshake_ms: self.tcp_handshake_ms,
            http_handshake_ms: self.http_handshake_ms,
        }
    }
}

/// One record as the decoder lends it out: what [`TraceRecord`] owns,
/// borrowed.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordView<'a> {
    /// An HTTP transaction with header fields.
    Http(HttpView<'a>),
    /// An opaque TLS flow (nothing to borrow).
    Https(TlsConnection),
}

impl<'a> RecordView<'a> {
    /// View an owned record; nothing is copied.
    pub fn of(rec: &'a TraceRecord) -> RecordView<'a> {
        match rec {
            TraceRecord::Http(tx) => RecordView::Http(HttpView::of(tx)),
            TraceRecord::Https(conn) => RecordView::Https(conn.clone()),
        }
    }

    /// The owned record.
    pub fn to_record(&self) -> TraceRecord {
        match self {
            RecordView::Http(tx) => TraceRecord::Http(tx.to_transaction()),
            RecordView::Https(conn) => TraceRecord::Https(conn.clone()),
        }
    }
}

/// Metadata of a captured trace — the fields of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Trace name, e.g. `RBN-1`.
    pub name: String,
    /// Capture duration in seconds.
    pub duration_secs: f64,
    /// Number of DSL subscriber lines behind the monitor.
    pub subscribers: usize,
    /// Hour-of-day (0–23) at which the capture started — Figures 5a/5b need
    /// wall-clock alignment.
    pub start_hour: u32,
    /// Day-of-week at capture start, 0 = Monday … 6 = Sunday.
    pub start_weekday: u32,
}

/// A captured trace: metadata plus records ordered by timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Capture metadata.
    pub meta: TraceMeta,
    /// The records.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Count of HTTP transactions.
    pub fn http_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Http(_)))
            .count()
    }

    /// Count of HTTPS flow records.
    pub fn https_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Https(_)))
            .count()
    }

    /// Iterate the HTTP transactions.
    pub fn http_transactions(&self) -> impl Iterator<Item = &HttpTransaction> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Http(t) => Some(t),
            TraceRecord::Https(_) => None,
        })
    }

    /// Iterate the HTTPS flows.
    pub fn https_flows(&self) -> impl Iterator<Item = &TlsConnection> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Https(t) => Some(t),
            TraceRecord::Http(_) => None,
        })
    }

    /// Verify records are time-ordered (capture invariant).
    pub fn is_time_ordered(&self) -> bool {
        self.records.windows(2).all(|w| w[0].ts() <= w[1].ts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_record(ts: f64, bytes: u64) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: 1,
            server_ip: 2,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders::default(),
            response: ResponseHeaders {
                status: 200,
                content_type: None,
                content_length: Some(bytes),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn https_record(ts: f64) -> TraceRecord {
        TraceRecord::Https(TlsConnection {
            ts,
            client_ip: 1,
            server_ip: 3,
            server_port: 443,
            bytes: 4000,
        })
    }

    #[test]
    fn counting() {
        let trace = Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 10.0,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 5,
            },
            records: vec![
                http_record(0.0, 100),
                https_record(1.0),
                http_record(2.0, 50),
            ],
        };
        assert_eq!(trace.http_count(), 2);
        assert_eq!(trace.https_count(), 1);
        assert!(trace.is_time_ordered());
        assert_eq!(trace.http_transactions().count(), 2);
        assert_eq!(trace.https_flows().count(), 1);
    }

    #[test]
    fn time_order_violation_detected() {
        let trace = Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 10.0,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 0,
            },
            records: vec![http_record(5.0, 1), http_record(2.0, 1)],
        };
        assert!(!trace.is_time_ordered());
    }
}
