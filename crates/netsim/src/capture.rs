//! The monitor: turns logical request events into trace records.
//!
//! Responsibilities, mirroring §5 of the paper:
//!
//! * **Port-based classification**: events on port 443 become opaque
//!   [`TlsConnection`] records; events on port 80 become full
//!   [`HttpTransaction`] records.
//! * **Anonymization** of client addresses at capture time.
//! * **Timing**: every new (client, server) connection gets a sampled
//!   wide-area RTT as its TCP handshake time; requests reusing a persistent
//!   connection keep the connection's original handshake time (the paper
//!   makes exactly this assumption in §8.2). The HTTP handshake time is
//!   RTT + server-side delay.

use crate::anonymize::Anonymizer;
use crate::latency::{BackendClass, LatencyModel};
use crate::record::{TlsConnection, Trace, TraceMeta, TraceRecord};
use crate::rtt::Region;
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use rand::Rng;
use std::collections::HashMap;

/// How long a persistent connection stays open without traffic.
const PERSISTENT_CONN_IDLE_SECS: f64 = 15.0;

/// One logical request emitted by the traffic simulator, before capture.
#[derive(Debug, Clone)]
pub struct RequestEvent {
    /// Seconds since trace start.
    pub ts: f64,
    /// Pre-anonymization client (household public) address.
    pub client_addr: u32,
    /// Server address.
    pub server_addr: u32,
    /// True for HTTPS (port 443).
    pub https: bool,
    /// Request method.
    pub method: Method,
    /// Host header.
    pub host: String,
    /// Request URI (path + query).
    pub uri: String,
    /// Referer header.
    pub referer: Option<String>,
    /// User-Agent header.
    pub user_agent: Option<String>,
    /// Response status.
    pub status: u16,
    /// Response Content-Type.
    pub content_type: Option<String>,
    /// Response Content-Length.
    pub content_length: Option<u64>,
    /// Response Location header (redirects).
    pub location: Option<String>,
    /// Server region (drives RTT).
    pub region: Region,
    /// Server backend class (drives HTTP−TCP handshake gap).
    pub backend: BackendClass,
}

/// A live persistent connection's timing state.
#[derive(Debug, Clone, Copy)]
struct ConnState {
    tcp_handshake_ms: f64,
    last_used: f64,
}

/// The capture point.
pub struct Capture {
    meta: TraceMeta,
    anonymizer: Anonymizer,
    latency: LatencyModel,
    connections: HashMap<(u32, u32, u16), ConnState>,
    records: Vec<TraceRecord>,
}

impl Capture {
    /// Start a capture with the given metadata and anonymization key.
    pub fn new(meta: TraceMeta, anon_key: u64) -> Capture {
        Capture {
            meta,
            anonymizer: Anonymizer::new(anon_key),
            latency: LatencyModel::default(),
            connections: HashMap::new(),
            records: Vec::new(),
        }
    }

    /// Observe one request event; appends a record.
    pub fn observe<R: Rng + ?Sized>(&mut self, ev: &RequestEvent, rng: &mut R) {
        let client_ip = self.anonymizer.anonymize(ev.client_addr);
        let port: u16 = if ev.https { 443 } else { 80 };
        if ev.https {
            // Opaque flow: we record one TLS record per logical connection.
            self.records.push(TraceRecord::Https(TlsConnection {
                ts: ev.ts,
                client_ip,
                server_ip: ev.server_addr,
                server_port: port,
                bytes: ev.content_length.unwrap_or(0) + 3_000, // TLS + header overhead
            }));
            return;
        }
        // TCP handshake: reuse the persistent connection's value when warm.
        let key = (client_ip, ev.server_addr, port);
        let state = match self.connections.get(&key) {
            Some(s) if ev.ts - s.last_used <= PERSISTENT_CONN_IDLE_SECS => *s,
            _ => ConnState {
                tcp_handshake_ms: ev.region.sample_rtt_ms(rng),
                last_used: ev.ts,
            },
        };
        self.connections.insert(
            key,
            ConnState {
                tcp_handshake_ms: state.tcp_handshake_ms,
                last_used: ev.ts,
            },
        );
        let server_delay = self.latency.sample_ms(ev.backend, rng);
        // HTTP handshake = one RTT for request/response + server-side delay.
        // Small capture jitter models kernel/card timestamp noise.
        let jitter = rng.gen_range(0.0..0.3);
        let http_handshake_ms = state.tcp_handshake_ms + server_delay + jitter;
        self.records.push(TraceRecord::Http(HttpTransaction {
            ts: ev.ts,
            client_ip,
            server_ip: ev.server_addr,
            server_port: port,
            method: ev.method,
            request: RequestHeaders {
                host: ev.host.clone(),
                uri: ev.uri.clone(),
                referer: ev.referer.clone(),
                user_agent: ev.user_agent.clone(),
            },
            response: ResponseHeaders {
                status: ev.status,
                content_type: ev.content_type.clone(),
                content_length: ev.content_length,
                location: ev.location.clone(),
            },
            tcp_handshake_ms: state.tcp_handshake_ms,
            http_handshake_ms,
        }));
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain all records with `ts < cutoff`, sorted by time — the
    /// streaming generator's per-slice flush.
    ///
    /// Safe once the simulation guarantees no future event can carry a
    /// timestamp below `cutoff`. Ties share a timestamp, so they can
    /// never straddle a cutoff, and the stable sort here preserves
    /// capture order within them — concatenating every drained batch
    /// with the final [`Capture::finish`] yields byte-for-byte the
    /// record sequence a materialized capture would have produced.
    pub fn drain_before(&mut self, cutoff: f64) -> Vec<TraceRecord> {
        self.records.sort_by(|a, b| a.ts().total_cmp(&b.ts()));
        let n = self
            .records
            .partition_point(|r| r.ts().total_cmp(&cutoff).is_lt());
        self.records.drain(..n).collect()
    }

    /// Finish the capture: sort records by time and produce the [`Trace`].
    pub fn finish(self) -> Trace {
        self.finish_with_mapping().0
    }

    /// Finish and also return the raw→anonymized address mapping, for
    /// simulations that must join captured traffic back to ground truth.
    pub fn finish_with_mapping(mut self) -> (Trace, HashMap<u32, u32>) {
        // total_cmp keeps the sort well-defined even if a record carries a
        // non-finite timestamp (possible when replaying corrupted traces).
        self.records.sort_by(|a, b| a.ts().total_cmp(&b.ts()));
        let mapping = self.anonymizer.mapping().clone();
        (
            Trace {
                meta: self.meta,
                records: self.records,
            },
            mapping,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "test".into(),
            duration_secs: 3600.0,
            subscribers: 10,
            start_hour: 0,
            start_weekday: 0,
        }
    }

    fn event(ts: f64, client: u32, server: u32, https: bool) -> RequestEvent {
        RequestEvent {
            ts,
            client_addr: client,
            server_addr: server,
            https,
            method: Method::Get,
            host: "example.com".into(),
            uri: "/".into(),
            referer: None,
            user_agent: Some("UA".into()),
            status: 200,
            content_type: Some("text/html".into()),
            content_length: Some(1000),
            location: None,
            region: Region::European,
            backend: BackendClass::Static,
        }
    }

    #[test]
    fn port_classification() {
        let mut cap = Capture::new(meta(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        cap.observe(&event(0.0, 10, 20, false), &mut rng);
        cap.observe(&event(1.0, 10, 20, true), &mut rng);
        let trace = cap.finish();
        assert_eq!(trace.http_count(), 1);
        assert_eq!(trace.https_count(), 1);
        let https = trace.https_flows().next().unwrap();
        assert_eq!(https.server_port, 443);
        let http = trace.http_transactions().next().unwrap();
        assert_eq!(http.server_port, 80);
    }

    #[test]
    fn anonymization_applied() {
        let mut cap = Capture::new(meta(), 99);
        let mut rng = StdRng::seed_from_u64(1);
        cap.observe(&event(0.0, 1234, 20, false), &mut rng);
        cap.observe(&event(1.0, 1234, 20, false), &mut rng);
        cap.observe(&event(2.0, 5678, 20, false), &mut rng);
        let trace = cap.finish();
        let ips: Vec<u32> = trace.http_transactions().map(|t| t.client_ip).collect();
        assert_eq!(ips[0], ips[1]);
        assert_ne!(ips[0], ips[2]);
        assert_ne!(ips[0], 1234, "raw address must never be recorded");
    }

    #[test]
    fn persistent_connection_reuses_tcp_handshake() {
        let mut cap = Capture::new(meta(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        cap.observe(&event(0.0, 10, 20, false), &mut rng);
        cap.observe(&event(1.0, 10, 20, false), &mut rng); // warm
        cap.observe(&event(100.0, 10, 20, false), &mut rng); // idle expired
        let trace = cap.finish();
        let hs: Vec<f64> = trace
            .http_transactions()
            .map(|t| t.tcp_handshake_ms)
            .collect();
        assert_eq!(hs[0], hs[1], "warm connection keeps handshake time");
        assert_ne!(hs[0], hs[2], "expired connection re-handshakes");
    }

    #[test]
    fn http_handshake_exceeds_tcp() {
        let mut cap = Capture::new(meta(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50 {
            cap.observe(&event(i as f64 * 20.0, 10, 20 + i, false), &mut rng);
        }
        let trace = cap.finish();
        for t in trace.http_transactions() {
            assert!(t.http_handshake_ms > t.tcp_handshake_ms);
        }
    }

    #[test]
    fn rtb_backend_produces_large_gap() {
        let mut cap = Capture::new(meta(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = event(0.0, 10, 20, false);
        ev.backend = BackendClass::RtbAuction;
        cap.observe(&ev, &mut rng);
        let trace = cap.finish();
        let t = trace.http_transactions().next().unwrap();
        assert!(t.backend_gap_ms() > 80.0, "gap {}", t.backend_gap_ms());
    }

    #[test]
    fn drain_before_matches_materialized_order() {
        // Two captures fed identically: one drained incrementally, one
        // finished in a single shot.
        let mut incremental = Capture::new(meta(), 1);
        let mut materialized = Capture::new(meta(), 1);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let times = [5.0, 1.0, 3.0, 3.0, 9.0, 6.0, 12.0, 10.5, 10.5];
        for (i, &ts) in times.iter().enumerate() {
            incremental.observe(&event(ts, 10 + i as u32 % 3, 20, i % 4 == 0), &mut rng_a);
            materialized.observe(&event(ts, 10 + i as u32 % 3, 20, i % 4 == 0), &mut rng_b);
        }
        let mut streamed = incremental.drain_before(4.0);
        assert_eq!(streamed.len(), 3, "1.0, 3.0, 3.0 fall before the cutoff");
        streamed.extend(incremental.drain_before(10.0));
        streamed.extend(incremental.finish().records);
        assert_eq!(streamed, materialized.finish().records);
    }

    #[test]
    fn finish_sorts_records() {
        let mut cap = Capture::new(meta(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        cap.observe(&event(5.0, 10, 20, false), &mut rng);
        cap.observe(&event(1.0, 11, 20, false), &mut rng);
        cap.observe(&event(3.0, 12, 20, true), &mut rng);
        let trace = cap.finish();
        assert!(trace.is_time_ordered());
    }
}
