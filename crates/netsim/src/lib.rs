//! Flow-level network simulation and DAG-style trace capture.
//!
//! The paper's data comes from Endace DAG cards inside an ISP aggregation
//! network (§5): port-based classification (TCP 80 = HTTP, TCP 443 = HTTPS),
//! anonymized client addresses, HTTP *header* information only, and — being
//! an aggregation-level monitor — timing that excludes the access network.
//! This crate reproduces that capture pipeline over simulated traffic:
//!
//! * [`rtt`] — wide-area round-trip-time model per server region, the source
//!   of the TCP-handshake timing that §8.2 uses as an RTT proxy.
//! * [`latency`] — server-side processing and back-office (RTB) delays that
//!   inflate the HTTP handshake relative to the TCP handshake.
//! * [`nat`] — home-gateway NAT: many devices share one public address.
//! * [`anonymize`] — stable capture-time IP anonymization (real addresses
//!   never reach the analysis, exactly like the paper's setup).
//! * [`capture`] — the monitor: turns logical [`RequestEvent`]s into
//!   [`record::TraceRecord`]s, keeping per-connection TCP handshake times
//!   for persistent connections and reducing HTTPS to opaque flow records.
//! * [`codec`] — a newline-delimited JSON trace format with a versioned
//!   header, so experiments can persist and re-read captures. Its one
//!   reader is lossy ([`codec::read_trace_lossy`], [`stream::ChunkReader`]):
//!   it resyncs after corrupt lines and accounts for what it skipped.
//! * [`faults`] — deterministic, seeded fault injection ([`FaultInjector`])
//!   modelling the degradations a live vantage point produces: capture
//!   loss, truncation, garbling, missing headers, clock skew, duplicates.
//! * [`json`] — the minimal panic-free JSON layer behind the codec, with
//!   a borrowed fast path so escape-free strings never allocate. Record
//!   lines in the writer's own spelling bypass it: a private `scan` module
//!   holds the schema-directed record scanner, the in-place line framer
//!   and the word-at-a-time newline search the readers share.
//! * [`stream`] — incremental chunk-by-chunk decode with byte-offset
//!   accounting (the checkpoint/resume substrate), owned or lent record by
//!   record as [`record::RecordView`]s of the framed lines, and a
//!   [`stream::TraceWriter`] dual of [`codec::write_trace`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymize;
pub mod capture;
pub mod codec;
pub mod faults;
pub mod json;
pub mod latency;
pub mod nat;
pub mod record;
pub mod rtt;
mod scan;
pub mod stream;

pub use anonymize::Anonymizer;
pub use capture::{Capture, RequestEvent};
pub use faults::{FaultCounts, FaultInjector, FaultProfile};
pub use latency::LatencyModel;
pub use nat::NatGateway;
pub use record::{TlsConnection, Trace, TraceMeta, TraceRecord};
pub use rtt::Region;

/// This crate's version, recorded in run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
