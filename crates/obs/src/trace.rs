//! Deterministic request identity: trace and span ids.
//!
//! The pipeline's determinism contract (output is byte-identical at any
//! thread count) extends to verdict provenance, so identity here is
//! *derived*, never drawn: a [`TraceId`] is a 128-bit FNV-1a hash of
//! ⟨trace seed, record index⟩ and a [`SpanId`] a 64-bit FNV-1a hash of
//! ⟨trace id, stage name⟩. The same record therefore carries the same
//! trace id on every run, and provenance output can be compared
//! byte-for-byte.
//!
//! [`SampleCause`] names why a provenance record was kept; the caller
//! decides it from the verdict. Provenance is a return value, not
//! telemetry, so the crate's kill switch does not touch it.

use crate::manifest::{fnv64, fnv64_fold};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

fn fnv128(h: u128, bytes: &[u8]) -> u128 {
    let mut h = h;
    for &b in bytes {
        h = (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Derive a trace-level seed from a stable name (e.g. the input trace's
/// metadata name): FNV-1a 64 over its bytes. Thread-count independent
/// by construction.
pub fn seed_from_name(name: &str) -> u64 {
    fnv64(name.as_bytes())
}

/// A 128-bit trace identifier, derived deterministically from a seed
/// (one per input trace) and a record index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Derive the id for record `record_idx` of the input identified by
    /// `seed`. Pure: same inputs, same id, on every thread.
    pub fn derive(seed: u64, record_idx: u64) -> TraceId {
        let mut h = fnv128(FNV128_OFFSET, &seed.to_le_bytes());
        h = fnv128(h, &record_idx.to_le_bytes());
        TraceId(h)
    }

    /// 32 lowercase hex characters (the W3C trace-id shape).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// A 64-bit span identifier, derived from the owning trace and a stage
/// name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Derive the span id for `stage` within `trace`.
    pub fn derive(trace: TraceId, stage: &str) -> SpanId {
        SpanId(fnv64_fold(fnv64(&trace.0.to_le_bytes()), stage.as_bytes()))
    }

    /// 16 lowercase hex characters.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Why a request's provenance was collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleCause {
    /// No exceptional cause: an ordinary verdict.
    Head,
    /// Verdict involved an exception rule or page whitelist.
    Whitelisted,
    /// Ad verdict computed from degraded input (no page context).
    Degraded,
    /// A whitelist rule overrode a blacklist match (§7.3's subset).
    Anomalous,
}

impl SampleCause {
    /// Stable lowercase label (the provenance record's `cause` field).
    pub fn label(self) -> &'static str {
        match self {
            SampleCause::Head => "head",
            SampleCause::Whitelisted => "whitelisted",
            SampleCause::Degraded => "degraded",
            SampleCause::Anomalous => "anomalous",
        }
    }
}

/// Default capacity of a [`TraceLog`].
pub const TRACE_LOG_CAPACITY: usize = 65_536;

/// A bounded sink of pre-rendered NDJSON lines (the registry's window
/// log). Unlike the event log, entries carry no wall-clock timestamp —
/// they are deterministic strings pushed in a deterministic order, so the
/// log contents are byte-identical across thread counts. Overflow drops
/// the *newest* lines (and counts them): keeping a deterministic prefix
/// beats keeping a racy suffix.
#[derive(Debug)]
pub struct TraceLog {
    lines: Mutex<Vec<String>>,
    capacity: usize,
    dropped: AtomicU64,
    /// `event` value of the trailing drop-marker line.
    marker: &'static str,
}

impl TraceLog {
    /// A log holding at most `capacity` lines whose NDJSON drop marker
    /// is `{"event":"<marker>","count":N}`.
    pub fn with_capacity_and_marker(capacity: usize, marker: &'static str) -> TraceLog {
        TraceLog {
            lines: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            marker,
        }
    }

    /// Append one rendered line (no trailing newline).
    pub fn push(&self, line: String) {
        let mut lines = self.lines.lock().expect("trace log poisoned");
        if lines.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lines.push(line);
    }

    /// Number of lines currently held.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("trace log poisoned").len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the held lines, oldest first.
    pub fn snapshot(&self) -> Vec<String> {
        self.lines.lock().expect("trace log poisoned").clone()
    }

    /// Render the contents as NDJSON. If lines were dropped, a final
    /// marker line says how many — the log is a prefix, not the whole
    /// story.
    pub fn render_ndjson(&self) -> String {
        let lines = self.snapshot();
        let dropped = self.dropped();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 1);
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        if dropped > 0 {
            out.push_str(&format!(
                "{{\"event\":\"{}\",\"count\":{dropped}}}\n",
                self.marker
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceId::derive(1, 0);
        assert_eq!(a, TraceId::derive(1, 0));
        assert_ne!(a, TraceId::derive(1, 1));
        assert_ne!(a, TraceId::derive(2, 0));
        assert_eq!(a.to_hex().len(), 32);
    }

    #[test]
    fn span_ids_depend_on_trace_and_stage() {
        let t = TraceId::derive(7, 3);
        let s = SpanId::derive(t, "classify");
        assert_eq!(s, SpanId::derive(t, "classify"));
        assert_ne!(s, SpanId::derive(t, "refmap"));
        assert_ne!(s, SpanId::derive(TraceId::derive(7, 4), "classify"));
        assert_eq!(s.to_hex().len(), 16);
    }

    #[test]
    fn trace_log_bounds_and_renders() {
        let log = TraceLog::with_capacity_and_marker(2, "lines_dropped");
        log.push("{\"a\":1}".to_string());
        log.push("{\"a\":2}".to_string());
        log.push("{\"a\":3}".to_string());
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        let ndjson = log.render_ndjson();
        assert!(ndjson.starts_with("{\"a\":1}\n{\"a\":2}\n"));
        assert!(ndjson
            .trim_end()
            .ends_with("{\"event\":\"lines_dropped\",\"count\":1}"));
    }

    #[test]
    fn cause_labels_are_stable() {
        assert_eq!(SampleCause::Head.label(), "head");
        assert_eq!(SampleCause::Anomalous.label(), "anomalous");
    }
}
