//! Deterministic request tracing: trace/span identity and sampling.
//!
//! The pipeline's determinism contract (sharded output is byte-identical
//! to sequential at any thread count) extends to tracing, so identity
//! here is *derived*, never drawn: a [`TraceId`] is a 128-bit FNV-1a
//! hash of ⟨trace seed, record index⟩ and a [`SpanId`] a 64-bit FNV-1a
//! hash of ⟨trace id, stage name⟩. The same record therefore carries the
//! same trace through scatter-merge regardless of which shard or worker
//! classified it, and provenance output can be compared byte-for-byte
//! across thread counts.
//!
//! Sampling is head-based: a trace is selected when a fold of its id
//! lands under `sample_ppm` parts-per-million — again a pure function of
//! identity, so every worker agrees on the decision without
//! coordination. Verdict-triggered causes ([`SampleCause::Whitelisted`],
//! [`SampleCause::Degraded`], [`SampleCause::Anomalous`]) are decided by
//! the pipeline after classification and override the head decision.
//!
//! Everything is subordinate to the crate-wide kill switch:
//! [`Sampler::is_active`] returns `false` while [`crate::enabled`] is
//! off, and the pipeline allocates no provenance at all in that state
//! (pinned by an allocation-counting test in `adscope`).

use crate::manifest::{fnv64, fnv64_fold};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// One million, the denominator of [`Sampler`]'s parts-per-million rate.
pub const PPM: u64 = 1_000_000;

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

    /// Fold the id into the sampling key: xor of the two 64-bit halves.
    pub fn sample_key(self) -> u64 {
        (self.0 as u64) ^ ((self.0 >> 64) as u64)
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
    /// Selected by the head sampler (trace-id hash under the ppm rate).
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

/// The head sampler: selects traces by id hash, honouring the global
/// kill switch. `sample_ppm` is parts per million; `0` disables the
/// tracer entirely (no provenance is collected for any cause).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    sample_ppm: u32,
}

impl Sampler {
    /// A sampler selecting `sample_ppm` out of every million traces.
    pub fn new(sample_ppm: u32) -> Sampler {
        Sampler {
            sample_ppm: sample_ppm.min(PPM as u32),
        }
    }

    /// The configured rate in parts per million.
    pub fn sample_ppm(self) -> u32 {
        self.sample_ppm
    }

    /// Is the tracer on at all? False when the rate is zero **or** the
    /// process-wide kill switch ([`crate::set_enabled`]) is off.
    pub fn is_active(self) -> bool {
        self.sample_ppm > 0 && crate::enabled()
    }

    /// Head-sampling decision for one trace. Pure in the trace id, so
    /// every shard agrees; `false` whenever the tracer is inactive.
    pub fn head_sample(self, id: TraceId) -> bool {
        self.is_active() && id.sample_key() % PPM < u64::from(self.sample_ppm)
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
    fn sampler_rate_is_roughly_honoured() {
        let s = Sampler::new(250_000); // 25%
        let hits = (0..4000)
            .filter(|&i| s.head_sample(TraceId::derive(0xA, i)))
            .count();
        // FNV output is well spread; allow wide slack.
        assert!((600..1800).contains(&hits), "hits={hits}");
    }

    #[test]
    fn sampler_zero_and_full_rates() {
        let off = Sampler::new(0);
        assert!(!off.is_active());
        assert!(!off.head_sample(TraceId::derive(1, 1)));
        let full = Sampler::new(PPM as u32);
        for i in 0..100 {
            assert!(full.head_sample(TraceId::derive(1, i)));
        }
    }

    // The kill-switch interaction is asserted in tests/kill_switch.rs,
    // which owns the process-wide toggle.

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
