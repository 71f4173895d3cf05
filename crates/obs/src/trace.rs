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
    fn cause_labels_are_stable() {
        assert_eq!(SampleCause::Head.label(), "head");
        assert_eq!(SampleCause::Anomalous.label(), "anomalous");
    }
}
