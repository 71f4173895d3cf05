//! The user → shard hash [`crate::stream`] routes by, and the thread-count
//! adapter the e2e harness still calls.

use crate::classify::PassiveClassifier;
use crate::pipeline::{classify_trace_in, ClassifiedTrace, PipelineOptions};
use netsim::record::Trace;

/// Deterministic shard assignment: FNV-1a over the user key. A missing
/// User-Agent hashes differently from an empty one, as in the per-user
/// stages' `(u32, Option<&str>)` map key. One shard holds every user and
/// is not hashed for: the byte-serial walk costs ≈1 ns per User-Agent byte.
pub(crate) fn shard_of(client_ip: u32, user_agent: Option<&str>, nshards: u64) -> usize {
    if nshards == 1 {
        return 0;
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mix = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(PRIME);
    let h = client_ip.to_le_bytes().into_iter().fold(OFFSET, mix);
    let h = match user_agent {
        None => mix(h, 0xff),
        Some(ua) => ua.bytes().fold(mix(h, 0x01), mix),
    };
    (h % nshards) as usize
}

/// [`classify_trace_in`], the one-thread oracle, under the signature the
/// e2e harness calls. `threads` is ignored: the oracle runs on the calling
/// thread, and thread-count invariance belongs to the stream engine.
pub fn classify_trace_sharded_in(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    _threads: usize,
    registry: &obs::Registry,
) -> ClassifiedTrace {
    classify_trace_in(trace, classifier, opts, registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_deterministic_and_distinguishes_absent_ua() {
        let a = shard_of(1, Some(""), 1 << 32);
        let b = shard_of(1, None, 1 << 32);
        assert_ne!(a, b, "empty UA and absent UA are distinct users");
        for _ in 0..3 {
            assert_eq!(shard_of(7, Some("UA-A"), 16), shard_of(7, Some("UA-A"), 16));
        }
    }
}
