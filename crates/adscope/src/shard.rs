//! The user → shard assignment [`crate::stream`] routes by, and the
//! thread-count adapter the e2e harness still calls.

use crate::classify::PassiveClassifier;
use crate::extract::UserId;
use crate::pipeline::{classify_trace_in, ClassifiedTrace, PipelineOptions};
use netsim::record::Trace;

/// Deterministic shard assignment by the user's dense id: users take the
/// shards in turn, in the order the router first met them. A missing
/// User-Agent and an empty one are two users here, as in every per-user
/// stage that keeps referrer-map state; the population plane alone folds
/// them into one (`crate::population`). Ids are local to a run, so a
/// resumed run shards its restored users by the ids it gives them.
pub(crate) fn shard_of(user: UserId, nshards: usize) -> usize {
    user as usize % nshards
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
    fn users_take_the_shards_in_turn() {
        let shards: Vec<usize> = (0..7).map(|u| shard_of(u, 3)).collect();
        assert_eq!(shards, [0, 1, 2, 0, 1, 2, 0]);
        assert!((0..100).all(|u| shard_of(u, 1) == 0));
    }
}
