//! The referrer map's trace-order clock against a garbled timestamp: the
//! shared messy trace stamps one record half-way through `1234.56789e12`
//! (a digit string with one byte garbled), far past the trace's end. Were
//! that to move the clock, every later page context and pending redirect
//! would be past its horizon as soon as it was written.

mod common;

use adscope::extract::{extract_full, UserId};
use adscope::refmap::{PageSource, RefMap, RefMapOptions};
use std::collections::HashMap;

/// Referer-chain resolutions in the second half of the trace, after the
/// garbled record, keep pace with the first half's, and no object's clock
/// passes the trace's declared end.
#[test]
fn a_far_future_timestamp_moves_no_horizon() {
    for seed in [1, 2] {
        let trace = common::messy_trace(2000, 5, seed);
        let half = trace.records.len() / 2;
        let (objs, ..) = extract_full(&trace);
        let mut maps: HashMap<UserId, RefMap> = HashMap::new();
        let mut chains = [0usize; 2];
        for o in &objs {
            assert!(o.clock <= trace.meta.duration_secs, "clock {}", o.clock);
            let map = maps
                .entry(o.user)
                .or_insert_with(|| RefMap::new(RefMapOptions::default()));
            if map.process(o).ctx.source == PageSource::RefererChain {
                chains[usize::from(o.idx >= half)] += 1;
            }
        }
        let [before, after] = chains;
        assert!(before > 100, "seed {seed}: {before} chains before");
        assert!(
            after * 10 >= before * 9,
            "seed {seed}: {before} chains before the garbled record, {after} after"
        );
    }
}
