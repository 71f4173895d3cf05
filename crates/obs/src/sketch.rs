//! Deterministic, order-insensitively-mergeable sketches — the
//! population-analytics substrate for streaming runs.
//!
//! Three families, all built for the workspace's equivalence contract
//! (parallel output byte-identical to sequential at any thread count and
//! chunk size):
//!
//! * [`TopK`] — SpaceSaving heavy hitters with a *deterministic* eviction
//!   rule (smallest count, lexicographically smallest key on ties) and a
//!   canonical merge (callers merge partials in worker-index order). In
//!   the **exact regime** — every partial's key cardinality stays within
//!   its capacity, so no eviction ever fires — the structure degenerates
//!   to an exact count map and the merge is plain addition, which makes
//!   the merged result independent of how the input was partitioned.
//!   Outside that regime the estimates keep the classic SpaceSaving
//!   error bound (`count - error ≤ true ≤ count`) but partition
//!   invariance is no longer guaranteed; callers size capacity for their
//!   key space when they need byte-identical renders.
//! * [`QuantileSketch`] — fixed-gamma log-linear buckets (DDSketch
//!   style). Pure bucket counts: merging is bucket-wise addition, so the
//!   result is trivially associative, commutative, and
//!   partition-invariant. Relative error of any quantile estimate is
//!   bounded by `alpha = (gamma - 1) / (gamma + 1)`.
//! * [`Distinct64`] — a 64-register FNV-1a distinct-count estimator
//!   (HyperLogLog shape). Merging takes the per-register max, again
//!   order-insensitive and partition-invariant.
//!
//! None of the sketches ever consults wall clock, map iteration order, or
//! randomness: identical observations in any order and grouping produce
//! identical serialized state, which is what lets the streaming
//! scatter-merge checkpoint and resume them byte-for-byte.

use std::collections::BTreeMap;

/// FNV-1a 64-bit over a byte slice — the workspace's standard
/// deterministic hash (same constants as `shard_of` and the manifest
/// digests) — with a mixing finish.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = crate::manifest::fnv64(bytes);
    // FNV's high bits avalanche poorly; the Distinct64 rank needs them
    // uniform, so finish with the splitmix64 mixer (pure bit math,
    // deterministic).
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One ranked heavy-hitter row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopEntry {
    /// The key.
    pub key: String,
    /// Estimated count (an upper bound on the true count).
    pub count: u64,
    /// Maximum overestimation: `count - error` lower-bounds the truth.
    /// Zero whenever the sketch never evicted (the exact regime).
    pub error: u64,
}

/// SpaceSaving top-K heavy hitters with deterministic tie-breaking.
///
/// Keys are stored in a `BTreeMap`, so every traversal — eviction
/// scans, render order, serialization — is lexicographic and
/// independent of insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    capacity: usize,
    entries: BTreeMap<String, (u64, u64)>, // key -> (count, error)
}

impl TopK {
    /// A sketch tracking at most `capacity` keys (min 1).
    pub fn new(capacity: usize) -> TopK {
        TopK {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No keys tracked yet?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Has any observation ever been absorbed by eviction? While false,
    /// every count is exact and merges are partition-invariant.
    pub fn is_exact(&self) -> bool {
        self.entries.values().all(|&(_, e)| e == 0)
    }

    /// Observe `key` with weight `weight`.
    pub fn observe(&mut self, key: &str, weight: u64) {
        if let Some(cell) = self.entries.get_mut(key) {
            cell.0 += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key.to_string(), (weight, 0));
            return;
        }
        // Evict the deterministic minimum: smallest count, then
        // lexicographically smallest key (BTreeMap iteration order makes
        // the strictly-smaller comparison pick exactly that key).
        let (evict_key, (min_count, _)) = self
            .entries
            .iter()
            .min_by_key(|(_, &(c, _))| c)
            .map(|(k, v)| (k.clone(), *v))
            .expect("capacity >= 1");
        self.entries.remove(&evict_key);
        self.entries
            .insert(key.to_string(), (min_count + weight, min_count));
    }

    /// Merge another sketch into this one. Keys present in both add
    /// counts and errors; new keys insert (evicting deterministically if
    /// over capacity). Callers wanting canonical bytes merge partials in
    /// worker-index order; in the exact regime any order gives the same
    /// result.
    pub fn merge(&mut self, other: &TopK) {
        for (key, &(count, error)) in &other.entries {
            if let Some(cell) = self.entries.get_mut(key) {
                cell.0 += count;
                cell.1 += error;
            } else if self.entries.len() < self.capacity {
                self.entries.insert(key.clone(), (count, error));
            } else {
                let (evict_key, (min_count, _)) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, &(c, _))| c)
                    .map(|(k, v)| (k.clone(), *v))
                    .expect("capacity >= 1");
                self.entries.remove(&evict_key);
                self.entries
                    .insert(key.clone(), (count + min_count, error + min_count));
            }
        }
    }

    /// The top `k` entries, ranked by count descending, key ascending on
    /// ties — a total deterministic order.
    pub fn top(&self, k: usize) -> Vec<TopEntry> {
        let mut rows: Vec<TopEntry> = self
            .entries
            .iter()
            .map(|(key, &(count, error))| TopEntry {
                key: key.clone(),
                count,
                error,
            })
            .collect();
        rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        rows.truncate(k);
        rows
    }

    /// Serialize as sorted `key\x1fcount\x1ferror` triples (state lines
    /// for checkpoints). Lexicographic by construction.
    pub fn state_lines(&self) -> Vec<(String, u64, u64)> {
        self.entries
            .iter()
            .map(|(k, &(c, e))| (k.clone(), c, e))
            .collect()
    }

    /// Rebuild from serialized state (inverse of
    /// [`TopK::state_lines`]).
    pub fn from_state(
        capacity: usize,
        lines: impl IntoIterator<Item = (String, u64, u64)>,
    ) -> TopK {
        let mut t = TopK::new(capacity);
        for (k, c, e) in lines {
            t.entries.insert(k, (c, e));
        }
        t
    }
}

/// Fixed-gamma log-linear quantile sketch (DDSketch shape).
///
/// Values `x > 0` land in bucket `ceil(ln(x) / ln(gamma))`; `x <= 0`
/// lands in the zero bucket. A bucket's representative value is the
/// midpoint `2·gamma^i / (gamma + 1)`, which bounds the relative error
/// of any reconstruction by `alpha = (gamma - 1) / (gamma + 1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    gamma: f64,
    zero: u64,
    buckets: BTreeMap<i32, u64>,
    count: u64,
}

/// The gamma every workspace quantile sketch uses (relative error
/// `alpha = (gamma-1)/(gamma+1) ≈ 0.99 %`).
pub const QUANTILE_GAMMA: f64 = 1.02;

impl QuantileSketch {
    /// A sketch with the given gamma (> 1).
    pub fn new(gamma: f64) -> QuantileSketch {
        assert!(gamma > 1.0, "gamma must exceed 1");
        QuantileSketch {
            gamma,
            zero: 0,
            buckets: BTreeMap::new(),
            count: 0,
        }
    }

    /// The guaranteed relative-error bound of this sketch's estimates.
    pub fn alpha(&self) -> f64 {
        (self.gamma - 1.0) / (self.gamma + 1.0)
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observe one value.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        // NaN falls to the zero bucket via the finiteness arm.
        if x <= 0.0 || !x.is_finite() {
            self.zero += 1;
            return;
        }
        let i = (x.ln() / self.gamma.ln()).ceil() as i32;
        *self.buckets.entry(i).or_insert(0) += 1;
    }

    /// Merge another sketch (same gamma) — pure bucket addition, so the
    /// result is independent of partitioning and merge order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        debug_assert_eq!(self.gamma.to_bits(), other.gamma.to_bits());
        self.zero += other.zero;
        self.count += other.count;
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
    }

    /// The value estimate of the order statistic with zero-based rank
    /// `r` (rank 0 = minimum observed).
    fn order_stat(&self, r: u64) -> f64 {
        if r < self.zero {
            return 0.0;
        }
        let mut seen = self.zero;
        for (&i, &c) in &self.buckets {
            seen += c;
            if r < seen {
                // Bucket (gamma^(i-1), gamma^i] midpoint.
                return 2.0 * self.gamma.powi(i) / (self.gamma + 1.0);
            }
        }
        // r beyond the data: the largest representative.
        match self.buckets.keys().next_back() {
            Some(&i) => 2.0 * self.gamma.powi(i) / (self.gamma + 1.0),
            None => 0.0,
        }
    }

    /// Estimate the `q`-quantile (0..=100), targeting the same type-7
    /// rank `h = q/100 · (n-1)` that `stats::percentile` interpolates,
    /// so the estimate tracks the exact statistic within
    /// [`QuantileSketch::alpha`] relative error.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let h = (q / 100.0).clamp(0.0, 1.0) * (self.count - 1) as f64;
        let lo = self.order_stat(h.floor() as u64);
        let hi = self.order_stat(h.ceil() as u64);
        Some(lo + (h - h.floor()) * (hi - lo))
    }

    /// Serialize as `(bucket_index, count)` pairs plus the zero-bucket
    /// count, sorted by index.
    pub fn state(&self) -> (u64, Vec<(i32, u64)>) {
        (
            self.zero,
            self.buckets.iter().map(|(&i, &c)| (i, c)).collect(),
        )
    }

    /// Rebuild from serialized state. `None` when the counts do not sum
    /// within `u64` — no sketch this code built can hold that, so the image
    /// is corrupt and is refused rather than wrapped.
    pub fn from_state(
        gamma: f64,
        zero: u64,
        buckets: impl IntoIterator<Item = (i32, u64)>,
    ) -> Option<QuantileSketch> {
        let mut s = QuantileSketch::new(gamma);
        s.zero = zero;
        s.count = zero;
        for (i, c) in buckets {
            // No bucket can exceed the total, so this is the only check.
            s.count = s.count.checked_add(c)?;
            *s.buckets.entry(i).or_insert(0) += c;
        }
        Some(s)
    }
}

/// 64-register distinct-count estimator (HyperLogLog shape, FNV-1a
/// hashed). Merging is per-register max: associative, commutative,
/// idempotent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distinct64 {
    registers: [u8; 64],
}

impl Default for Distinct64 {
    fn default() -> Self {
        Distinct64::new()
    }
}

impl Distinct64 {
    /// An empty estimator.
    pub fn new() -> Distinct64 {
        Distinct64 { registers: [0; 64] }
    }

    /// Observe one key.
    pub fn observe(&mut self, key: &[u8]) {
        let h = fnv1a(key);
        let idx = (h & 63) as usize;
        // Rank = leading-zero count within the remaining 58 bits, + 1.
        // (`rest`'s top 6 bits are always zero after the shift, so they
        // are subtracted back out.)
        let rest = h >> 6;
        let rank = (rest.leading_zeros() as u8 - 6).min(58) + 1;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merge another estimator (per-register max).
    pub fn merge(&mut self, other: &Distinct64) {
        for (r, o) in self.registers.iter_mut().zip(&other.registers) {
            *r = (*r).max(*o);
        }
    }

    /// The cardinality estimate.
    pub fn estimate(&self) -> u64 {
        const M: f64 = 64.0;
        const ALPHA: f64 = 0.709; // alpha_64 for HyperLogLog
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = ALPHA * M * M / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * M && zeros > 0 {
            // Small-range (linear counting) correction.
            (M * (M / zeros as f64).ln()).round() as u64
        } else {
            raw.round() as u64
        }
    }

    /// Serialized register bytes.
    pub fn state(&self) -> [u8; 64] {
        self.registers
    }

    /// Rebuild from serialized registers.
    pub fn from_state(registers: [u8; 64]) -> Distinct64 {
        Distinct64 { registers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_exact_regime_counts_exactly() {
        let mut t = TopK::new(16);
        for _ in 0..5 {
            t.observe("a", 1);
        }
        for _ in 0..3 {
            t.observe("b", 1);
        }
        t.observe("c", 2);
        assert!(t.is_exact());
        let top = t.top(2);
        assert_eq!(top[0].key, "a");
        assert_eq!(top[0].count, 5);
        assert_eq!(top[0].error, 0);
        assert_eq!(top[1].key, "b");
    }

    #[test]
    fn topk_eviction_is_deterministic_and_bounded() {
        let mut t = TopK::new(2);
        t.observe("b", 3);
        t.observe("a", 3);
        // Tie on count=3: lexicographically smallest ("a") is evicted.
        t.observe("z", 1);
        assert!(t.top(2).iter().any(|e| e.key == "b"));
        let z = t.top(2).into_iter().find(|e| e.key == "z").unwrap();
        assert_eq!(z.count, 4, "inherits the evicted minimum");
        assert_eq!(z.error, 3);
        assert!(!t.is_exact());
    }

    #[test]
    fn topk_merge_is_order_insensitive_in_exact_regime() {
        let keys = ["x", "y", "z", "w"];
        let mut parts: Vec<TopK> = Vec::new();
        for chunk in 0..3 {
            let mut t = TopK::new(16);
            for (i, k) in keys.iter().enumerate() {
                t.observe(k, (chunk + i + 1) as u64);
            }
            parts.push(t);
        }
        let mut fwd = TopK::new(16);
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = TopK::new(16);
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.top(4), rev.top(4));
        assert_eq!(fwd.state_lines(), rev.state_lines());
    }

    #[test]
    fn topk_ranking_ties_break_lexicographically() {
        let mut t = TopK::new(8);
        t.observe("beta", 2);
        t.observe("alpha", 2);
        t.observe("gamma", 5);
        let top = t.top(3);
        assert_eq!(top[0].key, "gamma");
        assert_eq!(top[1].key, "alpha");
        assert_eq!(top[2].key, "beta");
    }

    #[test]
    fn topk_round_trips_state() {
        let mut t = TopK::new(4);
        t.observe("a", 7);
        t.observe("b", 2);
        let back = TopK::from_state(4, t.state_lines());
        assert_eq!(back.top(4), t.top(4));
    }

    #[test]
    fn quantile_error_stays_within_alpha() {
        let mut s = QuantileSketch::new(QUANTILE_GAMMA);
        let data: Vec<f64> = (1..=1000).map(|i| i as f64 * 1.7).collect();
        for &x in &data {
            s.observe(x);
        }
        let alpha = s.alpha();
        for q in [5.0, 25.0, 50.0, 75.0, 95.0, 99.0] {
            let h = q / 100.0 * (data.len() - 1) as f64;
            let exact = {
                let lo = data[h.floor() as usize];
                let hi = data[h.ceil() as usize];
                lo + (h - h.floor()) * (hi - lo)
            };
            let est = s.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= alpha * exact + 1e-9,
                "q={q}: est {est} exact {exact} alpha {alpha}"
            );
        }
    }

    #[test]
    fn quantile_merge_equals_single_sketch() {
        let mut whole = QuantileSketch::new(QUANTILE_GAMMA);
        let mut a = QuantileSketch::new(QUANTILE_GAMMA);
        let mut b = QuantileSketch::new(QUANTILE_GAMMA);
        for i in 0..500 {
            let x = (i as f64).sin().abs() * 100.0;
            whole.observe(x);
            if i % 2 == 0 {
                a.observe(x);
            } else {
                b.observe(x);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
    }

    #[test]
    fn quantile_zero_and_negative_land_in_zero_bucket() {
        let mut s = QuantileSketch::new(QUANTILE_GAMMA);
        s.observe(0.0);
        s.observe(-5.0);
        s.observe(10.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.0), Some(0.0));
    }

    #[test]
    fn quantile_round_trips_state() {
        let mut s = QuantileSketch::new(QUANTILE_GAMMA);
        for i in 0..100 {
            s.observe(i as f64);
        }
        let (zero, buckets) = s.state();
        let back = QuantileSketch::from_state(QUANTILE_GAMMA, zero, buckets);
        assert_eq!(back, Some(s));
    }

    #[test]
    fn quantile_state_whose_counts_overflow_is_refused() {
        let g = QUANTILE_GAMMA;
        assert!(QuantileSketch::from_state(g, 0, [(1, u64::MAX), (2, 2)]).is_none());
        assert!(QuantileSketch::from_state(g, 1, [(1, u64::MAX)]).is_none());
        assert!(QuantileSketch::from_state(g, 0, [(1, u64::MAX - 2), (1, 2)]).is_some());
    }

    #[test]
    fn distinct_estimates_within_tolerance() {
        let mut d = Distinct64::new();
        let n = 5000u64;
        for i in 0..n {
            d.observe(format!("user-{i}").as_bytes());
        }
        let est = d.estimate() as f64;
        // 64 registers give ~13% standard error; allow 3 sigma.
        assert!(
            (est - n as f64).abs() < 0.40 * n as f64,
            "estimate {est} for true {n}"
        );
    }

    #[test]
    fn distinct_small_counts_are_near_exact() {
        let mut d = Distinct64::new();
        for i in 0..10 {
            d.observe(format!("k{i}").as_bytes());
        }
        let est = d.estimate();
        assert!((est as i64 - 10).unsigned_abs() <= 2, "estimate {est}");
    }

    #[test]
    fn distinct_merge_is_union() {
        let mut a = Distinct64::new();
        let mut b = Distinct64::new();
        let mut whole = Distinct64::new();
        for i in 0..200 {
            let k = format!("k{i}");
            whole.observe(k.as_bytes());
            if i % 2 == 0 {
                a.observe(k.as_bytes());
            } else {
                b.observe(k.as_bytes());
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        // Idempotent: merging a again changes nothing.
        let before = ab.clone();
        ab.merge(&a);
        assert_eq!(ab, before);
    }

    #[test]
    fn distinct_round_trips_state() {
        let mut d = Distinct64::new();
        d.observe(b"alpha");
        d.observe(b"beta");
        assert_eq!(Distinct64::from_state(d.state()), d);
    }
}
