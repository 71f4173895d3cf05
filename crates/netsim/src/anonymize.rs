//! Capture-time IP anonymization.
//!
//! The paper stresses (§5) that client addresses are anonymized *at the time
//! of the packet capture* — the real addresses are never stored. We mirror
//! that: the capture passes every address through an `Anonymizer`, a
//! stable keyed permutation, before anything is recorded. The mapping is
//! deterministic within a capture (so one client keeps one label — required
//! for per-user analysis) but unrelated to the input numbering.

use std::collections::HashMap;

/// Stable anonymizing map from simulated addresses to opaque labels.
#[derive(Debug, Clone, Default)]
pub(crate) struct Anonymizer {
    key: u64,
    map: HashMap<u32, u32>,
    next: u32,
}

impl Anonymizer {
    /// Create an anonymizer with a mixing key (affects label scrambling,
    /// not the first-seen assignment order).
    pub fn new(key: u64) -> Anonymizer {
        Anonymizer {
            key,
            map: HashMap::new(),
            next: 1,
        }
    }

    /// Anonymize one address. The same input always yields the same label.
    pub(crate) fn anonymize(&mut self, addr: u32) -> u32 {
        if let Some(&label) = self.map.get(&addr) {
            return label;
        }
        // Scramble the sequential id with the key so labels carry no
        // ordering information.
        let seq = self.next;
        self.next += 1;
        let label = mix(seq as u64 ^ self.key) as u32 | 1; // never zero
                                                           // Guard against the (astronomically unlikely) collision by linear
                                                           // probing on the mixed value.
        let mut candidate = label;
        while self.map.values().any(|&v| v == candidate) {
            candidate = candidate.wrapping_add(0x9e37);
        }
        self.map.insert(addr, candidate);
        candidate
    }

    /// The raw→label mapping. Only the *simulation* may look at this (to
    /// join ground truth); the analysis side never sees raw addresses,
    /// preserving the paper's capture-time anonymization property.
    pub(crate) fn mapping(&self) -> &HashMap<u32, u32> {
        &self.map
    }
}

/// 64-bit finalizer (splitmix64-style avalanche).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_mapping() {
        let mut a = Anonymizer::new(42);
        let l1 = a.anonymize(1000);
        let l2 = a.anonymize(2000);
        assert_ne!(l1, l2);
        assert_eq!(a.anonymize(1000), l1);
        assert_eq!(a.anonymize(2000), l2);
        assert_eq!(a.mapping().len(), 2);
    }

    #[test]
    fn labels_do_not_leak_order() {
        let mut a = Anonymizer::new(7);
        let labels: Vec<u32> = (0..100).map(|i| a.anonymize(i)).collect();
        // Sequential inputs must not produce sequential labels.
        let monotone = labels.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert_eq!(monotone, 0);
    }

    #[test]
    fn different_keys_different_labels() {
        let mut a = Anonymizer::new(1);
        let mut b = Anonymizer::new(2);
        assert_ne!(a.anonymize(5), b.anonymize(5));
    }

    #[test]
    fn no_zero_labels() {
        let mut a = Anonymizer::new(3);
        for i in 0..1000 {
            assert_ne!(a.anonymize(i), 0);
        }
    }

    #[test]
    fn injective_over_many_inputs() {
        let mut a = Anonymizer::new(9);
        let labels: Vec<u32> = (0..5000).map(|i| a.anonymize(i)).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}
