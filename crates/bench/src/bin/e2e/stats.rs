//! Order statistics over rep timings, and the rule that decides when a
//! workload has run enough reps.

/// First quartile, median and third quartile by linear interpolation
/// between closest ranks (position `q·(n−1)`). `None` for an empty sample.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Some((at(0.25), at(0.5), at(0.75)))
}

/// Median; 0 for an empty sample (callers only pass non-empty ones, and a
/// 0 timing is caught as a failed run downstream).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(_, m, _)| m)
}

/// How far `b` is from `a`, as a share of `a` (positive = `b` larger).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a
    }
}

/// When to stop repeating a measurement: after at least `min_secs` of
/// timed wall *and* `min_reps` reps, or at `max_reps` whatever the time.
#[derive(Debug, Clone, Copy)]
pub struct RepRule {
    pub min_secs: f64,
    pub min_reps: usize,
    pub max_reps: usize,
}

impl RepRule {
    pub fn done(&self, timed_secs: f64, reps: usize) -> bool {
        reps >= self.max_reps || (reps >= self.min_reps && timed_secs >= self.min_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        // Unsorted input; n = 5 puts the quartiles on exact ranks.
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((2.0, 3.0, 4.0)));
        // n = 4: positions 0.75, 1.5, 2.25.
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0]),
            Some((17.5, 25.0, 32.5))
        );
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn rel_diff_is_signed_and_safe_at_zero() {
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(100.0, 90.0), -0.1);
        assert_eq!(rel_diff(0.0, 5.0), 0.0);
    }

    #[test]
    fn rep_rule_needs_both_time_and_reps_but_caps_reps() {
        let rule = RepRule {
            min_secs: 10.0,
            min_reps: 3,
            max_reps: 5,
        };
        // Enough time, too few reps (slow workload): keep going.
        assert!(!rule.done(12.0, 2));
        assert!(rule.done(18.0, 3));
        // Enough reps, too little time (fast workload): keep going ...
        assert!(!rule.done(0.9, 4));
        // ... until the cap.
        assert!(rule.done(1.1, 5));
        assert!(!rule.done(0.0, 0));
    }
}
