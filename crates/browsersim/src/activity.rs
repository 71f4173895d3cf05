//! Diurnal and weekly activity profiles.
//!
//! Figure 5a shows the classic residential pattern: a deep night trough, a
//! visible lunch bump, an evening peak just before midnight, and fewer
//! requests on the weekend (lowest on Saturday). Figure 5b's diurnal ad
//! ratio comes partly from *who* is online: at peak time non-ad-blocker
//! actives outnumber Adblock Plus actives two to one, while off-hours the
//! counts are roughly equal (§7.1). The [`ActivityProfile`] encodes both.

/// Relative browsing intensity per hour of day, weekday vs weekend, with an
/// ad-blocker population skew.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityProfile {
    /// Hourly weights for weekdays (24 entries, arbitrary scale).
    pub weekday: [f64; 24],
    /// Hourly weights for weekends.
    pub weekend: [f64; 24],
    /// Multiplier applied to the *peak-hour surplus* for ad-blocker users:
    /// 0.0 flattens their profile entirely, 1.0 makes it identical to the
    /// general population.
    pub adblock_peak_damping: f64,
}

impl Default for ActivityProfile {
    fn default() -> Self {
        // Hand-tuned residential curve: night trough 02–06, morning ramp,
        // lunch bump at 12–13, evening peak 20–23.
        let weekday = [
            0.45, 0.25, 0.15, 0.10, 0.10, 0.12, 0.20, 0.35, 0.50, 0.60, 0.65, 0.70, 0.85, 0.80,
            0.70, 0.70, 0.75, 0.85, 1.00, 1.15, 1.30, 1.40, 1.35, 0.90,
        ];
        // Weekend: flatter, lower overall (lowest Saturday handled by the
        // per-day factor below).
        let weekend = [
            0.50, 0.30, 0.18, 0.12, 0.10, 0.10, 0.15, 0.22, 0.35, 0.50, 0.60, 0.65, 0.75, 0.72,
            0.65, 0.62, 0.65, 0.72, 0.85, 0.95, 1.05, 1.10, 1.05, 0.75,
        ];
        ActivityProfile {
            weekday,
            weekend,
            adblock_peak_damping: 0.35,
        }
    }
}

impl ActivityProfile {
    /// Browsing weight for a given absolute simulation time.
    ///
    /// `start_hour`/`start_weekday` anchor t=0 on the wall clock
    /// (weekday 0 = Monday).
    pub fn weight(
        &self,
        t_secs: f64,
        start_hour: u32,
        start_weekday: u32,
        adblock_user: bool,
    ) -> f64 {
        let abs_hours = t_secs / 3600.0 + start_hour as f64;
        let hour = (abs_hours as u64 % 24) as usize;
        let day = ((start_weekday as u64) + (abs_hours as u64) / 24) % 7;
        let is_weekend = day >= 5;
        let base = if is_weekend {
            self.weekend[hour]
        } else {
            self.weekday[hour]
        };
        // Saturday (day 5) is the weekly minimum in the paper's trace.
        let day_factor = if day == 5 { 0.85 } else { 1.0 };
        let w = base * day_factor;
        if adblock_user {
            // Damp the surplus above the daily mean: ad-blocker users are
            // relatively more present off-peak.
            let mean = 0.62;
            mean + (w - mean) * self.adblock_peak_damping
        } else {
            w
        }
    }

    /// Expected page visits in a time slice for a user with `visits_per_day`
    /// average demand.
    pub(crate) fn expected_visits(
        &self,
        t_secs: f64,
        slice_secs: f64,
        start_hour: u32,
        start_weekday: u32,
        visits_per_day: f64,
        adblock_user: bool,
    ) -> f64 {
        let w = self.weight(t_secs, start_hour, start_weekday, adblock_user);
        // Normalize so the daily integral of weight ≈ mean weight * 24h.
        let mean_w = 0.62;
        visits_per_day * (w / mean_w) * (slice_secs / 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evening_peak_night_trough() {
        let p = ActivityProfile::default();
        // 21:00 on a Tuesday vs 04:00.
        let peak = p.weight(0.0, 21, 1, false);
        let trough = p.weight(0.0, 4, 1, false);
        assert!(peak > 4.0 * trough, "peak {peak} trough {trough}");
    }

    #[test]
    fn lunch_bump_visible() {
        let p = ActivityProfile::default();
        let lunch = p.weight(0.0, 12, 2, false);
        let morning = p.weight(0.0, 10, 2, false);
        let after = p.weight(0.0, 15, 2, false);
        assert!(lunch > morning && lunch > after);
    }

    #[test]
    fn weekend_lower_than_weekday_evening() {
        let p = ActivityProfile::default();
        let tue_evening = p.weight(0.0, 21, 1, false);
        let sat_evening = p.weight(0.0, 21, 5, false);
        assert!(sat_evening < tue_evening);
    }

    #[test]
    fn adblock_users_flatter() {
        let p = ActivityProfile::default();
        let peak_ratio = p.weight(0.0, 21, 1, false) / p.weight(0.0, 21, 1, true);
        let trough_ratio = p.weight(0.0, 4, 1, false) / p.weight(0.0, 4, 1, true);
        // At peak, non-adblock actives clearly outnumber; at trough the
        // ratio flips below one (adblock users relatively more present).
        assert!(peak_ratio > 1.3, "peak ratio {peak_ratio}");
        assert!(trough_ratio < 1.0, "trough ratio {trough_ratio}");
    }

    #[test]
    fn day_rolls_over() {
        let p = ActivityProfile::default();
        // Start Friday 23:00; 2 hours later it is Saturday 01:00.
        let w = p.weight(2.0 * 3600.0, 23, 4, false);
        let expected = p.weekend[1] * 0.85;
        assert!((w - expected).abs() < 1e-9);
    }

    #[test]
    fn expected_visits_scale() {
        let p = ActivityProfile::default();
        // Integrate a full day in 1h slices: should be within 25 % of the
        // demand (profile mean vs the 0.62 normalizer).
        let mut total = 0.0;
        for h in 0..24 {
            total += p.expected_visits(h as f64 * 3600.0, 3600.0, 0, 1, 40.0, false);
        }
        assert!((total - 40.0).abs() < 10.0, "total {total}");
    }
}
