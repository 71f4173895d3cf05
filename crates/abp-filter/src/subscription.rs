//! Filter lists and subscription/update behaviour.
//!
//! Adblock Plus re-downloads each subscribed list when its *soft expiry*
//! lapses — EasyList after 4 days, EasyPrivacy after 1 day — and typically
//! on browser bootstrap (§3.2 of the paper, citing the list headers and
//! Metwalley et al.). These downloads happen over HTTPS to the Adblock Plus
//! servers, which is what makes them visible to a passive observer as the
//! paper's second inference indicator.

use crate::hiding::HidingRule;
use crate::parser::{parse_document, ParsedDocument};
use crate::rule::NetFilter;

/// EasyList soft expiry (days) per its list header.
pub(crate) const EASYLIST_SOFT_EXPIRY_DAYS: f64 = 4.0;
/// EasyPrivacy soft expiry (days) per its list header.
pub(crate) const EASYPRIVACY_SOFT_EXPIRY_DAYS: f64 = 1.0;

/// A parsed filter list with its subscription metadata.
#[derive(Debug, Clone)]
pub struct FilterList {
    /// Short identifier, e.g. `easylist`, `easyprivacy`, `acceptable-ads`.
    pub name: String,
    /// Blocking rules.
    pub blocking: Vec<NetFilter>,
    /// Exception rules.
    pub exceptions: Vec<NetFilter>,
    /// Element-hiding rules.
    pub hiding: Vec<HidingRule>,
    /// Soft expiry in days (drives the update schedule).
    pub soft_expiry_days: f64,
    /// Lines that failed to parse, with reasons.
    pub invalid: Vec<(String, String)>,
}

impl FilterList {
    /// Parse a filter-list document. The soft expiry defaults by name
    /// (EasyPrivacy-like lists expire daily, everything else after 4 days).
    pub fn parse(name: &str, text: &str) -> FilterList {
        let ParsedDocument {
            blocking,
            exceptions,
            hiding,
            invalid,
            ..
        } = parse_document(text);
        let soft_expiry_days = if name.contains("privacy") {
            EASYPRIVACY_SOFT_EXPIRY_DAYS
        } else {
            EASYLIST_SOFT_EXPIRY_DAYS
        };
        FilterList {
            name: name.to_string(),
            blocking,
            exceptions,
            hiding,
            soft_expiry_days,
            invalid,
        }
    }

    /// The network rules, blocking then exceptions: the order an engine
    /// loads them in.
    pub fn network_rules(&self) -> impl Iterator<Item = &NetFilter> {
        self.blocking.iter().chain(&self.exceptions)
    }

    /// The query literals of the network rules, in their order (see
    /// [`NetFilter::query_literals`]).
    pub fn query_literals(&self) -> impl Iterator<Item = &str> {
        self.network_rules().flat_map(NetFilter::query_literals)
    }

    /// Total number of rules.
    pub fn rule_count(&self) -> usize {
        self.blocking.len() + self.exceptions.len() + self.hiding.len()
    }
}

/// Tracks when a subscribed list was last fetched and decides when the
/// plugin contacts the Adblock Plus servers again.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionState {
    /// Soft expiry in seconds.
    pub expiry_secs: f64,
    /// Simulation time of the last completed download.
    pub last_download: f64,
}

impl SubscriptionState {
    /// A subscription freshly downloaded at time `now`.
    pub fn fresh(expiry_days: f64, now: f64) -> SubscriptionState {
        SubscriptionState {
            expiry_secs: expiry_days * 86_400.0,
            last_download: now,
        }
    }

    /// A subscription whose last download is `age_secs` in the past at time
    /// zero — used to randomize the initial phase across the population so
    /// that not every simulated user updates at the same instant.
    pub fn aged(expiry_days: f64, age_secs: f64) -> SubscriptionState {
        SubscriptionState {
            expiry_secs: expiry_days * 86_400.0,
            last_download: -age_secs,
        }
    }

    /// Does the plugin need to re-download at time `now`? Adblock Plus
    /// checks on browser bootstrap and periodically while running; the
    /// caller invokes this at those instants.
    pub fn due(&self, now: f64) -> bool {
        now - self.last_download >= self.expiry_secs
    }

    /// Record a completed download at `now`.
    pub fn downloaded(&mut self, now: f64) {
        self.last_download = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_assigns_expiry_by_name() {
        let el = FilterList::parse("easylist", "||ads.example^\n");
        assert_eq!(el.soft_expiry_days, EASYLIST_SOFT_EXPIRY_DAYS);
        let ep = FilterList::parse("easyprivacy", "||tracker.example^\n");
        assert_eq!(ep.soft_expiry_days, EASYPRIVACY_SOFT_EXPIRY_DAYS);
    }

    #[test]
    fn rule_count() {
        let l = FilterList::parse("x", "||a.com^\n@@||b.com^$document\nc.com##.ad\n! note\n");
        assert_eq!(l.blocking.len(), 1);
        assert_eq!(l.exceptions.len(), 1);
        assert_eq!(l.hiding.len(), 1);
        assert_eq!(l.rule_count(), 3);
    }

    #[test]
    fn subscription_due_cycle() {
        let mut s = SubscriptionState::fresh(1.0, 0.0);
        assert!(!s.due(3600.0));
        assert!(s.due(86_400.0));
        s.downloaded(86_400.0);
        assert!(!s.due(100_000.0));
        assert!(s.due(2.0 * 86_400.0));
    }

    #[test]
    fn aged_subscription_due_immediately_when_expired() {
        let s = SubscriptionState::aged(1.0, 90_000.0);
        assert!(s.due(0.0));
        let s2 = SubscriptionState::aged(1.0, 1_000.0);
        assert!(!s2.due(0.0));
        // ... but due once the remaining lifetime passes.
        assert!(s2.due(86_400.0 - 1_000.0 + 1.0));
    }
}
