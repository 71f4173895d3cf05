//! Ad-blocker usage inference (§3.2, §6.2, §6.3).
//!
//! Two indicators, crossed into the four user classes of Table 3:
//!
//! * **Ratio** — an active browser with at most 5 % EasyList-classified
//!   requests qualifies as an ad-blocker candidate (threshold validated by
//!   the §4 active measurements).
//! * **EasyList downloads** — HTTPS connections from the user's household
//!   to the Adblock Plus server IPs. NAT hides *which* browser in the
//!   household performed the download, so this indicator is per household.

use crate::users::UserAggregate;
use netsim::record::TlsConnection;
use std::collections::HashSet;

/// The ratio threshold (percent) below which a browser qualifies as an
/// ad-blocker candidate.
pub const AD_RATIO_THRESHOLD_PCT: f64 = 5.0;
/// The activity threshold (requests) defining "active users".
pub const ACTIVE_USER_MIN_REQUESTS: u64 = 1_000;

/// The four indicator classes of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UserClass {
    /// High ratio, no downloads: no ad-blocker.
    A,
    /// High ratio, downloads seen: mixed household (someone else runs ABP).
    B,
    /// Low ratio, downloads seen: likely Adblock Plus user.
    C,
    /// Low ratio, no downloads: other blocker or ad-light browsing.
    D,
}

impl UserClass {
    /// All classes in table order.
    pub const ALL: [UserClass; 4] = [UserClass::A, UserClass::B, UserClass::C, UserClass::D];

    /// Derive the class from the two indicators.
    pub(crate) fn from_indicators(low_ratio: bool, downloads: bool) -> UserClass {
        match (low_ratio, downloads) {
            (false, false) => UserClass::A,
            (false, true) => UserClass::B,
            (true, true) => UserClass::C,
            (true, false) => UserClass::D,
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            UserClass::A => "A",
            UserClass::B => "B",
            UserClass::C => "C",
            UserClass::D => "D",
        }
    }
}

/// One classified user with its indicator values.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredUser {
    /// Index into the input `users` slice.
    pub user_idx: usize,
    /// The EasyList ratio (percent).
    pub ratio_pct: f64,
    /// Household-level download indicator.
    pub downloads: bool,
    /// Resulting class.
    pub class: UserClass,
}

/// The list-download predicate: an HTTPS connection on port 443 to one of
/// the Adblock Plus servers — the paper resolves the server IPs via DNS
/// ahead of time and matches flows by address.
pub(crate) fn is_list_download(flow: &TlsConnection, abp_ips: &HashSet<u32>) -> bool {
    flow.server_port == 443 && abp_ips.contains(&flow.server_ip)
}

/// The households (client IPs) with at least one `is_list_download` flow.
pub fn households_with_downloads(flows: &[TlsConnection], abp_ips: &[u32]) -> HashSet<u32> {
    let ips: HashSet<u32> = abp_ips.iter().copied().collect();
    flows
        .iter()
        .filter(|f| is_list_download(f, &ips))
        .map(|f| f.client_ip)
        .collect()
}

/// Table 3's rule, written once: the EasyList ratio (percent) and class of
/// a user with these counters, or `None` for a non-browser or an inactive
/// one (the table covers the annotated active set only). A user with no
/// request is inactive at any floor.
pub(crate) fn user_class(
    is_browser: bool,
    requests: u64,
    easylist_blockable: u64,
    downloads: bool,
    threshold_pct: f64,
    min_requests: u64,
) -> Option<(f64, UserClass)> {
    if !is_browser || requests < min_requests.max(1) {
        return None;
    }
    let ratio = stats::pct(easylist_blockable, requests);
    let class = UserClass::from_indicators(ratio <= threshold_pct, downloads);
    Some((ratio, class))
}

/// Classify the *active browsers* among `users` into the four classes
/// (`user_class`); everyone else is skipped.
pub fn classify_users(
    users: &[UserAggregate],
    download_households: &HashSet<u32>,
    threshold_pct: f64,
    min_requests: u64,
) -> Vec<InferredUser> {
    users
        .iter()
        .enumerate()
        .filter_map(|(user_idx, u)| {
            let downloads = download_households.contains(&u.key.ip);
            let (ratio_pct, class) = user_class(
                u.is_browser(),
                u.counters.requests,
                u.counters.easylist_blockable,
                downloads,
                threshold_pct,
                min_requests,
            )?;
            Some(InferredUser {
                user_idx,
                ratio_pct,
                downloads,
                class,
            })
        })
        .collect()
}

/// One class's row of Table 3, as counts: callers turn them into shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassTally {
    /// The class.
    pub class: UserClass,
    /// Active browsers in this class.
    pub instances: u64,
    /// Their total requests.
    pub requests: u64,
    /// Their total ad requests.
    pub ad_requests: u64,
}

/// Tally Table 3 over the classified users, in class order A–D.
pub fn table3(users: &[UserAggregate], inferred: &[InferredUser]) -> [ClassTally; 4] {
    let mut classes = UserClass::ALL.map(|class| ClassTally {
        class,
        instances: 0,
        requests: 0,
        ad_requests: 0,
    });
    for iu in inferred {
        let c = &users[iu.user_idx].counters;
        // `UserClass::ALL` is in declaration order.
        let slot = &mut classes[iu.class as usize];
        slot.instances += 1;
        slot.requests += c.requests;
        slot.ad_requests += c.ad_requests;
    }
    classes
}

/// §6.3 subscription estimates for the likely-ABP population (type C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscriptionEstimates {
    /// Fraction of type-C users with ≤ `tracker_tolerance` EasyPrivacy hits
    /// — the EasyPrivacy-subscriber estimate.
    pub easyprivacy_pct: f64,
    /// The same fraction among non-adblock (type A) users, as baseline.
    pub easyprivacy_baseline_pct: f64,
    /// Fraction of type-C users with zero whitelist hits — the
    /// acceptable-ads opt-out indicator.
    pub acceptable_optout_pct: f64,
    /// The same fraction among type-A users.
    pub acceptable_optout_baseline_pct: f64,
}

/// Compute the §6.3 estimates. `tracker_tolerance` absorbs
/// misclassifications (the paper uses 0 and 10).
pub fn subscription_estimates(
    users: &[UserAggregate],
    inferred: &[InferredUser],
    tracker_tolerance: u64,
    whitelist_tolerance: u64,
) -> SubscriptionEstimates {
    let frac = |class: UserClass, pred: &dyn Fn(&UserAggregate) -> bool| -> f64 {
        let members: Vec<&UserAggregate> = inferred
            .iter()
            .filter(|iu| iu.class == class)
            .map(|iu| &users[iu.user_idx])
            .collect();
        if members.is_empty() {
            return 0.0;
        }
        members.iter().filter(|u| pred(u)).count() as f64 / members.len() as f64 * 100.0
    };
    let trackers = |u: &UserAggregate| u.counters.easyprivacy_hits <= tracker_tolerance;
    let whitelisted = |u: &UserAggregate| u.counters.whitelist_hits <= whitelist_tolerance;
    SubscriptionEstimates {
        easyprivacy_pct: frac(UserClass::C, &trackers),
        easyprivacy_baseline_pct: frac(UserClass::A, &trackers),
        acceptable_optout_pct: frac(UserClass::C, &whitelisted),
        acceptable_optout_baseline_pct: frac(UserClass::A, &whitelisted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::users::{UserKey, UserTally};
    use http_model::{BrowserFamily, DeviceClass};

    fn user(ip: u32, requests: u64, el_hits: u64, ep_hits: u64, wl_hits: u64) -> UserAggregate {
        UserAggregate {
            key: UserKey {
                ip,
                user_agent: format!("UA-{ip}"),
            },
            family: BrowserFamily::Firefox,
            device: DeviceClass::DesktopBrowser,
            counters: UserTally {
                requests,
                bytes: requests * 100,
                ad_requests: el_hits + ep_hits + wl_hits,
                easylist_blockable: el_hits,
                easylist_hits: el_hits,
                regional_hits: 0,
                easyprivacy_hits: ep_hits,
                whitelist_hits: wl_hits,
            },
        }
    }

    #[test]
    fn class_matrix() {
        assert_eq!(UserClass::from_indicators(false, false), UserClass::A);
        assert_eq!(UserClass::from_indicators(false, true), UserClass::B);
        assert_eq!(UserClass::from_indicators(true, true), UserClass::C);
        assert_eq!(UserClass::from_indicators(true, false), UserClass::D);
    }

    #[test]
    fn download_household_matching() {
        let flows = vec![
            TlsConnection {
                ts: 0.0,
                client_ip: 10,
                server_ip: 900,
                server_port: 443,
                bytes: 1,
            },
            TlsConnection {
                ts: 0.0,
                client_ip: 11,
                server_ip: 901,
                server_port: 443,
                bytes: 1,
            },
            // Same server IP on the wrong port is not a download.
            TlsConnection {
                ts: 0.0,
                client_ip: 12,
                server_ip: 900,
                server_port: 8443,
                bytes: 1,
            },
        ];
        let hh = households_with_downloads(&flows, &[900]);
        assert!(hh.contains(&10));
        assert!(!hh.contains(&11));
        assert!(!hh.contains(&12));
    }

    #[test]
    fn four_classes_assigned() {
        let users = vec![
            user(1, 2000, 300, 10, 5), // high ratio, no dl -> A
            user(2, 2000, 300, 10, 5), // high ratio, dl -> B
            user(3, 2000, 10, 0, 2),   // low ratio, dl -> C
            user(4, 2000, 10, 0, 2),   // low ratio, no dl -> D
            user(5, 10, 0, 0, 0),      // inactive: skipped
        ];
        let downloads: HashSet<u32> = [2u32, 3u32].into_iter().collect();
        let inferred = classify_users(&users, &downloads, 5.0, 1000);
        assert_eq!(inferred.len(), 4);
        let classes: Vec<UserClass> = inferred.iter().map(|i| i.class).collect();
        assert_eq!(
            classes,
            vec![UserClass::A, UserClass::B, UserClass::C, UserClass::D]
        );
    }

    #[test]
    fn table3_shares() {
        let users = vec![
            user(1, 1000, 300, 0, 0),
            user(2, 1000, 10, 0, 0),
            user(3, 3000, 20, 0, 0),
        ];
        let downloads: HashSet<u32> = [2u32, 3u32].into_iter().collect();
        let inferred = classify_users(&users, &downloads, 5.0, 1000);
        let tally = |class, instances, requests, ad_requests| ClassTally {
            class,
            instances,
            requests,
            ad_requests,
        };
        assert_eq!(
            table3(&users, &inferred),
            [
                tally(UserClass::A, 1, 1000, 300),
                tally(UserClass::B, 0, 0, 0),
                tally(UserClass::C, 2, 4000, 30),
                tally(UserClass::D, 0, 0, 0),
            ]
        );
    }

    /// No request is inactive even at a floor of 0: the stream's user table
    /// holds a row before its first request is classified.
    #[test]
    fn a_user_with_no_request_is_never_active() {
        let users = vec![user(1, 0, 0, 0, 0), user(2, 1, 0, 0, 0)];
        let inferred = classify_users(&users, &HashSet::new(), 5.0, 0);
        assert_eq!(inferred.len(), 1);
        assert_eq!(inferred[0].user_idx, 1);
    }

    #[test]
    fn subscription_estimates_separate_populations() {
        // Type-C users: mostly no EasyPrivacy hits (they don't subscribe —
        // wait, inverted: *with* EasyPrivacy subscribed they'd have no EP
        // hits in their own traffic... the estimator counts users with few
        // EP-classified requests as likely EP subscribers).
        let users = vec![
            user(1, 2000, 300, 50, 10), // A: plenty of tracker traffic
            user(2, 2000, 10, 0, 1),    // C with EP subscribed (no EP hits)
            user(3, 2000, 10, 40, 3),   // C without EP (trackers get through)
        ];
        let downloads: HashSet<u32> = [2u32, 3u32].into_iter().collect();
        let inferred = classify_users(&users, &downloads, 5.0, 1000);
        let est = subscription_estimates(&users, &inferred, 0, 0);
        assert!((est.easyprivacy_pct - 50.0).abs() < 0.01);
        assert_eq!(est.easyprivacy_baseline_pct, 0.0);
    }

    #[test]
    fn non_browsers_excluded() {
        let mut u = user(1, 5000, 10, 0, 0);
        u.device = DeviceClass::MobileApp;
        let inferred = classify_users(&[u], &HashSet::new(), 5.0, 1000);
        assert!(inferred.is_empty());
    }
}
