//! Browser and user-population simulation.
//!
//! The paper observes real users: households behind NAT, a mix of desktop
//! and mobile browsers plus consoles/TVs/apps, some browsers running
//! Adblock Plus (in several configurations) or Ghostery, activity following
//! strong diurnal and weekly patterns. This crate simulates exactly that
//! population over the synthetic ad-scape of `webgen`, emitting
//! [`netsim::RequestEvent`]s that the capture turns into traces:
//!
//! * [`plugin`] — the in-browser ad-blocker interface; [`adblockplus`] is a
//!   faithful client of the `abp-filter` engine **with full DOM knowledge**
//!   (true content types, true page context) — the gold standard the
//!   passive methodology is validated against; [`ghostery`] is a
//!   company-database blocker with Ads/Privacy/Paranoia modes.
//! * [`browser`] — page-load logic: referer chains, redirects, dynamic
//!   query strings, mixed HTTP/HTTPS, element hiding, plugin consultation.
//! * [`device`] — non-browser traffic sources (apps, consoles, smart TVs,
//!   updaters) that pollute the ⟨IP, User-Agent⟩ space like in Figure 3.
//! * [`activity`] — diurnal/weekly activity profiles, with the ad-blocker
//!   population skewing toward off-peak hours (the §7.1 explanation for the
//!   diurnal ad-ratio pattern).
//! * [`population`] — adoption rates per browser family (§6.2: ~30 % of
//!   Firefox/Chrome, much less Safari/IE) and Adblock Plus configuration
//!   shares (§6.3: most users skip EasyPrivacy, few disable acceptable ads).
//! * [`drive`] — the RBN trace driver (whole population over hours/days).
//! * [`active`] — the §4 active-measurement harness: an instrumented
//!   browser crawling the top sites under seven profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod activity;
pub mod adblockplus;
pub mod browser;
pub mod device;
pub mod drive;
pub mod ghostery;
pub mod plugin;
pub mod population;

pub use active::{ActiveConfig, ActiveResults, BrowserProfile};
pub use activity::ActivityProfile;
pub use adblockplus::AbpConfig;
pub use browser::{Browser, PageVisitStats};
pub use drive::{drive_stream, DriveConfig, DriveOutput, StreamDriveOutput};
pub use plugin::{ListDownload, Plugin};
pub use population::{Population, PopulationConfig};

/// This crate's version, recorded in run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
