//! # annoyed-users
//!
//! A full reproduction of *Annoyed Users: Ads and Ad-Block Usage in the
//! Wild* (Pujol, Hohlfeld, Feldmann — IMC 2015) as a Rust workspace.
//!
//! The paper classifies advertisement traffic in HTTP header-only traces
//! from a residential broadband network by re-implementing Adblock Plus'
//! decision procedure over reconstructed page metadata, and infers
//! ad-blocker usage from two passive indicators. This crate is the facade
//! over the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`abp_filter`] | Adblock Plus filter engine (EasyList syntax, token-indexed matcher, element hiding, subscriptions) |
//! | [`http_model`] | URLs, domains, MIME categories, User-Agent synthesis/classification |
//! | [`netsim`] | flow-level capture: handshake timing, NAT, anonymization, DAG-style port classification |
//! | [`webgen`] | synthetic ad-scape: ASes, servers, ad-tech, publishers, consistent filter lists |
//! | [`browsersim`] | browsers with plugins, user population, diurnal activity, active crawls |
//! | [`adscope`] | **the paper's methodology**: referrer map, content-type inference, URL normalization, classification, inference, characterization |
//! | [`stats`] | ECDFs, densities, box plots, heat maps, text rendering |
//!
//! # Quickstart
//!
//! ```
//! use annoyed_users::prelude::*;
//!
//! // 1. Generate a small synthetic ad-scape (publishers, ad-tech, lists).
//! let eco = Ecosystem::generate(EcosystemConfig {
//!     publishers: 60, ad_companies: 10, trackers: 12,
//!     cdn_edges: 8, hosting_servers: 12, seed: 1,
//!     ..Default::default()
//! });
//!
//! // 2. Simulate a small population for two evening hours and capture.
//! let mut pop = Population::generate(&eco, &PopulationConfig {
//!     households: 30, seed: 2, ..Default::default()
//! });
//! let out = browsersim::drive::drive(
//!     &eco, &mut pop, &ActivityProfile::default(),
//!     &DriveConfig { name: "demo".into(), duration_secs: 7200.0,
//!                    start_hour: 20, start_weekday: 1,
//!                    slice_secs: 600.0, seed: 3 });
//!
//! // 3. Run the paper's passive pipeline over the captured trace.
//! let classifier = PassiveClassifier::new(vec![
//!     eco.lists.easylist(), eco.lists.regional(),
//!     eco.lists.easyprivacy(), eco.lists.acceptable()]);
//! let classified = adscope::pipeline::classify_trace(
//!     &out.trace, &classifier, PipelineOptions::default());
//!
//! let ad_share = classified.ad_request_count() as f64
//!     / classified.requests.len() as f64;
//! assert!(ad_share > 0.02 && ad_share < 0.6);
//! ```

#![forbid(unsafe_code)]

pub use abp_filter;
pub use adscope;
pub use browsersim;
pub use http_model;
pub use netsim;
pub use stats;
pub use webgen;

/// The common imports for examples and experiments.
pub mod prelude {
    pub use abp_filter::{CompiledEngine, FilterList, Request};
    pub use adscope::{
        AdLabel, Attribution, ClassifiedRequest, ClassifiedTrace, ListKind, PassiveClassifier,
        PipelineOptions, UserAggregate,
    };
    pub use browsersim::{
        ActiveConfig, ActivityProfile, BrowserProfile, DriveConfig, Population, PopulationConfig,
    };
    pub use http_model::{BrowserFamily, ContentCategory, DeviceClass, Url, UserAgent};
    pub use netsim::{Capture, Region, RequestEvent, Trace};
    pub use webgen::{Ecosystem, EcosystemConfig, SiteCategory};
}
