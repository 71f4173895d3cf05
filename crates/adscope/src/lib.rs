//! **adscope** — the paper's core contribution: classifying advertisement
//! traffic in HTTP *header-only* traces and inferring ad-blocker usage.
//!
//! The pipeline mirrors Figure 1 of the paper:
//!
//! ```text
//! trace ──► extract (Bro HTTP analyzer + Location extension)
//!       ──► reconstruct web page metadata
//!             ├── referrer map  (referers, redirects, embedded URLs)
//!             ├── content type  (file extension ► Content-Type ► redirect)
//!             └── base URL      (normalize dynamic query strings,
//!                                preserving filter-list literals)
//!       ──► abp-filter classification
//!             result = {is a match, which filter list, is whitelisted}
//! ```
//!
//! On top of the per-request verdicts sit the two analyses of §6–§8:
//!
//! * [`users`] / [`infer`] — per-⟨IP, User-Agent⟩ aggregation, browser
//!   annotation, and the two ad-blocker indicators (ad-request ratio and
//!   EasyList downloads) crossed into the four classes of Table 3.
//! * [`characterize`] — ad-traffic characterization: time series
//!   (Fig. 5), content types (Table 4), object sizes (Fig. 6), whitelist
//!   effects (§7.3), server infrastructure (§8.1), AS attribution
//!   (Table 5) and RTB latency signatures (Fig. 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod characterize;
pub mod classify;
pub mod content;
pub mod degrade;
pub mod extract;
pub mod infer;
pub mod intern;
pub mod normalize;
pub mod pipeline;
pub mod planes;
pub mod population;
mod prehash;
pub mod provenance;
pub mod refmap;
pub mod shard;
pub mod stream;
pub mod users;
pub mod window;

pub use classify::{AdLabel, Attribution, ListKind, PassiveClassifier};
pub use degrade::DegradationReport;
pub use pipeline::{ClassifiedRequest, ClassifiedTrace, PipelineOptions};
pub use population::{PopulationOptions, PopulationReport, PopulationSketches};
pub use provenance::{TraceOptions, Tracer, VerdictProvenance};
pub use stream::{
    classify_stream_chunks, classify_stream_file, CheckpointOptions, StreamError, StreamOptions,
    StreamReport,
};
pub use users::{UserAggregate, UserKey, UserTally};
pub use window::WindowOptions;

/// This crate's version, recorded in run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
