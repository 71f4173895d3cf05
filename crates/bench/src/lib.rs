//! What `bench_gate` and `e2e` share: the standard ecosystem, captured
//! trace and URL corpus the gate measures over, and the process-level
//! readings (`sys`) both binaries scale and pin their timings with.

/// The e2e harness's readings, compiled from the file the benchmark
/// contract owns so the gate cannot drift from it.
#[path = "bin/e2e/sys.rs"]
pub mod sys;

use browsersim::{ActivityProfile, DriveConfig, Population, PopulationConfig};
use netsim::Trace;
use webgen::{Ecosystem, EcosystemConfig};

/// The ecosystem every gate row runs over (deterministic).
pub fn bench_ecosystem() -> Ecosystem {
    Ecosystem::generate(EcosystemConfig {
        publishers: 150,
        ad_companies: 16,
        trackers: 18,
        cdn_edges: 16,
        hosting_servers: 24,
        seed: 0xBE7C,
        ..Default::default()
    })
}

/// The ecosystem's four lists, in the paper's load order.
pub fn bench_lists(eco: &Ecosystem) -> Vec<abp_filter::FilterList> {
    vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]
}

/// The passive classifier over the ecosystem's four lists.
pub fn bench_classifier(eco: &Ecosystem) -> adscope::PassiveClassifier {
    adscope::PassiveClassifier::new(bench_lists(eco))
}

/// A ~1-hour evening trace of a small population (tens of thousands of
/// requests) for the pipeline, stream and trace-reader rows.
pub fn bench_trace(eco: &Ecosystem) -> Trace {
    let mut pop = Population::generate(
        eco,
        &PopulationConfig {
            households: 40,
            seed: 0xBE7D,
            ..Default::default()
        },
    );
    browsersim::drive::drive(
        eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "bench".into(),
            duration_secs: 3600.0,
            start_hour: 20,
            start_weekday: 2,
            slice_secs: 600.0,
            seed: 0xBE7E,
        },
    )
    .trace
}

/// A URL corpus mixing ad and content URLs from the ecosystem's templates.
pub fn bench_urls(
    eco: &Ecosystem,
    n: usize,
) -> Vec<(http_model::Url, http_model::ContentCategory)> {
    let mut out = Vec::with_capacity(n);
    'outer: for p in &eco.publishers {
        for page in &p.pages {
            for obj in &page.objects {
                let url = http_model::Url::from_parts(
                    http_model::url::Scheme::Http,
                    &obj.host,
                    &obj.path,
                    Some("cb=123456&ord=9876543"),
                );
                out.push((url, obj.category));
                if out.len() >= n {
                    break 'outer;
                }
            }
        }
    }
    out
}
