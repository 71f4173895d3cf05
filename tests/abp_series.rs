//! The global registry's `abp_*` series describe the passive classifier
//! alone. The simulated Adblock Plus plugins match on compiled engines of
//! their own, which count into no registry: generating and driving a
//! population moves none of these series and publishes no compile gauge
//! over the classifier's. A test binary of its own, because it reads the
//! process-global registry.

use adscope::pipeline::classify_trace;
use annoyed_users::prelude::*;
use browsersim::drive::drive;
use obs::SampleValue;

#[test]
fn abp_series_count_the_passive_classifier_alone() {
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 40,
        ad_companies: 8,
        trackers: 8,
        cdn_edges: 6,
        hosting_servers: 10,
        seed: 0xAB5,
        ..Default::default()
    });
    // Built first, like the experiments world: a plugin engine built after
    // it must not overwrite its compile gauges.
    let classifier = PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]);
    let mut pop = Population::generate(
        &eco,
        &PopulationConfig {
            households: 30,
            seed: 2,
            ..Default::default()
        },
    );
    let out = drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig {
            name: "abp-series".into(),
            duration_secs: 7200.0,
            start_hour: 20,
            start_weekday: 1,
            slice_secs: 600.0,
            seed: 3,
        },
    );
    let blocked: u64 = out.ground_truth.iter().map(|g| g.blocked).sum();
    assert!(blocked > 0, "the plugins must have matched requests");

    let classified = classify_trace(&out.trace, &classifier, PipelineOptions::default());
    let snap = obs::global().snapshot();
    let counter = |name| snap.counter(name, &[]);
    assert_eq!(
        counter("abp_requests_total"),
        classified.requests.len() as u64,
        "one count per classified request, none per plugin match"
    );
    assert!(
        counter("abp_candidates_total") >= counter("abp_tokenizer_hits_total"),
        "one compiled engine surfaces every tokenizer hit as a candidate"
    );
    let rules = match snap.get("abp_compiled_rules", &[]) {
        Some(SampleValue::Gauge(v)) => *v,
        other => panic!("abp_compiled_rules is {other:?}"),
    };
    assert_eq!(rules, classifier.rule_count() as f64);
}
