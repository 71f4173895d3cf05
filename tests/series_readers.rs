//! Every series a run exports has a reader. The whole path a run takes —
//! an ecosystem generated, a population driven, its trace written through
//! `TraceWriter`, then stream-classified with the population and alert
//! planes, a quarantine sidecar and checkpoints on — leaves exactly the
//! series below in the global registry, and each names what reads it by
//! name. A series that nothing reads is removed at its producer, not added
//! here. A test binary of its own, because it reads the process-global
//! registry.

use adscope::stream::{classify_stream_file, CheckpointOptions, StreamOptions};
use annoyed_users::prelude::*;
use browsersim::drive::drive_stream;
use netsim::stream::TraceWriter;

/// The series a run leaves, by name, each with its reader.
const SERIES: &[(&str, &str)] = &[
    (
        "abp_candidates_total",
        "e2e ledger; tests/abp_series.rs; engine_differential",
    ),
    ("abp_compiled_rules", "tests/abp_series.rs"),
    (
        "abp_first_match_depth",
        "engine_differential's tallies; obs prometheus tests",
    ),
    (
        "abp_prefilter_rejects_total",
        "e2e ledger; engine_differential",
    ),
    ("abp_requests_total", "tests/abp_series.rs; fast_paths"),
    (
        "abp_rules_evaluated_total",
        "engine_differential; fast_paths",
    ),
    (
        "abp_tokenizer_hits_total",
        "tests/abp_series.rs; fast_paths",
    ),
    ("abp_whitelist_overrides_total", "fast_paths"),
    (
        "adscope_degradation_total",
        "health::verdict (poisoned_records); metrics_reconciliation",
    ),
    (
        "adscope_requests_classified_total",
        "ci.sh exposition gate; stream tests",
    ),
    ("adscope_stream_queue_depth", "/statusz worker table"),
    ("adscope_stream_send_stalls_total", "e2e stream.send_stalls"),
    ("browsersim_drive_duration_ns", "/profile stage table"),
    ("netsim_lossy_bytes_read_total", "netsim metrics_codec test"),
    (
        "netsim_lossy_records_read_total",
        "netsim metrics_codec test",
    ),
    ("netsim_resync_total", "netsim metrics_codec test"),
    (
        "obs_alerts_firing",
        "health::verdict; /statusz; ci.sh serve gate",
    ),
    ("obs_population_class_users", "/statusz classes line"),
    ("webgen_generate_duration_ns", "/profile stage table"),
];

#[test]
fn a_run_exports_only_series_that_have_a_reader() {
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 40,
        ad_companies: 8,
        trackers: 8,
        cdn_edges: 6,
        hosting_servers: 10,
        seed: 0x5E1,
        ..Default::default()
    });
    let classifier = PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]);
    let mut pop = Population::generate(
        &eco,
        &PopulationConfig {
            households: 20,
            seed: 2,
            ..Default::default()
        },
    );
    let config = DriveConfig {
        name: "series-readers".into(),
        duration_secs: 7200.0,
        start_hour: 20,
        start_weekday: 1,
        slice_secs: 600.0,
        seed: 3,
    };
    let dir = std::env::temp_dir().join(format!("series-readers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.ndjson");
    let file = std::fs::File::create(&path).unwrap();
    let mut writer = TraceWriter::new(file, &config.meta(pop.households)).unwrap();
    drive_stream(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &config,
        |batch| {
            for record in &batch {
                writer.write_record(record).unwrap();
            }
        },
    );
    writer.finish().unwrap();

    let mut opts = StreamOptions {
        threads: 2,
        chunk_records: 256,
        abp_ips: eco.abp_ips.clone(),
        alerts: adscope::alerts::rule_pack(),
        quarantine_path: Some(dir.join("quarantine.ndjson")),
        checkpoint: Some(CheckpointOptions {
            every_chunks: 4,
            ..CheckpointOptions::new(dir.join("ck"))
        }),
        ..StreamOptions::default()
    };
    opts.pipeline.population.enabled = true;
    let report = classify_stream_file(&path, &classifier, &opts, obs::global()).unwrap();
    assert!(report.checkpoints_written > 0, "the run checkpointed");
    assert!(report.population.is_some() && report.alerts.is_some());
    let _ = std::fs::remove_dir_all(&dir);

    let snap = obs::global().snapshot();
    let mut names: Vec<&str> = snap.samples.iter().map(|(k, _)| k.name.as_str()).collect();
    names.dedup();
    let pinned: Vec<&str> = SERIES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned);
}
