//! The kill switch over what a stream run publishes into its registry.
//! `obs::set_enabled` is process-wide, so this suite is its own
//! integration-test binary (its own process) holding one test: toggling the
//! switch beside other tests would race them.

mod common;

use adscope::stream::classify_stream_file;
use common::{classifier, messy_trace, stream_opts, write_trace_file};

/// A small run with the production rule pack: recording off, it leaves the
/// `/windows` and `/alerts` bodies empty — the alert plane still evaluates,
/// for the report — and recording on, the same run fills both.
#[test]
fn recording_off_publishes_no_window_line_and_no_alert() {
    let path = write_trace_file(&messy_trace(200, 4, 7), "kill-switch");
    let mut opts = stream_opts(2, 32);
    opts.alerts = adscope::alerts::rule_pack();
    let run = |recording: bool| {
        obs::set_enabled(recording);
        let registry = obs::Registry::new();
        let report = classify_stream_file(&path, &classifier(), &opts, &registry).unwrap();
        obs::set_enabled(true);
        assert!(report.alerts.is_some(), "recording={recording}");
        let lines = registry.body("/windows").lines().count();
        (lines, registry.body("/alerts"))
    };
    assert_eq!(run(false), (0, String::new()));
    let (lines, text) = run(true);
    assert!(lines > 0, "{lines} window lines");
    assert!(text.starts_with("alerts rules="), "{text}");
    let _ = std::fs::remove_file(&path);
}
