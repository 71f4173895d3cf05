//! The global kill switch test lives in its own integration-test binary
//! (its own process): `obs::set_enabled` is process-wide, so toggling it
//! from a test that shares a process with other tests would race them.

use obs::Registry;

#[test]
fn disabled_recording_is_a_no_op() {
    let r = Registry::new();
    let c = r.counter("switch_total");
    let h = r.histogram("switch_ns");

    c.add(2);
    h.record(10);

    obs::set_enabled(false);
    assert!(!obs::enabled());
    c.add(100);
    h.record(10);
    drop(r.span("switch_stage"));

    obs::set_enabled(true);
    c.add(1);

    let snap = r.snapshot();
    assert_eq!(
        snap.counter("switch_total", &[]),
        3,
        "disabled adds dropped"
    );
    assert_eq!(
        snap.histogram("switch_ns", &[]).unwrap().count(),
        1,
        "disabled observations dropped"
    );
    // A disabled span leaves no histogram.
    assert!(
        snap.histogram("switch_stage_duration_ns", &[]).is_none(),
        "disabled spans leave no histogram"
    );
}
