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
    {
        let mut s = r.span("switch_stage");
        s.count("records", 5);
    }
    r.event("noop", vec![]);
    // The tracer's sampler sits behind the same switch: even a
    // sample-everything sampler selects nothing while disabled.
    let sampler = obs::trace::Sampler::new(obs::trace::PPM as u32);
    assert!(!sampler.is_active(), "sampler off while disabled");
    assert!(!sampler.head_sample(obs::trace::TraceId::derive(1, 1)));

    obs::set_enabled(true);
    c.add(1);
    assert!(sampler.is_active(), "sampler back on with the switch");

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
    // A disabled span leaves no histogram and no event; nor does the
    // disabled `event` call.
    assert!(
        snap.histogram("switch_stage_duration_ns", &[]).is_none(),
        "disabled spans leave no histogram"
    );
    assert!(
        r.events().is_empty(),
        "disabled spans and events leave no event"
    );
}
