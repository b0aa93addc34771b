//! Inert-when-disabled guarantees, in their own process (integration tests
//! run one binary per file) so no other test can have flipped the global
//! metrics flag on.

use std::sync::{Mutex, MutexGuard};

use rpt_obs::{
    counter, gauge, histogram_with, metrics_enabled, set_trace_enabled, span, trace_events,
};

/// Serializes the tests that depend on the trace gate: one of them turns
/// tracing on, which must not leak into the fully dark test.
fn trace_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn ring_events_named(name: &str) -> usize {
    trace_events().iter().filter(|e| e.name == name).count()
}

#[test]
fn disabled_metrics_record_nothing() {
    let _gate = trace_gate();
    assert!(
        !metrics_enabled(),
        "metrics must start disabled; no other test in this binary may enable them"
    );

    let c = counter("disabled.counter");
    c.inc();
    c.add(100);
    assert_eq!(c.value(), 0, "disabled counter must not advance");

    let g = gauge("disabled.gauge");
    g.set(42.0);
    assert_eq!(g.value(), 0.0, "disabled gauge must not store");

    let h = histogram_with("disabled.hist", &[1.0, 10.0]);
    h.record(5.0);
    {
        let _t = h.time();
    }
    {
        let _s = span("disabled_span", &h);
    }
    assert_eq!(h.count(), 0, "disabled histogram must not record");
    assert_eq!(h.sum(), 0.0);
    assert!(h.bucket_counts().iter().all(|&n| n == 0));
    assert_eq!(
        ring_events_named("disabled_span"),
        0,
        "dark span must not trace"
    );
}

#[test]
fn tracing_alone_records_the_ring_half_only() {
    let _gate = trace_gate();
    let h = histogram_with("trace_only.hist", &[1.0, 10.0]);
    set_trace_enabled(true);
    {
        let _s = span("trace_only_span", &h);
    }
    set_trace_enabled(false);
    assert_eq!(
        ring_events_named("trace_only_span"),
        2,
        "one begin/end pair"
    );
    assert_eq!(h.count(), 0, "metrics are off: no histogram sample");
}

#[test]
fn disabled_snapshot_still_serializes() {
    // Registering metrics works while disabled; the snapshot is just
    // all-zero. This is what the CLI relies on when --metrics-out is absent.
    counter("disabled.snap.counter");
    let doc = rpt_obs::snapshot();
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("rpt-obs-snapshot-v1")
    );
    assert!(doc.get("counters").is_some());
}
