//! Inert-when-disabled guarantees, in their own process (integration tests
//! run one binary per file) so no other test can have flipped the global
//! metrics flag on.

use rpt_obs::{counter, gauge, histogram_with, metrics_enabled, span};

#[test]
fn disabled_metrics_record_nothing() {
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
