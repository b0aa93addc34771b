//! The metrics half of rpt-obs: a global registry of counters, gauges,
//! and fixed-bucket histograms behind atomics, plus scoped timing spans
//! and JSON snapshots. See the crate docs for the model.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rpt_json::{Json, Map};

/// Global record gate. All recording methods check this first with one
/// relaxed load; when off they return before reading any clock or taking
/// any lock — the "inert when disabled" guarantee.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on or off (off at startup).
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when metric recording is on.
#[inline]
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Bucket upper bounds (inclusive) for duration histograms, in
/// milliseconds, spanning 50 µs to 10 s; values above the last bound land
/// in the overflow bucket.
pub const DURATION_MS_BOUNDS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0, 10000.0,
];

/// Power-of-two bucket bounds for small-count histograms (e.g. tasks
/// claimed per worker).
pub const COUNT_BOUNDS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0,
];

/// A monotonic counter. Increments wrap on `u64` overflow (the snapshot
/// reader sees the wrapped value; after ~1.8e19 events that ambiguity is
/// acceptable for diagnostics).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping).
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an atomic).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        if metrics_enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    /// Inclusive upper bounds; `buckets.len() == bounds.len() + 1` (the
    /// last bucket is the overflow bucket).
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram. A value `v` lands in the first bucket whose
/// bound satisfies `v <= bound`, or in the overflow bucket.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        if !metrics_enabled() {
            return;
        }
        let inner = &*self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Starts an anonymous timer that records elapsed milliseconds into
    /// this histogram when dropped.
    pub fn time(&self) -> Span {
        if !metrics_enabled() {
            return Span::disabled();
        }
        Span {
            hist: Some(self.clone()),
            start: Some(Instant::now()),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// The inclusive upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated by linear interpolation
    /// within the bucket holding the target rank (the Prometheus
    /// `histogram_quantile` rule). Observations in the overflow bucket
    /// clamp to the last finite bound — a floor, not an estimate. Returns
    /// 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let bounds = self.bounds();
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            let next = cum + n;
            if (next as f64) >= target && n > 0 {
                if i >= bounds.len() {
                    return bounds[bounds.len() - 1];
                }
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                let frac = (target - cum as f64) / n as f64;
                return lower + (bounds[i] - lower) * frac.clamp(0.0, 1.0);
            }
            cum = next;
        }
        bounds[bounds.len() - 1]
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

static REGISTRY: LazyLock<Mutex<Vec<(String, Metric)>>> = LazyLock::new(|| Mutex::new(Vec::new()));

/// The registry is only ever appended to under the lock, so a panic while
/// holding it (the kind-mismatch panic) cannot leave it mid-mutation —
/// recover from poisoning instead of cascading.
fn lock_registry() -> std::sync::MutexGuard<'static, Vec<(String, Metric)>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

fn register_or_get<T: Clone>(
    name: &str,
    extract: impl Fn(&Metric) -> Option<T>,
    create: impl FnOnce() -> (T, Metric),
) -> T {
    let mut registry = lock_registry();
    if let Some((_, metric)) = registry.iter().find(|(n, _)| n == name) {
        return extract(metric).unwrap_or_else(|| {
            panic!(
                "metric {name:?} already registered as a {}",
                metric.kind()
            )
        });
    }
    let (handle, metric) = create();
    registry.push((name.to_string(), metric));
    handle
}

/// The counter named `name`, creating it on first use. Panics if the name
/// is already registered as a different metric kind.
pub fn counter(name: &str) -> Counter {
    register_or_get(
        name,
        |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        },
        || {
            let c = Counter(Arc::new(AtomicU64::new(0)));
            (c.clone(), Metric::Counter(c))
        },
    )
}

/// The gauge named `name`, creating it on first use.
pub fn gauge(name: &str) -> Gauge {
    register_or_get(
        name,
        |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        },
        || {
            let g = Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())));
            (g.clone(), Metric::Gauge(g))
        },
    )
}

/// The duration histogram named `name` ([`DURATION_MS_BOUNDS`] buckets,
/// milliseconds), creating it on first use.
pub fn histogram(name: &str) -> Histogram {
    histogram_with(name, DURATION_MS_BOUNDS)
}

/// The histogram named `name` with custom bucket bounds, creating it on
/// first use (bounds of an existing histogram are not changed).
pub fn histogram_with(name: &str, bounds: &[f64]) -> Histogram {
    register_or_get(
        name,
        |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        },
        || {
            let h = Histogram::new(bounds);
            (h.clone(), Metric::Histogram(h))
        },
    )
}

/// A scoped region: created by [`span`] or [`Histogram::time`]. On drop
/// it records the elapsed wall time in milliseconds into its histogram.
pub struct Span {
    hist: Option<Histogram>,
    start: Option<Instant>,
}

impl Span {
    fn disabled() -> Span {
        Span {
            hist: None,
            start: None,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(hist), Some(start)) = (&self.hist, self.start) {
            hist.record(start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Opens a scoped span that times the region into `hist` on drop; the
/// name only labels the call site. When metrics are disabled this is a
/// no-op (no clock read).
pub fn span(_name: &'static str, hist: &Histogram) -> Span {
    if !metrics_enabled() {
        return Span::disabled();
    }
    Span {
        hist: Some(hist.clone()),
        start: Some(Instant::now()),
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Serializes the whole registry: counters/gauges as name → value maps,
/// histograms as `{count, sum, buckets: [{le, n}, …]}` (the final bucket
/// has `"le": "inf"`). Metric names are sorted for diffable output; the
/// only timestamp lives in the emitted document, never in model state.
pub fn snapshot() -> Json {
    let registry = lock_registry();
    let mut names: Vec<&String> = registry.iter().map(|(n, _)| n).collect();
    names.sort();
    let mut counters = Map::new();
    let mut gauges = Map::new();
    let mut histograms = Map::new();
    for name in names {
        let metric = &registry.iter().find(|(n, _)| n == name).unwrap().1;
        match metric {
            Metric::Counter(c) => counters.insert(name.clone(), Json::from(c.value())),
            Metric::Gauge(g) => gauges.insert(name.clone(), Json::from(g.value())),
            Metric::Histogram(h) => {
                let counts = h.bucket_counts();
                let mut buckets: Vec<Json> = h
                    .bounds()
                    .iter()
                    .zip(&counts)
                    .map(|(&le, &n)| rpt_json::json!({"le": le, "n": n}))
                    .collect();
                buckets.push(rpt_json::json!({"le": "inf", "n": counts[counts.len() - 1]}));
                histograms.insert(
                    name.clone(),
                    rpt_json::json!({
                        "count": h.count(),
                        "sum": h.sum(),
                        "p50": h.quantile(0.50),
                        "p95": h.quantile(0.95),
                        "p99": h.quantile(0.99),
                        "buckets": buckets,
                    }),
                );
            }
        }
    }
    rpt_json::json!({
        "schema": "rpt-obs-snapshot-v1",
        "ts_unix_ms": unix_ms(),
        "counters": Json::Object(counters),
        "gauges": Json::Object(gauges),
        "histograms": Json::Object(histograms),
    })
}

/// Writes a pretty-printed [`snapshot`] to `path`.
pub fn write_snapshot(path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_string_pretty())
}

/// Metric names use `.` separators; the exposition format wants `[a-z_]`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn prom_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Renders the whole registry in the Prometheus text exposition format
/// (`GET /metrics?format=text`): counters and gauges as single samples,
/// histograms as cumulative `_bucket{le=…}` series plus `_sum`/`_count`.
/// Names are sorted, `.` becomes `_`.
pub fn metrics_text() -> String {
    let registry = lock_registry();
    let mut names: Vec<&String> = registry.iter().map(|(n, _)| n).collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let metric = &registry.iter().find(|(n, _)| n == name).unwrap().1;
        let pname = prom_name(name);
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("# TYPE {pname} counter\n{pname} {}\n", c.value()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!(
                    "# TYPE {pname} gauge\n{pname} {}\n",
                    prom_f64(g.value())
                ));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!("# TYPE {pname} histogram\n"));
                let counts = h.bucket_counts();
                let mut cum = 0u64;
                for (&le, &n) in h.bounds().iter().zip(&counts) {
                    cum += n;
                    out.push_str(&format!("{pname}_bucket{{le=\"{}\"}} {cum}\n", prom_f64(le)));
                }
                cum += counts[counts.len() - 1];
                out.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {cum}\n"));
                out.push_str(&format!("{pname}_sum {}\n", prom_f64(h.sum())));
                out.push_str(&format!("{pname}_count {}\n", h.count()));
            }
        }
    }
    out
}

struct Periodic {
    path: PathBuf,
    every: Duration,
    last: Option<Instant>,
}

static PERIODIC: Mutex<Option<Periodic>> = Mutex::new(None);

/// Configures periodic snapshots: [`tick_snapshot`] rewrites `path` at
/// most every `every`, and [`flush_snapshot`] writes it unconditionally.
pub fn set_snapshot_output(path: impl Into<PathBuf>, every: Duration) {
    *PERIODIC.lock().unwrap() = Some(Periodic {
        path: path.into(),
        every,
        last: None,
    });
}

/// Rewrites the configured snapshot file if the interval has elapsed.
/// Cheap no-op when metrics are disabled or no output is configured;
/// write failures are logged at warn level, never fatal.
pub fn tick_snapshot() {
    if !metrics_enabled() {
        return;
    }
    let mut slot = PERIODIC.lock().unwrap();
    let Some(periodic) = slot.as_mut() else {
        return;
    };
    let due = periodic
        .last
        .map(|t| t.elapsed() >= periodic.every)
        .unwrap_or(true);
    if !due {
        return;
    }
    periodic.last = Some(Instant::now());
    let path = periodic.path.clone();
    drop(slot); // don't hold the config lock across registry lock + IO
    if let Err(e) = write_snapshot(&path) {
        crate::warn!(target: "rpt_obs", "cannot write metrics snapshot {}: {e}", path.display());
    }
}

/// Writes the configured snapshot file now (the end-of-run flush).
/// Returns the path written, `None` when no output is configured.
pub fn flush_snapshot() -> Option<std::io::Result<PathBuf>> {
    let path = PERIODIC.lock().unwrap().as_ref().map(|p| p.path.clone())?;
    Some(write_snapshot(&path).map(|()| path))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test that records must enable metrics; tests in this module
    // never assert on the disabled state (that lives in the process-
    // isolated `tests/disabled.rs` integration test), so the shared flag
    // is safe to leave on.

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        set_metrics_enabled(true);
        let h = histogram_with("test.hist.bounds", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 4.0, 9.0] {
            h.record(v);
        }
        // v <= bound: 0.5,1.0 → ≤1; 1.5,2.0 → ≤2; 4.0 → ≤4; 9.0 → overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 18.0).abs() < 1e-12, "{}", h.sum());
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0]);
    }

    #[test]
    fn counter_wraps_on_overflow() {
        set_metrics_enabled(true);
        let c = counter("test.counter.overflow");
        c.add(u64::MAX);
        c.add(2);
        assert_eq!(c.value(), 1, "u64 overflow must wrap, not panic");
    }

    #[test]
    fn registry_returns_the_same_metric_per_name() {
        set_metrics_enabled(true);
        let a = counter("test.counter.shared");
        let b = counter("test.counter.shared");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        counter("test.kind.mismatch");
        gauge("test.kind.mismatch");
    }

    #[test]
    fn span_nesting_records_both() {
        set_metrics_enabled(true);
        let outer = histogram("test.span.outer_ms");
        let inner = histogram("test.span.inner_ms");
        {
            let _o = span("outer", &outer);
            {
                let _i = span("inner", &inner);
            }
            assert_eq!(inner.count(), 1);
            assert_eq!(outer.count(), 0, "outer records only on drop");
        }
        assert_eq!(outer.count(), 1);
    }

    #[test]
    fn gauge_stores_last_value() {
        set_metrics_enabled(true);
        let g = gauge("test.gauge.last");
        g.set(2.5);
        g.set(-7.25);
        assert_eq!(g.value(), -7.25);
    }

    #[test]
    fn snapshot_round_trips_through_rpt_json() {
        set_metrics_enabled(true);
        counter("test.snap.counter").add(41);
        gauge("test.snap.gauge").set(0.125);
        histogram_with("test.snap.hist", &[1.0, 10.0]).record(3.0);
        let text = snapshot().to_string_pretty();
        let doc = Json::parse(&text).expect("snapshot must be valid JSON");
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("rpt-obs-snapshot-v1")
        );
        assert!(
            doc.get("counters")
                .unwrap()
                .get("test.snap.counter")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 41
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("test.snap.gauge").unwrap().as_f64(),
            Some(0.125)
        );
        let hist = doc.get("histograms").unwrap().get("test.snap.hist").unwrap();
        assert!(hist.get("count").unwrap().as_u64().unwrap() >= 1);
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 3, "2 bounds + overflow");
        assert_eq!(buckets[2].get("le").unwrap().as_str(), Some("inf"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        set_metrics_enabled(true);
        let h = histogram_with("test.hist.quantiles", &[10.0, 20.0, 40.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reports 0");
        // 10 observations in (10, 20]: rank r maps to 10 + r ms.
        for _ in 0..10 {
            h.record(15.0);
        }
        assert!((h.quantile(0.5) - 15.0).abs() < 1e-9, "{}", h.quantile(0.5));
        assert!((h.quantile(1.0) - 20.0).abs() < 1e-9);
        // Push one into the overflow bucket: p100 clamps to the last bound.
        h.record(1000.0);
        assert!((h.quantile(1.0) - 40.0).abs() < 1e-9);
        // First-bucket interpolation starts from 0.
        let h2 = histogram_with("test.hist.quantiles2", &[8.0]);
        h2.record(1.0);
        h2.record(1.0);
        assert!((h2.quantile(0.5) - 4.0).abs() < 1e-9, "{}", h2.quantile(0.5));
    }

    #[test]
    fn snapshot_includes_interpolated_quantiles() {
        set_metrics_enabled(true);
        let h = histogram_with("test.snap.quant", &[10.0, 20.0]);
        for _ in 0..4 {
            h.record(15.0);
        }
        let doc = snapshot();
        let hist = doc.get("histograms").unwrap().get("test.snap.quant").unwrap();
        for key in ["p50", "p95", "p99"] {
            let v = hist.get(key).unwrap().as_f64().unwrap();
            assert!((10.0..=20.0).contains(&v), "{key} = {v}");
        }
    }

    #[test]
    fn text_exposition_renders_cumulative_buckets() {
        set_metrics_enabled(true);
        counter("test.prom.counter").add(3);
        gauge("test.prom.gauge").set(1.5);
        let h = histogram_with("test.prom.hist", &[1.0, 2.0]);
        h.record(0.5);
        h.record(1.5);
        h.record(99.0);
        let text = metrics_text();
        assert!(text.contains("# TYPE test_prom_counter counter"));
        assert!(text.contains("test_prom_counter 3"));
        assert!(text.contains("test_prom_gauge 1.5"));
        assert!(text.contains("test_prom_hist_bucket{le=\"1.0\"} 1"));
        assert!(text.contains("test_prom_hist_bucket{le=\"2.0\"} 2"));
        assert!(text.contains("test_prom_hist_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("test_prom_hist_count 3"));
    }

    #[test]
    fn histogram_timer_records_a_duration() {
        set_metrics_enabled(true);
        let h = histogram("test.timer.hist_ms");
        {
            let _t = h.time();
            std::hint::black_box(0);
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
    }
}
