//! # rpt-obs
//!
//! Zero-external-dependency observability for the RPT workspace: a
//! structured logging facade and a process-wide metrics registry, designed
//! around two hard constraints:
//!
//! 1. **Inert when disabled.** Metrics recording is gated on one relaxed
//!    atomic load; when off, no clock is read, no lock is taken, and no
//!    allocation happens on any hot path. Logging is gated on a single
//!    atomic max-level check before any formatting.
//! 2. **Never perturbs determinism.** Nothing in this crate feeds back
//!    into model state: timestamps and durations exist only in emitted
//!    artifacts (log lines, metric snapshots), so training with
//!    instrumentation fully enabled produces byte-identical checkpoints
//!    and loss curves (locked down by `tests/obs_determinism.rs`).
//!
//! ## Logging
//!
//! Five levels (`error!` … `trace!`) with per-target filtering. The filter
//! comes from the `RPT_LOG` environment variable (read lazily on first
//! use) or [`set_filter`]; syntax mirrors `env_logger`:
//!
//! ```text
//! RPT_LOG=info                    # default level
//! RPT_LOG=warn,rpt_par=debug      # default warn, rpt-par at debug
//! RPT_LOG=rpt::progress           # bare target → trace for that target
//! ```
//!
//! Records go to stderr as `[LEVEL target] message`; setting a JSON sink
//! ([`set_json_sink`] or `RPT_LOG_JSON=<path>`) additionally appends one
//! JSON object per record (`ts_unix_ms`, `level`, `target`, `msg`) —
//! JSON-lines, parseable by `rpt-json`.
//!
//! ## Metrics
//!
//! A global registry of named metrics behind atomics:
//!
//! * [`Counter`] — monotonic `u64`, wrapping on overflow.
//! * [`Gauge`] — last-written `f64`.
//! * [`Histogram`] — fixed-bucket counts plus sum/count; the standard
//!   instance uses [`DURATION_MS_BOUNDS`] and records milliseconds.
//!
//! Handles are cheap `Arc` clones; call sites cache them in
//! `std::sync::LazyLock` statics so the registry lock is only taken once
//! per metric per process. [`snapshot`] serializes the whole registry to
//! a `rpt_json::Json` document (histograms include interpolated
//! `p50`/`p95`/`p99`); [`metrics_text`] renders the same registry in the
//! Prometheus text exposition format; [`set_snapshot_output`] +
//! [`tick_snapshot`] add periodic file snapshots for long runs.
//!
//! ## Tracing
//!
//! A separately gated ([`set_trace_enabled`], or `RPT_TRACE=1` via the
//! CLI) ring buffer of timestamped span events plus an on-demand
//! self-time profiler — see [`tracez_json`], [`profile_json`] and the
//! `trace` module docs. Same dark-path contract as metrics: one relaxed
//! atomic load and out.
//!
//! ## Spans
//!
//! One guard, [`Span`], times a region into a histogram when metrics are
//! on and into the ring when tracing is on: [`span`]`(name, &hist)` arms
//! both halves, [`trace_span`] only the ring half, and
//! [`Histogram::time`] only the histogram half (per-kernel timers too
//! frequent to trace). Served requests carry their own trace ids across
//! threads with [`emit_span`] / [`begin_span`] instead.

mod logging;
mod metrics;
mod trace;

pub use logging::{
    log_enabled, log_record, parse_level_filter, set_filter, set_json_sink, Filter, Level,
    LEVEL_DEBUG, LEVEL_ERROR, LEVEL_INFO, LEVEL_OFF, LEVEL_TRACE, LEVEL_WARN,
};
pub use metrics::{
    counter, flush_snapshot, gauge, histogram, histogram_with, metrics_enabled, metrics_text,
    set_metrics_enabled, set_snapshot_output, snapshot, tick_snapshot, write_snapshot, Counter,
    Gauge, Histogram, COUNT_BOUNDS, DURATION_MS_BOUNDS,
};
pub use trace::{
    begin_span, clear_trace, collect_spans, emit_span, end_span, next_trace_id, now_ns,
    profile_json, profile_spans, set_trace_enabled, span, spans_from_dump, trace_dump_json,
    trace_enabled, trace_events, trace_span, trace_stats, tracez_json, Span, SpanRec, TraceEvent,
    TraceStats, RING_CAPACITY,
};

/// Core log macro: checks the filter before formatting anything.
#[doc(hidden)]
#[macro_export]
macro_rules! log_at {
    ($lvl:expr, target: $target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($target, $lvl) {
            $crate::log_record($lvl, $target, format_args!($($arg)+));
        }
    };
}

/// Logs at error level (target defaults to `module_path!()`).
#[macro_export]
macro_rules! error {
    (target: $target:expr, $($arg:tt)+) => { $crate::log_at!($crate::Level::Error, target: $target, $($arg)+) };
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Error, target: module_path!(), $($arg)+) };
}

/// Logs at warn level (target defaults to `module_path!()`).
#[macro_export]
macro_rules! warn {
    (target: $target:expr, $($arg:tt)+) => { $crate::log_at!($crate::Level::Warn, target: $target, $($arg)+) };
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Warn, target: module_path!(), $($arg)+) };
}

/// Logs at info level (target defaults to `module_path!()`).
#[macro_export]
macro_rules! info {
    (target: $target:expr, $($arg:tt)+) => { $crate::log_at!($crate::Level::Info, target: $target, $($arg)+) };
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Info, target: module_path!(), $($arg)+) };
}

/// Logs at debug level (target defaults to `module_path!()`).
#[macro_export]
macro_rules! debug {
    (target: $target:expr, $($arg:tt)+) => { $crate::log_at!($crate::Level::Debug, target: $target, $($arg)+) };
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Debug, target: module_path!(), $($arg)+) };
}

/// Logs at trace level (target defaults to `module_path!()`).
#[macro_export]
macro_rules! trace {
    (target: $target:expr, $($arg:tt)+) => { $crate::log_at!($crate::Level::Trace, target: $target, $($arg)+) };
    ($($arg:tt)+) => { $crate::log_at!($crate::Level::Trace, target: module_path!(), $($arg)+) };
}
