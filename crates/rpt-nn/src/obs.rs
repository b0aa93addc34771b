//! Cached decode-metric handles shared across the decode fast path
//! (DESIGN.md §Observability). Recording is inert unless metrics are
//! enabled; handles resolve once per process.

use std::sync::LazyLock;

pub(crate) struct DecodeObs {
    pub calls: rpt_obs::Counter,
    pub steps: rpt_obs::Counter,
    pub tokens: rpt_obs::Counter,
    pub cache_appends: rpt_obs::Counter,
    pub beam_reorders: rpt_obs::Counter,
    pub step_ms: rpt_obs::Histogram,
    pub call_ms: rpt_obs::Histogram,
    pub tokens_per_sec: rpt_obs::Gauge,
    /// Fused multi-request steps taken by the micro-batcher.
    pub fused_steps: rpt_obs::Counter,
    /// Total decoder rows advanced across fused steps (occupancy numerator).
    pub fused_rows: rpt_obs::Counter,
}

pub(crate) static DECODE_OBS: LazyLock<DecodeObs> = LazyLock::new(|| DecodeObs {
    calls: rpt_obs::counter("decode.calls"),
    steps: rpt_obs::counter("decode.steps"),
    tokens: rpt_obs::counter("decode.tokens"),
    cache_appends: rpt_obs::counter("decode.cache_appends"),
    beam_reorders: rpt_obs::counter("decode.beam_reorders"),
    step_ms: rpt_obs::histogram("decode.step_ms"),
    call_ms: rpt_obs::histogram("decode.call_ms"),
    tokens_per_sec: rpt_obs::gauge("decode.tokens_per_sec"),
    fused_steps: rpt_obs::counter("decode.fused_steps"),
    fused_rows: rpt_obs::counter("decode.fused_rows"),
});
