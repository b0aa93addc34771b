//! The tracing half of rpt-obs: a fixed-capacity ring buffer of
//! timestamped span events plus an on-demand self-time profiler.
//!
//! ## Model
//!
//! A **trace** is a set of spans sharing a `trace_id` (one per served
//! request; `trace_id` 0 is the ambient "process" trace used by
//! background work like training steps). A **span** is a begin/end event
//! pair sharing a `span_id`, carrying a static name and the `span_id` of
//! its parent. Events land in one global ring of [`RING_CAPACITY`] slots;
//! when the ring wraps, the oldest events are overwritten (counted, never
//! blocking a writer).
//!
//! ## Hot-path discipline
//!
//! Recording follows the same contract as the metrics half:
//!
//! * gated on a single relaxed [`AtomicBool`] load — dark runs never read
//!   a clock, take a lock, or allocate;
//! * when enabled, one event is one `fetch_add` ticket plus two release
//!   stores around a fixed-size slot write (a seqlock) — still no lock
//!   and no allocation;
//! * span names are `&'static str`, so nothing is copied per event.
//!
//! Readers ([`trace_events`], [`tracez_json`], [`profile_json`]) copy
//! each slot and re-check its sequence word, discarding slots a writer
//! touched mid-copy. A reader can therefore observe a begin without its
//! end (the span was open, or its end was overwritten) — consumers treat
//! such spans as incomplete and skip them when aggregating durations.
//!
//! Like the metrics half, nothing here feeds back into model state:
//! timestamps exist only in emitted artifacts, so trace-on runs stay
//! byte-identical to dark runs (locked down by `tests/obs_determinism.rs`).

use std::cell::Cell;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::LazyLock;
use std::time::Instant;

use rpt_json::Json;

use crate::metrics::{metrics_enabled, Histogram};

/// Number of event slots in the global ring. Power of two so the slot
/// index is a mask, not a division.
pub const RING_CAPACITY: usize = 1 << 16;

/// Global trace gate, independent of the metrics gate: tracing can run
/// with metrics dark and vice versa.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns trace recording on or off (off at startup).
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// True when trace recording is on.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// The process trace epoch. Initialized on first use, which only happens
/// once tracing is enabled — a dark process never reads this clock.
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Nanoseconds since the process trace epoch, or 0 when tracing is off
/// (no clock read). Use this to timestamp stage boundaries that are
/// emitted later with [`emit_span`].
#[inline]
pub fn now_ns() -> u64 {
    if !trace_enabled() {
        return 0;
    }
    EPOCH.elapsed().as_nanos() as u64
}

/// Allocator for trace and span ids (shared namespace; 0 is reserved for
/// "no id" / the ambient process trace).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh request trace id, or 0 when tracing is off.
pub fn next_trace_id() -> u64 {
    if !trace_enabled() {
        return 0;
    }
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;

#[derive(Clone, Copy)]
struct Event {
    kind: u8,
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    t_ns: u64,
}

const EMPTY_EVENT: Event = Event {
    kind: KIND_BEGIN,
    name: "",
    trace_id: 0,
    span_id: 0,
    parent_id: 0,
    t_ns: 0,
};

/// One seqlock slot: `seq == 0` means never written, odd means a writer
/// is mid-copy, even nonzero means stable with generation `seq / 2`
/// (generation = ring ticket + 1).
struct Slot {
    seq: AtomicU64,
    ev: UnsafeCell<Event>,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Next write ticket; total events ever recorded.
    cursor: AtomicU64,
}

// Slot contents are protected by the per-slot seqlock protocol.
unsafe impl Sync for Ring {}

static RING: LazyLock<Ring> = LazyLock::new(|| Ring {
    slots: (0..RING_CAPACITY)
        .map(|_| Slot {
            seq: AtomicU64::new(0),
            ev: UnsafeCell::new(EMPTY_EVENT),
        })
        .collect(),
    cursor: AtomicU64::new(0),
});

/// Writes one event into the ring. Lock-free and allocation-free: a
/// ticket `fetch_add` plus two release stores around a fixed-size copy.
/// If the ring wraps fully between a reader's two sequence loads the
/// reader could in principle accept a same-parity rewrite (classic
/// seqlock ABA); with 2^16 slots that window is vanishingly small and
/// the cost is one garbled diagnostic event, never corrupted state.
fn push(ev: Event) {
    let ring = &*RING;
    let ticket = ring.cursor.fetch_add(1, Ordering::Relaxed);
    let slot = &ring.slots[(ticket as usize) & (RING_CAPACITY - 1)];
    slot.seq.store(ticket * 2 + 1, Ordering::Release);
    unsafe { *slot.ev.get() = ev };
    slot.seq.store((ticket + 1) * 2, Ordering::Release);
}

/// Occupancy and loss accounting for the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Events ever recorded.
    pub recorded: u64,
    /// Ring capacity in events.
    pub capacity: u64,
    /// Events overwritten by ring wrap (oldest-first).
    pub overwritten: u64,
}

/// Current ring statistics.
pub fn trace_stats() -> TraceStats {
    let recorded = RING.cursor.load(Ordering::Relaxed);
    TraceStats {
        recorded,
        capacity: RING_CAPACITY as u64,
        overwritten: recorded.saturating_sub(RING_CAPACITY as u64),
    }
}

/// Empties the ring (bench/test hygiene between phases). Concurrent
/// writers may land events mid-clear; that is fine for diagnostics.
pub fn clear_trace() {
    let ring = &*RING;
    ring.cursor.store(0, Ordering::Relaxed);
    for slot in ring.slots.iter() {
        slot.seq.store(0, Ordering::Release);
    }
}

thread_local! {
    /// The innermost open ring span on this thread (0 = none): the
    /// implicit parent of the next [`Span`] opened here.
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

/// A scoped region, opened by [`span`], [`trace_span`] or
/// [`Histogram::time`]. It has two halves, each armed only if its gate
/// was on when the span opened: the histogram half records the elapsed
/// milliseconds on drop, the ring half emits a begin/end event pair in the
/// ambient process trace and parents the spans opened inside it. Spans
/// must drop in LIFO order per thread (the natural scoping).
pub struct Span {
    timer: Option<(Histogram, Instant)>,
    /// (span id, parent span id, name).
    ring: Option<(u64, u64, &'static str)>,
}

impl Span {
    /// Arms the histogram half for `hist` if metrics are on and the ring
    /// half for `name` if tracing is on; [`Histogram::time`] passes no
    /// name, so per-kernel timers never enter the ring.
    pub(crate) fn open(name: Option<&'static str>, hist: Option<&Histogram>) -> Span {
        let timer = hist
            .filter(|_| metrics_enabled())
            .map(|h| (h.clone(), Instant::now()));
        let ring = name.filter(|_| trace_enabled()).map(|name| {
            let parent = PARENT.get();
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            push(Event {
                kind: KIND_BEGIN,
                name,
                trace_id: 0,
                span_id: id,
                parent_id: parent,
                t_ns: EPOCH.elapsed().as_nanos() as u64,
            });
            PARENT.set(id);
            (id, parent, name)
        });
        Span { timer, ring }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, parent, name)) = self.ring {
            push(Event {
                kind: KIND_END,
                name,
                trace_id: 0,
                span_id: id,
                parent_id: parent,
                t_ns: EPOCH.elapsed().as_nanos() as u64,
            });
            PARENT.set(parent);
        }
        if let Some((hist, start)) = &self.timer {
            hist.record(start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Opens a span named `name` that times the region into `hist` when
/// metrics are on and enters the ring, as a child of this thread's
/// innermost open span, when tracing is on. With both gates off it reads
/// no clock, takes no ticket and allocates nothing.
pub fn span(name: &'static str, hist: &Histogram) -> Span {
    Span::open(Some(name), Some(hist))
}

/// A [`span`] with no histogram: it only enters the ring, for regions
/// timed nowhere else.
pub fn trace_span(name: &'static str) -> Span {
    Span::open(Some(name), None)
}

/// Emits a completed span from explicit timestamps (taken earlier with
/// [`now_ns`]). This is how cross-thread stage boundaries are recorded:
/// the enqueueing thread stamps the start, the batcher thread emits the
/// span when the stage ends. Returns the span id, 0 when tracing is off.
pub fn emit_span(
    trace_id: u64,
    parent_id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
) -> u64 {
    if !trace_enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Event {
        kind: KIND_BEGIN,
        name,
        trace_id,
        span_id: id,
        parent_id,
        t_ns: start_ns,
    });
    push(Event {
        kind: KIND_END,
        name,
        trace_id,
        span_id: id,
        parent_id,
        t_ns: end_ns,
    });
    id
}

/// Opens a span with an explicit start timestamp and no RAII guard; pair
/// with [`end_span`]. Used where begin and end happen on different
/// threads or in different call frames (the per-request root span).
pub fn begin_span(trace_id: u64, parent_id: u64, name: &'static str, start_ns: u64) -> u64 {
    if !trace_enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Event {
        kind: KIND_BEGIN,
        name,
        trace_id,
        span_id: id,
        parent_id,
        t_ns: start_ns,
    });
    id
}

/// Closes a span opened with [`begin_span`]. No-op when tracing is off
/// or `span_id` is 0.
pub fn end_span(trace_id: u64, span_id: u64, parent_id: u64, name: &'static str, end_ns: u64) {
    if !trace_enabled() || span_id == 0 {
        return;
    }
    push(Event {
        kind: KIND_END,
        name,
        trace_id,
        span_id,
        parent_id,
        t_ns: end_ns,
    });
}

/// A stable copy of one ring event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// `"begin"` or `"end"`.
    pub kind: &'static str,
    /// Static span name.
    pub name: &'static str,
    /// Owning trace (0 = the ambient process trace).
    pub trace_id: u64,
    /// Span id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Nanoseconds since the process trace epoch.
    pub t_ns: u64,
}

fn kind_str(kind: u8) -> &'static str {
    if kind == KIND_END {
        "end"
    } else {
        "begin"
    }
}

/// Copies every stable slot out of the ring, oldest first. Slots a
/// writer touched mid-copy are skipped.
pub fn trace_events() -> Vec<TraceEvent> {
    let ring = &*RING;
    let mut out: Vec<(u64, TraceEvent)> = Vec::with_capacity(RING_CAPACITY);
    for slot in ring.slots.iter() {
        let seq1 = slot.seq.load(Ordering::Acquire);
        if seq1 == 0 || seq1 % 2 == 1 {
            continue;
        }
        let ev = unsafe { *slot.ev.get() };
        let seq2 = slot.seq.load(Ordering::Acquire);
        if seq1 != seq2 {
            continue;
        }
        out.push((
            seq1 / 2,
            TraceEvent {
                kind: kind_str(ev.kind),
                name: ev.name,
                trace_id: ev.trace_id,
                span_id: ev.span_id,
                parent_id: ev.parent_id,
                t_ns: ev.t_ns,
            },
        ));
    }
    out.sort_by_key(|(gen, _)| *gen);
    out.into_iter().map(|(_, ev)| ev).collect()
}

/// A reconstructed span (begin matched to end by span id).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Owning trace (0 = the ambient process trace).
    pub trace_id: u64,
    /// Span id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Span name.
    pub name: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration; `None` when the end event is missing (open span or its
    /// end was overwritten by ring wrap).
    pub dur_ns: Option<u64>,
}

/// What one event does to the span list.
enum Mark {
    /// Opens this span.
    Begin(SpanRec),
    /// Closes the span with this id, if it is open.
    End(u64),
    /// Neither.
    Other,
}

/// The one begin/end matcher behind [`collect_spans`] and
/// [`spans_from_dump`]: `mark` reads event `i`, and `end_ns` reads the time
/// of an end event, only when the span it closes is open. Spans come out in
/// begin order; an end with no open begin is ignored, and a span never
/// closed keeps `dur_ns: None`.
fn match_spans<E>(
    events: &[E],
    mark: impl Fn(usize, &E) -> Result<Mark, String>,
    end_ns: impl Fn(usize, &E) -> Result<u64, String>,
) -> Result<Vec<SpanRec>, String> {
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match mark(i, ev)? {
            Mark::Begin(span) => {
                open.insert(span.span_id, spans.len());
                spans.push(span);
            }
            Mark::End(span_id) => {
                if let Some(at) = open.remove(&span_id) {
                    let t = end_ns(i, ev)?;
                    spans[at].dur_ns = Some(t.saturating_sub(spans[at].start_ns));
                }
            }
            Mark::Other => {}
        }
    }
    Ok(spans)
}

/// Matches begin/end pairs in an event list into spans, in begin order.
/// Public so `rpt trace-report` can reuse it on parsed dumps.
pub fn collect_spans(events: &[TraceEvent]) -> Vec<SpanRec> {
    let mark = |_: usize, ev: &TraceEvent| {
        Ok(match ev.kind {
            "begin" => Mark::Begin(SpanRec {
                trace_id: ev.trace_id,
                span_id: ev.span_id,
                parent_id: ev.parent_id,
                name: ev.name.to_string(),
                start_ns: ev.t_ns,
                dur_ns: None,
            }),
            "end" => Mark::End(ev.span_id),
            _ => Mark::Other,
        })
    };
    match_spans(events, mark, |_, ev| Ok(ev.t_ns)).expect("ring events carry every field")
}

/// One aggregated node of the self-time profile, keyed by the span-name
/// path from its trace root.
struct ProfileNode {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Vec<u64>,
    children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    fn new() -> ProfileNode {
        ProfileNode {
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            durations: Vec::new(),
            children: BTreeMap::new(),
        }
    }

    fn at_path(&mut self, path: &[String]) -> &mut ProfileNode {
        let mut node = self;
        for name in path {
            node = node
                .children
                .entry(name.clone())
                .or_insert_with(ProfileNode::new);
        }
        node
    }

    fn to_json(&self, name: &str) -> Json {
        let mut sorted = self.durations.clone();
        sorted.sort_unstable();
        let mut children: Vec<(&String, &ProfileNode)> = self.children.iter().collect();
        children.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        rpt_json::json!({
            "name": name,
            "calls": self.calls,
            "total_ms": self.total_ns as f64 / 1e6,
            "self_ms": self.self_ns as f64 / 1e6,
            "p50_ms": rank_ns(&sorted, 0.50) as f64 / 1e6,
            "p99_ms": rank_ns(&sorted, 0.99) as f64 / 1e6,
            "children": children
                .into_iter()
                .map(|(n, c)| c.to_json(n))
                .collect::<Vec<_>>(),
        })
    }
}

/// Nearest-rank percentile over an ascending-sorted duration list.
fn rank_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Aggregates completed spans into the self-time profile tree. Public so
/// `rpt trace-report` can reuse it on parsed dumps: returns the tree as
/// rpt-json, children flamegraph-ordered (heaviest total first).
pub fn profile_spans(spans: &[SpanRec]) -> Json {
    // Self time = duration minus the summed durations of direct children.
    let mut child_total: BTreeMap<u64, u64> = BTreeMap::new();
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_id.insert(s.span_id, i);
        if let Some(d) = s.dur_ns {
            *child_total.entry(s.parent_id).or_insert(0) += d;
        }
    }
    let mut root = ProfileNode::new();
    for s in spans {
        let Some(dur) = s.dur_ns else { continue };
        // Name path from the trace root down to this span.
        let mut path: Vec<String> = vec![s.name.clone()];
        let mut cursor = s.parent_id;
        let mut hops = 0;
        while cursor != 0 && hops < 64 {
            match by_id.get(&cursor) {
                Some(&i) => {
                    path.push(spans[i].name.clone());
                    cursor = spans[i].parent_id;
                }
                None => break,
            }
            hops += 1;
        }
        path.reverse();
        let node = root.at_path(&path);
        node.calls += 1;
        node.total_ns += dur;
        node.self_ns += dur.saturating_sub(child_total.get(&s.span_id).copied().unwrap_or(0));
        node.durations.push(dur);
    }
    let mut children: Vec<(&String, &ProfileNode)> = root.children.iter().collect();
    children.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    Json::Array(children.into_iter().map(|(n, c)| c.to_json(n)).collect())
}

/// The current profile tree, aggregated from the live ring.
pub fn profile_json() -> Json {
    profile_spans(&collect_spans(&trace_events()))
}

/// The raw ring as a portable dump (`rpt-trace-v1`), the format consumed
/// by `rpt trace-report` and written by `--trace-out`.
pub fn trace_dump_json() -> Json {
    let stats = trace_stats();
    let events: Vec<Json> = trace_events()
        .iter()
        .map(|ev| {
            rpt_json::json!({
                "kind": ev.kind,
                "name": ev.name,
                "trace_id": ev.trace_id,
                "span_id": ev.span_id,
                "parent_id": ev.parent_id,
                "t_ns": ev.t_ns,
            })
        })
        .collect();
    rpt_json::json!({
        "schema": "rpt-trace-v1",
        "recorded": stats.recorded,
        "capacity": stats.capacity,
        "overwritten": stats.overwritten,
        "events": events,
    })
}

/// Reconstructs spans from a parsed `rpt-trace-v1` dump (the format
/// [`trace_dump_json`] writes). This is the read side of `--trace-out`:
/// `rpt trace-report` parses the file and feeds the spans to
/// [`profile_spans`].
pub fn spans_from_dump(doc: &Json) -> Result<Vec<SpanRec>, String> {
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some("rpt-trace-v1") => {}
        Some(other) => return Err(format!("unsupported trace schema {other:?}")),
        None => return Err("missing trace schema field".into()),
    }
    let events = doc
        .get("events")
        .and_then(|e| e.as_array())
        .ok_or("missing events array")?;
    let mark = |i: usize, ev: &Json| {
        let kind = ev
            .get("kind")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing kind"))?;
        Ok(match kind {
            "begin" => {
                let span_id = dump_u64(i, ev, "span_id")?;
                Mark::Begin(SpanRec {
                    trace_id: dump_u64(i, ev, "trace_id")?,
                    span_id,
                    parent_id: dump_u64(i, ev, "parent_id")?,
                    name: ev
                        .get("name")
                        .and_then(|v| v.as_str())
                        .ok_or_else(|| format!("event {i}: missing name"))?
                        .to_string(),
                    start_ns: dump_u64(i, ev, "t_ns")?,
                    dur_ns: None,
                })
            }
            "end" => Mark::End(dump_u64(i, ev, "span_id")?),
            _ => Mark::Other,
        })
    };
    match_spans(events, mark, |i, ev| dump_u64(i, ev, "t_ns"))
}

/// Field `key` of dump event `i`, as an integer.
fn dump_u64(i: usize, ev: &Json, key: &str) -> Result<u64, String> {
    ev.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("event {i}: missing {key}"))
}

/// The `/debug/tracez` document: ring stats, the profile tree, and the
/// most recent `max_traces` request traces (highest trace id = newest),
/// each with its reconstructed spans in begin order.
pub fn tracez_json(max_traces: usize) -> Json {
    let events = trace_events();
    let spans = collect_spans(&events);
    let mut by_trace: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in &spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut ids: Vec<u64> = by_trace.keys().copied().filter(|&id| id != 0).collect();
    ids.sort_unstable_by(|a, b| b.cmp(a));
    ids.truncate(max_traces);
    let traces: Vec<Json> = ids
        .iter()
        .map(|id| {
            let spans = &by_trace[id];
            rpt_json::json!({
                "trace_id": *id,
                "complete": spans.iter().all(|s| s.dur_ns.is_some()),
                "spans": spans
                    .iter()
                    .map(|s| {
                        rpt_json::json!({
                            "name": s.name.as_str(),
                            "span_id": s.span_id,
                            "parent_id": s.parent_id,
                            "start_ns": s.start_ns,
                            "dur_ns": match s.dur_ns {
                                Some(d) => Json::from(d),
                                None => Json::Null,
                            },
                        })
                    })
                    .collect::<Vec<_>>(),
            })
        })
        .collect();
    let stats = trace_stats();
    rpt_json::json!({
        "schema": "rpt-tracez-v1",
        "enabled": trace_enabled(),
        "recorded": stats.recorded,
        "capacity": stats.capacity,
        "overwritten": stats.overwritten,
        "traces": traces,
        "profile": profile_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share one process-global ring; each test clears it and uses
    // distinct span names so concurrent tests cannot confuse each other's
    // assertions beyond ring sharing (assertions filter by name).

    /// Holds the process-global trace gate at `on` for one test. Tests run
    /// on parallel threads, so without the lock one test could re-enable
    /// tracing inside another's dark window.
    fn gate(on: bool) -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        set_trace_enabled(on);
        guard
    }

    /// The unique-named span `name` among the ring's reconstructed spans.
    fn only_span(name: &str) -> SpanRec {
        let mut found: Vec<SpanRec> = collect_spans(&trace_events())
            .into_iter()
            .filter(|s| s.name == name)
            .collect();
        assert_eq!(found.len(), 1, "expected exactly one {name} span");
        found.pop().unwrap()
    }

    #[test]
    fn spans_nest_and_reconstruct() {
        let _gate = gate(true);
        crate::set_metrics_enabled(true);
        let outer_ms = crate::histogram("t.nest.outer_ms");
        let inner_ms = crate::histogram("t.nest.inner_ms");
        {
            let _outer = span("t.nest.outer", &outer_ms);
            let _inner = span("t.nest.inner", &inner_ms);
        }
        // One guard, both halves: one histogram sample and one complete
        // ring span per span.
        assert_eq!(outer_ms.count(), 1);
        assert_eq!(inner_ms.count(), 1);
        let outer = only_span("t.nest.outer");
        let inner = only_span("t.nest.inner");
        assert_eq!(inner.parent_id, outer.span_id, "inner must parent to outer");
        assert_eq!(outer.parent_id, 0);
        assert_eq!((outer.trace_id, inner.trace_id), (0, 0));
        assert!(outer.dur_ns.is_some() && inner.dur_ns.is_some());
        assert!(inner.dur_ns.unwrap() <= outer.dur_ns.unwrap());
    }

    #[test]
    fn histogram_timer_never_enters_the_ring() {
        let _gate = gate(true);
        crate::set_metrics_enabled(true);
        let kernel_ms = crate::histogram("t.timer.kernel_ms");
        {
            let _parent = trace_span("t.timer.parent");
            let _t = kernel_ms.time();
        }
        assert_eq!(kernel_ms.count(), 1);
        // A timer in the ring would be the parent span's child.
        let parent = only_span("t.timer.parent");
        let children = collect_spans(&trace_events())
            .into_iter()
            .filter(|s| s.parent_id == parent.span_id)
            .count();
        assert_eq!(children, 0, "Histogram::time must not trace");
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        // Use explicit emits with a sentinel name; flip the gate off just
        // around them (scan for the sentinel rather than asserting global
        // emptiness: tests that leave the gate on share the ring).
        let _gate = gate(false);
        let before = trace_events()
            .iter()
            .filter(|e| e.name == "t.dark.never")
            .count();
        assert_eq!(next_trace_id(), 0);
        assert_eq!(now_ns(), 0);
        drop(trace_span("t.dark.never"));
        emit_span(9, 0, "t.dark.never", 1, 2);
        let after = trace_events()
            .iter()
            .filter(|e| e.name == "t.dark.never")
            .count();
        assert_eq!(after, before, "dark path must not touch the ring");
        set_trace_enabled(true);
    }

    #[test]
    fn emit_span_records_cross_thread_stages() {
        let _gate = gate(true);
        let tid = next_trace_id();
        let root = begin_span(tid, 0, "t.stage.root", 100);
        let sid = emit_span(tid, root, "t.stage.queue_wait", 120, 200);
        assert_ne!(sid, 0);
        end_span(tid, root, 0, "t.stage.root", 500);
        let spans = collect_spans(&trace_events());
        let stage = spans
            .iter()
            .find(|s| s.name == "t.stage.queue_wait" && s.trace_id == tid)
            .expect("stage span recorded");
        assert_eq!(stage.parent_id, root);
        assert_eq!(stage.start_ns, 120);
        assert_eq!(stage.dur_ns, Some(80));
        let root_rec = spans
            .iter()
            .find(|s| s.name == "t.stage.root" && s.trace_id == tid)
            .expect("root span recorded");
        assert_eq!(root_rec.dur_ns, Some(400));
    }

    #[test]
    fn profile_aggregates_self_time() {
        let _gate = gate(true);
        let tid = next_trace_id();
        let root = begin_span(tid, 0, "t.prof.root", 0);
        emit_span(tid, root, "t.prof.child", 10, 40);
        emit_span(tid, root, "t.prof.child", 50, 70);
        end_span(tid, root, 0, "t.prof.root", 100);
        let spans: Vec<SpanRec> = collect_spans(&trace_events())
            .into_iter()
            .filter(|s| s.trace_id == tid)
            .collect();
        let profile = profile_spans(&spans);
        let nodes = profile.as_array().expect("profile is an array");
        let root_node = nodes
            .iter()
            .find(|n| n.get("name").unwrap().as_str() == Some("t.prof.root"))
            .expect("root node present");
        assert_eq!(root_node.get("calls").unwrap().as_u64(), Some(1));
        // total 100ns, children 30+20=50ns → self 50ns.
        assert!((root_node.get("total_ms").unwrap().as_f64().unwrap() - 1e-4).abs() < 1e-12);
        assert!((root_node.get("self_ms").unwrap().as_f64().unwrap() - 5e-5).abs() < 1e-12);
        let children = root_node.get("children").unwrap().as_array().unwrap();
        let child = children
            .iter()
            .find(|n| n.get("name").unwrap().as_str() == Some("t.prof.child"))
            .expect("child node present");
        assert_eq!(child.get("calls").unwrap().as_u64(), Some(2));
        // durations 30ns and 20ns → p50 20ns, p99 30ns (nearest rank).
        assert!((child.get("p50_ms").unwrap().as_f64().unwrap() - 2e-5).abs() < 1e-12);
        assert!((child.get("p99_ms").unwrap().as_f64().unwrap() - 3e-5).abs() < 1e-12);
    }

    #[test]
    fn ring_wrap_counts_overwritten_events() {
        let _gate = gate(true);
        let stats = trace_stats();
        assert_eq!(stats.capacity, RING_CAPACITY as u64);
        assert_eq!(
            stats.overwritten,
            stats.recorded.saturating_sub(stats.capacity)
        );
    }

    #[test]
    fn dump_round_trips_through_rpt_json() {
        let _gate = gate(true);
        let tid = next_trace_id();
        emit_span(tid, 0, "t.dump.span", 5, 15);
        let text = trace_dump_json().to_string_pretty();
        let doc = Json::parse(&text).expect("dump must be valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("rpt-trace-v1"));
        let events = doc.get("events").unwrap().as_array().unwrap();
        assert!(events.iter().any(|e| {
            e.get("name").unwrap().as_str() == Some("t.dump.span")
                && e.get("trace_id").unwrap().as_u64() == Some(tid)
        }));
    }

    #[test]
    fn dump_parses_back_into_spans() {
        let _gate = gate(true);
        let tid = next_trace_id();
        let root = begin_span(tid, 0, "t.parse.root", 10);
        emit_span(tid, root, "t.parse.stage", 20, 60);
        end_span(tid, root, 0, "t.parse.root", 100);
        let doc = Json::parse(&trace_dump_json().to_string_pretty()).unwrap();
        let spans = spans_from_dump(&doc).unwrap();
        let stage = spans
            .iter()
            .find(|s| s.name == "t.parse.stage" && s.trace_id == tid)
            .expect("stage span survives the round trip");
        assert_eq!(stage.parent_id, root);
        assert_eq!(stage.dur_ns, Some(40));
        // A wrong schema is a typed error, not a panic.
        let bad = rpt_json::json!({ "schema": "rpt-trace-v999", "events": [] });
        assert!(spans_from_dump(&bad).is_err());
    }

    #[test]
    fn dump_and_ring_match_spans_alike() {
        let _gate = gate(true);
        let tid = next_trace_id();
        let root = begin_span(tid, 0, "t.match.root", 10);
        emit_span(tid, root, "t.match.stage", 20, 60);
        end_span(tid, root, 0, "t.match.root", 100);
        // A span left open, and an end whose begin never happened.
        begin_span(tid, 0, "t.match.open", 110);
        end_span(tid, 1 << 40, 0, "t.match.orphan", 120);
        let ours = |spans: Vec<SpanRec>| -> Vec<SpanRec> {
            spans.into_iter().filter(|s| s.trace_id == tid).collect()
        };
        let doc = Json::parse(&trace_dump_json().to_string_pretty()).unwrap();
        let from_dump = ours(spans_from_dump(&doc).unwrap());
        let from_ring = ours(collect_spans(&trace_events()));
        assert_eq!(from_dump, from_ring);
        let names: Vec<&str> = from_ring.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["t.match.root", "t.match.stage", "t.match.open"]);
        assert_eq!(from_ring[2].dur_ns, None, "the open span stays open");
    }

    #[test]
    fn tracez_reports_recent_traces() {
        let _gate = gate(true);
        let tid = next_trace_id();
        let root = begin_span(tid, 0, "t.tracez.request", 1000);
        emit_span(tid, root, "t.tracez.decode", 1100, 1900);
        end_span(tid, root, 0, "t.tracez.request", 2000);
        let doc = tracez_json(64);
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("rpt-tracez-v1"));
        let traces = doc.get("traces").unwrap().as_array().unwrap();
        let trace = traces
            .iter()
            .find(|t| t.get("trace_id").unwrap().as_u64() == Some(tid))
            .expect("our trace is listed");
        assert_eq!(trace.get("complete").unwrap().as_bool(), Some(true));
        let spans = trace.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
    }
}
