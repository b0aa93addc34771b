//! # rpt-serve
//!
//! A std-only HTTP/1.1 inference server for RPT models (DESIGN.md
//! §Serving): TCP listener + acceptor, hand-rolled request parser
//! ([`http`]), [`rpt_json`] bodies ([`api`]), and a dynamic
//! micro-batching backend ([`batcher`] over [`rpt_nn::MicroBatcher`])
//! that coalesces concurrent decode requests into one fused decoder step
//! per token — without changing a single response byte relative to
//! single-request decoding.
//!
//! Endpoints:
//!
//! | route | body | result |
//! |---|---|---|
//! | `POST /v1/clean` | `{"src": [ids], "mode": "greedy"\|"beam", …}` | decoded tokens / hypotheses |
//! | `POST /v1/detect` | `{"src": [ids]}` | per-token log-probs of the row itself |
//! | `POST /v1/match` | `{"src": [ids], "targets": [ids]}` | log-prob of `targets` given `src` |
//! | `GET /healthz` | — | `{"status":"ok","model_generation":n,"quant":b}` |
//! | `GET /metrics` | — | the [`rpt_obs::snapshot`] document |
//! | `GET /metrics?format=text` | — | Prometheus text exposition ([`rpt_obs::metrics_text`]) |
//! | `GET /debug/tracez` | — | recent request traces + profile tree ([`rpt_obs::tracez_json`]) |
//!
//! With tracing enabled (`rpt_obs::set_trace_enabled`, `RPT_TRACE=1` via
//! the CLI), every request gets a `trace_id` and stage spans — `parse`,
//! `queue_wait`, `batch_wait`, `decode`, `serialize` under a
//! `serve.request` root — recorded into the rpt-obs ring; a request
//! carrying the header `x-rpt-trace: 1` gets an `X-Rpt-Trace` response
//! header summarizing those stages. Tracing never changes a response
//! body byte (locked down by `tests/obs_determinism.rs`).
//!
//! Connections are pipelined: every complete request in a connection's
//! buffer is parsed and submitted to the batcher immediately (responses
//! still go back in request order), so back-to-back decodes on one
//! socket coalesce into fused batches and a slow reader never stalls
//! batch formation. A client that disconnects mid-decode has its jobs
//! cancelled and their KV slots reclaimed before the next fused step.
//!
//! Decode requests past the bounded queue are rejected with
//! `503` + `Retry-After: 1`. The checkpoint named in
//! [`ServeConfig::checkpoint`] is hot-reloaded when its file changes
//! (atomic-rename writes only; torn files are rejected harmlessly).
//! With [`ServeConfig::quant`] (`--quant` / `RPT_QUANT=1`) the batcher
//! serves int8 quantized weights — stored `quant-v1` tensors when the
//! reloaded checkpoint carries them, otherwise quantized at load.

pub mod api;
mod batcher;
pub mod http;
mod obs;

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rpt_nn::{Seq2Seq, TransformerConfig};
use rpt_tensor::ParamStore;

use batcher::{Batcher, BatcherShared, Job, JobTrace, StageNs};
use http::{Parsed, Request, RequestParser, Response};
use obs::SERVE_OBS;

/// Server settings. `Default` gives an ephemeral localhost port and the
/// documented env-var fallbacks; builders override per field.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` → kernel-assigned port).
    pub addr: String,
    /// Most requests coalesced into one fused decode batch
    /// (`RPT_SERVE_MAX_BATCH`, default 8).
    pub max_batch: usize,
    /// Bounded queue capacity; requests beyond it get 503
    /// (`RPT_SERVE_QUEUE_CAP`, default `4 * max_batch`).
    pub queue_cap: usize,
    /// Checkpoint file to watch for hot-reload (never loaded at startup;
    /// the server starts from the parameters it was handed).
    pub checkpoint: Option<PathBuf>,
    /// Idle poll interval for reload/shutdown checks, ms
    /// (`RPT_SERVE_RELOAD_POLL_MS`, default 50).
    pub reload_poll_ms: u64,
    /// Per-read socket timeout, ms (shutdown responsiveness).
    pub read_timeout_ms: u64,
    /// 431 ceiling for request line + headers, bytes.
    pub max_header_bytes: usize,
    /// 413 ceiling for request bodies, bytes.
    pub max_body_bytes: usize,
    /// Serve int8 quantized weights (`RPT_QUANT=1`, default off). The
    /// batcher attaches a quant set built from the live parameters —
    /// or the `quant-v1` section of a reloaded checkpoint — and every
    /// decode runs through the exact integer kernels.
    pub quant: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::with_max_batch(env_usize("RPT_SERVE_MAX_BATCH").unwrap_or(8))
    }
}

impl ServeConfig {
    /// The defaults with `max_batch` given explicitly, so the queue takes
    /// its documented `4 * max_batch` size unless `RPT_SERVE_QUEUE_CAP`
    /// overrides it.
    pub fn with_max_batch(max_batch: usize) -> Self {
        let max_batch = max_batch.max(1);
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_batch,
            queue_cap: env_usize("RPT_SERVE_QUEUE_CAP")
                .unwrap_or(4 * max_batch)
                .max(1),
            checkpoint: None,
            reload_poll_ms: env_usize("RPT_SERVE_RELOAD_POLL_MS").unwrap_or(50) as u64,
            read_timeout_ms: 50,
            max_header_bytes: http::DEFAULT_MAX_HEADER_BYTES,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            quant: env_flag("RPT_QUANT"),
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

struct Shared {
    cfg: ServeConfig,
    model_cfg: TransformerConfig,
    tx: SyncSender<Job>,
    state: Arc<BatcherShared>,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// worker threads (they exit with the process); tests should shut down.
pub struct Server {
    addr: SocketAddr,
    shared: Option<Arc<Shared>>,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the acceptor + batcher, and returns immediately.
    /// The served parameters are exactly `params` until a hot-reload.
    pub fn start(model: Seq2Seq, params: ParamStore, cfg: ServeConfig) -> std::io::Result<Server> {
        rpt_obs::set_metrics_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = sync_channel::<Job>(cfg.queue_cap);
        let state = Arc::new(BatcherShared {
            queue_depth: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let model_cfg = model.config().clone();
        let batcher = Batcher::new(
            model,
            params,
            rx,
            cfg.max_batch,
            cfg.checkpoint.clone(),
            Duration::from_millis(cfg.reload_poll_ms.max(1)),
            cfg.quant,
            Arc::clone(&state),
        );
        let batcher = std::thread::Builder::new()
            .name("rpt-serve-batcher".into())
            .spawn(move || batcher.run())?;

        let shared = Arc::new(Shared {
            cfg,
            model_cfg,
            tx,
            state,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rpt-serve-acceptor".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.state.shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = Arc::clone(&shared);
                        let handle = std::thread::Builder::new()
                            .name("rpt-serve-conn".into())
                            .spawn(move || handle_connection(stream, shared));
                        if let Ok(handle) = handle {
                            let mut guard = conns.lock().unwrap();
                            // Reap finished handlers so long-lived servers
                            // don't accumulate handles.
                            guard.retain(|h| !h.is_finished());
                            guard.push(handle);
                        }
                    }
                })?
        };
        rpt_obs::info!(target: "serve", "listening on {addr}");
        Ok(Server {
            addr,
            shared: Some(shared),
            acceptor: Some(acceptor),
            batcher: Some(batcher),
            conns,
        })
    }

    /// The bound address (use with `addr: "127.0.0.1:0"` to discover the
    /// kernel-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// drain the batcher, join every thread.
    pub fn shutdown(mut self) {
        if let Some(shared) = &self.shared {
            shared.state.shutdown.store(true, Ordering::Relaxed);
        }
        // Unblock the acceptor's blocking accept with a throwaway
        // connection; it checks the flag before handling it.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // All producers are gone once the handlers are joined and our own
        // Shared (holding the SyncSender) is dropped; the batcher then
        // sees a disconnected queue, finishes its drain, and exits.
        let batcher = self.batcher.take();
        drop(self.shared.take());
        if let Some(h) = batcher {
            let _ = h.join();
        }
        // Persist the final serve.* metrics: a served process previously
        // exited without ever flushing its snapshot (only training paths
        // called flush_snapshot). No-op when no output is configured.
        if let Some(Err(e)) = rpt_obs::flush_snapshot() {
            rpt_obs::warn!(target: "serve", "cannot flush final metrics snapshot: {e}");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.state.shutdown.store(true, Ordering::Relaxed);
        }
    }
}

/// Hard cap on responses owed to one connection. A client pipelining
/// past it simply stops being read until the head of the line drains.
const MAX_PIPELINED: usize = 64;

/// Per-request trace identity carried from dispatch to response write.
/// All-zero (and `summary` false) when tracing is dark or the request
/// failed to parse — every consumer then no-ops.
#[derive(Clone, Copy)]
struct ReqTrace {
    trace_id: u64,
    /// The `serve.request` root span, opened at parse start and closed
    /// when the response hits the socket.
    root: u64,
    /// Client sent `x-rpt-trace: 1`: echo a stage-timing summary header.
    summary: bool,
}

impl ReqTrace {
    const DARK: ReqTrace = ReqTrace {
        trace_id: 0,
        root: 0,
        summary: false,
    };
}

/// One response owed to the client, in request order.
enum Outcome {
    /// Computed synchronously (health, metrics, parse errors, 503s).
    Ready(Response, bool, ReqTrace),
    /// A decode job in flight on the batcher.
    Pending {
        rx: std::sync::mpsc::Receiver<(u64, rpt_nn::JobOutput)>,
        cancel: Arc<AtomicBool>,
        keep_alive: bool,
        started: std::time::Instant,
        trace: ReqTrace,
        /// Stage durations the batcher fills in (for the summary header).
        stages: Option<Arc<StageNs>>,
    },
}

/// What routing produced before it was queued for the client.
enum Routed {
    Ready(Response),
    Pending {
        rx: std::sync::mpsc::Receiver<(u64, rpt_nn::JobOutput)>,
        cancel: Arc<AtomicBool>,
        stages: Option<Arc<StageNs>>,
    },
}

/// The connection loop pipelines: every complete request in the buffer
/// is parsed, validated, and submitted to the batcher *immediately*, so
/// pipelined decodes coalesce into one fused batch instead of
/// serializing on the previous response — and a slow reader never stalls
/// batch formation for other connections. Responses are written strictly
/// in request order. When the client vanishes mid-decode, every owed
/// job's cancel flag is raised and the batcher reclaims the KV slots.
fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.cfg.read_timeout_ms.max(1),
    )));
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new(shared.cfg.max_header_bytes, shared.cfg.max_body_bytes);
    let mut buf = [0u8; 4096];
    let mut inflight: std::collections::VecDeque<Outcome> = std::collections::VecDeque::new();
    // Set once a `connection: close` request or a parse error arrives:
    // the outcome queue is complete, nothing more will be read.
    let mut closing = false;
    loop {
        // 1. Submit every complete buffered request. The timestamp before
        // each parse attempt anchors the request's root span (0 — and
        // clock-free — when tracing is dark).
        while !closing && inflight.len() < MAX_PIPELINED {
            let parse_start_ns = rpt_obs::now_ns();
            match parser.next_request() {
                Ok(Parsed::Request(req)) => {
                    closing = !req.keep_alive;
                    inflight.push_back(dispatch(&req, &shared, parse_start_ns));
                }
                Ok(Parsed::NeedMore) => break,
                Err(e) => {
                    // Still answer everything owed before the error; the
                    // error response then closes the connection.
                    SERVE_OBS.errors.inc();
                    inflight.push_back(Outcome::Ready(
                        Response::error(e.status(), e.code(), e.message()),
                        false,
                        ReqTrace::DARK,
                    ));
                    closing = true;
                }
            }
        }

        // 2. Write responses that are ready at the head of the line.
        while let Some(front) = inflight.front_mut() {
            let (resp, keep_alive, trace) = match front {
                Outcome::Ready(..) => match inflight.pop_front() {
                    Some(Outcome::Ready(resp, ka, trace)) => (resp, ka, trace),
                    _ => unreachable!("front was Ready"),
                },
                Outcome::Pending { rx, .. } => {
                    let recv = rx.try_recv();
                    if matches!(recv, Err(std::sync::mpsc::TryRecvError::Empty)) {
                        break;
                    }
                    let Some(Outcome::Pending {
                        keep_alive,
                        started,
                        trace,
                        stages,
                        ..
                    }) = inflight.pop_front()
                    else {
                        unreachable!("front was Pending");
                    };
                    let resp = match recv {
                        Ok((generation, out)) => {
                            render_decode(generation, &out, trace, stages.as_deref(), &started)
                        }
                        Err(_) => Response::error(500, "internal", "batcher dropped the request"),
                    };
                    (resp, keep_alive, trace)
                }
            };
            if resp.write_to(&mut stream, keep_alive).is_err() {
                cancel_all(&mut inflight);
                return;
            }
            // The response is on the wire: the request's wall time ends.
            rpt_obs::end_span(
                trace.trace_id,
                trace.root,
                0,
                "serve.request",
                rpt_obs::now_ns(),
            );
            if !keep_alive {
                cancel_all(&mut inflight);
                return;
            }
        }

        // 3. Wait for progress. A pending head is waited on directly
        // (zero added latency when the decode lands); otherwise block on
        // the socket for the next request.
        if let Some(Outcome::Pending { rx, .. }) = inflight.front() {
            match rx.recv_timeout(Duration::from_millis(shared.cfg.read_timeout_ms.max(1))) {
                Ok((generation, out)) => {
                    if let Some(Outcome::Pending {
                        keep_alive,
                        started,
                        trace,
                        stages,
                        ..
                    }) = inflight.front()
                    {
                        let resp =
                            render_decode(generation, &out, *trace, stages.as_deref(), started);
                        let (ka, tr) = (*keep_alive, *trace);
                        *inflight.front_mut().unwrap() = Outcome::Ready(resp, ka, tr);
                    }
                    continue; // flush it right away
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    if let Some(Outcome::Pending {
                        keep_alive, trace, ..
                    }) = inflight.front()
                    {
                        let (ka, tr) = (*keep_alive, *trace);
                        *inflight.front_mut().unwrap() = Outcome::Ready(
                            Response::error(500, "internal", "batcher dropped the request"),
                            ka,
                            tr,
                        );
                    }
                    continue;
                }
            }
        }
        if closing {
            // Everything owed is queued; don't read — just drain.
            continue;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Client hung up; decoding for it would be wasted work.
                cancel_all(&mut inflight);
                return;
            }
            Ok(n) => parser.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.state.shutdown.load(Ordering::Relaxed) && inflight.is_empty() {
                    return;
                }
            }
            Err(_) => {
                cancel_all(&mut inflight);
                return;
            }
        }
    }
}

/// Raises the cancel flag of every decode still owed to a vanished
/// client; the batcher reclaims their KV slots before its next step.
fn cancel_all(inflight: &mut std::collections::VecDeque<Outcome>) {
    for outcome in inflight.drain(..) {
        if let Outcome::Pending { cancel, .. } = outcome {
            cancel.store(true, Ordering::Relaxed);
        }
    }
}

/// Renders a finished decode into a response, recording latency, the
/// `serve.serialize` span, and (when the client opted in) the
/// `x-rpt-trace` stage-timing summary header. The header never touches
/// the body, so traced and dark servers stay byte-identical on the wire
/// payload.
fn render_decode(
    generation: u64,
    out: &rpt_nn::JobOutput,
    trace: ReqTrace,
    stages: Option<&StageNs>,
    started: &std::time::Instant,
) -> Response {
    SERVE_OBS
        .request_ms
        .record(started.elapsed().as_secs_f64() * 1e3);
    let s0 = rpt_obs::now_ns();
    let body = api::render_output(out, generation);
    let mut resp = Response::json(200, body);
    let s1 = rpt_obs::now_ns();
    rpt_obs::emit_span(trace.trace_id, trace.root, "serve.serialize", s0, s1);
    if trace.summary {
        if let Some(stages) = stages {
            let ms = |ns: u64| ns as f64 / 1e6;
            resp.headers.push((
                "x-rpt-trace",
                format!(
                    "id={:016x}; queue_wait_ms={:.3}; batch_wait_ms={:.3}; decode_ms={:.3}; serialize_ms={:.3}",
                    trace.trace_id,
                    ms(stages.queue_wait.load(Ordering::Relaxed)),
                    ms(stages.batch_wait.load(Ordering::Relaxed)),
                    ms(stages.decode.load(Ordering::Relaxed)),
                    ms(s1.saturating_sub(s0)),
                ),
            ));
        }
    }
    resp
}

fn dispatch(req: &Request, shared: &Shared, parse_start_ns: u64) -> Outcome {
    SERVE_OBS.requests.inc();
    let started = std::time::Instant::now();
    // Open the request's root span at parse start; `serve.parse` covers
    // header+body parsing plus routing/validation up to submission. Both
    // are zero-cost no-ops when tracing is dark (ids stay 0).
    let trace_id = rpt_obs::next_trace_id();
    let root = rpt_obs::begin_span(trace_id, 0, "serve.request", parse_start_ns);
    rpt_obs::emit_span(
        trace_id,
        root,
        "serve.parse",
        parse_start_ns,
        rpt_obs::now_ns(),
    );
    let trace = ReqTrace {
        trace_id,
        root,
        summary: req.header("x-rpt-trace").is_some_and(|v| v.trim() == "1"),
    };
    match route(req, shared, trace) {
        Routed::Ready(resp) => {
            if resp.status >= 400 && resp.status != 503 {
                SERVE_OBS.errors.inc();
            }
            SERVE_OBS
                .request_ms
                .record(started.elapsed().as_secs_f64() * 1e3);
            Outcome::Ready(resp, req.keep_alive, trace)
        }
        Routed::Pending { rx, cancel, stages } => Outcome::Pending {
            rx,
            cancel,
            keep_alive: req.keep_alive,
            started,
            trace,
            stages,
        },
    }
}

fn route(req: &Request, shared: &Shared, trace: ReqTrace) -> Routed {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let generation = shared.state.generation.load(Ordering::Relaxed);
            Routed::Ready(Response::json(
                200,
                rpt_json::json!({
                    "status": "ok",
                    "model_generation": generation,
                    "quant": shared.cfg.quant,
                })
                .to_string(),
            ))
        }
        ("GET", "/metrics") => {
            if query.split('&').any(|kv| kv == "format=text") {
                Routed::Ready(Response::text(200, rpt_obs::metrics_text()))
            } else {
                Routed::Ready(Response::json(
                    200,
                    rpt_obs::snapshot().to_string_pretty(),
                ))
            }
        }
        ("GET", "/debug/tracez") => Routed::Ready(Response::json(
            200,
            rpt_obs::tracez_json(32).to_string_pretty(),
        )),
        ("POST", "/v1/clean") => submit(
            api::parse_clean(&req.body, &shared.model_cfg),
            shared,
            trace,
        ),
        ("POST", "/v1/detect") => submit(
            api::parse_detect(&req.body, &shared.model_cfg),
            shared,
            trace,
        ),
        ("POST", "/v1/match") => submit(
            api::parse_match(&req.body, &shared.model_cfg),
            shared,
            trace,
        ),
        (_, "/healthz" | "/metrics" | "/debug/tracez" | "/v1/clean" | "/v1/detect" | "/v1/match") => {
            Routed::Ready(Response::error(
                405,
                "method_not_allowed",
                "wrong method for this route",
            ))
        }
        _ => Routed::Ready(Response::error(404, "not_found", "unknown route")),
    }
}

/// Queues a decode job without blocking: the caller holds the receiver
/// and answers the client when the batcher delivers (responses stay in
/// request order; the wait is bounded by decode time because the batcher
/// never parks an admitted job).
fn submit(spec: Result<rpt_nn::JobSpec, api::ApiError>, shared: &Shared, trace: ReqTrace) -> Routed {
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => return Routed::Ready(Response::error(400, e.code, &e.message)),
    };
    let (resp_tx, resp_rx) = sync_channel(1);
    let cancel = Arc::new(AtomicBool::new(false));
    // Stage accounting rides the job so the batcher thread can attribute
    // queue_wait/batch_wait/decode to this request's trace. None when
    // dark: the batcher then does zero trace work for the job.
    let (job_trace, stages) = if rpt_obs::trace_enabled() {
        let stages = Arc::new(StageNs {
            queue_wait: AtomicU64::new(0),
            batch_wait: AtomicU64::new(0),
            decode: AtomicU64::new(0),
        });
        (
            Some(JobTrace {
                trace_id: trace.trace_id,
                root: trace.root,
                enqueue_ns: rpt_obs::now_ns(),
                stages: Arc::clone(&stages),
            }),
            Some(stages),
        )
    } else {
        (None, None)
    };
    // Count the job before sending it so the batcher's decrement (which
    // happens-after the send) can never observe an un-incremented depth.
    let depth = shared.state.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    SERVE_OBS.queue_depth.set(depth as f64);
    match shared.tx.try_send(Job {
        spec,
        resp: resp_tx,
        cancel: Arc::clone(&cancel),
        trace: job_trace,
    }) {
        Ok(()) => Routed::Pending {
            rx: resp_rx,
            cancel,
            stages,
        },
        Err(TrySendError::Full(_)) => {
            shared.state.queue_depth.fetch_sub(1, Ordering::Relaxed);
            SERVE_OBS.rejected.inc();
            let mut resp = Response::error(503, "queue_full", "decode queue is full; retry");
            resp.headers.push(("retry-after", "1".to_string()));
            Routed::Ready(resp)
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.state.queue_depth.fetch_sub(1, Ordering::Relaxed);
            Routed::Ready(Response::error(
                503,
                "shutting_down",
                "server is shutting down",
            ))
        }
    }
}
