//! The two serve workloads: an `rpt_serve::Server` loaded through the
//! `--load` path and driven over HTTP by one client thread, plus the
//! in-process replays and traced windows the per-layer run takes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpt_core::cleaning::RptC;
use rpt_datagen::ErBenchmark;
use rpt_json::{Json, Map};
use rpt_nn::{JobOutput, JobSpec, MicroBatcher, Seq2Seq};
use rpt_serve::http::{Parsed, RequestParser, DEFAULT_MAX_BODY_BYTES, DEFAULT_MAX_HEADER_BYTES};
use rpt_serve::{api, ServeConfig, Server};
use rpt_tensor::{serialize, ParamStore};
use rpt_tokenizer::TupleEncoder;

use crate::client::{self, Response};
use crate::host::{self, Speed};
use crate::inputs::{self, Kind, Request};
use crate::layers::Layers;
use crate::report::{Digest, Failure, Tally};
use crate::stats::{median, percentile};

/// Most requests the batcher fuses, and the requests kept in flight.
const IN_FLIGHT: usize = 16;
/// Keep-alive connections the client spreads the requests in flight over.
/// The server's connection loop reads a socket only once that connection's
/// pipeline has drained, 4 KiB at a time: eight short requests per
/// connection arrive whole in one read, so refills do not wait on a
/// timeout, and while one connection drains the other keeps the batcher
/// fed.
const CONNS: usize = 2;
/// Responses checked against the single-request oracles per run.
const ORACLE_SAMPLE: usize = 12;

/// Which served model and request pool.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `serve_mix_d64`: Table-1-width f32.
    D64,
    /// `serve_long_int8_d256`: serve-scale int8 from a `quant-v1` file.
    D256,
}

impl Scale {
    /// The checkpoint this scale serves.
    fn checkpoint(self, dir: &Path) -> PathBuf {
        dir.join(format!("serve_{}.json", self.suffix()))
    }

    /// Suffix of this scale's per-layer metric names.
    pub fn suffix(self) -> &'static str {
        match self {
            Scale::D64 => "d64",
            Scale::D256 => "d256",
        }
    }
}

/// The workload's request pool.
pub fn pool(scale: Scale, seed: u64, benches: &[ErBenchmark]) -> Vec<Request> {
    let encoder = TupleEncoder::new(inputs::vocab(benches), Default::default());
    match scale {
        Scale::D64 => inputs::mix_requests(seed, benches, &encoder),
        Scale::D256 => inputs::long_requests(seed, benches, &encoder),
    }
}

/// Writes the checkpoint the workload serves: plain f32 params for d64, a
/// `quant-v1` file (params plus int8 tensors) for d256.
pub fn write_checkpoint(scale: Scale, benches: &[ErBenchmark], dir: &Path) -> Result<(), String> {
    let path = scale.checkpoint(dir);
    match scale {
        Scale::D64 => {
            let model = RptC::new(inputs::vocab(benches), inputs::d64_weights_config());
            serialize::save_file(&inputs::without_eos(&model.params), &path)
        }
        Scale::D256 => {
            let mut params = ParamStore::new();
            let _model = Seq2Seq::new(
                &mut params,
                inputs::d256_config(),
                &mut inputs::weights_rng(),
            );
            let params = inputs::without_eos(&params);
            let quant = rpt_nn::build_quant_set(&params);
            serialize::save_quant_file(&params, quant.iter_named(), &path)
        }
    }
    .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Loads the served model the way `rpt serve --load [--quant]` does: build
/// the architecture, read the parameters over it, and for a quantized file
/// attach its stored int8 tensors.
pub fn load(
    scale: Scale,
    benches: &[ErBenchmark],
    dir: &Path,
) -> Result<(Seq2Seq, ParamStore), String> {
    let path = scale.checkpoint(dir);
    match scale {
        Scale::D64 => {
            let mut model = RptC::new(inputs::vocab(benches), inputs::d64_config());
            serialize::load_file(&mut model.params, &path).map_err(|e| e.to_string())?;
            Ok(model.into_serve_parts())
        }
        Scale::D256 => {
            let mut params = ParamStore::new();
            let mut model =
                Seq2Seq::new(&mut params, inputs::d256_config(), &mut inputs::d256_rng());
            serialize::load_file(&mut params, &path).map_err(|e| e.to_string())?;
            let entries = serialize::load_quant_file(&path)
                .map_err(|e| e.to_string())?
                .ok_or("checkpoint has no quant section")?;
            let quant = rpt_nn::quant_set_from_named(&params, entries)?;
            model.set_quant(Some(Arc::new(quant)));
            Ok((model, params))
        }
    }
}

fn start(scale: Scale, model: Seq2Seq, params: ParamStore) -> Result<Server, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        max_batch: IN_FLIGHT,
        queue_cap: 4 * IN_FLIGHT,
        checkpoint: None,
        quant: scale == Scale::D256,
        ..ServeConfig::default()
    };
    Server::start(model, params, cfg).map_err(|e| format!("server start: {e}"))
}

/// The user's start-up: load the checkpoint, start the server, and get the
/// first request answered. Returns the server and the start-up's seconds at
/// the nominal host speed and in wall time.
pub fn setup(
    scale: Scale,
    benches: &[ErBenchmark],
    first: &Request,
    dir: &Path,
) -> Result<(Server, f64, f64), String> {
    let (server, nominal, wall) = host::timed(|| -> Result<Server, String> {
        let (model, params) = load(scale, benches, dir)?;
        let server = start(scale, model, params)?;
        let (status, _) = client::one_shot(
            &server.addr().to_string(),
            "POST",
            first.path(),
            &first.body,
        )
        .map_err(|e| format!("first request: {e}"))?;
        if status != 200 {
            return Err(format!("first request answered {status}"));
        }
        Ok(server)
    });
    Ok((server?, nominal, wall))
}

/// Output tokens a response body carries: greedy tokens, best-beam tokens,
/// or forced-scored positions.
fn output_tokens(body: &[u8]) -> usize {
    let Ok(doc) = Json::parse(&String::from_utf8_lossy(body)) else {
        return 0;
    };
    let len = |v: Option<&Json>| v.and_then(Json::as_array).map_or(0, <[Json]>::len);
    if let Some(hyps) = doc.get("hypotheses").and_then(Json::as_array) {
        len(hyps.first().and_then(|h| h.get("tokens")))
    } else if doc.get("per_token").is_some() {
        len(doc.get("per_token"))
    } else {
        len(doc.get("tokens"))
    }
}

/// Answers of a warm pass: each pool request sent once. Every later answer
/// to the same request must equal these bytes.
struct Baseline {
    bodies: Vec<Vec<u8>>,
    tokens: Vec<usize>,
}

fn warm_pass(addr: &str, raw: &[Vec<u8>], tally: &mut Tally) -> Baseline {
    let mut bodies = vec![Vec::new(); raw.len()];
    let mut sent = 0usize;
    let mut answered = 0u64;
    let result = client::closed_loop(
        addr,
        CONNS,
        IN_FLIGHT / CONNS,
        raw,
        || {
            sent += 1;
            (sent <= raw.len()).then_some(sent - 1)
        },
        |r: Response| {
            answered += 1;
            tally.record("warmup", Failure::of_status(r.status).map_or(Ok(()), Err));
            bodies[r.index] = r.body;
        },
    );
    if let Err(e) = result {
        eprintln!("perfbench: warm pass: {e}");
        tally.fail_n("warmup", Failure::Io, raw.len() as u64 - answered);
    }
    let tokens = bodies.iter().map(|b| output_tokens(b)).collect();
    Baseline { bodies, tokens }
}

/// What one closed-loop window answered.
#[derive(Default)]
struct Window {
    tokens: usize,
    /// From the first request written to the last response read.
    seconds: f64,
    latencies_ms: Vec<f64>,
    /// Pool index of each latency's request.
    indices: Vec<usize>,
    traces: Vec<String>,
}

/// Runs the closed loop: sends for `seconds`, going on through the pool
/// from `cursor`, then drains what is owed. Every answer must equal the
/// warm pass's.
fn window(
    addr: &str,
    raw: &[Vec<u8>],
    base: &Baseline,
    seconds: f64,
    cursor: &mut usize,
    phase: &str,
    tally: &mut Tally,
) -> Window {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut sent = 0u64;
    let mut answered = 0u64;
    let mut w = Window::default();
    let result = client::closed_loop(
        addr,
        CONNS,
        IN_FLIGHT / CONNS,
        raw,
        || {
            (Instant::now() < deadline).then(|| {
                sent += 1;
                *cursor = (*cursor + 1) % raw.len();
                *cursor
            })
        },
        |r: Response| {
            answered += 1;
            let outcome = match Failure::of_status(r.status) {
                Some(f) => Err(f),
                None if r.body != base.bodies[r.index] => Err(Failure::Mismatch),
                None => Ok(()),
            };
            tally.record(phase, outcome);
            if outcome.is_ok() {
                w.tokens += base.tokens[r.index];
                w.latencies_ms.push(r.latency.as_secs_f64() * 1e3);
                w.indices.push(r.index);
                w.traces.extend(r.trace);
            }
        },
    );
    w.seconds = t0.elapsed().as_secs_f64();
    if let Err(e) = result {
        eprintln!("perfbench: {phase} window: {e}");
        tally.fail_n(phase, Failure::Io, sent - answered);
    }
    w
}

/// Checks a seeded sample of the warm answers against the single-request
/// oracles, bit for bit, on a freshly loaded copy of the model. For f32 the
/// oracles are the recompute references; for int8 they are the KV-cached
/// single-request decoders, because the recompute references run f32
/// arithmetic whatever weights are attached.
fn oracle_check(
    scale: Scale,
    seed: u64,
    benches: &[ErBenchmark],
    dir: &Path,
    pool: &[Request],
    base: &Baseline,
    tally: &mut Tally,
) -> Result<(), String> {
    let (model, mut params) = load(scale, benches, dir)?;
    let cfg = model.config().clone();
    for n in 0..ORACLE_SAMPLE {
        let i = (seed as usize).wrapping_mul(31).wrapping_add(n * 97) % pool.len();
        let req = &pool[i];
        let spec = match req.kind {
            Kind::Greedy | Kind::Beam => api::parse_clean(req.body.as_bytes(), &cfg),
            Kind::Detect => api::parse_detect(req.body.as_bytes(), &cfg),
            Kind::Match => api::parse_match(req.body.as_bytes(), &cfg),
        }
        .map_err(|e| format!("request {i}: {}", e.message))?;
        let int8 = scale == Scale::D256;
        let out = match spec {
            JobSpec::Greedy {
                src,
                bos,
                eos,
                max_steps,
            } => JobOutput::Greedy {
                tokens: if int8 {
                    rpt_nn::greedy_decode(&model, &mut params, &src, bos, eos, max_steps)
                } else {
                    rpt_nn::greedy_decode_reference(&model, &mut params, &src, bos, eos, max_steps)
                },
            },
            JobSpec::Beam { src, bos, eos, cfg } => JobOutput::Beam {
                hypotheses: if int8 {
                    rpt_nn::beam_search(&model, &mut params, &src, bos, eos, &cfg)
                } else {
                    rpt_nn::beam_search_reference(&model, &mut params, &src, bos, eos, &cfg)
                },
            },
            JobSpec::Forced {
                src,
                bos,
                eos,
                targets,
            } => {
                let (total_logprob, per_token) =
                    rpt_nn::forced_score(&model, &mut params, &src, bos, eos, &targets);
                JobOutput::Forced {
                    total_logprob,
                    per_token,
                }
            }
        };
        let expected = api::render_output(&out, 0);
        let ok = expected.as_bytes() == base.bodies[i].as_slice();
        if !ok {
            eprintln!("perfbench: oracle mismatch on request {i} ({:?})", req.kind);
        }
        tally.record("check", if ok { Ok(()) } else { Err(Failure::Mismatch) });
    }
    Ok(())
}

/// `serve.kv_slots_in_use` and the `serve.tokens` / `serve.batch_steps`
/// counters, read from `GET /metrics`.
fn server_metrics(addr: &str) -> Result<(f64, u64, u64), String> {
    let (status, body) =
        client::one_shot(addr, "GET", "/metrics", "").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| e.to_string())?;
    let gauge = |n: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(n))
            .and_then(Json::as_f64)
    };
    let counter = |n: &str| {
        doc.get("counters")
            .and_then(|g| g.get(n))
            .and_then(Json::as_u64)
    };
    Ok((
        gauge("serve.kv_slots_in_use").unwrap_or(-1.0),
        counter("serve.tokens").unwrap_or(0),
        counter("serve.batch_steps").unwrap_or(0),
    ))
}

fn check_slots(addr: &str, tally: &mut Tally) -> Result<(), String> {
    let (slots, _, _) = server_metrics(addr)?;
    tally.record(
        "check",
        if slots == 0.0 {
            Ok(())
        } else {
            Err(Failure::KvSlots)
        },
    );
    Ok(())
}

fn digest(base: &Baseline) -> String {
    let mut d = Digest::default();
    for body in &base.bodies {
        d.add(body);
    }
    d.hex()
}

impl Scale {
    /// Seconds one measured round sends for before it drains and takes a
    /// reference pass (`host`): a second at d64, where a request takes
    /// tens of milliseconds, and four at d256, where it takes most of one,
    /// so that draining stays a small part of each round.
    fn round_s(self) -> f64 {
        match self {
            Scale::D64 => 1.0,
            Scale::D256 => 4.0,
        }
    }
}

/// A measured run: set up, warm pass, `seconds` of closed-loop load in
/// rounds of [`Scale::round_s`] with a reference pass after each, restated at the
/// nominal host speed; slot check, peak RSS, then the oracle checks.
pub fn measure(scale: Scale, seed: u64, seconds: f64, dir: &Path) -> Result<Json, String> {
    let benches = inputs::benchmarks(seed);
    let pool = pool(scale, seed, &benches);
    let raw: Vec<Vec<u8>> = pool.iter().map(|r| r.http(false)).collect();
    let mut tally = Tally::default();
    let (server, setup_s, setup_wall_s) = setup(scale, &benches, &pool[0], dir)?;
    let addr = server.addr().to_string();
    let base = warm_pass(&addr, &raw, &mut tally);
    let (_, rows0, steps0) = server_metrics(&addr)?;
    let mut speed = Speed::start();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cursor = 0;
    let mut round_tokens = Vec::new();
    // Every round's answers together, for the tokens and the record.
    let mut all = Window::default();
    while Instant::now() < end {
        let round = window(
            &addr,
            &raw,
            &base,
            scale.round_s(),
            &mut cursor,
            "measured",
            &mut tally,
        );
        speed.end_round(round.seconds, round.latencies_ms.clone());
        round_tokens.push(Json::from(round.tokens));
        all.tokens += round.tokens;
        all.latencies_ms.extend(round.latencies_ms);
        all.indices.extend(round.indices);
    }
    let (nominal_s, latencies_ms) = speed.restated();
    let (wall_s, _) = speed.wall();
    let (_, rows1, steps1) = server_metrics(&addr)?;
    check_slots(&addr, &mut tally)?;
    let peak_rss_mb = crate::report::peak_rss_mb();
    server.shutdown();
    oracle_check(scale, seed, &benches, dir, &pool, &base, &mut tally)?;
    Ok(rpt_json::json!({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "metrics": {
            "tokens_per_s": all.tokens as f64 / nominal_s,
            "latency_p50_ms": percentile(&latencies_ms, 0.5)?,
            "latency_p90_ms": percentile(&latencies_ms, 0.9)?,
            "peak_rss_mb": peak_rss_mb,
        },
        "tally": tally.to_json(),
        "info": {
            "responses": all.latencies_ms.len(),
            "wall": {
                "tokens_per_s": all.tokens as f64 / wall_s,
                "latency_p50_ms": percentile(&all.latencies_ms, 0.5)?,
                "latency_p90_ms": percentile(&all.latencies_ms, 0.9)?,
            },
            "reference_passes": speed.record(),
            "tokens_by_round": round_tokens,
            "latency_ms_by_kind": by_kind(&pool, &all),
            "output_tokens": all.tokens,
            "pool": pool.len(),
            "rows_per_step": (rows1 - rows0) as f64 / (steps1 - steps0).max(1) as f64,
            "batch_steps": steps1 - steps0,
            "digest": digest(&base),
        },
    }))
}

/// Per request kind: responses and latency deciles, for the raw record.
fn by_kind(pool: &[Request], w: &Window) -> Json {
    let mut out = Map::new();
    for kind in [Kind::Greedy, Kind::Beam, Kind::Detect, Kind::Match] {
        let mut v: Vec<f64> = w
            .indices
            .iter()
            .zip(&w.latencies_ms)
            .filter(|(&i, _)| pool[i].kind == kind)
            .map(|(_, &ms)| ms)
            .collect();
        if v.is_empty() {
            continue;
        }
        v.sort_by(f64::total_cmp);
        let deciles: Vec<Json> = (0..=10)
            .map(|d| Json::from(v[(v.len() - 1) * d / 10]))
            .collect();
        out.insert(
            format!("{kind:?}"),
            rpt_json::json!({"responses": v.len(), "deciles": deciles}),
        );
    }
    Json::Object(out)
}

/// A start-up only, for the extra `setup_s` samples.
pub fn setup_only(scale: Scale, seed: u64, dir: &Path) -> Result<(f64, f64), String> {
    let benches = inputs::benchmarks(seed);
    let pool = pool(scale, seed, &benches);
    let (server, setup_s, setup_wall_s) = setup(scale, &benches, &pool[0], dir)?;
    server.shutdown();
    Ok((setup_s, setup_wall_s))
}

/// Traced HTTP windows: dark and traced windows alternate on one server;
/// traced requests carry `x-rpt-trace: 1`. Reports the batcher stages from
/// the server's header as per-request means (the header rounds each stage
/// to a microsecond, which would freeze a median), rows per fused step from
/// `/metrics`, and the traced-vs-dark tokens/s difference. Every traced
/// answer must equal the dark one byte for byte, and a seeded sample of
/// them the single-request oracles.
pub fn traced_windows(
    scale: Scale,
    seed: u64,
    dir: &Path,
    seconds: f64,
    out: &mut Map,
    tally: &mut Tally,
) -> Result<f64, String> {
    let benches = inputs::benchmarks(seed);
    let pool = pool(scale, seed, &benches);
    let dark: Vec<Vec<u8>> = pool.iter().map(|r| r.http(false)).collect();
    let traced: Vec<Vec<u8>> = pool.iter().map(|r| r.http(true)).collect();
    let (model, params) = load(scale, &benches, dir)?;
    let server = start(scale, model, params)?;
    let addr = server.addr().to_string();
    let base = warm_pass(&addr, &dark, tally);
    let mut tps = [Vec::new(), Vec::new()];
    let mut stages: [Vec<f64>; 4] = Default::default();
    let (mut rows, mut steps, mut cursor) = (0u64, 0u64, 0);
    for _round in 0..2 {
        for on in [false, true] {
            rpt_obs::set_trace_enabled(on);
            let (_, rows0, steps0) = server_metrics(&addr)?;
            let raw = if on { &traced } else { &dark };
            let w = window(&addr, raw, &base, seconds, &mut cursor, "traced", tally);
            let (_, rows1, steps1) = server_metrics(&addr)?;
            tps[usize::from(on)].push(w.tokens as f64 / w.seconds);
            if on {
                rows += rows1 - rows0;
                steps += steps1 - steps0;
                for header in &w.traces {
                    for (slot, key) in [
                        "queue_wait_ms",
                        "batch_wait_ms",
                        "decode_ms",
                        "serialize_ms",
                    ]
                    .iter()
                    .enumerate()
                    {
                        if let Some(v) = header_field(header, key) {
                            stages[slot].push(v);
                        }
                    }
                }
            }
        }
    }
    rpt_obs::set_trace_enabled(false);
    check_slots(&addr, tally)?;
    server.shutdown();
    oracle_check(scale, seed, &benches, dir, &pool, &base, tally)?;
    let sfx = scale.suffix();
    for (slot, key) in [
        "queue_wait_ms",
        "batch_wait_ms",
        "decode_ms",
        "serialize_ms",
    ]
    .iter()
    .enumerate()
    {
        if stages[slot].is_empty() {
            return Err(format!("no x-rpt-trace headers for {key}"));
        }
        let mean = stages[slot].iter().sum::<f64>() / stages[slot].len() as f64;
        out.insert(format!("serve.{key}.{sfx}"), Json::from(mean));
    }
    out.insert(
        format!("serve.rows_per_step.{sfx}"),
        Json::from(rows as f64 / steps.max(1) as f64),
    );
    let (d, t) = (median(&tps[0]), median(&tps[1]));
    Ok((d - t) / d * 100.0)
}

fn header_field(header: &str, key: &str) -> Option<f64> {
    header.split(';').find_map(|kv| {
        let (k, v) = kv.trim().split_once('=')?;
        (k == key).then(|| v.parse().ok())?
    })
}

/// Replays the pool through the layers `rpt-serve` runs per request, in
/// process and with 16 jobs in flight: HTTP parse, API parse, batcher
/// admission, fused steps, response render. Returns the layers and the
/// replay's wall time, seconds.
pub fn replay(scale: Scale, seed: u64, dir: &Path, out: &mut Map) -> Result<(Layers, f64), String> {
    let benches = inputs::benchmarks(seed);
    let pool = pool(scale, seed, &benches);
    let raw: Vec<Vec<u8>> = pool.iter().map(|r| r.http(false)).collect();
    let (model, mut params) = load(scale, &benches, dir)?;
    let cfg = model.config().clone();
    let sfx = scale.suffix();
    let (http, apip, render) = (
        format!("serve.http_parse_us.{sfx}"),
        format!("serve.api_parse_us.{sfx}"),
        format!("serve.api_render_us.{sfx}"),
    );
    let (admit, step, per_row) = (
        format!("nn.batch_admit_ms.{sfx}"),
        format!("nn.batch_step_ms.{sfx}"),
        format!("nn.batch_step_us_per_row.{sfx}"),
    );
    let mut layers = Layers::default();
    let mut per_row_us = Vec::new();
    let mut rows_total = 0usize;
    let mut steps = 0usize;
    let mut parser = RequestParser::new(DEFAULT_MAX_HEADER_BYTES, DEFAULT_MAX_BODY_BYTES);
    let mut mb = MicroBatcher::new(&model, &mut params);
    let mut next = 0usize;
    let t0 = Instant::now();
    loop {
        while mb.slots_in_use() < IN_FLIGHT && next < pool.len() {
            let req = layers.time(&http, 1e6, || {
                parser.feed(&raw[next]);
                parser.next_request()
            });
            let Ok(Parsed::Request(req)) = req else {
                return Err(format!("request {next} did not parse"));
            };
            let spec = layers.time(&apip, 1e6, || match pool[next].kind {
                Kind::Greedy | Kind::Beam => api::parse_clean(&req.body, &cfg),
                Kind::Detect => api::parse_detect(&req.body, &cfg),
                Kind::Match => api::parse_match(&req.body, &cfg),
            });
            let spec = spec.map_err(|e| e.message)?;
            layers.time(&admit, 1e3, || {
                mb.admit(&model, &mut params, next as u64, spec)
            });
            next += 1;
        }
        if mb.is_idle() {
            break;
        }
        let rows = mb.rows();
        let t = Instant::now();
        let finished = mb.step(&model, &mut params);
        let dt = t.elapsed().as_secs_f64();
        layers.add(&step, 1e3, dt);
        per_row_us.push(dt * 1e6 / rows.max(1) as f64);
        rows_total += rows;
        steps += 1;
        for (_, output) in finished {
            std::hint::black_box(layers.time(&render, 1e6, || api::render_output(&output, 0)));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    layers.medians_into(out);
    out.insert(per_row, Json::from(median(&per_row_us)));
    out.insert(
        format!("nn.batch_rows_per_step.{sfx}"),
        Json::from(rows_total as f64 / steps.max(1) as f64),
    );
    Ok((layers, wall))
}

/// `ckpt.load_ms.<scale>`: the checkpoint read of the `--load` path alone
/// (params, plus the int8 section for d256), per-call median of `reps`.
pub fn checkpoint_load_ms(scale: Scale, seed: u64, dir: &Path, reps: usize) -> Result<f64, String> {
    let benches = inputs::benchmarks(seed);
    let path = scale.checkpoint(dir);
    let mut ms = Vec::new();
    for _ in 0..reps {
        let mut params = match scale {
            Scale::D64 => RptC::new(inputs::vocab(&benches), inputs::d64_config()).params,
            Scale::D256 => {
                let mut p = ParamStore::new();
                Seq2Seq::new(&mut p, inputs::d256_config(), &mut inputs::d256_rng());
                p
            }
        };
        let t0 = Instant::now();
        serialize::load_file(&mut params, &path).map_err(|e| e.to_string())?;
        if scale == Scale::D256 {
            std::hint::black_box(serialize::load_quant_file(&path).map_err(|e| e.to_string())?);
        }
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}
