//! `clean_fill_d64`: RPT-C masked-value recovery one request at a time.
//! Nine calls in ten are `Filler::fill` (beam-4), the only call `rpt clean`
//! and `rpt detect` make; one in ten is `RptC::reconstruct` (greedy), the
//! denoising call of the Fig. 3 experiment.

use std::path::Path;
use std::time::{Duration, Instant};

use rpt_core::cleaning::{Filler, RptC};
use rpt_datagen::ErBenchmark;
use rpt_json::{Json, Map};
use rpt_nn::metrics::{argmax, log_softmax_row};
use rpt_nn::{BeamConfig, TokenBatch};
use rpt_tensor::serialize;
use rpt_tokenizer::{BOS, EOS, PAD};

use crate::host::{self, Speed};
use crate::inputs::{self, FillTask, CLEAN_STEPS, RECONSTRUCT_EVERY};
use crate::layers::Layers;
use crate::report::{Digest, Failure, Tally, UNATTRIBUTED_TOLERANCE};
use crate::stats::percentile;

const MODEL_FILE: &str = "clean_model.json";
/// Fill tasks checked against the reference decoders per run.
const ORACLE_SAMPLE: usize = 8;
/// Operations of the warm pass; the reference sample is drawn from them.
const WARM_OPS: usize = 32;

/// Writes the RPT-C checkpoint the workload loads.
pub fn write_checkpoint(benches: &[ErBenchmark], dir: &Path) -> Result<(), String> {
    let model = RptC::new(inputs::vocab(benches), inputs::d64_weights_config());
    serialize::save_file(&inputs::without_eos(&model.params), dir.join(MODEL_FILE))
        .map_err(|e| e.to_string())
}

/// The `rpt clean --load` start-up: vocabulary over the tables, the model,
/// the checkpoint read over it.
fn load(benches: &[ErBenchmark], dir: &Path) -> Result<RptC, String> {
    let mut model = RptC::new(inputs::vocab(benches), inputs::d64_config());
    serialize::load_file(&mut model.params, dir.join(MODEL_FILE)).map_err(|e| e.to_string())?;
    Ok(model)
}

/// The masked source of a task, batched as the decoders take it.
fn source(model: &RptC, benches: &[ErBenchmark], task: FillTask) -> TokenBatch {
    let table = inputs::tables(benches)[task.table];
    let seq = model.masked_source(table.schema(), table.row(task.row), task.col);
    TokenBatch::from_sequences(&[seq], model.config().model.max_len, PAD)
}

fn fill(model: &mut RptC, benches: &[ErBenchmark], task: FillTask) -> (Vec<usize>, f32) {
    let table = inputs::tables(benches)[task.table];
    let r = model.fill(table.schema(), table.row(task.row), task.col);
    (r.tokens, r.score)
}

/// Whether operation `k` is a beam fill or (one in [`RECONSTRUCT_EVERY`]) a
/// greedy reconstruction. The pool size is a multiple of it, so a task
/// always gets the same kind of operation.
fn is_fill(k: usize) -> bool {
    k % RECONSTRUCT_EVERY != RECONSTRUCT_EVERY - 1
}

/// Operation `k` of the loop on task `k mod pool`. Returns the output bytes
/// (tokens, and the score bits for a fill) and the tokens filled.
fn op(
    model: &mut RptC,
    benches: &[ErBenchmark],
    tasks: &[FillTask],
    srcs: &[TokenBatch],
    k: usize,
) -> (Vec<u8>, usize) {
    let i = k % tasks.len();
    let (tokens, score) = if is_fill(k) {
        let (t, s) = fill(model, benches, tasks[i]);
        (t, Some(s))
    } else {
        (model.reconstruct(&srcs[i], CLEAN_STEPS), None)
    };
    (encode_output(&tokens, score), tokens.len())
}

fn encode_output(tokens: &[usize], score: Option<f32>) -> Vec<u8> {
    let mut out: Vec<u8> = tokens
        .iter()
        .flat_map(|t| (*t as u32).to_le_bytes())
        .collect();
    if let Some(s) = score {
        out.extend(s.to_bits().to_le_bytes());
    }
    out
}

/// Length of one measured round between two reference passes (`host`).
const ROUND_S: f64 = 1.0;

/// A measured run: start-up (load + first fill), a warm pass, `seconds`
/// of fills and reconstructions in rounds of [`ROUND_S`] with a reference
/// pass after each, restated at the nominal host speed, then the reference
/// checks.
pub fn measure(seed: u64, seconds: f64, dir: &Path) -> Result<Json, String> {
    let benches = inputs::benchmarks(seed);
    let tasks = inputs::fill_tasks(seed, &benches);
    let (mut model, setup_s, setup_wall_s) = setup(&benches, &tasks, dir)?;
    let srcs: Vec<TokenBatch> = tasks.iter().map(|&t| source(&model, &benches, t)).collect();
    let mut tally = Tally::default();
    let mut first: Vec<Option<Vec<u8>>> = vec![None; tasks.len()];
    for (k, slot) in first.iter_mut().enumerate().take(WARM_OPS) {
        *slot = Some(op(&mut model, &benches, &tasks, &srcs, k).0);
        tally.record("warmup", Ok(()));
    }
    let (mut fill_ms, mut reconstruct_ms) = (Vec::new(), Vec::new());
    let mut filled = 0usize;
    let mut speed = Speed::start();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    while Instant::now() < end {
        let t0 = Instant::now();
        let mut round_ms = Vec::new();
        while t0.elapsed().as_secs_f64() < ROUND_S {
            let t = Instant::now();
            let (bytes, n) = op(&mut model, &benches, &tasks, &srcs, k);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            round_ms.push(ms);
            if is_fill(k) {
                &mut fill_ms
            } else {
                &mut reconstruct_ms
            }
            .push(ms);
            filled += n;
            let slot = &mut first[k % tasks.len()];
            let outcome = match slot {
                Some(prev) if *prev != bytes => Err(Failure::Mismatch),
                Some(_) => Ok(()),
                None => {
                    *slot = Some(bytes);
                    Ok(())
                }
            };
            tally.record("measured", outcome);
            k += 1;
        }
        speed.end_round(t0.elapsed().as_secs_f64(), round_ms);
    }
    let (nominal_s, latencies_ms) = speed.restated();
    let (wall_s, wall_ms) = speed.wall();
    let peak_rss_mb = crate::report::peak_rss_mb();
    reference_check(seed, &mut model, &tasks, &srcs, &first, &mut tally);
    let mut digest = Digest::default();
    for bytes in first.iter().flatten() {
        digest.add(bytes);
    }
    Ok(rpt_json::json!({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "metrics": {
            "tokens_per_s": filled as f64 / nominal_s,
            "latency_p50_ms": percentile(&latencies_ms, 0.5)?,
            "latency_p90_ms": percentile(&latencies_ms, 0.9)?,
            "peak_rss_mb": peak_rss_mb,
        },
        "tally": tally.to_json(),
        "info": {
            "calls": latencies_ms.len(),
            "wall": {
                "tokens_per_s": filled as f64 / wall_s,
                "latency_p50_ms": percentile(&wall_ms, 0.5)?,
                "latency_p90_ms": percentile(&wall_ms, 0.9)?,
            },
            "reference_passes": speed.record(),
            "filled_tokens": filled,
            "outputs_seen": first.iter().flatten().count(),
            "fill_ms_p50": crate::stats::median(&fill_ms),
            "reconstruct_ms_p50": crate::stats::median(&reconstruct_ms),
            "digest": digest.hex(),
        },
    }))
}

/// The user's start-up: load the model and answer the first fill. Returns
/// the model and the start-up's seconds at the nominal host speed and in
/// wall time.
fn setup(
    benches: &[ErBenchmark],
    tasks: &[FillTask],
    dir: &Path,
) -> Result<(RptC, f64, f64), String> {
    let (model, nominal, wall) = host::timed(|| -> Result<RptC, String> {
        let mut model = load(benches, dir)?;
        std::hint::black_box(fill(&mut model, benches, tasks[0]));
        Ok(model)
    });
    Ok((model?, nominal, wall))
}

/// A start-up only, for the extra `setup_s` samples.
pub fn setup_only(seed: u64, dir: &Path) -> Result<(f64, f64), String> {
    let benches = inputs::benchmarks(seed);
    let tasks = inputs::fill_tasks(seed, &benches);
    let (_, nominal, wall) = setup(&benches, &tasks, dir)?;
    Ok((nominal, wall))
}

/// Fills must equal `beam_search_reference` (tokens and score bits) and
/// reconstructions `greedy_decode_reference`, on a seeded sample of the
/// warm pass plus its reconstructions.
fn reference_check(
    seed: u64,
    model: &mut RptC,
    tasks: &[FillTask],
    srcs: &[TokenBatch],
    first: &[Option<Vec<u8>>],
    tally: &mut Tally,
) {
    let beam = BeamConfig {
        width: model.config().beam_width,
        max_steps: model.config().max_fill_len,
        len_penalty: 1.0,
    };
    let (net, params) = model.decode_parts();
    let seeded =
        (0..ORACLE_SAMPLE).map(|n| (seed as usize).wrapping_mul(7).wrapping_add(n * 13) % WARM_OPS);
    // Every reconstruction of the warm pass too, so the minor share is
    // always checked.
    let reconstructs = (0..WARM_OPS).filter(|&k| !is_fill(k));
    for k in seeded.chain(reconstructs) {
        let i = k % tasks.len();
        let expected = if is_fill(k) {
            let best = rpt_nn::beam_search_reference(net, params, &srcs[i], BOS, EOS, &beam)
                .into_iter()
                .next();
            best.map_or_else(
                || encode_output(&[], Some(f32::NEG_INFINITY)),
                |h| encode_output(&h.tokens, Some(h.score)),
            )
        } else {
            encode_output(
                &rpt_nn::greedy_decode_reference(net, params, &srcs[i], BOS, EOS, CLEAN_STEPS),
                None,
            )
        };
        let ok = first[k].as_deref() == Some(expected.as_slice());
        if !ok {
            eprintln!("perfbench: reference mismatch on clean op {k}");
        }
        tally.record("check", if ok { Ok(()) } else { Err(Failure::Mismatch) });
    }
}

/// Replays greedy reconstruction through its layers — masking, the
/// encoder pass of `begin_decode`, one `decode_step` per token and the
/// log-softmax/argmax selection — then the whole `greedy_decode` and
/// beam-4 `beam_search` calls on the same source. The decomposition must
/// explain the whole `greedy_decode` call: per source, begin + steps +
/// selection against the `greedy_decode` call right after it, and the
/// median of those shares over the replay must come within
/// [`UNATTRIBUTED_TOLERANCE`] of 1, or the replay counts an `unattributed`
/// failure. Per source and by median, because the host's speed shifts
/// within a run and a pair of back-to-back calls sees one speed.
/// Returns the layers and the replay's wall time, seconds.
pub fn replay(
    seed: u64,
    dir: &Path,
    out: &mut Map,
    info: &mut Map,
    tally: &mut Tally,
) -> Result<(Layers, f64), String> {
    let benches = inputs::benchmarks(seed);
    let tasks = inputs::fill_tasks(seed, &benches);
    let tables = inputs::tables(&benches);
    let mut model = load(&benches, dir)?;
    let beam = BeamConfig {
        width: inputs::BEAM_WIDTH,
        max_steps: model.config().max_fill_len,
        len_penalty: 1.0,
    };
    let max_len = model.config().model.max_len;
    let mut layers = Layers::default();
    let mut explained = Vec::new();
    let t0 = Instant::now();
    for task in tasks.iter().take(48) {
        let table = tables[task.table];
        let src = layers.time("clean.mask_us", 1e6, || {
            let seq = model.masked_source(table.schema(), table.row(task.row), task.col);
            TokenBatch::from_sequences(&[seq], max_len, PAD)
        });
        let (net, params) = model.decode_parts();
        let before = layers.attributed_s;
        let mut state = layers.time("nn.decode_begin_ms", 1e3, || net.begin_decode(params, &src));
        let mut prefix = vec![BOS];
        for _ in 0..CLEAN_STEPS {
            let last = *prefix.last().expect("prefix starts with BOS");
            let logits = layers.time("nn.decode_step_us", 1e6, || {
                net.decode_step(params, &mut state, &[last])
            });
            let next = layers.time("nn.select_us", 1e6, || {
                argmax(&log_softmax_row(logits.data()))
            });
            if next == EOS {
                break;
            }
            prefix.push(next);
            if prefix.len() >= max_len {
                break;
            }
        }
        let parts_s = layers.attributed_s - before;
        let before = layers.attributed_s;
        let greedy = layers.time("nn.greedy_ms", 1e3, || {
            rpt_nn::greedy_decode(net, params, &src, BOS, EOS, CLEAN_STEPS)
        });
        explained.push(parts_s / (layers.attributed_s - before));
        tally.record(
            "replay",
            if greedy == prefix[1..] {
                Ok(())
            } else {
                Err(Failure::Mismatch)
            },
        );
        std::hint::black_box(layers.time("nn.beam4_ms", 1e3, || {
            rpt_nn::beam_search(net, params, &src, BOS, EOS, &beam)
        }));
    }
    let wall = t0.elapsed().as_secs_f64();
    layers.medians_into(out);
    let gap = 1.0 - crate::stats::median(&explained);
    info.insert("greedy_unexplained_pct".into(), Json::from(gap * 100.0));
    let ok = gap.abs() <= UNATTRIBUTED_TOLERANCE;
    if !ok {
        eprintln!(
            "perfbench: greedy_decode's layers explain {:.1}% of it",
            (1.0 - gap) * 100.0
        );
    }
    tally.record(
        "replay",
        if ok {
            Ok(())
        } else {
            Err(Failure::Unattributed)
        },
    );
    Ok((layers, wall))
}

/// Tokens/s of the fill loop over `seconds` (the traced-run overhead probe).
pub fn fill_rate(seed: u64, dir: &Path, seconds: f64) -> Result<f64, String> {
    let benches = inputs::benchmarks(seed);
    let tasks = inputs::fill_tasks(seed, &benches);
    let mut model = load(&benches, dir)?;
    let srcs: Vec<TokenBatch> = tasks.iter().map(|&t| source(&model, &benches, t)).collect();
    let t0 = Instant::now();
    let mut filled = 0usize;
    let mut k = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        filled += op(&mut model, &benches, &tasks, &srcs, k).1;
        k += 1;
    }
    Ok(filled as f64 / t0.elapsed().as_secs_f64())
}
