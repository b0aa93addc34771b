//! `pretrain_stream_d64`: shard the generated tables the way `rpt shard`
//! does, then stream them from disk through `RptC::pretrain_stream` on the
//! Table-1 configuration (batch 16, micro-batch 4, prefetch on).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rpt_core::cleaning::{CleaningConfig, RptC, StreamOpts};
use rpt_core::corpus::{self, DiskCorpus, EncodedExample, Manifest, ShardSource};
use rpt_core::{TrainOpts, Trainer};
use rpt_datagen::ErBenchmark;
use rpt_json::{Json, Map};
use rpt_par::ThreadPool;
use rpt_rng::{Rng, SeedableRng, SmallRng};
use rpt_tokenizer::{TupleEncoder, BOS, EOS, PAD};

use crate::host::{self, Speed};
use crate::inputs;
use crate::layers::Layers;
use crate::report::{Digest, Failure, Tally, UNATTRIBUTED_TOLERANCE};
use crate::stats::{median, percentile};

/// Tuples per shard: one optimizer step's batch, so every step takes one
/// shard hand-off and a run collects enough hand-off intervals for p90.
pub const SHARD_TUPLES: usize = 16;
/// Optimizer steps before the measured run; their median hand-off interval
/// sizes its rounds.
const WARM_STEPS: usize = 12;
/// Target length of one measured round: one `pretrain_stream` call between
/// two reference passes (`host`).
const ROUND_S: f64 = 1.0;
/// Fewest optimizer steps in a round: the first hand-offs of a call fill
/// the prefetch buffer and give no interval.
const MIN_ROUND_STEPS: usize = 8;

/// The Table-1 training configuration for a run of `steps` optimizer
/// steps; `pretrain_stream` ends when its trainer has taken them.
fn config(steps: usize) -> CleaningConfig {
    let mut cfg = inputs::d64_config();
    cfg.train = TrainOpts {
        steps,
        batch_size: 16,
        micro_batch: 4,
        warmup: 20,
        peak_lr: 3e-3,
        ..TrainOpts::default()
    };
    cfg
}

/// When each shard load started and how long it took.
type LoadLog = Vec<(Instant, Duration)>;

/// A `ShardSource` that logs its shard loads: the hand-offs seen from
/// outside the trainer.
struct Timed {
    inner: DiskCorpus,
    log: Arc<Mutex<LoadLog>>,
}

impl ShardSource for Timed {
    fn manifest(&self) -> &Manifest {
        self.inner.manifest()
    }

    fn load_shard(&mut self, index: usize) -> Result<Vec<EncodedExample>, corpus::CorpusError> {
        let t0 = Instant::now();
        let out = self.inner.load_shard(index);
        self.log
            .lock()
            .expect("log holder never panics")
            .push((t0, t0.elapsed()));
        out
    }
}

/// The user's start-up: vocabulary, tokenization, shard writes, opening
/// the corpus and building the model. Returns the model, the corpus
/// directory and the start-up's seconds at the nominal host speed and in
/// wall time.
fn setup(benches: &[ErBenchmark], dir: &Path) -> Result<(RptC, PathBuf, f64, f64), String> {
    let corpus_dir = dir.join(format!("corpus-{}", std::process::id()));
    let (model, nominal, wall) = host::timed(|| -> Result<RptC, String> {
        let vocab = inputs::vocab(benches);
        let encoder = TupleEncoder::new(vocab.clone(), Default::default());
        let examples = corpus::encode_tables(&encoder, &inputs::tables(benches));
        let shards = corpus::split_shards(examples, SHARD_TUPLES);
        corpus::write_corpus(&corpus_dir, &shards, &vocab).map_err(|e| e.to_string())?;
        std::hint::black_box(DiskCorpus::open(&corpus_dir).map_err(|e| e.to_string())?);
        Ok(RptC::new(vocab, config(WARM_STEPS)))
    });
    Ok((model?, corpus_dir, nominal, wall))
}

/// A start-up only, for the extra `setup_s` samples.
pub fn setup_only(seed: u64, dir: &Path) -> Result<(f64, f64), String> {
    let (_, corpus_dir, nominal, wall) = setup(&inputs::benchmarks(seed), dir)?;
    std::fs::remove_dir_all(corpus_dir).map_err(|e| e.to_string())?;
    Ok((nominal, wall))
}

/// `model` with its configuration's step budget replaced by `steps` and
/// its current parameters: a fresh `pretrain_stream` call then runs
/// exactly `steps` optimizer steps and ends the trainer's normal way.
fn with_steps(model: RptC, steps: usize) -> RptC {
    let mut cfg = model.config().clone();
    cfg.train.steps = steps;
    let mut next = RptC::new(model.encoder().vocab().clone(), cfg);
    next.params = model.params;
    next
}

/// One `pretrain_stream` call over `source` on the Table-1 options (no
/// accumulation), to the end of the model's step budget.
fn stream(
    model: &mut RptC,
    source: Box<dyn ShardSource>,
    prefetch: bool,
) -> Result<Vec<f32>, corpus::CorpusError> {
    let opts = StreamOpts {
        accum_steps: 1,
        prefetch,
        stop_after_micro: None,
    };
    model.pretrain_stream(source, &opts, None, None)
}

/// A measured run: set up, warm up for a few steps (which also sizes the
/// rounds), then `seconds` of rounds, each one `pretrain_stream` call over
/// the disk corpus with a reference pass after it, restated at the nominal
/// host speed. Every call starts a fresh trainer on the current parameters
/// and streams the corpus from its first shard. Metrics are on, as under
/// `rpt pretrain --metrics-out`: the trained-token count is the program's
/// `train.tokens` counter.
pub fn measure(seed: u64, seconds: f64, dir: &Path) -> Result<Json, String> {
    rpt_obs::set_metrics_enabled(true);
    let tokens = rpt_obs::counter("train.tokens");
    let benches = inputs::benchmarks(seed);
    let (mut model, corpus_dir, setup_s, setup_wall_s) = setup(&benches, dir)?;
    let open = || DiskCorpus::open(&corpus_dir).map_err(|e| e.to_string());
    let mut tally = Tally::default();

    let (warm, warm_log) = timed_stream(&mut model, open()?, true);
    record_losses(&mut tally, "warmup", &warm);
    let per_step_ms = median(&gaps_ms(&warm_log));
    let round_steps = ((ROUND_S * 1e3 / per_step_ms).round() as usize).max(MIN_ROUND_STEPS);

    let mut speed = Speed::start();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut trained = 0u64;
    let (mut steps, mut loads, mut load_ms) = (0usize, 0usize, Vec::new());
    let mut digest = Digest::default();
    let mut last = Vec::new();
    while Instant::now() < end {
        model = with_steps(model, round_steps);
        let source = open()?;
        let tokens0 = tokens.value();
        let t0 = Instant::now();
        let (losses, log) = timed_stream(&mut model, source, true);
        speed.end_round(t0.elapsed().as_secs_f64(), gaps_ms(&log));
        trained += tokens.value() - tokens0;
        loads += log.len();
        load_ms.extend(log.iter().map(|l| l.1.as_secs_f64() * 1e3));
        record_losses(&mut tally, "measured", &losses);
        let losses = losses.unwrap_or_default();
        if steps == 0 {
            for l in losses.iter().take(16) {
                digest.add(&l.to_bits().to_le_bytes());
            }
        }
        steps += losses.len();
        last = losses;
    }
    let (nominal_s, gaps) = speed.restated();
    let (wall_s, wall_gaps) = speed.wall();
    let peak_rss_mb = crate::report::peak_rss_mb();
    let tail = &last[last.len().saturating_sub(10)..];
    std::fs::remove_dir_all(&corpus_dir).map_err(|e| e.to_string())?;
    Ok(rpt_json::json!({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "metrics": {
            "tokens_per_s": trained as f64 / nominal_s,
            "latency_p50_ms": percentile(&gaps, 0.5)?,
            "latency_p90_ms": percentile(&gaps, 0.9)?,
            "peak_rss_mb": peak_rss_mb,
        },
        "tally": tally.to_json(),
        "info": {
            "wall": {
                "tokens_per_s": trained as f64 / wall_s,
                "latency_p50_ms": percentile(&wall_gaps, 0.5)?,
                "latency_p90_ms": percentile(&wall_gaps, 0.9)?,
            },
            "reference_passes": speed.record(),
            "round_steps": round_steps,
            "steps": steps,
            "trained_tokens": trained,
            "shard_loads": loads,
            "shard_load_ms_p50": median(&load_ms),
            "final_loss": tail.iter().sum::<f32>() as f64 / tail.len().max(1) as f64,
            "loss_digest": digest.hex(),
        },
    }))
}

/// Streams the model's step budget from `corpus` through a [`Timed`]
/// wrapper and returns the losses with the wrapper's log of shard loads.
fn timed_stream(
    model: &mut RptC,
    corpus: DiskCorpus,
    prefetch: bool,
) -> (Result<Vec<f32>, corpus::CorpusError>, LoadLog) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let source = Timed {
        inner: corpus,
        log: Arc::clone(&log),
    };
    let losses = stream(model, Box::new(source), prefetch);
    let log = std::mem::take(&mut *log.lock().expect("log holder never panics"));
    (losses, log)
}

/// Milliseconds between consecutive shard hand-offs. The first two loads
/// fill the prefetch buffer; after them each load starts when the trainer
/// takes a shard.
fn gaps_ms(log: &LoadLog) -> Vec<f64> {
    log.windows(2)
        .skip(2)
        .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
        .collect()
}

/// One operation per optimizer step: finite loss or a failure; a corpus
/// error counts once.
fn record_losses(tally: &mut Tally, phase: &str, losses: &Result<Vec<f32>, corpus::CorpusError>) {
    match losses {
        Ok(v) => {
            for l in v {
                tally.record(
                    phase,
                    if l.is_finite() {
                        Ok(())
                    } else {
                        Err(Failure::NonFinite)
                    },
                );
            }
        }
        Err(e) => {
            eprintln!("perfbench: {phase} pretraining: {e}");
            tally.record(phase, Err(Failure::Corpus));
        }
    }
}

/// Tokens/s of `pretrain_stream` for `steps` steps (the traced-run
/// overhead probe). Returns the model for the next probe.
pub fn stream_rate(model: RptC, corpus_dir: &Path, steps: usize) -> Result<(f64, RptC), String> {
    let tokens = rpt_obs::counter("train.tokens");
    let source = DiskCorpus::open(corpus_dir).map_err(|e| e.to_string())?;
    let mut model = with_steps(model, steps);
    let tokens0 = tokens.value();
    let t0 = Instant::now();
    stream(&mut model, Box::new(source), true).map_err(|e| e.to_string())?;
    let rate = (tokens.value() - tokens0) as f64 / t0.elapsed().as_secs_f64();
    Ok((rate, model))
}

/// The training replay alternates with `pretrain_stream` in this many
/// rounds, so a drift in host speed reaches both alike. Each round's
/// `pretrain_stream` call gives only a few hand-off intervals, so the check
/// takes its median over many rounds.
const REPLAY_ROUNDS: usize = 16;
/// Optimizer steps of each round's replay and of its `pretrain_stream`
/// call.
const ROUND_STEPS: usize = 6;

/// Replays training steps through the program's own step functions,
/// outside `pretrain_stream` but as it runs them: shard loads from the
/// disk corpus, masking and batching, `Trainer::accum_micro_step` on a
/// one-thread pool with the forward loss timed inside it (the rest of the
/// micro-step is `train.backward_ms`: `Tape::backward`, `collect_grads` and
/// the per-shard parameter clone), and `Trainer::accum_apply` (the window
/// reduction, clip and Adam). `Trainer::apply_update` alone is timed after
/// the replay as `train.adam_ms`. Also times the set-up layers
/// (`encode_tables`, `write_corpus`).
///
/// The replay must explain `pretrain_stream`: each round's median replayed
/// step is set against the median shard hand-off interval of the
/// `pretrain_stream` call (no prefetch, same leading shards) that follows
/// it, and the median of those shares over the rounds must come within
/// [`UNATTRIBUTED_TOLERANCE`] of 1, or the replay counts an `unattributed`
/// failure. Round by round and by median, because the host's speed shifts
/// within a run and one round sees one speed. Returns
/// the layers, the replay's wall time in seconds, the model and its corpus
/// for the overhead probe.
pub fn replay(
    seed: u64,
    dir: &Path,
    out: &mut Map,
    info: &mut Map,
    tally: &mut Tally,
) -> Result<(Layers, f64, RptC, PathBuf), String> {
    let benches = inputs::benchmarks(seed);
    let tables = inputs::tables(&benches);
    let vocab = inputs::vocab(&benches);
    let encoder = TupleEncoder::new(vocab.clone(), Default::default());
    let t = Instant::now();
    let examples = corpus::encode_tables(&encoder, &tables);
    out.insert(
        "corpus.encode_us_per_tuple".into(),
        Json::from(t.elapsed().as_secs_f64() * 1e6 / examples.len() as f64),
    );
    let shards = corpus::split_shards(examples, SHARD_TUPLES);
    let corpus_dir = dir.join("corpus-replay");
    let t = Instant::now();
    corpus::write_corpus(&corpus_dir, &shards, &vocab).map_err(|e| e.to_string())?;
    out.insert(
        "corpus.write_ms".into(),
        Json::from(t.elapsed().as_secs_f64() * 1e3),
    );

    let mut disk = DiskCorpus::open(&corpus_dir).map_err(|e| e.to_string())?;
    let n_shards = disk.manifest().shards.len();
    let cfg = config(REPLAY_ROUNDS * ROUND_STEPS);
    let mut model = RptC::new(vocab.clone(), cfg.clone());
    let mut whole = RptC::new(vocab, config(ROUND_STEPS));
    let mut explained = Vec::new();
    let mut trainer = Trainer::new(cfg.train.clone(), cfg.model.d_model);
    let pool = ThreadPool::new(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut layers = Layers::default();
    let mut queue: Vec<EncodedExample> = Vec::new();
    let mut next_shard = 0usize;
    let mut handoff: Option<Instant> = None;
    let mut handoff_gaps_ms = Vec::new();
    let mut step_ms = Vec::new();
    let mut last_batch = Vec::new();
    let mut wall = 0.0f64;
    for step in 0..REPLAY_ROUNDS * ROUND_STEPS {
        if step > 0 && step % ROUND_STEPS == 0 {
            explained.push(
                median(&step_ms[step - ROUND_STEPS..])
                    / stream_round(&mut whole, &corpus_dir, tally)?,
            );
            // Each `pretrain_stream` call starts at the first shard; so
            // does each round of the replay.
            handoff = None;
            next_shard = 0;
            queue.clear();
        }
        let step_start = Instant::now();
        let mut srcs = Vec::new();
        let mut tgts = Vec::new();
        while srcs.len() < cfg.train.batch_size {
            if queue.is_empty() {
                let shard = layers.time("corpus.load_shard_ms", 1e3, || {
                    disk.load_shard(next_shard % n_shards)
                });
                let now = Instant::now();
                if let Some(prev) = handoff.replace(now) {
                    handoff_gaps_ms.push((now - prev).as_secs_f64() * 1e3);
                }
                next_shard += 1;
                queue = shard.map_err(|e| e.to_string())?;
                queue.reverse();
            }
            let example = queue.pop().expect("refilled above");
            let pair = layers.time("train.batch_prep_ms", 1e3, || {
                model.pair_from_encoded(&example.to_encoded(), None, &mut rng)
            });
            if let Some((s, t)) = pair {
                srcs.push(s);
                tgts.push(t);
            }
        }
        let batch = layers.time("train.batch_prep_ms", 1e3, || {
            rpt_nn::make_denoising_shards(
                &srcs,
                &tgts,
                cfg.model.max_len,
                PAD,
                BOS,
                EOS,
                cfg.train.micro_batch,
                rng.gen(),
            )
        });
        let forward_s = Mutex::new(Vec::new());
        let micro_start = Instant::now();
        let (net, params) = model.decode_parts();
        trainer.accum_micro_step(
            &pool,
            params,
            &batch,
            |s| s.weight as f32,
            |tape, params, shard| {
                let t = Instant::now();
                let mut drop_rng = SmallRng::seed_from_u64(shard.seed);
                let mut ctx = rpt_nn::Ctx::new(tape, params, &mut drop_rng, true);
                let loss = net.reconstruction_loss(
                    &mut ctx,
                    &shard.src,
                    &shard.tgt_in,
                    &shard.tgt_out,
                    PAD,
                );
                forward_s
                    .lock()
                    .expect("forward log holder never panics")
                    .push(t.elapsed().as_secs_f64());
                loss
            },
        );
        let micro_s = micro_start.elapsed().as_secs_f64();
        let forward_s = forward_s
            .into_inner()
            .expect("forward log holder never panics");
        for &f in &forward_s {
            layers.add("train.forward_ms", 1e3, f);
        }
        let backward_s = (micro_s - forward_s.iter().sum::<f64>()) / forward_s.len() as f64;
        for _ in &forward_s {
            layers.add("train.backward_ms", 1e3, backward_s);
        }
        let l = layers.time("train.reduce_apply_ms", 1e3, || {
            trainer.accum_apply(&mut model.params)
        });
        step_ms.push(step_start.elapsed().as_secs_f64() * 1e3);
        tally.record(
            "replay",
            if l.is_finite() {
                Ok(())
            } else {
                Err(Failure::NonFinite)
            },
        );
        last_batch = batch;
        wall += step_start.elapsed().as_secs_f64();
    }
    explained.push(
        median(&step_ms[step_ms.len() - ROUND_STEPS..])
            / stream_round(&mut whole, &corpus_dir, tally)?,
    );
    layers.medians_into(out);
    out.insert(
        "corpus.shard_gap_ms".into(),
        Json::from(median(&handoff_gaps_ms)),
    );
    out.insert(
        "train.adam_ms".into(),
        Json::from(adam_ms(&mut model, &mut trainer, &pool, &last_batch)),
    );

    let gap = 1.0 - median(&explained);
    info.insert(
        "pretrain_step_unexplained_pct".into(),
        Json::from(gap * 100.0),
    );
    let ok = gap.abs() <= UNATTRIBUTED_TOLERANCE;
    if !ok {
        eprintln!(
            "perfbench: replayed training steps explain {:.1}% of pretrain_stream's",
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
    Ok((layers, wall, model, corpus_dir))
}

/// One `pretrain_stream` call of the replay's check, loads inline; returns
/// its median shard hand-off interval, milliseconds.
fn stream_round(model: &mut RptC, corpus_dir: &Path, tally: &mut Tally) -> Result<f64, String> {
    let corpus = DiskCorpus::open(corpus_dir).map_err(|e| e.to_string())?;
    let (losses, log) = timed_stream(model, corpus, false);
    record_losses(tally, "replay", &losses);
    Ok(median(&gaps_ms(&log)))
}

/// Median milliseconds of `Trainer::apply_update` (clip + Adam) alone, on
/// the reduced gradient of one more window over `batch`.
fn adam_ms(
    model: &mut RptC,
    trainer: &mut Trainer,
    pool: &ThreadPool,
    batch: &[rpt_nn::DenoisingShard],
) -> f64 {
    let (net, params) = model.decode_parts();
    trainer.accum_micro_step(
        pool,
        params,
        batch,
        |s| s.weight as f32,
        |tape, params, shard| {
            let mut drop_rng = SmallRng::seed_from_u64(shard.seed);
            let mut ctx = rpt_nn::Ctx::new(tape, params, &mut drop_rng, true);
            net.reconstruction_loss(&mut ctx, &shard.src, &shard.tgt_in, &shard.tgt_out, PAD)
        },
    );
    let (loss, grads) = trainer.accum_reduced(&model.params);
    trainer.clear_pending();
    let ms: Vec<f64> = (0..9)
        .map(|_| {
            let g = grads.clone();
            let t = Instant::now();
            std::hint::black_box(trainer.apply_update(&mut model.params, g, loss));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}
