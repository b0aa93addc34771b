//! **RPT-C** — the tuple-denoising transformer for data cleaning (§2).
//!
//! Pretraining corrupts tuples and optimizes a reconstruction loss
//! ("Unsupervised Pretraining", §2.2): a masked attribute value becomes one
//! `[M]` token (text infilling — the model must also learn *how many*
//! tokens are missing), or individual value tokens become `[M]`s (BERT-style
//! token masking). FD-aware masking restricts value masking to columns that
//! profiling says are determined by other columns.
//!
//! Inference ([`RptC::fill`]) serializes the tuple with the target column
//! masked and beam-decodes the reconstruction on rpt-nn's KV-cached fast
//! path: the masked tuple is encoded once and every beam hypothesis
//! advances as one batched, incremental decoder step (see DESIGN.md,
//! "Inference fast path").

use std::path::{Path, PathBuf};

use rpt_nn::{beam_search, BeamConfig, Ctx, Seq2Seq, Sequence, TokenBatch, TransformerConfig};
use rpt_rng::SliceRandom;
use rpt_rng::SmallRng;
use rpt_rng::{Rng, SeedableRng};
use rpt_table::{Schema, Table, TableProfile, Tuple, Value};
use rpt_tensor::ParamStore;
use rpt_tokenizer::{EncodedTuple, EncoderOptions, TupleEncoder, Vocab, BOS, EOS, PAD};

use rpt_tensor::serialize::{self, AccumState, CorpusPos, TrainState};

use crate::corpus::{CorpusError, ShardSource, StreamCursor};
use crate::train::{TrainOpts, Trainer, TRAIN_OBS, TRAIN_STATE_FILE};

/// Durable-training options for the pretraining loop
/// ([`RptC::pretrain_pairs`]): where to put the rolling
/// [`TRAIN_STATE_FILE`] and how often to write it.
#[derive(Debug, Clone)]
pub struct CheckpointOpts {
    /// Directory receiving the rolling checkpoint (must exist).
    pub dir: PathBuf,
    /// Save every this many completed steps; the final step always saves.
    pub every: usize,
}

/// Options for the pretraining loop ([`RptC::pretrain_pairs`]). Table
/// rows and prose train with the defaults; `prefetch` concerns only shard
/// streams ([`RptC::pretrain_stream_on`]).
#[derive(Debug, Clone)]
pub struct StreamOpts {
    /// Micro-steps folded into each optimizer step (gradient
    /// accumulation). `1` applies every micro-batch immediately; `k`
    /// splits each batch of `batch_size` examples into `k` gathers of
    /// `batch_size / k`, bit-identical to the single large batch.
    pub accum_steps: usize,
    /// Load and decode the next shard on a background thread while the
    /// current shard trains (double buffering). Never changes results.
    pub prefetch: bool,
    /// Stop after this many micro-steps *of this invocation*, writing a
    /// (possibly mid-window) checkpoint first — the simulated-crash hook
    /// the kill/resume harness drives.
    pub stop_after_micro: Option<u64>,
}

impl Default for StreamOpts {
    fn default() -> Self {
        Self {
            accum_steps: 1,
            prefetch: true,
            stop_after_micro: None,
        }
    }
}

/// Which corruption to apply during pretraining (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub enum MaskPolicy {
    /// Mask one whole attribute value with a single `[M]` (text infilling).
    AttributeValue,
    /// Mask up to `max_masks` individual value tokens (BERT-style).
    Token {
        /// Maximum tokens masked per tuple.
        max_masks: usize,
    },
    /// Like [`MaskPolicy::AttributeValue`], but only masking columns that an
    /// approximate-FD scan says are determined by other columns.
    FdAware {
        /// Minimum AFD strength for a column to be maskable.
        min_strength: f64,
    },
    /// 50/50 mixture of attribute-value and token masking (the BART recipe).
    Mixed,
}

/// RPT-C hyperparameters.
#[derive(Debug, Clone)]
pub struct CleaningConfig {
    /// Transformer shape.
    pub model: TransformerConfig,
    /// Serialization options.
    pub encoder_opts: EncoderOptions,
    /// Corruption policy.
    pub mask_policy: MaskPolicy,
    /// Optimization settings.
    pub train: TrainOpts,
    /// Beam width at inference.
    pub beam_width: usize,
    /// Maximum generated value length.
    pub max_fill_len: usize,
    /// RNG seed (initialization, sampling, dropout).
    pub seed: u64,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        Self {
            model: TransformerConfig::default(),
            encoder_opts: EncoderOptions::default(),
            mask_policy: MaskPolicy::Mixed,
            train: TrainOpts::default(),
            beam_width: 4,
            max_fill_len: 8,
            seed: 17,
        }
    }
}

impl CleaningConfig {
    /// A miniature config for fast tests.
    pub fn tiny() -> Self {
        Self {
            model: TransformerConfig::tiny(0), // vocab patched in `RptC::new`
            train: TrainOpts {
                steps: 60,
                batch_size: 8,
                warmup: 10,
                peak_lr: 3e-3,
                ..Default::default()
            },
            beam_width: 2,
            max_fill_len: 6,
            ..Default::default()
        }
    }
}

/// A fill prediction.
#[derive(Debug, Clone)]
pub struct FillResult {
    /// The predicted value, rendered as text.
    pub text: String,
    /// The predicted token ids.
    pub tokens: Vec<usize>,
    /// Beam score (length-normalized log-probability).
    pub score: f32,
}

/// Anything that can fill a masked attribute value — implemented by
/// [`RptC`] and by the baselines, so the Table-1 harness can treat them
/// uniformly.
pub trait Filler {
    /// Predicts the value of `tuple[col]` from the rest of the tuple.
    fn fill(&mut self, schema: &Schema, tuple: &Tuple, col: usize) -> FillResult;
    /// Display name for reports.
    fn name(&self) -> &str;
}

/// The RPT-C model: tokenizer + seq2seq + parameters.
pub struct RptC {
    cfg: CleaningConfig,
    encoder: TupleEncoder,
    model: Seq2Seq,
    /// Trainable parameters (public for checkpointing).
    pub params: ParamStore,
    rng: SmallRng,
}

impl RptC {
    /// Builds an untrained model over `vocab`.
    pub fn new(vocab: Vocab, mut cfg: CleaningConfig) -> Self {
        cfg.model.vocab_size = vocab.len();
        cfg.model.max_len = cfg.model.max_len.max(cfg.encoder_opts.max_len);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut params = ParamStore::new();
        let model = Seq2Seq::new(&mut params, cfg.model.clone(), &mut rng);
        let encoder = TupleEncoder::new(vocab, cfg.encoder_opts.clone());
        Self {
            cfg,
            encoder,
            model,
            params,
            rng,
        }
    }

    /// The tokenizer/serializer.
    pub fn encoder(&self) -> &TupleEncoder {
        &self.encoder
    }

    /// The underlying seq2seq model (read-only).
    pub fn model(&self) -> &Seq2Seq {
        &self.model
    }

    /// Split borrow of the model and its parameters, as the decode entry
    /// points want them (`&Seq2Seq` + `&mut ParamStore`) — used by the
    /// equivalence suite to run the reference decoder against the trained
    /// denoising model.
    pub fn decode_parts(&mut self) -> (&Seq2Seq, &mut ParamStore) {
        (&self.model, &mut self.params)
    }

    /// The configuration.
    pub fn config(&self) -> &CleaningConfig {
        &self.cfg
    }

    /// Turns int8 inference on (quantizing the current parameters per-row)
    /// or off. Only the inference paths (`fill`, `reconstruct`) consult
    /// the quantized weights; training always runs f32, so a model can be
    /// trained, quantized for evaluation, and un-quantized freely.
    pub fn set_quant_enabled(&mut self, on: bool) {
        self.model.set_quant(if on {
            Some(std::sync::Arc::new(rpt_nn::build_quant_set(&self.params)))
        } else {
            None
        });
    }

    /// Consumes the wrapper, yielding the owned seq2seq model and its
    /// parameters — the pair an inference server needs to take over
    /// (`rpt serve` hands these to `rpt_serve::Server::start`).
    pub fn into_serve_parts(self) -> (Seq2Seq, ParamStore) {
        (self.model, self.params)
    }

    /// Builds one corrupted training pair from a tuple: the masked source
    /// sequence and the reconstruction target token ids. Returns `None`
    /// when the tuple offers nothing maskable.
    pub fn training_pair(
        &self,
        schema: &Schema,
        tuple: &Tuple,
        profile: Option<&TableProfile>,
        rng: &mut (impl Rng + ?Sized),
    ) -> Option<(Sequence, Vec<usize>)> {
        let encoded = self.encoder.encode_tuple(schema, tuple);
        self.pair_from_encoded(&encoded, profile, rng)
    }

    /// [`RptC::training_pair`] over an already-tokenized tuple — the form
    /// streaming corpora store. Draws from `rng` in exactly the order
    /// `training_pair` does, so the two paths produce identical pairs from
    /// identical RNG states.
    pub fn pair_from_encoded(
        &self,
        encoded: &EncodedTuple,
        profile: Option<&TableProfile>,
        rng: &mut (impl Rng + ?Sized),
    ) -> Option<(Sequence, Vec<usize>)> {
        if encoded.value_spans.is_empty() {
            return None;
        }
        let use_token_masking = match &self.cfg.mask_policy {
            MaskPolicy::Token { .. } => true,
            MaskPolicy::Mixed => rng.gen_bool(0.5),
            _ => false,
        };
        let (masked, target) = if use_token_masking {
            let max_masks = match &self.cfg.mask_policy {
                MaskPolicy::Token { max_masks } => *max_masks,
                _ => 2,
            };
            let mut positions = encoded.value_positions();
            if positions.is_empty() {
                return None;
            }
            positions.shuffle(rng);
            let k = rng.gen_range(1..=max_masks.min(positions.len()));
            let mut picked: Vec<usize> = positions[..k].to_vec();
            picked.sort_unstable();
            encoded.mask_tokens(&picked)
        } else {
            let span_idx = self.choose_span(encoded, profile, rng)?;
            encoded.mask_value_span(span_idx)
        };
        if target.is_empty() || target.len() + 2 > self.cfg.model.max_len {
            return None;
        }
        let target: Vec<usize> = target.into_iter().take(self.cfg.max_fill_len).collect();
        Some((
            Sequence {
                ids: masked.ids,
                cols: masked.cols,
                segs: Vec::new(),
                flags: Vec::new(),
            },
            target,
        ))
    }

    fn choose_span(
        &self,
        encoded: &EncodedTuple,
        profile: Option<&TableProfile>,
        rng: &mut (impl Rng + ?Sized),
    ) -> Option<usize> {
        let candidates: Vec<usize> = match (&self.cfg.mask_policy, profile) {
            (MaskPolicy::FdAware { .. }, Some(p)) => {
                let determinable = p.determinable_columns();
                let filtered: Vec<usize> = (0..encoded.value_spans.len())
                    .filter(|&i| determinable.contains(&encoded.value_spans[i].0))
                    .collect();
                if filtered.is_empty() {
                    (0..encoded.value_spans.len()).collect()
                } else {
                    filtered
                }
            }
            _ => (0..encoded.value_spans.len()).collect(),
        };
        candidates.choose(rng).copied()
    }

    /// Pretrains on the given tables ("just corrupt tuples and optimize a
    /// reconstruction loss"). Returns the per-step loss curve.
    ///
    /// Panics where [`RptC::pretrain_on`] returns an error: the tables
    /// offer no maskable example, or a step's loss or gradient is not
    /// finite.
    pub fn pretrain(&mut self, tables: &[&Table]) -> Vec<f32> {
        self.pretrain_on(rpt_par::ThreadPool::global(), tables, None, None)
            .unwrap_or_else(|e| panic!("pretraining failed: {e}"))
    }

    /// Crash-safe resumable pretraining over table rows on an explicit
    /// thread pool: [`RptC::pretrain_pairs`] drawing rows uniformly (with
    /// replacement) through the `"batch"` RNG stream, each masked under
    /// its table's FD profile when the policy is
    /// [`MaskPolicy::FdAware`].
    ///
    /// With `checkpoint` set, a rolling [`TRAIN_STATE_FILE`] is written
    /// atomically into the directory every `every` steps (and at the
    /// final step). The snapshot captures params, Adam `m`/`v`/`t`, both
    /// RNG streams (`"model"`: shard seeds; `"batch"`: row sampling and
    /// masking), the completed-step counter, and the loss curve — so
    /// `resume` from a checkpoint taken at step `k` followed by the
    /// remaining `N - k` steps is byte-identical to an uninterrupted
    /// `N`-step run, at any thread count (the data-parallel reduction is
    /// already thread-count invariant, see DESIGN.md).
    pub fn pretrain_on(
        &mut self,
        pool: &rpt_par::ThreadPool,
        tables: &[&Table],
        checkpoint: Option<&CheckpointOpts>,
        resume: Option<&Path>,
    ) -> Result<Vec<f32>, CorpusError> {
        let profiles: Vec<Option<TableProfile>> = tables
            .iter()
            .map(|t| match &self.cfg.mask_policy {
                MaskPolicy::FdAware { min_strength } => {
                    Some(TableProfile::compute(t, *min_strength, 3))
                }
                _ => None,
            })
            .collect();
        let rows: Vec<(usize, usize)> = tables
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| (0..t.len()).map(move |ri| (ti, ri)))
            .collect();
        let seed = self.cfg.seed.wrapping_add(1);
        let opts = StreamOpts::default();
        self.pretrain_pairs(pool, &opts, checkpoint, resume, |state| {
            let rng = saved_stream(state, TableRows::RNG_STREAM)
                .map_or_else(|| SmallRng::seed_from_u64(seed), SmallRng::restore);
            Ok(TableRows {
                tables,
                profiles,
                rows,
                rng,
            })
        })
    }

    /// [`RptC::pretrain_stream_on`] on the process-global thread pool
    /// (`RPT_THREADS`).
    pub fn pretrain_stream(
        &mut self,
        source: Box<dyn ShardSource>,
        opts: &StreamOpts,
        checkpoint: Option<&CheckpointOpts>,
        resume: Option<&Path>,
    ) -> Result<Vec<f32>, CorpusError> {
        self.pretrain_stream_on(
            rpt_par::ThreadPool::global(),
            source,
            opts,
            checkpoint,
            resume,
        )
    }

    /// Streaming pretraining over a sharded corpus (DESIGN.md §"Streaming
    /// corpus"): [`RptC::pretrain_pairs`] over a [`StreamCursor`], which
    /// consumes shards epoch-major in manifest order — optionally
    /// double-buffered through a prefetch thread — so the corpus never has
    /// to fit in memory. Per-shard masking streams are keyed to
    /// `(seed, epoch, shard)`, so transport (disk vs memory, prefetch on
    /// vs off, thread count) never perturbs the trajectory —
    /// `tests/streaming_equivalence.rs` proves this in bytes. Checkpoints
    /// carry the corpus position (epoch, shard, offset).
    pub fn pretrain_stream_on(
        &mut self,
        pool: &rpt_par::ThreadPool,
        source: Box<dyn ShardSource>,
        opts: &StreamOpts,
        checkpoint: Option<&CheckpointOpts>,
        resume: Option<&Path>,
    ) -> Result<Vec<f32>, CorpusError> {
        let mask_seed = self.cfg.seed.wrapping_add(2);
        self.pretrain_pairs(pool, opts, checkpoint, resume, |state| {
            let pos = state.and_then(|s| s.corpus.as_ref());
            StreamCursor::start(
                source,
                opts.prefetch,
                mask_seed,
                pos.map_or(0, |c| c.epoch),
                pos.map_or(0, |c| c.shard),
                pos.map_or(0, |c| c.offset),
                saved_stream(state, StreamCursor::RNG_STREAM),
            )
        })
    }

    /// The denoising pretraining loop, over pairs drawn from the source
    /// `open` builds (from the resumed train state, if any).
    ///
    /// Each optimizer step folds `opts.accum_steps` micro-batch gradients
    /// into one Adam update, so the effective batch need not fit in
    /// memory; a micro-batch is filled with up to `batch_size / k` pairs,
    /// drawing at most 20 examples per slot. Each window's dropout seeds
    /// are keyed to one `"model"`-stream draw plus the shard index within
    /// the window, and gradient reduction runs one fixed-order weighted
    /// loop, so the trajectory is bit-identical at every thread count.
    ///
    /// Mid-window checkpoints (`opts.stop_after_micro`, for sources with a
    /// corpus position) carry the accumulation state including pending
    /// gradients beside that position, so resume continues bit-identically
    /// from any crash point without replaying examples.
    ///
    /// Two failures end the run with a typed error and no checkpoint: a
    /// micro-batch that draws no maskable pair
    /// ([`CorpusError::Format`]), and a window whose loss or global
    /// gradient norm is not finite ([`CorpusError::NonFinite`]), so the
    /// last good checkpoint stays on disk.
    pub fn pretrain_pairs<S: PairSource>(
        &mut self,
        pool: &rpt_par::ThreadPool,
        opts: &StreamOpts,
        checkpoint: Option<&CheckpointOpts>,
        resume: Option<&Path>,
        open: impl FnOnce(Option<&TrainState>) -> Result<S, CorpusError>,
    ) -> Result<Vec<f32>, CorpusError> {
        let accum = opts.accum_steps.max(1) as u64;
        let micro_size = self.cfg.train.batch_size.div_ceil(accum as usize).max(1);

        let mut trainer = Trainer::new(self.cfg.train.clone(), self.cfg.model.d_model);
        if let Some(ckpt) = checkpoint {
            trainer.checkpoint_every(ckpt.every);
        }
        let state = match resume {
            Some(path) => Some(trainer.resume_from(&mut self.params, path)?),
            None => None,
        };
        if let Some(s) = saved_stream(state.as_ref(), "model") {
            self.rng = SmallRng::restore(s);
        }
        // An in-flight accumulation window restored from a checkpoint:
        // `(micro_done, window_seed)`. The pending gradients themselves are
        // restored into the trainer by `resume_from`.
        let mut window = state
            .as_ref()
            .and_then(|s| s.corpus.as_ref()?.accum.as_ref())
            .map(|a| (a.micro_done, a.window_seed));
        let mut source = open(state.as_ref())?;

        let total_steps = self.cfg.train.steps;
        let progress_every = (total_steps / 20).max(1);
        let mut micro_in_run: u64 = 0;
        let mut stop = false;

        while !trainer.finished() {
            let (mut micro_done, window_seed) = match window.take() {
                Some(w) => w,
                // One `"model"` draw keys every dropout seed of the window.
                None => (0, self.rng.gen()),
            };
            // One step span per optimizer window: forward/backward and
            // reduce/apply nest under it, and its elapsed time gives the
            // throughput gauge.
            let step_span = rpt_obs::span("train.step", &TRAIN_OBS.step_ms);
            let mut step_tokens = 0u64;
            while micro_done < accum {
                let mut srcs = Vec::with_capacity(micro_size);
                let mut tgts = Vec::with_capacity(micro_size);
                let mut guard = 0usize;
                while srcs.len() < micro_size && guard < micro_size * 20 {
                    guard += 1;
                    if let Some((src, tgt)) = source.next_pair(self)? {
                        srcs.push(src);
                        tgts.push(tgt);
                    }
                }
                if srcs.is_empty() {
                    return Err(CorpusError::Format(
                        "corpus produced no maskable examples".into(),
                    ));
                }
                step_tokens += (srcs.iter().map(|s| s.ids.len()).sum::<usize>()
                    + tgts.iter().map(|t| t.len()).sum::<usize>())
                    as u64;
                let shards = rpt_nn::make_denoising_shards(
                    &srcs,
                    &tgts,
                    self.cfg.model.max_len,
                    PAD,
                    BOS,
                    EOS,
                    self.cfg.train.micro_batch,
                    rpt_nn::shard_seed(window_seed, trainer.pending_shards() as u64),
                );
                let model = &self.model;
                trainer.accum_micro_step(
                    pool,
                    &self.params,
                    &shards,
                    |s| s.weight as f32,
                    |tape, params, shard| {
                        let mut rng = SmallRng::seed_from_u64(shard.seed);
                        let mut ctx = Ctx::new(tape, params, &mut rng, true);
                        model.reconstruction_loss(
                            &mut ctx,
                            &shard.src,
                            &shard.tgt_in,
                            &shard.tgt_out,
                            PAD,
                        )
                    },
                );
                micro_done += 1;
                micro_in_run += 1;
                if opts.stop_after_micro.is_some_and(|m| micro_in_run >= m) {
                    stop = true;
                    break;
                }
            }
            if stop {
                // Simulated crash: persist the partial window — pending
                // gradients, window seed, corpus position — and leave. A
                // resume finishes the window before its Adam step.
                if let Some(ckpt) = checkpoint {
                    self.save_pairs_checkpoint(
                        &trainer,
                        &source,
                        Some((micro_done, window_seed)),
                        &ckpt.dir.join(TRAIN_STATE_FILE),
                    )?;
                }
                return Ok(trainer.losses().to_vec());
            }
            let loss = trainer.accum_apply(&mut self.params);
            let step_ms = step_span.finish();
            // The numerical guard: a non-finite window ends the run here,
            // before a checkpoint below could persist what it did.
            if !loss.is_finite() || !trainer.last_grad_norm().is_some_and(f32::is_finite) {
                return Err(CorpusError::NonFinite {
                    step: trainer.steps_done(),
                });
            }
            // Throughput is observed from outside the step — values flow
            // only into the metrics registry, never back into training
            // state, so the trajectory is identical with metrics on or off.
            if let Some(ms) = step_ms {
                TRAIN_OBS.tokens.add(step_tokens);
                if ms > 0.0 {
                    TRAIN_OBS.tokens_per_sec.set(step_tokens as f64 * 1e3 / ms);
                }
            }
            if trainer.steps_done().is_multiple_of(progress_every) || trainer.finished() {
                rpt_obs::info!(
                    target: "rpt::progress",
                    "step {}/{} loss {:.4}",
                    trainer.steps_done(),
                    total_steps,
                    loss
                );
            }
            rpt_obs::tick_snapshot();
            if trainer.checkpoint_due() {
                if let Some(ckpt) = checkpoint {
                    self.save_pairs_checkpoint(
                        &trainer,
                        &source,
                        None,
                        &ckpt.dir.join(TRAIN_STATE_FILE),
                    )?;
                }
            }
        }
        Ok(trainer.losses().to_vec())
    }

    /// Writes a rolling checkpoint: the regular train state plus the
    /// source's RNG stream and, for sources with one, its corpus position
    /// with — mid-window — the accumulation state and pending gradients.
    fn save_pairs_checkpoint<S: PairSource>(
        &self,
        trainer: &Trainer,
        source: &S,
        window: Option<(u64, u64)>,
        path: &Path,
    ) -> Result<(), CorpusError> {
        let streams = vec![
            ("model".to_string(), self.rng.state()),
            (S::RNG_STREAM.to_string(), source.rng_state()),
        ];
        let mut state = trainer.train_state(&self.params, streams);
        state.corpus = source.pos().map(|(epoch, shard, offset)| CorpusPos {
            epoch,
            shard,
            offset,
            accum: window.map(|(micro_done, window_seed)| AccumState {
                micro_done,
                window_seed,
                pending: trainer.export_pending(&self.params),
            }),
        });
        serialize::save_train_file(&self.params, &state, path)?;
        Ok(())
    }

    /// Serializes `tuple` with `col` masked and returns the batchable
    /// source sequence.
    pub fn masked_source(&self, schema: &Schema, tuple: &Tuple, col: usize) -> Sequence {
        // Ensure the column has a non-null placeholder so the serializer
        // emits a span there, then infill-mask that span.
        let mut work = tuple.clone();
        if work.get(col).is_null() {
            work.replace(col, Value::text("unknown"));
        }
        let encoded = self.encoder.encode_tuple(schema, &work);
        let span_idx = encoded
            .value_spans
            .iter()
            .position(|(c, _)| *c == col)
            .unwrap_or_else(|| {
                panic!(
                    "column {col} did not serialize (truncated?); max_len {}",
                    self.encoder.options().max_len
                )
            });
        let (masked, _) = encoded.mask_value_span(span_idx);
        Sequence {
            ids: masked.ids,
            cols: masked.cols,
            segs: Vec::new(),
            flags: Vec::new(),
        }
    }
}

/// Where [`RptC::pretrain_pairs`] draws its corrupted (source, target)
/// pairs from: table rows ([`RptC::pretrain_on`]), a shard stream
/// ([`StreamCursor`], [`RptC::pretrain_stream_on`]), or prose (the
/// text-only BART baseline).
pub trait PairSource {
    /// Name under which checkpoints save this source's RNG, after
    /// `"model"`.
    const RNG_STREAM: &'static str;

    /// Draws the next example and corrupts it for `model`; `Ok(None)` when
    /// the drawn example offers nothing maskable.
    fn next_pair(&mut self, model: &RptC) -> Result<Option<(Sequence, Vec<usize>)>, CorpusError>;

    /// The exact state of this source's RNG, for checkpoints.
    fn rng_state(&self) -> [u64; 4];

    /// `(epoch, shard, offset)` of the next example, for sources with a
    /// corpus position; checkpoints of the others carry none.
    fn pos(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

/// Table rows sampled uniformly with replacement, each masked under its
/// table's FD profile (when the mask policy computed one).
struct TableRows<'a> {
    tables: &'a [&'a Table],
    profiles: Vec<Option<TableProfile>>,
    rows: Vec<(usize, usize)>,
    rng: SmallRng,
}

impl PairSource for TableRows<'_> {
    const RNG_STREAM: &'static str = "batch";

    fn next_pair(&mut self, model: &RptC) -> Result<Option<(Sequence, Vec<usize>)>, CorpusError> {
        let Some(&(ti, ri)) = self.rows.choose(&mut self.rng) else {
            return Ok(None);
        };
        let table = self.tables[ti];
        let profile = self.profiles[ti].as_ref();
        Ok(model.training_pair(table.schema(), table.row(ri), profile, &mut self.rng))
    }

    fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }
}

impl PairSource for StreamCursor {
    const RNG_STREAM: &'static str = "corpus";

    fn next_pair(&mut self, model: &RptC) -> Result<Option<(Sequence, Vec<usize>)>, CorpusError> {
        let encoded = self.next_example()?;
        Ok(model.pair_from_encoded(&encoded, None, self.rng_mut()))
    }

    fn rng_state(&self) -> [u64; 4] {
        StreamCursor::rng_state(self)
    }

    fn pos(&self) -> Option<(u64, u64, u64)> {
        Some(StreamCursor::pos(self))
    }
}

/// The state of RNG stream `name` in a resumed train state (the last entry
/// of that name wins; unknown streams are tolerated for forward compat).
fn saved_stream(state: Option<&TrainState>, name: &str) -> Option<[u64; 4]> {
    let streams = &state?.rng_streams;
    streams
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, s)| *s)
}

impl RptC {
    /// Greedy reconstruction of a prepared (masked) source batch — used by
    /// the Fig. 3 corruption-rate sweep, where the target is a token set
    /// rather than one attribute value.
    pub fn reconstruct(&mut self, src: &TokenBatch, max_steps: usize) -> Vec<usize> {
        rpt_nn::greedy_decode(&self.model, &mut self.params, src, BOS, EOS, max_steps)
    }
}

impl Filler for RptC {
    fn fill(&mut self, schema: &Schema, tuple: &Tuple, col: usize) -> FillResult {
        let seq = self.masked_source(schema, tuple, col);
        let src = TokenBatch::from_sequences(&[seq], self.cfg.model.max_len, PAD);
        let beams = beam_search(
            &self.model,
            &mut self.params,
            &src,
            BOS,
            EOS,
            &BeamConfig {
                width: self.cfg.beam_width,
                max_steps: self.cfg.max_fill_len,
                len_penalty: 1.0,
            },
        );
        let best = beams
            .into_iter()
            .next()
            .unwrap_or(rpt_nn::decode::Hypothesis {
                tokens: Vec::new(),
                score: f32::NEG_INFINITY,
            });
        FillResult {
            text: self.encoder.vocab().decode(&best.tokens),
            tokens: best.tokens,
            score: best.score,
        }
    }

    fn name(&self) -> &str {
        "RPT-C"
    }
}

/// Aggregate fill-quality metrics (the quantitative version of Table 1).
#[derive(Debug, Clone, Default)]
pub struct CleaningEval {
    /// Fraction of exact (normalized) matches.
    pub exact: f64,
    /// Mean token-level F1.
    pub token_f1: f64,
    /// Mean numeric closeness over rows where both sides parse as numbers
    /// (NaN if none do).
    pub numeric: f64,
    /// Rows evaluated.
    pub n: usize,
}

/// Evaluates a filler by masking `col` of up to `max_n` rows of `table`.
pub fn evaluate_fill(
    filler: &mut dyn Filler,
    table: &Table,
    col: usize,
    max_n: usize,
    vocab: &Vocab,
) -> CleaningEval {
    use rpt_nn::metrics::{numeric_closeness, token_f1, Mean};
    let mut exact = Mean::default();
    let mut tf1 = Mean::default();
    let mut numeric = Mean::default();
    for tuple in table.tuples().iter().take(max_n) {
        let gold = tuple.get(col);
        if gold.is_null() {
            continue;
        }
        let gold_tokens = vocab.encode_text(&gold.render());
        if gold_tokens.is_empty() {
            continue;
        }
        let pred = filler.fill(table.schema(), tuple, col);
        exact.add(if pred.tokens == gold_tokens { 1.0 } else { 0.0 });
        tf1.add(token_f1(&pred.tokens, &gold_tokens));
        let gold_num = gold.as_f64().or_else(|| gold.render().parse().ok());
        let pred_num: Option<f64> = pred.text.parse().ok();
        if let (Some(g), Some(p)) = (gold_num, pred_num) {
            numeric.add(numeric_closeness(p, g));
        }
    }
    CleaningEval {
        exact: exact.get(),
        token_f1: tf1.get(),
        numeric: if numeric.count() == 0 {
            f64::NAN
        } else {
            numeric.get()
        },
        n: exact.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::build_vocab;

    /// A tiny table with an exact FD brand -> maker.
    fn fd_table() -> Table {
        let mut t = Table::new(
            "products",
            Schema::text_columns(&["title", "maker", "price"]),
        );
        let rows: [(&str, &str, &str); 16] = [
            ("iphone seven", "apple", "699.99"),
            ("iphone seven", "apple", "689.99"),
            ("iphone eight", "apple", "799.99"),
            ("iphone eight", "apple", "789.99"),
            ("galaxy seven", "samsung", "599.99"),
            ("galaxy seven", "samsung", "589.99"),
            ("galaxy eight", "samsung", "649.99"),
            ("galaxy eight", "samsung", "639.99"),
            ("pixel seven", "google", "549.99"),
            ("pixel seven", "google", "539.99"),
            ("pixel eight", "google", "649.99"),
            ("pixel eight", "google", "639.99"),
            ("xperia seven", "sony", "579.99"),
            ("xperia seven", "sony", "569.99"),
            ("xperia eight", "sony", "629.99"),
            ("xperia eight", "sony", "619.99"),
        ];
        for (a, b, c) in rows {
            t.push_values(vec![a.into(), b.into(), Value::parse(c)]);
        }
        t
    }

    #[test]
    fn training_pair_masks_and_targets() {
        let t = fd_table();
        let vocab = build_vocab(&[&t], &[], 1, 500);
        let rptc = RptC::new(
            vocab,
            CleaningConfig {
                mask_policy: MaskPolicy::AttributeValue,
                ..CleaningConfig::tiny()
            },
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let (src, tgt) = rptc
            .training_pair(t.schema(), t.row(0), None, &mut rng)
            .unwrap();
        assert!(src.ids.contains(&rpt_tokenizer::MASK));
        assert!(!tgt.is_empty());
        // target tokens are real (non-special) vocabulary
        assert!(tgt.iter().all(|&t| t >= rpt_tokenizer::NUM_SPECIAL));
    }

    #[test]
    fn token_policy_masks_individual_tokens() {
        let t = fd_table();
        let vocab = build_vocab(&[&t], &[], 1, 500);
        let rptc = RptC::new(
            vocab,
            CleaningConfig {
                mask_policy: MaskPolicy::Token { max_masks: 2 },
                ..CleaningConfig::tiny()
            },
        );
        let mut rng = SmallRng::seed_from_u64(5);
        let encoded_len = rptc.encoder().encode_tuple(t.schema(), t.row(0)).ids.len();
        let (src, tgt) = rptc
            .training_pair(t.schema(), t.row(0), None, &mut rng)
            .unwrap();
        assert_eq!(src.ids.len(), encoded_len, "token masking preserves length");
        assert!(tgt.len() <= 2);
    }

    #[test]
    fn fd_aware_masks_only_determined_columns() {
        let t = fd_table();
        let vocab = build_vocab(&[&t], &[], 1, 500);
        let rptc = RptC::new(
            vocab,
            CleaningConfig {
                mask_policy: MaskPolicy::FdAware { min_strength: 0.95 },
                ..CleaningConfig::tiny()
            },
        );
        let profile = TableProfile::compute(&t, 0.95, 2);
        let determinable = profile.determinable_columns();
        assert!(determinable.contains(&1), "maker must be determinable");
        let mut rng = SmallRng::seed_from_u64(6);
        // with the profile, every produced pair must mask a determinable col
        for _ in 0..20 {
            let row = t.row(rng.gen_range(0..t.len()));
            let encoded = rptc.encoder().encode_tuple(t.schema(), row);
            if let Some((src, _)) = rptc.training_pair(t.schema(), row, Some(&profile), &mut rng) {
                let mask_pos = src
                    .ids
                    .iter()
                    .position(|&i| i == rpt_tokenizer::MASK)
                    .unwrap();
                let col = src.cols[mask_pos] - 1;
                assert!(
                    determinable.contains(&col),
                    "masked col {col} not determinable {determinable:?}; encoded {encoded:?}"
                );
            }
        }
    }

    #[test]
    fn pretrain_reduces_loss_and_fill_recovers_fd_value() {
        let t = fd_table();
        let vocab = build_vocab(&[&t], &[], 1, 500);
        let mut cfg = CleaningConfig::tiny();
        cfg.mask_policy = MaskPolicy::AttributeValue;
        cfg.train.steps = 220;
        cfg.train.batch_size = 8;
        cfg.train.peak_lr = 4e-3;
        let mut rptc = RptC::new(vocab.clone(), cfg);
        let losses = rptc.pretrain(&[&t]);
        assert_eq!(losses.len(), 220);
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < head * 0.6, "loss did not drop: {head} -> {tail}");

        // mask the maker of a seen tuple: brand -> maker is learnable
        let pred = rptc.fill(t.schema(), t.row(0), 1);
        assert_eq!(pred.text, "apple", "predicted {:?}", pred);
    }

    #[test]
    fn masked_source_handles_null_target_column() {
        let t = fd_table();
        let vocab = build_vocab(&[&t], &[], 1, 500);
        let rptc = RptC::new(vocab, CleaningConfig::tiny());
        let mut tuple = t.row(0).clone();
        tuple.replace(1, Value::Null);
        let seq = rptc.masked_source(t.schema(), &tuple, 1);
        assert!(seq.ids.contains(&rpt_tokenizer::MASK));
    }

    #[test]
    fn evaluate_fill_reports_metrics() {
        struct Oracle;
        impl Filler for Oracle {
            fn fill(&mut self, _schema: &Schema, tuple: &Tuple, col: usize) -> FillResult {
                FillResult {
                    text: tuple.get(col).render(),
                    tokens: rpt_tokenizer::normalize(&tuple.get(col).render())
                        .iter()
                        .map(|_| 100)
                        .collect(),
                    score: 0.0,
                }
            }
            fn name(&self) -> &str {
                "oracle-text"
            }
        }
        let t = fd_table();
        let vocab = build_vocab(&[&t], &[], 1, 500);
        // the oracle echoes the gold text but with bogus token ids, so
        // exact (token-level) fails while numeric closeness is perfect
        let mut oracle = Oracle;
        let eval = evaluate_fill(&mut oracle, &t, 2, 100, &vocab);
        assert_eq!(eval.n, 16);
        assert!((eval.numeric - 1.0).abs() < 1e-9);
    }
}
