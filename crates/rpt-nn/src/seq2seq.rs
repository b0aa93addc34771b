//! The BART-style denoising sequence-to-sequence transformer (paper Fig. 4):
//! a bidirectional encoder reads the corrupted tuple serialization (with
//! token, positional, and column embeddings) and a left-to-right
//! autoregressive decoder reconstructs the masked value.

use rpt_rng::{RngCore, SeedableRng, SmallRng};
use rpt_tensor::{ParamStore, Tape, Tensor, Var};

use crate::batch::TokenBatch;
use crate::module::{Ctx, Embedding};
use crate::transformer::{CrossKv, Decoder, Encoder, KvCache};
use crate::NEG_INF;

/// Hyperparameters shared by the transformer models in this crate.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Vocabulary size (including special tokens).
    pub vocab_size: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// Encoder depth.
    pub n_layers: usize,
    /// Decoder depth (ignored by encoder-only models).
    pub n_dec_layers: usize,
    /// Maximum sequence length (positional-embedding table size).
    pub max_len: usize,
    /// Column-embedding table size (`0` disables column embeddings —
    /// the paper's Fig. 4 ablation).
    pub max_cols: usize,
    /// Segment-embedding table size (`0` disables; RPT-E pairs use 2).
    pub n_segments: usize,
    /// Auxiliary flag-embedding table size (`0` disables; the RPT-E
    /// matcher uses 2 for its cross-side token-overlap indicator).
    pub n_flags: usize,
    /// Dropout rate.
    pub dropout: f32,
    /// Label smoothing for the reconstruction loss.
    pub label_smoothing: f32,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        Self {
            vocab_size: 1000,
            d_model: 64,
            n_heads: 4,
            d_ff: 128,
            n_layers: 2,
            n_dec_layers: 2,
            max_len: 64,
            max_cols: 16,
            n_segments: 0,
            n_flags: 0,
            dropout: 0.1,
            label_smoothing: 0.0,
        }
    }
}

impl TransformerConfig {
    /// A miniature config for fast unit tests.
    pub fn tiny(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            n_layers: 1,
            n_dec_layers: 1,
            max_len: 32,
            max_cols: 8,
            n_segments: 0,
            n_flags: 0,
            dropout: 0.0,
            label_smoothing: 0.0,
        }
    }
}

/// The encoder-decoder model. Token embeddings are tied with the output
/// projection (`logits = h · Eᵀ`), halving the parameter count — standard
/// for BART-class models and important at this scale.
///
/// `Clone` copies parameter handles and the `Arc` of any attached int8
/// set — never weights.
#[derive(Clone)]
pub struct Seq2Seq {
    cfg: TransformerConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    col_emb: Option<Embedding>,
    encoder: Encoder,
    decoder: Decoder,
    /// Int8 inference weights, attached to every forward-only decode
    /// context this model creates. `None` (the default) keeps every path
    /// f32; training paths ignore it entirely.
    quant: Option<std::sync::Arc<crate::quant::QuantSet>>,
}

impl Seq2Seq {
    /// Registers all parameters for the model into `params`.
    pub fn new(params: &mut ParamStore, cfg: TransformerConfig, rng: &mut dyn RngCore) -> Self {
        let tok_emb = Embedding::new(params, "s2s.tok", cfg.vocab_size, cfg.d_model, rng);
        let pos_emb = Embedding::new(params, "s2s.pos", cfg.max_len, cfg.d_model, rng);
        let col_emb = (cfg.max_cols > 0)
            .then(|| Embedding::new(params, "s2s.col", cfg.max_cols + 1, cfg.d_model, rng));
        let encoder = Encoder::new(
            params,
            "s2s.enc",
            cfg.n_layers,
            cfg.d_model,
            cfg.n_heads,
            cfg.d_ff,
            cfg.dropout,
            rng,
        );
        let decoder = Decoder::new(
            params,
            "s2s.dec",
            cfg.n_dec_layers,
            cfg.d_model,
            cfg.n_heads,
            cfg.d_ff,
            cfg.dropout,
            rng,
        );
        Self {
            cfg,
            tok_emb,
            pos_emb,
            col_emb,
            encoder,
            decoder,
            quant: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Attaches (or clears) an int8 inference weight set. Subsequent
    /// [`Self::begin_decode`] / [`Self::begin_request`] /
    /// [`Self::decode_step_rows`] calls — and therefore every
    /// [`crate::MicroBatcher`] driving this model — run dense layers and
    /// the tied projection on the exact integer kernels. Training and the
    /// uncached `*_reference` decode paths stay f32.
    pub fn set_quant(&mut self, quant: Option<std::sync::Arc<crate::quant::QuantSet>>) {
        self.quant = quant;
    }

    /// The attached int8 weight set, if any.
    pub fn quant(&self) -> Option<&crate::quant::QuantSet> {
        self.quant.as_deref()
    }

    /// Builds the int8 weight set for this model's parameters — every
    /// dense-layer weight plus the tied table (see
    /// [`crate::quant::build_quant_set`]). Does not attach it.
    pub fn build_quant_set(&self, params: &ParamStore) -> crate::quant::QuantSet {
        crate::quant::build_quant_set(params)
    }

    fn position_ids(&self, b: usize, t: usize) -> Vec<usize> {
        let mut ids = Vec::with_capacity(b * t);
        for _ in 0..b {
            for i in 0..t {
                ids.push(i.min(self.cfg.max_len - 1));
            }
        }
        ids
    }

    /// Embeds a source batch: token + positional (+ column) embeddings.
    pub fn embed_source(&self, ctx: &mut Ctx<'_>, batch: &TokenBatch) -> Var {
        let (b, t) = (batch.b, batch.t);
        assert!(
            t <= self.cfg.max_len,
            "source length {t} exceeds max_len {}",
            self.cfg.max_len
        );
        let tok = self.tok_emb.forward_batch(ctx, &batch.ids, b, t);
        let pos = self
            .pos_emb
            .forward_batch(ctx, &self.position_ids(b, t), b, t);
        let mut x = ctx.tape.add(tok, pos);
        if let Some(col_emb) = &self.col_emb {
            let capped: Vec<usize> = batch
                .cols
                .iter()
                .map(|&c| c.min(self.cfg.max_cols))
                .collect();
            let col = col_emb.forward_batch(ctx, &capped, b, t);
            x = ctx.tape.add(x, col);
        }
        ctx.dropout(x, self.cfg.dropout)
    }

    /// Embeds a target batch: token + positional embeddings.
    pub fn embed_target(&self, ctx: &mut Ctx<'_>, batch: &TokenBatch) -> Var {
        let (b, t) = (batch.b, batch.t);
        assert!(
            t <= self.cfg.max_len,
            "target length {t} exceeds max_len {}",
            self.cfg.max_len
        );
        let tok = self.tok_emb.forward_batch(ctx, &batch.ids, b, t);
        let pos = self
            .pos_emb
            .forward_batch(ctx, &self.position_ids(b, t), b, t);
        let x = ctx.tape.add(tok, pos);
        ctx.dropout(x, self.cfg.dropout)
    }

    /// Runs the bidirectional encoder, returning `[b, t, d]`.
    pub fn encode(&self, ctx: &mut Ctx<'_>, src: &TokenBatch) -> Var {
        let x = self.embed_source(ctx, src);
        let mask = src.self_attn_mask(self.cfg.n_heads);
        self.encoder.forward(ctx, x, Some(&mask))
    }

    /// Runs the decoder over `tgt_in` given encoder output, returning
    /// logits `[b * t_dec, vocab]` via the tied output projection.
    pub fn decode_logits(
        &self,
        ctx: &mut Ctx<'_>,
        tgt_in: &TokenBatch,
        enc_out: Var,
        src: &TokenBatch,
    ) -> Var {
        let x = self.embed_target(ctx, tgt_in);
        let self_mask = tgt_in.causal_attn_mask(self.cfg.n_heads);
        let cross_mask = src.cross_attn_mask(tgt_in.t, self.cfg.n_heads);
        let h = self
            .decoder
            .forward(ctx, x, enc_out, Some(&self_mask), Some(&cross_mask));
        let flat = ctx
            .tape
            .reshape(h, &[tgt_in.b * tgt_in.t, self.cfg.d_model]);
        let e = ctx.p(self.tok_emb.weight());
        ctx.tape.matmul_nt(flat, e) // flat · Eᵀ: [b*t, v]
    }

    /// The denoising reconstruction loss (cross-entropy between the decoder
    /// output and the uncorrupted target, §2.2 "Unsupervised Pretraining").
    ///
    /// `tgt_out` is the flat `[b * t_dec]` target, with `pad_id` in padding
    /// positions (those are ignored).
    pub fn reconstruction_loss(
        &self,
        ctx: &mut Ctx<'_>,
        src: &TokenBatch,
        tgt_in: &TokenBatch,
        tgt_out: &[usize],
        pad_id: usize,
    ) -> Var {
        let enc = self.encode(ctx, src);
        let logits = self.decode_logits(ctx, tgt_in, enc, src);
        ctx.tape
            .cross_entropy(logits, tgt_out, Some(pad_id), self.cfg.label_smoothing)
    }

    /// Starts a width-1 incremental decode of one source (`src.b == 1`):
    /// [`Self::begin_request`] in a one-row [`KvCache`] plus `Eᵀ`, advanced
    /// one token at a time by [`Self::decode_step`]. The crate's decoders
    /// run through [`crate::MicroBatcher`], on the same cache; this
    /// per-token API serves callers that drive or time single steps.
    pub fn begin_decode(&self, params: &mut ParamStore, src: &TokenBatch) -> IncrementalState {
        IncrementalState {
            cache: KvCache::new(self.begin_request(params, src), self.cfg.max_len),
            et: self.tied_projection(params),
        }
    }

    /// Encodes one source (`src.b == 1`) into its [`Prefill`] — the
    /// per-request half of [`Self::begin_decode`], which a
    /// [`crate::MicroBatcher`] slot takes into its [`KvCache`]. A pure
    /// function of the parameter values and `src`: it only reads the
    /// weights, so any thread holding its own [`ParamStore`] clone of the
    /// same values computes the same bits.
    pub fn begin_request(&self, params: &mut ParamStore, src: &TokenBatch) -> Prefill {
        assert_eq!(
            src.b, 1,
            "begin_request expects a single source, got b={}",
            src.b
        );
        crate::obs::DECODE_OBS.calls.inc();
        let tape = Tape::inference();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(&tape, params, &mut rng, false);
        ctx.quant = self.quant.as_deref();
        let enc = self.encode(&mut ctx, src);
        let cross = self.decoder.begin_cache(&mut ctx, enc);
        let cross_row = (0..src.t)
            .map(|i| if src.valid[i] { 0.0 } else { NEG_INF })
            .collect();
        Prefill { cross, cross_row }
    }

    /// Materializes the tied output projection `Eᵀ` (`[d, vocab]`). Shared
    /// by every request decoded against the same parameters, so callers
    /// that batch requests compute it once.
    pub fn tied_projection(&self, params: &mut ParamStore) -> Tensor {
        let tape = Tape::inference();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(&tape, params, &mut rng, false);
        let e = ctx.p(self.tok_emb.weight());
        let et_var = ctx.tape.transpose_last(e); // [d, v]
        ctx.tape.value(et_var)
    }

    /// One incremental decode step: feeds `tokens[0]`, the newest token,
    /// at position `state.decoded_len()` and returns next-token logits
    /// `[1, vocab]` through the tied projection.
    pub fn decode_step(
        &self,
        params: &mut ParamStore,
        state: &mut IncrementalState,
        tokens: &[usize],
    ) -> Tensor {
        assert_eq!(tokens.len(), 1, "decode_step advances one hypothesis");
        let positions = [state.cache.len().min(self.cfg.max_len - 1)];
        self.decode_step_rows(
            params,
            &mut [&mut state.cache],
            tokens,
            &positions,
            &state.et,
        )
    }

    /// One incremental decode step over the rows of `caches`, in order, on
    /// its own forward-only tape: row `i` embeds `tokens[i]` at
    /// `positions[i]`, advances through the decoder against its own job's
    /// cache (which gains one position per row), and projects through
    /// `et`. Rows may belong to *different* jobs. The weight products run
    /// fused over every row; attention runs per row over the row's own
    /// prefix and source. Every per-row computation is independent of the
    /// other rows, so the returned `[rows, vocab]` logits are bit-identical
    /// row for row to a one-row step.
    pub fn decode_step_rows(
        &self,
        params: &mut ParamStore,
        caches: &mut [&mut KvCache],
        tokens: &[usize],
        positions: &[usize],
        et: &Tensor,
    ) -> Tensor {
        assert_eq!(
            tokens.len(),
            caches.iter().map(|c| c.rows()).sum::<usize>(),
            "one token per cache row"
        );
        assert_eq!(tokens.len(), positions.len(), "one position per row token");
        let obs = &*crate::obs::DECODE_OBS;
        let _t = rpt_obs::span("decode.step", &obs.step_ms);
        obs.steps.inc();
        let b = tokens.len();
        let tape = Tape::inference();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ctx = Ctx::new(&tape, params, &mut rng, false);
        ctx.quant = self.quant.as_deref();
        let tok = self.tok_emb.forward_batch(&mut ctx, tokens, b, 1);
        let pos = self.pos_emb.forward_batch(&mut ctx, positions, b, 1);
        let x = ctx.tape.add(tok, pos);
        let x = ctx.dropout(x, self.cfg.dropout);
        let h = self.decoder.forward_step(&mut ctx, x, caches);
        let flat = ctx.tape.reshape(h, &[b, self.cfg.d_model]);
        // The tied projection: `h · Eᵀ` against the quantized table when a
        // quant set is attached (`E`'s rows are the output channels, so the
        // row-major [`rpt_tensor::QuantMatrix`] applies directly), else the
        // materialized f32 `Eᵀ`.
        if let Some(tied) = self.quant.as_deref().and_then(|q| q.tied()) {
            let fv = ctx.tape.value(flat);
            return Tensor::from_vec(tied.matmul_f32(fv.data(), b), &[b, self.cfg.vocab_size])
                .expect("quant logits shape");
        }
        let et = ctx.tape.constant(et.clone());
        let logits = ctx.tape.matmul(flat, et);
        ctx.tape.value(logits)
    }
}

/// One source's encoder output in the form the decoder consumes: the
/// per-layer cross-attention K/V and the additive cross-attention mask row
/// (`0.0` for valid source keys, `NEG_INF` for padding). Produced by
/// [`Seq2Seq::begin_request`] and moved into a job's [`KvCache`] by
/// [`crate::MicroBatcher::admit_prefilled`]; it holds
/// `n_dec_layers × 2 × t_src × d_model` floats.
#[derive(Debug, Clone)]
pub struct Prefill {
    /// Per-decoder-layer cross-attention K/V.
    pub cross: Vec<CrossKv>,
    /// Additive cross-attention mask row, one entry per source position.
    pub cross_row: Vec<f32>,
}

/// State carried across width-1 incremental decode steps: the one-row
/// [`KvCache`] and the materialized tied projection. Created by
/// [`Seq2Seq::begin_decode`].
pub struct IncrementalState {
    cache: KvCache,
    /// Tied output projection `Eᵀ` (`[d, vocab]`), materialized once.
    et: Tensor,
}

impl IncrementalState {
    /// Number of tokens decoded (and cached) so far.
    pub fn decoded_len(&self) -> usize {
        self.cache.len()
    }

    /// The KV cache (exposed for tests).
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }
}

/// One micro-batch of a denoising step, ready for an independent
/// forward/backward pass. Shards are the unit of data parallelism: the
/// decomposition of a step into shards depends only on the configured
/// micro-batch size — never on the thread count — so the reduced gradient
/// is bit-identical however many workers process them.
#[derive(Debug, Clone)]
pub struct DenoisingShard {
    /// Padded source batch (corrupted tuple serializations).
    pub src: TokenBatch,
    /// Padded decoder input (`[bos, target…]`).
    pub tgt_in: TokenBatch,
    /// Flat `[b * t]` decoder targets (`[target…, eos]`, pad elsewhere).
    pub tgt_out: Vec<usize>,
    /// Number of non-pad target positions — the shard's weight when
    /// averaging token-level losses across shards.
    pub weight: usize,
    /// Dropout seed for this shard's forward pass.
    pub seed: u64,
}

/// Splits a denoising batch into [`DenoisingShard`]s of at most
/// `micro_batch` examples (`0` means one shard holding everything).
///
/// Shard `i` gets dropout seed [`shard_seed`]`(base_seed, i)`, so shard 0
/// of a single-shard step draws exactly `base_seed` — preserving the
/// serial training trajectory bit-for-bit.
///
/// Gradient accumulation builds one logical batch from several
/// micro-steps; passing `shard_seed(base_seed, k)` as `base_seed`, with
/// `k` the count of shards already folded, continues the seed sequence
/// across micro-steps, so the window's shards carry exactly the seeds one
/// call over the concatenated batch would assign — the accumulation
/// bit-identity proof rests on this.
// The signature is the benchmark's (perfbench calls it with these eight
// arguments), so it cannot be regrouped.
#[allow(clippy::too_many_arguments)]
pub fn make_denoising_shards(
    srcs: &[crate::batch::Sequence],
    tgts: &[Vec<usize>],
    max_len: usize,
    pad_id: usize,
    bos_id: usize,
    eos_id: usize,
    micro_batch: usize,
    base_seed: u64,
) -> Vec<DenoisingShard> {
    assert_eq!(srcs.len(), tgts.len(), "source/target count mismatch");
    let chunk = if micro_batch == 0 {
        srcs.len().max(1)
    } else {
        micro_batch
    };
    srcs.chunks(chunk)
        .zip(tgts.chunks(chunk))
        .enumerate()
        .map(|(i, (s, t))| {
            let src = TokenBatch::from_sequences(s, max_len, pad_id);
            let (tgt_in, tgt_out) = TokenBatch::teacher_forcing(t, max_len, pad_id, bos_id, eos_id);
            let weight = tgt_out.iter().filter(|&&tok| tok != pad_id).count();
            DenoisingShard {
                src,
                tgt_in,
                tgt_out,
                weight,
                seed: shard_seed(base_seed, i as u64),
            }
        })
        .collect()
}

/// The dropout seed of shard `index`: `base_seed + index·φ` (golden-ratio
/// stride, wrapping). `shard_seed(shard_seed(s, a), b) == shard_seed(s, a +
/// b)`, which is what lets accumulation micro-steps continue one sequence.
pub fn shard_seed(base_seed: u64, index: u64) -> u64 {
    base_seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Sequence;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;
    use rpt_tensor::{clip_global_norm, Adam, AdamConfig, Tape};

    fn toy_batches() -> (TokenBatch, TokenBatch, Vec<usize>) {
        // "copy" task over a vocab of 12: source tokens 9,10,11 -> same out
        let src = TokenBatch::from_sequences(
            &[
                Sequence::from_ids(vec![9, 10, 11]),
                Sequence::from_ids(vec![11, 9]),
            ],
            16,
            0,
        );
        // decoder in: BOS(1) + target ; out: target + EOS(2)
        let tgt_in = TokenBatch::from_sequences(
            &[
                Sequence::from_ids(vec![1, 9, 10, 11]),
                Sequence::from_ids(vec![1, 11, 9]),
            ],
            16,
            0,
        );
        let tgt_out = vec![9, 10, 11, 2, 11, 9, 2, 0];
        (src, tgt_in, tgt_out)
    }

    #[test]
    fn forward_shapes_and_finite_loss() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = Seq2Seq::new(&mut params, TransformerConfig::tiny(12), &mut rng);
        let (src, tgt_in, tgt_out) = toy_batches();
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, true);
        let loss = model.reconstruction_loss(&mut ctx, &src, &tgt_in, &tgt_out, 0);
        let lv = tape.value(loss);
        assert_eq!(lv.numel(), 1);
        assert!(lv.data()[0].is_finite());
        assert!(lv.data()[0] > 0.0);
    }

    #[test]
    fn few_steps_of_training_reduce_loss() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = Seq2Seq::new(&mut params, TransformerConfig::tiny(12), &mut rng);
        let (src, tgt_in, tgt_out) = toy_batches();
        let mut opt = Adam::new(AdamConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..45 {
            let tape = Tape::new();
            let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, true);
            let loss = model.reconstruction_loss(&mut ctx, &src, &tgt_in, &tgt_out, 0);
            let lv = tape.value(loss).data()[0];
            if step == 0 {
                first = lv;
            }
            last = lv;
            let mut grads = tape.backward(loss);
            let mut pg = params.collect_grads(&mut grads);
            clip_global_norm(&mut pg, 1.0);
            opt.step(&mut params, &pg);
        }
        assert!(
            last < first * 0.5,
            "loss did not halve: first {first}, last {last}"
        );
    }

    #[test]
    fn column_embeddings_can_be_disabled() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cfg = TransformerConfig::tiny(12);
        cfg.max_cols = 0;
        let model = Seq2Seq::new(&mut params, cfg, &mut rng);
        assert!(params.find("s2s.col.w").is_none());
        let (src, tgt_in, tgt_out) = toy_batches();
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, false);
        let loss = model.reconstruction_loss(&mut ctx, &src, &tgt_in, &tgt_out, 0);
        assert!(tape.value(loss).data()[0].is_finite());
    }

    #[test]
    fn shard_builder_splits_by_micro_batch_only() {
        let srcs: Vec<Sequence> = (0..5)
            .map(|i| Sequence::from_ids(vec![9 + i % 3, 10, 11]))
            .collect();
        let tgts: Vec<Vec<usize>> = (0..5).map(|i| vec![9 + i % 3, 10]).collect();

        // micro_batch = 0: one shard holding everything, seeded base_seed
        let one = make_denoising_shards(&srcs, &tgts, 16, 0, 1, 2, 0, 77);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].src.b, 5);
        assert_eq!(one[0].seed, 77);
        // weight counts targets + EOS, no padding
        assert_eq!(one[0].weight, 5 * 3);

        // micro_batch = 2 over 5 examples: shards of 2, 2, 1
        let shards = make_denoising_shards(&srcs, &tgts, 16, 0, 1, 2, 2, 77);
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards.iter().map(|s| s.src.b).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert_eq!(shards[0].seed, 77);
        assert_ne!(shards[1].seed, shards[0].seed);
        // decoder input starts with BOS; targets end with EOS
        assert_eq!(shards[0].tgt_in.ids[0], 1);
        assert_eq!(shards[0].tgt_out[2], 2);
        // shard decomposition covers the batch in order
        let total: usize = shards.iter().map(|s| s.src.b).sum();
        assert_eq!(total, 5);
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn overlong_source_panics() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cfg = TransformerConfig::tiny(12);
        cfg.max_len = 4;
        let model = Seq2Seq::new(&mut params, cfg, &mut rng);
        let src =
            TokenBatch::from_sequences(&[Sequence::from_ids(vec![9, 10, 11, 9, 10, 11])], 32, 0);
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, false);
        let _ = model.encode(&mut ctx, &src);
    }
}
