//! Encoder-only models: the BERT-style [`EncoderClassifier`] behind RPT-E's
//! matcher and the [`SpanExtractor`] behind RPT-I's question answering.

use rpt_rng::RngCore;
use rpt_tensor::{ParamStore, Tape, Var};

use crate::batch::TokenBatch;
use crate::module::{Ctx, Embedding, Linear};
use crate::seq2seq::TransformerConfig;
use crate::transformer::Encoder;
use crate::NEG_INF;

/// Shared encoder trunk: token + position (+ column, + segment) embeddings
/// feeding an [`Encoder`] stack.
struct Trunk {
    cfg: TransformerConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    col_emb: Option<Embedding>,
    seg_emb: Option<Embedding>,
    flag_emb: Option<Embedding>,
    encoder: Encoder,
}

impl Trunk {
    fn new(
        params: &mut ParamStore,
        name: &str,
        cfg: TransformerConfig,
        rng: &mut dyn RngCore,
    ) -> Self {
        let tok_emb = Embedding::new(
            params,
            &format!("{name}.tok"),
            cfg.vocab_size,
            cfg.d_model,
            rng,
        );
        let pos_emb = Embedding::new(
            params,
            &format!("{name}.pos"),
            cfg.max_len,
            cfg.d_model,
            rng,
        );
        let col_emb = (cfg.max_cols > 0).then(|| {
            Embedding::new(
                params,
                &format!("{name}.col"),
                cfg.max_cols + 1,
                cfg.d_model,
                rng,
            )
        });
        let seg_emb = (cfg.n_segments > 0).then(|| {
            Embedding::new(
                params,
                &format!("{name}.seg"),
                cfg.n_segments,
                cfg.d_model,
                rng,
            )
        });
        let flag_emb = (cfg.n_flags > 0).then(|| {
            Embedding::new(
                params,
                &format!("{name}.flag"),
                cfg.n_flags,
                cfg.d_model,
                rng,
            )
        });
        let encoder = Encoder::new(
            params,
            &format!("{name}.enc"),
            cfg.n_layers,
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
            seg_emb,
            flag_emb,
            encoder,
        }
    }

    /// Embeds and encodes a batch, returning `[b, t, d]`.
    fn forward(&self, ctx: &mut Ctx<'_>, batch: &TokenBatch) -> Var {
        let (b, t) = (batch.b, batch.t);
        assert!(
            t <= self.cfg.max_len,
            "sequence length {t} exceeds max_len {}",
            self.cfg.max_len
        );
        let tok = self.tok_emb.forward_batch(ctx, &batch.ids, b, t);
        let mut pos_ids = Vec::with_capacity(b * t);
        for _ in 0..b {
            for i in 0..t {
                pos_ids.push(i.min(self.cfg.max_len - 1));
            }
        }
        let pos = self.pos_emb.forward_batch(ctx, &pos_ids, b, t);
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
        if let Some(seg_emb) = &self.seg_emb {
            let capped: Vec<usize> = batch
                .segs
                .iter()
                .map(|&s| s.min(self.cfg.n_segments - 1))
                .collect();
            let seg = seg_emb.forward_batch(ctx, &capped, b, t);
            x = ctx.tape.add(x, seg);
        }
        if let Some(flag_emb) = &self.flag_emb {
            let capped: Vec<usize> = batch
                .flags
                .iter()
                .map(|&f| f.min(self.cfg.n_flags - 1))
                .collect();
            let flag = flag_emb.forward_batch(ctx, &capped, b, t);
            x = ctx.tape.add(x, flag);
        }
        let x = ctx.dropout(x, self.cfg.dropout);
        let mask = batch.self_attn_mask(self.cfg.n_heads);
        self.encoder.forward(ctx, x, Some(&mask))
    }
}

/// BERT-style sequence classifier: `[CLS]` pooling, a tanh projection, and
/// a softmax head. RPT-E's matcher is this model over `[CLS] a [SEP] b`
/// pair serializations with `n_classes = 2`.
pub struct EncoderClassifier {
    trunk: Trunk,
    pool: Linear,
    head: Linear,
    n_classes: usize,
}

impl EncoderClassifier {
    /// Registers the model. `cfg.n_segments` should be 2 for pair inputs.
    pub fn new(
        params: &mut ParamStore,
        cfg: TransformerConfig,
        n_classes: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        let d = cfg.d_model;
        let trunk = Trunk::new(params, "clf", cfg, rng);
        let pool = Linear::new(params, "clf.pool", d, d, true, rng);
        let head = Linear::new(params, "clf.head", d, n_classes, true, rng);
        Self {
            trunk,
            pool,
            head,
            n_classes,
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.trunk.cfg
    }

    /// Class logits `[b, n_classes]`.
    pub fn logits(&self, ctx: &mut Ctx<'_>, batch: &TokenBatch) -> Var {
        let h = self.trunk.forward(ctx, batch);
        let cls = ctx.tape.select_time(h, 0);
        let pooled = self.pool.forward(ctx, cls);
        let pooled = ctx.tape.tanh(pooled);
        let pooled = ctx.dropout(pooled, self.trunk.cfg.dropout);
        self.head.forward(ctx, pooled)
    }

    /// Mean cross-entropy over the batch.
    pub fn loss(&self, ctx: &mut Ctx<'_>, batch: &TokenBatch, labels: &[usize]) -> Var {
        assert_eq!(labels.len(), batch.b, "one label per sequence");
        let logits = self.logits(ctx, batch);
        ctx.tape.cross_entropy(logits, labels, None, 0.0)
    }

    /// Masked-language-model logits `[b*t, vocab]` over every position,
    /// using the tied token-embedding projection — the unsupervised
    /// pretraining objective for the encoder trunk (mask tokens in tuple
    /// serializations, predict them).
    pub fn mlm_logits(&self, ctx: &mut Ctx<'_>, batch: &TokenBatch) -> Var {
        let h = self.trunk.forward(ctx, batch);
        let d = self.trunk.cfg.d_model;
        let flat = ctx.tape.reshape(h, &[batch.b * batch.t, d]);
        let e = ctx.p(self.trunk.tok_emb.weight());
        ctx.tape.matmul_nt(flat, e)
    }

    /// MLM cross-entropy; `targets` is flat `[b*t]` with `ignore` at
    /// non-masked positions.
    pub fn mlm_loss(
        &self,
        ctx: &mut Ctx<'_>,
        batch: &TokenBatch,
        targets: &[usize],
        ignore: usize,
    ) -> Var {
        let logits = self.mlm_logits(ctx, batch);
        ctx.tape.cross_entropy(logits, targets, Some(ignore), 0.0)
    }

    /// Class probabilities `[b][n_classes]` at inference.
    pub fn predict_proba(
        &self,
        params: &mut ParamStore,
        rng: &mut dyn RngCore,
        batch: &TokenBatch,
    ) -> Vec<Vec<f32>> {
        let tape = Tape::new();
        let mut ctx = Ctx::new(&tape, params, rng, false);
        let logits = self.logits(&mut ctx, batch);
        let probs = tape.value(tape.softmax_last(logits));
        probs
            .data()
            .chunks(self.n_classes)
            .map(|c| c.to_vec())
            .collect()
    }
}

/// Span extractor for IE-as-QA (paper Fig. 6): an encoder trunk plus two
/// linear heads producing start / end position logits over the sequence.
pub struct SpanExtractor {
    trunk: Trunk,
    start_head: Linear,
    end_head: Linear,
}

impl SpanExtractor {
    /// Registers the model. Inputs are `[CLS] question [SEP] context`
    /// serializations; `cfg.n_segments` should be 2.
    pub fn new(params: &mut ParamStore, cfg: TransformerConfig, rng: &mut dyn RngCore) -> Self {
        let d = cfg.d_model;
        let trunk = Trunk::new(params, "span", cfg, rng);
        let start_head = Linear::new(params, "span.start", d, 1, true, rng);
        let end_head = Linear::new(params, "span.end", d, 1, true, rng);
        Self {
            trunk,
            start_head,
            end_head,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.trunk.cfg
    }

    /// Start and end logits, each `[b, t]`, with padding positions pushed
    /// to [`NEG_INF`].
    pub fn span_logits(&self, ctx: &mut Ctx<'_>, batch: &TokenBatch) -> (Var, Var) {
        let h = self.trunk.forward(ctx, batch);
        let (b, t) = (batch.b, batch.t);
        let mask: Vec<f32> = batch
            .valid
            .iter()
            .map(|&v| if v { 0.0 } else { NEG_INF })
            .collect();
        let mask_t = ctx
            .tape
            .constant(rpt_tensor::Tensor::from_vec(mask, &[b, t]).expect("span mask"));
        let start = self.start_head.forward(ctx, h);
        let start = ctx.tape.reshape(start, &[b, t]);
        let start = ctx.tape.add(start, mask_t);
        let end = self.end_head.forward(ctx, h);
        let end = ctx.tape.reshape(end, &[b, t]);
        let end = ctx.tape.add(end, mask_t);
        (start, end)
    }

    /// Sum of start and end cross-entropies (the SQuAD objective).
    pub fn loss(
        &self,
        ctx: &mut Ctx<'_>,
        batch: &TokenBatch,
        starts: &[usize],
        ends: &[usize],
    ) -> Var {
        let (sl, el) = self.span_logits(ctx, batch);
        let ls = ctx.tape.cross_entropy(sl, starts, None, 0.0);
        let le = ctx.tape.cross_entropy(el, ends, None, 0.0);
        ctx.tape.add(ls, le)
    }

    /// Predicts `(start, end)` per sequence: the highest-scoring pair with
    /// `start <= end <= start + max_span_len`, restricted to positions at
    /// or after `min_pos` (so the question segment can be excluded).
    pub fn predict_spans(
        &self,
        params: &mut ParamStore,
        rng: &mut dyn RngCore,
        batch: &TokenBatch,
        min_pos: &[usize],
        max_span_len: usize,
    ) -> Vec<(usize, usize)> {
        let tape = Tape::new();
        let mut ctx = Ctx::new(&tape, params, rng, false);
        let (sl, el) = self.span_logits(&mut ctx, batch);
        let sv = tape.value(sl);
        let ev = tape.value(el);
        let t = batch.t;
        let mut out = Vec::with_capacity(batch.b);
        for bi in 0..batch.b {
            let srow = &sv.data()[bi * t..(bi + 1) * t];
            let erow = &ev.data()[bi * t..(bi + 1) * t];
            let lo = min_pos.get(bi).copied().unwrap_or(0);
            let mut best = (lo, lo, f32::NEG_INFINITY);
            #[allow(clippy::needless_range_loop)]
            for s in lo..t {
                if !batch.valid[bi * t + s] {
                    continue;
                }
                for e in s..(s + max_span_len).min(t) {
                    if !batch.valid[bi * t + e] {
                        break;
                    }
                    let score = srow[s] + erow[e];
                    if score > best.2 {
                        best = (s, e, score);
                    }
                }
            }
            out.push((best.0, best.1));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Sequence;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;
    use rpt_tensor::{clip_global_norm, Adam, AdamConfig};

    fn pair_cfg() -> TransformerConfig {
        let mut cfg = TransformerConfig::tiny(20);
        cfg.n_segments = 2;
        cfg
    }

    /// Label 1 iff the two "tuples" around SEP(7) share their first token.
    fn toy_pairs() -> (TokenBatch, Vec<usize>) {
        let seqs = vec![
            Sequence::from_ids(vec![6, 10, 11, 7, 10, 12]), // match
            Sequence::from_ids(vec![6, 10, 11, 7, 13, 12]), // no match
            Sequence::from_ids(vec![6, 14, 11, 7, 14, 15]), // match
            Sequence::from_ids(vec![6, 14, 11, 7, 10, 15]), // no match
        ];
        let batch = TokenBatch::from_sequences(&seqs, 16, 0);
        (batch, vec![1, 0, 1, 0])
    }

    #[test]
    fn classifier_learns_toy_matching() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = EncoderClassifier::new(&mut params, pair_cfg(), 2, &mut rng);
        let (batch, labels) = toy_pairs();
        let mut opt = Adam::new(AdamConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let mut rng2 = SmallRng::seed_from_u64(1);
        for _ in 0..60 {
            let tape = Tape::new();
            let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, true);
            let loss = model.loss(&mut ctx, &batch, &labels);
            let mut grads = tape.backward(loss);
            let mut pg = params.collect_grads(&mut grads);
            clip_global_norm(&mut pg, 1.0);
            opt.step(&mut params, &pg);
        }
        let probs = model.predict_proba(&mut params, &mut rng2, &batch);
        for (p, &l) in probs.iter().zip(labels.iter()) {
            let pred = if p[1] > p[0] { 1 } else { 0 };
            assert_eq!(pred, l, "probs {p:?}");
        }
    }

    #[test]
    fn span_extractor_shapes_and_padding_masked() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cfg = pair_cfg();
        cfg.max_cols = 0;
        let model = SpanExtractor::new(&mut params, cfg, &mut rng);
        let batch = TokenBatch::from_sequences(
            &[
                Sequence::from_ids(vec![6, 10, 7, 11, 12, 13]),
                Sequence::from_ids(vec![6, 10, 7, 11]),
            ],
            16,
            0,
        );
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, false);
        let (sl, el) = model.span_logits(&mut ctx, &batch);
        let sv = tape.value(sl);
        assert_eq!(sv.shape(), &[2, 6]);
        // padded positions of row 1 carry NEG_INF
        assert!(sv.data()[6 + 4] <= NEG_INF / 2.0);
        assert!(tape.value(el).data()[6 + 5] <= NEG_INF / 2.0);
    }

    #[test]
    fn span_extractor_learns_fixed_span() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cfg = pair_cfg();
        cfg.max_cols = 0;
        let model = SpanExtractor::new(&mut params, cfg, &mut rng);
        // the span is always the token 17 run: positions differ per row
        let batch = TokenBatch::from_sequences(
            &[
                Sequence::from_ids(vec![6, 10, 7, 17, 17, 13]),
                Sequence::from_ids(vec![6, 10, 7, 12, 17, 17]),
            ],
            16,
            0,
        );
        let starts = vec![3usize, 4];
        let ends = vec![4usize, 5];
        let mut opt = Adam::new(AdamConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let mut rng2 = SmallRng::seed_from_u64(1);
        for _ in 0..80 {
            let tape = Tape::new();
            let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, true);
            let loss = model.loss(&mut ctx, &batch, &starts, &ends);
            let mut grads = tape.backward(loss);
            let mut pg = params.collect_grads(&mut grads);
            clip_global_norm(&mut pg, 1.0);
            opt.step(&mut params, &pg);
        }
        let spans = model.predict_spans(&mut params, &mut rng2, &batch, &[3, 3], 4);
        assert_eq!(spans, vec![(3, 4), (4, 5)]);
    }

    #[test]
    fn predict_spans_respects_min_pos() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cfg = pair_cfg();
        cfg.max_cols = 0;
        let model = SpanExtractor::new(&mut params, cfg, &mut rng);
        let batch =
            TokenBatch::from_sequences(&[Sequence::from_ids(vec![6, 10, 7, 11, 12])], 16, 0);
        let mut rng2 = SmallRng::seed_from_u64(1);
        let spans = model.predict_spans(&mut params, &mut rng2, &batch, &[3], 8);
        assert!(spans[0].0 >= 3, "span must start at/after min_pos");
        assert!(spans[0].1 >= spans[0].0);
    }
}
