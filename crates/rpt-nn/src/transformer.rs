//! Pre-LN transformer encoder and decoder stacks.

use rpt_rng::RngCore;
use rpt_tensor::{ParamStore, Tensor, Var};

use crate::attention::MultiHeadAttention;
use crate::module::{Ctx, LayerNorm, Linear};

/// Position-wise feed-forward block: `Linear → GELU → dropout → Linear`.
#[derive(Debug, Clone)]
struct FeedForward {
    lin1: Linear,
    lin2: Linear,
    dropout: f32,
}

impl FeedForward {
    fn new(
        params: &mut ParamStore,
        name: &str,
        d_model: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut dyn RngCore,
    ) -> Self {
        Self {
            lin1: Linear::new(params, &format!("{name}.ff1"), d_model, d_ff, true, rng),
            lin2: Linear::new(params, &format!("{name}.ff2"), d_ff, d_model, true, rng),
            dropout,
        }
    }

    fn forward(&self, ctx: &mut Ctx<'_>, x: Var) -> Var {
        let h = self.lin1.forward(ctx, x);
        let h = ctx.tape.gelu(h);
        let h = ctx.dropout(h, self.dropout);
        self.lin2.forward(ctx, h)
    }
}

/// One pre-LN encoder layer: self-attention + FFN with residuals.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff: FeedForward,
    dropout: f32,
}

impl EncoderLayer {
    /// Registers one encoder layer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut dyn RngCore,
    ) -> Self {
        Self {
            ln1: LayerNorm::new(params, &format!("{name}.ln1"), d_model),
            attn: MultiHeadAttention::new(
                params,
                &format!("{name}.attn"),
                d_model,
                n_heads,
                dropout,
                rng,
            ),
            ln2: LayerNorm::new(params, &format!("{name}.ln2"), d_model),
            ff: FeedForward::new(params, name, d_model, d_ff, dropout, rng),
            dropout,
        }
    }

    /// Applies the layer.
    pub fn forward(&self, ctx: &mut Ctx<'_>, x: Var, mask: Option<&Tensor>) -> Var {
        let n1 = self.ln1.forward(ctx, x);
        let a = self.attn.forward(ctx, n1, n1, mask);
        let a = ctx.dropout(a, self.dropout);
        let x = ctx.tape.add(x, a);
        let n2 = self.ln2.forward(ctx, x);
        let f = self.ff.forward(ctx, n2);
        let f = ctx.dropout(f, self.dropout);
        ctx.tape.add(x, f)
    }
}

/// Per-layer KV cache for incremental decoding.
///
/// Cross-attention keys/values are projected once from the encoder output
/// when the cache is created; self-attention keys/values start empty and
/// grow by one time step per [`DecoderLayer::forward_step`]. Rows are
/// `rows*h`, where `rows` is the number of decoder rows advanced as a batch.
#[derive(Debug, Clone)]
pub struct LayerKv {
    /// Cached self-attention keys over the decoded prefix, `[rows*h, t, dh]`
    /// (`None` before the first step).
    pub self_k: Option<Tensor>,
    /// Cached self-attention values over the decoded prefix.
    pub self_v: Option<Tensor>,
    /// Cross-attention keys over the (fixed) encoder output, stored
    /// pre-transposed as `[rows*h, dh, t_src]` so each decode step skips the
    /// transpose op.
    pub cross_kt: Tensor,
    /// Cross-attention values over the encoder output, `[rows*h, t_src, dh]`.
    pub cross_v: Tensor,
}

impl LayerKv {
    fn append_self(&mut self, k_new: Tensor, v_new: Tensor) {
        crate::obs::DECODE_OBS.cache_appends.inc();
        self.self_k = Some(match self.self_k.take() {
            Some(k) => k.concat_dim1(&k_new),
            None => k_new,
        });
        self.self_v = Some(match self.self_v.take() {
            Some(v) => v.concat_dim1(&v_new),
            None => v_new,
        });
    }

    /// Reorders/replicates every cached tensor along the batch dimension.
    /// `rows` indexes `[width*h]` rows of the *current* cache.
    pub fn select_rows(&mut self, rows: &[usize]) {
        if let Some(k) = &self.self_k {
            self.self_k = Some(k.gather_batches(rows));
        }
        if let Some(v) = &self.self_v {
            self.self_v = Some(v.gather_batches(rows));
        }
        self.cross_kt = self.cross_kt.gather_batches(rows);
        self.cross_v = self.cross_v.gather_batches(rows);
    }
}

/// One pre-LN decoder layer: causal self-attention, cross-attention over
/// the encoder output, and FFN.
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    ln1: LayerNorm,
    self_attn: MultiHeadAttention,
    ln2: LayerNorm,
    cross_attn: MultiHeadAttention,
    ln3: LayerNorm,
    ff: FeedForward,
    dropout: f32,
}

impl DecoderLayer {
    /// Registers one decoder layer.
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut dyn RngCore,
    ) -> Self {
        Self {
            ln1: LayerNorm::new(params, &format!("{name}.ln1"), d_model),
            self_attn: MultiHeadAttention::new(
                params,
                &format!("{name}.self"),
                d_model,
                n_heads,
                dropout,
                rng,
            ),
            ln2: LayerNorm::new(params, &format!("{name}.ln2"), d_model),
            cross_attn: MultiHeadAttention::new(
                params,
                &format!("{name}.cross"),
                d_model,
                n_heads,
                dropout,
                rng,
            ),
            ln3: LayerNorm::new(params, &format!("{name}.ln3"), d_model),
            ff: FeedForward::new(params, name, d_model, d_ff, dropout, rng),
            dropout,
        }
    }

    /// Applies the layer. `self_mask` is the causal+padding mask over the
    /// target; `cross_mask` hides padded source keys.
    pub fn forward(
        &self,
        ctx: &mut Ctx<'_>,
        x: Var,
        enc_out: Var,
        self_mask: Option<&Tensor>,
        cross_mask: Option<&Tensor>,
    ) -> Var {
        let n1 = self.ln1.forward(ctx, x);
        let a = self.self_attn.forward(ctx, n1, n1, self_mask);
        let a = ctx.dropout(a, self.dropout);
        let x = ctx.tape.add(x, a);

        let n2 = self.ln2.forward(ctx, x);
        let c = self.cross_attn.forward(ctx, n2, enc_out, cross_mask);
        let c = ctx.dropout(c, self.dropout);
        let x = ctx.tape.add(x, c);

        let n3 = self.ln3.forward(ctx, x);
        let f = self.ff.forward(ctx, n3);
        let f = ctx.dropout(f, self.dropout);
        ctx.tape.add(x, f)
    }

    /// Precomputes this layer's cross-attention K/V from the encoder
    /// output, starting an empty self-attention cache.
    pub fn begin_cache(&self, ctx: &mut Ctx<'_>, enc_out: Var) -> LayerKv {
        let (cross_k, cross_v) = self.cross_attn.project_kv(ctx, enc_out);
        let kv = ctx.tape.constant(cross_k);
        let ktv = ctx.tape.transpose_last(kv);
        let cross_kt = ctx.tape.value(ktv);
        LayerKv {
            self_k: None,
            self_v: None,
            cross_kt,
            cross_v,
        }
    }

    /// One incremental decode step. `x` is the `[width, 1, d]` embedding of
    /// each hypothesis's newest token; the step appends that token's
    /// self-attention K/V to `cache` and attends over the full cached
    /// prefix.
    ///
    /// For a single request no self-attention mask is needed (`self_mask`
    /// = `None`): every cached key is a real, strictly-earlier token, so
    /// causality holds by construction. The reference path adds `0.0` at
    /// exactly these positions, which only flips `-0.0` scores to `+0.0` —
    /// a difference softmax erases — so the output stays bit-identical to
    /// [`Self::forward`]. The fused multi-request decoder passes a mask
    /// hiding the zero "lead-pad" keys of requests that joined the batch
    /// after other requests had already cached earlier positions.
    pub fn forward_step(
        &self,
        ctx: &mut Ctx<'_>,
        x: Var,
        cache: &mut LayerKv,
        self_mask: Option<&Tensor>,
        cross_mask: Option<&Tensor>,
    ) -> Var {
        let n1 = self.ln1.forward(ctx, x);
        let (k_new, v_new) = self.self_attn.project_kv(ctx, n1);
        cache.append_self(k_new, v_new);
        let (sk, sv) = (
            cache.self_k.clone().expect("append_self just ran"),
            cache.self_v.clone().expect("append_self just ran"),
        );
        let a = self.self_attn.attend_cached(ctx, n1, &sk, &sv, self_mask);
        let a = ctx.dropout(a, self.dropout);
        let x = ctx.tape.add(x, a);

        let n2 = self.ln2.forward(ctx, x);
        let c =
            self.cross_attn
                .attend_cached_kt(ctx, n2, &cache.cross_kt, &cache.cross_v, cross_mask);
        let c = ctx.dropout(c, self.dropout);
        let x = ctx.tape.add(x, c);

        let n3 = self.ln3.forward(ctx, x);
        let f = self.ff.forward(ctx, n3);
        let f = ctx.dropout(f, self.dropout);
        ctx.tape.add(x, f)
    }
}

/// A stack of encoder layers with a final layer norm (the bidirectional
/// "can read any tuple" half of RPT-C, and the whole of RPT-E/RPT-I).
#[derive(Debug, Clone)]
pub struct Encoder {
    layers: Vec<EncoderLayer>,
    final_ln: LayerNorm,
}

impl Encoder {
    /// Registers `n_layers` encoder layers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        n_layers: usize,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut dyn RngCore,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|i| {
                EncoderLayer::new(
                    params,
                    &format!("{name}.layer{i}"),
                    d_model,
                    n_heads,
                    d_ff,
                    dropout,
                    rng,
                )
            })
            .collect();
        Self {
            layers,
            final_ln: LayerNorm::new(params, &format!("{name}.final_ln"), d_model),
        }
    }

    /// Runs the stack.
    pub fn forward(&self, ctx: &mut Ctx<'_>, mut x: Var, mask: Option<&Tensor>) -> Var {
        for layer in &self.layers {
            x = layer.forward(ctx, x, mask);
        }
        self.final_ln.forward(ctx, x)
    }
}

/// A stack of decoder layers with a final layer norm (the autoregressive
/// generator half of RPT-C).
#[derive(Debug, Clone)]
pub struct Decoder {
    layers: Vec<DecoderLayer>,
    final_ln: LayerNorm,
}

impl Decoder {
    /// Registers `n_layers` decoder layers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        n_layers: usize,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut dyn RngCore,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|i| {
                DecoderLayer::new(
                    params,
                    &format!("{name}.layer{i}"),
                    d_model,
                    n_heads,
                    d_ff,
                    dropout,
                    rng,
                )
            })
            .collect();
        Self {
            layers,
            final_ln: LayerNorm::new(params, &format!("{name}.final_ln"), d_model),
        }
    }

    /// Runs the stack.
    pub fn forward(
        &self,
        ctx: &mut Ctx<'_>,
        mut x: Var,
        enc_out: Var,
        self_mask: Option<&Tensor>,
        cross_mask: Option<&Tensor>,
    ) -> Var {
        for layer in &self.layers {
            x = layer.forward(ctx, x, enc_out, self_mask, cross_mask);
        }
        self.final_ln.forward(ctx, x)
    }

    /// Precomputes every layer's cross-attention K/V from the encoder
    /// output.
    pub fn begin_cache(&self, ctx: &mut Ctx<'_>, enc_out: Var) -> Vec<LayerKv> {
        self.layers
            .iter()
            .map(|layer| layer.begin_cache(ctx, enc_out))
            .collect()
    }

    /// One incremental decode step through the whole stack plus the final
    /// layer norm. `caches` must come from [`Self::begin_cache`].
    pub fn forward_step(
        &self,
        ctx: &mut Ctx<'_>,
        mut x: Var,
        caches: &mut [LayerKv],
        self_mask: Option<&Tensor>,
        cross_mask: Option<&Tensor>,
    ) -> Var {
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "one KV cache per decoder layer"
        );
        for (layer, cache) in self.layers.iter().zip(caches.iter_mut()) {
            x = layer.forward_step(ctx, x, cache, self_mask, cross_mask);
        }
        self.final_ln.forward(ctx, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;
    use rpt_tensor::{init, Tape};

    #[test]
    fn encoder_preserves_shape_and_is_finite() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let enc = Encoder::new(&mut params, "enc", 2, 8, 2, 16, 0.0, &mut rng);
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, false);
        let x = ctx.tape.leaf(init::normal(
            &[2, 5, 8],
            1.0,
            &mut SmallRng::seed_from_u64(2),
        ));
        let y = enc.forward(&mut ctx, x, None);
        let yv = ctx.tape.value(y);
        assert_eq!(yv.shape(), &[2, 5, 8]);
        assert!(!yv.has_non_finite());
    }

    #[test]
    fn decoder_causality_future_target_change_does_not_affect_past() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let dec = Decoder::new(&mut params, "dec", 1, 8, 2, 16, 0.0, &mut rng);

        let run = |tgt: Tensor, params: &mut ParamStore| {
            let tape = Tape::new();
            let mut rng2 = SmallRng::seed_from_u64(1);
            let mut ctx = Ctx::new(&tape, params, &mut rng2, false);
            let enc_out = ctx.tape.leaf(init::normal(
                &[1, 4, 8],
                1.0,
                &mut SmallRng::seed_from_u64(7),
            ));
            let x = ctx.tape.leaf(tgt);
            let batch = crate::batch::TokenBatch::from_sequences(
                &[crate::batch::Sequence::from_ids(vec![1, 1, 1])],
                8,
                0,
            );
            let mask = batch.causal_attn_mask(2);
            let y = dec.forward(&mut ctx, x, enc_out, Some(&mask), None);
            ctx.tape.value(y).data().to_vec()
        };

        let base = init::normal(&[1, 3, 8], 1.0, &mut SmallRng::seed_from_u64(9));
        let mut fut = base.clone();
        // perturb ONLY the last time step (non-uniformly — a constant shift
        // would be erased by the input layer norm)
        for i in 16..24 {
            fut.data_mut()[i] += (i as f32 - 19.5) * 2.0;
        }
        let y1 = run(base, &mut params);
        let y2 = run(fut, &mut params);
        // first two steps (16 floats) must be identical
        for i in 0..16 {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-5,
                "future leak at {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
        // last step must differ
        assert!((y1[16] - y2[16]).abs() > 1e-4 || (y1[20] - y2[20]).abs() > 1e-4);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let enc = Encoder::new(&mut params, "enc", 2, 8, 2, 16, 0.0, &mut rng);
        let n_params = params.len();
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, true);
        let x = ctx.tape.leaf(init::normal(
            &[1, 4, 8],
            1.0,
            &mut SmallRng::seed_from_u64(2),
        ));
        let y = enc.forward(&mut ctx, x, None);
        let loss = ctx.tape.sum_all(ctx.tape.mul(y, y));
        let mut grads = tape.backward(loss);
        let pg = params.collect_grads(&mut grads);
        assert_eq!(pg.len(), n_params, "every parameter must be on the tape");
        let nonzero = pg.iter().filter(|(_, g)| g.max_abs() > 0.0).count();
        assert!(
            nonzero as f64 >= 0.9 * n_params as f64,
            "{nonzero}/{n_params} parameters got nonzero grads"
        );
    }
}
