//! Pre-LN transformer encoder and decoder stacks.

use rpt_rng::RngCore;
use rpt_tensor::{ParamStore, Tensor, Var};

use crate::attention::{KvView, MultiHeadAttention};
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

/// One decoder layer's cross-attention keys and values over one source,
/// projected once from the encoder output by [`DecoderLayer::begin_cache`].
#[derive(Debug, Clone)]
pub struct CrossKv {
    /// Keys, stored pre-transposed as `[1, d, t_src]` so no decode step
    /// transposes them.
    pub kt: Tensor,
    /// Values, `[1, t_src, d]`.
    pub v: Tensor,
}

/// One row's self-attention cache in one layer: keys pre-transposed as
/// `[d, cap]` and values as `[cap, d]`, of which positions `0..len` are
/// filled.
#[derive(Debug, Clone)]
struct SelfKv {
    kt: Vec<f32>,
    v: Vec<f32>,
}

/// Smallest self-attention capacity a job's cache allocates.
const FIRST_CAP: usize = 8;

/// One decode job's KV cache: the cache a [`crate::MicroBatcher`] slot
/// owns.
///
/// The cross-attention K/V come by move from the job's
/// [`crate::Prefill`], unpadded, and all of the job's rows (its live beam
/// hypotheses) read that one copy. Each row owns per-layer self-attention
/// buffers that [`Decoder::forward_step`] appends to in place at position
/// [`Self::len`]; their capacity doubles as needed up to the job's step
/// bound. Every row of a job has decoded the same number of positions.
#[derive(Debug, Clone)]
pub struct KvCache {
    cross: Vec<CrossKv>,
    /// Additive cross-attention mask row: `0.0` for a valid source key,
    /// `NEG_INF` for padding.
    cross_row: Vec<f32>,
    /// Per row, per layer.
    rows: Vec<Vec<SelfKv>>,
    len: usize,
    cap: usize,
    /// Capacity the doubling stops at: the most steps the job can take.
    bound: usize,
}

impl KvCache {
    /// A one-row cache over `prefill`'s source, for a job that decodes at
    /// most `bound` positions (more still fit, one position at a time).
    pub fn new(prefill: crate::Prefill, bound: usize) -> Self {
        let crate::Prefill { cross, cross_row } = prefill;
        let row = vec![
            SelfKv {
                kt: Vec::new(),
                v: Vec::new(),
            };
            cross.len()
        ];
        Self {
            cross,
            cross_row,
            rows: vec![row],
            len: 0,
            cap: 0,
            bound,
        }
    }

    /// Decoded positions cached per row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first decode step.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows (beam hypotheses) this job advances per step.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Layer `layer`'s cross-attention K/V, shared by every row.
    pub fn cross(&self, layer: usize) -> &CrossKv {
        &self.cross[layer]
    }

    /// Row `row`'s self-attention key and value at position `pos` of
    /// layer `layer`, `d` floats each.
    pub fn self_kv(&self, layer: usize, row: usize, pos: usize) -> (Vec<f32>, Vec<f32>) {
        assert!(pos < self.len, "position {pos} of {} cached", self.len);
        let kv = &self.rows[row][layer];
        let k = kv.kt.chunks_exact(self.cap).map(|line| line[pos]).collect();
        let d = kv.kt.len() / self.cap;
        (k, kv.v[pos * d..(pos + 1) * d].to_vec())
    }

    /// Keeps, reorders or replicates rows: new row `i` continues old row
    /// `parents[i]` (the beam reorder). Only this job's rows move; a
    /// parent's buffers are moved to its last child and copied for the
    /// others.
    pub fn select(&mut self, parents: &[usize]) {
        let mut uses = vec![0usize; self.rows.len()];
        for &p in parents {
            uses[p] += 1;
        }
        let mut old: Vec<Option<Vec<SelfKv>>> = std::mem::take(&mut self.rows)
            .into_iter()
            .map(Some)
            .collect();
        self.rows = parents
            .iter()
            .map(|&p| {
                uses[p] -= 1;
                if uses[p] == 0 {
                    old[p].take().expect("a row moves once")
                } else {
                    old[p].clone().expect("a moved row is not reused")
                }
            })
            .collect();
    }

    /// Makes room for one more position in every buffer: doubles the
    /// capacity, up to the bound, when it is full. Values only grow at
    /// the end; each key line moves to its wider stride.
    fn reserve_one(&mut self) {
        if self.len < self.cap {
            return;
        }
        let cap = (2 * self.cap)
            .max(FIRST_CAP)
            .min(self.bound)
            .max(self.len + 1);
        for (layer, cross) in self.cross.iter().enumerate() {
            let d = cross.kt.shape()[1];
            for kv in self.rows.iter_mut().map(|row| &mut row[layer]) {
                let mut kt = vec![0.0; d * cap];
                if self.len > 0 {
                    for (dst, src) in kt.chunks_exact_mut(cap).zip(kv.kt.chunks_exact(self.cap)) {
                        dst[..self.len].copy_from_slice(&src[..self.len]);
                    }
                }
                kv.kt = kt;
                kv.v.resize(cap * d, 0.0);
            }
        }
        self.cap = cap;
    }

    /// Writes one row's newest self-attention key and value (`d` floats
    /// each) into layer `layer` at position [`Self::len`].
    fn append(&mut self, layer: usize, row: usize, k: &[f32], v: &[f32]) {
        let (cap, pos, d) = (self.cap, self.len, k.len());
        let kv = &mut self.rows[row][layer];
        for (line, &x) in kv.kt.chunks_exact_mut(cap).zip(k) {
            line[pos] = x;
        }
        kv.v[pos * d..(pos + 1) * d].copy_from_slice(v);
    }

    /// Row `row`'s self-attention keys in layer `layer`, through the
    /// position being decoded.
    fn self_view(&self, layer: usize, row: usize) -> KvView<'_> {
        let kv = &self.rows[row][layer];
        KvView {
            kt: &kv.kt,
            v: &kv.v,
            ld: self.cap,
            t: self.len + 1,
            mask: None,
        }
    }

    /// Layer `layer`'s cross-attention keys, masked by the source's row.
    fn cross_view(&self, layer: usize) -> KvView<'_> {
        let cross = &self.cross[layer];
        KvView {
            kt: cross.kt.data(),
            v: cross.v.data(),
            ld: self.cross_row.len(),
            t: self.cross_row.len(),
            mask: Some(&self.cross_row),
        }
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
    /// output.
    pub fn begin_cache(&self, ctx: &mut Ctx<'_>, enc_out: Var) -> CrossKv {
        let (k, v) = self.cross_attn.project_kv(ctx, enc_out);
        CrossKv {
            kt: k.transpose_last(),
            v,
        }
    }

    /// One incremental decode step of layer `li`. `x` is the `[rows, 1, d]`
    /// embedding of every row's newest token, the rows of `caches` in
    /// order. The step writes each row's self-attention K/V into its cache
    /// at position `len` and attends over that row's own prefix and its
    /// job's own source.
    ///
    /// Every cached key is a real, strictly-earlier token of the row's own
    /// job, so causality holds without a self-attention mask. The
    /// reference path adds `0.0` at exactly these positions, which only
    /// flips `-0.0` scores to `+0.0` — a difference softmax erases — so the
    /// output stays bit-identical to [`Self::forward`].
    fn forward_step(
        &self,
        ctx: &mut Ctx<'_>,
        x: Var,
        li: usize,
        caches: &mut [&mut KvCache],
    ) -> Var {
        let n1 = self.ln1.forward(ctx, x);
        let (k_new, v_new) = self.self_attn.project_kv(ctx, n1);
        crate::obs::DECODE_OBS.cache_appends.inc();
        // Row `r`'s newest K/V: row `r` of `[rows, 1, d]`.
        let d = k_new.shape()[2];
        let mut rows = k_new
            .data()
            .chunks_exact(d)
            .zip(v_new.data().chunks_exact(d));
        for cache in caches.iter_mut() {
            for r in 0..cache.rows() {
                let (k, v) = rows.next().expect("one K/V row per decoder row");
                cache.append(li, r, k, v);
            }
        }
        let views: Vec<KvView<'_>> = caches
            .iter()
            .flat_map(|c| (0..c.rows()).map(move |r| c.self_view(li, r)))
            .collect();
        let a = self.self_attn.attend_cached(ctx, n1, &views);
        let a = ctx.dropout(a, self.dropout);
        let x = ctx.tape.add(x, a);

        let n2 = self.ln2.forward(ctx, x);
        let views: Vec<KvView<'_>> = caches
            .iter()
            .flat_map(|c| (0..c.rows()).map(move |_| c.cross_view(li)))
            .collect();
        let c = self.cross_attn.attend_cached(ctx, n2, &views);
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
    pub fn begin_cache(&self, ctx: &mut Ctx<'_>, enc_out: Var) -> Vec<CrossKv> {
        self.layers
            .iter()
            .map(|layer| layer.begin_cache(ctx, enc_out))
            .collect()
    }

    /// One incremental decode step through the whole stack plus the final
    /// layer norm, over the rows of `caches` in order: each cache gains one
    /// position per row.
    pub fn forward_step(&self, ctx: &mut Ctx<'_>, mut x: Var, caches: &mut [&mut KvCache]) -> Var {
        for cache in caches.iter_mut() {
            assert_eq!(
                cache.cross.len(),
                self.layers.len(),
                "one KV cache per decoder layer"
            );
            cache.reserve_one();
        }
        for (li, layer) in self.layers.iter().enumerate() {
            x = layer.forward_step(ctx, x, li, caches);
        }
        for cache in caches.iter_mut() {
            cache.len += 1;
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
