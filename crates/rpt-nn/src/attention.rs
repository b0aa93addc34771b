//! Multi-head scaled dot-product attention ("Attention Is All You Need",
//! the backbone the paper builds every RPT architecture on).

use rpt_rng::RngCore;
use rpt_tensor::tensor::softmax_row;
use rpt_tensor::{matmul_rows_strided, ParamStore, Tensor, Var};

use crate::module::{Ctx, Linear};

/// Multi-head attention with learned Q/K/V/O projections.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    o: Linear,
    n_heads: usize,
    d_model: usize,
    dropout: f32,
}

impl MultiHeadAttention {
    /// Registers an attention block.
    ///
    /// # Panics
    /// If `d_model` is not divisible by `n_heads`.
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        d_model: usize,
        n_heads: usize,
        dropout: f32,
        rng: &mut dyn RngCore,
    ) -> Self {
        assert_eq!(
            d_model % n_heads,
            0,
            "d_model {d_model} must be divisible by n_heads {n_heads}"
        );
        Self {
            q: Linear::new(params, &format!("{name}.q"), d_model, d_model, true, rng),
            k: Linear::new(params, &format!("{name}.k"), d_model, d_model, true, rng),
            v: Linear::new(params, &format!("{name}.v"), d_model, d_model, true, rng),
            o: Linear::new(params, &format!("{name}.o"), d_model, d_model, true, rng),
            n_heads,
            d_model,
            dropout,
        }
    }

    /// Number of heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Attention from queries `x_q` (`[b, t_q, d]`) over keys/values `x_kv`
    /// (`[b, t_k, d]`). For self-attention pass the same var twice.
    ///
    /// `mask` is an additive mask of shape `[b*h, t_q, t_k]` (or any shape
    /// suffix-broadcastable onto the score tensor); masked entries should
    /// hold [`crate::NEG_INF`].
    pub fn forward(&self, ctx: &mut Ctx<'_>, x_q: Var, x_kv: Var, mask: Option<&Tensor>) -> Var {
        let h = self.n_heads;
        let dh = self.d_model / h;
        let q = self.q.forward(ctx, x_q);
        let k = self.k.forward(ctx, x_kv);
        let v = self.v.forward(ctx, x_kv);

        let qh = ctx.tape.split_heads(q, h); // [b*h, t_q, dh]
        let kh = ctx.tape.split_heads(k, h); // [b*h, t_k, dh]
        let vh = ctx.tape.split_heads(v, h);

        let qh = ctx.tape.scale(qh, 1.0 / (dh as f32).sqrt());
        let mut scores = ctx.tape.matmul_nt(qh, kh); // [b*h, t_q, t_k]
        if let Some(m) = mask {
            let mv = ctx.tape.constant(m.clone());
            scores = ctx.tape.add(scores, mv);
        }
        let attn = ctx.tape.softmax_last(scores);
        let attn = ctx.dropout(attn, self.dropout);
        let out = ctx.tape.matmul(attn, vh); // [b*h, t_q, dh]
        let merged = ctx.tape.merge_heads(out, h); // [b, t_q, d]
        self.o.forward(ctx, merged)
    }

    /// Projects `x_kv` (`[b, t, d]`) through the K and V projections,
    /// returning the raw `[b, t, d]` tensors for a KV cache: head `i` of a
    /// position is its columns `i*dh..(i+1)*dh`. Row for row this is the
    /// same arithmetic [`Self::forward`] performs on its key/value side
    /// (which then only splits the heads apart), so cached and uncached
    /// attention see bit-identical keys and values.
    pub fn project_kv(&self, ctx: &mut Ctx<'_>, x_kv: Var) -> (Tensor, Tensor) {
        let k = self.k.forward(ctx, x_kv);
        let v = self.v.forward(ctx, x_kv);
        (ctx.tape.value(k), ctx.tape.value(v))
    }

    /// Attention from one query per row (`x_q`, `[rows, 1, d]`) over cached
    /// keys and values, `views[r]` for row `r`. Inference-only: the cached
    /// operands never enter the tape, so no gradient reaches the K/V
    /// projections.
    ///
    /// The Q and O projections run fused over all rows. The core (scores,
    /// softmax and the weighted sum) runs per row-head over that row's own
    /// `t` keys: its two products run on the same blocked kernel as
    /// [`Self::forward`]'s batched ones (each output one `+0.0`-started
    /// accumulator adding `a·b` in ascending inner index), and the scores
    /// go through the same `softmax_row`. So the output is bit-identical
    /// to an uncached pass over the same keys in the same order.
    pub(crate) fn attend_cached(&self, ctx: &mut Ctx<'_>, x_q: Var, views: &[KvView<'_>]) -> Var {
        debug_assert!(
            ctx.tape.is_forward_only(),
            "attend_cached drops K/V gradients; use forward() on a recording tape"
        );
        let h = self.n_heads;
        let dh = self.d_model / h;
        let q = self.q.forward(ctx, x_q);
        let qh = ctx.tape.split_heads(q, h); // [rows*h, 1, dh]
        let qh = ctx.tape.scale(qh, 1.0 / (dh as f32).sqrt());
        let qv = ctx.tape.value(qh);
        let mut out = vec![0.0f32; views.len() * h * dh];
        let mut scores = Vec::new();
        let heads = qv.data().chunks_exact(dh).zip(out.chunks_exact_mut(dh));
        for (i, (q, out)) in heads.enumerate() {
            views[i / h].attend(i % h, h, q, &mut scores, out);
        }
        let out = Tensor::from_vec(out, &[views.len() * h, 1, dh]).expect("attention shape");
        let out = ctx.tape.constant(out);
        let merged = ctx.tape.merge_heads(out, h); // [rows, 1, d]
        self.o.forward(ctx, merged)
    }
}

/// One row's cached keys and values, as [`MultiHeadAttention::attend_cached`]
/// reads them, for `d = h·dh`. Keys are pre-transposed, `[d, ld]`: key
/// `j`'s head-`i` part is column `j` of lines `i*dh..(i+1)*dh`. Values are
/// `[t, d]`, head `i` in columns `i*dh..(i+1)*dh`.
pub(crate) struct KvView<'a> {
    /// Pre-transposed keys, `[d, ld]`.
    pub kt: &'a [f32],
    /// Values, `[t, d]` or longer.
    pub v: &'a [f32],
    /// Key positions allocated per line of `kt`.
    pub ld: usize,
    /// Key positions attended.
    pub t: usize,
    /// Additive mask over the `t` keys, if any.
    pub mask: Option<&'a [f32]>,
}

impl KvView<'_> {
    /// `out = softmax(q·K + mask)·V` for head `head` of `h`, with `out`
    /// zeroed: both products on the blocked kernel, reading this row's
    /// keys and values in place.
    fn attend(&self, head: usize, h: usize, q: &[f32], scores: &mut Vec<f32>, out: &mut [f32]) {
        let (dh, t) = (q.len(), self.t);
        scores.clear();
        scores.resize(t, 0.0);
        let kt = &self.kt[head * dh * self.ld..];
        matmul_rows_strided(q, (kt, self.ld), scores, 1, dh, t);
        if let Some(mask) = self.mask {
            for (s, &m) in scores.iter_mut().zip(mask) {
                *s += m;
            }
        }
        softmax_row(scores);
        matmul_rows_strided(scores, (&self.v[head * dh..], h * dh), out, 1, t, dh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NEG_INF;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;
    use rpt_tensor::Tape;

    fn setup(d: usize, h: usize) -> (ParamStore, MultiHeadAttention) {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mha = MultiHeadAttention::new(&mut params, "mha", d, h, 0.0, &mut rng);
        (params, mha)
    }

    #[test]
    fn output_shape_matches_query_side() {
        let (mut params, mha) = setup(8, 2);
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng, false);
        let q = ctx.tape.leaf(Tensor::ones(&[2, 3, 8]));
        let kv = ctx.tape.leaf(Tensor::ones(&[2, 5, 8]));
        let out = mha.forward(&mut ctx, q, kv, None);
        assert_eq!(ctx.tape.value(out).shape(), &[2, 3, 8]);
    }

    #[test]
    fn masked_positions_do_not_influence_output() {
        let (mut params, mha) = setup(4, 1);
        // Two kv variants differing ONLY at position 2, which the mask hides.
        let run = |kv_data: Vec<f32>, params: &mut ParamStore| {
            let tape = Tape::new();
            let mut rng = SmallRng::seed_from_u64(5);
            let mut ctx = Ctx::new(&tape, params, &mut rng, false);
            let q = ctx
                .tape
                .leaf(Tensor::from_vec(vec![0.5; 4], &[1, 1, 4]).unwrap());
            let kv = ctx
                .tape
                .leaf(Tensor::from_vec(kv_data, &[1, 3, 4]).unwrap());
            let mask = Tensor::from_vec(vec![0.0, 0.0, NEG_INF], &[1, 1, 3]).unwrap();
            let out = mha.forward(&mut ctx, q, kv, Some(&mask));
            ctx.tape.value(out).data().to_vec()
        };
        let mut kv1 = vec![0.1f32; 12];
        let mut kv2 = vec![0.1f32; 12];
        kv2[8..12].copy_from_slice(&[9.0, -9.0, 9.0, -9.0]);
        kv1[8..12].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let o1 = run(kv1, &mut params);
        let o2 = run(kv2, &mut params);
        for (a, b) in o1.iter().zip(o2.iter()) {
            assert!((a - b).abs() < 1e-5, "masked key leaked: {a} vs {b}");
        }
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let (mut params, mha) = setup(8, 2);
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng, true);
        let x = ctx.tape.leaf(
            Tensor::from_vec((0..16).map(|i| (i as f32) * 0.1).collect(), &[1, 2, 8]).unwrap(),
        );
        let out = mha.forward(&mut ctx, x, x, None);
        let loss = ctx.tape.sum_all(out);
        let mut grads = tape.backward(loss);
        let pg = params.collect_grads(&mut grads);
        assert_eq!(pg.len(), 8, "q,k,v,o weights + biases");
        // all weight grads nonzero (biases of v/o at least)
        let nonzero = pg.iter().filter(|(_, g)| g.max_abs() > 0.0).count();
        assert!(nonzero >= 6, "only {nonzero} params got nonzero grads");
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_heads_panic() {
        setup(6, 4);
    }
}
