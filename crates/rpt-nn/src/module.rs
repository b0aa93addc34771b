//! Core module types: the per-step [`Ctx`], [`Linear`], [`Embedding`], and
//! affine [`LayerNorm`].
//!
//! Modules are plain structs holding [`ParamId`]s; the forward pass takes a
//! [`Ctx`] that bundles the current tape, the parameter store, an RNG (for
//! dropout), and the training flag. A fresh tape is used per step; the
//! store memoizes parameter binding so each parameter appears once.

use rpt_rng::RngCore;
use rpt_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};

use crate::quant::QuantSet;

/// Everything a forward pass needs for one step.
pub struct Ctx<'a> {
    /// The tape recording this step's graph.
    pub tape: &'a Tape,
    /// The parameter store (bound lazily onto the tape).
    pub params: &'a mut ParamStore,
    /// RNG for dropout masks.
    pub rng: &'a mut dyn RngCore,
    /// True during training (enables dropout).
    pub training: bool,
    /// Int8 inference weights; when set (forward-only decode contexts),
    /// [`Linear`] layers with a registered weight take the exact integer
    /// kernel path instead of the f32 matmul.
    pub quant: Option<&'a QuantSet>,
}

impl<'a> Ctx<'a> {
    /// Creates a context and clears the store's per-step bindings.
    pub fn new(
        tape: &'a Tape,
        params: &'a mut ParamStore,
        rng: &'a mut dyn RngCore,
        training: bool,
    ) -> Self {
        params.begin_step();
        Self {
            tape,
            params,
            rng,
            training,
            quant: None,
        }
    }

    /// Binds a parameter onto the tape (memoized per step).
    pub fn p(&mut self, id: ParamId) -> Var {
        self.params.bind(self.tape, id)
    }

    /// Dropout that is a no-op at inference time or when `p == 0`.
    pub fn dropout(&mut self, x: Var, p: f32) -> Var {
        if self.training && p > 0.0 {
            self.tape.dropout(x, p, &mut self.rng)
        } else {
            x
        }
    }
}

/// A dense layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    d_in: usize,
    d_out: usize,
}

impl Linear {
    /// Registers a linear layer with Xavier-uniform weights and zero bias.
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_out: usize,
        bias: bool,
        rng: &mut dyn RngCore,
    ) -> Self {
        let w = params.register(format!("{name}.w"), init::xavier_uniform(d_in, d_out, rng));
        let b =
            bias.then(|| params.register(format!("{name}.b"), rpt_tensor::Tensor::zeros(&[d_out])));
        Self { w, b, d_in, d_out }
    }

    /// Input feature dimension.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output feature dimension.
    pub fn d_out(&self) -> usize {
        self.d_out
    }

    /// Applies the layer. Accepts `[n, d_in]` or `[b, t, d_in]`.
    ///
    /// When the context carries a [`QuantSet`] with an entry for this
    /// layer's weight (inference decoding with `--quant`), the product
    /// runs on the exact int8 kernel and re-enters the tape as a
    /// constant; the bias add stays f32. Training tapes never carry a
    /// quant set, so gradients are unaffected.
    pub fn forward(&self, ctx: &mut Ctx<'_>, x: Var) -> Var {
        if let Some(qm) = ctx.quant.and_then(|q| q.linear(self.w)) {
            return self.forward_quant(ctx, x, qm);
        }
        let xv = ctx.tape.value(x);
        let shape = xv.shape();
        let w = ctx.p(self.w);
        let y = match shape.len() {
            2 => {
                debug_assert_eq!(shape[1], self.d_in, "Linear input dim mismatch");
                ctx.tape.matmul(x, w)
            }
            3 => {
                debug_assert_eq!(shape[2], self.d_in, "Linear input dim mismatch");
                let flat = ctx.tape.reshape(x, &[shape[0] * shape[1], self.d_in]);
                let y = ctx.tape.matmul(flat, w);
                ctx.tape.reshape(y, &[shape[0], shape[1], self.d_out])
            }
            d => panic!("Linear expects 2-d or 3-d input, got {d}-d"),
        };
        match self.b {
            Some(b) => {
                let bv = ctx.p(b);
                ctx.tape.add(y, bv)
            }
            None => y,
        }
    }

    /// The int8 path of [`Self::forward`]: quantize activations per row,
    /// integer matmul against the pre-quantized weight, rescale to f32.
    fn forward_quant(&self, ctx: &mut Ctx<'_>, x: Var, qm: &rpt_tensor::QuantMatrix) -> Var {
        assert!(
            ctx.tape.is_forward_only(),
            "quantized Linear requires a forward-only tape"
        );
        debug_assert_eq!(qm.k(), self.d_in, "quant weight inner dim mismatch");
        debug_assert_eq!(qm.n_out(), self.d_out, "quant weight outer dim mismatch");
        let xv = ctx.tape.value(x);
        let shape = xv.shape();
        let nd = shape.len();
        if !(2..=3).contains(&nd) {
            panic!("Linear expects 2-d or 3-d input, got {nd}-d");
        }
        let m = shape[..nd - 1].iter().product();
        let mut out_shape = [self.d_out; 3];
        out_shape[..nd - 1].copy_from_slice(&shape[..nd - 1]);
        let y = qm.matmul_f32(xv.data(), m);
        let y = ctx
            .tape
            .constant(Tensor::from_vec(y, &out_shape[..nd]).expect("quant linear shape"));
        match self.b {
            Some(b) => {
                let bv = ctx.p(b);
                ctx.tape.add(y, bv)
            }
            None => y,
        }
    }
}

/// A learned embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    w: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers an embedding table (std 0.02 normal init, the BERT
    /// convention).
    pub fn new(
        params: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        let w = params.register(format!("{name}.w"), init::embedding_init(vocab, dim, rng));
        Self { w, vocab, dim }
    }

    /// Table height.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The weight parameter (used for tied output projections).
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Looks up `ids`, returning `[ids.len(), dim]`.
    pub fn forward(&self, ctx: &mut Ctx<'_>, ids: &[usize]) -> Var {
        let w = ctx.p(self.w);
        ctx.tape.embedding(w, ids)
    }

    /// Looks up a batch of `b*t` flat ids, returning `[b, t, dim]`.
    pub fn forward_batch(&self, ctx: &mut Ctx<'_>, ids: &[usize], b: usize, t: usize) -> Var {
        debug_assert_eq!(ids.len(), b * t);
        let e = self.forward(ctx, ids);
        ctx.tape.reshape(e, &[b, t, self.dim])
    }
}

/// Layer normalization with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers an affine layer norm over the last `dim` features.
    pub fn new(params: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = params.register(format!("{name}.gamma"), rpt_tensor::Tensor::ones(&[dim]));
        let beta = params.register(format!("{name}.beta"), rpt_tensor::Tensor::zeros(&[dim]));
        Self {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Applies `gamma * norm(x) + beta` over the last dimension.
    pub fn forward(&self, ctx: &mut Ctx<'_>, x: Var) -> Var {
        let n = ctx.tape.layer_norm(x, self.eps);
        let g = ctx.p(self.gamma);
        let b = ctx.p(self.beta);
        let scaled = ctx.tape.mul(n, g);
        ctx.tape.add(scaled, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;
    use rpt_tensor::Tensor;

    #[test]
    fn linear_shapes_2d_and_3d() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let lin = Linear::new(&mut params, "l", 4, 3, true, &mut rng);
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, false);

        let x2 = ctx.tape.leaf(Tensor::ones(&[5, 4]));
        assert_eq!(ctx.tape.value(lin.forward(&mut ctx, x2)).shape(), &[5, 3]);
        let x3 = ctx.tape.leaf(Tensor::ones(&[2, 5, 4]));
        assert_eq!(
            ctx.tape.value(lin.forward(&mut ctx, x3)).shape(),
            &[2, 5, 3]
        );
    }

    #[test]
    fn linear_gradients_reach_weights() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let lin = Linear::new(&mut params, "l", 2, 2, true, &mut rng);
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, true);
        let x = ctx.tape.leaf(Tensor::ones(&[3, 2]));
        let y = lin.forward(&mut ctx, x);
        let loss = ctx.tape.sum_all(y);
        let mut grads = tape.backward(loss);
        let pg = params.collect_grads(&mut grads);
        assert_eq!(pg.len(), 2, "weight and bias must both receive grads");
        assert!(pg.iter().all(|(_, g)| g.max_abs() > 0.0));
    }

    #[test]
    fn embedding_batch_shape() {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let emb = Embedding::new(&mut params, "e", 10, 4, &mut rng);
        let tape = Tape::new();
        let mut rng2 = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng2, false);
        let out = emb.forward_batch(&mut ctx, &[1, 2, 3, 4, 5, 6], 2, 3);
        assert_eq!(ctx.tape.value(out).shape(), &[2, 3, 4]);
    }

    #[test]
    fn layer_norm_normalizes_then_scales() {
        let mut params = ParamStore::new();
        let ln = LayerNorm::new(&mut params, "ln", 4);
        // set gamma to 2, beta to 1
        let g = params.find("ln.gamma").unwrap();
        params.set_value(g, Tensor::full(&[4], 2.0));
        let b = params.find("ln.beta").unwrap();
        params.set_value(b, Tensor::ones(&[4]));

        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng, false);
        let x = ctx
            .tape
            .leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap());
        let y = ctx.tape.value(ln.forward(&mut ctx, x));
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!(
            (mean - 1.0).abs() < 1e-4,
            "beta shifts mean to 1, got {mean}"
        );
        // variance of (y - 1)/2 should be ~1
        let var: f32 = y
            .data()
            .iter()
            .map(|&v| ((v - 1.0) / 2.0).powi(2))
            .sum::<f32>()
            / 4.0;
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn ctx_dropout_inactive_at_inference() {
        let mut params = ParamStore::new();
        let tape = Tape::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx::new(&tape, &mut params, &mut rng, false);
        let x = ctx.tape.leaf(Tensor::ones(&[4]));
        let y = ctx.dropout(x, 0.5);
        assert_eq!(x, y, "inference dropout must be identity");
    }
}
