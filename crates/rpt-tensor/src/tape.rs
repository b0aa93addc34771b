//! Reverse-mode automatic differentiation over a [`Tape`] (Wengert list).
//!
//! Every differentiable operation appends a node holding the forward value
//! and a backward closure that maps the upstream gradient to gradients for
//! each parent. [`Tape::backward`] sweeps the list in reverse insertion
//! order (which is a topological order by construction) and accumulates.

use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::LazyLock;

use rpt_rng::Rng;

use crate::arena::Arena;
use crate::simd;
use crate::tensor::{softmax_row, Tensor};

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) id: usize,
}

/// Raw pointer to a backward closure living in the tape's [`Arena`]. The
/// arena owns the closure (keeps it alive, runs its destructor on tape
/// drop); nodes only borrow it during [`Tape::backward`]. This replaces
/// the former per-node `Box<dyn Fn>`, eliminating one heap allocation per
/// recorded op.
type GradFnPtr = NonNull<dyn Fn(&Tensor) -> Vec<Tensor>>;

/// Every op in the set has at most two parents, so parent ids are stored
/// inline instead of in a per-node `Vec` (the second former per-op heap
/// allocation).
const MAX_PARENTS: usize = 2;

struct Node {
    value: Tensor,
    parents: [u32; MAX_PARENTS],
    n_parents: u8,
    /// None for leaves/constants: nothing to propagate further.
    grad_fn: Option<GradFnPtr>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`]. Only
/// leaves ([`Tape::leaf`], [`Tape::constant`]) keep theirs: an interior
/// node's gradient is released as soon as it has been propagated.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss w.r.t. the leaf `v`, if `v` participated
    /// in the loss. Leaves only: `None` for every interior node.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.id).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `v`, leaving `None` behind.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.grads.get_mut(v.id).and_then(|g| g.take())
    }
}

/// A computation graph recorder. See the crate-level docs for the model.
///
/// Backward closures are bump-allocated in `arena` rather than boxed.
/// Field order matters for `Drop`: `nodes` (holding raw pointers into the
/// arena, but owning nothing there) is dropped first, then the arena runs
/// the closures' destructors and frees its chunks.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    arena: Arena,
    forward_only: bool,
}

impl Tape {
    /// An empty tape that records the backward graph (training mode).
    pub fn new() -> Self {
        Self::default()
    }

    /// A forward-only tape for inference. Operations compute exactly the
    /// same forward values as on a recording tape, but no parent edges or
    /// backward closures are kept, so the backward graph (and every tensor
    /// it would capture) is dropped as it is built. [`Tape::backward`]
    /// panics on such a tape.
    pub fn inference() -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
            arena: Arena::new(),
            forward_only: true,
        }
    }

    /// True if this tape skips gradient recording (built by
    /// [`Tape::inference`]).
    pub fn is_forward_only(&self) -> bool {
        self.forward_only
    }

    /// Number of recorded nodes (useful for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, value: Tensor, parents: &[usize], grad_fn: Option<GradFnPtr>) -> Var {
        // Tape volume metrics (DESIGN.md §Observability). One relaxed load
        // when metrics are off; the handles resolve once per process.
        struct TapeObs {
            nodes: rpt_obs::Counter,
            bytes: rpt_obs::Counter,
        }
        static OBS: LazyLock<TapeObs> = LazyLock::new(|| TapeObs {
            nodes: rpt_obs::counter("tensor.tape_nodes"),
            bytes: rpt_obs::counter("tensor.tape_bytes"),
        });
        if rpt_obs::metrics_enabled() {
            OBS.nodes.inc();
            OBS.bytes.add(4 * value.numel() as u64);
        }
        assert!(
            parents.len() <= MAX_PARENTS,
            "tape ops have at most {MAX_PARENTS} parents"
        );
        let mut ps = [0u32; MAX_PARENTS];
        for (slot, &p) in ps.iter_mut().zip(parents) {
            *slot = u32::try_from(p).expect("tape node id exceeds u32::MAX");
        }
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            parents: ps,
            n_parents: parents.len() as u8,
            grad_fn,
        });
        Var {
            id: nodes.len() - 1,
        }
    }

    /// Records a differentiable op's result. On a recording tape the parent
    /// ids go inline into the node and the backward closure is moved into
    /// the tape's bump arena (no per-op heap allocation); on a forward-only
    /// tape the closure is dropped on the spot, releasing the tensors it
    /// captured. Keeping the closure generic (rather than taking a
    /// pre-boxed `GradFn`) is what lets both paths avoid boxing.
    fn push_op<F>(&self, value: Tensor, parents: &[usize], grad_fn: F) -> Var
    where
        F: Fn(&Tensor) -> Vec<Tensor> + 'static,
    {
        if self.forward_only {
            self.push(value, &[], None)
        } else {
            static ARENA_BYTES: LazyLock<rpt_obs::Counter> =
                LazyLock::new(|| rpt_obs::counter("tensor.tape_arena_bytes"));
            if rpt_obs::metrics_enabled() {
                ARENA_BYTES.add(std::mem::size_of::<F>() as u64);
            }
            let thin: *mut F = self.arena.alloc(grad_fn);
            let wide: *mut dyn Fn(&Tensor) -> Vec<Tensor> = thin;
            // SAFETY: the arena never hands out null pointers.
            self.push(
                value,
                parents,
                Some(unsafe { NonNull::new_unchecked(wide) }),
            )
        }
    }

    /// Inserts a leaf (input or parameter). Gradients are accumulated for it.
    pub fn leaf(&self, t: Tensor) -> Var {
        self.push(t, &[], None)
    }

    /// Inserts a constant. Identical to [`Tape::leaf`]; named for intent at
    /// call sites (e.g. attention masks) where the gradient is discarded.
    pub fn constant(&self, t: Tensor) -> Var {
        self.leaf(t)
    }

    /// The forward value of a node (cheap clone of an `Arc`'d buffer).
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic with suffix broadcasting
    // ------------------------------------------------------------------

    /// `a + b`. `b` may be the same shape as `a`, a scalar, or a suffix of
    /// `a`'s shape (e.g. a `[d]` bias added to `[b,t,d]` activations).
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x + y, |_, _| (1.0, 1.0), true)
    }

    /// `a - b` with the same broadcasting rules as [`Tape::add`].
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x - y, |_, _| (1.0, -1.0), true)
    }

    /// Elementwise `a * b` with the same broadcasting rules as [`Tape::add`].
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x * y, |x, y| (y, x), false)
    }

    /// Elementwise `a / b` with the same broadcasting rules as [`Tape::add`].
    pub fn div(&self, a: Var, b: Var) -> Var {
        self.broadcast_binary(a, b, |x, y| x / y, |x, y| (1.0 / y, -x / (y * y)), false)
    }

    /// Shared implementation of broadcast elementwise binaries.
    ///
    /// `dfn(x, y) -> (d out/d x, d out/d y)` evaluated pointwise;
    /// `lhs_grad_is_g` declares `d out/d x == 1` everywhere (add, sub), so
    /// the lhs gradient is the upstream gradient itself (`g · 1.0 == g`
    /// bit for bit) and is passed on without a copy.
    fn broadcast_binary(
        &self,
        a: Var,
        b: Var,
        f: impl Fn(f32, f32) -> f32,
        dfn: impl Fn(f32, f32) -> (f32, f32) + 'static,
        lhs_grad_is_g: bool,
    ) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert!(
            broadcast_compatible(av.shape(), bv.shape()),
            "broadcast_binary: rhs {:?} must equal, be scalar, or be a suffix of lhs {:?}",
            bv.shape(),
            av.shape()
        );
        let out = broadcast_forward(av.data(), bv.data(), f);
        let out_t = Tensor::from_vec(out, av.shape()).expect("broadcast_binary shape");
        let grad_fn = move |g: &Tensor| {
            let (ga, gb) = broadcast_backward(g.data(), av.data(), bv.data(), &dfn, lhs_grad_is_g);
            let ga = match ga {
                Some(ga) => Tensor::from_vec(ga, av.shape()).expect("ga shape"),
                None => g.clone(),
            };
            vec![ga, Tensor::from_vec(gb, bv.shape()).expect("gb shape")]
        };
        self.push_op(out_t, &[a.id, b.id], grad_fn)
    }

    /// `-a`.
    pub fn neg(&self, a: Var) -> Var {
        self.unary(a, |x| -x, |_, _| -1.0)
    }

    /// `a * c` for a host-side constant `c`.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        self.unary(a, move |x| x * c, move |_, _| c)
    }

    /// `a + c` for a host-side constant `c`.
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        self.unary(a, move |x| x + c, |_, _| 1.0)
    }

    fn unary(
        &self,
        a: Var,
        f: impl Fn(f32) -> f32,
        dfn: impl Fn(f32, f32) -> f32 + 'static,
    ) -> Var {
        let av = self.value(a);
        let out = av.map(f);
        self.push_unary(a, av, out, dfn)
    }

    /// Records `out`, an elementwise function of `a`'s value `av`, whose
    /// derivative at input `x` and output `y` is `dfn(x, y)`.
    fn push_unary(
        &self,
        a: Var,
        av: Tensor,
        out: Tensor,
        dfn: impl Fn(f32, f32) -> f32 + 'static,
    ) -> Var {
        let out_c = out.clone();
        let grad_fn = move |g: &Tensor| {
            let data: Vec<f32> = g
                .data()
                .iter()
                .zip(av.data().iter().zip(out_c.data().iter()))
                .map(|(&gv, (&x, &y))| gv * dfn(x, y))
                .collect();
            vec![Tensor::from_vec(data, av.shape()).expect("unary grad shape")]
        };
        self.push_op(out, &[a.id], grad_fn)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// GELU (tanh approximation, as used by BERT/BART), in one fused
    /// pass ([`gelu_forward`]). A recording tape keeps the forward's
    /// `tanh(inner)` per element for the backward, which would otherwise
    /// evaluate `tanh` again; a forward-only tape keeps nothing.
    pub fn gelu(&self, a: Var) -> Var {
        let av = self.value(a);
        if self.forward_only {
            let mut out = vec![0.0f32; av.numel()];
            gelu_forward(av.data(), &mut out, None, simd::tanh);
            let out_t = Tensor::from_vec(out, av.shape()).expect("gelu shape");
            return self.push(out_t, &[], None);
        }
        let mut tanh = vec![0.0f32; av.numel()];
        let mut out = vec![0.0f32; av.numel()];
        gelu_forward(av.data(), &mut out, Some(&mut tanh), simd::tanh);
        let out_t = Tensor::from_vec(out, av.shape()).expect("gelu shape");
        let grad_fn = move |g: &Tensor| {
            let ga: Vec<f32> = g
                .data()
                .iter()
                .zip(av.data().iter().zip(&tanh))
                .map(|(&gv, (&x, &t))| gv * gelu_grad_from_tanh(x, t))
                .collect();
            vec![Tensor::from_vec(ga, av.shape()).expect("gelu grad shape")]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    /// ReLU.
    pub fn relu(&self, a: Var) -> Var {
        self.unary(a, |x| x.max(0.0), |x, _| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// tanh, through the dispatched [`simd::tanh`].
    pub fn tanh(&self, a: Var) -> Var {
        let av = self.value(a);
        let mut out = av.data().to_vec();
        simd::tanh(&mut out);
        let out = Tensor::from_vec(out, av.shape()).expect("tanh shape");
        self.push_unary(a, av, out, |_, y| 1.0 - y * y)
    }

    /// Logistic sigmoid, `1 / (1 + exp(-x))` through the dispatched
    /// [`simd::exp`].
    pub fn sigmoid(&self, a: Var) -> Var {
        let av = self.value(a);
        let mut out: Vec<f32> = av.data().iter().map(|&x| -x).collect();
        simd::exp(&mut out);
        for y in out.iter_mut() {
            *y = 1.0 / (1.0 + *y);
        }
        let out = Tensor::from_vec(out, av.shape()).expect("sigmoid shape");
        self.push_unary(a, av, out, |_, y| y * (1.0 - y))
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reinterprets the buffer with a new shape (element count preserved).
    pub fn reshape(&self, a: Var, shape: &[usize]) -> Var {
        let av = self.value(a);
        let old_shape = av.dims();
        let out = av.reshape(shape);
        let grad_fn = move |g: &Tensor| vec![g.reshape(&old_shape)];
        self.push_op(out, &[a.id], grad_fn)
    }

    /// Transposes the last two dims of a 2-d or 3-d tensor.
    pub fn transpose_last(&self, a: Var) -> Var {
        let out = self.value(a).transpose_last();
        let grad_fn = move |g: &Tensor| vec![g.transpose_last()];
        self.push_op(out, &[a.id], grad_fn)
    }

    /// Selects one time step: `[b,t,d] -> [b,d]`.
    pub fn select_time(&self, a: Var, t_index: usize) -> Var {
        let av = self.value(a);
        assert_eq!(
            av.ndim(),
            3,
            "select_time expects [b,t,d], got {:?}",
            av.shape()
        );
        let (b, t, d) = (av.shape()[0], av.shape()[1], av.shape()[2]);
        assert!(t_index < t, "select_time index {t_index} out of {t}");
        let mut out = Vec::with_capacity(b * d);
        for bi in 0..b {
            let off = bi * t * d + t_index * d;
            out.extend_from_slice(&av.data()[off..off + d]);
        }
        let out_t = Tensor::from_vec(out, &[b, d]).expect("select_time shape");
        let grad_fn = move |g: &Tensor| {
            let mut ga = vec![0.0f32; b * t * d];
            for bi in 0..b {
                let off = bi * t * d + t_index * d;
                ga[off..off + d].copy_from_slice(&g.data()[bi * d..(bi + 1) * d]);
            }
            vec![Tensor::from_vec(ga, &[b, t, d]).expect("select_time grad shape")]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    /// Weighted mean over the time dimension: `[b,t,d] x [b,t] -> [b,d]`.
    /// The weights are treated as constants (no gradient flows to them);
    /// callers normalize them (e.g. masked mean pooling).
    pub fn weighted_mean_time(&self, a: Var, weights: &Tensor) -> Var {
        let av = self.value(a);
        assert_eq!(av.ndim(), 3, "weighted_mean_time expects [b,t,d]");
        let (b, t, d) = (av.shape()[0], av.shape()[1], av.shape()[2]);
        assert_eq!(weights.shape(), &[b, t], "weights must be [b,t]");
        let mut out = vec![0.0f32; b * d];
        for bi in 0..b {
            for ti in 0..t {
                let w = weights.data()[bi * t + ti];
                if w == 0.0 {
                    continue;
                }
                let src = &av.data()[bi * t * d + ti * d..bi * t * d + (ti + 1) * d];
                let dst = &mut out[bi * d..(bi + 1) * d];
                for (o, &s) in dst.iter_mut().zip(src.iter()) {
                    *o += w * s;
                }
            }
        }
        let out_t = Tensor::from_vec(out, &[b, d]).expect("wmt shape");
        let w_c = weights.clone();
        let grad_fn = move |g: &Tensor| {
            let mut ga = vec![0.0f32; b * t * d];
            for bi in 0..b {
                for ti in 0..t {
                    let w = w_c.data()[bi * t + ti];
                    if w == 0.0 {
                        continue;
                    }
                    let dst = &mut ga[bi * t * d + ti * d..bi * t * d + (ti + 1) * d];
                    let src = &g.data()[bi * d..(bi + 1) * d];
                    for (o, &s) in dst.iter_mut().zip(src.iter()) {
                        *o += w * s;
                    }
                }
            }
            vec![Tensor::from_vec(ga, &[b, t, d]).expect("wmt grad shape")]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    /// Concatenates two tensors along the last dimension. Leading dims must
    /// match exactly.
    pub fn concat_last(&self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.ndim(), bv.ndim(), "concat_last rank mismatch");
        let nd = av.ndim();
        assert_eq!(
            &av.shape()[..nd - 1],
            &bv.shape()[..nd - 1],
            "concat_last leading dims differ: {:?} vs {:?}",
            av.shape(),
            bv.shape()
        );
        let (da, db) = (av.shape()[nd - 1], bv.shape()[nd - 1]);
        let rows = av.numel() / da;
        let mut out = Vec::with_capacity(rows * (da + db));
        for r in 0..rows {
            out.extend_from_slice(&av.data()[r * da..(r + 1) * da]);
            out.extend_from_slice(&bv.data()[r * db..(r + 1) * db]);
        }
        let mut shape = av.dims();
        shape[nd - 1] = da + db;
        let out_t = Tensor::from_vec(out, &shape).expect("concat shape");
        let a_shape = av.dims();
        let b_shape = bv.dims();
        let grad_fn = move |g: &Tensor| {
            let mut ga = Vec::with_capacity(rows * da);
            let mut gb = Vec::with_capacity(rows * db);
            for r in 0..rows {
                let row = &g.data()[r * (da + db)..(r + 1) * (da + db)];
                ga.extend_from_slice(&row[..da]);
                gb.extend_from_slice(&row[da..]);
            }
            vec![
                Tensor::from_vec(ga, &a_shape).expect("concat ga"),
                Tensor::from_vec(gb, &b_shape).expect("concat gb"),
            ]
        };
        self.push_op(out_t, &[a.id, b.id], grad_fn)
    }

    /// Splits the model dimension into attention heads:
    /// `[b, t, h*dh] -> [b*h, t, dh]` (a pure index permutation).
    pub fn split_heads(&self, a: Var, h: usize) -> Var {
        let av = self.value(a);
        assert_eq!(
            av.ndim(),
            3,
            "split_heads expects [b,t,d], got {:?}",
            av.shape()
        );
        let (b, t, d) = (av.shape()[0], av.shape()[1], av.shape()[2]);
        assert_eq!(d % h, 0, "model dim {d} not divisible by heads {h}");
        let dh = d / h;
        let out = split_heads_data(av.data(), b, t, h, dh);
        let out_t = Tensor::from_vec(out, &[b * h, t, dh]).expect("split_heads shape");
        let grad_fn = move |g: &Tensor| {
            vec![
                Tensor::from_vec(merge_heads_data(g.data(), b, t, h, dh), &[b, t, h * dh])
                    .expect("split_heads grad shape"),
            ]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    /// Inverse of [`Tape::split_heads`]: `[b*h, t, dh] -> [b, t, h*dh]`.
    pub fn merge_heads(&self, a: Var, h: usize) -> Var {
        let av = self.value(a);
        assert_eq!(
            av.ndim(),
            3,
            "merge_heads expects [b*h,t,dh], got {:?}",
            av.shape()
        );
        let (bh, t, dh) = (av.shape()[0], av.shape()[1], av.shape()[2]);
        assert_eq!(bh % h, 0, "batch*heads {bh} not divisible by heads {h}");
        let b = bh / h;
        let out = merge_heads_data(av.data(), b, t, h, dh);
        let out_t = Tensor::from_vec(out, &[b, t, h * dh]).expect("merge_heads shape");
        let grad_fn = move |g: &Tensor| {
            vec![
                Tensor::from_vec(split_heads_data(g.data(), b, t, h, dh), &[b * h, t, dh])
                    .expect("merge_heads grad shape"),
            ]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product. Supports `[m,k] x [k,n]` and batched `[b,m,k] x [b,k,n]`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        let out = match (av.ndim(), bv.ndim()) {
            (2, 2) => av.matmul2d(&bv),
            (3, 3) => av.bmm(&bv),
            (da, db) => panic!("matmul supports 2dx2d or 3dx3d, got {da}-d x {db}-d"),
        };
        // dA = G·Bᵀ, dB = Aᵀ·G (per batch for the 3-d case), with the
        // transposed operands read in place.
        let grad_fn = move |g: &Tensor| vec![g.matmul_nt(&bv), av.matmul_tn(g)];
        self.push_op(out, &[a.id, b.id], grad_fn)
    }

    /// `a · bᵀ` over the last two dims: `[m,k] x [n,k] -> [m,n]`, or batched
    /// `[b,m,k] x [b,n,k] -> [b,m,n]` (attention scores `Q·Kᵀ`, the tied
    /// output projection `H·Eᵀ`). Bit-identical to
    /// `matmul(a, transpose_last(b))`, forward and backward, without
    /// materializing `bᵀ` or its gradient.
    pub fn matmul_nt(&self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        let out = av.matmul_nt(&bv);
        // dA = G·B, dB = Gᵀ·A.
        let grad_fn = move |g: &Tensor| {
            let ga = if g.ndim() == 2 {
                g.matmul2d(&bv)
            } else {
                g.bmm(&bv)
            };
            vec![ga, g.matmul_tn(&av)]
        };
        self.push_op(out, &[a.id, b.id], grad_fn)
    }

    // ------------------------------------------------------------------
    // Normalization and softmax
    // ------------------------------------------------------------------

    /// Softmax over the last dimension.
    pub fn softmax_last(&self, a: Var) -> Var {
        let out = self.value(a).softmax_last();
        let out_c = out.clone();
        let last = *out.shape().last().expect("softmax 0-d");
        let grad_fn = move |g: &Tensor| {
            let mut ga = vec![0.0f32; g.numel()];
            for (row_i, (g_row, s_row)) in g
                .data()
                .chunks(last)
                .zip(out_c.data().chunks(last))
                .enumerate()
            {
                let dot: f32 = g_row
                    .iter()
                    .zip(s_row.iter())
                    .map(|(&gv, &sv)| gv * sv)
                    .sum();
                let dst = &mut ga[row_i * last..(row_i + 1) * last];
                for ((o, &gv), &sv) in dst.iter_mut().zip(g_row.iter()).zip(s_row.iter()) {
                    *o = sv * (gv - dot);
                }
            }
            vec![Tensor::from_vec(ga, out_c.shape()).expect("softmax grad shape")]
        };
        self.push_op(out, &[a.id], grad_fn)
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax_last(&self, a: Var) -> Var {
        let av = self.value(a);
        let last = *av.shape().last().expect("log_softmax 0-d");
        let mut out = av.data().to_vec();
        for row in out.chunks_mut(last) {
            // Every stage is bit-identical to its scalar twin; the exp-sum
            // adds in ascending order on both paths.
            let max = simd::row_max(row);
            let lse = max + simd::exp_sum(row, max).ln();
            simd::shift_in_place(row, lse);
        }
        let out_t = Tensor::from_vec(out, av.shape()).expect("log_softmax shape");
        let out_c = out_t.clone();
        let grad_fn = move |g: &Tensor| {
            let mut ga = vec![0.0f32; g.numel()];
            for (row_i, (g_row, ls_row)) in g
                .data()
                .chunks(last)
                .zip(out_c.data().chunks(last))
                .enumerate()
            {
                let gsum: f32 = g_row.iter().sum();
                let dst = &mut ga[row_i * last..(row_i + 1) * last];
                dst.copy_from_slice(ls_row);
                simd::exp(dst);
                for (o, &gv) in dst.iter_mut().zip(g_row.iter()) {
                    *o = gv - *o * gsum;
                }
            }
            vec![Tensor::from_vec(ga, out_c.shape()).expect("log_softmax grad shape")]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    /// Layer normalization over the last dimension (no affine transform;
    /// compose with [`Tape::mul`]/[`Tape::add`] for gain and bias).
    pub fn layer_norm(&self, a: Var, eps: f32) -> Var {
        let av = self.value(a);
        let last = *av.shape().last().expect("layer_norm 0-d");
        let rows = av.numel() / last;
        let mut out = vec![0.0f32; av.numel()];
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let src = &av.data()[r * last..(r + 1) * last];
            let mean = src.iter().sum::<f32>() / last as f32;
            let var = src.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / last as f32;
            let inv = 1.0 / (var + eps).sqrt();
            inv_stds.push(inv);
            // Mean/variance sums stay scalar (order-sensitive); the
            // normalization itself is elementwise and vectorizes
            // bit-identically.
            simd::affine_row(&mut out[r * last..(r + 1) * last], src, mean, inv);
        }
        let out_t = Tensor::from_vec(out, av.shape()).expect("layer_norm shape");
        let out_c = out_t.clone();
        let grad_fn = move |g: &Tensor| {
            // dX = inv_std * (dY - mean(dY) - Y_hat * mean(dY * Y_hat))
            let mut ga = vec![0.0f32; g.numel()];
            for r in 0..rows {
                let g_row = &g.data()[r * last..(r + 1) * last];
                let y_row = &out_c.data()[r * last..(r + 1) * last];
                let gm = g_row.iter().sum::<f32>() / last as f32;
                let gym = g_row
                    .iter()
                    .zip(y_row.iter())
                    .map(|(&gv, &yv)| gv * yv)
                    .sum::<f32>()
                    / last as f32;
                let inv = inv_stds[r];
                let dst = &mut ga[r * last..(r + 1) * last];
                for ((o, &gv), &yv) in dst.iter_mut().zip(g_row.iter()).zip(y_row.iter()) {
                    *o = inv * (gv - gm - yv * gym);
                }
            }
            vec![Tensor::from_vec(ga, out_c.shape()).expect("layer_norm grad shape")]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    // ------------------------------------------------------------------
    // Embedding / gather
    // ------------------------------------------------------------------

    /// Gathers rows `ids` from the `[v,d]` embedding matrix, yielding
    /// `[ids.len(), d]`. The backward pass scatter-adds into the matrix.
    pub fn embedding(&self, weight: Var, ids: &[usize]) -> Var {
        let wv = self.value(weight);
        assert_eq!(wv.ndim(), 2, "embedding weight must be [vocab, dim]");
        let (v, d) = (wv.shape()[0], wv.shape()[1]);
        let out = wv.gather_rows(ids);
        let ids_c: Vec<usize> = ids.to_vec();
        let grad_fn = move |g: &Tensor| {
            let mut gw = vec![0.0f32; v * d];
            for (row, &id) in ids_c.iter().enumerate() {
                let src = &g.data()[row * d..(row + 1) * d];
                let dst = &mut gw[id * d..(id + 1) * d];
                for (o, &s) in dst.iter_mut().zip(src.iter()) {
                    *o += s;
                }
            }
            vec![Tensor::from_vec(gw, &[v, d]).expect("embedding grad shape")]
        };
        self.push_op(out, &[weight.id], grad_fn)
    }

    // ------------------------------------------------------------------
    // Regularization
    // ------------------------------------------------------------------

    /// Inverted dropout: zeroes each element with probability `p` and scales
    /// survivors by `1/(1-p)`. Pass `p = 0.0` (or use at inference) to no-op.
    pub fn dropout(&self, a: Var, p: f32, rng: &mut (impl Rng + ?Sized)) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        if p == 0.0 {
            return a;
        }
        let av = self.value(a);
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mut mask = vec![0.0f32; av.numel()];
        rng.fill_unit_f32(&mut mask);
        for m in &mut mask {
            *m = if *m < keep { scale } else { 0.0 };
        }
        let out: Vec<f32> = av
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&x, &m)| x * m)
            .collect();
        let out_t = Tensor::from_vec(out, av.shape()).expect("dropout shape");
        let shape = av.dims();
        let grad_fn = move |g: &Tensor| {
            let ga: Vec<f32> = g
                .data()
                .iter()
                .zip(mask.iter())
                .map(|(&gv, &m)| gv * m)
                .collect();
            vec![Tensor::from_vec(ga, &shape).expect("dropout grad shape")]
        };
        self.push_op(out_t, &[a.id], grad_fn)
    }

    // ------------------------------------------------------------------
    // Reductions & losses
    // ------------------------------------------------------------------

    /// Sum of all elements, as a `[1]` scalar.
    pub fn sum_all(&self, a: Var) -> Var {
        let av = self.value(a);
        let out = Tensor::scalar(av.sum());
        let shape = av.dims();
        let grad_fn = move |g: &Tensor| {
            let gv = g.data()[0];
            vec![Tensor::full(&shape, gv)]
        };
        self.push_op(out, &[a.id], grad_fn)
    }

    /// Mean of all elements, as a `[1]` scalar.
    pub fn mean_all(&self, a: Var) -> Var {
        let n = self.value(a).numel().max(1);
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n as f32)
    }

    /// Fused softmax cross-entropy with integer targets.
    ///
    /// `logits` is `[n, v]`; `targets` has length `n`. Positions whose target
    /// equals `ignore_index` (if given) contribute neither loss nor gradient.
    /// Optional label smoothing distributes `smoothing` mass uniformly.
    /// Returns the mean loss over non-ignored positions as a `[1]` scalar.
    pub fn cross_entropy(
        &self,
        logits: Var,
        targets: &[usize],
        ignore_index: Option<usize>,
        smoothing: f32,
    ) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.ndim(), 2, "cross_entropy logits must be [n, vocab]");
        let (n, v) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(targets.len(), n, "cross_entropy targets length mismatch");
        assert!(
            (0.0..1.0).contains(&smoothing),
            "smoothing must be in [0,1)"
        );

        // Forward: mean over active rows of -log p[target] (with smoothing).
        let mut probs = lv.data().to_vec();
        for row in probs.chunks_mut(v) {
            softmax_row(row);
        }
        let active: Vec<bool> = targets.iter().map(|&t| ignore_index != Some(t)).collect();
        let count = active.iter().filter(|&&a| a).count().max(1);
        let mut loss = 0.0f32;
        for (row_i, &t) in targets.iter().enumerate() {
            if !active[row_i] {
                continue;
            }
            assert!(t < v, "target {t} out of vocab {v}");
            let row = &probs[row_i * v..(row_i + 1) * v];
            let logp_t = row[t].max(1e-12).ln();
            if smoothing == 0.0 {
                loss -= logp_t;
            } else {
                let uniform: f32 = row.iter().map(|&p| p.max(1e-12).ln()).sum::<f32>() / v as f32;
                loss -= (1.0 - smoothing) * logp_t + smoothing * uniform;
            }
        }
        loss /= count as f32;
        let out = Tensor::scalar(loss);

        let targets_c = targets.to_vec();
        let probs_t = Tensor::from_vec(probs, &[n, v]).expect("probs shape");
        let grad_fn = move |g: &Tensor| {
            let gscale = g.data()[0] / count as f32;
            let mut gl = vec![0.0f32; n * v];
            for (row_i, &t) in targets_c.iter().enumerate() {
                if !active[row_i] {
                    continue;
                }
                let p_row = &probs_t.data()[row_i * v..(row_i + 1) * v];
                let dst = &mut gl[row_i * v..(row_i + 1) * v];
                for (j, (o, &p)) in dst.iter_mut().zip(p_row.iter()).enumerate() {
                    let target_mass = if smoothing == 0.0 {
                        if j == t {
                            1.0
                        } else {
                            0.0
                        }
                    } else {
                        (if j == t { 1.0 - smoothing } else { 0.0 }) + smoothing / v as f32
                    };
                    *o = gscale * (p - target_mass);
                }
            }
            vec![Tensor::from_vec(gl, &[n, v]).expect("ce grad shape")]
        };
        self.push_op(out, &[logits.id], grad_fn)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Reverse-mode sweep from `loss` (which must be a `[1]` scalar).
    ///
    /// # Panics
    /// On a forward-only tape (see [`Tape::inference`]): no backward graph
    /// was recorded, so gradients cannot be computed.
    pub fn backward(&self, loss: Var) -> Gradients {
        struct BackwardObs {
            backwards: rpt_obs::Counter,
            backward_ms: rpt_obs::Histogram,
        }
        static OBS: LazyLock<BackwardObs> = LazyLock::new(|| BackwardObs {
            backwards: rpt_obs::counter("tensor.backwards"),
            backward_ms: rpt_obs::histogram("tensor.backward_ms"),
        });
        let _t = rpt_obs::span("tensor.backward", &OBS.backward_ms);
        OBS.backwards.inc();
        assert!(
            !self.forward_only,
            "backward called on a forward-only inference tape; build the \
             graph on Tape::new() to compute gradients"
        );
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.id].value.numel(),
            1,
            "backward seed must be scalar, got shape {:?}",
            nodes[loss.id].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.id] = Some(Tensor::scalar(1.0));
        for id in (0..=loss.id).rev() {
            let node = &nodes[id];
            // A leaf keeps its gradient for the caller.
            let Some(grad_fn) = node.grad_fn else {
                continue;
            };
            let Some(g) = grads[id].take() else { continue };
            // SAFETY: the closure lives in `self.arena`, which outlives
            // this borrow of `self` (see the `Tape` drop-order note).
            let grad_fn = unsafe { grad_fn.as_ref() };
            let parent_grads = grad_fn(&g);
            // Released before accumulating, so a parent gradient that
            // shares its buffer (add's lhs, reshape) is uniquely owned and
            // accumulates in place.
            drop(g);
            let n = node.n_parents as usize;
            debug_assert_eq!(parent_grads.len(), n);
            for (pid, pg) in node.parents[..n].iter().zip(parent_grads) {
                match &mut grads[*pid as usize] {
                    Some(acc) => acc.add_assign(&pg),
                    slot @ None => *slot = Some(pg),
                }
            }
        }
        Gradients { grads }
    }
}

/// rhs must be equal to lhs, a scalar, or a suffix of lhs whose element
/// count divides lhs's element count cyclically (which a shape suffix does).
fn broadcast_compatible(lhs: &[usize], rhs: &[usize]) -> bool {
    if lhs == rhs {
        return true;
    }
    let rn: usize = rhs.iter().product();
    if rn == 1 {
        return true;
    }
    rhs.len() <= lhs.len() && lhs[lhs.len() - rhs.len()..] == *rhs
}

/// `[b, t, h*dh] -> [b*h, t, dh]` permutation on raw buffers.
fn split_heads_data(src: &[f32], b: usize, t: usize, h: usize, dh: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; b * h * t * dh];
    for bi in 0..b {
        for ti in 0..t {
            for hi in 0..h {
                let s = bi * t * h * dh + ti * h * dh + hi * dh;
                let d = (bi * h + hi) * t * dh + ti * dh;
                out[d..d + dh].copy_from_slice(&src[s..s + dh]);
            }
        }
    }
    out
}

/// `[b*h, t, dh] -> [b, t, h*dh]` permutation on raw buffers.
fn merge_heads_data(src: &[f32], b: usize, t: usize, h: usize, dh: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; b * h * t * dh];
    for bi in 0..b {
        for hi in 0..h {
            for ti in 0..t {
                let s = (bi * h + hi) * t * dh + ti * dh;
                let d = bi * t * h * dh + ti * h * dh + hi * dh;
                out[d..d + dh].copy_from_slice(&src[s..s + dh]);
            }
        }
    }
    out
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// Elements per block of [`gelu_forward`]: a block's input, `tanh` and
/// output stay in L1 across the pass's three stages.
const GELU_BLOCK: usize = 256;

/// GELU's forward, `out = 0.5 x (1 + tanh(inner(x)))`, in one pass over
/// blocks of [`GELU_BLOCK`] elements: `inner(x)` is written where the
/// block's `tanh` goes, `tanh` runs over it in place, and the output is
/// formed from it. The `tanh` values land in `keep_tanh` when given (the
/// backward's cache) and in `out` itself otherwise, so the pass needs no
/// other buffer. `tanh` is the in-place kernel: [`simd::tanh`] on the
/// tape; benchmarks pass its forced twins.
pub fn gelu_forward(
    x: &[f32],
    out: &mut [f32],
    keep_tanh: Option<&mut [f32]>,
    tanh: impl Fn(&mut [f32]),
) {
    assert_eq!(x.len(), out.len(), "gelu_forward output length");
    let inner_then_tanh = |xb: &[f32], tb: &mut [f32]| {
        for (t, &x) in tb.iter_mut().zip(xb) {
            *t = gelu_inner(x);
        }
        tanh(tb);
    };
    let blocks = x.chunks(GELU_BLOCK).zip(out.chunks_mut(GELU_BLOCK));
    match keep_tanh {
        None => {
            for (xb, ob) in blocks {
                inner_then_tanh(xb, ob);
                for (o, &x) in ob.iter_mut().zip(xb) {
                    *o = gelu_from_tanh(x, *o);
                }
            }
        }
        Some(keep) => {
            assert_eq!(x.len(), keep.len(), "gelu_forward tanh length");
            for ((xb, ob), tb) in blocks.zip(keep.chunks_mut(GELU_BLOCK)) {
                inner_then_tanh(xb, tb);
                for ((o, &x), &t) in ob.iter_mut().zip(xb).zip(&*tb) {
                    *o = gelu_from_tanh(x, t);
                }
            }
        }
    }
}

/// The argument GELU passes to `tanh`.
fn gelu_inner(x: f32) -> f32 {
    SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)
}

/// GELU from `t = tanh(gelu_inner(x))`.
fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU's derivative from `t = tanh(gelu_inner(x))`.
fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    let dinner = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// The broadcast forward `f(a[i], b[i mod b.len()])` without a per-element
/// modulo: `b` is as long as `a` (same shape), one element (scalar), or a
/// shape suffix of `a`, applied to each `b.len()` row of `a` in turn.
fn broadcast_forward(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    if b.len() == a.len() {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    } else if let [y] = *b {
        a.iter().map(|&x| f(x, y)).collect()
    } else {
        let mut out = Vec::with_capacity(a.len());
        for row in a.chunks_exact(b.len()) {
            out.extend(row.iter().zip(b).map(|(&x, &y)| f(x, y)));
        }
        out
    }
}

/// The broadcast backward on the paths of [`broadcast_forward`]:
/// `ga[i] = g[i] · dx` (`None` when `lhs_grad_is_g`: the caller passes `g`
/// itself) and `gb[j] = 0.0 + Σ g[i] · dy` over the `i` that read `b[j]`,
/// summed in ascending `i`. A same-shape rhs gradient is therefore
/// `0.0 + g[i] · dy`, which maps `-0.0` to `+0.0`; a suffix rhs gradient
/// adds one `b.len()` row at a time, in row order, so its per-element sum
/// order is the ascending one; a scalar rhs gradient is one sequential
/// sum.
fn broadcast_backward(
    g: &[f32],
    a: &[f32],
    b: &[f32],
    dfn: impl Fn(f32, f32) -> (f32, f32),
    lhs_grad_is_g: bool,
) -> (Option<Vec<f32>>, Vec<f32>) {
    let ga = (!lhs_grad_is_g).then(|| {
        if b.len() == a.len() {
            g.iter()
                .zip(a)
                .zip(b)
                .map(|((&gv, &x), &y)| gv * dfn(x, y).0)
                .collect()
        } else if let [y] = *b {
            g.iter().zip(a).map(|(&gv, &x)| gv * dfn(x, y).0).collect()
        } else {
            let mut ga = Vec::with_capacity(a.len());
            for (g_row, a_row) in g.chunks_exact(b.len()).zip(a.chunks_exact(b.len())) {
                ga.extend(
                    g_row
                        .iter()
                        .zip(a_row)
                        .zip(b)
                        .map(|((&gv, &x), &y)| gv * dfn(x, y).0),
                );
            }
            ga
        }
    });
    let gb = if b.len() == a.len() {
        g.iter()
            .zip(a)
            .zip(b)
            .map(|((&gv, &x), &y)| 0.0 + gv * dfn(x, y).1)
            .collect()
    } else if let [y] = *b {
        let mut acc = 0.0f32;
        for (&gv, &x) in g.iter().zip(a) {
            acc += gv * dfn(x, y).1;
        }
        vec![acc]
    } else {
        let mut gb = vec![0.0f32; b.len()];
        for (g_row, a_row) in g.chunks_exact(b.len()).zip(a.chunks_exact(b.len())) {
            for (((o, &gv), &x), &y) in gb.iter_mut().zip(g_row).zip(a_row).zip(b) {
                *o += gv * dfn(x, y).1;
            }
        }
        gb
    };
    (ga, gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::max_grad_error;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn add_and_mul_grads() {
        let tape = Tape::new();
        let a = tape.leaf(t(&[1.0, 2.0], &[2]));
        let b = tape.leaf(t(&[3.0, 4.0], &[2]));
        let c = tape.mul(tape.add(a, b), b); // c = (a+b)*b
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        // dc/da = b ; dc/db = a + 2b
        assert_eq!(grads.get(a).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[7.0, 10.0]);
    }

    #[test]
    fn bias_broadcast_sums_gradient_over_leading_dims() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
        let bias = tape.leaf(t(&[10.0, 20.0], &[2]));
        let y = tape.add(x, bias);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(bias).unwrap().data(), &[3.0, 3.0]);
        assert_eq!(tape.value(y).data(), &[11.0, 22.0, 13.0, 24.0, 15.0, 26.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 3.0], &[3]));
        let s = tape.leaf(Tensor::scalar(2.0));
        let y = tape.mul(x, s);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(s).unwrap().data(), &[6.0]);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn matmul_gradcheck() {
        let x = t(&[0.5, -1.0, 2.0, 0.3, -0.7, 1.2], &[2, 3]);
        let w = t(&[0.1, 0.2, -0.3, 0.4, 0.5, -0.6], &[3, 2]);
        let err = max_grad_error(&x, |tape, xv| {
            let wv = tape.leaf(w.clone());
            let y = tape.matmul(xv, wv);
            tape.sum_all(y)
        });
        assert!(err < 1e-2, "matmul grad error {err}");
    }

    #[test]
    fn bmm_gradcheck() {
        let x = t(&[0.5, -1.0, 2.0, 0.3, -0.7, 1.2, 0.9, -0.2], &[2, 2, 2]);
        let w = t(&[0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8], &[2, 2, 2]);
        let err = max_grad_error(&x, |tape, xv| {
            let wv = tape.leaf(w.clone());
            let y = tape.matmul(xv, wv);
            tape.sum_all(y)
        });
        assert!(err < 1e-2, "bmm grad error {err}");
    }

    #[test]
    fn softmax_gradcheck() {
        let x = t(&[0.5, -1.0, 2.0, 0.3, -0.7, 1.2], &[2, 3]);
        let probe = t(&[0.3, -0.2, 0.5, 0.1, 0.9, -0.4], &[2, 3]);
        let err = max_grad_error(&x, |tape, xv| {
            let s = tape.softmax_last(xv);
            let p = tape.constant(probe.clone());
            tape.sum_all(tape.mul(s, p))
        });
        assert!(err < 1e-2, "softmax grad error {err}");
    }

    #[test]
    fn log_softmax_gradcheck() {
        let x = t(&[0.5, -1.0, 2.0, 0.3], &[2, 2]);
        let probe = t(&[0.3, -0.2, 0.5, 0.1], &[2, 2]);
        let err = max_grad_error(&x, |tape, xv| {
            let s = tape.log_softmax_last(xv);
            let p = tape.constant(probe.clone());
            tape.sum_all(tape.mul(s, p))
        });
        assert!(err < 1e-2, "log_softmax grad error {err}");
    }

    #[test]
    fn layer_norm_gradcheck() {
        let x = t(&[0.5, -1.0, 2.0, 0.3, -0.7, 1.2, 0.1, 0.9], &[2, 4]);
        let probe = t(&[0.3, -0.2, 0.5, 0.1, 0.7, -0.1, 0.2, -0.6], &[2, 4]);
        let err = max_grad_error(&x, |tape, xv| {
            let s = tape.layer_norm(xv, 1e-5);
            let p = tape.constant(probe.clone());
            tape.sum_all(tape.mul(s, p))
        });
        assert!(err < 2e-2, "layer_norm grad error {err}");
    }

    #[test]
    fn gelu_gradcheck() {
        let x = t(&[-2.0, -0.5, 0.0, 0.5, 2.0], &[5]);
        let err = max_grad_error(&x, |tape, xv| tape.sum_all(tape.gelu(xv)));
        assert!(err < 1e-2, "gelu grad error {err}");
    }

    #[test]
    fn div_gradcheck() {
        let x = t(&[1.0, 2.0, 3.0], &[3]);
        let d = t(&[2.0, 4.0, 8.0], &[3]);
        let err = max_grad_error(&x, |tape, xv| {
            let dv = tape.leaf(d.clone());
            tape.sum_all(tape.div(xv, dv))
        });
        assert!(err < 1e-2, "div grad error {err}");
    }

    #[test]
    fn cross_entropy_matches_manual_and_gradchecks() {
        let logits = t(&[1.0, 2.0, 3.0, 3.0, 2.0, 1.0], &[2, 3]);
        let targets = [2usize, 0usize];
        let tape = Tape::new();
        let l = tape.leaf(logits.clone());
        let loss = tape.cross_entropy(l, &targets, None, 0.0);
        // manual: both rows have the correct class as max; same distribution.
        let p = logits.softmax_last();
        let expected = -(p.data()[2].ln() + p.data()[3].ln()) / 2.0;
        assert!((tape.value(loss).data()[0] - expected).abs() < 1e-5);

        let err = max_grad_error(&logits, |tape, lv| {
            tape.cross_entropy(lv, &targets, None, 0.0)
        });
        assert!(err < 1e-2, "ce grad error {err}");
    }

    #[test]
    fn cross_entropy_ignores_padding_rows() {
        let logits = t(&[5.0, 0.0, 0.0, 5.0], &[2, 2]);
        let tape = Tape::new();
        let l = tape.leaf(logits);
        // Second row ignored: loss only from the confident, correct first row.
        let loss = tape.cross_entropy(l, &[0, 9], Some(9), 0.0);
        assert!(tape.value(loss).data()[0] < 0.01);
        let grads = tape.backward(loss);
        let gl = grads.get(l).unwrap();
        assert_eq!(
            &gl.data()[2..],
            &[0.0, 0.0],
            "ignored row must get zero grad"
        );
    }

    #[test]
    fn cross_entropy_with_label_smoothing_gradchecks() {
        let logits = t(&[1.0, -2.0, 0.5, 0.1, 0.2, -0.3], &[2, 3]);
        let targets = [1usize, 2usize];
        let err = max_grad_error(&logits, |tape, lv| {
            tape.cross_entropy(lv, &targets, None, 0.1)
        });
        assert!(err < 1e-2, "smoothed ce grad error {err}");
    }

    #[test]
    fn embedding_scatters_gradients() {
        let tape = Tape::new();
        let w = tape.leaf(t(&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0], &[3, 2]));
        let e = tape.embedding(w, &[1, 1, 2]);
        let loss = tape.sum_all(e);
        let grads = tape.backward(loss);
        assert_eq!(
            grads.get(w).unwrap().data(),
            &[0.0, 0.0, 2.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn select_time_routes_gradient_to_one_step() {
        let tape = Tape::new();
        let x = tape.leaf(t(
            &(0..12).map(|v| v as f32).collect::<Vec<_>>(),
            &[2, 3, 2],
        ));
        let y = tape.select_time(x, 1);
        assert_eq!(tape.value(y).data(), &[2.0, 3.0, 8.0, 9.0]);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        let gx = grads.get(x).unwrap();
        assert_eq!(
            gx.data(),
            &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn weighted_mean_time_pools() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[1, 2, 2]));
        let w = t(&[0.5, 0.5], &[1, 2]);
        let y = tape.weighted_mean_time(x, &w);
        assert_eq!(tape.value(y).data(), &[2.0, 3.0]);
        let grads = tape.backward(tape.sum_all(y));
        assert_eq!(grads.get(x).unwrap().data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn concat_last_roundtrips_gradient() {
        let tape = Tape::new();
        let a = tape.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.leaf(t(&[5.0, 6.0], &[2, 1]));
        let c = tape.concat_last(a, b);
        assert_eq!(tape.value(c).shape(), &[2, 3]);
        assert_eq!(tape.value(c).data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().shape(), &[2, 2]);
        assert_eq!(grads.get(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn dropout_zero_p_is_identity_and_mask_is_consistent() {
        let mut rng = SmallRng::seed_from_u64(7);
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0; 8], &[8]));
        let y = tape.dropout(x, 0.0, &mut rng);
        assert_eq!(y, x, "p=0 must be a no-op returning the same var");

        let z = tape.dropout(x, 0.5, &mut rng);
        let zv = tape.value(z);
        // survivors are scaled by 2, dropped are exactly 0
        for &v in zv.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        let grads = tape.backward(tape.sum_all(z));
        let gx = grads.get(x).unwrap();
        for (&g, &v) in gx.data().iter().zip(zv.data().iter()) {
            assert_eq!(g == 0.0, v == 0.0, "grad mask must match forward mask");
        }
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[3.0], &[1]));
        let y = tape.add(x, x); // y = 2x
        let z = tape.mul(y, x); // z = 2x^2 ; dz/dx = 4x = 12
        let grads = tape.backward(tape.sum_all(z));
        assert_eq!(grads.get(x).unwrap().data(), &[12.0]);
    }

    #[test]
    fn split_merge_heads_roundtrip_and_grad() {
        let tape = Tape::new();
        let data: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let x = tape.leaf(t(&data, &[2, 3, 4])); // b=2, t=3, d=4
        let s = tape.split_heads(x, 2); // -> [4, 3, 2]
        assert_eq!(tape.value(s).shape(), &[4, 3, 2]);
        let m = tape.merge_heads(s, 2);
        assert_eq!(tape.value(m).shape(), &[2, 3, 4]);
        assert_eq!(tape.value(m).data(), data.as_slice());
        // head 0 of batch 0 holds the first dh=2 features of each step
        let sv = tape.value(s);
        assert_eq!(&sv.data()[..6], &[0.0, 1.0, 4.0, 5.0, 8.0, 9.0]);
        // grads flow back as the inverse permutation (identity overall)
        let probe = t(
            &(0..24).map(|v| v as f32 * 0.1 - 1.2).collect::<Vec<_>>(),
            &[2, 3, 4],
        );
        let err = max_grad_error(&probe, |tape, xv| {
            let s = tape.split_heads(xv, 2);
            let m = tape.merge_heads(s, 2);
            tape.sum_all(tape.mul(m, m))
        });
        assert!(err < 2e-1, "split/merge grad error {err}");
    }

    #[test]
    fn forward_only_tape_matches_recording_tape_bitwise() {
        // the same op chain on a recording and an inference tape must
        // produce identical forward bits
        let x = t(&[0.5, -1.0, 2.0, 0.3, -0.7, 1.2], &[2, 3]);
        let w = t(&[0.1, 0.2, -0.3, 0.4, 0.5, -0.6], &[3, 2]);
        let run = |tape: &Tape| {
            let xv = tape.leaf(x.clone());
            let wv = tape.leaf(w.clone());
            let h = tape.gelu(tape.matmul(xv, wv));
            let n = tape.layer_norm(h, 1e-5);
            tape.value(tape.softmax_last(n))
        };
        let train = Tape::new();
        let infer = Tape::inference();
        assert!(!train.is_forward_only());
        assert!(infer.is_forward_only());
        let a = run(&train);
        let b = run(&infer);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    #[should_panic(expected = "forward-only inference tape")]
    fn backward_panics_on_forward_only_tape() {
        let tape = Tape::inference();
        let x = tape.leaf(t(&[1.0, 2.0], &[2]));
        let loss = tape.sum_all(x);
        let _ = tape.backward(loss);
    }

    #[test]
    fn recording_tape_uses_arena_and_inference_tape_does_not() {
        let run = |tape: &Tape| {
            let x = tape.leaf(t(&[0.5, -1.0, 2.0, 0.3], &[2, 2]));
            let y = tape.gelu(tape.mul(x, x));
            tape.sum_all(y)
        };
        let train = Tape::new();
        let loss = run(&train);
        assert!(
            train.arena.allocated_bytes() > 0,
            "recording tape must bump-allocate its backward closures"
        );
        let _ = train.backward(loss);

        let infer = Tape::inference();
        run(&infer);
        assert_eq!(
            infer.arena.allocated_bytes(),
            0,
            "forward-only tape must not touch the arena"
        );
    }

    #[test]
    fn long_tape_grows_arena_across_chunks_and_backward_stays_exact() {
        // Enough ops to force multiple arena chunks; gradient of
        // y = x * 2^n via n doublings is 2^n exactly in f32.
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, -3.0], &[2]));
        let mut y = x;
        let n = 12;
        for _ in 0..n {
            y = tape.add(y, y);
        }
        let grads = tape.backward(tape.sum_all(y));
        let expected = (1u32 << n) as f32;
        assert_eq!(grads.get(x).unwrap().data(), &[expected, expected]);
        assert!(tape.arena.allocated_bytes() > 0);
    }

    #[test]
    fn tanh_sigmoid_relu_gradcheck() {
        let x = t(&[-1.5, -0.2, 0.4, 1.7], &[4]);
        for (name, f) in [("tanh", 0usize), ("sigmoid", 1usize), ("relu", 2usize)] {
            let err = max_grad_error(&x, |tape, xv| {
                let y = match f {
                    0 => tape.tanh(xv),
                    1 => tape.sigmoid(xv),
                    _ => tape.relu(xv),
                };
                tape.sum_all(y)
            });
            assert!(err < 1e-2, "{name} grad error {err}");
        }
    }
}
