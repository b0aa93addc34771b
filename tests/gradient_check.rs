//! Central finite-difference gradient checks for every differentiable op
//! in `rpt-tensor`, at representative shapes.
//!
//! The in-crate unit tests spot-check a few ops on tiny hand-written
//! tensors; this suite is the systematic lock: each op is probed with a
//! seeded random input and a random linear probe (so every input element
//! has a distinct gradient), and the analytic gradient must agree with a
//! central difference to a per-op tolerance. The tolerances reflect f32
//! finite-difference noise: index-permutation ops are near-exact, while
//! reductions over long axes (matmul, layer-norm) accumulate rounding.

use rpt_rng::{Rng, SeedableRng, SmallRng};
use rpt_tensor::gradcheck::max_grad_error;
use rpt_tensor::{Tape, Tensor, Var};

/// A seeded random tensor with entries in `(-1, 1)`.
fn randt(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    Tensor::from_vec(data, shape).expect("randt shape")
}

/// Reduces `v` to a scalar with a fixed random probe, so that each element
/// of the op output (and hence of the input) gets a distinct gradient —
/// `sum_all` alone would let transposed/permuted gradients slip through.
fn probe_loss(tape: &Tape, v: Var, seed: u64) -> Var {
    let shape = tape.value(v).shape().to_vec();
    let p = tape.constant(randt(&shape, seed));
    tape.sum_all(tape.mul(v, p))
}

#[track_caller]
fn check(name: &str, tol: f32, input: &Tensor, f: impl Fn(&Tape, Var) -> Var) {
    let err = max_grad_error(input, f);
    assert!(err < tol, "{name}: grad error {err} exceeds tolerance {tol}");
}

// ---------------------------------------------------------------------
// Elementwise arithmetic
// ---------------------------------------------------------------------

#[test]
fn elementwise_ops() {
    let x = randt(&[4, 6], 1);
    let y = randt(&[4, 6], 2);
    check("add", 5e-3, &x, |t, xv| {
        let yv = t.constant(y.clone());
        probe_loss(t, t.add(xv, yv), 10)
    });
    check("sub", 5e-3, &x, |t, xv| {
        let yv = t.constant(y.clone());
        probe_loss(t, t.sub(xv, yv), 11)
    });
    check("mul", 5e-3, &x, |t, xv| {
        let yv = t.constant(y.clone());
        probe_loss(t, t.mul(xv, yv), 12)
    });
    check("neg", 5e-3, &x, |t, xv| probe_loss(t, t.neg(xv), 13));
    check("scale", 5e-3, &x, |t, xv| probe_loss(t, t.scale(xv, 0.37), 14));
    check("add_scalar", 5e-3, &x, |t, xv| {
        probe_loss(t, t.add_scalar(xv, -0.8), 15)
    });
}

#[test]
fn div_grad() {
    // keep the denominator well away from zero
    let mut d = randt(&[3, 5], 3);
    d.map_inplace(|x| x + if x >= 0.0 { 1.5 } else { -1.5 });
    let x = randt(&[3, 5], 4);
    check("div (numerator)", 1e-2, &x, |t, xv| {
        let dv = t.constant(d.clone());
        probe_loss(t, t.div(xv, dv), 16)
    });
    check("div (denominator)", 1e-2, &d, |t, dv| {
        let xv = t.constant(x.clone());
        probe_loss(t, t.div(xv, dv), 17)
    });
}

// ---------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------

#[test]
fn activation_ops() {
    let x = randt(&[5, 7], 5);
    check("gelu", 1e-2, &x, |t, xv| probe_loss(t, t.gelu(xv), 20));
    check("tanh", 1e-2, &x, |t, xv| probe_loss(t, t.tanh(xv), 21));
    check("sigmoid", 1e-2, &x, |t, xv| probe_loss(t, t.sigmoid(xv), 22));
    // relu is non-differentiable at 0; random inputs stay clear of it
    check("relu", 1e-2, &x, |t, xv| probe_loss(t, t.relu(xv), 23));
}

// ---------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------

#[test]
fn matmul2d_grad_both_sides() {
    let a = randt(&[8, 12], 6);
    let b = randt(&[12, 10], 7);
    check("matmul2d (lhs)", 2e-2, &a, |t, av| {
        let bv = t.leaf(b.clone());
        probe_loss(t, t.matmul(av, bv), 30)
    });
    check("matmul2d (rhs)", 2e-2, &b, |t, bv| {
        let av = t.leaf(a.clone());
        probe_loss(t, t.matmul(av, bv), 31)
    });
}

#[test]
fn batched_matmul_grad_both_sides() {
    let a = randt(&[3, 5, 6], 8);
    let b = randt(&[3, 6, 4], 9);
    check("bmm (lhs)", 2e-2, &a, |t, av| {
        let bv = t.leaf(b.clone());
        probe_loss(t, t.matmul(av, bv), 32)
    });
    check("bmm (rhs)", 2e-2, &b, |t, bv| {
        let av = t.leaf(a.clone());
        probe_loss(t, t.matmul(av, bv), 33)
    });
}

#[test]
fn matmul_nt_grad_both_sides() {
    // a · bᵀ, 2-d and batched, both operands
    let a = randt(&[7, 12], 11);
    let b = randt(&[9, 12], 12);
    check("matmul_nt (lhs)", 2e-2, &a, |t, av| {
        let bv = t.leaf(b.clone());
        probe_loss(t, t.matmul_nt(av, bv), 35)
    });
    check("matmul_nt (rhs)", 2e-2, &b, |t, bv| {
        let av = t.leaf(a.clone());
        probe_loss(t, t.matmul_nt(av, bv), 36)
    });
    let a3 = randt(&[3, 5, 6], 13);
    let b3 = randt(&[3, 4, 6], 14);
    check("batched matmul_nt (lhs)", 2e-2, &a3, |t, av| {
        let bv = t.leaf(b3.clone());
        probe_loss(t, t.matmul_nt(av, bv), 37)
    });
    check("batched matmul_nt (rhs)", 2e-2, &b3, |t, bv| {
        let av = t.leaf(a3.clone());
        probe_loss(t, t.matmul_nt(av, bv), 38)
    });
}

#[test]
fn transpose_grad() {
    let x = randt(&[6, 9], 10);
    check("transpose_last", 5e-3, &x, |t, xv| {
        probe_loss(t, t.transpose_last(xv), 34)
    });
}

// ---------------------------------------------------------------------
// Normalization / softmax
// ---------------------------------------------------------------------

#[test]
fn softmax_grads() {
    let x = randt(&[4, 9], 11);
    check("softmax_last", 1e-2, &x, |t, xv| {
        probe_loss(t, t.softmax_last(xv), 40)
    });
    check("log_softmax_last", 1e-2, &x, |t, xv| {
        probe_loss(t, t.log_softmax_last(xv), 41)
    });
}

#[test]
fn layer_norm_grad() {
    let x = randt(&[4, 16], 12);
    check("layer_norm", 2e-2, &x, |t, xv| {
        probe_loss(t, t.layer_norm(xv, 1e-5), 42)
    });
}

// ---------------------------------------------------------------------
// Shape / gather ops
// ---------------------------------------------------------------------

#[test]
fn reshape_and_head_ops() {
    let x = randt(&[2, 5, 8], 13);
    check("reshape", 5e-3, &x, |t, xv| {
        probe_loss(t, t.reshape(xv, &[10, 8]), 50)
    });
    check("split_heads", 5e-3, &x, |t, xv| {
        probe_loss(t, t.split_heads(xv, 4), 51)
    });
    let y = randt(&[8, 5, 2], 14); // [b*h, t, dh] with h = 4
    check("merge_heads", 5e-3, &y, |t, yv| {
        probe_loss(t, t.merge_heads(yv, 4), 52)
    });
}

#[test]
fn select_and_pool_ops() {
    let x = randt(&[3, 6, 5], 15);
    check("select_time", 5e-3, &x, |t, xv| {
        probe_loss(t, t.select_time(xv, 2), 53)
    });
    // masked mean-pool weights: one row fully valid, one truncated, one
    // with a single valid step
    let w = Tensor::from_vec(
        vec![
            1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, //
            0.25, 0.25, 0.25, 0.25, 0.0, 0.0, //
            1.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        ],
        &[3, 6],
    )
    .unwrap();
    check("weighted_mean_time", 5e-3, &x, |t, xv| {
        probe_loss(t, t.weighted_mean_time(xv, &w), 54)
    });
}

#[test]
fn concat_grad_both_sides() {
    let a = randt(&[3, 4, 5], 16);
    let b = randt(&[3, 4, 3], 17);
    check("concat_last (lhs)", 5e-3, &a, |t, av| {
        let bv = t.leaf(b.clone());
        probe_loss(t, t.concat_last(av, bv), 55)
    });
    check("concat_last (rhs)", 5e-3, &b, |t, bv| {
        let av = t.leaf(a.clone());
        probe_loss(t, t.concat_last(av, bv), 56)
    });
}

#[test]
fn embedding_gather_scatter_grad() {
    let w = randt(&[10, 6], 18);
    // repeated ids exercise the scatter-add in the backward pass
    let ids = [3usize, 7, 3, 0, 9, 3, 7];
    check("embedding", 5e-3, &w, |t, wv| {
        probe_loss(t, t.embedding(wv, &ids), 57)
    });
}

// ---------------------------------------------------------------------
// Regularization
// ---------------------------------------------------------------------

#[test]
fn dropout_grad_with_fixed_mask() {
    let x = randt(&[6, 8], 19);
    // the rng is re-seeded inside the closure, so every finite-difference
    // evaluation sees the same mask and the loss stays differentiable
    check("dropout", 1e-2, &x, |t, xv| {
        let mut rng = SmallRng::seed_from_u64(99);
        probe_loss(t, t.dropout(xv, 0.3, &mut rng), 58)
    });
}

// ---------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------

#[test]
fn cross_entropy_grads() {
    let logits = randt(&[6, 11], 20);
    let targets = [4usize, 0, 10, 2, 7, 4];
    check("cross_entropy", 1e-2, &logits, |t, lv| {
        t.cross_entropy(lv, &targets, None, 0.0)
    });
    check("cross_entropy (smoothed)", 1e-2, &logits, |t, lv| {
        t.cross_entropy(lv, &targets, None, 0.1)
    });
    // pad positions (target 0 here) must receive exactly zero gradient
    let padded = [4usize, 0, 10, 0, 7, 4];
    check("cross_entropy (ignore_index)", 1e-2, &logits, |t, lv| {
        t.cross_entropy(lv, &padded, Some(0), 0.0)
    });

    let tape = Tape::new();
    let lv = tape.leaf(logits.clone());
    let loss = tape.cross_entropy(lv, &padded, Some(0), 0.0);
    let grads = tape.backward(loss);
    let g = grads.get(lv).expect("logits gradient");
    for row in [1usize, 3] {
        assert!(
            g.data()[row * 11..(row + 1) * 11].iter().all(|&x| x == 0.0),
            "ignored row {row} leaked gradient"
        );
    }
}

// ---------------------------------------------------------------------
// Composites: the ops chained the way the model uses them
// ---------------------------------------------------------------------

#[test]
fn attention_shaped_composite() {
    // split -> scores -> softmax -> mix -> merge, a miniature attention
    let x = randt(&[2, 4, 8], 21);
    check("attention composite", 2e-2, &x, |t, xv| {
        let q = t.split_heads(xv, 2); // [4, 4, 4]
        let scores = t.matmul(q, t.transpose_last(q));
        let att = t.softmax_last(t.scale(scores, 0.5));
        let mixed = t.matmul(att, q);
        probe_loss(t, t.merge_heads(mixed, 2), 60)
    });
}

#[test]
fn mlp_shaped_composite() {
    // layer_norm -> linear -> gelu -> loss, the transformer FFN skeleton
    let x = randt(&[5, 8], 22);
    let w = randt(&[8, 12], 23);
    check("ffn composite", 2e-2, &x, |t, xv| {
        let n = t.layer_norm(xv, 1e-5);
        let wv = t.leaf(w.clone());
        let h = t.gelu(t.matmul(n, wv));
        probe_loss(t, h, 61)
    });
}

// ---------------------------------------------------------------------
// Gradient accumulation: FD check through a whole window
// ---------------------------------------------------------------------

/// `(input, probe, weight)` — one data-parallel shard of the toy model
/// `loss = Σ probe ⊙ tanh(x · w)`.
type AccumShard = (Tensor, Tensor, f32);

/// The window loss the accumulated gradient must differentiate: the
/// weight-normalized mean of the per-shard losses, exactly as
/// `Trainer::reduce_window` folds it.
fn window_loss(w: &Tensor, shards: &[AccumShard]) -> f32 {
    let total: f32 = shards.iter().map(|s| s.2).sum();
    let mut loss = 0.0f32;
    for (x, probe, weight) in shards {
        let tape = Tape::new();
        let wv = tape.constant(w.clone());
        let xv = tape.constant(x.clone());
        let pv = tape.constant(probe.clone());
        let l = tape.sum_all(tape.mul(tape.tanh(tape.matmul(xv, wv)), pv));
        loss += tape.value(l).data()[0] * (weight / total.max(f32::MIN_POSITIVE));
    }
    loss
}

#[test]
fn accumulated_gradient_matches_finite_difference_of_window_loss() {
    use rpt::core::train::{TrainOpts, Trainer};
    use rpt::par::ThreadPool;
    use rpt_tensor::ParamStore;

    let w0 = randt(&[4, 3], 70);
    let shards: Vec<AccumShard> = (0..3)
        .map(|i| {
            (
                randt(&[2, 4], 71 + i),
                randt(&[2, 3], 81 + i),
                [2.0f32, 1.0, 3.0][i as usize],
            )
        })
        .collect();
    let forward = |tape: &Tape, params: &mut ParamStore, shard: &AccumShard| {
        let id = params.find("w").unwrap();
        let wv = params.bind(tape, id);
        let xv = tape.constant(shard.0.clone());
        let pv = tape.constant(shard.1.clone());
        tape.sum_all(tape.mul(tape.tanh(tape.matmul(xv, wv)), pv))
    };

    // Fold the window across TWO micro-steps with an uneven split, the way
    // streaming training does, then reduce without applying.
    let pool = ThreadPool::new(2);
    let mut params = ParamStore::new();
    params.register("w", w0.clone());
    let mut trainer = Trainer::new(TrainOpts::default(), 4);
    trainer.accum_micro_step(&pool, &params, &shards[..2], |s| s.2, forward);
    trainer.accum_micro_step(&pool, &params, &shards[2..], |s| s.2, forward);
    assert_eq!(trainer.pending_shards(), 3);
    let (loss, grads) = trainer.accum_reduced(&params);
    assert!(
        (loss - window_loss(&w0, &shards)).abs() < 1e-5,
        "reduced window loss disagrees with the direct evaluation"
    );
    assert_eq!(grads.len(), 1);
    let analytic = &grads[0].1;

    // Central finite difference of the window loss, element by element.
    let eps = 1e-2f32;
    let mut worst = 0.0f32;
    for i in 0..w0.numel() {
        let mut plus = w0.clone();
        plus.data_mut()[i] += eps;
        let mut minus = w0.clone();
        minus.data_mut()[i] -= eps;
        let fd = (window_loss(&plus, &shards) - window_loss(&minus, &shards)) / (2.0 * eps);
        worst = worst.max((analytic.data()[i] - fd).abs());
    }
    assert!(
        worst < 1e-2,
        "accumulated gradient: FD error {worst} exceeds tolerance"
    );

    // The same three shards folded in ONE micro-step reduce to the exact
    // same bits: accumulation is pure deferral of the reduction loop.
    let mut one_shot = Trainer::new(TrainOpts::default(), 4);
    one_shot.accum_micro_step(&pool, &params, &shards, |s| s.2, forward);
    let (loss1, grads1) = one_shot.accum_reduced(&params);
    assert_eq!(loss.to_bits(), loss1.to_bits());
    for ((_, a), (_, b)) in grads.iter().zip(grads1.iter()) {
        let same = a
            .data()
            .iter()
            .zip(b.data().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "split vs one-shot window gradients differ in bits");
    }
}
