//! Bit-identity of the training step's fast paths against the loops they
//! replaced.
//!
//! Each test keeps the earlier implementation as a test-only reference —
//! the per-element-modulo broadcast, GELU with `tanh` evaluated again in
//! the backward, products against a materialized transpose, the two-pass
//! window reduce followed by clip-then-Adam — and compares raw bits. The
//! inputs include ±0.0, ±inf and NaN where the op admits them. Run under
//! `RPT_SIMD=0` and `RPT_SIMD=1` (`scripts/verify.sh`) this covers both
//! matmul kernels. NaNs compare as one class (see [`bits`]).

use rpt_core::train::{TrainOpts, Trainer};
use rpt_nn::schedule::linear_warmup;
use rpt_rng::{Rng, RngCore, SeedableRng, SmallRng};
use rpt_tensor::serialize::PendingGrad;
use rpt_tensor::{clip_global_norm, init, Adam, AdamConfig, ParamId, ParamStore, Tape, Tensor};

/// Raw bits, with every NaN mapped to one canonical pattern: IEEE 754
/// leaves a NaN result's sign and payload unspecified, and x86 propagates
/// whichever NaN operand comes first, an order the compiler may commute.
/// Every other value, ±0.0 and ±inf included, compares bit for bit.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// `n` values: seeded normals with every sixth one replaced by a special
/// (±0.0, ±inf, NaN) when `specials` is set.
fn values(n: usize, seed: u64, specials: bool) -> Vec<f32> {
    const SPECIAL: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if specials && i % 6 == 5 {
                SPECIAL[(rng.gen::<u32>() as usize) % SPECIAL.len()]
            } else {
                rng.gen::<f32>() * 4.0 - 2.0
            }
        })
        .collect()
}

fn tensor(data: Vec<f32>, shape: &[usize]) -> Tensor {
    Tensor::from_vec(data, shape).expect("test tensor shape")
}

// ---------------------------------------------------------------------
// Broadcast arithmetic
// ---------------------------------------------------------------------

type Fwd = fn(f32, f32) -> f32;
type Dfn = fn(f32, f32, f32) -> (f32, f32);

/// The four broadcast binaries with their earlier pointwise derivative
/// closures `(x, y, out) -> (d/dx, d/dy)`.
const OPS: [(&str, Fwd, Dfn); 4] = [
    ("add", |x, y| x + y, |_, _, _| (1.0, 1.0)),
    ("sub", |x, y| x - y, |_, _, _| (1.0, -1.0)),
    ("mul", |x, y| x * y, |x, y, _| (y, x)),
    ("div", |x, y| x / y, |x, y, _| (1.0 / y, -x / (y * y))),
];

/// The earlier broadcast loops: the rhs element is `b[i % b.len()]`, and
/// the rhs gradient accumulates `g · dy` into a zeroed buffer in
/// ascending `i`. Returns `(out, ga, gb)` for upstream gradient `g`.
fn broadcast_reference(
    a: &[f32],
    b: &[f32],
    g: &[f32],
    f: Fwd,
    dfn: Dfn,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let bn = b.len().max(1);
    let mut out = Vec::with_capacity(a.len());
    for (i, &x) in a.iter().enumerate() {
        out.push(f(x, b[i % bn]));
    }
    let mut ga = vec![0.0f32; a.len()];
    let mut gb = vec![0.0f32; bn];
    for (i, &gv) in g.iter().enumerate() {
        let (dx, dy) = dfn(a[i], b[i % bn], out[i]);
        ga[i] = gv * dx;
        gb[i % bn] += gv * dy;
    }
    (out, ga, gb)
}

/// Runs `name` on a tape with upstream gradient `g` for the output
/// (`sum(out * g)` has gradient exactly `1.0 * g = g`).
fn broadcast_on_tape(
    name: &str,
    a: &Tensor,
    b: &Tensor,
    g: &Tensor,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let tape = Tape::new();
    let (av, bv) = (tape.leaf(a.clone()), tape.leaf(b.clone()));
    let out = match name {
        "add" => tape.add(av, bv),
        "sub" => tape.sub(av, bv),
        "mul" => tape.mul(av, bv),
        _ => tape.div(av, bv),
    };
    let probe = tape.constant(g.clone());
    let grads = tape.backward(tape.sum_all(tape.mul(out, probe)));
    (
        tape.value(out).data().to_vec(),
        grads.get(av).expect("lhs gradient").data().to_vec(),
        grads.get(bv).expect("rhs gradient").data().to_vec(),
    )
}

#[test]
fn broadcast_paths_match_the_modulo_loop_bitwise() {
    let lhs_shape = [3, 4, 10];
    let n = 120;
    // same shape, shape suffixes (one row, a row block), scalar rhs
    let rhs_shapes: [&[usize]; 5] = [&[3, 4, 10], &[10], &[4, 10], &[1], &[1, 1]];
    for (si, rhs_shape) in rhs_shapes.iter().enumerate() {
        let bn: usize = rhs_shape.iter().product();
        for (oi, &(name, f, dfn)) in OPS.iter().enumerate() {
            let seed = (si * 10 + oi) as u64;
            let a = values(n, seed, true);
            let b = values(bn, seed + 100, bn > 1);
            let g = values(n, seed + 200, true);
            let want = broadcast_reference(&a, &b, &g, f, dfn);
            let got = broadcast_on_tape(
                name,
                &tensor(a, &lhs_shape),
                &tensor(b, rhs_shape),
                &tensor(g, &lhs_shape),
            );
            let case = format!("{name} with rhs {rhs_shape:?}");
            assert_eq!(bits(&got.0), bits(&want.0), "{case}: forward");
            assert_eq!(bits(&got.1), bits(&want.1), "{case}: lhs gradient");
            assert_eq!(bits(&got.2), bits(&want.2), "{case}: rhs gradient");
        }
    }
}

#[test]
fn same_shape_rhs_gradient_maps_negative_zero_to_positive_zero() {
    // 0.0 + (-0.0) = +0.0: the accumulation into a zeroed buffer is part
    // of the result, not an artefact to optimize away
    let a = tensor(vec![1.0, 2.0], &[2]);
    let b = tensor(vec![3.0, 4.0], &[2]);
    let g = tensor(vec![-0.0, -0.0], &[2]);
    for name in ["add", "sub", "mul"] {
        let (_, _, gb) = broadcast_on_tape(name, &a, &b, &g);
        assert_eq!(bits(&gb), bits(&[0.0, 0.0]), "{name}");
    }
}

// ---------------------------------------------------------------------
// GELU
// ---------------------------------------------------------------------

fn gelu_reference(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_grad_reference(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let inner = SQRT_2_OVER_PI * (x + 0.044715 * x * x * x);
    let t = inner.tanh();
    let dinner = SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

#[test]
fn gelu_forward_and_backward_match_the_recomputing_reference() {
    let n = 257;
    let mut x = values(n, 7, true);
    // the saturated tails, where tanh is ±1 exactly
    x.extend([-12.0, -9.5, 9.5, 12.0]);
    let g = values(x.len(), 8, true);
    let want_out: Vec<f32> = x.iter().map(|&v| gelu_reference(v)).collect();
    let want_grad: Vec<f32> = x
        .iter()
        .zip(&g)
        .map(|(&v, &gv)| gv * gelu_grad_reference(v))
        .collect();

    let tape = Tape::new();
    let xv = tape.leaf(tensor(x.clone(), &[x.len()]));
    let y = tape.gelu(xv);
    let probe = tape.constant(tensor(g, &[x.len()]));
    let grads = tape.backward(tape.sum_all(tape.mul(y, probe)));
    assert_eq!(bits(tape.value(y).data()), bits(&want_out), "forward");
    assert_eq!(
        bits(grads.get(xv).unwrap().data()),
        bits(&want_grad),
        "backward"
    );

    let infer = Tape::inference();
    let yi = infer.gelu(infer.leaf(tensor(x.clone(), &[x.len()])));
    assert_eq!(
        bits(infer.value(yi).data()),
        bits(&want_out),
        "inference forward"
    );
}

// ---------------------------------------------------------------------
// Transposed-operand products
// ---------------------------------------------------------------------

/// Row counts on both sides of the kernel's 4-row blocks and 16-row pack
/// threshold; column counts on both sides of its 16-column tiles.
const ROWS: [usize; 4] = [1, 3, 17, 33];
const COLS: [usize; 4] = [1, 5, 16, 37];

#[test]
fn transposed_operand_products_match_the_materialized_transpose() {
    let mut rng = SmallRng::seed_from_u64(21);
    for &m in &ROWS {
        for &n in &COLS {
            for k in [1, 7, 33] {
                let a = init::normal(&[m, k], 1.0, &mut rng);
                let bt = init::normal(&[n, k], 1.0, &mut rng); // B stored as [n, k]
                let at = init::normal(&[k, m], 1.0, &mut rng); // A stored as [k, m]
                let b = init::normal(&[k, n], 1.0, &mut rng);
                assert_eq!(
                    bits(a.matmul_nt(&bt).data()),
                    bits(a.matmul2d(&bt.transpose_last()).data()),
                    "A·Bᵀ m={m} k={k} n={n}"
                );
                assert_eq!(
                    bits(at.matmul_tn(&b).data()),
                    bits(at.transpose_last().matmul2d(&b).data()),
                    "Aᵀ·B m={m} k={k} n={n}"
                );
            }
        }
    }
    // large enough to be split across a threaded global pool
    // (`RPT_THREADS`), at row offsets that are not tile multiples
    let (m, k, n) = (133, 64, 150);
    let a = init::normal(&[m, k], 1.0, &mut rng);
    let bt = init::normal(&[n, k], 1.0, &mut rng);
    let at = init::normal(&[k, m], 1.0, &mut rng);
    assert_eq!(
        bits(a.matmul_nt(&bt).data()),
        bits(a.matmul2d(&bt.transpose_last()).data()),
        "large A·Bᵀ"
    );
    assert_eq!(
        bits(at.matmul_tn(&a.transpose_last()).data()),
        bits(at.transpose_last().matmul2d(&a.transpose_last()).data()),
        "large Aᵀ·B"
    );
    for &m in &ROWS {
        let (batch, k, n) = (3, 9, 18);
        let a = init::normal(&[batch, m, k], 1.0, &mut rng);
        let bt = init::normal(&[batch, n, k], 1.0, &mut rng);
        let at = init::normal(&[batch, k, m], 1.0, &mut rng);
        let b = init::normal(&[batch, k, n], 1.0, &mut rng);
        assert_eq!(
            bits(a.matmul_nt(&bt).data()),
            bits(a.bmm(&bt.transpose_last()).data()),
            "batched A·Bᵀ m={m}"
        );
        assert_eq!(
            bits(at.matmul_tn(&b).data()),
            bits(at.transpose_last().bmm(&b).data()),
            "batched Aᵀ·B m={m}"
        );
    }
}

#[test]
fn tape_products_match_the_transpose_then_matmul_graph() {
    // forward and both gradients of matmul (now G·Bᵀ and Aᵀ·G read in
    // place) and matmul_nt against the explicit transpose_last graph
    let mut rng = SmallRng::seed_from_u64(22);
    for &m in &ROWS {
        for shape3 in [false, true] {
            let (k, n) = (12, 17);
            let lead: &[usize] = if shape3 { &[2] } else { &[] };
            let shape = |r: usize, c: usize| [lead, &[r, c]].concat();
            let a = init::normal(&shape(m, k), 1.0, &mut rng);
            let bt = init::normal(&shape(n, k), 1.0, &mut rng);
            let g = init::normal(&shape(m, n), 1.0, &mut rng);
            let run = |fused: bool| {
                let tape = Tape::new();
                let (av, bv) = (tape.leaf(a.clone()), tape.leaf(bt.clone()));
                let out = if fused {
                    tape.matmul_nt(av, bv)
                } else {
                    tape.matmul(av, tape.transpose_last(bv))
                };
                let probe = tape.constant(g.clone());
                let grads = tape.backward(tape.sum_all(tape.mul(out, probe)));
                (
                    bits(tape.value(out).data()),
                    bits(grads.get(av).unwrap().data()),
                    bits(grads.get(bv).unwrap().data()),
                )
            };
            assert_eq!(run(true), run(false), "m={m} batched={shape3}");
        }
    }
}

// ---------------------------------------------------------------------
// Tape bookkeeping and dropout
// ---------------------------------------------------------------------

#[test]
fn backward_keeps_leaf_gradients_and_releases_interior_ones() {
    let tape = Tape::new();
    let x = tape.leaf(tensor(vec![1.0, -2.0, 3.0], &[3]));
    let w = tape.leaf(tensor(vec![0.5], &[1]));
    let h = tape.mul(x, w);
    let y = tape.gelu(h);
    let loss = tape.sum_all(y);
    let grads = tape.backward(loss);
    assert!(
        grads.get(x).is_some() && grads.get(w).is_some(),
        "leaves keep gradients"
    );
    for interior in [h, y, loss] {
        assert!(grads.get(interior).is_none(), "interior gradient kept");
    }
}

#[test]
fn dropout_mask_is_the_per_element_draw_stream() {
    let (p, n) = (0.3f32, 203);
    let x = values(n, 31, false);
    let mut reference = SmallRng::seed_from_u64(5);
    let keep = 1.0 - p;
    let want: Vec<f32> = x
        .iter()
        .map(|&v| {
            v * if reference.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(5);
    // the model's dropout receives its generator as `&mut dyn RngCore`
    let mut dynrng: &mut dyn RngCore = &mut rng;
    let tape = Tape::new();
    let y = tape.dropout(tape.leaf(tensor(x, &[n])), p, &mut dynrng);
    assert_eq!(bits(tape.value(y).data()), bits(&want));
    assert_eq!(rng.next_u64(), reference.next_u64(), "one draw per element");
}

// ---------------------------------------------------------------------
// Window reduce, clip and Adam
// ---------------------------------------------------------------------

/// The earlier two-pass window reduce: scale every shard gradient in
/// place, then add it into the accumulator.
fn reduce_reference(
    n_params: usize,
    pending: &[PendingGrad],
    ids: &[String],
) -> Vec<Option<Tensor>> {
    let total_w: f32 = pending.iter().map(|p| p.weight).sum();
    let mut acc: Vec<Option<Tensor>> = vec![None; n_params];
    for p in pending {
        let scale = p.weight / total_w.max(f32::MIN_POSITIVE);
        for (name, g) in &p.grads {
            let mut g = g.clone();
            g.map_inplace(|x| x * scale);
            let idx = ids.iter().position(|n| n == name).unwrap();
            match &mut acc[idx] {
                Some(a) => {
                    let ad = a.data_mut();
                    for (x, y) in ad.iter_mut().zip(g.data()) {
                        *x += y;
                    }
                }
                slot @ None => *slot = Some(g),
            }
        }
    }
    acc
}

/// The earlier indexed Adam loop over clipped gradients.
struct AdamReference {
    cfg: AdamConfig,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
}

impl AdamReference {
    fn step(&mut self, params: &mut [Vec<f32>], grads: &[(ParamId, Tensor)]) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        let (b1, b2, eps, lr, wd) = (
            self.cfg.beta1,
            self.cfg.beta2,
            self.cfg.eps,
            self.cfg.lr,
            self.cfg.weight_decay,
        );
        for (id, g) in grads {
            let idx = id.index();
            let (md, vd, pd) = (&mut self.m[idx], &mut self.v[idx], &mut params[idx]);
            for i in 0..g.numel() {
                let gi = g.data()[i];
                md[i] = b1 * md[i] + (1.0 - b1) * gi;
                vd[i] = b2 * vd[i] + (1.0 - b2) * gi * gi;
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                pd[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * pd[i]);
            }
        }
    }
}

#[test]
fn fused_reduce_and_adam_match_the_two_pass_reference() {
    // odd sizes exercise the vector loops' remainders; the third
    // parameter is missing from the middle shard
    let shapes: [&[usize]; 3] = [&[37], &[5, 13], &[4, 4]];
    let names: Vec<String> = (0..shapes.len()).map(|i| format!("p{i}")).collect();
    let opts = TrainOpts {
        warmup: 2,
        peak_lr: 0.01,
        clip: 1.0,
        weight_decay: 0.01,
        ..Default::default()
    };
    let mut params = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(51);
    for (name, shape) in names.iter().zip(shapes) {
        params.register(name.clone(), init::normal(shape, 1.0, &mut rng));
    }
    let mut ref_params: Vec<Vec<f32>> = params.iter().map(|(_, t)| t.data().to_vec()).collect();
    let mut trainer = Trainer::new(opts.clone(), 16);
    let mut reference = AdamReference {
        cfg: AdamConfig {
            weight_decay: opts.weight_decay,
            ..Default::default()
        },
        m: ref_params.iter().map(|p| vec![0.0; p.len()]).collect(),
        v: ref_params.iter().map(|p| vec![0.0; p.len()]).collect(),
        t: 0,
    };
    // small gradients (no clip) on the first windows, large ones (clip)
    // after
    for (window, magnitude) in [0.01f32, 0.02, 5.0, 50.0].into_iter().enumerate() {
        let pending: Vec<PendingGrad> = [3.0f32, 1.0, 2.5]
            .iter()
            .enumerate()
            .map(|(s, &weight)| PendingGrad {
                loss: 1.0 + s as f32,
                weight,
                grads: names
                    .iter()
                    .zip(shapes)
                    .filter(|(name, _)| !(s == 1 && name.as_str() == "p2"))
                    .map(|(name, shape)| {
                        let g = init::normal(shape, magnitude, &mut rng);
                        (name.clone(), g)
                    })
                    .collect(),
            })
            .collect();

        trainer.import_pending(&params, &pending).unwrap();
        let (loss, reduced) = trainer.accum_reduced(&params);
        let mut want: Vec<(ParamId, Tensor)> = reduce_reference(params.len(), &pending, &names)
            .into_iter()
            .enumerate()
            .filter_map(|(i, g)| g.map(|g| (ParamId::from_index(i), g)))
            .collect();
        assert_eq!(reduced.len(), want.len());
        for ((id, got), (_, w)) in reduced.iter().zip(&want) {
            assert_eq!(
                bits(got.data()),
                bits(w.data()),
                "window {window}: reduced {id:?}"
            );
        }

        assert_eq!(trainer.accum_apply(&mut params).to_bits(), loss.to_bits());
        reference.cfg.lr = linear_warmup(opts.peak_lr, opts.warmup as u64, window as u64 + 1);
        clip_global_norm(&mut want, opts.clip);
        reference.step(&mut ref_params, &want);
        for (i, (_, value)) in params.iter().enumerate() {
            assert_eq!(
                bits(value.data()),
                bits(&ref_params[i]),
                "window {window}: param {i}"
            );
        }
    }
}

#[test]
fn step_clipped_matches_clip_then_step() {
    let mut rng = SmallRng::seed_from_u64(61);
    for max_norm in [0.5f32, 1e6] {
        let build = |rng: &mut SmallRng| {
            let mut params = ParamStore::new();
            params.register("a", init::normal(&[29], 1.0, rng));
            params.register("b", init::normal(&[3, 11], 1.0, rng));
            params
        };
        let mut fused_params = build(&mut rng);
        let mut split_params = fused_params.clone();
        let mut fused = Adam::new(AdamConfig::default());
        let mut split = Adam::new(AdamConfig::default());
        for _ in 0..3 {
            let grads: Vec<(ParamId, Tensor)> = fused_params
                .iter()
                .enumerate()
                .map(|(i, (_, t))| {
                    (
                        ParamId::from_index(i),
                        init::normal(t.shape(), 1.0, &mut rng),
                    )
                })
                .collect();
            let norm = fused.step_clipped(&mut fused_params, &grads, max_norm);
            let mut clipped = grads.clone();
            let split_norm = clip_global_norm(&mut clipped, max_norm);
            split.step(&mut split_params, &clipped);
            assert_eq!(norm.to_bits(), split_norm.to_bits());
        }
        for ((_, f), (_, s)) in fused_params.iter().zip(split_params.iter()) {
            assert_eq!(bits(f.data()), bits(s.data()), "max_norm {max_norm}");
        }
    }
}
