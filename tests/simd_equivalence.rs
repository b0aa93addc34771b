//! Bit-identity of the AVX2 kernels against their scalar twins, and the
//! cost-model scheduling invariants of the parallel matmul path.
//!
//! The SIMD kernels are designed so that `RPT_SIMD=0` and `RPT_SIMD=1`
//! produce byte-identical tensors (DESIGN.md §SIMD): vectorized stages use
//! only operations whose per-lane rounding equals the scalar op (`vmulps`,
//! `vsubps`, `vmaxps` — never FMA), and every order-sensitive reduction
//! stays scalar. These tests force both kernel choices inside one process
//! (the env gate is cached, so toggling `RPT_SIMD` at runtime would not
//! work) and compare raw bits over randomized shapes.

use rpt::par::{hardware_threads, ThreadPool};
use rpt::tensor::{init, matmul_chunk_count, matmul_rows_blocked_force, simd, Tape, Tensor};
use rpt_rng::{Rng, SeedableRng, SmallRng};

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Random `m`/`k`/`n` that cover full tiles, edge tiles, the packed-panel
/// path (rows >= 16), and the unpacked decode path (rows < 16).
fn random_dims(rng: &mut SmallRng) -> (usize, usize, usize) {
    let m = 1 + (rng.gen::<u32>() as usize) % 40;
    let k = 1 + (rng.gen::<u32>() as usize) % 50;
    let n = 1 + (rng.gen::<u32>() as usize) % 70;
    (m, k, n)
}

#[test]
fn matmul_kernel_simd_and_scalar_are_bit_identical_on_random_shapes() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(41);
    for trial in 0..60 {
        let (m, k, n) = random_dims(&mut rng);
        let a = init::normal(&[m, k], 1.0, &mut rng);
        let b = init::normal(&[k, n], 1.0, &mut rng);
        let mut scalar = vec![0.0f32; m * n];
        let mut vector = vec![0.0f32; m * n];
        matmul_rows_blocked_force(a.data(), b.data(), &mut scalar, m, k, n, false);
        matmul_rows_blocked_force(a.data(), b.data(), &mut vector, m, k, n, true);
        assert_eq!(
            bits(&scalar),
            bits(&vector),
            "matmul kernels diverged (trial {trial}, m={m} k={k} n={n})"
        );
    }
}

#[test]
fn softmax_primitives_simd_and_scalar_are_bit_identical() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(42);
    for trial in 0..60 {
        let n = 1 + (rng.gen::<u32>() as usize) % 97;
        let row: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() * 8.0 - 4.0).collect();

        let max_s = simd::row_max_scalar(&row);
        let max_v = simd::row_max_force(&row).expect("avx2 available");
        assert_eq!(max_s.to_bits(), max_v.to_bits(), "row_max trial {trial}");

        // softmax = shift by max, exp+sum (scalar in both paths), scale
        let c = 1.0 / row.iter().map(|&x| (x - max_s).exp()).sum::<f32>();
        let mut scalar = row.clone();
        let mut vector = row.clone();
        simd::scale_in_place_scalar(&mut scalar, c);
        assert!(simd::scale_in_place_force(&mut vector, c));
        assert_eq!(bits(&scalar), bits(&vector), "scale trial {trial}");

        let mut scalar = row.clone();
        let mut vector = row.clone();
        simd::shift_in_place_scalar(&mut scalar, max_s);
        assert!(simd::shift_in_place_force(&mut vector, max_s));
        assert_eq!(bits(&scalar), bits(&vector), "shift trial {trial}");
    }
}

#[test]
fn layer_norm_affine_simd_and_scalar_are_bit_identical() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(43);
    for trial in 0..60 {
        let n = 1 + (rng.gen::<u32>() as usize) % 97;
        let row: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() * 6.0 - 3.0).collect();
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        let mut scalar = vec![0.0f32; n];
        let mut vector = vec![0.0f32; n];
        simd::affine_row_scalar(&mut scalar, &row, mean, inv);
        assert!(simd::affine_row_force(&mut vector, &row, mean, inv));
        assert_eq!(bits(&scalar), bits(&vector), "affine trial {trial}");
    }
}

#[test]
fn full_graph_forward_and_gradients_match_dispatched_kernels() {
    // Whatever the ambient RPT_SIMD setting, the dispatched kernels must
    // agree bitwise with the pure-scalar composition of the same graph.
    let mut rng = SmallRng::seed_from_u64(44);
    let x = init::normal(&[6, 32], 1.0, &mut rng);
    let w = init::normal(&[32, 24], 1.0, &mut rng);

    let tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let wv = tape.leaf(w.clone());
    let h = tape.layer_norm(tape.matmul(xv, wv), 1e-5);
    let s = tape.softmax_last(h);
    let loss = tape.sum_all(tape.mul(s, s));
    let grads = tape.backward(loss);

    // scalar reference for the first matmul
    let mut reference = vec![0.0f32; 6 * 24];
    matmul_rows_blocked_force(x.data(), w.data(), &mut reference, 6, 32, 24, false);
    let got = tape.value(tape.matmul(xv, wv));
    assert_eq!(bits(&reference), bits(got.data()));
    assert!(grads.get(xv).is_some() && grads.get(wv).is_some());
}

#[test]
fn matmul_never_schedules_more_chunks_than_hardware_threads() {
    // Regression for the PR-3 negative scaling: a 4-thread pool on a
    // 1-thread box must not fan a product out into 4 chunks.
    let hw = hardware_threads();
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let width = pool.dispatch_width().min(hw);
        for (m, k, n) in [
            (1, 64, 2000),
            (256, 64, 2000),
            (64, 64, 64),
            (4096, 128, 512),
        ] {
            let chunks = matmul_chunk_count(m, k, n, width);
            assert!(
                chunks <= hw,
                "{threads}-thread pool scheduled {chunks} chunks for \
                 {m}x{k}x{n} on {hw} hardware thread(s)"
            );
            assert!(chunks >= 1 && chunks <= m.max(1));
        }
    }
}

#[test]
fn chunk_cost_model_keeps_small_products_serial() {
    // A decode-step logit product on one row must never be split, and
    // tiny products must stay serial even on wide pools.
    assert_eq!(matmul_chunk_count(1, 64, 2000, 8), 1);
    assert_eq!(matmul_chunk_count(8, 8, 8, 8), 1);
    // A large product on a wide pool splits, but each chunk keeps at
    // least the cost-model minimum of work.
    let (m, k, n) = (4096, 128, 512);
    let chunks = matmul_chunk_count(m, k, n, 8);
    assert!(
        chunks > 1,
        "large products should parallelize on wide pools"
    );
    let madds_per_chunk = m.div_ceil(chunks) * k * n;
    assert!(madds_per_chunk >= rpt::tensor::PAR_MIN_MADDS_PER_CHUNK);
}

#[test]
fn parallel_matmul_is_bit_identical_across_pool_widths_and_kernels() {
    let mut rng = SmallRng::seed_from_u64(45);
    let a = init::normal(&[64, 48], 1.0, &mut rng);
    let b = init::normal(&[48, 96], 1.0, &mut rng);
    let reference: Tensor = a.matmul2d_with(&b, &ThreadPool::new(1));
    for threads in [2usize, 3, 4] {
        let out = a.matmul2d_with(&b, &ThreadPool::new(threads));
        assert_eq!(
            bits(reference.data()),
            bits(out.data()),
            "pool width {threads} changed matmul bits"
        );
    }
}

/// Bits with every NaN folded to one class: IEEE leaves a NaN result's
/// sign and payload open, and x86 propagates whichever NaN operand the
/// compiler put first.
fn class_bits(xs: &[f32]) -> Vec<u32> {
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

/// `len` deterministic values, mostly finite and signed, with a few
/// ±0.0, ±inf and NaN entries planted so some outputs go to ±inf, some to
/// NaN and some sum exact zeros.
fn remainder_values(len: usize, rng: &mut SmallRng) -> Vec<f32> {
    let mut xs: Vec<f32> = (0..len).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect();
    let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (i, &special) in specials.iter().enumerate() {
        // Zeros are planted more often than non-finite values, which
        // spread to every output that reads them.
        let copies = if i < 2 { 1 + len / 8 } else { 1 };
        for _ in 0..copies {
            if rng.gen::<u32>() % 3 == 0 {
                let at = rng.gen::<u32>() as usize % len;
                xs[at] = special;
            }
        }
    }
    xs
}

/// The reference product of row-major `a` (`[m, k]`) and `b` (`[k, n]`):
/// one accumulator per output element starting at `+0.0`, updated
/// `acc += a·b` in ascending `k`.
fn naive_product(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Every remainder-tile shape of the blocked kernel — `m % 4` rows,
/// `n % 16` columns, both at once, and single-tile products — checked
/// bit for bit (NaN as one class) against the naive ascending-`k` loop,
/// through each product entry point and both forced kernel choices.
/// Under `RPT_THREADS=4` the larger shapes split across threads at row
/// counts that are not multiples of 4, so chunk boundaries run remainder
/// tiles too.
#[test]
fn remainder_tiles_match_naive_ascending_k_loop() {
    let mut rng = SmallRng::seed_from_u64(46);
    let ns: Vec<usize> = (1..=17).chain([31, 33, 1000]).collect();
    for m in 1..=9 {
        for &n in &ns {
            for k in [1usize, 7, 16, 64] {
                let shape = format!("m={m} k={k} n={n}");
                let a = remainder_values(m * k, &mut rng);
                let b = remainder_values(k * n, &mut rng);
                let want = class_bits(&naive_product(&a, &b, (m, k, n)));

                for use_simd in [false, true] {
                    let mut got = vec![0.0f32; m * n];
                    matmul_rows_blocked_force(&a, &b, &mut got, m, k, n, use_simd);
                    assert_eq!(
                        class_bits(&got),
                        want,
                        "forced kernel simd={use_simd} {shape}"
                    );
                }

                let at = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
                let bt = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
                assert_eq!(
                    class_bits(at.matmul2d(&bt).data()),
                    want,
                    "matmul2d {shape}"
                );

                // `a` stored [k, m] for matmul_tn, `b` stored [n, k] for
                // matmul_nt: both read transposed in place.
                let a_t: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
                let b_t: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
                let a_tt = Tensor::from_vec(a_t, &[k, m]).unwrap();
                let b_tt = Tensor::from_vec(b_t, &[n, k]).unwrap();
                assert_eq!(
                    class_bits(a_tt.matmul_tn(&bt).data()),
                    want,
                    "matmul_tn {shape}"
                );
                assert_eq!(
                    class_bits(at.matmul_nt(&b_tt).data()),
                    want,
                    "matmul_nt {shape}"
                );

                // bmm: the same product in batch 0, a fresh one in batch 1.
                let a1 = remainder_values(m * k, &mut rng);
                let b1 = remainder_values(k * n, &mut rng);
                let want1 = class_bits(&naive_product(&a1, &b1, (m, k, n)));
                let a3 = Tensor::from_vec([a.as_slice(), &a1].concat(), &[2, m, k]).unwrap();
                let b3 = Tensor::from_vec([b.as_slice(), &b1].concat(), &[2, k, n]).unwrap();
                let got = class_bits(a3.bmm(&b3).data());
                assert_eq!(got[..m * n], want[..], "bmm batch 0 {shape}");
                assert_eq!(got[m * n..], want1[..], "bmm batch 1 {shape}");
            }
        }
    }
}

/// Runs `xs` through the scalar and the forced AVX2 `tanh` and returns
/// both results, NaN folded to one class.
fn tanh_both(xs: &[f32]) -> (Vec<u32>, Vec<u32>) {
    let mut scalar = xs.to_vec();
    let mut vector = xs.to_vec();
    simd::tanh_scalar(&mut scalar);
    assert!(simd::tanh_force(&mut vector), "avx2 available");
    (class_bits(&scalar), class_bits(&vector))
}

/// The branch boundaries of fdlibm's `tanhf` (`|x|` at 2^-55, 1 and 22)
/// and of the `expm1f` it calls on `±2|x|` (2^-25, 0.5 ln2, 1.5 ln2 and
/// every change of the reduction's `k`), a few ulps either side, both
/// signs, plus ±0, subnormals, ±inf and NaN. Each value fills a whole
/// 8-block, so in-range values run the vector lanes and the others the
/// scalar fallback; a second pass packs them densely, so mixed blocks
/// and the remainder lanes run too.
#[test]
fn tanh_branch_boundaries_simd_and_scalar_are_bit_identical() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    // expm1f's argument is 2|x|: halving subtracts one from the exponent
    let half = |bits: u32| bits - (1 << 23);
    let mut centres: Vec<u32> = vec![
        0x2400_0000, // tanhf: |x| < 2^-55
        0x3f80_0000, // tanhf: |x| >= 1
        0x41b0_0000, // tanhf: |x| >= 22
        0x3eb1_7218, // the expm1f thresholds as tanh inputs
        0x3f85_1592,
        half(0x3300_0000), // expm1f: |x| < 2^-25
        half(0x3eb1_7218), // expm1f: |x| > 0.5 ln2
        half(0x3f85_1592), // expm1f: |x| < 1.5 ln2
    ];
    // expm1f's k = trunc(2|x|/ln2 + 0.5) steps at 2|x| = (k - 0.5) ln2
    for k in 2..=64 {
        let x = (k as f64 - 0.5) * std::f64::consts::LN_2 / 2.0;
        centres.push((x as f32).to_bits());
    }
    let mut values: Vec<f32> = Vec::new();
    for c in centres {
        for b in c - 3..=c + 3 {
            values.push(f32::from_bits(b));
            values.push(-f32::from_bits(b));
        }
    }
    values.extend([
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x0040_0000),
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ]);
    for &v in &values {
        let (scalar, vector) = tanh_both(&[v; 8]);
        assert_eq!(scalar, vector, "tanh({v:e}) bits {:#010x}", v.to_bits());
    }
    for len in [1, 7, 8, 9, 33] {
        for piece in values.chunks(len) {
            let (scalar, vector) = tanh_both(piece);
            assert_eq!(scalar, vector, "tanh over {piece:?}");
        }
    }
}

/// About a million bit patterns, a fixed odd stride apart, cut into
/// slices of 1, 7, 8, 9 and 33 elements in turn so that full 8-blocks,
/// remainder lanes and both together all run.
#[test]
fn tanh_strided_sweep_simd_and_scalar_are_bit_identical() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let values: Vec<f32> = (0..=u32::MAX / 4099)
        .map(|i| f32::from_bits(i * 4099))
        .collect();
    let mut rest = values.as_slice();
    for len in [1, 7, 8, 9, 33].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(len.min(rest.len()));
        let (scalar, vector) = tanh_both(piece);
        assert_eq!(scalar, vector, "tanh over {piece:?}");
        rest = tail;
    }
}

/// Every one of the 2^32 inputs, AVX2 against the scalar twin (NaN as one
/// class). About 30 s in release mode on two threads;
/// `scripts/verify.sh` runs it with
/// `cargo test --release --test simd_equivalence -- --ignored`.
#[test]
#[ignore = "exhaustive: run in release mode with --ignored"]
fn tanh_exhaustive_sweep_simd_matches_scalar() {
    if !simd::simd_available() {
        eprintln!("skipping: AVX2 not available on this host");
        return;
    }
    let threads = hardware_threads().clamp(1, 4) as u64;
    let per_thread = (1u64 << 32) / threads;
    let mismatches: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut bad = 0u64;
                    let mut block = vec![0.0f32; 4096];
                    let (start, end) = (t * per_thread, (t + 1) * per_thread);
                    for base in (start..end).step_by(block.len()) {
                        for (i, x) in block.iter_mut().enumerate() {
                            *x = f32::from_bits((base + i as u64) as u32);
                        }
                        let (scalar, vector) = tanh_both(&block);
                        for (i, (s, v)) in scalar.iter().zip(&vector).enumerate() {
                            if s != v {
                                if bad < 8 {
                                    eprintln!(
                                        "tanh mismatch at {:#010x}: scalar {s:#010x}, avx2 {v:#010x}",
                                        base + i as u64
                                    );
                                }
                                bad += 1;
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(mismatches, 0, "tanh: AVX2 and scalar disagree");
}
