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
