//! Int8 weight quantization and exact integer matmul kernels.
//!
//! Weights are quantized **per output row** with a symmetric i8 scheme
//! (`scale = max_abs / 127`, no zero point); activations are quantized
//! **per input row** with an asymmetric u8 scheme (`scale`, `zero`). The
//! product accumulates in `i32`, corrects the activation zero point with a
//! precomputed per-row weight sum, and rescales to `f32` once per output
//! element:
//!
//! ```text
//! acc      = Σ_k  q_a[k] · q_w[k]              (i32, exact)
//! out[i,j] = (acc − zero_a · row_sum_w[j]) as f32 · (scale_a · scale_w[j])
//! ```
//!
//! Unlike the f32 kernels in [`crate::simd`], bit-identity between the
//! scalar and AVX2 paths needs no care about operation order: integer
//! addition is associative and every product fits comfortably in `i32`
//! (`|q_a·q_w| ≤ 255·127 = 32385`, so `k` up to 2¹⁶ rows cannot overflow
//! a 32-bit accumulator). Only the integer dot product is vectorized; the
//! activation quantization and the final f32 rescale are shared scalar
//! code, so `RPT_SIMD=0` and `RPT_SIMD=1` produce byte-identical logits
//! by construction (locked down by `tests/quant_equivalence.rs`).
//!
//! The AVX2 microkernel follows the `_mm256_maddubs_epi16` idiom but uses
//! explicit u8→i16 / i8→i16 widening plus `_mm256_madd_epi16`:
//! `maddubs` saturates its i16 pair-sums (255·127·2 = 64770 > i16::MAX),
//! which would break exactness; the widened form pairs products of at
//! most 32385 into i32 lanes and stays exact for every input.

/// Hard ceiling on the inner dimension `k`: `255·127·2^16 < 2^31`, so any
/// `k ≤ 2^16` is provably overflow-free in a 32-bit accumulator.
pub const QMATMUL_MAX_K: usize = 1 << 16;

/// A per-row symmetric int8 weight matrix, stored `[n_out, k]` row-major
/// so the quantized matmul is a contiguous row-dot-row. For a dense layer
/// `y = x W` with `W: [k, n_out]`, row `j` holds the quantized `j`-th
/// *column* of `W` (see [`QuantMatrix::quantize_transposed`]); for a tied
/// output projection over an embedding table `E: [vocab, d]`, rows
/// quantize directly (see [`QuantMatrix::quantize_rows`]).
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    n_out: usize,
    k: usize,
    /// `[n_out, k]` row-major quantized weights, each in `[-127, 127]`.
    data: Vec<i8>,
    /// Per-output-row dequantization scale.
    scales: Vec<f32>,
    /// Per-output-row `Σ_k data[j,k]` for the zero-point correction.
    row_sums: Vec<i32>,
}

impl QuantMatrix {
    /// Output rows (output features of the product).
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Inner dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The raw quantized weights, `[n_out, k]` row-major.
    pub fn weights(&self) -> &[i8] {
        &self.data
    }

    /// Per-output-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Rebuilds a matrix from serialized parts, recomputing the row sums.
    ///
    /// # Panics
    /// If the part lengths disagree with `n_out`/`k`, or `k` exceeds
    /// [`QMATMUL_MAX_K`].
    pub fn from_parts(n_out: usize, k: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        assert!(
            k <= QMATMUL_MAX_K,
            "quant inner dim {k} exceeds {QMATMUL_MAX_K}"
        );
        assert_eq!(data.len(), n_out * k, "quant data length mismatch");
        assert_eq!(scales.len(), n_out, "quant scales length mismatch");
        let row_sums = (0..n_out)
            .map(|j| data[j * k..(j + 1) * k].iter().map(|&w| w as i32).sum())
            .collect();
        Self {
            n_out,
            k,
            data,
            scales,
            row_sums,
        }
    }

    /// Quantizes a `[n_out, k]` row-major f32 matrix per row (the tied
    /// projection case: an embedding table's rows are output channels).
    pub fn quantize_rows(rows: &[f32], n_out: usize, k: usize) -> Self {
        assert!(
            k <= QMATMUL_MAX_K,
            "quant inner dim {k} exceeds {QMATMUL_MAX_K}"
        );
        assert_eq!(rows.len(), n_out * k, "quantize_rows size mismatch");
        let mut data = vec![0i8; n_out * k];
        let mut scales = vec![0.0f32; n_out];
        for j in 0..n_out {
            let src = &rows[j * k..(j + 1) * k];
            let max_abs = src.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            scales[j] = scale;
            for (o, &x) in data[j * k..(j + 1) * k].iter_mut().zip(src) {
                *o = (x / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Self::from_parts(n_out, k, data, scales)
    }

    /// Quantizes a dense-layer weight `W: [k, n_out]` (the `xW` layout
    /// [`crate::Tensor::matmul2d`] consumes) per *output column*, storing
    /// the transposed `[n_out, k]` form this kernel wants.
    pub fn quantize_transposed(w: &[f32], k: usize, n_out: usize) -> Self {
        assert_eq!(w.len(), k * n_out, "quantize_transposed size mismatch");
        let mut rows = vec![0.0f32; n_out * k];
        for kk in 0..k {
            for j in 0..n_out {
                rows[j * k + kk] = w[kk * n_out + j];
            }
        }
        Self::quantize_rows(&rows, n_out, k)
    }

    /// Dequantizes back to `[n_out, k]` f32 rows (round-trip testing and
    /// error measurement).
    pub fn dequantize_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n_out * self.k];
        for j in 0..self.n_out {
            let s = self.scales[j];
            for (o, &q) in out[j * self.k..(j + 1) * self.k]
                .iter_mut()
                .zip(&self.data[j * self.k..(j + 1) * self.k])
            {
                *o = q as f32 * s;
            }
        }
        out
    }

    /// `x · Wᵀ` for f32 activations `x: [m, k]`, returning `[m, n_out]`.
    /// Activations are quantized per row, the integer product runs on the
    /// dispatched kernel (AVX2 when [`crate::simd::simd_enabled`]), and
    /// the result is rescaled to f32. Serial over rows by design: output
    /// bits are independent of thread count and of `RPT_SIMD`.
    pub fn matmul_f32(&self, x: &[f32], m: usize) -> Vec<f32> {
        self.matmul_f32_with(x, m, crate::simd::simd_enabled())
    }

    /// [`Self::matmul_f32`] with the kernel choice forced, for the
    /// bitwise equivalence suite. `use_simd: true` silently falls back to
    /// scalar when AVX2 is unavailable (prefer
    /// [`crate::simd::simd_available`] to detect that case).
    pub fn matmul_f32_with(&self, x: &[f32], m: usize, use_simd: bool) -> Vec<f32> {
        assert_eq!(x.len(), m * self.k, "quant matmul activation size mismatch");
        let mut out = vec![0.0f32; m * self.n_out];
        let mut qrow = vec![0u8; self.k];
        for i in 0..m {
            let row = &x[i * self.k..(i + 1) * self.k];
            let (a_scale, a_zero) = quantize_activation_row(row, &mut qrow);
            let dst = &mut out[i * self.n_out..(i + 1) * self.n_out];
            for (j, ((d, &row_sum), &scale)) in dst
                .iter_mut()
                .zip(&self.row_sums)
                .zip(&self.scales)
                .enumerate()
            {
                let w = &self.data[j * self.k..(j + 1) * self.k];
                let acc = qdot(&qrow, w, use_simd);
                let corrected = acc - a_zero * row_sum;
                *d = corrected as f32 * (a_scale * scale);
            }
        }
        out
    }
}

/// Quantizes one f32 activation row to asymmetric u8 into `q`, returning
/// `(scale, zero)` such that `x ≈ (q − zero) · scale`. Pure scalar and
/// shared by both kernel paths, so it never forks the numerics.
pub fn quantize_activation_row(row: &[f32], q: &mut [u8]) -> (f32, i32) {
    debug_assert_eq!(row.len(), q.len());
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !(lo.is_finite() && hi.is_finite()) {
        // Empty row (or non-finite garbage a caller should never produce):
        // encode as all-zero with identity scale.
        q.iter_mut().for_each(|o| *o = 0);
        return (1.0, 0);
    }
    // The range must straddle zero so `zero` lands in [0, 255].
    lo = lo.min(0.0);
    hi = hi.max(0.0);
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
    let zero = (-lo / scale).round().clamp(0.0, 255.0) as i32;
    for (o, &x) in q.iter_mut().zip(row) {
        *o = ((x / scale).round() + zero as f32).clamp(0.0, 255.0) as u8;
    }
    (scale, zero)
}

/// The integer dot product `Σ a[k]·w[k]`, dispatched by `use_simd`.
#[inline]
fn qdot(a: &[u8], w: &[i8], use_simd: bool) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if use_simd && crate::simd::simd_available() && a.len() >= 16 {
        // SAFETY: AVX2 presence checked via simd_available().
        return unsafe { qdot_avx2(a, w) };
    }
    let _ = use_simd;
    qdot_scalar(a, w)
}

/// Scalar twin of the int8 dot-product kernel, public for the
/// equivalence suite.
pub fn qdot_scalar(a: &[u8], w: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), w.len());
    a.iter()
        .zip(w.iter())
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum()
}

/// Forced-SIMD int8 dot product; `None` when AVX2 is unavailable.
pub fn qdot_force(a: &[u8], w: &[i8]) -> Option<i32> {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_available() {
        // SAFETY: feature presence checked above.
        return Some(unsafe { qdot_avx2(a, w) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (a, w);
    None
}

/// 16-lane AVX2 int8 dot product: u8 and i8 operands are widened to i16
/// (`cvtepu8`/`cvtepi8` — exact), pair-multiplied into i32 lanes with
/// `vpmaddwd` (products ≤ 32385, pair sums ≤ 64770 — exact in i32), and
/// accumulated with `vpaddd`. Every step is exact integer arithmetic, so
/// the horizontal sum order cannot matter and the result always equals
/// [`qdot_scalar`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qdot_avx2(a: &[u8], w: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), w.len());
    let k = a.len();
    let chunks = k / 16;
    let mut acc = _mm256_setzero_si256();
    for c in 0..chunks {
        let av = _mm_loadu_si128(a.as_ptr().add(c * 16) as *const __m128i);
        let wv = _mm_loadu_si128(w.as_ptr().add(c * 16) as *const __m128i);
        let a16 = _mm256_cvtepu8_epi16(av);
        let w16 = _mm256_cvtepi8_epi16(wv);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, w16));
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut sum: i32 = lanes.iter().sum();
    for i in chunks * 16..k {
        sum += *a.get_unchecked(i) as i32 * *w.get_unchecked(i) as i32;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rpt_rng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn quantize_dequantize_roundtrip_error_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(7);
        let t = init::normal(&[12, 40], 1.0, &mut rng);
        let q = QuantMatrix::quantize_rows(t.data(), 12, 40);
        let back = q.dequantize_rows();
        for (j, (row, brow)) in t.data().chunks(40).zip(back.chunks(40)).enumerate() {
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let step = max_abs / 127.0;
            for (&x, &y) in row.iter().zip(brow) {
                assert!(
                    (x - y).abs() <= step * 0.5 + 1e-6,
                    "row {j}: {x} became {y} (step {step})"
                );
            }
        }
    }

    #[test]
    fn transposed_quantization_matches_row_quantization_of_wt() {
        let mut rng = SmallRng::seed_from_u64(8);
        let (k, n) = (9, 5);
        let w = init::normal(&[k, n], 1.0, &mut rng);
        // transpose by hand, quantize rows
        let mut wt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                wt[j * k + kk] = w.data()[kk * n + j];
            }
        }
        let a = QuantMatrix::quantize_transposed(w.data(), k, n);
        let b = QuantMatrix::quantize_rows(&wt, n, k);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.scales(), b.scales());
    }

    #[test]
    fn quant_matmul_approximates_f32_matmul() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (m, k, n) = (3, 32, 17);
        let x = init::normal(&[m, k], 1.0, &mut rng);
        let w = init::normal(&[k, n], 0.2, &mut rng);
        let exact = x.matmul2d(&w);
        let q = QuantMatrix::quantize_transposed(w.data(), k, n);
        let approx = q.matmul_f32(x.data(), m);
        let mut max_ref = 0.0f32;
        let mut max_err = 0.0f32;
        for (&e, &a) in exact.data().iter().zip(&approx) {
            max_ref = max_ref.max(e.abs());
            max_err = max_err.max((e - a).abs());
        }
        assert!(
            max_err <= max_ref * 0.05 + 0.05,
            "quant error {max_err} vs magnitude {max_ref}"
        );
    }

    #[test]
    fn scalar_and_forced_simd_dots_agree_exactly() {
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..200 {
            let k = 1 + (rng.gen::<u32>() as usize) % 130;
            let a: Vec<u8> = (0..k).map(|_| (rng.gen::<u32>() & 0xff) as u8).collect();
            let w: Vec<i8> = (0..k)
                .map(|_| ((rng.gen::<u32>() % 255) as i32 - 127) as i8)
                .collect();
            let s = qdot_scalar(&a, &w);
            if let Some(v) = qdot_force(&a, &w) {
                assert_eq!(s, v, "k={k}");
            }
        }
    }

    #[test]
    fn extreme_operands_do_not_overflow() {
        // worst case: every product at maximum magnitude, long k
        let k = 4096;
        let a = vec![255u8; k];
        let w = vec![-127i8; k];
        let expect = -(255i64 * 127 * k as i64);
        assert_eq!(qdot_scalar(&a, &w) as i64, expect);
        if let Some(v) = qdot_force(&a, &w) {
            assert_eq!(v as i64, expect);
        }
    }

    #[test]
    fn activation_zero_point_represents_zero_exactly() {
        // rows that never cross zero still get an in-range zero point,
        // and a zero activation quantizes back to exactly zero
        let row = [2.0f32, 3.0, 4.0, 0.0];
        let mut q = [0u8; 4];
        let (scale, zero) = quantize_activation_row(&row, &mut q);
        assert!((0..=255).contains(&zero));
        let z = (q[3] as i32 - zero) as f32 * scale;
        assert_eq!(z, 0.0, "zero must survive quantization exactly");
    }

    #[test]
    fn from_parts_recomputes_row_sums() {
        let q = QuantMatrix::quantize_rows(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0], 2, 3);
        let rebuilt = QuantMatrix::from_parts(2, 3, q.weights().to_vec(), q.scales().to_vec());
        let x = [0.5f32, -1.5, 2.5, 1.0, 0.0, -1.0];
        let a = q.matmul_f32(&x, 2);
        let b = rebuilt.matmul_f32(&x, 2);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_inner_dim_panics() {
        QuantMatrix::from_parts(1, QMATMUL_MAX_K + 1, vec![0; QMATMUL_MAX_K + 1], vec![1.0]);
    }
}
