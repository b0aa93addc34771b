//! Runtime-dispatched x86_64 SIMD kernels (AVX2 f32x8), **bit-identical**
//! to their scalar twins.
//!
//! Every vector kernel here performs exactly the same IEEE-754 operation
//! sequence per output element as the scalar code it replaces:
//!
//! * multiply-accumulates are a separate `vmulps` + `vaddps` (never
//!   `vfmadd`, whose single rounding would change low bits) — except in
//!   [`exp`], whose scalar twin fuses exactly where its vector twin does,
//! * reductions that are rounding-sensitive (sums) keep the scalar
//!   sequential order — only order-insensitive reductions (`max`) and
//!   pure elementwise stages are vectorized,
//! * remainder lanes run the identical scalar loop.
//!
//! The two transcendentals are in-repo ports, so their bits do not depend
//! on the platform libm; on a host whose libm differs, checkpoints differ
//! from those of builds that called it.
//!
//! * [`tanh`] (GELU): the scalar twin ports fdlibm's `tanhf` and `expm1f`
//!   (glibc's `libm.so.6` runs the same code, as plain SSE scalar
//!   operations with no FMA). The AVX2 twin runs that operation sequence
//!   on each lane: every branch either routine reaches is computed on all
//!   lanes and blended by the lane's own condition, and an 8-block holding
//!   a lane outside `2^-55 <= |x| < 22` (±0, tiny values, saturated
//!   values, ±inf, NaN) runs the scalar twin.
//! * [`exp`] (softmax, log-softmax, sigmoid, log-sum-exp): the scalar
//!   twin ports glibc 2.36's `expf` as its FMA build runs it (a 32-entry
//!   table of `2^(i/32)` and a cubic, in double precision, with fused
//!   multiply-adds). The AVX2+FMA twin runs the main path on two halves of
//!   four doubles and blends in the lanes `expf` answers early
//!   (underflow, overflow, NaN).
//!
//! Blends are easy to get subtly wrong, so each identity is proven by
//! trying every input: exhaustive 2^32 sweeps in
//! `tests/simd_equivalence.rs` (ignored by default; `scripts/verify.sh`
//! runs them in release mode), the `exp` one also against the platform's
//! `f32::exp`.
//!
//! Consequence: `RPT_SIMD=0` and `RPT_SIMD=1` produce byte-identical
//! tensors, checkpoints, and loss curves (locked down by
//! `tests/simd_equivalence.rs`), so the scalar path is a belt-and-braces
//! escape hatch and a benchmark baseline, not a numerics fork.
//!
//! ## Dispatch
//!
//! [`simd_enabled`] is resolved once per process: the CPU must report
//! AVX2 (`is_x86_feature_detected!`) and `RPT_SIMD` must not be `0`.
//! [`exp`]'s vector twin needs FMA as well; its scalar twin uses FMA
//! instructions where the CPU has them, whatever `RPT_SIMD` says (the
//! rounding is the same either way).
//! Non-x86_64 builds compile only the scalar twins and the dispatchers
//! become direct calls.
//!
//! NaN caveat: `_mm256_max_ps` and `f32::max` disagree on NaN operand
//! selection; [`row_max`] is only order/lane-identical for inputs without
//! NaNs, which every caller (softmax, log-softmax) already requires for a
//! meaningful result.

use std::sync::OnceLock;

/// True when the AVX2 kernels are compiled in and the CPU reports AVX2.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Detected CPU features relevant to kernel dispatch, comma-separated
/// (e.g. `"sse2,avx,avx2,fma"`), for bench artifacts: two runs of the
/// same benchmark are only comparable when this string matches.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = Vec::new();
        for (name, on) in [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                feats.push(name);
            }
        }
        feats.join(",")
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon".to_string() // baseline on aarch64
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        String::new()
    }
}

/// The process-wide kernel choice: [`simd_available`] and `RPT_SIMD` is
/// not `"0"` (unset or any other value keeps SIMD on where available).
/// Read once; tests that need both paths in one process use the
/// `*_force` entry points instead of the environment.
pub fn simd_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        let forced_off = std::env::var("RPT_SIMD")
            .map(|v| v.trim() == "0")
            .unwrap_or(false);
        simd_available() && !forced_off
    })
}

// ----------------------------------------------------------------------
// Row max (softmax / log-softmax stabilization)
// ----------------------------------------------------------------------

/// Maximum over a row, `NEG_INFINITY` for an empty one. Dispatched.
pub fn row_max(xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && xs.len() >= 8 {
        // SAFETY: simd_enabled() implies AVX2 was detected at runtime.
        return unsafe { row_max_avx2(xs) };
    }
    row_max_scalar(xs)
}

/// Scalar twin of [`row_max`], public for the equivalence suite.
pub fn row_max_scalar(xs: &[f32]) -> f32 {
    xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
}

/// Forced-SIMD [`row_max`]; `None` when AVX2 is unavailable.
pub fn row_max_force(xs: &[f32]) -> Option<f32> {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: feature presence checked above.
        return Some(unsafe { row_max_avx2(xs) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = xs;
    None
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_max_avx2(xs: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let chunks = xs.len() / 8;
    let mut m = f32::NEG_INFINITY;
    if chunks > 0 {
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        for c in 0..chunks {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(xs.as_ptr().add(c * 8)));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for &l in &lanes {
            m = m.max(l);
        }
    }
    for &x in &xs[chunks * 8..] {
        m = m.max(x);
    }
    m
}

// ----------------------------------------------------------------------
// Elementwise scale / shift (softmax normalize, log-softmax shift,
// layer-norm output)
// ----------------------------------------------------------------------

/// `xs[i] *= c`. Exact per lane, so SIMD and scalar agree bitwise.
pub fn scale_in_place(xs: &mut [f32], c: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && xs.len() >= 8 {
        // SAFETY: simd_enabled() implies AVX2.
        unsafe { scale_in_place_avx2(xs, c) };
        return;
    }
    scale_in_place_scalar(xs, c);
}

/// Scalar twin of [`scale_in_place`].
pub fn scale_in_place_scalar(xs: &mut [f32], c: f32) {
    for x in xs.iter_mut() {
        *x *= c;
    }
}

/// Forced-SIMD [`scale_in_place`]; `false` when AVX2 is unavailable.
pub fn scale_in_place_force(xs: &mut [f32], c: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: feature presence checked above.
        unsafe { scale_in_place_avx2(xs, c) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (xs, c);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_in_place_avx2(xs: &mut [f32], c: f32) {
    use std::arch::x86_64::*;
    let chunks = xs.len() / 8;
    let cv = _mm256_set1_ps(c);
    let p = xs.as_mut_ptr();
    for i in 0..chunks {
        let v = _mm256_loadu_ps(p.add(i * 8));
        _mm256_storeu_ps(p.add(i * 8), _mm256_mul_ps(v, cv));
    }
    for x in &mut xs[chunks * 8..] {
        *x *= c;
    }
}

/// `xs[i] -= c`. Exact per lane.
pub fn shift_in_place(xs: &mut [f32], c: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && xs.len() >= 8 {
        // SAFETY: simd_enabled() implies AVX2.
        unsafe { shift_in_place_avx2(xs, c) };
        return;
    }
    shift_in_place_scalar(xs, c);
}

/// Scalar twin of [`shift_in_place`].
pub fn shift_in_place_scalar(xs: &mut [f32], c: f32) {
    for x in xs.iter_mut() {
        *x -= c;
    }
}

/// Forced-SIMD [`shift_in_place`]; `false` when AVX2 is unavailable.
pub fn shift_in_place_force(xs: &mut [f32], c: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: feature presence checked above.
        unsafe { shift_in_place_avx2(xs, c) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (xs, c);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn shift_in_place_avx2(xs: &mut [f32], c: f32) {
    use std::arch::x86_64::*;
    let chunks = xs.len() / 8;
    let cv = _mm256_set1_ps(c);
    let p = xs.as_mut_ptr();
    for i in 0..chunks {
        let v = _mm256_loadu_ps(p.add(i * 8));
        _mm256_storeu_ps(p.add(i * 8), _mm256_sub_ps(v, cv));
    }
    for x in &mut xs[chunks * 8..] {
        *x -= c;
    }
}

/// `dst[i] = (src[i] - shift) * scale` — the layer-norm output stage.
/// Subtract then multiply, each rounded, identically in both paths.
pub fn affine_row(dst: &mut [f32], src: &[f32], shift: f32, scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && src.len() >= 8 {
        // SAFETY: simd_enabled() implies AVX2.
        unsafe { affine_row_avx2(dst, src, shift, scale) };
        return;
    }
    affine_row_scalar(dst, src, shift, scale);
}

/// Scalar twin of [`affine_row`].
pub fn affine_row_scalar(dst: &mut [f32], src: &[f32], shift: f32, scale: f32) {
    for (o, &x) in dst.iter_mut().zip(src.iter()) {
        *o = (x - shift) * scale;
    }
}

/// Forced-SIMD [`affine_row`]; `false` when AVX2 is unavailable.
pub fn affine_row_force(dst: &mut [f32], src: &[f32], shift: f32, scale: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: feature presence checked above.
        unsafe { affine_row_avx2(dst, src, shift, scale) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (dst, src, shift, scale);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn affine_row_avx2(dst: &mut [f32], src: &[f32], shift: f32, scale: f32) {
    use std::arch::x86_64::*;
    let chunks = src.len() / 8;
    let sh = _mm256_set1_ps(shift);
    let sc = _mm256_set1_ps(scale);
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    for i in 0..chunks {
        let v = _mm256_loadu_ps(sp.add(i * 8));
        _mm256_storeu_ps(dp.add(i * 8), _mm256_mul_ps(_mm256_sub_ps(v, sh), sc));
    }
    for (o, &x) in dst[chunks * 8..].iter_mut().zip(src[chunks * 8..].iter()) {
        *o = (x - shift) * scale;
    }
}

// ----------------------------------------------------------------------
// tanh (GELU, the classifier pooler)
// ----------------------------------------------------------------------

/// `xs[i] = tanh(xs[i])`, in place. Dispatched.
///
/// The scalar twin is a port of fdlibm's `s_tanhf.c` and `s_expm1f.c`
/// (see [`tanh_scalar`]), so the result does not depend on the platform
/// libm. The AVX2 twin runs the same IEEE operations per lane, with every
/// branch of the two routines computed and blended (see `tanh8_avx2`);
/// an 8-block holding a lane outside `2^-55 <= |x| < 22` runs the scalar
/// twin instead.
pub fn tanh(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && xs.len() >= 8 {
        // SAFETY: simd_enabled() implies AVX2.
        unsafe { tanh_avx2(xs) };
        return;
    }
    tanh_scalar(xs);
}

/// Scalar twin of [`tanh`]: fdlibm's `tanhf` on every element. This is
/// the code glibc's `libm.so.6` runs (as plain SSE scalar operations, no
/// FMA), so on glibc hosts it agrees with `f32::tanh` bit for bit
/// (checked on all 2^32 inputs against glibc 2.36).
pub fn tanh_scalar(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = tanhf(*x);
    }
}

/// Forced-SIMD [`tanh`]; `false` when AVX2 is unavailable.
pub fn tanh_force(xs: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // SAFETY: feature presence checked above.
        unsafe { tanh_avx2(xs) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = xs;
    false
}

// fdlibm s_expm1f.c constants.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// fdlibm `tanhf`, operation for operation.
fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN
        return if jx >> 31 == 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // ±0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2^-55
        }
        let ax = f32::from_bits(ix);
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(ax + ax);
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * ax);
            -t / (t + 2.0)
        }
    } else {
        // |x| >= 22: fdlibm's `one - tiny`, which rounds to 1
        1.0
    };
    if jx >> 31 == 0 {
        z
    } else {
        -z
    }
}

/// fdlibm `expm1f`, operation for operation, on the arguments [`tanhf`]
/// passes: finite, with `-2 < x < 0` or `2 <= x < 44`. The routine's
/// overflow and non-finite filter is left out, since it never fires there.
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    debug_assert!(hx < 0x42b1_7218 && !(neg && hx >= 0x4195_b844));
    // argument reduction: x = k ln2 + (x - c), |x - c| <= 0.5 ln2
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5 ln2
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INVLN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let xr = hi - lo;
        (xr, (hi - xr) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: fdlibm's `x - ((huge + x) - (huge + x))`, which is x
        return x;
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    // y * 2^k, by adding k to y's exponent field
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        1 if x < -0.25 => -2.0 * (e - (x + 0.5)),
        1 => 1.0 + 2.0 * (x - e),
        2..=22 => scale(f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x)),
        23..=56 => scale((x - (e + f32::from_bits(((0x7f - k) << 23) as u32))) + 1.0),
        _ => scale(1.0 - (e - x)) - 1.0, // k <= -2 or k > 56
    }
}

/// [`tanh`] on AVX2: [`tanh8_avx2`] on every 8-block whose lanes all lie
/// in `2^-55 <= |x| < 22`, the scalar twin on any other block and on the
/// remainder.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut blocks = xs.chunks_exact_mut(8);
    for b in &mut blocks {
        let v = _mm256_loadu_ps(b.as_ptr());
        let ix = _mm256_and_si256(_mm256_castps_si256(v), _mm256_set1_epi32(0x7fff_ffff));
        let inside = _mm256_and_si256(
            _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x23ff_ffff)),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(0x41b0_0000), ix),
        );
        if _mm256_movemask_ps(_mm256_castsi256_ps(inside)) == 0xff {
            _mm256_storeu_ps(b.as_mut_ptr(), tanh8_avx2(v, ix));
        } else {
            tanh_scalar(b);
        }
    }
    tanh_scalar(blocks.into_remainder());
}

/// [`tanhf`] on eight lanes with `2^-55 <= |x| < 22`; `ix` holds the bits
/// of `|x|`. Both branches of `tanhf` and every branch of `expm1f` they
/// reach are computed on all lanes and blended, so each lane sees exactly
/// its scalar operation sequence.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tanh8_avx2(
    x: std::arch::x86_64::__m256,
    ix: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let ps = |v: f32| _mm256_set1_ps(v);
    let sign = ps(-0.0);
    // |x| >= 1: t = expm1(2|x|), z = 1 - 2/(t + 2);
    // |x| <  1: t = expm1(-2|x|), z = -t/(t + 2)
    let big = _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7f_ffff)));
    let two_ax = _mm256_add_ps(_mm256_castsi256_ps(ix), _mm256_castsi256_ps(ix));
    let t = expm1_8_avx2(_mm256_blendv_ps(_mm256_xor_ps(two_ax, sign), two_ax, big));
    let num = _mm256_blendv_ps(_mm256_xor_ps(t, sign), ps(2.0), big);
    let q = _mm256_div_ps(num, _mm256_add_ps(t, ps(2.0)));
    let z = _mm256_blendv_ps(q, _mm256_sub_ps(ps(1.0), q), big);
    // tanh(-x) = -tanh(x)
    _mm256_xor_ps(z, _mm256_and_ps(x, sign))
}

/// [`expm1f`] on eight lanes with `-2 < x <= -2^-54` or `2 <= x < 44`,
/// the arguments [`tanh8_avx2`] passes. Positive lanes are at least
/// `1.5 ln2`, so the `k = 1` branch is never taken and is left out.
///
/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn expm1_8_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let ps = |v: f32| _mm256_set1_ps(v);
    let pi = |v: i32| _mm256_set1_epi32(v);
    let mask = |m: __m256i| _mm256_castsi256_ps(m);
    let hx = _mm256_and_si256(_mm256_castps_si256(x), pi(0x7fff_ffff));
    // |x| >= 1.5 ln2: k = trunc(x/ln2 ± 0.5) (`blendv` on `x` picks by
    // its sign bit), hi = x - k ln2_hi, lo = k ln2_lo
    let half = _mm256_blendv_ps(ps(0.5), ps(-0.5), x);
    let k_far = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(ps(INVLN2), x), half));
    let t = _mm256_cvtepi32_ps(k_far);
    let hi_far = _mm256_sub_ps(x, _mm256_mul_ps(t, ps(LN2_HI)));
    let lo_far = _mm256_mul_ps(t, ps(LN2_LO));
    // 0.5 ln2 < |x| < 1.5 ln2, negative here: k = -1
    let near = _mm256_cmpgt_epi32(pi(0x3f85_1592), hx);
    let hi = _mm256_blendv_ps(hi_far, _mm256_add_ps(x, ps(LN2_HI)), mask(near));
    let lo = _mm256_blendv_ps(lo_far, ps(-LN2_LO), mask(near));
    let k = _mm256_blendv_epi8(k_far, pi(-1), near);
    let xr = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);
    // |x| <= 0.5 ln2: no reduction, k = 0
    let reduced = _mm256_cmpgt_epi32(hx, pi(0x3eb1_7218));
    let xr = _mm256_blendv_ps(x, xr, mask(reduced));
    let k = _mm256_and_si256(k, reduced);

    let hfx = _mm256_mul_ps(ps(0.5), xr);
    let hxs = _mm256_mul_ps(xr, hfx);
    let mut r = _mm256_add_ps(ps(Q4), _mm256_mul_ps(hxs, ps(Q5)));
    for q in [Q3, Q2, Q1, 1.0] {
        r = _mm256_add_ps(ps(q), _mm256_mul_ps(hxs, r));
    }
    let r1 = r;
    let t = _mm256_sub_ps(ps(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(
            _mm256_sub_ps(r1, t),
            _mm256_sub_ps(ps(6.0), _mm256_mul_ps(xr, t)),
        ),
    );
    let y_k0 = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
    let e = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
        hxs,
    );
    let y_m1 = _mm256_sub_ps(_mm256_mul_ps(ps(0.5), _mm256_sub_ps(xr, e)), ps(0.5));
    // y * 2^k, by adding k to y's exponent field
    let k23 = _mm256_slli_epi32(k, 23);
    let scale = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k23));
    // 2 <= k <= 22: t = 1 - 2^-k
    let t_lo = _mm256_sub_epi32(pi(0x3f80_0000), _mm256_srlv_epi32(pi(0x0100_0000), k));
    let y_lo = scale(_mm256_sub_ps(mask(t_lo), _mm256_sub_ps(e, xr)));
    // 23 <= k <= 56: t = 2^-k
    let t_hi = _mm256_slli_epi32(_mm256_sub_epi32(pi(0x7f), k), 23);
    let y_hi = scale(_mm256_add_ps(
        _mm256_sub_ps(xr, _mm256_add_ps(e, mask(t_hi))),
        ps(1.0),
    ));
    // k <= -2 or k > 56
    let y_far = _mm256_sub_ps(scale(_mm256_sub_ps(ps(1.0), _mm256_sub_ps(e, xr))), ps(1.0));
    let far = _mm256_or_si256(_mm256_cmpgt_epi32(k, pi(56)), _mm256_cmpgt_epi32(pi(-1), k));
    let mut y = _mm256_blendv_ps(y_lo, y_hi, mask(_mm256_cmpgt_epi32(k, pi(22))));
    y = _mm256_blendv_ps(y, y_far, mask(far));
    y = _mm256_blendv_ps(y, y_m1, mask(_mm256_cmpeq_epi32(k, pi(-1))));
    y = _mm256_blendv_ps(y, y_k0, mask(_mm256_cmpeq_epi32(k, pi(0))));
    // |x| < 2^-25: x itself
    _mm256_blendv_ps(y, x, mask(_mm256_cmpgt_epi32(pi(0x3300_0000), hx)))
}

// ----------------------------------------------------------------------
// exp (softmax, log-softmax, sigmoid, log-sum-exp)
// ----------------------------------------------------------------------

/// `xs[i] = exp(xs[i])`, in place. Dispatched: the AVX2+FMA twin needs
/// both features and `RPT_SIMD` not `0`.
///
/// The scalar twin is a port of glibc 2.36's `expf` as built for FMA
/// hosts (see [`exp_scalar`]), so the result does not depend on the
/// platform libm. The AVX2 twin runs the same double-precision operations
/// on eight lanes (see `exp8_avx2`); a remainder of 1..=7 elements runs
/// the scalar twin's FMA-compiled loop.
pub fn exp(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() && fma_available() {
        // SAFETY: simd_enabled() implies AVX2; FMA checked above.
        unsafe { exp_avx2(xs) };
        return;
    }
    exp_scalar(xs);
}

/// Scalar twin of [`exp`]: glibc's `expf` (the `exp2f_data` 32-entry
/// table, evaluated in double precision with fused multiply-adds) on
/// every element. On glibc hosts with FMA it agrees with `f32::exp` bit
/// for bit (checked on all 2^32 inputs against glibc 2.36). Compiled with
/// FMA instructions where the CPU has them; elsewhere `mul_add` rounds the
/// same way in software.
pub fn exp_scalar(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA checked above.
        unsafe { exp_scalar_fma(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = expf(*x);
    }
}

/// Forced-SIMD [`exp`]; `false` when AVX2 or FMA is unavailable.
pub fn exp_force(xs: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if exp_available() {
        // SAFETY: exp_available() checked AVX2 and FMA.
        unsafe { exp_avx2(xs) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = xs;
    false
}

/// `Σ exp(x - shift)` over `xs`, summed in ascending order: the
/// denominator of a softmax and the argument of a log-sum-exp. The
/// shifted values are exponentiated through [`exp`] a stack block at a
/// time, so `xs` is not modified and nothing is allocated.
pub fn exp_sum(xs: &[f32], shift: f32) -> f32 {
    exp_sum_by(xs, shift, exp)
}

/// Scalar twin of [`exp_sum`].
pub fn exp_sum_scalar(xs: &[f32], shift: f32) -> f32 {
    exp_sum_by(xs, shift, exp_scalar)
}

/// Forced-SIMD [`exp_sum`]; `None` when AVX2 or FMA is unavailable.
pub fn exp_sum_force(xs: &[f32], shift: f32) -> Option<f32> {
    exp_available().then(|| {
        exp_sum_by(xs, shift, |b| {
            exp_force(b);
        })
    })
}

/// `xs[i] = exp(xs[i] - shift)` in place, returning `Σ xs[i]` summed in
/// ascending order, in one fused scalar pass. For rows shorter than one
/// 8-block (decode self-attention at `t < 8`), where separate shift, `exp`
/// and sum passes cost more than the exponentials; the bits equal those of
/// [`shift_in_place`], [`exp`] and an ascending sum.
pub fn exp_shift_sum_in_place(xs: &mut [f32], shift: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: FMA checked above.
        return unsafe { exp_shift_sum_fma(xs, shift) };
    }
    exp_shift_sum_loop(xs, shift)
}

#[inline(always)]
fn exp_shift_sum_loop(xs: &mut [f32], shift: f32) -> f32 {
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = expf(*x - shift);
        sum += *x;
    }
    sum
}

/// [`exp_shift_sum_in_place`]'s loop compiled with FMA.
///
/// # Safety
/// Caller must ensure FMA is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn exp_shift_sum_fma(xs: &mut [f32], shift: f32) -> f32 {
    exp_shift_sum_loop(xs, shift)
}

fn exp_sum_by(xs: &[f32], shift: f32, exp: impl Fn(&mut [f32])) -> f32 {
    let mut block = [0.0f32; 256];
    let mut sum = 0.0f32;
    for chunk in xs.chunks(block.len()) {
        let b = &mut block[..chunk.len()];
        for (d, &x) in b.iter_mut().zip(chunk) {
            *d = x - shift;
        }
        exp(b);
        for &e in b.iter() {
            sum += e;
        }
    }
    sum
}

/// True when [`exp_force`] can run: the CPU reports AVX2 and FMA.
fn exp_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_available() && fma_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the CPU reports FMA.
#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("fma"))
}

// glibc 2.36 e_exp2f_data.c (EXP2F_TABLE_BITS = 5): TAB[i] holds the bits
// of 2^(i/32) minus i << 47, so adding k << 47 scales it by 2^(k/32 - i/32).
const EXP2F_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// 32 / ln 2.
const EXPF_INVLN2N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// 1.5 * 2^52: adding it rounds to an integer held in the low mantissa bits.
const EXPF_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for 2^(r/32) - 1, highest degree first.
const EXPF_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// Above ln(2^128): the result overflows to +inf.
const EXPF_OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below ln(2^-150): the result underflows to +0.
const EXPF_UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Below ln(2^-149) (and not below [`EXPF_UFLOW`]): glibc returns the
/// smallest subnormal, `0x1.4p-75f * 0x1.4p-75f`.
const EXPF_MAY_UFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// glibc's `expf`, operation for operation, with the contractions of its
/// FMA build: `x * 32/ln2` is fused into both the rounding shift and the
/// reduced argument, and the cubic is three fused multiply-adds.
#[inline(always)]
fn expf(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= 0x42b {
        // |x| >= 88 or NaN
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x; // +inf, or NaN quieted
        }
        if x > EXPF_OFLOW {
            return f32::INFINITY;
        }
        if x < EXPF_UFLOW {
            return 0.0;
        }
        if x < EXPF_MAY_UFLOW {
            return f32::from_bits(1);
        }
    }
    // x * 32/ln2 = k + r, |r| <= 1/2, k an integer
    let xd = x as f64;
    let kd = EXPF_INVLN2N.mul_add(xd, EXPF_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXPF_SHIFT;
    let r = EXPF_INVLN2N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) * 2^(r/32) ~= s * (C0 r^3 + C1 r^2 + C2 r + 1)
    let s = f64::from_bits(EXP2F_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXPF_C[0].mul_add(r, EXPF_C[1]);
    let r2 = r * r;
    let y = EXPF_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// [`exp_scalar`]'s loop compiled with FMA, so `mul_add` is one `vfmadd`
/// instead of a libm call.
///
/// # Safety
/// Caller must ensure FMA is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn exp_scalar_fma(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = expf(*x);
    }
}

/// [`exp`] on AVX2+FMA: [`exp8_avx2`] on every 8-block, the FMA-compiled
/// scalar twin on the remainder. (A masked 8-lane block for the remainder
/// measured 3-5x slower than the scalar loop on 1-7 elements: a
/// `vmaskmovps` load cannot take its data from the row's just-written
/// stores.)
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut blocks = xs.chunks_exact_mut(8);
    for b in &mut blocks {
        _mm256_storeu_ps(b.as_mut_ptr(), exp8_avx2(_mm256_loadu_ps(b.as_ptr())));
    }
    exp_scalar_fma(blocks.into_remainder());
}

/// [`expf`] on eight lanes: the main path on two halves of four doubles
/// ([`exp4_avx2`]), then the lanes `expf` answers early (below
/// [`EXPF_MAY_UFLOW`], below [`EXPF_UFLOW`] or `-inf`, above
/// [`EXPF_OFLOW`] or `+inf`, NaN) blended in. Every other lane with
/// `|x| >= 88` takes the main path in `expf` too.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn exp8_avx2(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let lo = exp4_avx2(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
    let hi = exp4_avx2(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
    let y = _mm256_set_m128(hi, lo);
    let below = |c: f32| _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(c));
    let tiny = _mm256_castsi256_ps(_mm256_set1_epi32(1));
    let y = _mm256_blendv_ps(y, tiny, below(EXPF_MAY_UFLOW));
    let y = _mm256_andnot_ps(below(EXPF_UFLOW), y);
    let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXPF_OFLOW));
    let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(y, _mm256_add_ps(x, x), nan)
}

/// [`expf`]'s main path on four lanes already widened to double, rounded
/// back to four floats. Any input is safe: the table index is masked to
/// five bits.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn exp4_avx2(xd: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    let pd = |v: f64| _mm256_set1_pd(v);
    let kd = _mm256_fmadd_pd(pd(EXPF_INVLN2N), xd, pd(EXPF_SHIFT));
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, pd(EXPF_SHIFT));
    let r = _mm256_fmsub_pd(pd(EXPF_INVLN2N), xd, kd);
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let t = _mm256_i64gather_epi64::<8>(EXP2F_TAB.as_ptr().cast(), idx);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(pd(EXPF_C[0]), r, pd(EXPF_C[1]));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(pd(EXPF_C[2]), r, pd(1.0));
    let y = _mm256_fmadd_pd(z, r2, y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

// ----------------------------------------------------------------------
// Matmul register tile
// ----------------------------------------------------------------------

/// The `M x 16` register tile of the blocked matmul on AVX2, covering
/// every block shape the kernel meets: `M` = 4 output rows is a full row
/// block, `M` = 1..=3 the `rows % 4` remainder (and every decode-time
/// `m = 1` product); `nr` = 16 output columns is a full column tile,
/// `nr` = 1..=15 the `n % 16` tail. The `M x 2` (or, for `nr <= 8`,
/// `M x 1`) `f32x8` accumulators live in `ymm` registers for the whole
/// `k` loop — at most eight of them, plus two operand vectors and one
/// splat: 11 of 16, no spills.
///
/// A column tail loads its last `B` vector with `vmaskmovps`: lanes at
/// `nr` and beyond read as `0.0` (and are never touched in memory, so
/// the tail needs no padded panel), are computed like any other lane,
/// and are dropped by the masked store.
///
/// Per element, the update is `acc = acc + (a * b)` with both roundings,
/// in ascending `k` — exactly the scalar tile's chain, so the result is
/// bit-identical.
///
/// `a` is read through strides: element `(r, kk)` is at
/// `a[r * a_rs + kk * a_cs]`, so a transposed left operand needs no copy.
///
/// # Safety
/// Caller must ensure AVX2 is available, `1 <= nr <= 16`, `a` is valid
/// for reads at `r * a_rs + kk * a_cs` for every `r < M`, `kk < k`,
/// `b = (base, ldb)` is valid for reads of `nr` floats at `kk * ldb` for
/// every `kk < k`, and `out = (base, ldc)` is valid for writes of `nr`
/// floats at `r * ldc` for every `r < M`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn tile_mx16_avx2<const M: usize>(
    a: *const f32,
    a_strides: (usize, usize),
    b: (*const f32, usize),
    k: usize,
    out: (*mut f32, usize),
    nr: usize,
) {
    use std::arch::x86_64::*;
    // Lane i of the tail mask is on when i < the tail's column count.
    let lanes = |cols: usize| {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(cols as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    };
    match nr {
        16 => tile_avx2::<M, 2, false>(a, a_strides, b, k, out, _mm256_setzero_si256()),
        9..=15 => tile_avx2::<M, 2, true>(a, a_strides, b, k, out, lanes(nr - 8)),
        _ => tile_avx2::<M, 1, true>(a, a_strides, b, k, out, lanes(nr)),
    }
}

/// The body of [`tile_mx16_avx2`]: `M` rows of `W` column vectors, the
/// last of them read and written through `mask` when `MASKED`.
///
/// # Safety
/// As [`tile_mx16_avx2`], with `nr` the columns `mask` (or, unmasked,
/// all `8 * W` lanes) covers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tile_avx2<const M: usize, const W: usize, const MASKED: bool>(
    a: *const f32,
    (a_rs, a_cs): (usize, usize),
    (b, ldb): (*const f32, usize),
    k: usize,
    (out, ldc): (*mut f32, usize),
    mask: std::arch::x86_64::__m256i,
) {
    use std::arch::x86_64::*;
    let masked = |w: usize| MASKED && w + 1 == W;
    let mut acc = [[_mm256_setzero_ps(); W]; M];
    for kk in 0..k {
        let row = b.add(kk * ldb);
        let mut bv = [_mm256_setzero_ps(); W];
        for (w, v) in bv.iter_mut().enumerate() {
            *v = if masked(w) {
                _mm256_maskload_ps(row.add(8 * w), mask)
            } else {
                _mm256_loadu_ps(row.add(8 * w))
            };
        }
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*a.add(r * a_rs + kk * a_cs));
            // vmulps + vaddps, NOT vfmadd: two roundings keep the scalar
            // twin's bit pattern.
            for (acc_v, &b_v) in acc_row.iter_mut().zip(&bv) {
                *acc_v = _mm256_add_ps(*acc_v, _mm256_mul_ps(av, b_v));
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let dst = out.add(r * ldc);
        for (w, &v) in acc_row.iter().enumerate() {
            if masked(w) {
                _mm256_maskstore_ps(dst.add(8 * w), mask, v);
            } else {
                _mm256_storeu_ps(dst.add(8 * w), v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_twins_match_dispatched_versions_bitwise() {
        let xs: Vec<f32> = (0..37)
            .map(|i| (i as f32 * 0.37 - 5.0).sin() * 3.0)
            .collect();
        assert_eq!(
            row_max(&xs).to_bits(),
            row_max_scalar(&xs).to_bits(),
            "row_max dispatch"
        );
        let mut a = xs.clone();
        let mut b = xs.clone();
        scale_in_place(&mut a, 0.731);
        scale_in_place_scalar(&mut b, 0.731);
        assert_eq!(bits(&a), bits(&b), "scale dispatch");
        let mut a = xs.clone();
        let mut b = xs.clone();
        shift_in_place(&mut a, -1.25);
        shift_in_place_scalar(&mut b, -1.25);
        assert_eq!(bits(&a), bits(&b), "shift dispatch");
        let mut da = vec![0.0f32; xs.len()];
        let mut db = vec![0.0f32; xs.len()];
        affine_row(&mut da, &xs, 0.4, 2.5);
        affine_row_scalar(&mut db, &xs, 0.4, 2.5);
        assert_eq!(bits(&da), bits(&db), "affine dispatch");
        let mut a = xs.clone();
        let mut b = xs.clone();
        tanh(&mut a);
        tanh_scalar(&mut b);
        assert_eq!(bits(&a), bits(&b), "tanh dispatch");
        let mut a = xs.clone();
        let mut b = xs.clone();
        exp(&mut a);
        exp_scalar(&mut b);
        assert_eq!(bits(&a), bits(&b), "exp dispatch");
        assert_eq!(
            exp_sum(&xs, 1.5).to_bits(),
            exp_sum_scalar(&xs, 1.5).to_bits(),
            "exp_sum dispatch"
        );
    }

    /// The scalar twin compiled without FMA instructions (`mul_add`
    /// through the software routine) rounds as the FMA-compiled one does.
    #[test]
    fn exp_without_fma_instructions_matches_the_scalar_twin() {
        let xs: Vec<f32> = (0..4001).map(|i| i as f32 * 0.05 - 110.0).collect();
        let mut want = xs.clone();
        exp_scalar(&mut want);
        let got: Vec<f32> = xs.iter().map(|&x| expf(x)).collect();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn forced_simd_matches_scalar_when_available() {
        let xs: Vec<f32> = (0..53)
            .map(|i| ((i * 31) % 17) as f32 * 0.21 - 1.6)
            .collect();
        if let Some(m) = row_max_force(&xs) {
            assert_eq!(m.to_bits(), row_max_scalar(&xs).to_bits());
        }
        let mut simd = xs.clone();
        if scale_in_place_force(&mut simd, 1.0 / 3.0) {
            let mut scalar = xs.clone();
            scale_in_place_scalar(&mut scalar, 1.0 / 3.0);
            assert_eq!(bits(&simd), bits(&scalar));
        }
        let mut dst_s = vec![0.0f32; xs.len()];
        if affine_row_force(&mut dst_s, &xs, -0.77, 13.5) {
            let mut dst_r = vec![0.0f32; xs.len()];
            affine_row_scalar(&mut dst_r, &xs, -0.77, 13.5);
            assert_eq!(bits(&dst_s), bits(&dst_r));
        }
    }

    #[test]
    fn row_max_handles_short_and_empty_rows() {
        assert_eq!(row_max(&[]), f32::NEG_INFINITY);
        assert_eq!(row_max(&[-2.0, -7.0]), -2.0);
        assert_eq!(row_max_scalar(&[]), f32::NEG_INFINITY);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
