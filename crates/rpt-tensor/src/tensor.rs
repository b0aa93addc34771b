//! The [`Tensor`] type: an immutable, reference-counted, row-major `f32`
//! n-dimensional array, plus the raw (non-differentiable) kernels the tape
//! ops are built from.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, LazyLock};

/// Kernel metrics (DESIGN.md §Observability); inert unless metrics are on.
struct MatmulObs {
    calls: rpt_obs::Counter,
    madds: rpt_obs::Counter,
    matmul2d_ms: rpt_obs::Histogram,
    bmm_ms: rpt_obs::Histogram,
}

static MATMUL_OBS: LazyLock<MatmulObs> = LazyLock::new(|| MatmulObs {
    calls: rpt_obs::counter("tensor.matmul_calls"),
    madds: rpt_obs::counter("tensor.matmul_madds"),
    matmul2d_ms: rpt_obs::histogram("tensor.matmul2d_ms"),
    bmm_ms: rpt_obs::histogram("tensor.bmm_ms"),
});

/// Error raised by fallible tensor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The data length does not match the product of the shape dimensions.
    ShapeMismatch { expected: usize, got: usize },
    /// The shape has more than [`MAX_DIMS`] dimensions.
    Rank { got: usize },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape requires {expected} elements but data has {got}")
            }
            TensorError::Rank { got } => {
                write!(
                    f,
                    "shape has {got} dimensions; at most {MAX_DIMS} are supported"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Most dimensions a tensor may have: every op in the workspace works on
/// 1-d to 3-d tensors (`[b, t, d]` activations, `[b*h, t, dh]` heads).
pub const MAX_DIMS: usize = 3;

/// A tensor's dimension sizes, held inline: copying one moves a few words
/// and allocates nothing. Dereferences to the `&[usize]` of its dims.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    /// The dims, then zeros (so the derived equality compares dims only).
    dims: [usize; MAX_DIMS],
    len: u8,
}

impl Shape {
    /// The shape `dims`, or a [`TensorError::Rank`] for more than
    /// [`MAX_DIMS`] of them.
    fn new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.len() > MAX_DIMS {
            return Err(TensorError::Rank { got: dims.len() });
        }
        let mut s = Shape {
            dims: [0; MAX_DIMS],
            len: dims.len() as u8,
        };
        s.dims[..dims.len()].copy_from_slice(dims);
        Ok(s)
    }

    /// [`Shape::new`] for shapes the code itself builds.
    ///
    /// # Panics
    /// For more than [`MAX_DIMS`] dims.
    fn of(dims: &[usize]) -> Self {
        Self::new(dims).unwrap_or_else(|e| panic!("shape {dims:?}: {e}"))
    }
}

impl Deref for Shape {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.dims[..self.len as usize]
    }
}

impl DerefMut for Shape {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.dims[..self.len as usize]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// An immutable, row-major, reference-counted `f32` tensor of at most
/// [`MAX_DIMS`] dimensions.
///
/// Cloning is O(1) and allocates nothing: one reference-count increment,
/// the shape copied inline. All shape-changing operations produce new
/// tensors; in-place mutation is only available through
/// [`Tensor::map_inplace`] / [`Tensor::data_mut`], which copy-on-write
/// when the buffer is shared.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={:?}, data[..{}]={:?}{})",
            self.shape,
            preview.len(),
            preview,
            if self.numel() > 8 { ", …" } else { "" }
        )
    }
}

impl Tensor {
    /// Builds a tensor from a flat row-major buffer. Fails if the shape has
    /// more than [`MAX_DIMS`] dims or does not hold `data.len()` elements.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(shape)?;
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                got: data.len(),
            });
        }
        Ok(Self {
            data: Arc::new(data),
            shape,
        })
    }

    /// A scalar (0-d is represented as shape `[1]`).
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(vec![v], &[1]).expect("scalar shape")
    }

    /// All-zeros tensor.
    ///
    /// # Panics
    /// If `shape` has more than [`MAX_DIMS`] dims.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with a constant.
    ///
    /// # Panics
    /// If `shape` has more than [`MAX_DIMS`] dims.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let shape = Shape::of(shape);
        let n: usize = shape.iter().product();
        Self {
            data: Arc::new(vec![v; n]),
            shape,
        }
    }

    /// The shape as a slice of dimension sizes.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The shape by value, for closures that outlive the borrow of `self`.
    pub(crate) fn dims(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Read-only view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the buffer (copy-on-write if shared).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Returns a tensor with the same buffer but a different shape.
    ///
    /// # Panics
    /// If the element counts differ, or `shape` has more than
    /// [`MAX_DIMS`] dims.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            expected,
            self.numel(),
            "reshape {:?} -> {:?}: element count mismatch",
            self.shape,
            shape
        );
        Self {
            data: Arc::clone(&self.data),
            shape: Shape::of(shape),
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let data: Vec<f32> = self.data.iter().map(|&x| f(x)).collect();
        Self {
            data: Arc::new(data),
            shape: self.shape,
        }
    }

    /// Applies `f` elementwise in place (copy-on-write if shared).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in Arc::make_mut(&mut self.data).iter_mut() {
            *x = f(*x);
        }
    }

    /// Elementwise binary zip; shapes must match exactly.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip requires identical shapes: {:?} vs {:?}",
            self.shape, other.shape
        );
        let data: Vec<f32> = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self {
            data: Arc::new(data),
            shape: self.shape,
        }
    }

    /// In-place accumulation `self += other` (shapes must match).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign requires identical shapes: {:?} vs {:?}",
            self.shape, other.shape
        );
        let dst = Arc::make_mut(&mut self.data);
        for (d, s) in dst.iter_mut().zip(other.data.iter()) {
            *d += *s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Matrix product of 2-d tensors: `[m,k] x [k,n] -> [m,n]`, partitioning
    /// output rows across the global [`rpt_par`] pool. Bit-identical for any
    /// thread count: each row's arithmetic is self-contained.
    pub fn matmul2d(&self, other: &Tensor) -> Tensor {
        self.matmul2d_with(other, rpt_par::ThreadPool::global())
    }

    /// [`Tensor::matmul2d`] on an explicit pool (servers with dedicated
    /// pools; the thread-count equivalence tests).
    pub fn matmul2d_with(&self, other: &Tensor, pool: &rpt_par::ThreadPool) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul2d lhs must be 2-d, got {:?}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul2d rhs must be 2-d, got {:?}",
            other.shape
        );
        self.product(false, other, false, pool)
    }

    /// Batched matrix product of 3-d tensors: `[b,m,k] x [b,k,n] -> [b,m,n]`,
    /// partitioning the `b * m` output rows across the global pool.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        self.bmm_with(other, rpt_par::ThreadPool::global())
    }

    /// [`Tensor::bmm`] on an explicit pool.
    pub fn bmm_with(&self, other: &Tensor, pool: &rpt_par::ThreadPool) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-d, got {:?}", self.shape);
        assert_eq!(
            other.ndim(),
            3,
            "bmm rhs must be 3-d, got {:?}",
            other.shape
        );
        self.product(false, other, false, pool)
    }

    /// `self · otherᵀ` over the last two dims: `[m,k] x [n,k] -> [m,n]`, or
    /// batched `[b,m,k] x [b,n,k] -> [b,m,n]`. `other` is read transposed
    /// in place by the blocked kernel's packing, never materialized; the
    /// result is bit-identical to `self` times `other.transpose_last()`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        self.product(false, other, true, rpt_par::ThreadPool::global())
    }

    /// `selfᵀ · other` over the last two dims: `[k,m] x [k,n] -> [m,n]`, or
    /// batched. `self` is read transposed in place through the kernel's
    /// strides; the result is bit-identical to `self.transpose_last()`
    /// times `other`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        self.product(true, other, false, rpt_par::ThreadPool::global())
    }

    /// The one product behind [`Tensor::matmul2d`], [`Tensor::bmm`],
    /// [`Tensor::matmul_nt`] and [`Tensor::matmul_tn`]: `op(self) ·
    /// op(other)`, where `op` transposes the last two dims when its flag is
    /// set.
    fn product(&self, ta: bool, other: &Tensor, tb: bool, pool: &rpt_par::ThreadPool) -> Tensor {
        let nd = self.ndim();
        assert!(
            (nd == 2 || nd == 3) && other.ndim() == nd,
            "matmul supports 2-d x 2-d or 3-d x 3-d, got {:?} x {:?}",
            self.shape,
            other.shape
        );
        let name = if nd == 2 { "matmul2d" } else { "bmm" };
        let (batch, lead) = if nd == 3 {
            assert_eq!(
                self.shape[0], other.shape[0],
                "bmm batch dims differ: {:?} x {:?}",
                self.shape, other.shape
            );
            (self.shape[0], 1)
        } else {
            (1, 0)
        };
        let orient = |shape: &[usize], t: bool| {
            let (r, c) = (shape[lead], shape[lead + 1]);
            if t {
                (c, r)
            } else {
                (r, c)
            }
        };
        let (m, k) = orient(&self.shape, ta);
        let (k2, n) = orient(&other.shape, tb);
        assert_eq!(
            k, k2,
            "{name} inner dims differ: {:?} x {:?}",
            self.shape, other.shape
        );
        let _t = if nd == 2 {
            MATMUL_OBS.matmul2d_ms.time()
        } else {
            MATMUL_OBS.bmm_ms.time()
        };
        MATMUL_OBS.calls.inc();
        MATMUL_OBS.madds.add((batch * m * k * n) as u64);
        let mut out = vec![0.0f32; batch * m * n];
        matmul_batched(
            pool,
            (&self.data, ta),
            (&other.data, tb),
            &mut out,
            [batch, m, k, n],
        );
        let shape = if nd == 2 {
            Shape::of(&[m, n])
        } else {
            Shape::of(&[batch, m, n])
        };
        Tensor {
            data: Arc::new(out),
            shape,
        }
    }

    /// Transposes the last two dimensions (2-d or 3-d), materializing the
    /// result (all tensors in this library stay contiguous).
    pub fn transpose_last(&self) -> Tensor {
        match self.ndim() {
            2 => {
                let (m, n) = (self.shape[0], self.shape[1]);
                let mut out = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        out[j * m + i] = self.data[i * n + j];
                    }
                }
                Tensor {
                    data: Arc::new(out),
                    shape: Shape::of(&[n, m]),
                }
            }
            3 => {
                let (b, m, n) = (self.shape[0], self.shape[1], self.shape[2]);
                let mut out = vec![0.0f32; b * m * n];
                for bi in 0..b {
                    let src = &self.data[bi * m * n..(bi + 1) * m * n];
                    let dst = &mut out[bi * m * n..(bi + 1) * m * n];
                    for i in 0..m {
                        for j in 0..n {
                            dst[j * m + i] = src[i * n + j];
                        }
                    }
                }
                Tensor {
                    data: Arc::new(out),
                    shape: Shape::of(&[b, n, m]),
                }
            }
            d => panic!("transpose_last supports 2-d / 3-d tensors, got {d}-d"),
        }
    }

    /// Softmax over the last dimension (numerically stabilized).
    pub fn softmax_last(&self) -> Tensor {
        let last = *self.shape.last().expect("softmax of 0-d tensor");
        let mut out = self.data.as_ref().clone();
        for row in out.chunks_mut(last) {
            softmax_row(row);
        }
        Tensor {
            data: Arc::new(out),
            shape: self.shape,
        }
    }

    /// Gathers rows of a `[v, d]` matrix by index, producing `[ids.len(), d]`.
    pub fn gather_rows(&self, ids: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows source must be 2-d");
        let d = self.shape[1];
        let mut out = Vec::with_capacity(ids.len() * d);
        for &i in ids {
            assert!(
                i < self.shape[0],
                "gather_rows index {i} out of {}",
                self.shape[0]
            );
            out.extend_from_slice(&self.data[i * d..(i + 1) * d]);
        }
        Tensor {
            data: Arc::new(out),
            shape: Shape::of(&[ids.len(), d]),
        }
    }
}

/// Stable in-place softmax of a single row. The max scan, the shift, the
/// `exp` and the normalizing multiply take the SIMD path when enabled, each
/// bit-identical to its scalar twin; the running sum stays one ascending
/// scalar loop, so the summation order (and therefore every output bit) is
/// identical under `RPT_SIMD=0` and `=1`. A row shorter than 8 runs the
/// shift, `exp` and sum as one fused scalar pass instead.
pub fn softmax_row(row: &mut [f32]) {
    let max = crate::simd::row_max(row);
    let sum = if row.len() < 8 {
        crate::simd::exp_shift_sum_in_place(row, max)
    } else {
        crate::simd::shift_in_place(row, max);
        crate::simd::exp(row);
        let mut sum = 0.0f32;
        for &x in row.iter() {
            sum += x;
        }
        sum
    };
    crate::simd::scale_in_place(row, 1.0 / sum);
}

/// Output rows per register block of the matmul microkernel. Each block of
/// `MR` rows shares one streaming pass over the `B` operand, dividing `B`
/// memory traffic by `MR`.
const MR: usize = 4;

/// Output columns per register tile. `MR × NR` accumulators live in
/// registers for the whole `k` loop; 16 f32 lanes give the autovectorizer
/// two full 256-bit (or four 128-bit) vectors per row.
const NR: usize = 16;

/// Pack `B` panels only when the row count amortizes the copy: a panel is
/// reused once per row block, so below this many rows the strided reads
/// are cheaper than the pack pass. Decode-time products — `m = 1`
/// attention row-heads and the few-row fused logit step — stay below it
/// and read `B` in place, column tails included: the masked tail loads
/// of [`crate::simd::tile_mx16_avx2`] need no padded copy. A transposed
/// `B` is packed whatever the row count.
const PACK_MIN_ROWS: usize = 4 * MR;

thread_local! {
    /// Per-worker scratch for the packed `B` panel (`k × NR` floats),
    /// reused across tasks and calls instead of allocating per product.
    static PACK_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// A read-only matrix operand as a strided view: element `(i, j)` is
/// `data[i * rs + j * cs]`. A row-major `[r, c]` matrix is `(c, 1)`; the
/// same buffer read transposed, as `[c, r]`, is `(1, c)`. Viewing an
/// operand transposed moves no data, which is what lets the backward
/// products `G·Bᵀ` and `Aᵀ·G` skip the `transpose_last` copies.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// The matrix stored row-major in `data` with `stored_cols` columns,
    /// read as stored (`t = false`) or transposed (`t = true`).
    fn new(data: &'a [f32], t: bool, stored_cols: usize) -> Self {
        if t {
            View {
                data,
                rs: 1,
                cs: stored_cols,
            }
        } else {
            View {
                data,
                rs: stored_cols,
                cs: 1,
            }
        }
    }

    /// The same view starting at row `i`.
    fn at_row(self, i: usize) -> Self {
        View {
            data: &self.data[i * self.rs..],
            ..self
        }
    }

    /// True if `rows x cols` elements are in bounds.
    fn covers(&self, rows: usize, cols: usize) -> bool {
        rows == 0 || cols == 0 || (rows - 1) * self.rs + (cols - 1) * self.cs < self.data.len()
    }
}

/// `out = a · B` for `a` of `[rows, k]` and the `[k, n]` matrix `B` whose
/// row `i` starts at `b[i * ldb]` (`out`, `[rows, n]`, must be zeroed), on
/// the blocked kernel under the runtime SIMD gate, on the calling thread.
/// `B` is read in place, so a product over part of a wider buffer (one
/// head of a KV cache) needs no copy; each element's arithmetic is that
/// of the same product through [`Tensor::bmm`].
pub fn matmul_rows_strided(
    a: &[f32],
    (b, ldb): (&[f32], usize),
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    let b = View {
        data: b,
        rs: ldb,
        cs: 1,
    };
    let a = View::new(a, false, k);
    matmul_view_blocked(a, b, out, rows, k, n, crate::simd::simd_enabled());
}

/// Cache-blocked matmul of `rows` output rows against a single `[k, n]`
/// right-hand matrix, `out[r, j] = Σ_k a[r, k] · b[k, j]` (`out` must be
/// zeroed), with the kernel choice forced: public for the SIMD/scalar
/// equivalence suite (`use_simd = true` silently falls back to scalar
/// when AVX2 is unavailable). Both paths are bit-identical; products
/// dispatch on the runtime SIMD gate (see [`crate::simd`]).
pub fn matmul_rows_blocked_force(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    use_simd: bool,
) {
    assert_eq!(a.len(), rows * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    matmul_view_blocked(
        View::new(a, false, k),
        View::new(b, false, n),
        out,
        rows,
        k,
        n,
        use_simd,
    );
}

/// Loop order is column-tile outer, row-block middle, `k` inner: the `NR`
/// hot columns of `B` (k·NR floats) stay L1-resident across every row
/// block, and `A` streams once per column tile (it is the smaller operand
/// in every product this library performs). For `rows >= PACK_MIN_ROWS`
/// the tile's `B` columns are first packed contiguously into a per-thread
/// scratch panel, turning the strided `k`-loop loads into dense ones. A
/// transposed `B` view (column stride not 1) is always packed: the pack
/// is where its transpose happens, one `k × NR` panel at a time. A
/// transposed `A` view needs no pack: the kernels read it through its
/// strides.
///
/// Every block is one register tile ([`tile`]): a full `MR × NR` block,
/// the `rows % MR` remainder rows (`M` = 1..=3, so an `m = 1` decode
/// product is one 1-row tile per column tile), the `n % NR` column tail,
/// or both at once. The accumulators are a register array updated as a
/// rank-1 outer product per `k` — on the SIMD path `f32x8` `ymm`
/// accumulators ([`crate::simd::tile_mx16_avx2`], masked loads and stores
/// for a column tail), on the scalar path [`scalar_tile`]'s
/// `[[f32; NR]; M]`, autovectorized.
///
/// Bit-identity: every output element is one scalar accumulator, starting
/// at `+0.0` and updated `acc = acc + a·b` in strictly ascending `k`
/// order — in every tile shape (scalar, or AVX2 with `vmulps` + `vaddps`,
/// never FMA-contracted) and any thread partitioning alike. Masked-off
/// lanes of a column tail are computed from `0.0` operands and never
/// stored, so they touch no output. Packing and strided reads are pure
/// data movement. The result is therefore identical bit-for-bit
/// regardless of tile placement, operand layout, thread count, or kernel
/// choice.
fn matmul_view_blocked(
    a: View<'_>,
    b: View<'_>,
    out: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    use_simd: bool,
) {
    assert!(a.covers(rows, k), "matmul lhs view out of range");
    assert!(b.covers(k, n), "matmul rhs view out of range");
    assert_eq!(out.len(), rows * n, "matmul output length");
    if k == 0 {
        return; // an empty sum: `out` stays zero
    }
    #[cfg(target_arch = "x86_64")]
    let use_simd = use_simd && crate::simd::simd_available();
    #[cfg(not(target_arch = "x86_64"))]
    let use_simd = {
        let _ = use_simd;
        false
    };
    let pack = b.cs != 1 || (rows >= PACK_MIN_ROWS && k * NR <= 1 << 20);
    let mut panel = if pack {
        let mut p = PACK_SCRATCH.with(|cell| cell.take());
        p.clear();
        p.reserve(k * NR);
        p
    } else {
        Vec::new()
    };
    let (ars, acs) = (a.rs, a.cs);
    let a = a.data;
    let mut j = 0;
    while j < n {
        let nr = NR.min(n - j);
        // (base slice, row stride) for this tile's B columns: either the
        // packed panel or the strided original.
        let (bp, ldb) = if pack {
            panel.clear();
            if b.cs == 1 {
                for kk in 0..k {
                    let row = &b.data[kk * b.rs + j..];
                    panel.extend_from_slice(&row[..nr]);
                }
            } else {
                panel.resize(k * nr, 0.0);
                for jj in 0..nr {
                    let col = &b.data[(j + jj) * b.cs..];
                    for (kk, dst) in panel.iter_mut().skip(jj).step_by(nr).enumerate() {
                        *dst = col[kk * b.rs];
                    }
                }
            }
            (panel.as_slice(), nr)
        } else {
            (&b.data[j..], b.rs)
        };
        let mut r = 0;
        while r < rows {
            let mr = MR.min(rows - r);
            let tile = match mr {
                4 => tile::<4>,
                3 => tile::<3>,
                2 => tile::<2>,
                _ => tile::<1>,
            };
            tile(
                &a[r * ars..],
                (ars, acs),
                (bp, ldb),
                k,
                &mut out[r * n + j..],
                (n, nr),
                use_simd,
            );
            r += mr;
        }
        j += NR;
    }
    if pack {
        PACK_SCRATCH.with(|cell| cell.set(panel));
    }
}

/// One `M x nr` block of the product at `out[0..]` (`M` = 1..=[`MR`]
/// rows, `nr` = 1..=[`NR`] columns): `a` starts at the block's first row
/// (strides `(ars, acs)`), `bp` at its first column (row stride `ldb`),
/// and `out` at its top-left element (row stride `ldc`). Every block
/// shape — full tile, row remainder, column tail, or both — runs the same
/// register tile: [`crate::simd::tile_mx16_avx2`] on the SIMD path,
/// [`scalar_tile`] otherwise.
fn tile<const M: usize>(
    a: &[f32],
    (ars, acs): (usize, usize),
    (bp, ldb): (&[f32], usize),
    k: usize,
    out: &mut [f32],
    (ldc, nr): (usize, usize),
    use_simd: bool,
) {
    // The AVX2 tile reads and writes through raw pointers: these bounds
    // are what keep it in range.
    assert!((1..=NR).contains(&nr), "matmul tile width {nr}");
    assert!(
        k == 0 || ((M - 1) * ars + (k - 1) * acs < a.len() && (k - 1) * ldb + nr <= bp.len()),
        "matmul tile operands out of range"
    );
    assert!(
        (M - 1) * ldc + nr <= out.len(),
        "matmul tile output out of range"
    );
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: the caller resolved `use_simd` against AVX2
        // availability; the asserts above bound every read of `a` at
        // r * ars + kk * acs (r < M, kk < k), every read of `bp` at
        // kk * ldb + jj (jj < nr), and every write of `out` at
        // r * ldc + jj.
        unsafe {
            crate::simd::tile_mx16_avx2::<M>(
                a.as_ptr(),
                (ars, acs),
                (bp.as_ptr(), ldb),
                k,
                (out.as_mut_ptr(), ldc),
                nr,
            );
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    // A literal `NR` lets the full tile's inner loop compile to fixed-width
    // vector code; the column tail runs the same loop bounded at `nr`.
    if nr == NR {
        scalar_tile::<M>(a, (ars, acs), (bp, ldb), k, out, ldc, NR);
    } else {
        scalar_tile::<M>(a, (ars, acs), (bp, ldb), k, out, ldc, nr);
    }
}

/// The scalar register tile behind [`tile`] (the `RPT_SIMD=0` path):
/// `M x NR` accumulators updated as a rank-1 outer product per `k`, of
/// which the first `nr` columns are read from `bp` and copied out.
#[inline(always)]
fn scalar_tile<const M: usize>(
    a: &[f32],
    (ars, acs): (usize, usize),
    (bp, ldb): (&[f32], usize),
    k: usize,
    out: &mut [f32],
    ldc: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; M];
    for kk in 0..k {
        let brow = &bp[kk * ldb..kk * ldb + nr];
        for (ri, acc_row) in acc.iter_mut().enumerate() {
            let av = a[ri * ars + kk * acs];
            for (o, &bv) in acc_row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (ri, acc_row) in acc.iter().enumerate() {
        out[ri * ldc..ri * ldc + nr].copy_from_slice(&acc_row[..nr]);
    }
}

/// Minimum multiply-adds **per parallel chunk**. A chunk below this costs
/// more in latch/wake dispatch than its arithmetic is worth, so the
/// chunker never creates one (the old constant was a per-*call* gate,
/// which still fanned a barely-parallel product out to `threads` tiny
/// tasks). ~128 K madds is ≈60–130 µs of kernel work — comfortably above
/// the few-µs cost of waking a worker.
pub const PAR_MIN_MADDS_PER_CHUNK: usize = 128 * 1024;

/// Cost model for the batched matmul: how many row chunks to fan
/// `rows × k × n` madds out to, given the pool's dispatch width.
///
/// * never more chunks than `width`, and `width` is already clamped to
///   the hardware by the caller — oversubscribing cores was the
///   0.87×-at-4-threads bug `bench_parallel.json` recorded;
/// * every chunk carries at least [`PAR_MIN_MADDS_PER_CHUNK`] madds;
/// * never more chunks than rows (a chunk must own ≥ 1 row).
///
/// Chunk *count* only decides which thread computes which rows; each
/// row's arithmetic is self-contained, so any return value produces
/// bit-identical output.
pub fn matmul_chunk_count(rows: usize, k: usize, n: usize, width: usize) -> usize {
    if width <= 1 || rows == 0 {
        return 1;
    }
    let madds = rows.saturating_mul(k).saturating_mul(n);
    let by_cost = madds / PAR_MIN_MADDS_PER_CHUNK;
    width.min(by_cost).min(rows).max(1)
}

/// Batched matmul `out[b,m,n] = op(a)[b,m,k] x op(bmat)[b,k,n]`, where each
/// operand comes with a transpose flag (`op` swaps its stored last two
/// dims), with the `b * m` output rows partitioned into contiguous chunks
/// sized by [`matmul_chunk_count`], each chunk split at batch boundaries
/// and handed to the blocked microkernel. `b == 1` degenerates to a plain
/// 2-d product. Thread partitioning only decides *which* thread runs a
/// row — never the arithmetic order inside it — so results are
/// bit-identical for every thread count.
fn matmul_batched(
    pool: &rpt_par::ThreadPool,
    (a, ta): (&[f32], bool),
    (bmat, tb): (&[f32], bool),
    out: &mut [f32],
    [b, m, k, n]: [usize; 4],
) {
    assert_eq!(a.len(), b * m * k, "matmul lhs length");
    assert_eq!(bmat.len(), b * k * n, "matmul rhs length");
    assert_eq!(out.len(), b * m * n, "matmul output length");
    let rows = b * m;
    if rows == 0 || n == 0 {
        return;
    }
    // Runs global rows [r0, r0 + chunk_rows) into `out_chunk`, splitting
    // the range wherever it crosses a bmm batch boundary.
    let run = |r0: usize, out_chunk: &mut [f32]| {
        let end = r0 + out_chunk.len() / n;
        let mut r = r0;
        let mut off = 0;
        while r < end {
            let (bi, i0) = (r / m, r % m);
            let seg = (m - i0).min(end - r);
            // Stored as [m, k] (or [k, m] when transposed) and [k, n] (or
            // [n, k]).
            let a_batch = &a[bi * m * k..(bi + 1) * m * k];
            let b_batch = &bmat[bi * k * n..(bi + 1) * k * n];
            let a_view = View::new(a_batch, ta, if ta { m } else { k });
            let b_view = View::new(b_batch, tb, if tb { k } else { n });
            matmul_view_blocked(
                a_view.at_row(i0),
                b_view,
                &mut out_chunk[off..off + seg * n],
                seg,
                k,
                n,
                crate::simd::simd_enabled(),
            );
            r += seg;
            off += seg * n;
        }
    };
    // Effective fan-out: the pool's real dispatch width, further clamped
    // to the hardware (explicit test pools are built unclamped).
    let width = pool.dispatch_width().min(rpt_par::hardware_threads());
    let chunks = matmul_chunk_count(rows, k, n, width);
    if chunks <= 1 {
        run(0, out);
        return;
    }
    let rows_per_chunk = rows.div_ceil(chunks);
    pool.chunks_mut(out, rows_per_chunk * n, |ci, chunk| {
        run(ci * rows_per_chunk, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert_eq!(
            Tensor::from_vec(vec![1.0], &[1; MAX_DIMS + 1]).unwrap_err(),
            TensorError::Rank { got: MAX_DIMS + 1 }
        );
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.numel(), 4);
    }

    #[test]
    fn clone_is_shallow_and_mutation_cows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(b.data(), &[9.0, 2.0]);
    }

    #[test]
    fn matmul2d_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul2d(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn bmm_applies_per_batch() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]).unwrap();
        let c = a.bmm(&b);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn transpose_last_2d_and_3d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose_last();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);

        let b = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let bt = b.transpose_last();
        assert_eq!(bt.shape(), &[2, 3, 2]);
        assert_eq!(bt.data()[..6], [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = a.softmax_last();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // softmax is shift-invariant: both rows differ by a constant shift.
        for j in 0..3 {
            assert!((s.data()[j] - s.data()[3 + j]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = a.softmax_last();
        assert!(!s.has_non_finite());
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gather_rows_selects_embedding_rows() {
        let w = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], &[3, 2]).unwrap();
        let g = w.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[2.0, 2.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn matmul_and_bmm_bit_identical_across_thread_counts() {
        use crate::init;
        use rpt_rng::{SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(42);
        // large enough to cross the parallel dispatch threshold
        let a = init::normal(&[96, 80], 1.0, &mut rng);
        let b = init::normal(&[80, 72], 1.0, &mut rng);
        let a3 = init::normal(&[6, 40, 32], 1.0, &mut rng);
        let b3 = init::normal(&[6, 32, 48], 1.0, &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let p1 = rpt_par::ThreadPool::new(1);
        let ref2d = bits(&a.matmul2d_with(&b, &p1));
        let ref3d = bits(&a3.bmm_with(&b3, &p1));
        for threads in [2, 3, 4] {
            let p = rpt_par::ThreadPool::new(threads);
            assert_eq!(bits(&a.matmul2d_with(&b, &p)), ref2d, "threads={threads}");
            assert_eq!(bits(&a3.bmm_with(&b3, &p)), ref3d, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul2d(&b);
    }

    /// Naive triple loop with the same per-element k-ascending order as the
    /// blocked kernel — the blocked kernel must match it bit-for-bit.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.data()[i * k + kk] * b.data()[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_kernel_matches_naive_on_edge_shapes() {
        use crate::init;
        use rpt_rng::{SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(7);
        // hit every tile path: full tiles, row tails (m % MR), column
        // tails (n % NR), and shapes smaller than one tile
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (5, 8, 17),
            (9, 3, 33),
            (16, 20, 16),
            (17, 64, 50),
        ] {
            let a = init::normal(&[m, k], 1.0, &mut rng);
            let b = init::normal(&[k, n], 1.0, &mut rng);
            let c = a.matmul2d(&b);
            let naive = matmul_naive(&a, &b);
            let got: Vec<u32> = c.data().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = naive.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "shape [{m},{k}]x[{k},{n}]");
        }
    }
}
