//! # rpt-tensor
//!
//! A minimal, dependency-light CPU tensor library with reverse-mode automatic
//! differentiation, written from scratch for the RPT (Relational Pre-trained
//! Transformer) reproduction.
//!
//! The design follows the classic *tape* (Wengert list) approach:
//!
//! * [`Tensor`] is an immutable, reference-counted, row-major `f32` array.
//!   Cloning a tensor is cheap (it clones an `Arc`).
//! * [`Tape`] records a computation graph as operations are applied. Each
//!   operation returns a lightweight [`Var`] handle (a node id).
//! * [`Tape::backward`] walks the tape in reverse, producing a gradient for
//!   every node that participated in the loss.
//! * [`ParamStore`] owns the trainable parameters *between* steps; on each
//!   step they are re-inserted into a fresh tape as leaf nodes, and the
//!   optimizers in [`optim`] apply the resulting gradients in place.
//!
//! The op set is deliberately the closure of what a small transformer needs:
//! broadcast elementwise arithmetic, (batched) matmul, softmax / log-softmax,
//! layer normalization, GELU/ReLU/tanh/sigmoid, embedding gather, slicing,
//! concatenation, dropout, and a fused softmax cross-entropy loss.
//!
//! ## Example
//!
//! ```
//! use rpt_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
//! let y = tape.mul(x, x);          // y = x^2
//! let loss = tape.sum_all(y);      // loss = sum(x^2)
//! let grads = tape.backward(loss);
//! let gx = grads.get(x).unwrap();  // d loss / d x = 2x
//! assert_eq!(gx.data(), &[2.0, 4.0, 6.0]);
//! ```

pub mod arena;
pub mod init;
pub mod optim;
pub mod quant;
pub mod serialize;
pub mod simd;
pub mod tape;
pub mod tensor;

pub use arena::Arena;
pub use optim::{clip_global_norm, Adam, AdamConfig, AdamState, ParamId, ParamStore};
pub use quant::QuantMatrix;
pub use serialize::{CheckpointError, TrainState};
pub use tape::{Gradients, Tape, Var};
pub use tensor::{matmul_chunk_count, matmul_rows_blocked_force, Tensor, PAR_MIN_MADDS_PER_CHUNK};

/// Numerical gradient checking utility, used by the test suites of this
/// crate and of `rpt-nn` to validate analytic gradients of composite ops.
pub mod gradcheck {
    use crate::{Tape, Tensor, Var};

    /// Compares the analytic gradient of `f` at `input` against a central
    /// finite difference. Returns the maximum absolute deviation.
    ///
    /// `f` must build a scalar loss from the leaf var it is given.
    pub fn max_grad_error(input: &Tensor, f: impl Fn(&Tape, Var) -> Var) -> f32 {
        let tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = f(&tape, x);
        assert_eq!(tape.value(loss).numel(), 1, "gradcheck loss must be scalar");
        let grads = tape.backward(loss);
        let analytic = grads.get(x).expect("input must participate in the loss");

        let eps = 1e-3f32;
        let mut max_err = 0.0f32;
        for i in 0..input.numel() {
            let mut plus = input.data().to_vec();
            plus[i] += eps;
            let mut minus = input.data().to_vec();
            minus[i] -= eps;
            let lp = eval_scalar(Tensor::from_vec(plus, input.shape()).unwrap(), &f);
            let lm = eval_scalar(Tensor::from_vec(minus, input.shape()).unwrap(), &f);
            let numeric = (lp - lm) / (2.0 * eps);
            let err = (numeric - analytic.data()[i]).abs();
            if err > max_err {
                max_err = err;
            }
        }
        max_err
    }

    fn eval_scalar(t: Tensor, f: &impl Fn(&Tape, Var) -> Var) -> f32 {
        let tape = Tape::new();
        let x = tape.leaf(t);
        let loss = f(&tape, x);
        tape.value(loss).data()[0]
    }
}
