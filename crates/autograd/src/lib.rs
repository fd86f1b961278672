//! # ttsnn-autograd
//!
//! Tape-based reverse-mode automatic differentiation for the TT-SNN
//! reproduction — the "PyTorch autograd" substrate of the paper.
//!
//! The central type is [`Var`], a reference-counted node in a dynamically
//! built computation graph. Operations on `Var`s record backward closures;
//! calling [`Var::backward`] on a scalar loss propagates gradients to every
//! parameter that participated — across all SNN timesteps, which is exactly
//! the BPTT computation of Algorithm 1, lines 16–18 of the paper.
//!
//! Also provided:
//!
//! * [`ops`] — the differentiable op set: elementwise arithmetic, matmul,
//!   conv2d (including the asymmetric TT-core kernels), batch norm,
//!   average/global pooling, the Heaviside spike with surrogate gradient,
//!   and softmax cross-entropy.
//! * [`Sgd`] — SGD with momentum and weight decay (the paper's optimizer),
//!   including [`Sgd::step_with_grads`] for replicated data-parallel
//!   optimizers.
//! * [`CosineAnnealing`] — the paper's learning-rate schedule.
//! * [`GradReduce`] — the fixed-order (bit-deterministic, shard- and
//!   thread-count-invariant) gradient all-reduce behind data-parallel
//!   training.
//!
//! ```
//! use ttsnn_autograd::Var;
//! use ttsnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
//! let x = Var::param(Tensor::from_vec(vec![2.0], &[1])?);
//! let y = x.mul(&x)?.scale(3.0); // y = 3 x^2
//! y.sum_to_scalar().backward();
//! assert_eq!(x.grad().unwrap().data(), &[12.0]); // dy/dx = 6x = 12
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests read values out with `Var::to_tensor`; the library may not
// (`clippy.toml`), and the non-test build is linted for it.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod optim;
mod var;

pub mod ops;

pub use optim::{CosineAnnealing, GradReduce, Sgd, SgdConfig};
pub use var::{nodes_created, BackwardFn, Var};

/// Surrogate-gradient shapes for the spiking nonlinearity (see [`ops`]).
pub use ops::Surrogate;
