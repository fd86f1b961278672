//! # ttsnn-tensor
//!
//! Dense `f32` tensor kernels for the TT-SNN reproduction.
//!
//! This crate is the "PyTorch substrate" of the paper: everything the TT-SNN
//! modules and the SNN trainer need from a tensor library, implemented from
//! scratch:
//!
//! * [`Tensor`] — a contiguous, row-major n-dimensional `f32` array with
//!   elementwise arithmetic, reductions, reshaping and permutation.
//! * [`runtime`] — the parallel kernel runtime: a persistent channel-fed
//!   worker pool (sized from `available_parallelism`, overridable with
//!   `TTSNN_NUM_THREADS`), the blocked multi-threaded GEMM family
//!   (`gemm`, `gemm_at_b`, `gemm_a_bt`), and per-thread scratch arenas.
//! * [`conv`] — 2-D convolution (forward, input-gradient, weight-gradient)
//!   via im2col/col2im, batch-parallel through the runtime, supporting the
//!   asymmetric kernels (3×1, 1×3, 1×1) that the TT cores use.
//! * [`qkernels`] — the **int8 inference kernels**: i8×i8→i32 GEMM/conv
//!   with per-output-channel requantization and an accelerator-faithful
//!   saturating 16-bit accumulator mode, on the same worker pool.
//! * [`Tensor::matmul`] — matrix multiplication over the runtime kernels.
//! * [`lif`] — the LIF neuron's forward and reverse scans over a stack of
//!   timesteps: the one place the recurrence is written, for both planes.
//! * [`linalg`] — one-sided Jacobi SVD (used by TT-SVD and VBMF).
//! * [`norm`] — batch normalization's ordered per-channel statistics and
//!   backward sums, channels side by side on lanes: the one copy both
//!   planes call.
//! * [`pool`] — average pooling and global average pooling with backward.
//! * [`Rng`] — a small deterministic xoshiro-style RNG so experiments are
//!   reproducible without threading `rand` generics through every API.
//!
//! ```
//! use ttsnn_tensor::{Tensor, Rng};
//!
//! # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
//! let mut rng = Rng::seed_from(7);
//! let a = Tensor::randn(&[4, 8], &mut rng);
//! let b = Tensor::randn(&[8, 3], &mut rng);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[4, 3]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod error;
mod rng;
mod shape;
mod tensor;

pub mod conv;
pub mod lif;
pub mod linalg;
pub mod norm;
pub mod pool;
pub mod qkernels;
pub mod runtime;
pub mod spike;

pub use error::ShapeError;
pub use rng::Rng;
pub use shape::{num_elements, strides_for};
pub use tensor::Tensor;

/// Convolution geometry shared by the conv kernels and FLOP accounting.
pub use conv::Conv2dGeometry;
