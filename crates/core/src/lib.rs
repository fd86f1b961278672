//! # ttsnn-core
//!
//! The primary contribution of *TT-SNN: Tensor Train Decomposition for
//! Efficient Spiking Neural Network Training* (DATE 2024), implemented from
//! scratch:
//!
//! * [`permute`] — the circular weight permutation of Eq. (3) that turns an
//!   `(O, I, K, K)` convolution kernel into the `(I, K1, K2, O)` layout
//!   whose TT cores are themselves small convolutions.
//! * [`ttsvd`] — TT-SVD decomposition (Eq. (2)/(4)) of a convolution weight
//!   into the four cores `w1..w4` of Fig. 1, at a uniform per-layer TT-rank.
//! * [`vbmf`] — the global analytic Variational Bayesian Matrix
//!   Factorization (Nakajima et al. 2013) used by Algorithm 1 line 2 to pick
//!   near-optimal TT-ranks automatically.
//! * [`modes`] — the three computation pipelines: Sequential TT (STT),
//!   the proposed Parallel TT (PTT, Eq. (5)), and Half TT (HTT, Fig. 2)
//!   with its per-timestep full/half schedule.
//! * [`layer`] — [`TtConv`], the drop-in TT spiking-convolution module, and
//!   [`tt_stages`], the one list of the sub-convolutions a TT layer runs at
//!   a timestep (STT chain, PTT branches, HTT half path).
//! * [`merge`] — the post-training merge-back of Eq. (6) that reconstructs a
//!   single dense kernel so inference stays spike-driven.
//! * [`flops`] — analytic parameter/FLOP accounting over a network spec
//!   (every conv's geometry and rank, walked from a layer program in
//!   `ttsnn_snn`), which with the paper's published VBMF ranks
//!   ([`paper_ranks`]) regenerates Table II's compression columns.
//!
//! ```
//! use ttsnn_core::{TtConv, TtMode};
//! use ttsnn_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
//! let mut rng = Rng::seed_from(0);
//! // A 16->32 channel TT convolution at rank 8, Parallel-TT pipeline.
//! let conv = TtConv::randn(16, 32, 8, TtMode::Ptt, &mut rng);
//! let x = Tensor::randn(&[1, 16, 8, 8], &mut rng);
//! let y = conv.forward_tensor(&x, 0)?;
//! assert_eq!(y.shape(), &[1, 32, 8, 8]);
//!
//! // After training, merge back into a single dense 3x3 kernel (Eq. 6).
//! let dense = conv.merge()?;
//! assert_eq!(dense.shape(), &[32, 16, 3, 3]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flops;
pub mod layer;
pub mod merge;
pub mod modes;
pub mod paper_ranks;
pub mod permute;
pub mod quant;
pub mod ttsvd;
pub mod vbmf;

pub use layer::{tt_stages, TtConv, TtStages};
pub use modes::{HttSchedule, TtMode};
pub use ttsvd::TtCores;
