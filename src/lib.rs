//! # tt-snn
//!
//! A from-scratch Rust reproduction of **TT-SNN: Tensor Train Decomposition
//! for Efficient Spiking Neural Network Training** (DATE 2024).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`tensor`] — dense f32 tensor kernels (conv2d, matmul, SVD, pooling).
//! * [`autograd`] — tape-based reverse-mode autodiff and optimizers (BPTT).
//! * [`core`] — the paper's contribution: TT-SVD of convolution weights,
//!   VBMF rank selection, the STT/PTT/HTT spiking-conv modules, merge-back,
//!   and analytic params/FLOPs accounting.
//! * [`snn`] — the SNN training substrate: LIF neurons, surrogate gradients,
//!   direct coding, tdBN/TEBN, MS-ResNet/VGG architectures, TET loss, NDA
//!   augmentation, and the BPTT trainer — with one model type, `Network`,
//!   whose training plane is its inherent autograd tape walk and whose
//!   inference plane is the `InferForward` trait (graph-free tensors).
//! * [`infer`] — the batched serving engine: frozen plans from
//!   architecture config + checkpoint (optionally merged into dense
//!   kernels), dynamic request micro-batching, per-sample determinism.
//! * [`serve`] — the network serving plane: TCP ingress over a
//!   length-prefixed binary protocol, multi-plan routing, per-tenant fair
//!   queueing and rate limits (overload control), and a Prometheus
//!   `/metrics` endpoint.
//! * [`data`] — synthetic static (CIFAR-like) and dynamic (N-Caltech101-like,
//!   DVS-Gesture-like) dataset generators.
//! * [`accel`] — the multi-cluster systolic-array training-accelerator energy
//!   model (Table I, Fig. 3/4 of the paper).
//!
//! ## Quickstart
//!
//! ```
//! use tt_snn::core::{TtConv, TtMode};
//! use tt_snn::tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Decompose a 3x3 convolution (16 -> 32 channels) at TT-rank 8 and run it
//! // in the Parallel-TT (PTT) configuration from the paper.
//! let mut rng = tt_snn::tensor::Rng::seed_from(42);
//! let layer = TtConv::randn(16, 32, 8, TtMode::Ptt, &mut rng);
//! let x = Tensor::randn(&[2, 16, 8, 8], &mut rng);
//! let y = layer.forward_tensor(&x, 0)?;
//! assert_eq!(y.shape(), &[2, 32, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ttsnn_accel as accel;
pub use ttsnn_autograd as autograd;
pub use ttsnn_core as core;
pub use ttsnn_data as data;
pub use ttsnn_infer as infer;
pub use ttsnn_obs as obs;
pub use ttsnn_serve as serve;
pub use ttsnn_snn as snn;
pub use ttsnn_tensor as tensor;
