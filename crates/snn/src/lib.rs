//! # ttsnn-snn
//!
//! The spiking-neural-network training substrate of the TT-SNN paper:
//! everything Algorithm 1 needs around the TT modules.
//!
//! * [`lif`] — the iterative Leaky-Integrate-and-Fire neuron of Eq. (1)
//!   (τm = 0.25, V_th = 0.5 by default) with surrogate-gradient BPTT: the
//!   layer state around the scan kernels of `ttsnn_tensor::lif`.
//! * [`norm`] — tdBN (threshold-dependent batch norm, Zheng et al.) and
//!   TEBN (temporal effective batch norm, Duan et al.), the two
//!   normalizations used by the paper's baselines (Table III).
//! * [`conv_unit`] — a convolution slot that is either a dense kernel or a
//!   [`ttsnn_core::TtConv`]; [`ConvPolicy`] decides per layer, which is how
//!   "TT-SNN can be easily and flexibly integrated" (contribution 2).
//! * [`network`] — the model: one [`Network`] holding a flat layer program
//!   ([`Layer`]s over two activation slots, closed by a classifier), shape-
//!   checked once at build and walked by one tape interpreter, one tensor
//!   interpreter and one accounting / state walk. Program order is the
//!   order of RNG draws, parameters, conv sites, LIF layers and MACs.
//! * [`resnet`] / [`vgg`] — MS-ResNet18/34, ResNet20, VGG9/VGG11 (the
//!   paper's Table II & III model zoo, width-scalable for CPU-feasible
//!   runs): configuration types that emit that program and nothing else.
//!   [`ResNetSnn`] and [`VggSnn`] are names for [`Network`];
//!   [`resnet18_cifar`] / [`resnet34_ncaltech`] are the full-size Table II
//!   specs, walked from the program by [`Program::spec`].
//! * [`loss`] — summed-logit cross-entropy (Algorithm 1 line 16) and the
//!   TET per-timestep loss (Deng et al.).
//! * [`augment`] — NDA-style event-data augmentation (Li et al.).
//! * [`trainer`] — the BPTT training loop with per-step wall-clock timing
//!   (the "training time" column of Table II).
//! * [`sharded`] — data-parallel training: N model replicas on persistent
//!   worker threads, micro-batch gradient accumulation, and a fixed-order
//!   all-reduce that keeps results bit-identical across shard counts.
//! * [`checkpoint`] — binary save/load of model parameters (the hand-off
//!   between pre-training, TT training and merged deployment), shared by
//!   the classic and sharded trainers.
//! * [`quant`] — the **quantized serving plane**: activation calibration
//!   hooks on the inference plane, int8 freezing of conv/classifier
//!   weights (per-output-channel scales, accelerator-faithful saturating
//!   i16 accumulator option), and `Arc`-shared plan weights for
//!   multi-replica serving.
//!
//! # The two execution planes
//!
//! The model API has two traits ([`model`]): [`SpikingModel`] is the
//! structural one and [`InferForward`] the graph-free tensor plane that
//! [`evaluate`], calibration and the `ttsnn_infer` serving engine run on.
//! The training plane is [`Network`]'s inherent tape walk, which both
//! trainers drive on the concrete type. [`Network`] is the one model type.
//!
//! | | training plane | inference plane |
//! |---|---|---|
//! | forward | [`Network::forward_sequence`]`(x, t0, steps)` | [`InferForward::forward_steps_tensor`]`(x, t0, steps)` |
//! | input | `Var`, time-major stack `(steps·B, C, H, W)` | `Tensor`, the same stack |
//! | output | `steps` logit nodes `(B, K)` | one `(steps·B, K)` tensor |
//! | one-step case (tests, oracles) | `forward_timestep(x, t)` | `forward_timestep_tensor(x, t)` |
//! | LIF | `Lif::scan` → `Var::lif_scan`, keeps every `u_t` for backward | `Lif::scan_tensor`, keeps the last membrane, hands the spike words on |
//! | who picks the cut | `trainer::forward_batch`: the whole sequence | the caller: `T` for a whole request or a calibration frame, 1 while a stream can exit early, the chunk otherwise |
//!
//! Both run every layer once over all the timesteps of a call, on the same
//! LIF kernel (`ttsnn_tensor::lif`); no bit of either plane's output
//! depends on how a sequence was cut into calls. [`InferStats`] selects
//! between batch-faithful statistics (bit-identical to the training plane)
//! and per-sample statistics (batch-composition-invariant serving).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod augment;
pub mod checkpoint;
pub mod conv_unit;
pub mod lif;
pub mod loss;
pub mod model;
pub mod network;
pub mod norm;
pub mod quant;
pub mod resnet;
pub mod sharded;
pub mod trainer;
pub mod vgg;

pub use conv_unit::{ConvPolicy, ConvUnit};
pub use lif::{Lif, LifConfig};
pub use loss::LossKind;
pub use model::{InferForward, InferState, InferStats, SpikingModel};
pub use network::{Architecture, Layer, Network, Program, Slot};
pub use norm::{Norm, NormKind};
pub use quant::{CalibStats, QuantConfig, QuantPlanWeights, QuantReport};
pub use resnet::{resnet18_cifar, resnet34_ncaltech, ResNetConfig, ResNetSnn};
pub use sharded::{ShardConfig, ShardedTrainer};
pub use trainer::{evaluate, evaluate_counts, train, StepTiming, TrainConfig, TrainReport};
pub use vgg::{VggConfig, VggSnn};
