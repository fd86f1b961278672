//! # ttsnn-infer
//!
//! The serving side of the two-plane model API: a [`Cluster`] loads a
//! **frozen execution plan** — architecture config + checkpoint,
//! optionally merged back into dense kernels (Algorithm 1, lines 20–22) —
//! onto N executor replicas behind one central scheduler, and
//! [`ClusterSession`]s feed it concurrent single-sample requests.
//! Requests are **coalesced into micro-batches** under a [`BatchPolicy`]
//! (`max_batch` / `max_wait`) and executed graph-free on the inference
//! plane (`ttsnn_snn::InferForward`), where every conv/GEMM fans out over
//! the persistent kernel worker pool.
//!
//! There is one executor family. A single-executor deployment is a
//! cluster `with_replicas(1)`; more replicas buy per-request latency
//! under load. Either way the weights are `Arc`-shared (loaded once,
//! never duplicated), requests carry [`Priority`] classes and optional
//! deadlines, dropping a [`ClusterTicket`] cancels, the bounded queue
//! pushes back via [`ClusterSession::try_submit`], and live
//! [`ClusterMetrics`] keep it observable. See [`cluster`], [`sched`] and
//! [`metrics`]. The scheduler reads all of its time from one [`Clock`]
//! ([`clock`]): [`RealClock`] in service, a [`ManualClock`] the test moves
//! when timing behaviour is under test.
//!
//! ## Determinism contract
//!
//! The plan runs in [`ttsnn_snn::InferStats::PerSample`] mode: every
//! sample is processed exactly as if it were alone in a batch. A
//! request's logits are therefore **bit-identical** whatever requests it
//! happened to be coalesced with, whatever the arrival order, replica
//! count, scheduling order or cancellation interleaving, and whatever
//! kernel thread count the replicas run on (the runtime current at
//! `Cluster::load`) — and equal, bit for bit, to a batch-of-1 pass
//! through the training plane. Batching and replication change wall-clock
//! only. `crates/infer/tests/cluster.rs` pins all of this, and
//! `crates/serve/tests/matrix.rs` across planes, chunkings and transport.
//!
//! ## Quickstart
//!
//! ```
//! use ttsnn_infer::{ArchSpec, Cluster, ClusterConfig, EngineConfig};
//! use ttsnn_snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
//! use ttsnn_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train-side: build (or train) a model and checkpoint it.
//! let cfg = VggConfig::vgg9(3, 5, (8, 8), 16);
//! let model = VggSnn::new(cfg.clone(), &ConvPolicy::Baseline, &mut Rng::seed_from(7));
//! let mut ckpt = Vec::new();
//! checkpoint::save_params(&model.params(), &mut ckpt)?;
//!
//! // Serve-side: freeze a plan and submit a request.
//! let plan = EngineConfig::new(ArchSpec::Vgg(cfg), ConvPolicy::Baseline, 2);
//! let cluster = Cluster::load(ClusterConfig::new(plan).with_replicas(1), ckpt.as_slice())?;
//! let session = cluster.session();
//! let logits = session.infer(Tensor::zeros(&[3, 8, 8]))?;
//! assert_eq!(logits.shape(), &[5]);
//! # Ok(())
//! # }
//! ```
//!
//! ## The quantized plane
//!
//! [`Cluster::load_quantized`] freezes the same checkpoint into an
//! **int8 plan**: TT cores merged to dense, a calibration pass fixes
//! static activation scales ([`QuantSpec`]), and every conv + the
//! classifier runs on the i8×i8→i32 kernels of `ttsnn_tensor::qkernels`
//! (per-output-channel scales; optional accelerator-faithful saturating
//! i16 accumulators — PAPER Table I). Integer accumulation is exact, so
//! quantized logits are bit-identical across thread counts, replica
//! counts, and batch compositions; the int8 plane executes exactly the
//! grid `ttsnn_core::quant`'s fake-quant simulated during QAT.
//! [`plan_drift`] quotes the int8-vs-f32 logit drift and prediction
//! agreement on a request set.
//!
//! ## Streaming sessions
//!
//! A live client (an event camera, a sensor) produces its timesteps
//! incrementally. [`ClusterSession::open_stream`] pins a **stateful
//! streaming session** to one replica: the LIF membrane state stays
//! resident between chunks (moved, never copied), each
//! [`ClusterStreamSession::feed`] advances the session by its chunk's
//! timesteps at the correct *absolute* `t`, and every update carries the
//! cumulative logits — an **any-time output**. The headline guarantee:
//! feeding a `T`-timestep input in chunks of any sizes is
//! **bit-identical, after every prefix,** to submitting it whole, on
//! both the f32 and int8 planes. An optional [`EarlyExit`] margin readout
//! stops integrating once the cumulative top-1/top-2 logit gap clears a
//! threshold — skipped timesteps are banked as MAC savings
//! ([`StreamUpdate::macs_skipped`]). Sessions count toward queue
//! backpressure, may carry per-chunk deadlines, and their resident state
//! is bounded ([`ClusterConfig::stream_state_bytes`], unbounded by
//! default) by LRU eviction that provably never
//! perturbs a surviving session's bits; [`metrics::SessionMetrics`]
//! keeps it all observable. `crates/infer/tests/stream.rs` pins the
//! whole contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod plan;
mod stream;

pub mod clock;
pub mod cluster;
pub mod metrics;
pub mod sched;

pub use clock::{Clock, ManualClock, RealClock};
pub use cluster::{
    plan_drift, Cluster, ClusterConfig, ClusterSession, ClusterStreamSession, ClusterStreamTicket,
    ClusterTicket,
};
pub use metrics::{CloseReason, ClusterMetrics, SessionMetrics, TenantStats, MAX_TRACKED_TENANTS};
pub use plan::{
    ArchSpec, BatchPolicy, EngineConfig, InferError, PlanDrift, PlanInfo, QuantSpec,
    SpikeDensityReport,
};
pub use sched::{
    FairPolicy, Priority, RateLimit, RejectInfo, SubmitError, SubmitOptions, TenantId, TenantPolicy,
};
pub use stream::{EarlyExit, StreamOptions, StreamUpdate};
