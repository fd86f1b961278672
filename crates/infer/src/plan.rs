//! The frozen execution plan: what a plan is made from ([`EngineConfig`],
//! [`QuantSpec`]), how it is frozen ([`build_plan`]), and the forward
//! core every cluster replica runs ([`forward_requests`]).
//!
//! A plan is frozen once, before any replica starts: [`build_plan`]
//! loads the checkpoint, merges, calibrates and quantizes a model, keeps
//! the `Send` result — a [`FrozenPlan`]: the description plus `Arc`-shared
//! weights — and drops the model. The autograd graph handles inside a
//! model (`Var`) are `Rc`-based and deliberately not `Send`, so every
//! replica builds its own serving model from the frozen plan on the thread
//! that serves it; see
//! [`crate::cluster`] for the threads and [`crate::sched`] for how
//! requests are coalesced under a [`BatchPolicy`]. Because the plan runs
//! in per-sample mode (see the crate docs), the batching policy is a pure
//! latency/throughput trade-off: it cannot change any output bit.

use std::io;
use std::time::Duration;

use ttsnn_snn::model::copy_frame;
use ttsnn_snn::quant::{QuantConfig, QuantPlanWeights};
use ttsnn_snn::{
    checkpoint, ConvPolicy, InferForward, Network, QuantReport, ResNetConfig, SpikingModel,
    VggConfig,
};
use ttsnn_tensor::{Rng, Tensor};

use crate::sched::RejectInfo;

/// Which architecture a plan instantiates before loading weights.
#[derive(Debug, Clone)]
pub enum ArchSpec {
    /// A spiking VGG (`ttsnn_snn::VggSnn`).
    Vgg(VggConfig),
    /// A spiking (MS-)ResNet (`ttsnn_snn::ResNetSnn`).
    ResNet(ResNetConfig),
}

/// Dynamic micro-batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on requests coalesced into one forward pass (≥ 1).
    pub max_batch: usize,
    /// Upper bound on how long an open batch waits for co-travellers
    /// before executing. It binds while the scheduler does not know who to
    /// expect (its first batch) or somebody it expects stays away; otherwise
    /// a batch closes as soon as everyone who could join it has
    /// (`sched::batch_close`). `Duration::ZERO` serves every request the
    /// moment it arrives; `Duration::MAX` is no bound at all.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    /// Up to 8 requests per batch, open for at most 2 ms.
    fn default() -> Self {
        Self { max_batch: 8, max_wait: Duration::from_millis(2) }
    }
}

/// Everything needed to freeze an execution plan.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Architecture to instantiate.
    pub arch: ArchSpec,
    /// Convolution policy the checkpoint was trained under.
    pub policy: ConvPolicy,
    /// Timesteps per request (the `T` of the BPTT unrolling).
    pub timesteps: usize,
    /// Merge TT cores back into dense kernels after loading (the paper's
    /// deployment pipeline). No-op for dense checkpoints.
    pub merge_into_dense: bool,
    /// Request-coalescing policy.
    pub batching: BatchPolicy,
}

impl EngineConfig {
    /// A config with default batching and no merge-back.
    pub fn new(arch: ArchSpec, policy: ConvPolicy, timesteps: usize) -> Self {
        Self { arch, policy, timesteps, merge_into_dense: false, batching: BatchPolicy::default() }
    }

    /// Enables TT→dense merge-back at load time.
    pub fn merged(mut self) -> Self {
        self.merge_into_dense = true;
        self
    }

    /// Overrides the batching policy.
    pub fn with_batching(mut self, batching: BatchPolicy) -> Self {
        self.batching = batching;
        self
    }
}

/// How to freeze a checkpoint into a **quantized** (int8) plan: the
/// quantization knobs plus the calibration set whose activation
/// statistics fix the static scales. Consumed by
/// `Cluster::load_quantized`.
#[derive(Debug, Clone)]
pub struct QuantSpec {
    /// Scale granularity and accumulator width.
    pub config: QuantConfig,
    /// Calibration frames — `(C, H, W)` direct coding or `(T, C, H, W)`
    /// per-timestep — run through the inference plane before freezing.
    /// Must be non-empty.
    pub calibration: Vec<Tensor>,
}

impl QuantSpec {
    /// A spec with default quantization (per-channel scales, exact i32
    /// accumulators) over the given calibration frames.
    pub fn new(calibration: Vec<Tensor>) -> Self {
        Self { config: QuantConfig::default(), calibration }
    }

    /// Overrides the quantization knobs.
    pub fn with_config(mut self, config: QuantConfig) -> Self {
        self.config = config;
        self
    }
}

/// What a loaded plan looks like (reported by `Cluster::info`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInfo {
    /// Model name, e.g. `"VGG9 [merged-dense]"`.
    pub model: String,
    /// Trainable parameter count of the serving model. For quantized
    /// plans this counts only the float parameters that remain (the norm
    /// layers) — the frozen int8 weights are reported in [`PlanInfo::quant`].
    pub num_params: usize,
    /// TT layers merged into dense kernels at load time.
    pub merged_layers: usize,
    /// Classes per logit vector.
    pub num_classes: usize,
    /// What `quantize()` froze, when the plan was loaded with
    /// `Cluster::load_quantized`.
    pub quant: Option<QuantReport>,
}

/// Measured spike density of a serving plan, from the LIF layers'
/// activity counters — cumulative over all traffic the plan (or one
/// cluster replica) has served since load. This is the statistic that
/// tells an operator whether the density-adaptive dispatcher routes their
/// traffic to the event-driven sparse kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeDensityReport {
    /// Per-LIF-layer spike density (spikes per neuron per timestep),
    /// network order. Layers that have not run yet report `0.0`.
    pub per_layer: Vec<f64>,
    /// Density over all layers pooled (weighted by neuron-steps), or
    /// `None` before any traffic.
    pub mean: Option<f64>,
}

/// Errors surfaced by submission and tickets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The request's input tensor does not match the plan.
    Shape(String),
    /// The cluster (its scheduler and replicas) has shut down.
    EngineClosed,
    /// The request's deadline passed while it was still queued, so the
    /// scheduler dropped it without executing (see `ttsnn_infer::sched`).
    DeadlineExpired,
    /// The streaming session's resident state was evicted under memory
    /// pressure (see `ClusterConfig::stream_state_bytes`): its membranes
    /// are gone, so the stream cannot be resumed — reopen and re-feed from
    /// t = 0.
    SessionEvicted,
    /// The streaming session does not exist (already closed, or never
    /// opened on this replica).
    SessionClosed,
    /// A live cluster refused the request at admission — its queue was
    /// saturated or the tenant's rate limit was spent — so it never ran.
    /// Retry after [`RejectInfo::retry_after`].
    Rejected(RejectInfo),
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::Shape(msg) => write!(f, "shape error: {msg}"),
            InferError::EngineClosed => write!(f, "inference engine has shut down"),
            InferError::DeadlineExpired => {
                write!(f, "request deadline expired before execution started")
            }
            InferError::SessionEvicted => {
                write!(f, "streaming session state was evicted under memory pressure")
            }
            InferError::SessionClosed => write!(f, "streaming session is closed"),
            InferError::Rejected(info) => write!(
                f,
                "request rejected at admission (tenant {}, retry after {:?})",
                info.tenant, info.retry_after
            ),
        }
    }
}

impl std::error::Error for InferError {}

/// A checkpoint, calibration set or shared plan that does not fit the
/// architecture: `InvalidData`.
pub(crate) fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl ArchSpec {
    /// Instantiates the architecture with throw-away weights (the caller
    /// overwrites them from a checkpoint or a shared plan, so the seed is
    /// irrelevant), validating every layer's shape on the way.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a geometry the architecture cannot realise (a
    /// 2×2 pool on an odd map, mismatched stage lists, a zero width).
    pub(crate) fn instantiate(&self, policy: &ConvPolicy) -> io::Result<Network> {
        let mut rng = Rng::seed_from(0);
        match self {
            ArchSpec::Vgg(c) => Network::try_new(c, policy, &mut rng),
            ArchSpec::ResNet(c) => Network::try_new(c, policy, &mut rng),
        }
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
    }
}

/// What [`build_plan`] freezes, all of it `Send`: the plan's description,
/// its float parameters as `Arc`-shared tensors (for quantized plans, the
/// norm parameters that remain), and — for quantized plans — the frozen
/// int8 layers. Every replica builds its serving model from these.
pub(crate) struct FrozenPlan {
    pub(crate) info: PlanInfo,
    pub(crate) weights: Vec<Tensor>,
    pub(crate) quant: Option<QuantPlanWeights>,
}

/// Freezes the plan on the calling thread: checkpoint loading, TT→dense
/// merge-back, and (for quantized plans) calibration + int8 freezing all
/// happen here, once. The model it freezes is dropped; what survives is
/// the `Send` [`FrozenPlan`] the replicas install. `cfg` and `quant` were
/// validated by `Cluster::load` first.
pub(crate) fn build_plan(
    cfg: &EngineConfig,
    ckpt: &[u8],
    quant: Option<&QuantSpec>,
) -> io::Result<FrozenPlan> {
    let mut model = cfg.arch.instantiate(&cfg.policy)?;
    checkpoint::load_params(&model.params(), ckpt).map_err(invalid_data)?;
    let merged_layers =
        if cfg.merge_into_dense { model.merge_into_dense().map_err(invalid_data)? } else { 0 };
    let quant_info = match quant {
        Some(q) => {
            let calib = model.calibrate(&q.calibration, cfg.timesteps).map_err(invalid_data)?;
            Some(model.quantize(&calib, &q.config).map_err(invalid_data)?)
        }
        None => None,
    };
    let info = PlanInfo {
        model: model.name(),
        num_params: model.num_params(),
        merged_layers,
        num_classes: model.program().num_classes,
        quant: quant_info,
    };
    Ok(FrozenPlan {
        info,
        weights: checkpoint::share_params(&model.params()),
        quant: model.quant_plan(),
    })
}

/// Snapshot of a serving model's measured spike density (what a replica
/// reports into the cluster metrics after each batch).
pub(crate) fn density_report(model: &Network) -> SpikeDensityReport {
    SpikeDensityReport {
        per_layer: model.layer_spike_densities(),
        mean: model.mean_spike_activity(),
    }
}

/// Rejects quantization specs that cannot fix a scale: with no
/// calibration frames every activation scale would be a blind guess, and
/// the plan would silently serve garbage.
pub(crate) fn validate_quant(quant: &QuantSpec) -> Result<(), String> {
    if quant.calibration.is_empty() {
        return Err("QuantSpec.calibration must hold at least one frame (activation scales are \
             measured, not guessed)"
            .to_string());
    }
    Ok(())
}

/// Rejects plan configurations that would wedge or never serve: a
/// `max_batch` of 0 admits no request into any batch, so a replica would
/// pop requests it can never serve. Checked by `Cluster::load` before any
/// thread is spawned.
pub(crate) fn validate_config(cfg: &EngineConfig) -> Result<(), String> {
    if cfg.timesteps == 0 {
        return Err("EngineConfig.timesteps must be at least 1".to_string());
    }
    if cfg.batching.max_batch == 0 {
        return Err("BatchPolicy.max_batch must be at least 1 (0 would admit no request into \
             any batch and wedge the executor)"
            .to_string());
    }
    Ok(())
}

/// One call into the model — timesteps `t0..t0 + steps` of the time-major
/// stack `x`, whatever cut the caller chose — under a `forward` trace span
/// (steps and `macs`, their summed per-sample MACs, as payload) for every
/// traced request in the thread's context; the kernel regions nest inside it.
pub(crate) fn forward_steps(
    model: &mut Network,
    x: &Tensor,
    (t0, steps): (usize, usize),
    macs: u64,
) -> Result<Tensor, String> {
    let _span = ttsnn_obs::region_with("forward", steps as u64, macs);
    model.forward_steps_tensor(x, t0, steps).map_err(|e| e.to_string())
}

/// Adds the `(steps·B, K)` logits of a run of timesteps into `summed`
/// `(B, K)`, timestep by timestep — the additions, in the order, of a
/// caller that took one timestep's logits at a time — and recycles them.
pub(crate) fn fold_logits(summed: Option<Tensor>, logits: Tensor, batch: usize) -> Tensor {
    let k = logits.shape()[1];
    let mut steps = logits.data().chunks(batch * k);
    let mut summed = summed.unwrap_or_else(|| {
        let mut first = Tensor::scratch(&[batch, k]);
        first.data_mut().copy_from_slice(steps.next().expect("at least one timestep"));
        first
    });
    for step in steps {
        summed.data_mut().iter_mut().zip(step).for_each(|(a, &l)| *a += l);
    }
    logits.recycle();
    summed
}

/// Stacks pre-validated same-plan inputs time-major, runs the frozen plan
/// over the whole sequence in one layer-major walk, and returns the
/// time-summed `(B, K)` logits. The forward core of every cluster replica:
/// a whole-sequence request has nothing to decide between timesteps, so its
/// cut is `steps = T`.
///
/// Inputs are `(C, H, W)` direct-coding frames (repeated at each timestep)
/// or `(T, C, H, W)` per-timestep frames, already checked by
/// [`validate_frames`](ttsnn_snn::model::validate_frames). The stack, every
/// activation and the logits ride the thread's arena; the caller recycles
/// the returned tensor once scattered. `traces` (the members'
/// `ttsnn_obs` trace ids; empty or all-zero = untraced) becomes the thread's
/// trace context for the call.
///
/// # Errors
///
/// Returns the model's own error message if the forward pass rejects the
/// stacked batch (unreachable for validated inputs); the model's state is
/// reset before returning.
pub(crate) fn forward_requests(
    model: &mut Network,
    timesteps: usize,
    inputs: &[&Tensor],
    traces: &[u64],
) -> Result<Tensor, String> {
    let b = inputs.len();
    let [c, h, w] = model.program().input;
    let frame_len = c * h * w;
    model.reset_state();
    let _ctx = ttsnn_obs::TraceContext::enter(traces);
    // Row t·B + s: request s's frame for timestep t.
    let mut stack = Tensor::scratch(&[timesteps * b, c, h, w]);
    for (row, slot) in stack.data_mut().chunks_mut(frame_len).enumerate() {
        copy_frame(inputs[row % b], row / b, slot);
    }
    let macs = (0..timesteps).map(|t| model.macs_at(t) as u64).sum();
    let logits =
        forward_steps(model, &stack, (0, timesteps), macs).inspect_err(|_| model.reset_state());
    stack.recycle();
    Ok(fold_logits(None, logits?, b))
}

/// `InferStats`-style drift report of one plan against a reference plan
/// over a request set — the standard way to quote what int8 freezing did
/// to a checkpoint's serving numbers (see [`crate::plan_drift`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDrift {
    /// Requests compared.
    pub requests: usize,
    /// Mean |logit difference| across all requests and classes.
    pub mean_abs_err: f64,
    /// Largest |logit difference| seen.
    pub max_abs_err: f32,
    /// Fraction of requests whose argmax prediction agreed.
    pub agreement: f64,
    /// The reference plan's measured spike density after serving the
    /// comparison traffic (the cluster's cumulative
    /// [`ClusterMetrics`](crate::ClusterMetrics) densities); `None` before
    /// its first batch was recorded.
    pub reference_density: Option<SpikeDensityReport>,
    /// Same for the candidate plan.
    pub candidate_density: Option<SpikeDensityReport>,
}
