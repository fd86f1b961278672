//! The model API: the two traits every consumer of a [`crate::Network`]
//! may hold it by.
//!
//! * [`SpikingModel`] — the structural trait: parameters, state reset,
//!   naming, MAC accounting and spike activity. Everything that is true of
//!   a network regardless of how it is executed.
//! * [`InferForward`] — the inference plane: a **layer-major** forward on
//!   plain [`Tensor`]s, over whatever cut of the sequence the caller has
//!   — all `T` timesteps of a whole request, a stream's chunk, or one
//!   timestep when something must be decided between timesteps. No
//!   autograd nodes are allocated (a property
//!   `crates/snn/tests/infer_parity.rs` pins with the
//!   `ttsnn_autograd::nodes_created` counter), intermediates ride the
//!   runtime's per-thread scratch arenas, and the plane carries the
//!   serving-side determinism contract via [`InferStats`].
//!
//! The training plane is no trait: the trainers take a [`crate::Network`]
//! and call its inherent tape walk, [`crate::Network::forward_sequence`]
//! (Algorithm 1, lines 7–15), which builds the BPTT tape on autograd
//! [`Var`]s with the same layer-major order.
//!
//! # Why two planes
//!
//! The paper's deployment story is train once, serve cheaply (optionally
//! after merging TT cores back into dense kernels). A `Var` forward
//! allocates a tape node per op — pure waste when nothing will ever call
//! `backward()`. The inference plane runs the identical arithmetic straight
//! on the runtime kernels, and does not care how a sequence is cut into
//! calls (a stream feeds chunks and may stop early): in [`InferStats::Batch`]
//! mode it is **bit-identical** to the training plane on the same batch,
//! which is what lets [`crate::trainer::evaluate`] route through it
//! without changing a single reported number.

use ttsnn_autograd::Var;
use ttsnn_tensor::runtime::{self, Runtime};
use ttsnn_tensor::spike::{self, SparseMode};
use ttsnn_tensor::{ShapeError, Tensor};

use crate::conv_unit::route_events;

/// Which statistics — and which batching semantics — the inference plane
/// uses. See the variants for the exact contract; both coincide at batch
/// size 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferStats {
    /// Faithful to the training plane: normalization statistics are
    /// computed per channel over the **whole batch** (exactly like
    /// `Var::batch_norm2d`) and the classifier GEMM runs batched. Output
    /// logits are bit-identical to the training plane on the same batch —
    /// the mode [`crate::trainer::evaluate`] uses.
    #[default]
    Batch,
    /// Serving mode: every sample is processed **exactly as if it were
    /// alone in the batch** — normalization statistics per sample, the
    /// classifier GEMM row by row. Per-sample outputs are therefore
    /// invariant to how requests were coalesced into batches (the
    /// `ttsnn_infer` engine's determinism contract) and bit-identical to a
    /// batch-size-1 training-plane pass on that sample.
    PerSample,
}

/// The structural view of a timestep-unrolled spiking network: what every
/// consumer — trainer, serving engine, FLOPs accounting — needs regardless
/// of the execution plane.
///
/// Implementations hold LIF membrane state between forward calls on
/// either plane; the driver performs the unrolling: reset, then the
/// forwards that cover the sequence (any cut of it on the inference plane,
/// all of it in one call on the training plane), then (on the training
/// plane) a loss on the per-timestep logits and one `backward()` spanning
/// the whole spatio-temporal graph.
///
/// Sealed: [`Network`](crate::Network) is the one implementor, so a model
/// is one layer program walked by one tape interpreter, one tensor
/// interpreter and one accounting walk. Another type cannot implement this
/// trait or [`InferForward`], in this crate or outside it:
///
/// ```
/// # use ttsnn_autograd::Var;
/// struct Mine;
/// impl Mine {
///     fn params(&self) -> Vec<Var> { Vec::new() }
///     fn reset_state(&mut self) {}
///     fn name(&self) -> String { "mine".into() }
///     fn macs_at(&self, _t: usize) -> usize { 0 }
///     fn mean_spike_activity(&self) -> Option<f64> { None }
///     fn layer_spike_densities(&self) -> Vec<f64> { Vec::new() }
/// }
/// ```
///
/// ```compile_fail,E0277
/// # use ttsnn_autograd::Var;
/// struct Mine;
/// impl ttsnn_snn::SpikingModel for Mine {
///     fn params(&self) -> Vec<Var> { Vec::new() }
///     fn reset_state(&mut self) {}
///     fn name(&self) -> String { "mine".into() }
///     fn macs_at(&self, _t: usize) -> usize { 0 }
///     fn mean_spike_activity(&self) -> Option<f64> { None }
///     fn layer_spike_densities(&self) -> Vec<f64> { Vec::new() }
/// }
/// ```
pub trait SpikingModel: sealed::Plane {
    /// All trainable parameters.
    fn params(&self) -> Vec<Var>;

    /// Clears all membrane state on **both** planes (must be called
    /// between batches).
    fn reset_state(&mut self);

    /// Total trainable parameter count.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.value().len()).sum()
    }

    /// Human-readable architecture name.
    fn name(&self) -> String;

    /// Forward MAC count for one sample at timestep `t` (for FLOPs
    /// reporting on the *constructed* network, complementing the analytic
    /// full-size specs in `ttsnn_core::flops`).
    fn macs_at(&self, t: usize) -> usize;

    /// Mean spike activity observed across all LIF layers since training
    /// started (spikes per neuron per timestep), or `None` if the model
    /// has not run.
    fn mean_spike_activity(&self) -> Option<f64>;

    /// Measured spike density of every LIF layer in network order
    /// (spikes per neuron per timestep, from the layers' activity
    /// counters). Layers that have not fired a single step yet report
    /// `0.0`. This is the per-layer statistic the serving plane surfaces
    /// so operators can see how sparse traffic actually is — and whether
    /// the density-adaptive dispatcher will route it to the event-driven
    /// kernels.
    fn layer_spike_densities(&self) -> Vec<f64>;
}

/// The classifier head of a layer-major forward: `features` holds `steps`
/// timesteps of `(B, F)` rows, and each timestep's slab goes through
/// `Var::linear` on its own — the GEMM behind it picks its kernel by row
/// count, so only a `B`-row call reproduces a timestep-at-a-time forward
/// bit for bit.
pub(crate) fn linear_per_timestep(
    features: &Var,
    weight: &Var,
    bias: &Var,
    steps: usize,
) -> Result<Vec<Var>, ShapeError> {
    let rows = features.shape().first().copied().unwrap_or(0);
    if steps == 0 || !rows.is_multiple_of(steps) {
        return Err(ShapeError::new(format!(
            "forward_sequence: {rows} rows do not hold {steps} timestep(s)"
        )));
    }
    let batch = rows / steps;
    (0..steps).map(|t| features.rows(t * batch, batch)?.linear(weight, bias)).collect()
}

/// A snapshot of a model's **inference-plane** recurrent state: every LIF
/// layer's membrane tensor, in network order, moved (never copied) out of
/// the model. This is what the serving layer pins per streaming session —
/// take the state after a chunk, restore it before the next, and the
/// resumed unrolling is **bit-identical** to one that never paused
/// (pinned by `crates/snn/tests/stream_state.rs`).
///
/// The snapshot is `Send`: tensor-plane membranes are plain buffers, so a
/// session's state can be handed between executor threads (unlike the
/// `Var` plane, whose `Rc`-based graph handles never leave their thread).
#[derive(Debug, Default)]
pub struct InferState {
    /// One entry per LIF layer, network order; `None` for layers that had
    /// not stepped yet when the snapshot was taken.
    membranes: Vec<Option<Tensor>>,
}

impl InferState {
    /// Wraps per-layer membranes taken in network order (model-internal;
    /// callers obtain snapshots via [`InferForward::take_infer_state`]).
    pub fn from_membranes(membranes: Vec<Option<Tensor>>) -> Self {
        Self { membranes }
    }

    /// Consumes the snapshot into its per-layer membranes, network order.
    pub fn into_membranes(self) -> Vec<Option<Tensor>> {
        self.membranes
    }

    /// Number of LIF layers the snapshot covers.
    pub fn layers(&self) -> usize {
        self.membranes.len()
    }

    /// Resident size of the snapshot's membrane buffers in bytes — what a
    /// serving session's pinned state costs, and the quantity the cluster's
    /// bounded-memory eviction accounts against.
    pub fn bytes(&self) -> usize {
        self.membranes.iter().flatten().map(|m| m.len() * std::mem::size_of::<f32>()).sum()
    }
}

mod sealed {
    /// The seal on the two plane traits, implemented for `Network` alone.
    pub trait Plane {}

    impl Plane for crate::Network {}
}

/// The **inference plane**: layer-major forward on plain [`Tensor`]s, over
/// any cut of a sequence. Sealed, as [`SpikingModel`] is: `Network` is
/// the one implementor, and `&mut dyn InferForward` takes one.
///
/// Implementations must allocate **zero autograd nodes**, route their
/// heavy kernels through `ttsnn_tensor::runtime`, and recycle every
/// intermediate they take (`Tensor::scratch` / `Tensor::recycle`), so a
/// steady-state serving loop allocates nothing of activation size. The
/// semantics knob is [`InferStats`]: `Batch` is
/// bit-faithful to the training plane on the same batch, `PerSample` is
/// batch-composition-invariant for serving.
pub trait InferForward: SpikingModel {
    /// Processes timesteps `t0..t0 + steps` of a batch without building any
    /// autograd graph. `x` is their input frames as one time-major stack
    /// `(steps·B, C, H, W)` — row `t·B + s` is sample `s` at timestep
    /// `t0 + t` — and the result is the `(steps·B, K)` logits in the same
    /// row order. Every layer runs once over the whole stack; the LIF layers
    /// start from the membranes the previous call left (see
    /// [`SpikingModel::reset_state`]), so the caller picks the cut — a whole
    /// request in one call, a stream's chunk, a single timestep when it has
    /// to look at the logits before the next — and no bit of the logits
    /// depends on it. The logits' buffer, like every intermediate, is
    /// checked out of the calling thread's arena: [`Tensor::recycle`] it
    /// when done (dropping it is correct, it just costs the next call an
    /// allocation).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input does not match the architecture
    /// or does not hold `steps` timesteps.
    fn forward_steps_tensor(
        &mut self,
        x: &Tensor,
        t0: usize,
        steps: usize,
    ) -> Result<Tensor, ShapeError>;

    /// Processes the `(B, C, H, W)` input frame at timestep `t`, returning
    /// `(B, K)` logits: a sequence of one.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input does not match the architecture.
    fn forward_timestep_tensor(&mut self, x: &Tensor, t: usize) -> Result<Tensor, ShapeError> {
        self.forward_steps_tensor(x, t, 1)
    }

    /// Selects the inference-plane statistics/batching semantics. Takes
    /// effect immediately — switch only between sequences (i.e. around a
    /// [`SpikingModel::reset_state`]): changing it mid-unrolling would mix
    /// the two semantics within membrane state built under the other mode,
    /// voiding both determinism contracts for that sequence.
    fn set_infer_stats(&mut self, stats: InferStats);

    /// The currently selected inference-plane semantics.
    fn infer_stats(&self) -> InferStats;

    /// Moves the inference-plane membrane state out of every LIF layer
    /// (network order), leaving the model stateless on that plane — the
    /// training (`Var`) plane and the activity counters are untouched.
    /// Restoring the snapshot resumes the unrolling bit-identically.
    fn take_infer_state(&mut self) -> InferState;

    /// Installs a snapshot previously produced by
    /// [`InferForward::take_infer_state`] on **the same architecture**,
    /// replacing (and recycling) whatever membrane state the layers held.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the snapshot's layer count does not match
    /// this model (a snapshot from a different architecture); per-layer
    /// shape mismatches surface at the next timestep forward.
    fn restore_infer_state(&mut self, state: InferState) -> Result<(), ShapeError>;
}

/// Reads an input against a model whose frames are `frame` `(C, H, W)`
/// (its `Program::input`) and returns how many timesteps it holds:
/// `(C, H, W)` is one frame (a whole sequence repeats it at every
/// timestep), `(n, C, H, W)` is `n ≥ 1` timesteps. A whole sequence
/// (`timesteps = Some(T)`) must hold all `T`; a stream chunk (`None`) may
/// hold any `n`, and its session checks the overrun. Every value must be
/// finite. The one check in front of [`copy_frame`], for requests, stream
/// chunks and calibration frames alike; `what` names the input in the
/// error.
///
/// # Errors
///
/// Returns the message for another shape or a non-finite value.
pub fn validate_frames(
    input: &Tensor,
    frame: [usize; 3],
    timesteps: Option<usize>,
    what: &str,
) -> Result<usize, String> {
    let [c, h, w] = frame;
    let shape = input.shape();
    let n = match shape.len() {
        3 if shape == frame => 1,
        4 if shape[1..] == frame && shape[0] >= 1 && timesteps.is_none_or(|t| t == shape[0]) => {
            shape[0]
        }
        _ => {
            let run = match timesteps {
                Some(t) => format!("({t}, C, H, W)"),
                None => "(n, C, H, W) with n >= 1".to_string(),
            };
            return Err(format!(
                "{what} {shape:?} does not match the plan: must be (C, H, W) or {run}, where \
                 (C, H, W) = ({c}, {h}, {w})"
            ));
        }
    };
    // A NaN/∞ pixel would return NaN logits on the float plane and —
    // worse — quantize silently to 0 on the int8 plane (confidently
    // wrong answers), or set an activation scale no frame can use.
    if let Some(i) = input.data().iter().position(|v| !v.is_finite()) {
        return Err(format!("{what} has a non-finite value at flat index {i}"));
    }
    Ok(n)
}

/// Copies timestep `t`'s frame of an input into `row`, one frame long: a
/// `(C, H, W)` input is the same frame at every timestep (direct coding),
/// an `(n, C, H, W)` input holds timestep `t` at index `t`. The one reader
/// that stacks requests, stream chunks and calibration frames time-major
/// for [`InferForward::forward_steps_tensor`]; callers
/// [validate](validate_frames) the input first.
///
/// # Panics
///
/// Panics if the input holds no frame `t` of `row.len()` values.
pub fn copy_frame(input: &Tensor, t: usize, row: &mut [f32]) {
    let len = row.len();
    let offset = if input.ndim() == 4 { t * len } else { 0 };
    row.copy_from_slice(&input.data()[offset..offset + len]);
}

/// Tensor-plane fully connected layer `y = x · wᵀ + b` with `x: (steps·B,
/// F)`, `w: (O, F)`, `b: (O)` — the graph-free twin of
/// [`linear_per_timestep`] — under an explicit sparse-dispatch mode (the
/// models resolve their override once per call). Also returns whether the
/// sparse kernel served the call.
///
/// In [`InferStats::Batch`] mode every timestep's `B` rows run as one
/// batched GEMM (bit-identical to the `Var` path, whose kernel is picked by
/// row count); in [`InferStats::PerSample`] mode the product runs row by
/// row, so each sample's logits are computed by the exact kernel a
/// batch-of-1 call would use, whatever the batch size.
///
/// Only the [`InferStats::PerSample`] arm ever routes to the event-driven
/// [`spike::sparse_linear`]: the sparse kernel replicates the per-row
/// (`m = 1`) GEMM summation order exactly, whereas the
/// [`InferStats::Batch`] arm's batched GEMM switches to a different
/// (blocked) order at ≥ 8 rows — so Batch mode stays dense to keep its
/// bit-identity with the training plane unconditional.
pub(crate) fn linear_tensor_mode(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    steps: usize,
    stats: InferStats,
    mode: SparseMode,
) -> Result<(Tensor, bool), ShapeError> {
    if x.ndim() != 2 || w.ndim() != 2 || b.ndim() != 1 {
        return Err(ShapeError::new(format!(
            "linear_tensor: expected x:(B,F) w:(O,F) b:(O), got {:?} {:?} {:?}",
            x.shape(),
            w.shape(),
            b.shape()
        )));
    }
    let (rows, feat) = (x.shape()[0], x.shape()[1]);
    let (out, feat2) = (w.shape()[0], w.shape()[1]);
    if feat != feat2 || b.shape()[0] != out || steps == 0 || !rows.is_multiple_of(steps) {
        return Err(ShapeError::new(format!(
            "linear_tensor: inconsistent dims x:{:?} w:{:?} b:{:?} over {steps} timestep(s)",
            x.shape(),
            w.shape(),
            b.shape()
        )));
    }
    let sparse = match stats {
        InferStats::Batch => None,
        InferStats::PerSample => route_events(x, None, mode),
    };
    let mut y = match sparse.as_deref() {
        Some(sp) => spike::sparse_linear(sp, w)?,
        None => {
            // Rows per GEMM call: a timestep's batch, or one sample.
            let m = if stats == InferStats::Batch { (rows / steps).max(1) } else { 1 };
            let mut y = Tensor::scratch(&[rows, out]);
            let rt = &Runtime::current();
            for (xs, ys) in x.data().chunks(m * feat).zip(y.data_mut().chunks_mut(m * out)) {
                runtime::gemm_a_bt(rt, xs, w.data(), ys, m, feat, out);
            }
            y
        }
    };
    for row in y.data_mut().chunks_mut(out) {
        for (v, &bias) in row.iter_mut().zip(b.data()) {
            *v += bias;
        }
    }
    Ok((y, sparse.is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::Rng;

    /// One timestep under the default dispatch mode.
    fn linear_tensor(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        stats: InferStats,
    ) -> Result<Tensor, ShapeError> {
        linear_tensor_mode(x, w, b, 1, stats, spike::sparse_mode()).map(|(y, _)| y)
    }

    #[test]
    fn chunk_validation() {
        let (fs, what) = ([2, 3, 3], "stream chunk");
        assert_eq!(validate_frames(&Tensor::zeros(&[2, 3, 3]), fs, None, what), Ok(1));
        assert_eq!(validate_frames(&Tensor::zeros(&[4, 2, 3, 3]), fs, None, what), Ok(4));
        assert!(validate_frames(&Tensor::zeros(&[3, 3]), fs, None, what).is_err());
        assert!(validate_frames(&Tensor::zeros(&[1, 3, 3]), fs, None, what).is_err());
        assert!(validate_frames(&Tensor::zeros(&[0, 2, 3, 3]), fs, None, what).is_err());
        let mut bad = Tensor::zeros(&[2, 3, 3]);
        *bad.at_mut(&[0, 1, 1]) = f32::NAN;
        assert!(validate_frames(&bad, fs, None, what).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn whole_requests_hold_one_frame_or_all_timesteps() {
        let (fs, what) = ([2, 3, 3], "request input");
        assert_eq!(validate_frames(&Tensor::zeros(&[2, 3, 3]), fs, Some(4), what), Ok(1));
        assert_eq!(validate_frames(&Tensor::zeros(&[4, 2, 3, 3]), fs, Some(4), what), Ok(4));
        let short = validate_frames(&Tensor::zeros(&[3, 2, 3, 3]), fs, Some(4), what).unwrap_err();
        assert!(short.contains("does not match the plan"), "{short}");
        assert!(short.starts_with("request input [3, 2, 3, 3]"), "{short}");
    }

    #[test]
    fn linear_tensor_matches_var_linear_in_batch_mode() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[9, 7], &mut rng); // 9 rows: batched-GEMM path
        let w = Tensor::randn(&[5, 7], &mut rng);
        let b = Tensor::randn(&[5], &mut rng);
        let via_var = Var::constant(x.clone())
            .linear(&Var::constant(w.clone()), &Var::constant(b.clone()))
            .unwrap()
            .to_tensor();
        let via_tensor = linear_tensor(&x, &w, &b, InferStats::Batch).unwrap();
        assert_eq!(via_var, via_tensor, "batch mode must be bit-identical to the Var plane");
    }

    #[test]
    fn linear_tensor_per_sample_is_batch_invariant() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[12, 6], &mut rng); // > 8 rows: the batched
        let w = Tensor::randn(&[4, 6], &mut rng); // GEMM would switch kernels
        let b = Tensor::randn(&[4], &mut rng);
        let batched = linear_tensor(&x, &w, &b, InferStats::PerSample).unwrap();
        for s in 0..12 {
            let row = Tensor::from_vec(x.data()[s * 6..(s + 1) * 6].to_vec(), &[1, 6]).unwrap();
            let solo = linear_tensor(&row, &w, &b, InferStats::PerSample).unwrap();
            assert_eq!(
                &batched.data()[s * 4..(s + 1) * 4],
                solo.data(),
                "row {s} must not depend on batch composition"
            );
        }
    }

    #[test]
    fn linear_tensor_rejects_bad_shapes() {
        let x = Tensor::zeros(&[2, 5]);
        let w = Tensor::zeros(&[3, 4]);
        let b = Tensor::zeros(&[3]);
        assert!(linear_tensor(&x, &w, &b, InferStats::Batch).is_err());
        assert!(linear_tensor(
            &x,
            &Tensor::zeros(&[3, 5]),
            &Tensor::zeros(&[2]),
            InferStats::Batch
        )
        .is_err());
    }
}
