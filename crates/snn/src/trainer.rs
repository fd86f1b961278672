//! The BPTT training loop (Algorithm 1, lines 6–19) with wall-clock
//! training-time measurement.
//!
//! "Training time" in Table II is *the time taken for forward and backward
//! passes on a single batch*; [`train`] therefore times every optimization
//! step and reports the mean per-batch seconds alongside loss/accuracy
//! curves.
//!
//! # Threading
//!
//! The loop itself is single-threaded per model (the autograd graph is
//! `Rc`-based by design), but every kernel it executes — each layer once
//! over all timesteps in the forward, and the whole BPTT backward sweep —
//! is batch- and row-parallel through [`ttsnn_tensor::runtime`]. Thread count comes from
//! the machine (override with `TTSNN_NUM_THREADS`); [`TrainReport::threads`]
//! records what a run actually used so timing numbers are comparable.

use std::time::Instant;

use ttsnn_tensor::runtime::{PoolStats, Runtime};

use ttsnn_autograd::{nodes_created, CosineAnnealing, Sgd, SgdConfig, Var};
use ttsnn_data::Batch;
use ttsnn_tensor::{ShapeError, Tensor};

use crate::loss::LossKind;
use crate::model::{InferForward, InferStats, SpikingModel};
use crate::network::Network;

/// Hyper-parameters for a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Initial learning rate (cosine-annealed to 0, as in the paper).
    pub lr: f32,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Weight decay (paper: 1e-4).
    pub weight_decay: f32,
    /// Loss applied to the per-timestep logits.
    pub loss: LossKind,
}

impl Default for TrainConfig {
    /// Paper hyper-parameters scaled to short synthetic runs: lr 0.1,
    /// momentum 0.9, weight decay 1e-4, sum-CE loss, 8 epochs.
    fn default() -> Self {
        Self { epochs: 8, lr: 0.1, momentum: 0.9, weight_decay: 1e-4, loss: LossKind::SumCe }
    }
}

/// Wall-clock seconds of one optimization step (or the mean over several
/// steps), in total and by phase, and what the kernel pool did meanwhile.
/// The phases leave out only `zero_grad` and the bookkeeping between them,
/// so they sum to just under `total`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepTiming {
    /// The whole step.
    pub total: f64,
    /// Forward over all timesteps, plus the loss.
    pub forward: f64,
    /// The BPTT backward sweep.
    pub backward: f64,
    /// Folding the micro-batch gradients in fixed order (data-parallel
    /// steps only; `0.0` for [`train_step`]).
    pub all_reduce: f64,
    /// The SGD update.
    pub optimizer: f64,
    /// Kernel ranges the global pool's workers ran during the step
    /// ([`PoolStats::handoffs`]): zero means the step ran on one core.
    pub pool_handoffs: f64,
    /// Times a pool worker or a waiting kernel went to sleep during the
    /// step ([`PoolStats::parks`]). Each costs a later kernel a wake-up, so
    /// a slow step with many of these lost its time there.
    pub pool_parks: f64,
    /// Autograd nodes the step put on the tape (the growth of
    /// [`ttsnn_autograd::nodes_created`] over it; summed over the replicas
    /// of a data-parallel step). It depends on the model and the number of
    /// timesteps only, so it repeats exactly from step to step.
    pub tape_nodes: f64,
}

impl StepTiming {
    /// Records what `rt`'s kernel pool did since `before`.
    pub(crate) fn with_pool_since(mut self, rt: &Runtime, before: &PoolStats) -> Self {
        let pool = rt.stats().since(before);
        self.pool_handoffs = pool.handoffs as f64;
        self.pool_parks = pool.parks as f64;
        self
    }
}

impl std::ops::AddAssign for StepTiming {
    fn add_assign(&mut self, other: Self) {
        self.total += other.total;
        self.forward += other.forward;
        self.backward += other.backward;
        self.all_reduce += other.all_reduce;
        self.optimizer += other.optimizer;
        self.pool_handoffs += other.pool_handoffs;
        self.pool_parks += other.pool_parks;
        self.tape_nodes += other.tape_nodes;
    }
}

impl std::ops::Div<f64> for StepTiming {
    type Output = Self;

    /// Every field divided by `n` — the mean of `n` summed steps.
    fn div(self, n: f64) -> Self {
        Self {
            total: self.total / n,
            forward: self.forward / n,
            backward: self.backward / n,
            all_reduce: self.all_reduce / n,
            optimizer: self.optimizer / n,
            pool_handoffs: self.pool_handoffs / n,
            pool_parks: self.pool_parks / n,
            tape_nodes: self.tape_nodes / n,
        }
    }
}

/// Running totals of a training run's steps, from which [`EpochStats`] and
/// [`TrainReport`] take their means. Shared by [`train`] and
/// [`crate::ShardedTrainer::train`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepTotals {
    loss: f32,
    timing: StepTiming,
    steps: usize,
}

impl StepTotals {
    pub(crate) fn add(&mut self, loss: f32, timing: StepTiming) {
        self.loss += loss;
        self.timing += timing;
        self.steps += 1;
    }

    fn mean_timing(&self) -> StepTiming {
        self.timing / self.steps.max(1) as f64
    }

    /// The statistics of an epoch whose steps these are.
    pub(crate) fn epoch(&self, accuracy: f32) -> EpochStats {
        EpochStats {
            loss: self.loss / self.steps.max(1) as f32,
            accuracy,
            step_timing: self.mean_timing(),
        }
    }

    /// The report of a run whose steps these are.
    pub(crate) fn report(
        &self,
        epochs: Vec<EpochStats>,
        test_accuracy: f32,
        shards: usize,
    ) -> TrainReport {
        TrainReport {
            epochs,
            test_accuracy,
            mean_step_timing: self.mean_timing(),
            threads: Runtime::current().threads(),
            shards,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Mean training loss.
    pub loss: f32,
    /// Training accuracy over the epoch's batches.
    pub accuracy: f32,
    /// Mean seconds per optimization step, in total and by phase
    /// (forward + backward + update).
    pub step_timing: StepTiming,
}

/// Result of a full training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-epoch statistics in order.
    pub epochs: Vec<EpochStats>,
    /// Accuracy on the held-out batches after the final epoch.
    pub test_accuracy: f32,
    /// Mean seconds per optimization step across all epochs — its
    /// `total` is the "training time" column of Table II — and where that
    /// time goes: forward / backward / all-reduce / optimizer.
    pub mean_step_timing: StepTiming,
    /// Worker threads the kernel runtime used for this run.
    pub threads: usize,
    /// Data-parallel model replicas the run used (1 for [`train`]; the
    /// shard count for [`crate::ShardedTrainer::train`]).
    pub shards: usize,
}

impl TrainReport {
    /// Final training loss.
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map(|e| e.loss).unwrap_or(f32::NAN)
    }

    /// First-epoch training loss (for "loss decreased" assertions).
    pub fn first_loss(&self) -> f32 {
        self.epochs.first().map(|e| e.loss).unwrap_or(f32::NAN)
    }
}

/// Checks that a batch's frames share one shape leading with its `B` labels
/// and stacks them once, time-major, as `(T·B, C, H, W)` (row `t·B + s`) in
/// an arena buffer — the input both planes take for a whole sequence. Errors
/// name `caller` and the offending timestep.
fn stack_frames(batch: &Batch, caller: &str) -> Result<Tensor, ShapeError> {
    let first = batch
        .frames
        .first()
        .ok_or_else(|| ShapeError::new(format!("{caller}: the batch has no timesteps")))?;
    for (t, frame) in batch.frames.iter().enumerate() {
        if frame.shape() != first.shape() {
            return Err(ShapeError::new(format!(
                "{caller}: the frame of timestep {t} has shape {:?}, timestep 0 has {:?}",
                frame.shape(),
                first.shape()
            )));
        }
        if frame.shape().first() != Some(&batch.labels.len()) {
            return Err(ShapeError::new(format!(
                "{caller}: the frame of timestep {t} has shape {:?}, which does not lead \
                 with the batch's {} labels",
                frame.shape(),
                batch.labels.len()
            )));
        }
    }
    let mut shape = first.shape().to_vec();
    shape[0] *= batch.timesteps();
    let mut stacked = Tensor::scratch(&shape);
    for (rows, frame) in stacked.data_mut().chunks_mut(first.len().max(1)).zip(&batch.frames) {
        rows.copy_from_slice(frame.data());
    }
    Ok(stacked)
}

/// Runs the forward pass over all timesteps of one batch, returning the
/// per-timestep logits. Resets model state first, then stacks the frames
/// once as `(T·B, C, H, W)` and hands the model the whole sequence
/// ([`Network::forward_sequence`]).
///
/// # Errors
///
/// Returns [`ShapeError`] if the batch has no timesteps, a frame's shape
/// differs from the first timestep's or its batch dimension from the number
/// of labels (naming the timestep), or the batch does not match the model.
pub fn forward_batch(model: &mut Network, batch: &Batch) -> Result<Vec<Var>, ShapeError> {
    // The tape's copy of the frames lives in the arena like every other
    // value on it, and goes back there with the tape.
    let stacked = stack_frames(batch, "forward_batch")?;
    model.reset_state();
    model.forward_sequence(&Var::constant(stacked), 0, batch.timesteps())
}

/// Forward over all timesteps, loss, BPTT backward — the part of a step
/// the classic and the data-parallel trainer share. Leaves the gradients on
/// the parameters; returns the loss, the two phases' seconds and the number
/// of nodes the tape grew by.
pub(crate) fn forward_backward(
    model: &mut Network,
    batch: &Batch,
    loss_kind: LossKind,
) -> Result<(f32, f64, f64, u64), ShapeError> {
    let nodes_before = nodes_created();
    let start = Instant::now();
    let logits = forward_batch(model, batch)?;
    let loss = loss_kind.compute(&logits, &batch.labels)?;
    let loss_value = loss.value().data()[0];
    let forward = start.elapsed().as_secs_f64();
    loss.backward();
    let backward = start.elapsed().as_secs_f64() - forward;
    Ok((loss_value, forward, backward, nodes_created() - nodes_before))
}

/// One timed optimization step: forward over all timesteps, loss, BPTT
/// backward, SGD update. Returns the loss and the step's seconds, in total
/// and by phase.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes are inconsistent.
pub fn train_step(
    model: &mut Network,
    batch: &Batch,
    opt: &mut Sgd,
    loss_kind: LossKind,
) -> Result<(f32, StepTiming), ShapeError> {
    let rt = Runtime::current();
    let pool_before = rt.stats();
    let start = Instant::now();
    opt.zero_grad();
    let (loss, forward, backward, tape_nodes) = forward_backward(model, batch, loss_kind)?;
    let stepping = Instant::now();
    opt.step();
    let optimizer = stepping.elapsed().as_secs_f64();
    let total = start.elapsed().as_secs_f64();
    let timing = StepTiming {
        total,
        forward,
        backward,
        optimizer,
        tape_nodes: tape_nodes as f64,
        ..StepTiming::default()
    };
    Ok((loss, timing.with_pool_since(&rt, &pool_before)))
}

/// Accuracy of summed-logit predictions over batches, computed on the
/// **inference plane** ([`InferForward`]) — graph-free.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes are inconsistent.
pub fn evaluate(model: &mut dyn InferForward, batches: &[Batch]) -> Result<f32, ShapeError> {
    let (correct, total) = evaluate_counts(model, batches)?;
    Ok(if total == 0 { 0.0 } else { correct as f32 / total as f32 })
}

/// Raw `(correct, total)` prediction counts behind [`evaluate`]. The
/// data-parallel trainer evaluates disjoint batch subsets on each replica
/// and sums these integer counts — an order-free reduction, so sharded
/// evaluation is trivially deterministic.
///
/// Runs entirely on the inference plane, one layer-major call per batch:
/// the frames are stacked once, as [`forward_batch`] stacks them, and
/// [`InferForward::forward_steps_tensor`] walks all `T` timesteps; the `T`
/// `(B, K)` logit slabs are then summed in timestep order. **Zero autograd
/// nodes** are allocated (asserted by `crates/snn/tests/infer_parity.rs` via
/// `ttsnn_autograd::nodes_created`). The model is pinned to
/// [`crate::InferStats::Batch`] for the duration of the call (and
/// restored afterwards). Each timestep's `B` rows stay one statistics group
/// and one classifier GEMM, so the per-timestep logits are bit-identical to
/// the `Var` plane's and reported accuracies match the old tape-building
/// implementation exactly, even for a model that was switched to serving
/// (`PerSample`) mode in between.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes are inconsistent or a batch has no
/// timesteps.
pub fn evaluate_counts(
    model: &mut dyn InferForward,
    batches: &[Batch],
) -> Result<(usize, usize), ShapeError> {
    let saved_stats = model.infer_stats();
    model.set_infer_stats(InferStats::Batch);
    let result = evaluate_counts_inner(model, batches);
    model.set_infer_stats(saved_stats);
    result
}

fn evaluate_counts_inner(
    model: &mut dyn InferForward,
    batches: &[Batch],
) -> Result<(usize, usize), ShapeError> {
    let mut correct = 0usize;
    let mut total = 0usize;
    for batch in batches {
        let stacked = stack_frames(batch, "evaluate_counts")?;
        model.reset_state();
        let logits = model.forward_steps_tensor(&stacked, 0, batch.timesteps());
        stacked.recycle();
        let mut logits = logits?;
        let k = logits.shape()[1];
        // Sum the timesteps into the first slab, in order: the additions a
        // caller taking one timestep's logits at a time makes.
        let (preds, later) = logits.data_mut().split_at_mut(batch.labels.len() * k);
        for slab in later.chunks(preds.len().max(1)) {
            preds.iter_mut().zip(slab).for_each(|(p, &l)| *p += l);
        }
        for (i, &label) in batch.labels.iter().enumerate() {
            let row = &preds[i * k..(i + 1) * k];
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0);
            if argmax == label {
                correct += 1;
            }
            total += 1;
        }
        logits.recycle();
    }
    Ok((correct, total))
}

/// Trains a model with SGD + cosine annealing (Algorithm 1, lines 6–19) and
/// reports loss/accuracy curves plus mean per-step wall-clock time.
///
/// Optimization steps run on the training plane; the per-epoch accuracy
/// evaluation runs graph-free on the inference plane.
///
/// # Errors
///
/// Returns [`ShapeError`] if any batch does not match the model.
pub fn train(
    model: &mut Network,
    train_batches: &[Batch],
    test_batches: &[Batch],
    cfg: &TrainConfig,
) -> Result<TrainReport, ShapeError> {
    let mut opt = Sgd::new(
        model.params(),
        SgdConfig { lr: cfg.lr, momentum: cfg.momentum, weight_decay: cfg.weight_decay },
    );
    let sched = CosineAnnealing::new(cfg.lr, cfg.epochs);
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut run = StepTotals::default();
    for epoch in 0..cfg.epochs {
        sched.apply(&mut opt, epoch);
        let mut steps = StepTotals::default();
        for batch in train_batches {
            let (loss, timing) = train_step(&mut *model, batch, &mut opt, cfg.loss)?;
            steps.add(loss, timing);
            run.add(loss, timing);
        }
        epochs.push(steps.epoch(evaluate(&mut *model, train_batches)?));
    }
    let test_accuracy = evaluate(&mut *model, test_batches)?;
    Ok(run.report(epochs, test_accuracy, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_unit::ConvPolicy;
    use crate::resnet::{ResNetConfig, ResNetSnn};
    use ttsnn_core::TtMode;
    use ttsnn_data::StaticImages;
    use ttsnn_tensor::Rng;

    fn tiny_setup(policy: &ConvPolicy, seed: u64) -> (ResNetSnn, Vec<Batch>, Vec<Batch>) {
        let mut rng = Rng::seed_from(seed);
        let gen = StaticImages::new(3, 8, 8, 4, 0.15, 99);
        let ds = gen.dataset(48, &mut rng);
        let (train_ds, test_ds) = ds.split(0.75, &mut rng);
        let train = train_ds.batches(12, 2, &mut rng).unwrap();
        let test = test_ds.batches(12, 2, &mut rng).unwrap();
        let cfg = ResNetConfig::resnet18(4, (8, 8), 16);
        let net = ResNetSnn::new(cfg, policy, &mut rng);
        (net, train, test)
    }

    #[test]
    fn loss_decreases_baseline() {
        let (mut net, train_b, test_b) = tiny_setup(&ConvPolicy::Baseline, 1);
        let cfg = TrainConfig { epochs: 4, lr: 0.05, ..TrainConfig::default() };
        let report = train(&mut net, &train_b, &test_b, &cfg).unwrap();
        assert!(
            report.final_loss() < report.first_loss(),
            "loss should fall: {} -> {}",
            report.first_loss(),
            report.final_loss()
        );
        assert!(report.mean_step_timing.total > 0.0);
    }

    #[test]
    fn loss_decreases_ptt() {
        let (mut net, train_b, test_b) = tiny_setup(&ConvPolicy::tt(TtMode::Ptt), 2);
        let cfg = TrainConfig { epochs: 4, lr: 0.05, ..TrainConfig::default() };
        let report = train(&mut net, &train_b, &test_b, &cfg).unwrap();
        assert!(report.final_loss() < report.first_loss());
    }

    #[test]
    fn training_beats_chance_on_separable_data() {
        let (mut net, train_b, test_b) = tiny_setup(&ConvPolicy::Baseline, 3);
        let cfg = TrainConfig { epochs: 6, lr: 0.05, ..TrainConfig::default() };
        let report = train(&mut net, &train_b, &test_b, &cfg).unwrap();
        let final_train_acc = report.epochs.last().unwrap().accuracy;
        assert!(
            final_train_acc > 0.4,
            "4-class train accuracy {final_train_acc} should beat chance 0.25"
        );
    }

    #[test]
    fn tet_loss_trains() {
        let (mut net, train_b, test_b) = tiny_setup(&ConvPolicy::Baseline, 4);
        let cfg =
            TrainConfig { epochs: 3, lr: 0.05, loss: LossKind::Tet, ..TrainConfig::default() };
        let report = train(&mut net, &train_b, &test_b, &cfg).unwrap();
        assert!(report.final_loss() < report.first_loss());
    }

    #[test]
    fn evaluate_is_deterministic() {
        let (mut net, train_b, _) = tiny_setup(&ConvPolicy::Baseline, 5);
        let a = evaluate(&mut net, &train_b).unwrap();
        let b = evaluate(&mut net, &train_b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn forward_batch_returns_one_logit_per_timestep() {
        let (mut net, train_b, _) = tiny_setup(&ConvPolicy::tt(TtMode::htt_default(2)), 6);
        let logits = forward_batch(&mut net, &train_b[0]).unwrap();
        assert_eq!(logits.len(), 2);
        assert_eq!(logits[0].shape(), vec![12, 4]);
    }
}
