//! Data-parallel training over persistent model-replica workers.
//!
//! [`ShardedTrainer`] runs `N` replicas of a [`crate::Network`] on `N`
//! long-lived worker threads. Each optimizer step cuts the batch into
//! fixed-size **micro-batches**, farms them out to the replicas
//! (round-robin), runs forward + BPTT backward per micro-batch, and
//! all-reduces the gradients with [`GradReduce`] before every replica
//! applies the *same* reduced gradient through its own (replicated)
//! [`Sgd`]. Replicas therefore never exchange weights after construction —
//! they stay in bitwise lockstep because every update they apply is
//! bit-identical.
//!
//! # Why micro-batches, not per-shard batches
//!
//! Floating-point addition is not associative, so "each shard computes the
//! gradient of its `B/N` samples and the partials are summed" produces
//! *different bits for different `N`*. This trainer instead fixes the
//! reduction granularity independently of the shard count: the unit of
//! forward/backward is always a micro-batch of [`ShardConfig::micro_batch`]
//! samples, and [`GradReduce`] folds the per-micro-batch gradients in
//! global micro-batch order no matter which worker produced them or when
//! they arrived. Holding `micro_batch` fixed, the trained weights are
//! **bit-identical for every shard count and every kernel thread count**
//! — the property `crates/snn/tests/sharded.rs` asserts for 1–4 shards.
//! (This also gives batch-norm layers ghost-batch semantics: statistics
//! are per micro-batch, hence shard-count-invariant.)
//!
//! With one shard and `micro_batch == batch_size` the trainer degenerates
//! to exactly the classic [`crate::trainer::train_step`] arithmetic, bit
//! for bit — the anchor the property tests pin.
//!
//! # Threading
//!
//! `Var` graphs are `Rc`-based and deliberately not `Send`, so a replica
//! lives entirely on the worker thread that built it: [`ShardedTrainer::new`]
//! ships a *factory closure* to each worker rather than a model. Workers
//! communicate with the trainer over `mpsc` channels (commands in, tensors
//! out — tensors are plain `Send` data). Inside each worker every
//! matmul/conv still fans out across the kernel runtime's persistent
//! thread pool, so the two parallelism axes compose: shards × kernel
//! threads. Worker count comes from [`ShardConfig`].

use std::io::{self, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ttsnn_autograd::{CosineAnnealing, GradReduce, Sgd, SgdConfig, Var};
use ttsnn_data::Batch;
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{ShapeError, Tensor};

use crate::checkpoint;
use crate::loss::LossKind;
use crate::model::SpikingModel;
use crate::network::Network;
use crate::trainer::{
    evaluate_counts, forward_backward, StepTiming, StepTotals, TrainConfig, TrainReport,
};

/// Shape of the data parallelism: how many replicas, and the fixed
/// gradient-reduction granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of model replicas (worker threads). Clamped to ≥ 1.
    pub num_shards: usize,
    /// Samples per micro-batch — the unit of forward/backward and of the
    /// fixed-order gradient reduction. Training results depend on this
    /// value but **not** on `num_shards`; keep it fixed while varying the
    /// shard count and the trained weights do not change by a single bit.
    /// Every batch's size must be a multiple of it.
    pub micro_batch: usize,
}

impl ShardConfig {
    /// A configuration with explicit shard count and micro-batch size
    /// (both clamped to ≥ 1).
    pub fn new(num_shards: usize, micro_batch: usize) -> Self {
        Self { num_shards: num_shards.max(1), micro_batch: micro_batch.max(1) }
    }
}

/// Gradients (plus loss, phase seconds and tape nodes) of one micro-batch,
/// tagged with its global index.
struct MicroGrad {
    index: usize,
    loss: f32,
    forward: f64,
    backward: f64,
    tape_nodes: u64,
    grads: Vec<Option<Tensor>>,
}

/// Reply payload of [`Cmd::Step`].
type StepReply = Result<Vec<MicroGrad>, ShapeError>;

/// Commands the trainer sends to a replica worker. Every command carries
/// its own reply channel, so the trainer can await exactly the workers it
/// addressed.
enum Cmd {
    /// Run forward/backward on each assigned micro-batch, reply with
    /// per-micro-batch gradients.
    Step { micros: Vec<(usize, Batch)>, loss: LossKind, reply: Sender<StepReply> },
    /// Update hyper-parameters and apply the reduced gradient through the
    /// local optimizer.
    Apply {
        config: SgdConfig,
        grads: Arc<Vec<Option<Tensor>>>,
        reply: Sender<Result<(), ShapeError>>,
    },
    /// Evaluate the given batches, reply with `(correct, total)`.
    Eval { batches: Vec<Batch>, reply: Sender<Result<(usize, usize), ShapeError>> },
    /// Snapshot all parameter tensors, in `SpikingModel::params` order.
    GetParams { reply: Sender<Vec<Tensor>> },
    /// Overwrite all parameters (checkpoint load) and zero the momentum.
    /// The tensor set is shared — each worker clones tensors only as it
    /// installs them.
    SetParams { params: Arc<Vec<Tensor>>, reply: Sender<Result<(), ShapeError>> },
    /// Zero the momentum buffers (start of a training run).
    ResetVelocity { reply: Sender<()> },
}

/// One replica worker: its command channel and join handle.
struct Worker {
    tx: Option<Sender<Cmd>>,
    handle: Option<JoinHandle<()>>,
}

/// The replica worker's event loop: owns the (non-`Send`) model and its
/// replicated optimizer, exits when the trainer drops the command channel.
fn worker_main(mut model: Network, rx: &Receiver<Cmd>) {
    let mut opt = Sgd::new(model.params(), SgdConfig::default());
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Step { micros, loss, reply } => {
                let result = (|| {
                    let mut out = Vec::with_capacity(micros.len());
                    for (index, micro) in &micros {
                        opt.zero_grad();
                        let (value, forward, backward, tape_nodes) =
                            forward_backward(&mut model, micro, loss)?;
                        let grads = opt.params().iter().map(Var::grad).collect();
                        out.push(MicroGrad {
                            index: *index,
                            loss: value,
                            forward,
                            backward,
                            tape_nodes,
                            grads,
                        });
                    }
                    opt.zero_grad();
                    Ok(out)
                })();
                let _ = reply.send(result);
            }
            Cmd::Apply { config, grads, reply } => {
                opt.set_config(config);
                let _ = reply.send(opt.step_with_grads(&grads));
            }
            Cmd::Eval { batches, reply } => {
                let _ = reply.send(evaluate_counts(&mut model, &batches));
            }
            Cmd::GetParams { reply } => {
                let _ = reply.send(opt.params().iter().map(Var::to_tensor).collect());
            }
            Cmd::SetParams { params, reply } => {
                let result = (|| {
                    if params.len() != opt.num_params() {
                        return Err(ShapeError::new(format!(
                            "set_params: {} tensors for {} parameters",
                            params.len(),
                            opt.num_params()
                        )));
                    }
                    for (p, t) in opt.params().iter().zip(params.iter()) {
                        if p.shape().as_slice() != t.shape() {
                            return Err(ShapeError::new(format!(
                                "set_params: tensor shape {:?} vs parameter shape {:?}",
                                t.shape(),
                                p.shape()
                            )));
                        }
                    }
                    for (p, t) in opt.params().iter().zip(params.iter()) {
                        p.set_value(t.clone());
                    }
                    Ok(())
                })();
                opt.reset_velocity();
                let _ = reply.send(result);
            }
            Cmd::ResetVelocity { reply } => {
                opt.reset_velocity();
                let _ = reply.send(());
            }
        }
    }
}

/// Data-parallel trainer over `N` persistent model replicas.
///
/// Construct with a model **factory** (it runs once on each worker thread
/// and must produce bit-identical replicas — seed your RNG inside it),
/// then drive it with [`ShardedTrainer::step`] or the epoch-level
/// [`ShardedTrainer::train`]. See the module docs for the determinism
/// contract.
///
/// ```
/// use ttsnn_autograd::SgdConfig;
/// use ttsnn_data::StaticImages;
/// use ttsnn_snn::{ConvPolicy, LossKind, ResNetConfig, ResNetSnn, ShardConfig, ShardedTrainer};
/// use ttsnn_tensor::Rng;
///
/// // The factory runs once per worker thread; seeding inside it makes
/// // every replica bit-identical.
/// let factory = || {
///     let mut rng = Rng::seed_from(7);
///     ResNetSnn::new(ResNetConfig::resnet18(4, (8, 8), 16), &ConvPolicy::Baseline, &mut rng)
/// };
/// let mut trainer = ShardedTrainer::new(ShardConfig::new(2, 4), factory);
///
/// let mut rng = Rng::seed_from(0);
/// let batch = &StaticImages::new(3, 8, 8, 4, 0.15, 9)
///     .dataset(8, &mut rng)
///     .batches(8, 2, &mut rng)
///     .unwrap()[0];
/// let (loss, _secs) = trainer.step(batch, LossKind::SumCe, SgdConfig::default()).unwrap();
/// assert!(loss.is_finite());
/// assert!(trainer.replicas_in_sync());
/// ```
pub struct ShardedTrainer {
    workers: Vec<Worker>,
    config: ShardConfig,
    param_shapes: Vec<Vec<usize>>,
    /// The kernel runtime every shard runs on: the one current when the
    /// trainer was built, installed on each worker thread.
    runtime: Runtime,
}

impl ShardedTrainer {
    /// Spawns `config.num_shards` worker threads, each building one model
    /// replica via `factory`.
    ///
    /// # Panics
    ///
    /// Panics if a worker's factory panics, or if the replicas disagree on
    /// parameter shapes (a non-deterministic factory).
    pub fn new<F>(config: ShardConfig, factory: F) -> Self
    where
        F: Fn() -> Network + Send + Sync + 'static,
    {
        let factory = Arc::new(factory);
        let runtime = Runtime::current();
        let mut workers = Vec::with_capacity(config.num_shards);
        let mut readies = Vec::with_capacity(config.num_shards);
        for i in 0..config.num_shards {
            let (factory, runtime) = (Arc::clone(&factory), runtime.clone());
            let (tx, rx) = channel::<Cmd>();
            let (ready_tx, ready_rx) = channel::<Vec<Vec<usize>>>();
            let handle = std::thread::Builder::new()
                .name(format!("ttsnn-shard-{i}"))
                .spawn(move || {
                    runtime.install(|| {
                        let model = factory();
                        let shapes = model.params().iter().map(Var::shape).collect();
                        // If the trainer is already gone, just exit quietly.
                        if ready_tx.send(shapes).is_ok() {
                            worker_main(model, &rx);
                        }
                    })
                })
                .expect("spawn shard worker");
            workers.push(Worker { tx: Some(tx), handle: Some(handle) });
            readies.push(ready_rx);
        }
        let mut trainer = Self { workers, config, param_shapes: Vec::new(), runtime };
        for (i, ready) in readies.into_iter().enumerate() {
            match ready.recv() {
                Ok(shapes) => {
                    if i == 0 {
                        trainer.param_shapes = shapes;
                    } else {
                        assert_eq!(
                            trainer.param_shapes, shapes,
                            "shard {i} built a replica with different parameter shapes; \
                             the model factory is not deterministic"
                        );
                    }
                }
                Err(_) => {
                    // The worker died before reporting ready: join it to
                    // surface the factory panic.
                    let handle = trainer.workers[i].handle.take().expect("handle present");
                    trainer.workers[i].tx = None;
                    match handle.join() {
                        Err(payload) => std::panic::resume_unwind(payload),
                        Ok(()) => panic!("shard {i} exited before reporting ready"),
                    }
                }
            }
        }
        trainer
    }

    /// The shard/micro-batch configuration.
    pub fn config(&self) -> ShardConfig {
        self.config
    }

    /// Number of model replicas.
    pub fn num_shards(&self) -> usize {
        self.config.num_shards
    }

    /// Sends a command to worker `i`.
    fn send(&self, i: usize, cmd: Cmd) {
        self.workers[i]
            .tx
            .as_ref()
            .expect("worker channel open")
            .send(cmd)
            .expect("shard worker exited unexpectedly");
    }

    /// One data-parallel optimizer step on `batch` under the given loss
    /// and hyper-parameters. Returns the mean micro-batch loss and the
    /// step's seconds, in total and by phase: `forward` / `backward` are
    /// the slowest replica's sums over its micro-batches (replicas run side
    /// by side, so the slowest one bounds the step), `all_reduce` the
    /// fixed-order fold on the calling thread, `optimizer` the replicated
    /// update up to the last replica's acknowledgement, `tape_nodes` the
    /// autograd nodes of all micro-batches together.
    ///
    /// The batch is cut into `batch.len() / micro_batch` micro-batches,
    /// distributed round-robin over the replicas; gradients come back
    /// tagged with their micro-batch index and are folded in that fixed
    /// order before every replica applies the identical mean gradient.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the batch size is not a positive multiple
    /// of the configured micro-batch, or if any replica reports a shape
    /// error. No replica applies an update unless all of them can.
    pub fn step(
        &mut self,
        batch: &Batch,
        loss: LossKind,
        sgd: SgdConfig,
    ) -> Result<(f32, StepTiming), ShapeError> {
        let pool_before = self.runtime.stats();
        let start = Instant::now();
        let micro = self.config.micro_batch;
        let b = batch.len();
        if b == 0 || !b.is_multiple_of(micro) {
            return Err(ShapeError::new(format!(
                "sharded step: batch size {b} is not a positive multiple of micro_batch {micro}"
            )));
        }
        let m = b / micro;
        // Fixed slicing: micro-batch i is always samples [i·μ, (i+1)·μ),
        // whatever the shard count.
        let mut assignments: Vec<Vec<(usize, Batch)>> = Vec::new();
        assignments.resize_with(self.config.num_shards, Vec::new);
        for i in 0..m {
            assignments[i % self.config.num_shards].push((i, batch.shard(i * micro, micro)?));
        }
        let mut replies = Vec::new();
        for (w, micros) in assignments.into_iter().enumerate() {
            if micros.is_empty() {
                continue;
            }
            let (reply_tx, reply_rx) = channel();
            self.send(w, Cmd::Step { micros, loss, reply: reply_tx });
            replies.push(reply_rx);
        }
        let mut reduce = GradReduce::new(m);
        let mut losses = vec![0.0f32; m];
        let mut timing = StepTiming::default();
        for reply in replies {
            let micro_grads = reply.recv().expect("shard worker exited unexpectedly")?;
            let (mut forward, mut backward) = (0.0, 0.0);
            for mg in micro_grads {
                losses[mg.index] = mg.loss;
                forward += mg.forward;
                backward += mg.backward;
                timing.tape_nodes += mg.tape_nodes as f64;
                let folding = Instant::now();
                reduce.push(mg.index, mg.grads)?;
                timing.all_reduce += folding.elapsed().as_secs_f64();
            }
            timing.forward = timing.forward.max(forward);
            timing.backward = timing.backward.max(backward);
        }
        let folding = Instant::now();
        let mean_grads = Arc::new(reduce.finish()?);
        timing.all_reduce += folding.elapsed().as_secs_f64();
        // Mean of the per-micro-batch losses, summed in fixed index order.
        let loss_value = losses.iter().sum::<f32>() / m as f32;
        let applying = Instant::now();
        let mut acks = Vec::with_capacity(self.config.num_shards);
        for w in 0..self.config.num_shards {
            let (reply_tx, reply_rx) = channel();
            self.send(
                w,
                Cmd::Apply { config: sgd, grads: Arc::clone(&mean_grads), reply: reply_tx },
            );
            acks.push(reply_rx);
        }
        for ack in acks {
            ack.recv().expect("shard worker exited unexpectedly")?;
        }
        timing.optimizer = applying.elapsed().as_secs_f64();
        timing.total = start.elapsed().as_secs_f64();
        Ok((loss_value, timing.with_pool_since(&self.runtime, &pool_before)))
    }

    /// Data-parallel evaluation: batches are distributed round-robin over
    /// the replicas and the integer `(correct, total)` counts are summed —
    /// an order-free reduction, so the result matches single-model
    /// [`crate::trainer::evaluate`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any replica reports a shape error.
    pub fn evaluate(&mut self, batches: &[Batch]) -> Result<f32, ShapeError> {
        let mut assignments: Vec<Vec<Batch>> = Vec::new();
        assignments.resize_with(self.config.num_shards, Vec::new);
        for (i, batch) in batches.iter().enumerate() {
            assignments[i % self.config.num_shards].push(batch.clone());
        }
        let mut replies = Vec::new();
        for (w, assigned) in assignments.into_iter().enumerate() {
            if assigned.is_empty() {
                continue;
            }
            let (reply_tx, reply_rx) = channel();
            self.send(w, Cmd::Eval { batches: assigned, reply: reply_tx });
            replies.push(reply_rx);
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for reply in replies {
            let (c, t) = reply.recv().expect("shard worker exited unexpectedly")?;
            correct += c;
            total += t;
        }
        Ok(if total == 0 { 0.0 } else { correct as f32 / total as f32 })
    }

    /// Trains with SGD + cosine annealing — the data-parallel counterpart
    /// of [`crate::trainer::train`], with identical schedule, loss and
    /// reporting semantics (per-micro-batch mean loss instead of full-batch
    /// loss).
    ///
    /// Momentum is zeroed at the start, so repeated `train` calls behave
    /// like repeated fresh [`crate::trainer::train`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any batch is incompatible with the model
    /// or the micro-batch size.
    pub fn train(
        &mut self,
        train_batches: &[Batch],
        test_batches: &[Batch],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, ShapeError> {
        let mut acks = Vec::with_capacity(self.config.num_shards);
        for w in 0..self.config.num_shards {
            let (reply_tx, reply_rx) = channel();
            self.send(w, Cmd::ResetVelocity { reply: reply_tx });
            acks.push(reply_rx);
        }
        for ack in acks {
            ack.recv().expect("shard worker exited unexpectedly");
        }
        let sched = CosineAnnealing::new(cfg.lr, cfg.epochs);
        let mut epochs = Vec::with_capacity(cfg.epochs);
        let mut run = StepTotals::default();
        for epoch in 0..cfg.epochs {
            let sgd = SgdConfig {
                lr: sched.lr_at(epoch),
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
            };
            let mut steps = StepTotals::default();
            for batch in train_batches {
                let (loss, timing) = self.step(batch, cfg.loss, sgd)?;
                steps.add(loss, timing);
                run.add(loss, timing);
            }
            epochs.push(steps.epoch(self.evaluate(train_batches)?));
        }
        let test_accuracy = self.evaluate(test_batches)?;
        Ok(run.report(epochs, test_accuracy, self.config.num_shards))
    }

    /// Snapshot of replica `shard`'s parameter tensors, in
    /// [`crate::SpikingModel::params`] order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn params_of(&mut self, shard: usize) -> Vec<Tensor> {
        let (reply_tx, reply_rx) = channel();
        self.send(shard, Cmd::GetParams { reply: reply_tx });
        reply_rx.recv().expect("shard worker exited unexpectedly")
    }

    /// Snapshot of the trained parameters (replica 0 — all replicas are
    /// bitwise identical; see [`ShardedTrainer::replicas_in_sync`]).
    pub fn params(&mut self) -> Vec<Tensor> {
        self.params_of(0)
    }

    /// Diagnostic: whether every replica's parameters are bit-identical to
    /// replica 0's. True by construction after any sequence of successful
    /// steps; the determinism tests assert it.
    pub fn replicas_in_sync(&mut self) -> bool {
        let reference = self.params_of(0);
        (1..self.config.num_shards).all(|w| self.params_of(w) == reference)
    }

    /// Writes the trained parameters as a [`crate::checkpoint`] stream —
    /// byte-identical to calling [`checkpoint::save_params`] on a
    /// single-model trainer's parameters, so sharded and classic training
    /// runs interchange checkpoints freely.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_checkpoint<W: Write>(&mut self, w: W) -> io::Result<()> {
        let holders: Vec<Var> = self.params().into_iter().map(Var::param).collect();
        checkpoint::save_params(&holders, w)
    }

    /// Loads a [`crate::checkpoint`] stream into **every** replica
    /// (momentum is zeroed, as for a fresh optimizer).
    ///
    /// # Errors
    ///
    /// Returns the checkpoint format/shape errors of
    /// [`checkpoint::load_params`], or `InvalidData` if a replica rejects
    /// the tensors.
    pub fn load_checkpoint<R: Read>(&mut self, r: R) -> io::Result<()> {
        let holders: Vec<Var> =
            self.param_shapes.iter().map(|s| Var::param(Tensor::zeros(s))).collect();
        checkpoint::load_params(&holders, r)?;
        let tensors = Arc::new(holders.iter().map(Var::to_tensor).collect::<Vec<Tensor>>());
        let mut acks = Vec::with_capacity(self.config.num_shards);
        for w in 0..self.config.num_shards {
            let (reply_tx, reply_rx) = channel();
            self.send(w, Cmd::SetParams { params: Arc::clone(&tensors), reply: reply_tx });
            acks.push(reply_rx);
        }
        for ack in acks {
            ack.recv()
                .expect("shard worker exited unexpectedly")
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        }
        Ok(())
    }
}

impl Drop for ShardedTrainer {
    /// Closes every command channel and joins the workers. A worker panic
    /// is re-raised here (unless this drop is itself part of a panic
    /// unwind).
    fn drop(&mut self) {
        for worker in &mut self.workers {
            worker.tx = None; // hang up: worker_main's recv() errors and it exits
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                if handle.join().is_err() && !std::thread::panicking() {
                    panic!("a shard worker panicked during training");
                }
            }
        }
    }
}
