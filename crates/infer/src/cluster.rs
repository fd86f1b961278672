//! The serving cluster: one frozen plan, N executor replicas, one
//! scheduler.
//!
//! # Shape
//!
//! [`Cluster::load`] freezes a plan — architecture config + checkpoint,
//! optional TT→dense merge (Algorithm 1, lines 20–22) — and fans it out
//! across `N` executor replicas (explicit, or the
//! `TTSNN_NUM_REPLICAS` environment variable, defaulting to
//! [`std::thread::available_parallelism`]). In front of the replicas sits
//! the central priority/deadline scheduler of [`crate::sched`]; behind
//! them, the [`crate::metrics`] snapshot keeps the whole thing observable.
//! This is the crate's **one executor family**: a single-executor
//! deployment is `with_replicas(1)`, not a different type.
//!
//! # The plan is frozen once
//!
//! [`Cluster::load`] freezes the plan once — checkpoint, merge, and for
//! int8 plans calibration and quantization — on a short-lived thread
//! running the caller's [`Runtime`], converts every parameter to
//! `Arc`-shared tensor storage ([`ttsnn_snn::checkpoint::share_params`])
//! and drops the model it froze, with that thread's arena. Autograd
//! handles are not `Send`, so each replica then builds its own *model
//! object* on its own thread (the `ShardedTrainer` pattern), all N of them
//! by one function, and installs O(1) handles to the shared weights
//! ([`ttsnn_snn::checkpoint::install_params`]). Steady-state memory is one
//! copy of the plan plus per-replica membrane state, whatever `N` is, and
//! every replica starts with empty activity counters.
//!
//! # Determinism contract
//!
//! Every replica aliases the same frozen weights and runs
//! [`ttsnn_snn::InferStats::PerSample`], and the runtime kernels are
//! bit-identical across thread counts — so a request's logits are
//! **bit-identical** whatever the replica count, which replica served it,
//! how requests were coalesced or prioritized, and which other requests
//! were cancelled. `crates/infer/tests/cluster.rs` pins this across 1–3
//! replicas × kernel thread counts × random cancellation/priority
//! interleavings; `crates/serve/tests/matrix.rs` across threads × replicas
//! × planes × chunkings × transport.
//!
//! # Kernel threads
//!
//! Replicas run their kernels on the [`Runtime`] current where
//! [`Cluster::load`] was called: each replica thread installs it, as the
//! `ShardedTrainer`'s shards do. So `Runtime::new(n).install(||
//! Cluster::load(..))` serves on `n` kernel threads, and a cluster loaded
//! outside any install serves on [`Runtime::global`].

use std::io::{self, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use ttsnn_obs::Stage::Execute;
use ttsnn_snn::{checkpoint, InferForward, InferStats, Network, SpikingModel};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::Tensor;

use crate::metrics::ClusterMetrics;
use crate::plan::{
    self, EngineConfig, FrozenPlan, InferError, PlanDrift, PlanInfo, QuantSpec, SpikeDensityReport,
};
use crate::sched::{FairPolicy, Scheduler, StreamCmd, SubmitError, SubmitOptions, Work};
use crate::stream::{StreamOptions, StreamTable, StreamUpdate};
use std::time::Duration;

/// Shape of the serving cluster: the frozen-plan config plus the replica
/// fan-out and queue bound.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The plan: architecture, checkpoint policy, timesteps, merge,
    /// per-replica batching knobs.
    pub engine: EngineConfig,
    /// Executor replicas (must be ≥ 1). [`ClusterConfig::new`] seeds this
    /// from [`ClusterConfig::replicas_from_env`].
    pub num_replicas: usize,
    /// Bound on **outstanding** requests — admitted and not yet
    /// served/cancelled/expired/failed (must be ≥ 1). Submissions beyond
    /// it block ([`ClusterSession::submit`]) or fail fast with
    /// [`SubmitError::Saturated`] ([`ClusterSession::try_submit`]).
    /// Stream chunks count toward the same bound.
    pub queue_capacity: usize,
    /// Per-replica byte bound on **resident streaming-session state**
    /// (LIF membranes pinned between chunks). When live sessions exceed
    /// it, the least-recently-fed sessions are evicted — their later
    /// feeds fail with [`InferError::SessionEvicted`], and no surviving
    /// session's outputs change by a single bit. `None` (the default) is
    /// unbounded.
    ///
    /// The bound counts membrane **lengths**. Membrane buffers come from
    /// the replica thread's arena, which never hands out a capacity above
    /// twice the requested length, so what a replica really holds for its
    /// sessions is at most `2 × stream_state_bytes` (and exactly
    /// `stream_state_bytes` when buffers are reused at their own size,
    /// the steady state of a fixed plan).
    pub stream_state_bytes: Option<usize>,
    /// Opt-in overload control: per-tenant weighted fair queueing with
    /// token-bucket rate limits (see [`FairPolicy`]). `None` (the
    /// default) keeps the original strict-priority discipline, under
    /// which sustained `High` traffic starves `Low`.
    pub fair: Option<FairPolicy>,
}

impl ClusterConfig {
    /// A cluster config with the replica count from
    /// [`ClusterConfig::replicas_from_env`], a 1024-request queue bound and
    /// unbounded stream state.
    pub fn new(engine: EngineConfig) -> Self {
        Self {
            engine,
            num_replicas: Self::replicas_from_env(),
            queue_capacity: 1024,
            stream_state_bytes: None,
            fair: None,
        }
    }

    /// Enables per-tenant weighted fair queueing + rate limiting under
    /// the given policy.
    pub fn with_fair(mut self, fair: FairPolicy) -> Self {
        self.fair = Some(fair);
        self
    }

    /// Overrides the replica count.
    pub fn with_replicas(mut self, num_replicas: usize) -> Self {
        self.num_replicas = num_replicas;
        self
    }

    /// Overrides the queue bound.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Overrides the per-replica resident stream-state bound (`None` is
    /// unbounded).
    pub fn with_stream_state_bytes(mut self, stream_state_bytes: Option<usize>) -> Self {
        self.stream_state_bytes = stream_state_bytes;
        self
    }

    /// Replica count from the `TTSNN_NUM_REPLICAS` environment variable,
    /// defaulting to [`std::thread::available_parallelism`] (and 1 if even
    /// that is unavailable).
    pub fn replicas_from_env() -> usize {
        std::env::var("TTSNN_NUM_REPLICAS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }
}

/// A handle on one in-flight cluster request.
///
/// [`ClusterTicket::wait`] blocks until the logits arrive. **Dropping the
/// ticket cancels the request**: if it is still queued (or sitting in an
/// open batch) when a replica would pick it up, the scheduler reaps it
/// without executing — observable as a
/// [`cancelled`](crate::metrics::PriorityStats::cancelled) count. A
/// request already executing completes normally; its reply is simply
/// discarded.
pub struct ClusterTicket {
    rx: Receiver<Result<Tensor, InferError>>,
    cancelled: Arc<AtomicBool>,
}

impl ClusterTicket {
    /// Blocks until the request's `(K,)` logits are ready.
    ///
    /// # Errors
    ///
    /// [`InferError::Shape`] if the input did not match the plan,
    /// [`InferError::DeadlineExpired`] if the request's deadline passed
    /// while it was still queued, or [`InferError::EngineClosed`] if the
    /// cluster shut down first.
    pub fn wait(self) -> Result<Tensor, InferError> {
        self.rx.recv().map_err(|_| InferError::EngineClosed)?
    }

    /// Cancels the request explicitly (identical to dropping the ticket).
    pub fn cancel(self) {}
}

impl Drop for ClusterTicket {
    fn drop(&mut self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }
}

/// A clonable, `Send` submission handle onto the cluster's scheduler.
#[derive(Clone)]
pub struct ClusterSession {
    sched: Arc<Scheduler>,
}

impl ClusterSession {
    /// Submits one sample — `(C, H, W)` direct coding or `(T, C, H, W)`
    /// per-timestep frames — at [`crate::Priority::Normal`] with no
    /// deadline, blocking while the queue is saturated.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Closed`] if the cluster has shut down.
    pub fn submit(&self, input: Tensor) -> Result<ClusterTicket, SubmitError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// [`ClusterSession::submit`] with explicit priority/deadline options.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Closed`] if the cluster has shut down, and
    /// [`SubmitError::RateLimited`] without blocking when the tenant's
    /// [`FairPolicy`] rate limit is spent.
    pub fn submit_with(
        &self,
        input: Tensor,
        opts: SubmitOptions,
    ) -> Result<ClusterTicket, SubmitError> {
        let (reply, rx) = channel();
        let cancelled = self.sched.submit(input, opts, reply)?;
        Ok(ClusterTicket { rx, cancelled })
    }

    /// Non-blocking submission at default options: fails fast instead of
    /// waiting for queue space.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] while the queue is at capacity (the
    /// backpressure signal), [`SubmitError::Closed`] after shutdown.
    pub fn try_submit(&self, input: Tensor) -> Result<ClusterTicket, SubmitError> {
        self.try_submit_with(input, SubmitOptions::default())
    }

    /// [`ClusterSession::try_submit`] with explicit priority/deadline
    /// options.
    ///
    /// # Errors
    ///
    /// See [`ClusterSession::try_submit`].
    pub fn try_submit_with(
        &self,
        input: Tensor,
        opts: SubmitOptions,
    ) -> Result<ClusterTicket, SubmitError> {
        let (reply, rx) = channel();
        let cancelled = self.sched.try_submit(input, opts, reply)?;
        Ok(ClusterTicket { rx, cancelled })
    }

    /// Submit-and-wait convenience for synchronous callers (blocking
    /// backpressure, default options).
    ///
    /// # Errors
    ///
    /// See [`ClusterTicket::wait`]; a request refused at admission (a
    /// [`FairPolicy`] rate limit fails fast even here) is
    /// [`InferError::Rejected`].
    pub fn infer(&self, input: Tensor) -> Result<Tensor, InferError> {
        self.submit(input)?.wait()
    }

    /// Opens a stateful streaming session, pinned round-robin to one
    /// replica (its LIF membranes live there between chunks). The client
    /// feeds the plan's `T` timesteps incrementally and receives the
    /// cumulative logits after each chunk — bit-identical, after every
    /// prefix, to submitting the same timesteps whole, whatever the
    /// chunking, replica count, or concurrent traffic. Dropping the
    /// handle closes the session and frees its resident state.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Closed`] if the cluster has shut down.
    pub fn open_stream(&self, opts: StreamOptions) -> Result<ClusterStreamSession, SubmitError> {
        let (id, replica) = self.sched.open_stream(opts)?;
        Ok(ClusterStreamSession { sched: Arc::clone(&self.sched), id, replica })
    }
}

/// Serves every input through both plans and reports the logit drift of
/// `candidate` against `reference` (e.g. an int8 plan against the f32
/// plan frozen from the same checkpoint). Both clusters stay live: per-
/// sample determinism makes concurrent traffic irrelevant to the bits.
///
/// # Errors
///
/// Propagates the first submission or ticket error from either plan
/// ([`InferError::EngineClosed`] if a cluster has shut down,
/// [`InferError::Rejected`] if one refused a request); both plans must
/// accept the same input shapes.
pub fn plan_drift(
    reference: &ClusterSession,
    candidate: &ClusterSession,
    inputs: &[Tensor],
) -> Result<PlanDrift, InferError> {
    let mut mean_acc = 0.0f64;
    let mut elems = 0usize;
    let mut max_abs = 0.0f32;
    let mut agreed = 0usize;
    // Submit everything up front so both plans' dynamic batching engages
    // (per-sample determinism guarantees the answers cannot depend on how
    // the requests were coalesced); blocking submission keeps the probe
    // subject to the same backpressure as any client.
    let submit_all = |session: &ClusterSession| {
        inputs
            .iter()
            .map(|x| session.submit(x.clone()).map_err(InferError::from))
            .collect::<Result<Vec<_>, _>>()
    };
    let (ref_tickets, cand_tickets) = (submit_all(reference)?, submit_all(candidate)?);
    for (tr, tc) in ref_tickets.into_iter().zip(cand_tickets) {
        let (yr, yc) = (tr.wait()?, tc.wait()?);
        for (a, b) in yr.data().iter().zip(yc.data()) {
            let d = (a - b).abs();
            mean_acc += d as f64;
            max_abs = max_abs.max(d);
        }
        elems += yr.len();
        if yr.argmax() == yc.argmax() {
            agreed += 1;
        }
    }
    let density = |session: &ClusterSession| {
        let m = session.sched.metrics();
        m.mean_spike_density
            .map(|mean| SpikeDensityReport { per_layer: m.spike_density, mean: Some(mean) })
    };
    Ok(PlanDrift {
        requests: inputs.len(),
        mean_abs_err: if elems > 0 { mean_acc / elems as f64 } else { 0.0 },
        max_abs_err: max_abs,
        agreement: if inputs.is_empty() { 1.0 } else { agreed as f64 / inputs.len() as f64 },
        reference_density: density(reference),
        candidate_density: density(candidate),
    })
}

/// A handle on one in-flight stream chunk.
/// [`ClusterStreamTicket::wait`] blocks until the chunk's replica has run
/// (or skipped) its timesteps. Unlike [`ClusterTicket`], dropping it does
/// **not** cancel the chunk: the session's timestep position must stay
/// well-defined, so an admitted chunk is always consumed (use feed
/// deadlines to bound staleness instead).
pub struct ClusterStreamTicket {
    rx: Receiver<Result<StreamUpdate, InferError>>,
}

impl ClusterStreamTicket {
    /// Blocks until the chunk's [`StreamUpdate`] is ready.
    ///
    /// # Errors
    ///
    /// [`InferError::Shape`] for a malformed chunk or one overrunning the
    /// plan's timesteps, [`InferError::DeadlineExpired`] if the chunk's
    /// deadline passed while queued (the session is untouched),
    /// [`InferError::SessionEvicted`] / [`InferError::SessionClosed`] for
    /// a dead session, or [`InferError::EngineClosed`] if the cluster
    /// shut down first.
    pub fn wait(self) -> Result<StreamUpdate, InferError> {
        self.rx.recv().map_err(|_| InferError::EngineClosed)?
    }
}

/// One client's streaming session on a [`Cluster`] (see
/// [`ClusterSession::open_stream`]): pinned to one replica, fed in
/// chunks, readable any time. Dropping the handle closes the session.
pub struct ClusterStreamSession {
    sched: Arc<Scheduler>,
    id: u64,
    replica: usize,
}

impl ClusterStreamSession {
    /// This session's cluster-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The replica this session's state is pinned to.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Feeds the next chunk — `(C, H, W)` (one timestep) or
    /// `(n, C, H, W)` (`n ≥ 1` timesteps) — blocking while the cluster
    /// queue is saturated.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Closed`] if the cluster has shut down.
    pub fn feed(&self, chunk: Tensor) -> Result<ClusterStreamTicket, SubmitError> {
        self.feed_with(chunk, None)
    }

    /// [`ClusterStreamSession::feed`] with an optional **relative**
    /// queueing deadline: a chunk still queued this long after submission
    /// is dropped with [`InferError::DeadlineExpired`] — without
    /// consuming any timestep, so the session survives and may be fed
    /// again.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Closed`] if the cluster has shut down.
    pub fn feed_with(
        &self,
        chunk: Tensor,
        deadline: Option<Duration>,
    ) -> Result<ClusterStreamTicket, SubmitError> {
        let (reply, rx) = channel();
        self.sched.admit_stream_chunk(true, self.replica, self.id, chunk, deadline, reply)?;
        Ok(ClusterStreamTicket { rx })
    }

    /// Non-blocking feed: fails fast instead of waiting for queue space.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] while the queue is at capacity (the
    /// backpressure signal), [`SubmitError::Closed`] after shutdown.
    pub fn try_feed(&self, chunk: Tensor) -> Result<ClusterStreamTicket, SubmitError> {
        self.try_feed_with(chunk, None)
    }

    /// [`ClusterStreamSession::try_feed`] with an optional relative
    /// queueing deadline.
    ///
    /// # Errors
    ///
    /// See [`ClusterStreamSession::try_feed`].
    pub fn try_feed_with(
        &self,
        chunk: Tensor,
        deadline: Option<Duration>,
    ) -> Result<ClusterStreamTicket, SubmitError> {
        let (reply, rx) = channel();
        self.sched.admit_stream_chunk(false, self.replica, self.id, chunk, deadline, reply)?;
        Ok(ClusterStreamTicket { rx })
    }

    /// Feed-and-wait convenience for synchronous streaming clients.
    ///
    /// # Errors
    ///
    /// See [`ClusterStreamTicket::wait`].
    pub fn push(&self, chunk: Tensor) -> Result<StreamUpdate, InferError> {
        self.feed(chunk)?.wait()
    }
}

impl Drop for ClusterStreamSession {
    fn drop(&mut self) {
        self.sched.close_stream(self.replica, self.id);
    }
}

/// A frozen plan served by N executor replicas behind one
/// priority/deadline scheduler.
///
/// Dropping the cluster stops admission, drops still-queued requests
/// (their tickets report [`InferError::EngineClosed`]), lets replicas
/// finish the batches they already admitted, and joins every thread.
pub struct Cluster {
    sched: Arc<Scheduler>,
    handles: Vec<JoinHandle<()>>,
    info: PlanInfo,
    replicas: usize,
}

impl Cluster {
    /// Freezes the plan once — loads the checkpoint, merges if
    /// configured, and shares the weights — then starts `num_replicas`
    /// identical replicas, each of which builds its model on its own
    /// thread and installs O(1) handles to the same weight buffers. `load`
    /// blocks until every replica is serving or any of them failed; a
    /// failed load leaves no thread behind. The freeze and every replica
    /// run their kernels on the [`Runtime::current`] of the calling
    /// thread, replicas for the cluster's whole life.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an invalid config (`timesteps == 0`,
    /// `max_batch == 0`, `num_replicas == 0`, `queue_capacity == 0`, or an
    /// architecture whose geometry cannot be realised — e.g. a 2×2 pool
    /// meeting an odd feature map);
    /// `InvalidData` if the checkpoint does not match the architecture;
    /// plus any I/O error from reading `checkpoint`.
    pub fn load(config: ClusterConfig, checkpoint: impl Read) -> io::Result<Cluster> {
        Self::load_impl(config, None, checkpoint)
    }

    /// [`Cluster::load`], but the plan is **frozen to int8**: the freeze
    /// loads the checkpoint, merges TT cores into dense kernels
    /// (quantization requires dense kernels, so the merge is implied),
    /// runs a calibration pass that fixes the static activation scales,
    /// and quantizes every conv + the classifier per [`QuantSpec`]. Every
    /// replica installs O(1) `Arc` handles to the frozen int8 buffers
    /// (plus the shared float norm parameters), so per-replica memory
    /// stays membrane state only, and no replica's activity counters
    /// include the calibration frames. Serving runs through the same
    /// scheduler/batching machinery, with conv/linear on the int8 kernels
    /// (`ttsnn_tensor::qkernels`). Integer accumulation is exact, so
    /// quantized logits are bit-identical across replica counts, thread
    /// counts, batch compositions and scheduling interleavings.
    ///
    /// # Errors
    ///
    /// As [`Cluster::load`], plus `InvalidInput` for an empty calibration
    /// set and `InvalidData` for calibration frames that do not match the
    /// plan.
    pub fn load_quantized(
        config: ClusterConfig,
        quant: QuantSpec,
        checkpoint: impl Read,
    ) -> io::Result<Cluster> {
        Self::load_impl(config, Some(quant), checkpoint)
    }

    fn load_impl(
        mut config: ClusterConfig,
        quant: Option<QuantSpec>,
        mut checkpoint: impl Read,
    ) -> io::Result<Cluster> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        plan::validate_config(&config.engine).map_err(invalid)?;
        if let Some(q) = &quant {
            plan::validate_quant(q).map_err(invalid)?;
            // Quantization freezes dense kernels; merge-back is implied.
            config.engine.merge_into_dense = true;
        }
        if config.num_replicas == 0 {
            return Err(invalid("ClusterConfig.num_replicas must be at least 1".into()));
        }
        if config.queue_capacity == 0 {
            return Err(invalid("ClusterConfig.queue_capacity must be at least 1".into()));
        }
        if let Some(fair) = &config.fair {
            fair.validate().map_err(invalid)?;
        }
        let mut bytes = Vec::new();
        checkpoint.read_to_end(&mut bytes)?;

        // Freeze once, on a scoped thread running this thread's runtime
        // (the one every replica inherits): the buffers the freeze parks
        // in its arena die with it instead of idling beside the replicas.
        // A panic while freezing fails the load.
        let runtime = Runtime::current();
        let freeze =
            || runtime.install(|| plan::build_plan(&config.engine, &bytes, quant.as_ref()));
        let frozen = std::thread::scope(|s| {
            let freezer = std::thread::Builder::new().name("ttsnn-cluster-freeze".into());
            freezer.spawn_scoped(s, freeze).map(|h| h.join())
        })?
        .unwrap_or_else(|_| Err(io::Error::other("cluster plan construction panicked")))?;
        let frozen = Arc::new(frozen);

        let replicas = config.num_replicas;
        let sched = Arc::new(Scheduler::new(config.queue_capacity, replicas, config.fair.clone()));
        let stream_state_bytes = config.stream_state_bytes;
        let mut handles = Vec::with_capacity(replicas);
        let (up_tx, up_rx) = channel::<io::Result<()>>();
        let spawned = (0..replicas).try_for_each(|i| {
            let cfg = config.engine.clone();
            let (sched, frozen, up_tx) = (Arc::clone(&sched), Arc::clone(&frozen), up_tx.clone());
            handles.push(spawn_replica(i, runtime.clone(), move || {
                let mut model = match build_replica(&cfg, &frozen) {
                    Ok(model) => model,
                    Err(e) => {
                        let _ = up_tx.send(Err(e));
                        return;
                    }
                };
                // Hang up once acked: a replica that dies before its ack
                // then reads as a closed channel.
                let _ = up_tx.send(Ok(()));
                drop(up_tx);
                worker_loop(&mut model, &cfg, &sched, i, stream_state_bytes);
            })?);
            Ok(())
        });
        drop(up_tx);
        let up = spawned.and_then(|()| {
            (0..replicas).try_for_each(|_| {
                up_rx.recv().unwrap_or_else(|_| {
                    Err(io::Error::other("a cluster replica died while starting"))
                })
            })
        });
        if let Err(e) = up {
            // Replicas already up would park in the scheduler forever.
            sched.shutdown();
            for h in handles {
                let _ = h.join();
            }
            return Err(e);
        }

        Ok(Cluster { sched, handles, info: frozen.info.clone(), replicas })
    }

    /// What the loaded plan looks like (identical on every replica).
    pub fn info(&self) -> &PlanInfo {
        &self.info
    }

    /// Number of executor replicas serving the plan.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// A consistent point-in-time snapshot of queue depth, per-priority
    /// lifecycle counters, and batch-size/latency histograms.
    pub fn metrics(&self) -> ClusterMetrics {
        self.sched.metrics()
    }

    /// A new submission handle. Sessions are cheap; clone them across
    /// client threads at will.
    pub fn session(&self) -> ClusterSession {
        ClusterSession { sched: Arc::clone(&self.sched) }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.sched.shutdown();
        let mut worker_panicked = false;
        for handle in self.handles.drain(..) {
            worker_panicked |= handle.join().is_err();
        }
        if worker_panicked && !std::thread::panicking() {
            panic!("a cluster replica panicked");
        }
    }
}

/// Spawns replica `index`, its kernels on `runtime`.
fn spawn_replica(
    index: usize,
    runtime: Runtime,
    f: impl FnOnce() + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("ttsnn-cluster-replica-{index}"))
        .spawn(move || runtime.install(f))
}

/// Builds one replica's serving model from the frozen plan; every
/// replica, the first included, is built here and nowhere else. The
/// architecture is instantiated (and merged to dense kernels, when
/// configured, so its parameter lists line up with the plan's); the
/// plan's int8 layers and float tensors then replace the local values as
/// O(1) `Arc` handles, the event layouts are laid out from them, and the
/// model switches to per-sample statistics. A replica starts with the
/// plan's weights and no traffic on its counters.
fn build_replica(cfg: &EngineConfig, frozen: &FrozenPlan) -> io::Result<Network> {
    let mut model = cfg.arch.instantiate(&cfg.policy)?;
    if cfg.merge_into_dense {
        model.merge_into_dense().map_err(plan::invalid_data)?;
    }
    // Int8 install replaces conv/classifier weights and shrinks the param
    // list to the float (norm) remainder, so it must precede
    // `install_params`.
    if let Some(quant) = &frozen.quant {
        model.install_quant_plan(quant).map_err(plan::invalid_data)?;
    }
    checkpoint::install_params(&model.params(), &frozen.weights).map_err(plan::invalid_data)?;
    model.freeze_event_layouts().map_err(plan::invalid_data)?;
    // The serving contract: per-sample semantics, whatever the batch.
    model.set_infer_stats(InferStats::PerSample);
    Ok(model)
}

/// One replica's serve loop: pull work from the scheduler — a coalesced
/// batch or a stream command for a session pinned here — execute it,
/// record it (metrics, slot release), then reply: a caller holding a reply
/// finds it in [`Cluster::metrics`]. Exits when the scheduler shuts down.
fn worker_loop(
    model: &mut Network,
    cfg: &EngineConfig,
    sched: &Scheduler,
    replica: usize,
    stream_state_bytes: Option<usize>,
) {
    let frame_shape = cfg.arch.frame_shape();
    let mut streams = StreamTable::new(stream_state_bytes);
    while let Some(work) = sched.next_work(replica, cfg.batching.max_batch, cfg.batching.max_wait) {
        match work {
            Work::Batch(batch) => serve_cluster_batch(model, cfg, sched, frame_shape, batch),
            Work::Stream(cmd) => {
                serve_stream_cmd(model, cfg, sched, replica, frame_shape, &mut streams, cmd)
            }
        }
    }
}

/// Serves one stream command against this replica's session table.
fn serve_stream_cmd(
    model: &mut Network,
    cfg: &EngineConfig,
    sched: &Scheduler,
    replica: usize,
    frame_shape: [usize; 3],
    streams: &mut StreamTable,
    cmd: StreamCmd,
) {
    match cmd {
        StreamCmd::Open { id, opts } => {
            streams.open(id, opts);
            sched.record_stream_state(replica, streams.active(), streams.resident_bytes(), 0);
        }
        StreamCmd::Feed { id, chunk, reply, submitted, trace, .. } => {
            let exec_start = if trace != 0 { ttsnn_obs::now_ns() } else { 0 };
            let _ctx = ttsnn_obs::TraceContext::enter(&[trace]);
            match streams.feed(model, cfg.timesteps, frame_shape, id, &chunk) {
                Ok((update, report)) => {
                    if trace != 0 {
                        let dur = ttsnn_obs::now_ns().saturating_sub(exec_start);
                        let executed = report.executed;
                        ttsnn_obs::record_stage_span(trace, Execute, exec_start, dur, executed, id);
                    }
                    // Never evict the session just fed: its chunk was
                    // admitted and executed.
                    let evicted = streams.evict_to_bound(id) as u64;
                    sched.record_stream_chunk(report, submitted.elapsed());
                    sched.record_stream_state(
                        replica,
                        streams.active(),
                        streams.resident_bytes(),
                        evicted,
                    );
                    let _ = reply.send(Ok(update));
                }
                Err(e) => {
                    sched.record_stream_failed();
                    let _ = reply.send(Err(e));
                }
            }
        }
        StreamCmd::Close { id } => {
            let was_resident = streams.close(id);
            sched.record_stream_closed(was_resident);
            sched.record_stream_state(replica, streams.active(), streams.resident_bytes(), 0);
        }
    }
}

/// Validates, forwards and scatters one coalesced batch of whole-stream
/// requests.
fn serve_cluster_batch(
    model: &mut Network,
    cfg: &EngineConfig,
    sched: &Scheduler,
    frame_shape: [usize; 3],
    batch: Vec<crate::sched::Job>,
) {
    // Validate each request independently: a malformed input fails its
    // own ticket, not its co-travellers'.
    let mut accepted = Vec::with_capacity(batch.len());
    for job in batch {
        match plan::validate(&job.input, frame_shape, Some(cfg.timesteps)) {
            Ok(_) => accepted.push(job),
            Err(msg) => {
                sched.record_failed(job.priority, job.tenant);
                let _ = job.reply.send(Err(InferError::Shape(msg)));
            }
        }
    }
    if accepted.is_empty() {
        return;
    }
    let inputs: Vec<&Tensor> = accepted.iter().map(|j| &j.input).collect();
    let traces: Vec<u64> = accepted.iter().map(|j| j.trace).collect();
    let tracing = traces.iter().any(|&t| t != 0) && ttsnn_obs::enabled();
    let exec_start = if tracing { ttsnn_obs::now_ns() } else { 0 };
    match plan::forward_requests(model, cfg.timesteps, frame_shape, &inputs, &traces) {
        Ok(summed) => {
            let batch_size = accepted.len();
            let density = plan::density_report(model);
            // Record each member's `execute` span (batch size + measured
            // mean spike density as payload) *before* scattering replies,
            // so a client that immediately queries `/trace` sees it.
            if tracing {
                let dur = ttsnn_obs::now_ns().saturating_sub(exec_start);
                let (size, bits) = (batch_size as u64, density.mean.unwrap_or(f64::NAN).to_bits());
                for &trace in &traces {
                    ttsnn_obs::record_stage_span(trace, Execute, exec_start, dur, size, bits);
                }
            }
            let served: Vec<_> =
                accepted.iter().map(|j| (j.priority, j.tenant, j.submitted.elapsed())).collect();
            sched.record_served(&served, density);
            let k = summed.len() / batch_size;
            for (i, job) in accepted.iter().enumerate() {
                let row = summed.data()[i * k..(i + 1) * k].to_vec();
                let logits = Tensor::from_vec(row, &[k]).expect("logit row shape");
                let _ = job.reply.send(Ok(logits));
            }
            summed.recycle();
        }
        Err(e) => {
            // Should be unreachable after validation; fail the batch.
            for job in accepted {
                sched.record_failed(job.priority, job.tenant);
                let _ = job.reply.send(Err(InferError::Shape(e.clone())));
            }
        }
    }
}
