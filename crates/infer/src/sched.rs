//! The cluster's central scheduler: one bounded priority/deadline queue
//! feeding every executor replica.
//!
//! # Queueing discipline
//!
//! Requests carry a [`Priority`] class, a [`TenantId`] and an optional
//! relative deadline ([`SubmitOptions`]). By default batch formation pops
//! the most urgent live request first: strictly by priority class,
//! **earliest-deadline-first within a class** (deadline-less requests
//! rank after any deadlined one, FIFO among themselves). A single binary
//! heap over the composite key `(priority, deadline, sequence)`
//! implements this in `O(log n)` per operation.
//!
//! # Overload control (opt-in)
//!
//! Strict priority is the right default for an uncontended cluster, but
//! under sustained overload it starves: a flood of `High` requests delays
//! `Low` indefinitely, and one hot tenant can crowd out everyone.
//! Configuring a [`FairPolicy`] (`ClusterConfig::with_fair`) switches the
//! batch queue to **per-tenant weighted fair queueing**: every
//! `(tenant, priority)` pair is a flow weighted
//! `tenant.weight × priority_weights[class]`, served by a self-clocked
//! virtual-finish-time clock (SCFQ), EDF within each flow. Each flow's
//! share of executor slots converges to its weight fraction, so `High`
//! still dominates but `Low`'s wait is bounded, and tenants get their
//! weighted share. Token buckets ([`RateLimit`]) shed per-tenant overload
//! at admission with [`SubmitError::RateLimited`]. Scheduling order never
//! affects any request's logits — the bit-determinism contract is
//! independent of the discipline.
//!
//! # Cancellation and expiry
//!
//! Dropping a `ClusterTicket` flips the request's shared cancel flag.
//! Cancelled requests are reaped when popped — and re-checked when a
//! collecting batch closes — so a request cancelled before execution
//! **never consumes executor time** and is counted in
//! [`crate::metrics::PriorityStats::cancelled`]. A request whose deadline
//! passes while still queued is dropped the same way, with
//! [`InferError::DeadlineExpired`] delivered to its ticket: the deadline
//! bounds *queueing delay* — a request popped into an executing batch
//! before its deadline runs to completion.
//!
//! # Backpressure
//!
//! The queue is bounded by "outstanding" requests — admitted and not yet
//! in a terminal state (served / cancelled / expired / failed). Blocking
//! `submit` waits for space; `try_submit` fails fast with
//! [`SubmitError::Saturated`] so ingestion layers can shed load instead of
//! buffering without bound. [`batch_close`] reads the same count as the
//! population of callers.
//!
//! # Why not per-replica queues
//!
//! A single queue keeps the determinism story trivial (any replica may
//! serve any request — outputs are bit-identical because every replica
//! aliases the same frozen weights and runs
//! [`ttsnn_snn::InferStats::PerSample`]), gives free work stealing (a slow
//! batch on one replica never blocks requests behind it), and makes
//! priorities global rather than per-replica.

use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

use ttsnn_obs::Stage::{BatchForm, QueueWait};
use ttsnn_tensor::{runtime, Tensor};

use crate::clock::{Clock, Wake};
use crate::metrics::{CloseReason, ClusterMetrics};
use crate::plan::{InferError, SpikeDensityReport};
use crate::stream::{FeedReport, StreamOptions, StreamUpdate};

/// Identity of the client a request is accounted (and fair-queued)
/// against. Tenant `0` is the default for callers that never set one.
pub type TenantId = u32;

/// Scheduling class of a request. Higher classes always form batches
/// first; within a class the earliest deadline wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive traffic — always scheduled before the others.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Throughput traffic that yields to everything else.
    Low,
}

impl Priority {
    /// Number of priority classes (array dimension for per-priority
    /// metrics).
    pub const COUNT: usize = 3;

    /// All classes, most urgent first.
    pub const ALL: [Priority; Priority::COUNT] = [Priority::High, Priority::Normal, Priority::Low];

    /// Stable index of this class (0 = most urgent), e.g. into
    /// [`crate::metrics::ClusterMetrics::per_priority`].
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Per-request scheduling knobs for `ClusterSession::submit_with`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Scheduling class ([`Priority::Normal`] by default).
    pub priority: Priority,
    /// Optional **relative** deadline: if the request is still queued this
    /// long after submission, the scheduler drops it with
    /// [`InferError::DeadlineExpired`] instead of executing stale work.
    /// `None` (default) never expires. A deadline whose absolute time does
    /// not fit the scheduler's `u64` nanosecond clock (e.g.
    /// `Duration::MAX`) behaves like `None`.
    pub deadline: Option<Duration>,
    /// Which tenant the request is accounted against (`0` by default).
    /// Under a [`FairPolicy`] the tenant selects the request's fair-queue
    /// flow and token bucket; without one it only labels the per-tenant
    /// metrics.
    pub tenant: TenantId,
    /// Request-lifecycle trace id (`ttsnn_obs`). `0` (the default) asks
    /// for a fresh one at admission while tracing is on
    /// ([`ttsnn_obs::enabled`]); with tracing off the request stays
    /// untraced and the scheduler records no spans for it. Tracing never
    /// affects scheduling order or any request's logits.
    pub trace: u64,
}

impl SubmitOptions {
    /// Options with the given priority and no deadline.
    pub fn priority(priority: Priority) -> Self {
        Self { priority, ..Self::default() }
    }

    /// Returns these options with a relative deadline set.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns these options with the tenant id set.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Returns these options with a request-lifecycle trace id attached
    /// (see [`ttsnn_obs::next_trace_id`]).
    pub fn with_trace(mut self, trace: u64) -> Self {
        self.trace = trace;
        self
    }
}

/// Context attached to a [`SubmitError::Saturated`] / `RateLimited`
/// rejection so ingress layers can answer with a structured retry-after
/// instead of a generic 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectInfo {
    /// The tenant whose submission was rejected.
    pub tenant: TenantId,
    /// The rejected request's priority class.
    pub priority: Priority,
    /// Suggested client back-off before retrying. For saturation this is
    /// derived from the cluster's measured mean service latency; for rate
    /// limiting it is the time until the tenant's token bucket refills.
    pub retry_after: Duration,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full ([`try_submit`](crate::ClusterSession::try_submit)
    /// only): shed the request or retry later — this is the backpressure
    /// signal. Carries the rejected request's tenant/priority and a
    /// retry-after hint.
    Saturated(RejectInfo),
    /// The tenant's token bucket is empty under the cluster's
    /// [`FairPolicy`] rate limit. Carries the time until a token refills.
    RateLimited(RejectInfo),
    /// The cluster has shut down.
    Closed,
}

impl SubmitError {
    /// The rejection context, when the error carries one (`Saturated` and
    /// `RateLimited`; `Closed` has none).
    pub fn reject_info(&self) -> Option<RejectInfo> {
        match self {
            SubmitError::Saturated(info) | SubmitError::RateLimited(info) => Some(*info),
            SubmitError::Closed => None,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated(info) => write!(
                f,
                "cluster queue is saturated (backpressure; tenant {}, retry after {:?})",
                info.tenant, info.retry_after
            ),
            SubmitError::RateLimited(info) => write!(
                f,
                "tenant {} is rate-limited (retry after {:?})",
                info.tenant, info.retry_after
            ),
            SubmitError::Closed => write!(f, "cluster has shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a submit-and-wait call reports a request that was never admitted:
/// a shut-down cluster is [`InferError::EngineClosed`]; a saturated queue or
/// a dry token bucket is [`InferError::Rejected`] with its retry-after.
impl From<SubmitError> for InferError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Saturated(info) | SubmitError::RateLimited(info) => {
                InferError::Rejected(info)
            }
            SubmitError::Closed => InferError::EngineClosed,
        }
    }
}

/// Per-tenant token-bucket rate limit (requests per second plus burst
/// headroom). A tenant with an empty bucket is rejected at submission
/// with [`SubmitError::RateLimited`] — overload is shed at admission,
/// before it can queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate, in requests per second (> 0).
    pub per_sec: f64,
    /// Bucket capacity: how many requests may be admitted in a burst
    /// before the sustained rate gates (≥ 1).
    pub burst: f64,
}

impl RateLimit {
    /// A limit of `per_sec` sustained requests/s with `burst` headroom.
    pub fn new(per_sec: f64, burst: f64) -> Self {
        Self { per_sec, burst }
    }
}

/// One tenant's share of the cluster under a [`FairPolicy`]: its
/// weighted-fair-queueing weight and optional token-bucket rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// WFQ weight (> 0): over a busy period a tenant's served share
    /// converges to `weight / Σ active weights`.
    pub weight: f64,
    /// Optional admission rate limit (`None` = unlimited).
    pub rate: Option<RateLimit>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self { weight: 1.0, rate: None }
    }
}

impl TenantPolicy {
    /// A policy with the given weight and no rate limit.
    pub fn weighted(weight: f64) -> Self {
        Self { weight, rate: None }
    }

    /// Returns this policy with a token-bucket rate limit attached.
    pub fn with_rate(mut self, rate: RateLimit) -> Self {
        self.rate = Some(rate);
        self
    }
}

/// Opt-in overload control: per-tenant **weighted fair queueing** with
/// token-bucket rate limits, and a weighted (rather than strict) ordering
/// across priority classes.
///
/// Without a policy the scheduler keeps its original discipline — strict
/// priority classes with EDF inside each class — under which a sustained
/// [`Priority::High`] flood starves `Low` forever. With one, every
/// `(tenant, priority)` pair becomes a *flow* with weight
/// `tenant.weight × priority_weights[class]`, and batch formation picks
/// flows by a self-clocked virtual-finish-time clock: each flow's share of
/// served requests converges to its weight fraction, so `High` still
/// dominates (default 8× `Low`'s weight) but can no longer starve, and a
/// hot tenant cannot crowd out the rest. Within a flow the order stays
/// earliest-deadline-first.
///
/// Fairness only reorders execution; it cannot change any request's
/// logits — the cluster's bit-determinism contract is independent of
/// scheduling order.
#[derive(Debug, Clone, PartialEq)]
pub struct FairPolicy {
    /// Policy applied to tenants absent from [`FairPolicy::tenants`].
    pub default_tenant: TenantPolicy,
    /// Per-tenant overrides.
    pub tenants: BTreeMap<TenantId, TenantPolicy>,
    /// Relative weight of each priority class, indexed by
    /// [`Priority::index`]. The default `[8, 3, 1]` keeps `High` strongly
    /// preferred while guaranteeing `Low` roughly 1 in 12 slots under
    /// saturation.
    pub priority_weights: [f64; Priority::COUNT],
}

impl Default for FairPolicy {
    fn default() -> Self {
        Self {
            default_tenant: TenantPolicy::default(),
            tenants: BTreeMap::new(),
            priority_weights: [8.0, 3.0, 1.0],
        }
    }
}

impl FairPolicy {
    /// Sets (or replaces) one tenant's policy.
    pub fn with_tenant(mut self, tenant: TenantId, policy: TenantPolicy) -> Self {
        self.tenants.insert(tenant, policy);
        self
    }

    /// Overrides the per-priority-class weights.
    pub fn with_priority_weights(mut self, weights: [f64; Priority::COUNT]) -> Self {
        self.priority_weights = weights;
        self
    }

    /// The effective policy for a tenant (override or default).
    pub fn tenant(&self, tenant: TenantId) -> TenantPolicy {
        self.tenants.get(&tenant).copied().unwrap_or(self.default_tenant)
    }

    /// Validates the policy (all weights positive and finite, rates
    /// positive, bursts ≥ 1).
    pub(crate) fn validate(&self) -> Result<(), String> {
        let check_tenant = |t: &TenantPolicy| -> Result<(), String> {
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(format!("FairPolicy tenant weight must be positive: {}", t.weight));
            }
            if let Some(r) = t.rate {
                if !(r.per_sec.is_finite() && r.per_sec > 0.0) {
                    return Err(format!("FairPolicy rate must be positive: {}", r.per_sec));
                }
                if !(r.burst.is_finite() && r.burst >= 1.0) {
                    return Err(format!("FairPolicy burst must be at least 1: {}", r.burst));
                }
            }
            Ok(())
        };
        check_tenant(&self.default_tenant)?;
        for t in self.tenants.values() {
            check_tenant(t)?;
        }
        for &w in &self.priority_weights {
            if !(w.is_finite() && w > 0.0) {
                return Err(format!("FairPolicy priority weight must be positive: {w}"));
            }
        }
        Ok(())
    }
}

/// Where a request's answer goes. Only this module sends on it, and only
/// with the [`Released`] its bookkeeping — counts, latency, slot — hands
/// back: the executor returns a `Reply` through a `record_*` method and
/// cannot send on one itself. So a caller holding its answer holds no
/// slot and finds its request in the metrics.
pub(crate) struct Reply<T>(Sender<Result<T, InferError>>);

impl<T> Reply<T> {
    fn send(&self, answer: Result<T, InferError>, _done: Released) {
        // A caller that hung up no longer wants the answer.
        let _ = self.0.send(answer);
    }
}

/// A request's slot is free and its bookkeeping done:
/// [`Scheduler::finish_one`] returns one, and [`Reply::send`] takes one.
#[must_use]
struct Released(());

/// One admitted request, owned by the queue until popped into a batch.
pub(crate) struct Job {
    /// Global admission number — the FIFO tie-breaker.
    pub(crate) seq: u64,
    /// `(C, H, W)` or `(T, C, H, W)` input, validated by the executing
    /// replica.
    pub(crate) input: Tensor,
    /// Scheduling class.
    pub(crate) priority: Priority,
    /// Tenant the request is accounted (and fair-queued) against.
    pub(crate) tenant: TenantId,
    /// Absolute queueing deadline on the scheduler's clock (ns), if any.
    pub(crate) deadline: Option<u64>,
    /// Set by `ClusterTicket::drop`; checked at pop and at batch close.
    pub(crate) cancelled: Arc<AtomicBool>,
    /// Where the logits (or the error) go.
    pub(crate) reply: Reply<Tensor>,
    /// Admission time on the scheduler's clock (ns): where the latency
    /// histogram's sample and the `queue_wait` span start.
    pub(crate) submitted: u64,
    /// Request-lifecycle trace id (`0` = untraced).
    pub(crate) trace: u64,
    /// When the job was popped into an open batch (set by `pop_live`;
    /// splits `queue_wait` from `batch_form`).
    pub(crate) popped_ns: u64,
}

impl Job {
    /// Urgency key: priority class, then deadline (deadline-less last),
    /// then admission order. Smaller = more urgent.
    fn key(&self) -> (usize, Option<u64>, u64) {
        (self.priority.index(), self.deadline, self.seq)
    }

    fn cmp_key(&self, other: &Self) -> CmpOrdering {
        let (pa, da, sa) = self.key();
        let (pb, db, sb) = other.key();
        pa.cmp(&pb)
            .then_with(|| match (da, db) {
                (Some(a), Some(b)) => a.cmp(&b),
                (Some(_), None) => CmpOrdering::Less,
                (None, Some(_)) => CmpOrdering::Greater,
                (None, None) => CmpOrdering::Equal,
            })
            .then_with(|| sa.cmp(&sb))
    }
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Job {}
impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Job {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.cmp_key(other)
    }
}

/// One backlogged flow of the fair queue: the `(tenant, priority)` pair's
/// jobs in EDF order, plus its weight and virtual finish tag.
struct Flow {
    /// EDF within the flow: all jobs share a priority class, so [`Job`]'s
    /// ordering reduces to `(deadline, seq)` here.
    jobs: BinaryHeap<Reverse<Job>>,
    /// Virtual finish time of the flow's **next** service. Fixed when the
    /// flow becomes backlogged (`max(V, _) + 1/weight` — an idle period
    /// never banks credit) and advanced by `1/weight` per served job
    /// while the backlog lasts; never recomputed at pop time, which is
    /// what makes the share converge to the weight fraction.
    finish_tag: f64,
    /// `tenant.weight × priority_weights[class]`.
    weight: f64,
}

/// The batch-job queue in one of its two disciplines.
///
/// `Strict` is the original contract: priority classes absolutely
/// ordered, EDF within a class. `Fair` implements self-clocked weighted
/// fair queueing (SCFQ): each `(tenant, priority)` flow advances a shared
/// virtual clock by `1/weight` per served request, and the smallest
/// virtual finish tag is served next — so every flow's throughput share
/// converges to its weight fraction and no class or tenant can be starved.
enum JobQueue {
    Strict(BinaryHeap<Reverse<Job>>),
    Fair {
        policy: FairPolicy,
        /// Flows keyed by `(tenant, priority index)`. A `BTreeMap` keeps
        /// pop-time iteration (and therefore tie-breaks) deterministic.
        flows: BTreeMap<(TenantId, usize), Flow>,
        /// The SCFQ virtual clock: the finish tag of the last served job.
        virtual_time: f64,
    },
}

impl JobQueue {
    fn new(policy: Option<FairPolicy>) -> Self {
        match policy {
            None => JobQueue::Strict(BinaryHeap::new()),
            Some(policy) => JobQueue::Fair { policy, flows: BTreeMap::new(), virtual_time: 0.0 },
        }
    }

    fn len(&self) -> usize {
        match self {
            JobQueue::Strict(q) => q.len(),
            JobQueue::Fair { flows, .. } => flows.values().map(|f| f.jobs.len()).sum(),
        }
    }

    fn push(&mut self, job: Job) {
        match self {
            JobQueue::Strict(q) => q.push(Reverse(job)),
            JobQueue::Fair { policy, flows, virtual_time } => {
                let key = (job.tenant, job.priority.index());
                let flow = flows.entry(key).or_insert_with(|| {
                    let weight = policy.tenant(key.0).weight * policy.priority_weights[key.1];
                    Flow {
                        jobs: BinaryHeap::new(),
                        // Newly backlogged: one service quantum past the
                        // current clock.
                        finish_tag: *virtual_time + 1.0 / weight,
                        weight,
                    }
                });
                flow.jobs.push(Reverse(job));
            }
        }
    }

    /// Pops the next job under the queue's discipline (`None` when empty).
    fn pop(&mut self) -> Option<Job> {
        match self {
            JobQueue::Strict(q) => q.pop().map(|Reverse(job)| job),
            JobQueue::Fair { flows, virtual_time, .. } => {
                // Pick the backlogged flow with the smallest virtual
                // finish tag; ties break toward the more urgent class,
                // then the lower tenant id.
                let mut best: Option<((TenantId, usize), f64)> = None;
                for (&key, flow) in flows.iter() {
                    let tag = flow.finish_tag;
                    let better = match best {
                        None => true,
                        Some((bkey, btag)) => {
                            tag < btag || (tag == btag && (key.1, key.0) < (bkey.1, bkey.0))
                        }
                    };
                    if better {
                        best = Some((key, tag));
                    }
                }
                let (key, tag) = best?;
                *virtual_time = tag;
                let flow = flows.get_mut(&key).expect("chosen flow exists");
                let job = flow.jobs.pop().map(|Reverse(job)| job);
                if flow.jobs.is_empty() {
                    // Drop drained flows: pop-time iteration stays
                    // proportional to *backlogged* flows, and on
                    // re-activation the flow restarts from the clock (an
                    // idle flow banks no credit).
                    flows.remove(&key);
                } else {
                    flow.finish_tag = tag + 1.0 / flow.weight;
                }
                job
            }
        }
    }
}

/// Reason code of a `rejected` trace event: the bounded queue was full.
const REJECT_SATURATED: u64 = 1;
/// Reason code of a `rejected` trace event: the tenant's bucket was dry.
const REJECT_RATE_LIMITED: u64 = 2;

/// Makes an admission drop visible in the trace stream and in
/// `GET /debug/requests`. A rejected request never held queue state, and
/// both records land in bounded rings (the per-thread event ring and the
/// flight recorder's completion ring), so rejections can never leak
/// ring-buffer slots however many arrive.
fn record_rejected(opts: &SubmitOptions, reason: u64, now: u64) {
    if opts.trace == 0 {
        return;
    }
    ttsnn_obs::record_instant(opts.trace, "rejected", now, reason, u64::from(opts.tenant));
    let status =
        if reason == REJECT_SATURATED { "rejected_saturated" } else { "rejected_rate_limited" };
    ttsnn_obs::record_completion(opts.trace, opts.tenant, status, 0);
}

/// One tenant's token bucket, refilled lazily at admission time.
struct TokenBucket {
    tokens: f64,
    /// When `tokens` was last brought up to date (scheduler clock, ns).
    refilled: u64,
}

/// `now + d` on the scheduler's clock, or `None` — never — when that time
/// does not fit a `u64` of nanoseconds (e.g. `d` is `Duration::MAX`).
fn after(now: u64, d: Duration) -> Option<u64> {
    u64::try_from(d.as_nanos()).ok().and_then(|d| now.checked_add(d))
}

/// Seconds in `ns` nanoseconds, as `Duration::as_secs_f64` computes them.
fn secs(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64()
}

/// One replica-pinned streaming command. Unlike batch jobs (any replica
/// may serve any request), stream commands ride **per-replica FIFO
/// queues**: a session's membranes live on exactly one replica, and its
/// chunks must execute in feed order — reordering them would corrupt the
/// stream, so stream chunks have no priority classes.
pub(crate) enum StreamCmd {
    /// Register a session on the replica.
    Open {
        /// Session id.
        id: u64,
        /// Early-exit policy, fixed for the session's lifetime.
        opts: StreamOptions,
    },
    /// Execute (or, post-early-exit, skip) one chunk of timesteps.
    Feed {
        /// Session id.
        id: u64,
        /// `(C, H, W)` or `(n, C, H, W)` frames.
        chunk: Tensor,
        /// Absolute queueing deadline on the scheduler's clock (ns), if
        /// any: an expired chunk is dropped with `DeadlineExpired` and
        /// **the session is untouched** (no timestep was consumed).
        deadline: Option<u64>,
        /// Where the any-time update (or the error) goes.
        reply: Reply<StreamUpdate>,
        /// Admission time on the scheduler's clock (ns): where the latency
        /// histogram's sample and the `queue_wait` span start.
        submitted: u64,
        /// Per-chunk trace id, minted at enqueue when tracing is on
        /// (`0` = untraced). Stream chunks are requests, so each gets
        /// `queue_wait` and `execute` spans like a batch member.
        trace: u64,
    },
    /// Drop the session's resident state.
    Close {
        /// Session id.
        id: u64,
    },
}

/// What [`Scheduler::next_work`] hands a replica: a coalesced batch of
/// whole-stream requests, or one replica-pinned stream command. Stream
/// commands are served first — they are latency-sensitive (a live client
/// is mid-stream) and cannot be stolen by another replica.
pub(crate) enum Work {
    /// A batch formed from the shared priority queue.
    Batch(Vec<Job>),
    /// The replica's next stream command.
    Stream(StreamCmd),
}

/// What [`batch_close`] tells a replica that holds an open batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose<T> {
    /// Hand the batch to the executor.
    Close(CloseReason),
    /// Keep it open and look again at the next arrival or at this time
    /// (`None`: arrivals only). `Wait(now)` answers a non-empty queue:
    /// take the next request.
    Wait(Option<T>),
}

/// The batch-close rule: a pure function of what the scheduler sees when
/// it looks at an open batch (`T` is any clock). A batch whose queue is
/// empty waits only while someone it has reason to expect is missing:
/// `expected` is the largest `outstanding` seen at an admission in this
/// batch cycle or the last (`None` before the scheduler's first close),
/// and once `outstanding` reaches it every known requester has a request
/// in this batch or executing on another replica. Otherwise the window
/// `close_at` decides — alone, while `expected` is unknown — so `max_wait`
/// is an upper bound: knowing more only ever closes a batch earlier.
#[allow(clippy::too_many_arguments)]
pub fn batch_close<T: PartialOrd + Copy>(
    batch_len: usize,
    max_batch: usize,
    queue_empty: bool,
    outstanding: usize,
    expected: Option<usize>,
    now: T,
    close_at: Option<T>,
    stream_pending: bool,
    shutdown: bool,
) -> BatchClose<T> {
    use BatchClose::{Close, Wait};
    match () {
        _ if batch_len >= max_batch => Close(CloseReason::Full),
        _ if shutdown => Close(CloseReason::Shutdown),
        _ if stream_pending => Close(CloseReason::Stream),
        _ if !queue_empty => Wait(Some(now)),
        _ if expected.is_some_and(|e| outstanding >= e) => Close(CloseReason::Accounted),
        _ if close_at.is_some_and(|at| now >= at) => Close(CloseReason::Window),
        _ => Wait(close_at),
    }
}

struct State {
    /// The batch-job queue (strict priority or weighted-fair, per
    /// config).
    queue: JobQueue,
    /// Per-tenant admission token buckets (only tenants with a
    /// [`RateLimit`] appear here).
    buckets: BTreeMap<TenantId, TokenBucket>,
    /// Per-replica FIFO stream command queues (index = replica).
    streams: Vec<VecDeque<StreamCmd>>,
    /// Admitted, not yet terminal — the backpressure quantity. Stream
    /// chunks count here too: a saturated queue pushes back on streaming
    /// and whole-stream traffic alike. A slot is released **before** its
    /// reply is sent (a [`Reply`] takes the [`Released`] token): a caller
    /// holding a reply holds no slot, so its next request is never refused
    /// `Saturated` by its last, and the count at an admission never exceeds
    /// the callers there are — [`batch_close`] reads it as the population.
    outstanding: usize,
    /// Largest `outstanding` seen at an admission in the current batch
    /// cycle (one ends when a batch closes) and in the previous one
    /// (`None` until a batch has closed): [`batch_close`]'s `expected`.
    peak: usize,
    prev_peak: Option<usize>,
    shutdown: bool,
    next_seq: u64,
    /// Next session id, and the round-robin cursor for replica pinning.
    next_stream_id: u64,
    /// Per-replica liveness heartbeat: when the replica last touched the
    /// scheduler loop (scheduler clock, ns; `None` before its first pull).
    /// Updated under the already-held state mutex, so the telemetry
    /// watchdog costs the hot path one stored clock reading.
    seen: Vec<Option<u64>>,
    metrics: ClusterMetrics,
}

impl State {
    /// Takes the backpressure slot of a request just admitted.
    fn admitted(&mut self) {
        self.outstanding += 1;
        self.peak = self.peak.max(self.outstanding);
    }

    /// Retry-after hint for a saturation rejection: the measured mean
    /// service latency (one "slot" should free up in about that long),
    /// clamped to a sane band, with a 10 ms cold-start default.
    fn saturation_retry_after(&self) -> Duration {
        let mean = self.metrics.latency.mean();
        if mean > 0.0 {
            Duration::from_secs_f64(mean.clamp(0.001, 1.0))
        } else {
            Duration::from_millis(10)
        }
    }
}

/// What [`Scheduler::slot`] found when an admission asked for a
/// backpressure slot. `Free` and `Full` carry the still-held state lock.
enum Slot<'a> {
    Free(MutexGuard<'a, State>),
    Full(MutexGuard<'a, State>),
    Closed,
}

/// The shared scheduler: sessions push, replicas pull batches, metrics
/// snapshot on demand. All state sits behind one mutex — every transition
/// is a few pointer moves, so contention is negligible next to a forward
/// pass.
pub(crate) struct Scheduler {
    capacity: usize,
    /// The fair policy, when overload control is on (also stored inside
    /// the queue; kept here for rate-limit lookups without matching).
    fair: Option<FairPolicy>,
    state: Mutex<State>,
    /// Signalled when work arrives (and on shutdown).
    work: Condvar,
    /// Signalled when outstanding drops (and on shutdown).
    space: Condvar,
    /// Every timestamp and every timed wait ([`crate::clock`]).
    clock: Arc<dyn Clock>,
    /// Wakes the replicas parked on `work`, for a clock that moves by
    /// command.
    wake: Wake,
}

impl Scheduler {
    pub(crate) fn new(
        capacity: usize,
        replicas: usize,
        fair: Option<FairPolicy>,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        Arc::new_cyclic(|me: &Weak<Self>| {
            let me = Weak::clone(me);
            let wake: Wake = Arc::new(move || {
                if let Some(sched) = me.upgrade() {
                    let _st = sched.lock();
                    sched.work.notify_all();
                }
            });
            Self {
                capacity,
                fair: fair.clone(),
                state: Mutex::new(State {
                    queue: JobQueue::new(fair),
                    buckets: BTreeMap::new(),
                    streams: (0..replicas).map(|_| VecDeque::new()).collect(),
                    outstanding: 0,
                    peak: 0,
                    prev_peak: None,
                    shutdown: false,
                    next_seq: 0,
                    next_stream_id: 0,
                    seen: vec![None; replicas],
                    metrics: ClusterMetrics::new(replicas),
                }),
                work: Condvar::new(),
                space: Condvar::new(),
                clock,
                wake,
            }
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The scheduler's clock, in ns: what replicas time their spans with.
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Parks a replica on `work` until an arrival (or any other wake-up)
    /// or until the clock reads `until` (`None`: arrivals only).
    fn park<'a>(&'a self, st: MutexGuard<'a, State>, until: Option<u64>) -> MutexGuard<'a, State> {
        let mut st = Some(st);
        self.clock.park_until(until, &self.wake, &mut |timeout| {
            let guard = st.take().expect("the scheduler lock is held between parks");
            st = Some(match timeout {
                None => self.work.wait(guard).unwrap_or_else(|e| e.into_inner()),
                Some(t) => self.work.wait_timeout(guard, t).unwrap_or_else(|e| e.into_inner()).0,
            });
        });
        st.expect("the scheduler lock is held after a park")
    }

    /// Wakes every replica parked in [`Scheduler::next_work`]: there is work,
    /// a stream command, or a shutdown to look at.
    fn wake_replicas(&self) {
        self.clock.waking();
        self.work.notify_all();
    }

    /// Charges one token from the tenant's bucket, or reports how long
    /// until the next token if the bucket is empty. No-op without a fair
    /// policy or without a rate limit for this tenant.
    fn charge_rate_locked(
        &self,
        st: &mut State,
        tenant: TenantId,
        now: u64,
    ) -> Result<(), Duration> {
        let Some(limit) = self.fair.as_ref().and_then(|f| f.tenant(tenant).rate) else {
            return Ok(());
        };
        // Tenant ids come off the wire: before growing the map for an
        // unseen tenant, drop buckets that have refilled to full burst —
        // a full bucket is indistinguishable from a fresh one, so this
        // bounds id-cycling clients to the set of *actively limited*
        // tenants instead of every id ever seen.
        if st.buckets.len() >= crate::metrics::MAX_TRACKED_TENANTS
            && !st.buckets.contains_key(&tenant)
        {
            if let Some(fair) = self.fair.as_ref() {
                st.buckets.retain(|&t, b| match fair.tenant(t).rate {
                    None => false,
                    Some(r) => {
                        b.tokens + secs(now.saturating_sub(b.refilled)) * r.per_sec < r.burst
                    }
                });
            }
        }
        let bucket = st
            .buckets
            .entry(tenant)
            .or_insert_with(|| TokenBucket { tokens: limit.burst, refilled: now });
        let elapsed = secs(now.saturating_sub(bucket.refilled));
        bucket.tokens = (bucket.tokens + elapsed * limit.per_sec).min(limit.burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64((1.0 - bucket.tokens) / limit.per_sec))
        }
    }

    /// Takes the state lock and looks for a free backpressure slot:
    /// blocks for one when `block`, otherwise reports [`Slot::Full`] with
    /// the lock still held so the caller can account the rejection.
    fn slot(&self, block: bool) -> Slot<'_> {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return Slot::Closed;
            }
            if st.outstanding < self.capacity {
                return Slot::Free(st);
            }
            if !block {
                return Slot::Full(st);
            }
            st = self.space.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The one admission routine for batch requests. Rate limits fail
    /// fast even when `block` — a rate-limited tenant must back off, not
    /// camp on the queue lock. An untraced request gets a trace id while
    /// tracing is on, as a wire request and a stream chunk do.
    fn admit(
        &self,
        block: bool,
        input: Tensor,
        mut opts: SubmitOptions,
        reply: Sender<Result<Tensor, InferError>>,
    ) -> Result<Arc<AtomicBool>, SubmitError> {
        if opts.trace == 0 && ttsnn_obs::enabled() {
            opts.trace = ttsnn_obs::next_trace_id();
        }
        let reject =
            |retry_after| RejectInfo { tenant: opts.tenant, priority: opts.priority, retry_after };
        let mut st = match self.slot(block) {
            Slot::Closed => return Err(SubmitError::Closed),
            Slot::Full(mut st) => {
                st.metrics.tenant_mut(opts.tenant).rejected_saturated += 1;
                record_rejected(&opts, REJECT_SATURATED, self.clock.now_ns());
                return Err(SubmitError::Saturated(reject(st.saturation_retry_after())));
            }
            Slot::Free(st) => st,
        };
        let now = self.clock.now_ns();
        if let Err(retry_after) = self.charge_rate_locked(&mut st, opts.tenant, now) {
            st.metrics.tenant_mut(opts.tenant).rejected_rate_limited += 1;
            record_rejected(&opts, REJECT_RATE_LIMITED, now);
            return Err(SubmitError::RateLimited(reject(retry_after)));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let cancelled = Arc::new(AtomicBool::new(false));
        st.metrics.priority_mut(opts.priority).submitted += 1;
        st.metrics.tenant_mut(opts.tenant).submitted += 1;
        st.admitted();
        st.queue.push(Job {
            seq,
            input,
            priority: opts.priority,
            tenant: opts.tenant,
            deadline: opts.deadline.and_then(|d| after(now, d)),
            cancelled: cancelled.clone(),
            reply: Reply(reply),
            submitted: now,
            trace: opts.trace,
            popped_ns: 0,
        });
        self.wake_replicas();
        Ok(cancelled)
    }

    /// Admits a request, blocking while the queue is saturated.
    pub(crate) fn submit(
        &self,
        input: Tensor,
        opts: SubmitOptions,
        reply: Sender<Result<Tensor, InferError>>,
    ) -> Result<Arc<AtomicBool>, SubmitError> {
        self.admit(true, input, opts, reply)
    }

    /// Admits a request or fails fast — the backpressure edge.
    pub(crate) fn try_submit(
        &self,
        input: Tensor,
        opts: SubmitOptions,
        reply: Sender<Result<Tensor, InferError>>,
    ) -> Result<Arc<AtomicBool>, SubmitError> {
        self.admit(false, input, opts, reply)
    }

    /// One request reached a terminal state: free its backpressure slot.
    fn finish_one(&self, st: &mut State) -> Released {
        st.outstanding -= 1;
        self.space.notify_all();
        Released(())
    }

    /// Reaps a job that must not execute, at a pop or at batch close: a
    /// cancelled job is counted and its slot freed; an expired one is
    /// counted, its slot freed, and answered [`InferError::DeadlineExpired`].
    /// Returns `false` — and touches nothing — for a live job.
    fn reap(&self, st: &mut State, job: &Job, now: u64) -> bool {
        let cancelled = job.cancelled.load(Ordering::SeqCst);
        if cancelled {
            st.metrics.priority_mut(job.priority).cancelled += 1;
            st.metrics.tenant_mut(job.tenant).cancelled += 1;
        } else if job.deadline.is_some_and(|d| now >= d) {
            st.metrics.priority_mut(job.priority).expired += 1;
            st.metrics.tenant_mut(job.tenant).expired += 1;
        } else {
            return false;
        }
        let released = self.finish_one(st);
        if !cancelled {
            job.reply.send(Err(InferError::DeadlineExpired), released);
        }
        true
    }

    /// Pops the most urgent **live** job, reaping cancelled and expired
    /// entries on the way (they never reach an executor).
    fn pop_live(&self, st: &mut State, now: u64) -> Option<Job> {
        while let Some(mut job) = st.queue.pop() {
            if self.reap(st, &job, now) {
                continue;
            }
            if job.trace != 0 {
                job.popped_ns = now;
            }
            return Some(job);
        }
        None
    }

    /// Pops the replica's next stream command, dropping expired feed
    /// chunks on the way (their sessions stay intact — an expired chunk
    /// consumed no timestep). A traced feed's `queue_wait` ends here, where
    /// it leaves its lane.
    fn pop_stream(&self, st: &mut State, replica: usize, now: u64) -> Option<StreamCmd> {
        while let Some(cmd) = st.streams[replica].pop_front() {
            if let StreamCmd::Feed { id, deadline, reply, trace, submitted, .. } = &cmd {
                if deadline.is_some_and(|d| now >= d) {
                    st.metrics.sessions.chunks_expired += 1;
                    let released = self.finish_one(st);
                    reply.send(Err(InferError::DeadlineExpired), released);
                    continue;
                }
                if *trace != 0 {
                    let wait = now.saturating_sub(*submitted);
                    ttsnn_obs::record_stage_span(*trace, QueueWait, *submitted, wait, 0, *id);
                }
            }
            return Some(cmd);
        }
        None
    }

    /// Blocks for the replica's next unit of work. Stream commands win:
    /// they are replica-pinned, FIFO, and a waiting streaming client is
    /// by definition mid-request. With no stream command pending, forms a
    /// batch: waits for a first live request, then admits co-travellers
    /// until [`batch_close`] says to stop: the batch holds `max_batch`
    /// requests, everyone expected is accounted for, `max_wait` has
    /// elapsed since it opened on the scheduler's clock (a `max_wait` whose
    /// end does not fit the clock's `u64` nanoseconds, e.g.
    /// `Duration::MAX`, means "no window"), a stream
    /// command arrives for this replica (the batch executes, then the
    /// command is served), or the cluster shuts down (the batch already
    /// admitted is still returned; after that, `None`).
    ///
    /// Cancellation is re-checked when the batch closes, so a ticket
    /// dropped while its request sat in an open batch is still a
    /// cancellation, with a strong guarantee: a cancel that
    /// happened-before the batch closed is never executed.
    pub(crate) fn next_work(
        &self,
        replica: usize,
        max_batch: usize,
        max_wait: Duration,
    ) -> Option<Work> {
        use BatchClose::{Close, Wait};
        let mut st = self.lock();
        loop {
            let (first, opened) = loop {
                // Liveness heartbeat: the replica is provably inside the
                // scheduler loop (refreshed on every wake, so waiting for
                // work is not mistaken for being wedged). This runs on the
                // replica's own thread, so its arena gauge rides along.
                let now = self.clock.now_ns();
                st.seen[replica] = Some(now);
                st.metrics.replica_arena_bytes[replica] = runtime::scratch_bytes();
                if let Some(cmd) = self.pop_stream(&mut st, replica, now) {
                    return Some(Work::Stream(cmd));
                }
                if let Some(job) = self.pop_live(&mut st, now) {
                    break (job, now);
                }
                if st.shutdown {
                    return None;
                }
                st = self.park(st, None);
            };
            let mut batch = vec![first];
            let close_at = after(opened, max_wait);
            let (reason, now) = loop {
                let now = self.clock.now_ns();
                st.seen[replica] = Some(now);
                let queue_empty = st.queue.len() == 0;
                match batch_close(
                    batch.len(),
                    max_batch,
                    queue_empty,
                    st.outstanding,
                    st.prev_peak.map(|prev| prev.max(st.peak)),
                    now,
                    close_at,
                    !st.streams[replica].is_empty(),
                    st.shutdown,
                ) {
                    Close(reason) => break (reason, now),
                    // Nothing, if all that was queued had been cancelled.
                    Wait(_) if !queue_empty => batch.extend(self.pop_live(&mut st, now)),
                    Wait(until) => st = self.park(st, until),
                }
            };
            // Closing checks: cancellations and expiries that landed while
            // the batch was open must still be honoured — execution has
            // not started yet.
            batch.retain(|job| !self.reap(&mut st, job, now));
            if !batch.is_empty() {
                // The batch closes and its cycle ends; each traced member's wait
                // is split into `queue_wait` (submit → pop) and `batch_form`.
                st.metrics.batches_closed[reason.index()] += 1;
                st.prev_peak = Some(std::mem::take(&mut st.peak));
                if batch.iter().any(|j| j.trace != 0) {
                    let (size, why) = (batch.len() as u64, reason.index() as u64);
                    for job in &batch {
                        let (trace, submit, popped) = (job.trace, job.submitted, job.popped_ns);
                        let (prio, tenant) = (job.priority.index() as u64, u64::from(job.tenant));
                        let wait = popped.saturating_sub(submit);
                        ttsnn_obs::record_stage_span(trace, QueueWait, submit, wait, prio, tenant);
                        let form = now.saturating_sub(popped);
                        ttsnn_obs::record_stage_span(trace, BatchForm, popped, form, size, why);
                    }
                }
                return Some(Work::Batch(batch));
            }
            // Everything admitted was cancelled/expired: open a new batch.
        }
    }

    /// Opens a streaming session: assigns a cluster-unique id, pins it to
    /// a replica round-robin, and queues the registration.
    pub(crate) fn open_stream(&self, opts: StreamOptions) -> Result<(u64, usize), SubmitError> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(SubmitError::Closed);
        }
        let id = st.next_stream_id;
        st.next_stream_id += 1;
        let replica = (id % st.streams.len() as u64) as usize;
        st.streams[replica].push_back(StreamCmd::Open { id, opts });
        st.metrics.sessions.opened += 1;
        self.wake_replicas();
        Ok((id, replica))
    }

    /// The one admission routine for stream chunks: blocks while the queue
    /// is saturated when `block`, otherwise fails fast — the backpressure
    /// edge for streaming clients.
    pub(crate) fn admit_stream_chunk(
        &self,
        block: bool,
        replica: usize,
        id: u64,
        chunk: Tensor,
        deadline: Option<Duration>,
        reply: Sender<Result<StreamUpdate, InferError>>,
    ) -> Result<(), SubmitError> {
        let mut st = match self.slot(block) {
            Slot::Closed => return Err(SubmitError::Closed),
            // Stream chunks carry no tenant (sessions are the accounting
            // unit there); report the default tenant's context.
            Slot::Full(st) => {
                return Err(SubmitError::Saturated(RejectInfo {
                    tenant: 0,
                    priority: Priority::Normal,
                    retry_after: st.saturation_retry_after(),
                }))
            }
            Slot::Free(st) => st,
        };
        let now = self.clock.now_ns();
        st.admitted();
        st.metrics.sessions.chunks_submitted += 1;
        let trace = if ttsnn_obs::enabled() { ttsnn_obs::next_trace_id() } else { 0 };
        st.streams[replica].push_back(StreamCmd::Feed {
            id,
            chunk,
            deadline: deadline.and_then(|d| after(now, d)),
            reply: Reply(reply),
            submitted: now,
            trace,
        });
        self.wake_replicas();
        Ok(())
    }

    /// Queues a session close (from a `ClusterStreamSession` drop). Not a
    /// backpressure subject: closes free memory, so they must never be
    /// blocked by a saturated queue.
    pub(crate) fn close_stream(&self, replica: usize, id: u64) {
        let mut st = self.lock();
        if st.shutdown {
            return;
        }
        st.streams[replica].push_back(StreamCmd::Close { id });
        self.wake_replicas();
    }

    /// Records one executed batch in one lock take, then answers each job
    /// with its row of `logits`: per-request served counts, submit→reply
    /// latencies (from each request's admission time) and slot releases,
    /// the batch-size sample, and the replica's spike-density snapshot
    /// (last writer wins: its own cumulative traffic).
    pub(crate) fn record_served(
        &self,
        batch: &[Job],
        logits: Vec<Tensor>,
        density: SpikeDensityReport,
    ) {
        let released: Vec<Released> = {
            let mut st = self.lock();
            let now = self.clock.now_ns();
            let released = batch
                .iter()
                .map(|job| {
                    st.metrics.priority_mut(job.priority).served += 1;
                    st.metrics.tenant_mut(job.tenant).served += 1;
                    st.metrics.latency.record(secs(now.saturating_sub(job.submitted)));
                    self.finish_one(&mut st)
                })
                .collect();
            st.metrics.batch_sizes.record(batch.len() as f64);
            st.metrics.batches_executed += 1;
            st.metrics.spike_density = density.per_layer;
            st.metrics.mean_spike_density = density.mean;
            released
        };
        for ((job, row), done) in batch.iter().zip(logits).zip(released) {
            job.reply.send(Ok(row), done);
        }
    }

    /// Records a request rejected by plan validation (failed its own
    /// ticket inside an otherwise healthy batch), then answers it `error`.
    pub(crate) fn record_failed(&self, job: &Job, error: InferError) {
        let released = {
            let mut st = self.lock();
            st.metrics.priority_mut(job.priority).failed += 1;
            st.metrics.tenant_mut(job.tenant).failed += 1;
            self.finish_one(&mut st)
        };
        job.reply.send(Err(error), released);
    }

    /// Records one served stream chunk, then answers it `update`:
    /// execution/skip accounting plus the submit→reply latency from its
    /// admission time `submitted` (stream chunks share the request latency
    /// histogram — they are requests).
    pub(crate) fn record_stream_chunk(
        &self,
        report: FeedReport,
        submitted: u64,
        reply: &Reply<StreamUpdate>,
        update: StreamUpdate,
    ) {
        let released = {
            let mut st = self.lock();
            let latency = secs(self.clock.now_ns().saturating_sub(submitted));
            let s = &mut st.metrics.sessions;
            s.chunks_served += 1;
            s.timesteps_executed += report.executed;
            s.timesteps_skipped += report.skipped;
            s.macs_executed += report.macs_executed;
            s.macs_skipped += report.macs_skipped;
            st.metrics.latency.record(latency);
            self.finish_one(&mut st)
        };
        reply.send(Ok(update), released);
    }

    /// Records a rejected stream chunk (malformed, overrun, or dead
    /// session), then answers it `error`.
    pub(crate) fn record_stream_failed(&self, reply: &Reply<StreamUpdate>, error: InferError) {
        let released = {
            let mut st = self.lock();
            st.metrics.sessions.chunks_failed += 1;
            self.finish_one(&mut st)
        };
        reply.send(Err(error), released);
    }

    /// Records a replica's session-table state after it changed: live
    /// sessions, resident bytes, and how many sessions the bound just
    /// evicted.
    pub(crate) fn record_stream_state(
        &self,
        replica: usize,
        active: usize,
        resident_bytes: usize,
        evicted: u64,
    ) {
        let mut st = self.lock();
        let s = &mut st.metrics.sessions;
        s.active[replica] = active;
        s.resident_state_bytes[replica] = resident_bytes;
        s.evicted += evicted;
    }

    /// Records a session close served by a replica (`was_resident` is
    /// false when the session had already been evicted — it was counted
    /// then).
    pub(crate) fn record_stream_closed(&self, was_resident: bool) {
        if was_resident {
            let mut st = self.lock();
            st.metrics.sessions.closed += 1;
        }
    }

    /// Consistent snapshot for `Cluster::metrics`.
    pub(crate) fn metrics(&self) -> ClusterMetrics {
        let st = self.lock();
        let mut m = st.metrics.clone();
        m.queue_depth = st.queue.len();
        m.outstanding = st.outstanding;
        let now = self.clock.now_ns();
        m.replica_heartbeat_age = st
            .seen
            .iter()
            .map(|s| s.map(|at| Duration::from_nanos(now.saturating_sub(at))))
            .collect();
        m
    }

    /// Stops admission and wakes everyone. Queued-but-unserved requests
    /// are dropped — their reply senders hang up, so waiting tickets
    /// report `InferError::EngineClosed`. Replicas finish the batch they
    /// already admitted, then exit.
    pub(crate) fn shutdown(&self) {
        let mut st = self.lock();
        st.shutdown = true;
        while st.queue.pop().is_some() {
            st.outstanding -= 1;
        }
        st.buckets.clear();
        // Queued stream commands are dropped too; only feeds hold a
        // backpressure slot (their reply senders hang up, so waiting
        // tickets report `InferError::EngineClosed`).
        let mut streams = std::mem::take(&mut st.streams);
        for q in &mut streams {
            while let Some(cmd) = q.pop_front() {
                if matches!(cmd, StreamCmd::Feed { .. }) {
                    st.outstanding -= 1;
                }
            }
        }
        st.streams = streams;
        self.wake_replicas();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::mpsc::{channel, Receiver, TryRecvError};
    use std::thread::JoinHandle;

    fn job_input() -> Tensor {
        Tensor::zeros(&[1])
    }

    /// A one-replica scheduler on a clock that moves only when the test
    /// advances it.
    fn sched_on(capacity: usize, fair: Option<FairPolicy>) -> (Arc<Scheduler>, Arc<ManualClock>) {
        let clock = ManualClock::new();
        (Scheduler::new(capacity, 1, fair, clock.clone()), clock)
    }

    fn sched(capacity: usize) -> Arc<Scheduler> {
        sched_on(capacity, None).0
    }

    fn fair_sched(capacity: usize, fair: FairPolicy) -> Arc<Scheduler> {
        sched_on(capacity, Some(fair)).0
    }

    impl Scheduler {
        /// Records `batch` served, as a replica does after its forward (no
        /// density report, no answers).
        fn record_batch(&self, batch: &[Job]) {
            // No logits: each job is counted served and answered nothing.
            self.record_served(
                batch,
                Vec::new(),
                SpikeDensityReport { per_layer: Vec::new(), mean: None },
            );
        }
    }

    /// Replica 0 on its own thread: every batch it closes arrives on the
    /// channel, and it exits when the scheduler shuts down. Once the test's
    /// `ManualClock::wait_parked(1)` returns, a batch the replica closed is
    /// already on the channel, and an empty channel means it holds its
    /// batch open.
    fn replica_thread(
        s: &Arc<Scheduler>,
        max_batch: usize,
        max_wait: Duration,
    ) -> (JoinHandle<()>, Receiver<Vec<Job>>) {
        let (tx, rx) = channel();
        let s = Arc::clone(s);
        let replica = std::thread::spawn(move || {
            while let Some(batch) = next_batch(&s, max_batch, max_wait) {
                tx.send(batch).unwrap();
            }
        });
        (replica, rx)
    }

    /// Batch-only pull for the pre-streaming tests (replica 0; panics on
    /// stream work, which these tests never enqueue).
    fn next_batch(s: &Scheduler, max_batch: usize, max_wait: Duration) -> Option<Vec<Job>> {
        match s.next_work(0, max_batch, max_wait) {
            Some(Work::Batch(b)) => Some(b),
            Some(Work::Stream(_)) => panic!("unexpected stream work"),
            None => None,
        }
    }

    #[test]
    fn pops_by_priority_then_deadline_then_fifo() {
        let s = sched(16);
        let mut rxs = Vec::new();
        let mut submit = |prio, deadline_ms: Option<u64>| {
            let (tx, rx) = channel();
            rxs.push(rx);
            let opts = SubmitOptions {
                priority: prio,
                deadline: deadline_ms.map(Duration::from_millis),
                ..SubmitOptions::default()
            };
            s.submit(job_input(), opts, tx).unwrap()
        };
        let _ = submit(Priority::Low, None); // seq 0
        let _ = submit(Priority::Normal, None); // seq 1
        let _ = submit(Priority::Normal, Some(60_000)); // seq 2: deadlined beats FIFO
        let _ = submit(Priority::Normal, Some(30_000)); // seq 3: earlier deadline
        let _ = submit(Priority::High, None); // seq 4: class beats everything
        let batch = next_batch(&s, 16, Duration::ZERO).unwrap();
        let order: Vec<u64> = batch.iter().map(|j| j.seq).collect();
        assert_eq!(order, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn try_submit_saturates_at_capacity() {
        let s = sched(2);
        let (tx, _rx1) = channel();
        s.try_submit(job_input(), SubmitOptions::default(), tx).unwrap();
        let (tx, _rx2) = channel();
        s.try_submit(job_input(), SubmitOptions::default(), tx).unwrap();
        let (tx, _rx3) = channel();
        assert!(matches!(
            s.try_submit(job_input(), SubmitOptions::default(), tx).unwrap_err(),
            SubmitError::Saturated(_)
        ));
        // Outstanding counts until terminal, not until popped: forming a
        // batch alone must not admit more work...
        let batch = next_batch(&s, 8, Duration::ZERO).unwrap();
        let (tx, _rx4) = channel();
        assert!(matches!(
            s.try_submit(job_input(), SubmitOptions::default(), tx).unwrap_err(),
            SubmitError::Saturated(_)
        ));
        // ...serving it does.
        s.record_batch(&batch);
        let (tx, _rx5) = channel();
        s.try_submit(job_input(), SubmitOptions::default(), tx).unwrap();
    }

    #[test]
    fn cancelled_jobs_are_reaped_not_returned() {
        let s = sched(8);
        let (tx, _rx) = channel();
        let cancel = s.submit(job_input(), SubmitOptions::default(), tx).unwrap();
        cancel.store(true, Ordering::SeqCst);
        let (tx, _rx2) = channel();
        let _ = s.submit(job_input(), SubmitOptions::default(), tx).unwrap();
        let batch = next_batch(&s, 8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 1, "cancelled job must not reach an executor");
        let m = s.metrics();
        assert_eq!(m.priority(Priority::Normal).cancelled, 1);
        assert_eq!(m.outstanding, 1, "reaping a cancelled job frees its slot");
    }

    #[test]
    fn expired_jobs_reply_deadline_expired() {
        // A deadline expires when the clock reaches it, not one tick before
        // or after; one the clock cannot represent (`Duration::MAX`) never
        // does.
        let (s, clock) = sched_on(8, None);
        let submit = |deadline: Duration| {
            let (tx, rx) = channel();
            let opts = SubmitOptions::default().with_deadline(deadline);
            let cancel = s.submit(job_input(), opts, tx).unwrap();
            (rx, cancel)
        };
        let tick = Duration::from_nanos(1);
        let (due, _c0) = submit(Duration::ZERO);
        let (_rx1, _c1) = submit(tick);
        let (_rx2, _c2) = submit(Duration::MAX);
        let batch = next_batch(&s, 8, Duration::ZERO).unwrap();
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(due.recv().unwrap(), Err(InferError::DeadlineExpired));
        assert_eq!(s.metrics().priority(Priority::Normal).expired, 1);
        s.record_batch(&batch);
        // One tick later the same deadline is due; five centuries later the
        // unrepresentable one still is not.
        let (due, _c3) = submit(tick);
        let (_rx4, _c4) = submit(Duration::MAX);
        clock.advance(tick);
        clock.advance(Duration::from_secs(500 * 365 * 86_400));
        let batch = next_batch(&s, 8, Duration::ZERO).unwrap();
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), vec![4]);
        assert_eq!(due.recv().unwrap(), Err(InferError::DeadlineExpired));
        assert_eq!(s.metrics().priority(Priority::Normal).expired, 2);
    }

    /// Pops jobs one at a time (batch size 1) until the queue is empty,
    /// recording each as served; returns `(priority, tenant)` in pop
    /// order.
    fn drain_order(s: &Scheduler) -> Vec<(Priority, TenantId)> {
        let mut order = Vec::new();
        loop {
            if s.metrics().queue_depth == 0 {
                break;
            }
            let batch = next_batch(s, 1, Duration::ZERO).unwrap();
            for j in &batch {
                order.push((j.priority, j.tenant));
            }
            s.record_batch(&batch);
        }
        order
    }

    #[test]
    fn fair_queue_shares_slots_across_priorities() {
        // 24 High + 3 Low backlogged under weights [8, 3, 1]: strict
        // priority would serve every High before any Low; the fair queue
        // must give Low ~1 slot in 9 (weights 8 vs 1).
        let s = fair_sched(64, FairPolicy::default());
        for _ in 0..24 {
            let (tx, rx) = channel();
            std::mem::forget(rx);
            s.submit(job_input(), SubmitOptions::priority(Priority::High), tx).unwrap();
        }
        for _ in 0..3 {
            let (tx, rx) = channel();
            std::mem::forget(rx);
            s.submit(job_input(), SubmitOptions::priority(Priority::Low), tx).unwrap();
        }
        let order = drain_order(&s);
        assert_eq!(order.len(), 27);
        // All three Lows must be served before the backlog of Highs runs
        // out — i.e. within the first 3 * 9 = 27 pops, with the last Low
        // no later than position 27 and the first no later than ~10.
        let low_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| *p == Priority::Low)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(low_positions.len(), 3);
        assert!(
            low_positions[0] <= 10,
            "first Low must be served within one weight round, got position {}",
            low_positions[0]
        );
        // And High still dominates: at every prefix, more Highs than Lows
        // have been served.
        let mut highs = 0;
        let mut lows = 0;
        for (p, _) in &order {
            match p {
                Priority::High => highs += 1,
                Priority::Low => lows += 1,
                Priority::Normal => {}
            }
            assert!(highs >= lows, "High must keep its weighted lead");
        }
    }

    #[test]
    fn fair_queue_shares_slots_across_tenants_by_weight() {
        // Tenant 1 (weight 3) and tenant 2 (weight 1), both backlogged at
        // the same priority: served counts must track the 3:1 ratio at
        // every prefix (±1 slot of SCFQ discretization).
        let policy = FairPolicy::default()
            .with_tenant(1, TenantPolicy::weighted(3.0))
            .with_tenant(2, TenantPolicy::weighted(1.0));
        let s = fair_sched(64, policy);
        for _ in 0..24 {
            let (tx, rx) = channel();
            std::mem::forget(rx);
            s.submit(job_input(), SubmitOptions::default().with_tenant(1), tx).unwrap();
            let (tx, rx) = channel();
            std::mem::forget(rx);
            s.submit(job_input(), SubmitOptions::default().with_tenant(2), tx).unwrap();
        }
        let order = drain_order(&s);
        let mut t1 = 0usize;
        let mut t2 = 0usize;
        for (i, (_, tenant)) in order.iter().enumerate() {
            match tenant {
                1 => t1 += 1,
                2 => t2 += 1,
                _ => panic!("unexpected tenant"),
            }
            if i >= 8 && t2 > 0 && t1 + t2 <= 32 {
                // While both are backlogged (first 32 pops cover 24+8),
                // the ratio stays near 3:1.
                let ratio = t1 as f64 / t2 as f64;
                assert!(
                    (2.0..=4.5).contains(&ratio),
                    "tenant ratio {ratio} strayed from 3:1 at pop {i} (t1={t1}, t2={t2})"
                );
            }
        }
        assert_eq!(t1 + t2, 48);
    }

    #[test]
    fn rate_limit_rejects_when_bucket_empty_and_refills() {
        // 50/s is one token per 20 ms; tenants 7 and 9 each get that limit.
        let limited = TenantPolicy::weighted(1.0).with_rate(RateLimit::new(50.0, 2.0));
        let policy = FairPolicy::default().with_tenant(7, limited).with_tenant(9, limited);
        let (s, clock) = sched_on(64, Some(policy));
        let submit = |tenant| {
            let (tx, rx) = channel();
            std::mem::forget(rx);
            s.submit(job_input(), SubmitOptions::default().with_tenant(tenant), tx).map(drop)
        };
        // Bursts of 2 admit; the third is told exactly when a token refills.
        for tenant in [7, 9, 7, 9] {
            submit(tenant).unwrap();
        }
        let info = match submit(7).unwrap_err() {
            SubmitError::RateLimited(info) => info,
            other => panic!("expected RateLimited, got {other:?}"),
        };
        assert_eq!(info.tenant, 7);
        assert_eq!(info.retry_after, Duration::from_millis(20));
        // Other tenants are unaffected.
        submit(8).unwrap();
        // One tick short of the retry-after a drained bucket still refuses;
        // at exactly the retry-after it admits (tenant 9's bucket has not
        // been touched since its burst).
        clock.advance(info.retry_after - Duration::from_nanos(1));
        assert!(matches!(submit(7), Err(SubmitError::RateLimited(_))));
        clock.advance(Duration::from_nanos(1));
        submit(9).unwrap();
        let m = s.metrics();
        assert_eq!((m.tenant(7).submitted, m.tenant(7).rejected_rate_limited), (2, 2));
        assert_eq!((m.tenant(9).submitted, m.tenant(9).rejected_rate_limited), (3, 0));
        assert_eq!(m.tenant(8).submitted, 1);
    }

    #[test]
    fn saturated_rejection_carries_context() {
        let s = sched(1);
        let (tx, _rx1) = channel();
        s.try_submit(job_input(), SubmitOptions::default(), tx).unwrap();
        let (tx, _rx2) = channel();
        let err = s
            .try_submit(job_input(), SubmitOptions::priority(Priority::Low).with_tenant(9), tx)
            .unwrap_err();
        let info = err.reject_info().expect("saturation carries context");
        assert_eq!((info.tenant, info.priority), (9, Priority::Low));
        assert!(info.retry_after > Duration::ZERO);
        assert_eq!(s.metrics().tenant(9).rejected_saturated, 1);
    }

    #[test]
    fn fair_policy_validation() {
        let policy = FairPolicy::default()
            .with_tenant(1, TenantPolicy::weighted(4.0))
            .with_tenant(2, TenantPolicy::weighted(1.0).with_rate(RateLimit::new(100.0, 200.0)));
        assert!(policy.validate().is_ok());
        assert!(FairPolicy::default()
            .with_tenant(1, TenantPolicy::weighted(0.0))
            .validate()
            .is_err());
        assert!(FairPolicy::default()
            .with_tenant(1, TenantPolicy::weighted(1.0).with_rate(RateLimit::new(10.0, 0.5)))
            .validate()
            .is_err());
        assert!(FairPolicy::default().with_priority_weights([1.0, 0.0, 1.0]).validate().is_err());
    }

    #[test]
    fn replica_heartbeats_surface_in_metrics() {
        let (s, clock) = sched_on(8, None);
        // Before any pull: no heartbeat recorded.
        assert_eq!(s.metrics().replica_heartbeat_age, vec![None]);
        // A replica waiting for work refreshes its heartbeat every time it
        // wakes (here, on each advance of the clock): waiting is not being
        // wedged.
        let (replica, _batches) = replica_thread(&s, 1, Duration::ZERO);
        clock.wait_parked(1);
        clock.advance(Duration::from_millis(3));
        clock.wait_parked(1);
        assert_eq!(s.metrics().replica_heartbeat_age, vec![Some(Duration::ZERO)]);
        // Once it stops looking, its heartbeat ages with the clock, to the
        // nanosecond.
        s.shutdown();
        replica.join().unwrap();
        clock.advance(Duration::from_nanos(7_000_001));
        assert_eq!(s.metrics().replica_heartbeat_age, vec![Some(Duration::from_nanos(7_000_001))]);
    }

    #[test]
    fn replica_arena_bytes_ride_the_heartbeat() {
        let s = sched(8);
        assert_eq!(s.metrics().replica_arena_bytes, vec![0]);
        // The pulling thread plays replica 0: whatever its arena holds at
        // the pull is what the gauge reports.
        Tensor::zeros(&[1000]).recycle();
        let parked = runtime::scratch_bytes();
        assert!(parked >= 4000);
        let (tx, rx) = channel();
        std::mem::forget(rx);
        s.submit(job_input(), SubmitOptions::default(), tx).unwrap();
        let _ = next_batch(&s, 1, Duration::ZERO).unwrap();
        assert_eq!(s.metrics().replica_arena_bytes, vec![parked]);
    }

    #[test]
    fn shutdown_drains_queue_and_wakes_workers() {
        // A request admitted while no replica looks is dropped at shutdown:
        // its ticket sees a hang-up.
        let s = sched(8);
        let (tx, rx) = channel();
        let _c = s.submit(job_input(), SubmitOptions::default(), tx).unwrap();
        s.shutdown();
        assert!(rx.recv().is_err(), "drained job must hang up its ticket");
        assert_eq!(s.metrics().outstanding, 0);
        let (tx, _rx2) = channel();
        assert_eq!(
            s.submit(job_input(), SubmitOptions::default(), tx).unwrap_err(),
            SubmitError::Closed
        );

        // A parked replica is woken by an admission, opens a batch on it and
        // parks on the 60 s window; shutdown wakes it again, and the batch it
        // had admitted is still handed out before it exits.
        let (s, clock) = sched_on(8, None);
        let (replica, batches) = replica_thread(&s, 8, Duration::from_secs(60));
        clock.wait_parked(1);
        let (tx, _rx) = channel();
        let _c = s.submit(job_input(), SubmitOptions::default(), tx).unwrap();
        clock.wait_parked(1);
        assert_eq!(s.metrics().queue_depth, 0, "the admission did not wake the parked replica");
        assert!(matches!(batches.try_recv(), Err(TryRecvError::Empty)));
        s.shutdown();
        replica.join().unwrap();
        let batch = batches.recv().unwrap();
        assert_eq!(batch.len(), 1);
        s.record_batch(&batch);
        let m = s.metrics();
        assert_eq!(m.closed(CloseReason::Shutdown), 1);
        assert_eq!(m.outstanding, 0);
    }

    #[test]
    fn batch_close_has_one_row_per_reason() {
        use BatchClose::{Close, Wait};
        use CloseReason::*;
        // (batch_len, max_batch, queue_empty, outstanding, expected, now,
        // close_at, stream_pending, shutdown) on an integer clock.
        let decide = batch_close::<u64>;
        let at = Some(10);
        // Full wins over everything; shutdown and a stream command close
        // a batch that still has queued company.
        assert_eq!(decide(4, 4, false, 9, None, 0, at, true, true), Close(Full));
        assert_eq!(decide(1, 4, false, 9, None, 0, at, true, true), Close(Shutdown));
        assert_eq!(decide(1, 4, false, 9, None, 0, at, true, false), Close(Stream));
        // A non-empty queue is taken from, window or no window.
        assert_eq!(decide(1, 4, false, 9, Some(1), 99, at, false, false), Wait(Some(99)));
        // Everyone expected is here: close without the window...
        assert_eq!(decide(2, 4, true, 2, Some(2), 0, at, false, false), Close(Accounted));
        assert_eq!(decide(1, 4, true, 3, Some(2), 0, None, false, false), Close(Accounted));
        // ...someone is missing: wait for them, at most until the window.
        assert_eq!(decide(1, 4, true, 1, Some(2), 0, at, false, false), Wait(at));
        assert_eq!(decide(1, 4, true, 1, Some(2), 10, at, false, false), Close(Window));
        // Population unknown: the window alone, as before the rule.
        assert_eq!(decide(1, 4, true, 1, None, 9, at, false, false), Wait(at));
        assert_eq!(decide(1, 4, true, 1, None, 10, at, false, false), Close(Window));
        // No window (`Duration::MAX`): hold until full or accounted.
        assert_eq!(decide(1, 4, true, 1, None, 10, None, false, false), Wait(None));
        assert_eq!(decide(1, 4, true, 1, Some(2), 10, None, false, false), Wait(None));
    }

    #[test]
    fn expected_follows_admission_peaks_over_two_cycles() {
        // One scripted caller population: 1, 1, 2, 1, 1 callers per cycle.
        // A batch closes by the window at exactly `max_wait` after it
        // opened, not one tick before, or at once when everyone expected
        // is in.
        let max_wait = Duration::from_millis(20);
        let tick = Duration::from_nanos(1);
        let (s, clock) = sched_on(8, None);
        let (replica, batches) = replica_thread(&s, 8, max_wait);
        let peaks = |s: &Scheduler| {
            let st = s.lock();
            (st.peak, st.prev_peak)
        };
        // Admits one request and returns the batch the replica closes on
        // it, having checked that it closed exactly `waited` later.
        let next = |waited: Duration| {
            let opened = clock.now_ns();
            let (tx, rx) = channel();
            std::mem::forget(rx);
            s.submit(job_input(), SubmitOptions::default(), tx).unwrap();
            clock.wait_parked(1);
            if waited > Duration::ZERO {
                assert!(matches!(batches.try_recv(), Err(TryRecvError::Empty)), "closed early");
                clock.advance(waited - tick);
                clock.wait_parked(1);
                assert!(matches!(batches.try_recv(), Err(TryRecvError::Empty)), "closed early");
                clock.advance(tick);
                clock.wait_parked(1);
            }
            let batch = batches.try_recv().expect("the batch is still open");
            assert_eq!(batch.len(), 1);
            assert_eq!(Duration::from_nanos(clock.now_ns() - opened), waited);
            batch
        };
        // Batches closed so far by the window and by accounting.
        let closed = |s: &Scheduler| {
            let m = s.metrics();
            (m.closed(CloseReason::Window), m.closed(CloseReason::Accounted))
        };
        assert_eq!(peaks(&s), (0, None), "nothing known before the first close");

        // Cold: the first batch of a scheduler's life waits its window.
        s.record_batch(&next(max_wait));
        assert_eq!((peaks(&s), closed(&s)), ((0, Some(1)), (1, 0)));
        // One caller, known: closes at once.
        s.record_batch(&next(Duration::ZERO));
        assert_eq!(closed(&s), (1, 1));
        // The population grows to two: the second caller's request arrives
        // while the first one's batch executes, and is accounted at once.
        let first = next(Duration::ZERO);
        let second = next(Duration::ZERO);
        assert_eq!((peaks(&s), closed(&s)), ((0, Some(2)), (1, 3)));
        s.record_batch(&first);
        s.record_batch(&second);
        // It shrinks to one: the second caller is waited for, once...
        s.record_batch(&next(max_wait));
        assert_eq!((peaks(&s), closed(&s)), ((0, Some(1)), (2, 3)));
        // ...and is forgotten one cycle later.
        s.record_batch(&next(Duration::ZERO));
        assert_eq!(closed(&s), (2, 4));
        let m = s.metrics();
        assert_eq!(m.batches_closed.iter().sum::<u64>(), m.batches_executed);
        s.shutdown();
        replica.join().unwrap();
    }
}
