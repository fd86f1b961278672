//! Live observability for the serving cluster: counters and fixed-bucket
//! histograms, snapshot on demand.
//!
//! The cluster records everything inside the scheduler's existing mutex
//! (every counted event — submit, cancel, expiry, batch completion —
//! already holds it), so metrics cost no extra synchronization on the hot
//! path and need no external crates. [`crate::Cluster::metrics`] clones a
//! consistent [`ClusterMetrics`] snapshot; nothing is sampled or averaged
//! away — histograms ([`ttsnn_obs::Histogram`]) keep full fixed-edge
//! bucket counts so p50/p99 can be read off at any time.

use std::collections::BTreeMap;
use std::time::Duration;

use ttsnn_obs::Histogram;

use crate::sched::{Priority, TenantId};

/// Upper bucket edges (in **seconds**) of the request latency histogram:
/// 100 µs to 10 s, roughly 2.5× apart, plus an implicit overflow bucket.
/// Fixed edges keep snapshots comparable across runs and replica counts.
pub const LATENCY_EDGES_SECS: [f64; 12] =
    [0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 0.5, 2.0, 10.0];

/// Upper bucket edges of the executed-batch-size histogram (requests per
/// forward pass), plus an implicit overflow bucket.
pub const BATCH_SIZE_EDGES: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Upper bound on individually tracked tenants in
/// [`ClusterMetrics::tenants`]. Tenant ids arrive from the network
/// (attacker-controlled `u32`s, and even rejected requests are counted),
/// so per-tenant series must not grow without bound: once this many
/// distinct tenants are tracked, events for *new* tenants fold into
/// [`ClusterMetrics::tenant_overflow`] instead of creating entries.
pub const MAX_TRACKED_TENANTS: usize = 256;

/// Why a batch stopped collecting co-travellers and went to an executor —
/// the answer of `sched::batch_close`, counted per reason in
/// [`ClusterMetrics::batches_closed`] and carried by the `batch_form`
/// trace span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The batch holds `max_batch` requests.
    Full,
    /// Every requester the scheduler has reason to expect already has its
    /// request in this batch or executing on another replica.
    Accounted,
    /// `max_wait` ran out with somebody expected still missing (or, on a
    /// scheduler that has not closed a batch yet, with nothing known).
    Window,
    /// A stream command arrived for the forming replica.
    Stream,
    /// The cluster shut down; the batch already admitted still runs.
    Shutdown,
}

impl CloseReason {
    /// Number of reasons (array dimension of
    /// [`ClusterMetrics::batches_closed`]).
    pub const COUNT: usize = 5;

    /// Every reason, in [`CloseReason::index`] order.
    pub const ALL: [CloseReason; CloseReason::COUNT] = [
        CloseReason::Full,
        CloseReason::Accounted,
        CloseReason::Window,
        CloseReason::Stream,
        CloseReason::Shutdown,
    ];

    /// Stable index of this reason, e.g. into
    /// [`ClusterMetrics::batches_closed`] — also the `batch_form` span's
    /// second payload.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label (`full`, `accounted`, `window`, `stream`,
    /// `shutdown`): the `reason` Prometheus label value, and what a
    /// `batch_form` span renders its payload as.
    pub fn name(self) -> &'static str {
        ttsnn_obs::close_reason(self.index() as u64)
    }
}

/// Lifecycle counters for one priority class. Every submitted request ends
/// in exactly one of the four terminal states, so after a drain
/// `submitted == served + cancelled + expired + failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityStats {
    /// Requests admitted into the queue (rejected `try_submit`s are not
    /// submissions).
    pub submitted: u64,
    /// Requests whose logits were computed and delivered.
    pub served: u64,
    /// Requests whose [`crate::ClusterTicket`] was dropped while they were
    /// still queued — skipped before consuming any executor time.
    pub cancelled: u64,
    /// Requests whose deadline passed while still queued — dropped with
    /// [`crate::InferError::DeadlineExpired`], never executed.
    pub expired: u64,
    /// Requests rejected by plan shape validation (failed their own
    /// ticket, not their batch).
    pub failed: u64,
}

/// Lifecycle counters for one tenant — the accounting behind per-tenant
/// fair queueing and rate limiting (see `ttsnn_infer::sched::FairPolicy`).
/// Unlike [`PriorityStats`], rejected admissions are counted here too:
/// rejections are exactly what an overloaded tenant's operator needs to
/// see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests whose logits were computed and delivered.
    pub served: u64,
    /// Requests cancelled while queued (ticket dropped).
    pub cancelled: u64,
    /// Requests whose deadline passed while queued.
    pub expired: u64,
    /// Requests rejected by plan shape validation.
    pub failed: u64,
    /// `try_submit` rejections while the queue was at capacity
    /// (never admitted — not part of `submitted`).
    pub rejected_saturated: u64,
    /// Submissions rejected by the tenant's token-bucket rate limit
    /// (never admitted — not part of `submitted`).
    pub rejected_rate_limited: u64,
}

impl TenantStats {
    /// All rejections at admission (saturation + rate limiting).
    pub fn rejected(&self) -> u64 {
        self.rejected_saturated + self.rejected_rate_limited
    }
}

/// Lifecycle and cost counters for **streaming sessions** (see
/// `ClusterSession::open_stream`). Sessions pin LIF membrane state to a
/// replica between chunks; these counters make that resident state — and
/// what early exit saves — observable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed by their handle (dropping a
    /// `ClusterStreamSession`).
    pub closed: u64,
    /// Sessions whose resident state was evicted under the
    /// `stream_state_bytes` bound — their later feeds fail with
    /// [`crate::InferError::SessionEvicted`].
    pub evicted: u64,
    /// Chunks admitted into the queue (each counts toward the cluster's
    /// `outstanding` backpressure bound while queued).
    pub chunks_submitted: u64,
    /// Chunks whose update was computed and delivered.
    pub chunks_served: u64,
    /// Chunks whose deadline passed while still queued — dropped with
    /// [`crate::InferError::DeadlineExpired`]; the session itself is
    /// untouched and may be fed again.
    pub chunks_expired: u64,
    /// Chunks rejected (malformed, overrunning the plan's timesteps, or
    /// fed to a closed/evicted session).
    pub chunks_failed: u64,
    /// Timesteps actually executed across all sessions.
    pub timesteps_executed: u64,
    /// Timesteps skipped by early exit across all sessions.
    pub timesteps_skipped: u64,
    /// MACs spent on executed stream timesteps.
    pub macs_executed: u64,
    /// MACs avoided by early exit (what the skipped timesteps would have
    /// cost).
    pub macs_skipped: u64,
    /// Live sessions per replica (index = replica).
    pub active: Vec<usize>,
    /// Resident membrane-state bytes per replica (index = replica).
    pub resident_state_bytes: Vec<usize>,
}

impl SessionMetrics {
    pub(crate) fn new(replicas: usize) -> Self {
        Self {
            active: vec![0; replicas],
            resident_state_bytes: vec![0; replicas],
            ..Self::default()
        }
    }

    /// Live sessions across all replicas.
    pub fn active_total(&self) -> usize {
        self.active.iter().sum()
    }

    /// Resident membrane-state bytes across all replicas.
    pub fn resident_bytes_total(&self) -> usize {
        self.resident_state_bytes.iter().sum()
    }
}

/// A consistent point-in-time snapshot of cluster activity — queue state,
/// per-priority lifecycle counters, and batch-size / latency histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Requests currently waiting in the scheduler queue (including
    /// cancelled entries not yet reaped).
    pub queue_depth: usize,
    /// Requests admitted but not yet finished (queued + in an open or
    /// executing batch) — what the bounded queue's backpressure counts.
    pub outstanding: usize,
    /// Executor replicas serving the plan.
    pub replicas: usize,
    /// Forward passes executed across all replicas.
    pub batches_executed: u64,
    /// Batches formed, by why they closed — indexed by
    /// [`CloseReason::index`] (see [`ClusterMetrics::closed`]). Counts
    /// batches handed to an executor, so it can run ahead of
    /// `batches_executed` by the batches in flight (and by batches whose
    /// every member failed validation).
    pub batches_closed: [u64; CloseReason::COUNT],
    /// Lifecycle counters, indexed by [`Priority`] (see
    /// [`ClusterMetrics::priority`]).
    pub per_priority: [PriorityStats; Priority::COUNT],
    /// Requests per executed forward pass (fixed edges:
    /// [`BATCH_SIZE_EDGES`]).
    pub batch_sizes: Histogram,
    /// Submit→reply latency in seconds of served requests (fixed edges:
    /// [`LATENCY_EDGES_SECS`]).
    pub latency: Histogram,
    /// Measured per-LIF-layer spike density (spikes per neuron per
    /// timestep, network order) as last reported by the replica that most
    /// recently completed a batch — cumulative over that replica's own
    /// traffic since load. Empty before any batch executed. This is the
    /// sparsity statistic the density-adaptive dispatcher keys on.
    pub spike_density: Vec<f64>,
    /// Spike density pooled over all layers of the same replica
    /// (weighted by neuron-steps), `None` before any batch executed.
    pub mean_spike_density: Option<f64>,
    /// Streaming-session lifecycle, early-exit savings, and resident
    /// state accounting.
    pub sessions: SessionMetrics,
    /// Per-tenant lifecycle counters, keyed by tenant id. A tenant
    /// appears after its first submission (or rejection), up to
    /// [`MAX_TRACKED_TENANTS`] distinct tenants.
    pub tenants: BTreeMap<TenantId, TenantStats>,
    /// Aggregated counters of every tenant beyond the
    /// [`MAX_TRACKED_TENANTS`] cardinality cap (all zeros while under
    /// the cap) — rendered as tenant `"other"` on `/metrics`.
    pub tenant_overflow: TenantStats,
    /// Per-replica age of the last scheduler-loop heartbeat at snapshot
    /// time (index = replica; `None` before the replica's first pull).
    /// The telemetry watchdog's liveness signal: a replica wedged inside
    /// a forward pass — or deadlocked — stops refreshing its slot.
    pub replica_heartbeat_age: Vec<Option<Duration>>,
    /// Per-replica bytes parked in the replica thread's scratch arena
    /// (`ttsnn_tensor::runtime::scratch_bytes`) as of its last
    /// scheduler-loop heartbeat: what the replica holds between requests.
    /// Flat under steady traffic and never above the arena's 64 MiB
    /// budget; a climbing value means some caller recycles buffers it
    /// never takes.
    pub replica_arena_bytes: Vec<usize>,
}

impl ClusterMetrics {
    pub(crate) fn new(replicas: usize) -> Self {
        Self {
            queue_depth: 0,
            outstanding: 0,
            replicas,
            batches_executed: 0,
            batches_closed: [0; CloseReason::COUNT],
            per_priority: [PriorityStats::default(); Priority::COUNT],
            batch_sizes: Histogram::new(&BATCH_SIZE_EDGES),
            latency: Histogram::new(&LATENCY_EDGES_SECS),
            spike_density: Vec::new(),
            mean_spike_density: None,
            sessions: SessionMetrics::new(replicas),
            tenants: BTreeMap::new(),
            tenant_overflow: TenantStats::default(),
            replica_heartbeat_age: vec![None; replicas],
            replica_arena_bytes: vec![0; replicas],
        }
    }

    /// The lifecycle counters of one priority class.
    pub fn priority(&self, p: Priority) -> &PriorityStats {
        &self.per_priority[p.index()]
    }

    pub(crate) fn priority_mut(&mut self, p: Priority) -> &mut PriorityStats {
        &mut self.per_priority[p.index()]
    }

    /// How many batches closed for `reason`.
    pub fn closed(&self, reason: CloseReason) -> u64 {
        self.batches_closed[reason.index()]
    }

    /// The lifecycle counters of one tenant (zeros if it never
    /// submitted, or if its events landed in
    /// [`ClusterMetrics::tenant_overflow`] past the cardinality cap).
    pub fn tenant(&self, t: TenantId) -> TenantStats {
        self.tenants.get(&t).copied().unwrap_or_default()
    }

    /// The tenant's counters, creating its entry on first sight — unless
    /// the map already tracks [`MAX_TRACKED_TENANTS`] tenants, in which
    /// case an unseen tenant's events aggregate into
    /// [`ClusterMetrics::tenant_overflow`]. Tenant ids come off the wire,
    /// so an id-cycling client must not grow scheduler state, snapshot
    /// clones, or the `/metrics` page without bound.
    pub(crate) fn tenant_mut(&mut self, t: TenantId) -> &mut TenantStats {
        if self.tenants.len() >= MAX_TRACKED_TENANTS && !self.tenants.contains_key(&t) {
            return &mut self.tenant_overflow;
        }
        self.tenants.entry(t).or_default()
    }

    /// Lifecycle counters summed over all priority classes.
    pub fn totals(&self) -> PriorityStats {
        let mut t = PriorityStats::default();
        for s in &self.per_priority {
            t.submitted += s.submitted;
            t.served += s.served;
            t.cancelled += s.cancelled;
            t.expired += s.expired;
            t.failed += s.failed;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_cardinality_is_capped() {
        let mut m = ClusterMetrics::new(1);
        for t in 0..(MAX_TRACKED_TENANTS as u32 + 100) {
            m.tenant_mut(t).rejected_saturated += 1;
        }
        assert_eq!(m.tenants.len(), MAX_TRACKED_TENANTS);
        assert_eq!(m.tenant_overflow.rejected_saturated, 100);
        // Tracked tenants keep their own counters; overflow tenants read
        // as zeros individually.
        assert_eq!(m.tenant(0).rejected_saturated, 1);
        assert_eq!(m.tenant(MAX_TRACKED_TENANTS as u32 + 1).rejected_saturated, 0);
        // An already-tracked tenant still updates in place past the cap.
        m.tenant_mut(0).served += 1;
        assert_eq!(m.tenant(0).served, 1);
        assert_eq!(m.tenants.len(), MAX_TRACKED_TENANTS);
    }

    #[test]
    fn close_reasons_index_their_labels() {
        let names: Vec<&str> = CloseReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names, ["full", "accounted", "window", "stream", "shutdown"]);
        for (i, r) in CloseReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        let mut m = ClusterMetrics::new(1);
        m.batches_closed[CloseReason::Window.index()] = 2;
        assert_eq!((m.closed(CloseReason::Window), m.closed(CloseReason::Full)), (2, 0));
    }

    #[test]
    fn totals_sum_priorities() {
        let mut m = ClusterMetrics::new(2);
        m.priority_mut(Priority::High).served = 3;
        m.priority_mut(Priority::Low).served = 4;
        m.priority_mut(Priority::Normal).cancelled = 1;
        let t = m.totals();
        assert_eq!((t.served, t.cancelled), (7, 1));
        assert_eq!(m.priority(Priority::High).served, 3);
    }
}
