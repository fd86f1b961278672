//! # ttsnn-obs
//!
//! Lock-light request-lifecycle tracing for the serving plane: the
//! measurement substrate under `GET /trace?id=` and the per-stage
//! latency families on `/metrics`.
//!
//! ## Model
//!
//! Every served request carries a **trace id** (a nonzero `u64`, minted
//! by [`next_trace_id`] at wire decode). Each layer of the stack marks
//! the [`Stage`] it owns — `admit`, `queue_wait`, `batch_form`, `execute`
//! (with a `forward` child per call into the model: one for a
//! whole-sequence batch, one per timestep for a stream that may exit
//! early), `serialize`, `write` — with one [`record_stage_span`] call,
//! which records the span and the stage's latency histogram together, and
//! kernel regions under `execute`
//! appear automatically through the [`region`] guard plus the
//! [`TraceContext`] the executing replica installs for the batch.
//!
//! ## Design
//!
//! - **Per-thread ring buffers.** Events land in a fixed-capacity ring
//!   ([`RING_CAPACITY`] events) that the recording
//!   thread leases for its lifetime; every ring is listed once in a
//!   global registry. The hot path is one uncontended mutex lock and one
//!   `Event` copy — no allocation, no shared cache line. Readers
//!   ([`trace_events`]) pay the scan cost at debug-endpoint time instead.
//!   A ring outlives its thread: an exiting thread hands its ring back,
//!   the next new thread records into it, and until then (and until
//!   overwritten) the finished thread's events stay readable — so the
//!   rings a process holds track the threads it runs at once, not the
//!   threads it ever ran ([`ring_count`]).
//! - **One histogram, one quantile rule.** [`Histogram`] is the
//!   workspace's fixed-edge histogram (the cluster's latency and
//!   batch-size metrics, the six stage latencies behind one mutex), and
//!   its quantile is the nearest-rank rule `ceil(q·n)` clamped to `1..=n`.
//! - **Monotonic timestamps.** All times are nanoseconds since a
//!   process-global epoch ([`now_ns`]), so spans from different threads
//!   order correctly.
//! - **Cheap when off.** `TTSNN_TRACE=off` (or `0`/`false`) turns every
//!   record call into an atomic load and an early return; the
//!   [`region`] guard additionally requires a nonempty thread-local
//!   trace context before it even reads the clock, so untraced work
//!   (training, benches) never pays for instrumentation.
//! - **Bounded everything.** Event rings overwrite their oldest entry;
//!   the flight recorder keeps the last [`RECENT_COMPLETIONS`]
//!   completions and at most [`SLOW_EXEMPLARS`] SLO-violating slow
//!   traces (threshold [`SLOW_THRESHOLD_MS`]). A rejected
//!   or abandoned request can therefore never leak a slot.
//!
//! ## Telemetry plane
//!
//! On top of per-request tracing, the crate carries the service-level
//! building blocks the serving plane's continuous telemetry sampler is
//! built from: [`timeseries`] (bounded history rings with reset-aware
//! counter increases), [`slo`] (multi-window burn-rate objectives),
//! and [`watchdog`] (the per-plan health state machine). They are pure
//! data structures — the sampler thread that feeds them lives in
//! `ttsnn_serve::telemetry`, which also owns the `/debug/slo` and
//! `/debug/timeline` views. Their alerts land in the flight recorder's
//! bounded service-event ring ([`record_service_event`]).
//!
//! The crate is std-only and dependency-free so the lowest layer
//! (`ttsnn_tensor`'s kernel runtime) can hook into it.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod render;
pub mod slo;
pub mod timeseries;
pub mod watchdog;

pub use render::{chrome_trace_json, close_reason, debug_requests_text, sparkline};

// ---------------------------------------------------------------------------
// Clock, gate, ids
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-global trace epoch (the first call).
/// Monotonic across threads, so spans recorded by different threads
/// order and nest correctly.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const MODE_UNSET: u8 = 0;
const MODE_ON: u8 = 1;
const MODE_OFF: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Whether tracing is on. Resolved once from `TTSNN_TRACE` (default on;
/// `off`, `0`, `false`, case-insensitive, disable) and overridable at
/// runtime with [`set_enabled`]. One relaxed atomic load on the hot
/// path.
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_ON => true,
        MODE_OFF => false,
        _ => {
            let off = std::env::var("TTSNN_TRACE").is_ok_and(|v| {
                matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "false")
            });
            MODE.store(if off { MODE_OFF } else { MODE_ON }, Ordering::Relaxed);
            !off
        }
    }
}

/// Overrides the `TTSNN_TRACE` gate at runtime (used by the
/// `obs_overhead` bench to measure both modes in one process, and by
/// tests). Takes effect immediately on all threads.
pub fn set_enabled(on: bool) {
    MODE.store(if on { MODE_ON } else { MODE_OFF }, Ordering::Relaxed);
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique, nonzero trace id. Trace id `0` universally
/// means "untraced" and is never returned.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// Per-thread event-ring capacity, in events.
pub const RING_CAPACITY: usize = 4096;

/// Slow-exemplar threshold in milliseconds. A completed request at least
/// this slow end-to-end is assembled eagerly and pinned in the flight
/// recorder's slow reservoir.
pub const SLOW_THRESHOLD_MS: u64 = 250;

// ---------------------------------------------------------------------------
// Events and per-thread rings
// ---------------------------------------------------------------------------

/// Shape of one trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: `start_ns` .. `start_ns + dur_ns`.
    Span,
    /// A point event at `start_ns` (`dur_ns` is 0).
    Instant,
}

/// One recorded trace entry — `Copy`, fixed-size, allocation-free. The
/// `a`/`b` payloads are span-specific (timesteps run, MAC count,
/// `f64::to_bits` spike density, rejection reason…); the Chrome-trace
/// renderer names them per span.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The request's trace id (nonzero).
    pub trace: u64,
    /// Span name (`queue_wait`, `execute`, `forward`, `gemm`, …).
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Start time, ns since the trace epoch.
    pub start_ns: u64,
    /// Duration in ns (0 for instants).
    pub dur_ns: u64,
    /// First span-specific payload.
    pub a: u64,
    /// Second span-specific payload.
    pub b: u64,
}

/// A fixed-capacity overwrite-oldest event buffer.
struct Ring {
    buf: Vec<Event>,
    head: usize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring { buf: Vec::with_capacity(capacity), head: 0 }
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
        }
        self.head = (self.head + 1) % self.buf.capacity().max(1);
    }
}

/// Every ring ever allocated, for reader-side scans (`all`), and the ones
/// whose thread has exited, waiting for the next new thread (`free`).
struct Rings {
    all: Vec<Arc<Mutex<Ring>>>,
    free: Vec<Arc<Mutex<Ring>>>,
}

static REGISTRY: Mutex<Rings> = Mutex::new(Rings { all: Vec::new(), free: Vec::new() });

fn registry() -> std::sync::MutexGuard<'static, Rings> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// A thread's hold on its ring: taken at its first event, returned to the
/// free list — events and all — when the thread exits.
struct Lease(Arc<Mutex<Ring>>);

impl Lease {
    fn take() -> Lease {
        let mut rings = registry();
        let ring = rings.free.pop().unwrap_or_else(|| {
            let ring = Arc::new(Mutex::new(Ring::new(RING_CAPACITY)));
            rings.all.push(Arc::clone(&ring));
            ring
        });
        Lease(ring)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        registry().free.push(Arc::clone(&self.0));
    }
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Lease>> = const { RefCell::new(None) };
}

fn push_event(e: Event) {
    LOCAL_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let lease = slot.get_or_insert_with(Lease::take);
        lease.0.lock().unwrap_or_else(|p| p.into_inner()).push(e);
    });
}

/// Event rings this process holds, leased and free: at most the number of
/// threads that were recording at the same time.
pub fn ring_count() -> usize {
    registry().all.len()
}

/// Records a completed span for `trace`. No-op when tracing is off or
/// `trace` is 0, so call sites can record unconditionally.
pub fn record_span(trace: u64, name: &'static str, start_ns: u64, dur_ns: u64, a: u64, b: u64) {
    if trace == 0 || !enabled() {
        return;
    }
    push_event(Event { trace, name, kind: EventKind::Span, start_ns, dur_ns, a, b });
}

/// Records a point event for `trace`. No-op when tracing is off or
/// `trace` is 0.
pub fn record_instant(trace: u64, name: &'static str, at_ns: u64, a: u64, b: u64) {
    if trace == 0 || !enabled() {
        return;
    }
    push_event(Event { trace, name, kind: EventKind::Instant, start_ns: at_ns, dur_ns: 0, a, b });
}

/// All events recorded for `trace`, sorted by start time. Scans every
/// ring, a finished thread's included; if the ring entries were already
/// overwritten but the request was pinned as a slow exemplar, the pinned
/// copy is returned instead (whichever set is larger wins).
pub fn trace_events(trace: u64) -> Vec<Event> {
    let mut out = Vec::new();
    if trace != 0 {
        let rings = registry();
        for ring in rings.all.iter() {
            let ring = ring.lock().unwrap_or_else(|p| p.into_inner());
            out.extend(ring.buf.iter().filter(|e| e.trace == trace).copied());
        }
        drop(rings);
        let pinned = slow_exemplar_events(trace);
        if pinned.len() > out.len() {
            out = pinned;
        }
    }
    out.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    out
}

// ---------------------------------------------------------------------------
// Thread-local trace context + kernel region guards
// ---------------------------------------------------------------------------

thread_local! {
    static CONTEXT: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Installs the executing batch's trace ids as this thread's trace
/// context for the guard's lifetime: every [`region`] entered on the
/// thread while the context is live emits one span per context trace.
/// Contexts nest (an inner `enter` extends the set and restores it on
/// drop). Zero trace ids are skipped; entering with none is free.
pub struct TraceContext {
    prev_len: usize,
}

impl TraceContext {
    /// Enters a context covering `traces` (zeros filtered out).
    pub fn enter(traces: &[u64]) -> TraceContext {
        CONTEXT.with(|c| {
            let mut v = c.borrow_mut();
            let prev_len = v.len();
            if enabled() {
                v.extend(traces.iter().copied().filter(|&t| t != 0));
            }
            TraceContext { prev_len }
        })
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.borrow_mut().truncate(self.prev_len));
    }
}

/// A kernel-region span guard: times from construction to drop and, at
/// drop, records one `name` span per trace in the thread's
/// [`TraceContext`]. When tracing is off or no context is installed the
/// guard is inert — it never even reads the clock — so kernels can hook
/// unconditionally.
pub struct Region {
    name: &'static str,
    start_ns: u64,
    active: bool,
    payload: (u64, u64),
}

/// Opens a kernel-region guard (see [`Region`]).
pub fn region(name: &'static str) -> Region {
    region_with(name, 0, 0)
}

/// [`region`] for a span that carries the `a` / `b` payload of
/// [`record_span`] — the executor's `forward` span (steps, MACs).
pub fn region_with(name: &'static str, a: u64, b: u64) -> Region {
    let active = CONTEXT.with(|c| !c.borrow().is_empty()) && enabled();
    Region { name, start_ns: if active { now_ns() } else { 0 }, active, payload: (a, b) }
}

impl Drop for Region {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        CONTEXT.with(|c| {
            for &trace in c.borrow().iter() {
                push_event(Event {
                    trace,
                    name: self.name,
                    kind: EventKind::Span,
                    start_ns: self.start_ns,
                    dur_ns,
                    a: self.payload.0,
                    b: self.payload.1,
                });
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Histograms and quantiles
// ---------------------------------------------------------------------------

/// The nearest-rank position of the `q`-quantile among `n` ordered values:
/// `ceil(q·n)` clamped to `1..=n`, `q` clamped to `[0, 1]`; `None` when
/// `n` is 0. The one quantile rule, read by [`Histogram::quantile`].
fn nearest_rank(q: f64, n: u64) -> Option<u64> {
    (n > 0).then(|| ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n))
}

/// A fixed-edge histogram: the cluster's latency and batch-size
/// histograms and the per-stage latencies are all one of these. Bucket `i`
/// counts observations `<= edges[i]` (and `> edges[i-1]`); one extra
/// overflow bucket counts the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: &'static [f64],
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over `edges`, ascending upper bucket edges.
    pub fn new(edges: &'static [f64]) -> Self {
        Self { edges, counts: vec![0; edges.len() + 1], total: 0, sum: 0.0 }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: f64) {
        let idx = self.edges.iter().position(|&e| value <= e).unwrap_or(self.edges.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded observations (the Prometheus `_sum` series).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all recorded observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Upper bucket edge containing the nearest-rank `q`-quantile
    /// (`0.0..=1.0`), i.e. the smallest edge at or above the exact
    /// quantile of the recorded values. Returns `f64::INFINITY` if the
    /// quantile falls in the overflow bucket, and `0.0` when the histogram
    /// is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let Some(rank) = nearest_rank(q, self.total) else {
            return 0.0;
        };
        let mut seen = 0u64;
        self.bucket_iter()
            .find(|&(_, c)| {
                seen += c;
                seen >= rank
            })
            .map_or(f64::INFINITY, |(edge, _)| edge)
    }

    /// Observations at or under `x` at bucket resolution: the counts of
    /// every bucket whose edge is `<= x`, with a relative `1e-9` slack so
    /// an `x` that is an edge up to rounding (25 ms read off a `Duration`)
    /// counts its own bucket. Exact when `x` is an edge; otherwise an
    /// undercount to the next lower edge.
    pub fn count_le(&self, x: f64) -> u64 {
        let x = x + x.abs() * 1e-9;
        self.bucket_iter().filter(|&(edge, _)| edge <= x).map(|(_, c)| c).sum()
    }

    /// `(upper_edge, count)` per bucket, **non-cumulative**; the final
    /// entry's edge is `f64::INFINITY` (the overflow bucket).
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.bucket_iter().collect()
    }

    fn bucket_iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.edges.iter().copied().chain([f64::INFINITY]).zip(self.counts.iter().copied())
    }
}

// ---------------------------------------------------------------------------
// Per-stage latency histograms
// ---------------------------------------------------------------------------

/// The request-lifecycle stages with a latency histogram on `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wire decode + admission (submit call) on the ingress thread.
    Admit,
    /// Sitting in the scheduler queue, submission to pop.
    QueueWait,
    /// Popped into an open batch, waiting for the batch to close.
    BatchForm,
    /// The batch's forward pass, stacking and logit fold included.
    Execute,
    /// Encoding the response frame.
    Serialize,
    /// Writing the response bytes to the socket.
    Write,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 6;

    /// Every stage, lifecycle order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Admit,
        Stage::QueueWait,
        Stage::BatchForm,
        Stage::Execute,
        Stage::Serialize,
        Stage::Write,
    ];

    /// Stable label for the `stage` Prometheus label and span names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::QueueWait => "queue_wait",
            Stage::BatchForm => "batch_form",
            Stage::Execute => "execute",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }
}

/// Bucket edges (seconds) of the per-stage latency histograms — wide
/// enough to split a 25 µs serialize from a 100 ms queue wait.
pub const STAGE_EDGES_SECS: [f64; 12] =
    [25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3, 1.0];

/// The six stage histograms (seconds), indexed by `Stage as usize`,
/// created at first use.
fn stage_hists() -> std::sync::MutexGuard<'static, Vec<Histogram>> {
    static HISTS: Mutex<Vec<Histogram>> = Mutex::new(Vec::new());
    let mut hists = HISTS.lock().unwrap_or_else(|p| p.into_inner());
    if hists.is_empty() {
        hists.resize(Stage::COUNT, Histogram::new(&STAGE_EDGES_SECS));
    }
    hists
}

/// Records one lifecycle stage of `trace`: a span named [`Stage::name`]
/// (payloads as in [`record_span`]) and one observation of `dur_ns` in the
/// stage's latency histogram. The one way a stage is recorded, so the span
/// and the `/metrics` family can never disagree. No-op when tracing is off
/// or `trace` is 0.
pub fn record_stage_span(trace: u64, stage: Stage, start_ns: u64, dur_ns: u64, a: u64, b: u64) {
    if trace == 0 || !enabled() {
        return;
    }
    let name = stage.name();
    push_event(Event { trace, name, kind: EventKind::Span, start_ns, dur_ns, a, b });
    stage_hists()[stage as usize].record(dur_ns as f64 / 1e9);
}

/// Every stage's latency histogram in seconds, lifecycle order.
pub fn stage_snapshot() -> Vec<(Stage, Histogram)> {
    Stage::ALL.into_iter().zip(stage_hists().iter().cloned()).collect()
}

// ---------------------------------------------------------------------------
// Flight recorder: recent completions + slow exemplars
// ---------------------------------------------------------------------------

/// Completions kept in the flight recorder's recent ring.
pub const RECENT_COMPLETIONS: usize = 256;

/// Maximum pinned SLO-violating slow traces.
pub const SLOW_EXEMPLARS: usize = 16;

/// Terminal record of one request, as listed by `GET /debug/requests`.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The request's trace id.
    pub trace: u64,
    /// Tenant the request was accounted against.
    pub tenant: u32,
    /// Terminal state (`ok`, `shape`, `rejected_saturated`, …).
    pub status: &'static str,
    /// End-to-end latency in ns (0 when the request never started, e.g.
    /// admission rejections).
    pub total_ns: u64,
    /// Completion time, ns since the trace epoch.
    pub end_ns: u64,
}

/// Service events kept in the flight recorder's event ring.
pub const SERVICE_EVENTS: usize = 64;

/// Alert severity of a [`ServiceEvent`], ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (health recovered, telemetry started).
    Info,
    /// Needs attention soon (slow-burn SLO violation, degraded plan).
    Warn,
    /// Needs attention now (fast burn, unhealthy plan).
    Page,
}

impl Severity {
    /// Stable lowercase label (`info` / `warn` / `page`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

/// A structured service-level event (SLO burn crossing, health
/// transition) emitted by the telemetry plane into the flight
/// recorder's bounded event ring.
#[derive(Debug, Clone)]
pub struct ServiceEvent {
    /// When it happened, ns since the trace epoch.
    pub at_ns: u64,
    /// How urgent.
    pub severity: Severity,
    /// What it concerns — a plan name, or `telemetry` for plane-level
    /// events.
    pub scope: String,
    /// Human-readable description.
    pub message: String,
}

struct SlowTrace {
    completion: Completion,
    events: Vec<Event>,
}

struct Recorder {
    recent: VecDeque<Completion>,
    slow: Vec<SlowTrace>,
    service: VecDeque<ServiceEvent>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    let mut guard = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
    let rec = guard.get_or_insert_with(|| Recorder {
        recent: VecDeque::with_capacity(RECENT_COMPLETIONS),
        slow: Vec::new(),
        service: VecDeque::with_capacity(SERVICE_EVENTS),
    });
    f(rec)
}

/// Records a request's terminal state in the flight recorder. If its
/// end-to-end latency reaches [`SLOW_THRESHOLD_MS`], the full trace is
/// assembled eagerly and pinned in the bounded slow-exemplar reservoir
/// (the slowest [`SLOW_EXEMPLARS`] survive). No-op when tracing is off
/// or `trace` is 0.
pub fn record_completion(trace: u64, tenant: u32, status: &'static str, total_ns: u64) {
    if trace == 0 || !enabled() {
        return;
    }
    let end_ns = now_ns();
    let completion = Completion { trace, tenant, status, total_ns, end_ns };
    let slow = total_ns >= SLOW_THRESHOLD_MS * 1_000_000;
    let events = if slow { trace_events(trace) } else { Vec::new() };
    with_recorder(|rec| {
        if rec.recent.len() >= RECENT_COMPLETIONS {
            rec.recent.pop_front();
        }
        rec.recent.push_back(completion);
        if slow {
            if rec.slow.len() < SLOW_EXEMPLARS {
                rec.slow.push(SlowTrace { completion, events });
            } else if let Some(min) = rec
                .slow
                .iter_mut()
                .min_by_key(|s| s.completion.total_ns)
                .filter(|s| s.completion.total_ns < total_ns)
            {
                *min = SlowTrace { completion, events };
            }
        }
    });
}

/// The flight recorder's recent completions, newest first.
pub fn completions() -> Vec<Completion> {
    with_recorder(|rec| rec.recent.iter().rev().copied().collect())
}

/// The pinned slow exemplars (completion metadata only), slowest first.
pub fn slow_exemplars() -> Vec<Completion> {
    with_recorder(|rec| {
        let mut out: Vec<Completion> = rec.slow.iter().map(|s| s.completion).collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.total_ns));
        out
    })
}

/// Records a structured service-level event in the flight recorder's
/// bounded ring ([`SERVICE_EVENTS`] kept, oldest evicted). Unlike the
/// request-tracing calls this is **not** gated on [`enabled`]: the
/// telemetry plane has its own on/off switch and its events should
/// survive `TTSNN_TRACE=off`.
pub fn record_service_event(severity: Severity, scope: &str, message: impl Into<String>) {
    let event = ServiceEvent {
        at_ns: now_ns(),
        severity,
        scope: scope.to_string(),
        message: message.into(),
    };
    with_recorder(|rec| {
        if rec.service.len() >= SERVICE_EVENTS {
            rec.service.pop_front();
        }
        rec.service.push_back(event);
    });
}

/// The flight recorder's service events, newest first.
pub fn service_events() -> Vec<ServiceEvent> {
    with_recorder(|rec| rec.service.iter().rev().cloned().collect())
}

fn slow_exemplar_events(trace: u64) -> Vec<Event> {
    with_recorder(|rec| {
        rec.slow
            .iter()
            .find(|s| s.completion.trace == trace)
            .map(|s| s.events.clone())
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global trace state is process-wide; tests that flip the gate or
    /// assert on ring contents serialize through this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        g
    }

    #[test]
    fn spans_round_trip_through_the_ring() {
        let _g = locked();
        let trace = next_trace_id();
        let t0 = now_ns();
        record_span(trace, "queue_wait", t0, 1_000, 1, 2);
        record_instant(trace, "rejected", t0 + 2_000, 3, 4);
        let events = trace_events(trace);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "queue_wait");
        assert_eq!(events[0].dur_ns, 1_000);
        assert_eq!((events[0].a, events[0].b), (1, 2));
        assert_eq!(events[1].kind, EventKind::Instant);
    }

    #[test]
    fn trace_zero_and_disabled_record_nothing() {
        let _g = locked();
        record_span(0, "x", 0, 1, 0, 0);
        assert!(trace_events(0).is_empty());
        set_enabled(false);
        let trace = next_trace_id();
        record_span(trace, "x", 0, 1, 0, 0);
        record_completion(trace, 0, "ok", 1);
        set_enabled(true);
        assert!(trace_events(trace).is_empty());
        assert!(completions().iter().all(|c| c.trace != trace));
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let _g = locked();
        let trace = next_trace_id();
        let cap = RING_CAPACITY;
        for i in 0..(cap + 10) as u64 {
            record_span(trace, "spin", i, 1, i, 0);
        }
        let events = trace_events(trace);
        assert!(events.len() <= cap);
        // The newest event survived; the oldest was overwritten.
        assert!(events.iter().any(|e| e.a == (cap as u64 + 9)));
        assert!(events.iter().all(|e| e.a >= 10));
    }

    #[test]
    fn regions_emit_one_span_per_context_trace() {
        let _g = locked();
        let (t1, t2) = (next_trace_id(), next_trace_id());
        {
            let _ctx = TraceContext::enter(&[t1, 0, t2]);
            let _r = region("gemm");
        }
        for t in [t1, t2] {
            let events = trace_events(t);
            assert_eq!(events.len(), 1, "trace {t} has its gemm span");
            assert_eq!(events[0].name, "gemm");
        }
        // Context restored: a later region records nothing new.
        let _r = region("gemm");
        drop(_r);
        assert_eq!(trace_events(t1).len(), 1);
    }

    #[test]
    fn completions_ring_is_bounded() {
        let _g = locked();
        let first = next_trace_id();
        for _ in 0..(RECENT_COMPLETIONS + 50) {
            record_completion(next_trace_id(), 7, "rejected_saturated", 0);
        }
        let recent = completions();
        assert_eq!(recent.len(), RECENT_COMPLETIONS);
        // Newest first, and the earliest entries were evicted.
        assert!(recent.iter().all(|c| c.trace > first));
        assert!(recent[0].trace > recent[recent.len() - 1].trace);
        assert!(slow_exemplars().len() <= SLOW_EXEMPLARS);
    }

    #[test]
    fn slow_requests_are_pinned_with_their_events() {
        let _g = locked();
        let trace = next_trace_id();
        let t0 = now_ns();
        record_span(trace, "execute", t0, 5_000, 0, 0);
        let slow_ns = SLOW_THRESHOLD_MS * 1_000_000 + 1;
        record_completion(trace, 3, "ok", slow_ns);
        assert!(slow_exemplars().iter().any(|c| c.trace == trace));
        // Even with the ring overwritten, the pinned copy answers.
        let filler = next_trace_id();
        for i in 0..(RING_CAPACITY as u64 + 8) {
            record_span(filler, "spin", i, 1, 0, 0);
        }
        let events = trace_events(trace);
        assert!(events.iter().any(|e| e.name == "execute"));
    }

    #[test]
    fn service_events_ring_is_bounded_and_ungated() {
        let _g = locked();
        set_enabled(false);
        for i in 0..(SERVICE_EVENTS + 20) {
            record_service_event(Severity::Warn, "svc-ring-test", format!("event {i}"));
        }
        set_enabled(true);
        let events = service_events();
        assert_eq!(events.len(), SERVICE_EVENTS);
        // Newest first, oldest evicted — and recorded despite the trace
        // gate being off.
        let ours: Vec<&ServiceEvent> =
            events.iter().filter(|e| e.scope == "svc-ring-test").collect();
        assert!(!ours.is_empty());
        assert!(ours[0].message.contains(&format!("event {}", SERVICE_EVENTS + 19)));
        assert!(Severity::Page > Severity::Warn && Severity::Warn > Severity::Info);
    }

    #[test]
    fn stage_histograms_bucket_cumulatively_to_count() {
        let _g = locked();
        let trace = next_trace_id();
        record_stage_span(trace, Stage::Serialize, 0, 30_000, 0, 0); // 30 µs
        record_stage_span(trace, Stage::Serialize, 0, 2_000_000_000, 0, 0); // 2 s -> +Inf
        let names: Vec<&str> = trace_events(trace).iter().map(|e| e.name).collect();
        assert_eq!(names, ["serialize", "serialize"]);
        let snap = stage_snapshot();
        let (_, ser) = snap.iter().find(|(s, _)| s.name() == "serialize").unwrap();
        let buckets = ser.buckets();
        assert_eq!(buckets.last().map(|&(e, _)| e), Some(f64::INFINITY));
        let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, ser.count());
        assert!(ser.count() >= 2);
        assert!(ser.sum() > 2.0);
    }

    /// One step of a 64-bit LCG: a deterministic stream, so the sweep
    /// below needs no crates.
    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *x >> 33
    }

    #[test]
    fn histogram_and_quantile_match_exact_oracle() {
        let mut x: u64 = 12345;
        for case in 0..300 {
            // Strictly increasing edges, negative ones included; the
            // histogram borrows them for 'static.
            let mut edge = -60.0;
            let edges: Vec<f64> = (0..1 + lcg(&mut x) % 12)
                .map(|_| {
                    edge += 1.0 + (lcg(&mut x) % 1000) as f64 / 10.0;
                    edge
                })
                .collect();
            let edges: &'static [f64] = Box::leak(edges.into_boxed_slice());
            // 0..64 values: a quarter exactly on an edge, the rest
            // anywhere from below the first edge to past the last.
            let values: Vec<f64> = (0..lcg(&mut x) % 64)
                .map(|_| match lcg(&mut x) % 4 {
                    0 => edges[(lcg(&mut x) % edges.len() as u64) as usize],
                    _ => (lcg(&mut x) % 200_000) as f64 / 100.0 - 100.0,
                })
                .collect();
            let mut h = Histogram::new(edges);
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();

            assert_eq!(h.count(), n as u64);
            assert_eq!(h.buckets().iter().map(|&(_, c)| c).sum::<u64>(), h.count());
            for &e in edges {
                let exact = sorted.iter().filter(|&&v| v <= e).count() as u64;
                assert_eq!(h.count_le(e), exact, "case {case}: count_le({e})");
            }
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                if n == 0 {
                    assert_eq!(h.quantile(q), 0.0);
                    continue;
                }
                let exact = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
                let edge = edges.iter().copied().find(|&e| e >= exact).unwrap_or(f64::INFINITY);
                assert_eq!(h.quantile(q), edge, "case {case} q={q}");
            }
        }
    }
}
