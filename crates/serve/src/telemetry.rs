//! The continuous telemetry plane: a background sampler thread that
//! turns each plan's point-in-time [`ClusterMetrics`] snapshots into
//! bounded time-series history, evaluates SLO burn rates, and runs the
//! per-plan health watchdog.
//!
//! The building blocks are pure data structures in `ttsnn_obs`
//! ([`ttsnn_obs::timeseries`], [`ttsnn_obs::slo`],
//! [`ttsnn_obs::watchdog`]); this module owns the thread that feeds
//! them. Once per [`TelemetryConfig::resolution`] tick the sampler
//! calls every [`PlanSource`]'s metrics closure (a `Cluster::metrics`
//! snapshot — the same consistent clone a `/metrics` scrape takes),
//! derives the SLO good/total counters from the latency histogram,
//! records everything into the [`SeriesStore`] rings, evaluates
//! [`ttsnn_obs::slo::evaluate`] and [`Watchdog::observe`], publishes
//! the verdict in [`TelemetryShared`], where `/healthz` reads it
//! ([`TelemetryShared::health`]), and emits **edge-triggered** service
//! events (health transitions, burn-severity crossings) into the
//! `ttsnn_obs` flight recorder.
//!
//! Nothing here touches the request hot path: the sampler is
//! pull-based, request threads never wait on it, and with
//! [`TelemetryOptions::enabled`] off no thread is spawned at all.
//! Telemetry is deliberately **not** gated on `TTSNN_TRACE` — history and
//! health should survive with per-request tracing off.
//!
//! ## Series naming
//!
//! Ring series use path-style names, browsable at
//! `GET /debug/timeline`:
//!
//! - `plan/<name>/good_total`, `plan/<name>/events_total` — the SLO
//!   numerator/denominator (cumulative counters).
//! - `plan/<name>/served_total` / `expired_total` / `failed_total` /
//!   `rejected_total` / `batches_total` / `evicted_total` — lifecycle
//!   counters (stream chunks folded in).
//! - `plan/<name>/batch_close/<reason>_total` — batches formed, by why
//!   they closed (`full`, `accounted`, `window`, `stream`, `shutdown`).
//! - `plan/<name>/queue_depth`, `plan/<name>/outstanding` — gauges.
//! - `plan/<name>/latency_p50_seconds`, `latency_p99_seconds` —
//!   histogram-derived quantile gauges.
//! - `plan/<name>/burn_5m` / `burn_1h` / `burn_6h`,
//!   `plan/<name>/health` — the SLO/watchdog outputs as gauges, so the
//!   timeline can plot an incident after the fact.
//! - `plan/<name>/tenant/<id>/submitted_total` — per-tenant demand,
//!   capped at [`TENANT_SERIES`] tenants per plan.
//! - `stage/<stage>/count`, `stage/<stage>/sum_seconds` — the global
//!   per-stage latency accumulation (counters).

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ttsnn_infer::ClusterMetrics;
use ttsnn_obs::slo::{self, SloSpec, SloStatus};
use ttsnn_obs::timeseries::{
    tick_increases, SeriesKind, SeriesSnapshot, SeriesStore, TelemetryConfig,
};
use ttsnn_obs::watchdog::{HealthReport, HealthState, Watchdog, WatchdogConfig, WatchdogSample};
use ttsnn_obs::Severity;

/// Per-plan cap on `plan/<name>/tenant/<id>/…` series, so tenant-id
/// churn cannot crowd the bounded store (the store's own
/// `MAX_SERIES` cap is the backstop).
pub const TENANT_SERIES: usize = 8;

/// Telemetry-plane configuration, set in code: the master switch plus the
/// ring geometry, SLO, and watchdog knobs.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Whether the sampler thread runs at all (default on). Off costs
    /// nothing: no thread, empty store, and `/healthz` reports every plan
    /// healthy.
    pub enabled: bool,
    /// Sampler tick period (nonzero) and per-series ring capacity.
    pub timeseries: TelemetryConfig,
    /// The serving objective (target in `(0, 1)`).
    pub slo: SloSpec,
    /// Watchdog thresholds, in sampler ticks (the defaults are tuned for
    /// the default 5 s tick).
    pub watchdog: WatchdogConfig,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            enabled: true,
            timeseries: TelemetryConfig::default(),
            slo: SloSpec::default(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// One plan the sampler watches: its name and a closure producing a
/// fresh [`ClusterMetrics`] snapshot (the server passes
/// `Cluster::metrics` of each mounted plan).
pub struct PlanSource {
    /// Plan name — the `plan` label on every derived series and metric.
    pub name: String,
    /// Snapshot producer, called once per tick.
    pub metrics: Box<dyn Fn() -> ClusterMetrics + Send>,
}

/// One plan's latest sampler outputs, as read by `/debug/slo` and the
/// Prometheus telemetry families.
#[derive(Debug, Clone)]
pub struct PlanStatus {
    /// The watchdog verdict.
    pub health: HealthReport,
    /// The burn-rate evaluation.
    pub slo: SloStatus,
    /// Per-replica heartbeat age at the last tick.
    pub heartbeat_age: Vec<Option<Duration>>,
}

/// The state the sampler shares with HTTP readers: the series store,
/// the effective configuration, and each plan's latest status. One per
/// [`crate::Server`], alive as long as any `Arc` holds it — endpoints
/// keep answering (with frozen data) even mid-shutdown.
pub struct TelemetryShared {
    enabled: bool,
    config: TelemetryConfig,
    spec: SloSpec,
    store: SeriesStore,
    plans: Mutex<BTreeMap<String, PlanStatus>>,
    ticks: AtomicU64,
}

impl TelemetryShared {
    fn new(options: &TelemetryOptions) -> Self {
        TelemetryShared {
            enabled: options.enabled,
            config: options.timeseries,
            spec: options.slo,
            store: SeriesStore::new(options.timeseries),
            plans: Mutex::new(BTreeMap::new()),
            ticks: AtomicU64::new(0),
        }
    }

    /// Whether the sampler thread was enabled at spawn.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The effective ring geometry.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// The effective SLO.
    pub fn spec(&self) -> SloSpec {
        self.spec
    }

    /// The history rings the sampler fills.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// A plan's latest watchdog verdict — `Healthy` before the first
    /// sampler tick, with telemetry off, or for a plan nobody samples,
    /// so probes never fail closed.
    pub fn health(&self, plan: &str) -> HealthReport {
        let map = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        map.get(plan).map_or_else(HealthReport::healthy, |s| s.health.clone())
    }

    /// Every plan's latest sampler output, plan-name order. Empty
    /// before the first tick or with telemetry off.
    pub fn plan_status(&self) -> Vec<(String, PlanStatus)> {
        let map = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        map.iter().map(|(n, s)| (n.clone(), s.clone())).collect()
    }

    /// Completed sampler ticks — a liveness probe for the sampler
    /// itself (stops advancing once the plane is dropped).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }
}

/// Sampler-thread state for one plan: the source, its watchdog, and
/// the edge-trigger memory for service events.
struct PlanSampler {
    source: PlanSource,
    dog: Watchdog,
    last_health: HealthState,
    last_burn: Option<Severity>,
}

/// The running telemetry plane: the sampler thread plus its shared
/// state. Dropping it stops and joins the thread (within one tick).
pub struct TelemetryPlane {
    shared: Arc<TelemetryShared>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryPlane {
    /// Spawns the sampler over `sources`. With `options.enabled == false`
    /// (or no sources) no thread starts; the shared state stays empty and
    /// every plan reads healthy.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a zero `timeseries.resolution` (the sampler
    /// would re-snapshot every plan in a hot loop) or an `slo.target`
    /// outside `(0, 1)`, NaN included (a target of 1 leaves no error
    /// budget, so a single bad request would page); otherwise propagates
    /// thread-spawn failure.
    pub fn spawn(
        options: TelemetryOptions,
        sources: Vec<PlanSource>,
    ) -> io::Result<TelemetryPlane> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if options.timeseries.resolution.is_zero() {
            return invalid("TelemetryOptions.timeseries.resolution must be nonzero".into());
        }
        let target = options.slo.target;
        let target_in_range = target > 0.0 && target < 1.0;
        if !target_in_range {
            return invalid(format!(
                "TelemetryOptions.slo.target must lie in (0, 1), got {target}"
            ));
        }
        let shared = Arc::new(TelemetryShared::new(&options));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = if options.enabled && !sources.is_empty() {
            let shared2 = Arc::clone(&shared);
            let stop2 = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("ttsnn-telemetry".into())
                    .spawn(move || sampler_loop(&shared2, &stop2, sources, &options))?,
            )
        } else {
            None
        };
        Ok(TelemetryPlane { shared, stop, handle })
    }

    /// The state shared with HTTP readers.
    pub fn shared(&self) -> Arc<TelemetryShared> {
        Arc::clone(&self.shared)
    }
}

impl Drop for TelemetryPlane {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cvar.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn sampler_loop(
    shared: &TelemetryShared,
    stop: &(Mutex<bool>, Condvar),
    sources: Vec<PlanSource>,
    options: &TelemetryOptions,
) {
    let mut plans: Vec<PlanSampler> = sources
        .into_iter()
        .map(|source| PlanSampler {
            source,
            dog: Watchdog::new(options.watchdog),
            last_health: HealthState::Healthy,
            last_burn: None,
        })
        .collect();
    loop {
        for plan in &mut plans {
            sample_plan(shared, plan);
        }
        sample_stages(shared);
        shared.ticks.fetch_add(1, Ordering::Release);

        // Sleep one resolution, waking early on stop.
        let (lock, cvar) = stop;
        let mut stopped = lock.lock().unwrap_or_else(|p| p.into_inner());
        while !*stopped {
            let (guard, timeout) = cvar
                .wait_timeout(stopped, shared.config.resolution)
                .unwrap_or_else(|p| p.into_inner());
            stopped = guard;
            if timeout.timed_out() {
                break;
            }
        }
        if *stopped {
            return;
        }
    }
}

/// One tick of one plan: snapshot, record, evaluate, publish, alert.
fn sample_plan(shared: &TelemetryShared, plan: &mut PlanSampler) {
    let m = (plan.source.metrics)();
    let name = plan.source.name.clone();
    let now = ttsnn_obs::now_ns();
    let totals = m.totals();
    let sessions = &m.sessions;
    let rejected =
        m.tenants.values().map(|t| t.rejected()).sum::<u64>() + m.tenant_overflow.rejected();
    let served = totals.served + sessions.chunks_served;
    let expired = totals.expired + sessions.chunks_expired;
    let failed = totals.failed + sessions.chunks_failed;
    // The SLO numerator: latency observations within the objective —
    // exact when it sits on a bucket edge (the defaults do: 25 ms and
    // 5 ms are both edges), else an undercount to the next lower edge.
    let good = m.latency.count_le(shared.spec.latency.as_secs_f64());
    // The SLO denominator: every request event with an outcome the
    // objective covers — served (fast or slow), expired, failed, or
    // rejected at admission. Cancellations are the client's own doing
    // and don't count against the budget.
    let events = served + expired + failed + rejected;

    let store = &shared.store;
    let counter = |n: &str, v: f64| store.record_at(n, SeriesKind::Counter, v, now);
    let gauge = |n: &str, v: f64| store.record_at(n, SeriesKind::Gauge, v, now);
    counter(&format!("plan/{name}/good_total"), good as f64);
    counter(&format!("plan/{name}/events_total"), events as f64);
    counter(&format!("plan/{name}/served_total"), served as f64);
    counter(&format!("plan/{name}/expired_total"), expired as f64);
    counter(&format!("plan/{name}/failed_total"), failed as f64);
    counter(&format!("plan/{name}/rejected_total"), rejected as f64);
    counter(&format!("plan/{name}/batches_total"), m.batches_executed as f64);
    for reason in ttsnn_infer::CloseReason::ALL {
        let series = format!("plan/{name}/batch_close/{}_total", reason.name());
        counter(&series, m.closed(reason) as f64);
    }
    counter(&format!("plan/{name}/evicted_total"), sessions.evicted as f64);
    gauge(&format!("plan/{name}/queue_depth"), m.queue_depth as f64);
    gauge(&format!("plan/{name}/outstanding"), m.outstanding as f64);
    if m.latency.count() > 0 {
        gauge(&format!("plan/{name}/latency_p50_seconds"), m.latency.quantile(0.5));
        gauge(&format!("plan/{name}/latency_p99_seconds"), m.latency.quantile(0.99));
    }
    for (&tenant, stats) in m.tenants.iter().take(TENANT_SERIES) {
        counter(&format!("plan/{name}/tenant/{tenant}/submitted_total"), stats.submitted as f64);
    }

    // SLO: evaluate from the freshly recorded good/total rings.
    let snap = |suffix: &str| -> SeriesSnapshot {
        store
            .snapshot(&format!("plan/{name}/{suffix}"))
            .unwrap_or(SeriesSnapshot { kind: SeriesKind::Counter, samples: Vec::new() })
    };
    let status = slo::evaluate(
        &snap("good_total"),
        &snap("events_total"),
        &shared.spec,
        shared.config.span(),
        shared.config.resolution,
        now,
    );
    for &(label, burn) in &status.burn {
        gauge(&format!("plan/{name}/burn_{label}"), burn);
    }

    // Watchdog: one distilled sample per tick.
    let report = plan.dog.observe(&WatchdogSample {
        queue_depth: m.queue_depth,
        outstanding: m.outstanding,
        completions: served + expired + failed + totals.cancelled,
        deadline_misses: expired,
        evictions: sessions.evicted,
        heartbeat_age: m.replica_heartbeat_age.clone(),
    });
    gauge(&format!("plan/{name}/health"), report.state.code() as f64);

    // Edge-triggered service events: health transitions...
    if report.state != plan.last_health {
        let (severity, message) = match report.state {
            HealthState::Healthy => (
                Severity::Info,
                format!("health recovered: {} -> healthy", plan.last_health.as_str()),
            ),
            HealthState::Degraded => (
                Severity::Warn,
                format!("health {} -> degraded: {}", plan.last_health.as_str(), report.reason),
            ),
            HealthState::Unhealthy => (
                Severity::Page,
                format!("health {} -> unhealthy: {}", plan.last_health.as_str(), report.reason),
            ),
        };
        ttsnn_obs::record_service_event(severity, &name, message);
        plan.last_health = report.state;
    }
    // ...and burn-severity crossings.
    let burn_alert = slo::burn_severity(&status);
    let burn_sev = burn_alert.as_ref().map(|&(s, _)| s);
    if burn_sev != plan.last_burn {
        match &burn_alert {
            Some((severity, why)) => {
                ttsnn_obs::record_service_event(*severity, &name, format!("slo burn: {why}"));
            }
            None => ttsnn_obs::record_service_event(
                Severity::Info,
                &name,
                "slo burn subsided below alert thresholds",
            ),
        }
        plan.last_burn = burn_sev;
    }

    let mut plans = shared.plans.lock().unwrap_or_else(|p| p.into_inner());
    plans.insert(
        name,
        PlanStatus { health: report, slo: status, heartbeat_age: m.replica_heartbeat_age },
    );
}

/// Records the global per-stage latency accumulation as counters, so
/// the timeline can derive per-stage throughput and mean latency over
/// any window.
fn sample_stages(shared: &TelemetryShared) {
    let now = ttsnn_obs::now_ns();
    let counter = |n: String, v: f64| shared.store.record_at(&n, SeriesKind::Counter, v, now);
    for (stage, h) in ttsnn_obs::stage_snapshot() {
        counter(format!("stage/{}/count", stage.name()), h.count() as f64);
        counter(format!("stage/{}/sum_seconds", stage.name()), h.sum());
    }
}

/// Renders the `GET /debug/slo` page: the objective, each plan's
/// health and burn rates, and the recent service events.
pub fn debug_slo_text(shared: &TelemetryShared, health: &[(String, HealthReport)]) -> String {
    let spec = shared.spec();
    let cfg = shared.config();
    let mut out = format!(
        "slo objective: {:.2}% of request events good within {:.0} ms\n\
         telemetry: {} (resolution {:?}, slots {}, span {:?}, ticks {})\n",
        spec.target * 100.0,
        spec.latency.as_secs_f64() * 1e3,
        if shared.enabled() { "on" } else { "off" },
        cfg.resolution,
        cfg.slots,
        cfg.span(),
        shared.ticks(),
    );
    let status: BTreeMap<String, PlanStatus> = shared.plan_status().into_iter().collect();
    for (name, report) in health {
        out.push_str(&format!("\nplan {name}: {}", report.state.as_str()));
        if !report.reason.is_empty() {
            out.push_str(&format!(" ({})", report.reason));
        }
        out.push('\n');
        match status.get(name) {
            Some(s) => {
                out.push_str(&format!(
                    "  availability {:.3}%  budget remaining {:.1}%  events {:.0}\n  burn ",
                    s.slo.availability * 100.0,
                    s.slo.budget_remaining * 100.0,
                    s.slo.events,
                ));
                for &(label, burn) in &s.slo.burn {
                    out.push_str(&format!(" {label} {burn:.2}x "));
                }
                out.push('\n');
                for (i, age) in s.heartbeat_age.iter().enumerate() {
                    match age {
                        Some(a) => out.push_str(&format!(
                            "  replica {i}: heartbeat {:.1}s ago\n",
                            a.as_secs_f64()
                        )),
                        None => out.push_str(&format!("  replica {i}: no heartbeat yet\n")),
                    }
                }
            }
            None => out.push_str("  no telemetry samples yet\n"),
        }
    }
    let events = ttsnn_obs::service_events();
    out.push_str(&format!(
        "\nservice events ({} of last {}):\n",
        events.len(),
        ttsnn_obs::SERVICE_EVENTS
    ));
    let now = ttsnn_obs::now_ns();
    for e in &events {
        let ago = now.saturating_sub(e.at_ns) as f64 / 1e9;
        out.push_str(&format!(
            "  [{}] {ago:.1}s ago {}: {}\n",
            e.severity.as_str(),
            e.scope,
            e.message
        ));
    }
    out
}

/// Renders the `GET /debug/timeline` page. Without a series name,
/// lists every tracked series; with `series=<name>`, renders that
/// series as a sparkline with summary statistics (`Err` carries the
/// 404 body for an unknown name).
pub fn timeline_text(shared: &TelemetryShared, series: Option<&str>) -> Result<String, String> {
    let cfg = shared.config();
    let name = match series {
        None => {
            let mut out = format!(
                "telemetry timeline: resolution {:?}, {} slots (span {:?}), ticks {}\n\
                 usage: /debug/timeline?series=<name>\n\n",
                cfg.resolution,
                cfg.slots,
                cfg.span(),
                shared.ticks(),
            );
            for (name, kind, last) in shared.store().names() {
                let kind = match kind {
                    SeriesKind::Counter => "counter",
                    SeriesKind::Gauge => "gauge",
                };
                match last {
                    Some(s) => out.push_str(&format!("  {name} ({kind}) last {}\n", s.value)),
                    None => out.push_str(&format!("  {name} ({kind}) empty\n")),
                }
            }
            return Ok(out);
        }
        Some(n) => n,
    };
    let snap = shared
        .store()
        .snapshot(name)
        .ok_or_else(|| format!("no such series {name:?} (see /debug/timeline)\n"))?;
    // Counters plot per-tick increases (reset-aware); gauges plot raw.
    let (label, values): (&str, Vec<f64>) = match snap.kind {
        SeriesKind::Gauge => ("gauge", snap.samples.iter().map(|s| s.value).collect()),
        SeriesKind::Counter => {
            ("counter (per-tick increase)", tick_increases(&snap.samples).collect())
        }
    };
    let mut out = format!(
        "series {name} ({label}), {} samples, resolution {:?}\n",
        snap.samples.len(),
        cfg.resolution
    );
    if values.is_empty() {
        out.push_str("  (not enough samples)\n");
        return Ok(out);
    }
    out.push_str(&format!("  {}\n", ttsnn_obs::sparkline(&values)));
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    out.push_str(&format!(
        "  min {min}  max {max}  mean {mean:.3}  last {}\n",
        values.last().copied().unwrap_or(0.0)
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_on_with_lib_defaults() {
        let o = TelemetryOptions::default();
        assert!(o.enabled);
        assert_eq!(o.timeseries, TelemetryConfig::default());
        assert_eq!(o.slo, SloSpec::default());
        assert_eq!(o.watchdog, WatchdogConfig::default());
    }

    #[test]
    fn disabled_plane_spawns_no_thread_and_reads_empty() {
        let options = TelemetryOptions { enabled: false, ..Default::default() };
        let plane = TelemetryPlane::spawn(options, Vec::new()).unwrap();
        let shared = plane.shared();
        assert!(!shared.enabled());
        assert_eq!(shared.ticks(), 0);
        assert!(shared.store().is_empty());
        assert!(shared.plan_status().is_empty());
        // With no verdict published, every plan reads healthy.
        assert_eq!(shared.health("anything").state, HealthState::Healthy);
        drop(plane);
        assert_eq!(shared.ticks(), 0);
    }

    #[test]
    fn timeline_lists_and_404s() {
        let options = TelemetryOptions { enabled: false, ..Default::default() };
        let plane = TelemetryPlane::spawn(options, Vec::new()).unwrap();
        let shared = plane.shared();
        shared.store().record("plan/x/queue_depth", SeriesKind::Gauge, 3.0);
        let listing = timeline_text(&shared, None).unwrap();
        assert!(listing.contains("plan/x/queue_depth"), "{listing}");
        let view = timeline_text(&shared, Some("plan/x/queue_depth")).unwrap();
        assert!(view.contains("gauge"), "{view}");
        assert!(timeline_text(&shared, Some("nope")).is_err());
    }
}
