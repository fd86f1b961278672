//! Prometheus text-exposition rendering of the cluster's metrics.
//!
//! [`render`] turns per-plan [`ClusterMetrics`] snapshots into the
//! Prometheus text format (version 0.0.4): `# HELP` / `# TYPE` headers
//! once per family, one `name{labels} value` line per series. No client
//! library is involved — the format is plain text and the snapshots are
//! already consistent (taken under the scheduler mutex), so a scrape is
//! a string-build.
//!
//! Everything observable in-process is exported: queue/outstanding
//! gauges, per-priority **and per-tenant** lifecycle counters (the
//! fair-queueing accounting), the latency and batch-size histograms
//! (cumulative `le` buckets plus `_sum`/`_count`), measured per-layer
//! spike densities, and the streaming-session counters.

use std::time::Duration;

use ttsnn_infer::{CloseReason, ClusterMetrics, Priority};
use ttsnn_obs::watchdog::HealthReport;
use ttsnn_obs::Histogram;

use crate::telemetry::PlanStatus;

/// Stable label value for a priority class.
fn priority_label(p: Priority) -> &'static str {
    match p {
        Priority::High => "high",
        Priority::Normal => "normal",
        Priority::Low => "low",
    }
}

/// Escapes a label value per the text-format spec: backslash, double
/// quote, and newline would otherwise corrupt the whole exposition (plan
/// names are operator-supplied but unvalidated).
pub(crate) fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Formats a sample value; Prometheus spells infinities `+Inf`/`-Inf`.
fn value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

struct Family<'a> {
    out: &'a mut String,
}

impl<'a> Family<'a> {
    fn new(out: &'a mut String, name: &str, kind: &str, help: &str) -> Self {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        Family { out }
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, lv)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{}\"", escape_label(lv)));
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&value(v));
        self.out.push('\n');
    }
}

/// Emits one full histogram family — the only histogram writer: per
/// `(label, histogram)` pair, cumulative `_bucket{label,le=…}` series,
/// then `_sum` and `_count`.
fn histogram(out: &mut String, name: &str, help: &str, series: &[((&str, &str), &Histogram)]) {
    let mut f = Family::new(out, name, "histogram", help);
    for &(label, h) in series {
        let mut cumulative = 0u64;
        for (edge, count) in h.buckets() {
            cumulative += count;
            let le = value(edge);
            f.sample(&format!("{name}_bucket"), &[label, ("le", &le)], cumulative as f64);
        }
        f.sample(&format!("{name}_sum"), &[label], h.sum());
        f.sample(&format!("{name}_count"), &[label], h.count() as f64);
    }
}

/// Renders per-plan metrics snapshots as a Prometheus text-format page.
pub fn render(plans: &[(String, ClusterMetrics)]) -> String {
    let mut out = String::new();

    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_queue_depth",
            "gauge",
            "Requests waiting in the scheduler queue.",
        );
        for (plan, m) in plans {
            f.sample("ttsnn_queue_depth", &[("plan", plan)], m.queue_depth as f64);
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_outstanding",
            "gauge",
            "Requests admitted but not yet finished (queued or executing).",
        );
        for (plan, m) in plans {
            f.sample("ttsnn_outstanding", &[("plan", plan)], m.outstanding as f64);
        }
    }
    {
        let mut f =
            Family::new(&mut out, "ttsnn_replicas", "gauge", "Executor replicas serving the plan.");
        for (plan, m) in plans {
            f.sample("ttsnn_replicas", &[("plan", plan)], m.replicas as f64);
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_batches_executed_total",
            "counter",
            "Forward passes executed across all replicas.",
        );
        for (plan, m) in plans {
            f.sample("ttsnn_batches_executed_total", &[("plan", plan)], m.batches_executed as f64);
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_batch_close_total",
            "counter",
            "Batches formed, by why they stopped collecting (full, accounted, window, stream, shutdown).",
        );
        for (plan, m) in plans {
            for reason in CloseReason::ALL {
                f.sample(
                    "ttsnn_batch_close_total",
                    &[("plan", plan), ("reason", reason.name())],
                    m.closed(reason) as f64,
                );
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_requests_total",
            "counter",
            "Request lifecycle events by priority class.",
        );
        for (plan, m) in plans {
            for p in Priority::ALL {
                let s = m.priority(p);
                let pl = priority_label(p);
                for (state, v) in [
                    ("submitted", s.submitted),
                    ("served", s.served),
                    ("cancelled", s.cancelled),
                    ("expired", s.expired),
                    ("failed", s.failed),
                ] {
                    f.sample(
                        "ttsnn_requests_total",
                        &[("plan", plan), ("priority", pl), ("state", state)],
                        v as f64,
                    );
                }
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_tenant_requests_total",
            "counter",
            "Request lifecycle and admission-rejection events by tenant.",
        );
        let emit = |f: &mut Family<'_>, plan: &str, tenant: &str, s: &ttsnn_infer::TenantStats| {
            for (state, v) in [
                ("submitted", s.submitted),
                ("served", s.served),
                ("cancelled", s.cancelled),
                ("expired", s.expired),
                ("failed", s.failed),
                ("rejected_saturated", s.rejected_saturated),
                ("rejected_rate_limited", s.rejected_rate_limited),
            ] {
                f.sample(
                    "ttsnn_tenant_requests_total",
                    &[("plan", plan), ("tenant", tenant), ("state", state)],
                    v as f64,
                );
            }
        };
        for (plan, m) in plans {
            for (&tenant, s) in &m.tenants {
                emit(&mut f, plan, &tenant.to_string(), s);
            }
            // Everything past the per-tenant cardinality cap folds into
            // one "other" series set (see MAX_TRACKED_TENANTS).
            if m.tenant_overflow != ttsnn_infer::TenantStats::default() {
                emit(&mut f, plan, "other", &m.tenant_overflow);
            }
        }
    }
    let per_plan = |get: fn(&ClusterMetrics) -> &Histogram| -> Vec<((&str, &str), &Histogram)> {
        plans.iter().map(|(plan, m)| (("plan", plan.as_str()), get(m))).collect()
    };
    histogram(
        &mut out,
        "ttsnn_request_latency_seconds",
        "Submit-to-reply latency of served requests.",
        &per_plan(|m| &m.latency),
    );
    histogram(
        &mut out,
        "ttsnn_batch_size",
        "Requests coalesced per executed forward pass.",
        &per_plan(|m| &m.batch_sizes),
    );
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_spike_density",
            "gauge",
            "Measured spike density per LIF layer (spikes per neuron per timestep).",
        );
        for (plan, m) in plans {
            for (i, &d) in m.spike_density.iter().enumerate() {
                let layer = i.to_string();
                f.sample("ttsnn_spike_density", &[("plan", plan), ("layer", &layer)], d);
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_mean_spike_density",
            "gauge",
            "Spike density pooled over all layers (weighted by neuron-steps).",
        );
        for (plan, m) in plans {
            if let Some(d) = m.mean_spike_density {
                f.sample("ttsnn_mean_spike_density", &[("plan", plan)], d);
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_stream_sessions_total",
            "counter",
            "Streaming session lifecycle events.",
        );
        for (plan, m) in plans {
            let s = &m.sessions;
            for (event, v) in [("opened", s.opened), ("closed", s.closed), ("evicted", s.evicted)] {
                f.sample(
                    "ttsnn_stream_sessions_total",
                    &[("plan", plan), ("event", event)],
                    v as f64,
                );
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_stream_chunks_total",
            "counter",
            "Streaming chunk lifecycle events.",
        );
        for (plan, m) in plans {
            let s = &m.sessions;
            for (state, v) in [
                ("submitted", s.chunks_submitted),
                ("served", s.chunks_served),
                ("expired", s.chunks_expired),
                ("failed", s.chunks_failed),
            ] {
                f.sample(
                    "ttsnn_stream_chunks_total",
                    &[("plan", plan), ("state", state)],
                    v as f64,
                );
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_stream_timesteps_total",
            "counter",
            "Stream timesteps executed vs skipped by early exit.",
        );
        for (plan, m) in plans {
            let s = &m.sessions;
            for (state, v) in [("executed", s.timesteps_executed), ("skipped", s.timesteps_skipped)]
            {
                f.sample(
                    "ttsnn_stream_timesteps_total",
                    &[("plan", plan), ("state", state)],
                    v as f64,
                );
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_stream_macs_total",
            "counter",
            "MACs spent on executed stream timesteps vs avoided by early exit.",
        );
        for (plan, m) in plans {
            let s = &m.sessions;
            for (state, v) in [("executed", s.macs_executed), ("skipped", s.macs_skipped)] {
                f.sample("ttsnn_stream_macs_total", &[("plan", plan), ("state", state)], v as f64);
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_stream_active_sessions",
            "gauge",
            "Live streaming sessions pinned to each replica.",
        );
        for (plan, m) in plans {
            for (i, &n) in m.sessions.active.iter().enumerate() {
                let r = i.to_string();
                f.sample(
                    "ttsnn_stream_active_sessions",
                    &[("plan", plan), ("replica", &r)],
                    n as f64,
                );
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_stream_resident_state_bytes",
            "gauge",
            "Resident LIF membrane-state bytes per replica.",
        );
        for (plan, m) in plans {
            for (i, &n) in m.sessions.resident_state_bytes.iter().enumerate() {
                let r = i.to_string();
                f.sample(
                    "ttsnn_stream_resident_state_bytes",
                    &[("plan", plan), ("replica", &r)],
                    n as f64,
                );
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_replica_arena_bytes",
            "gauge",
            "Bytes parked in each replica thread's scratch arena at its last scheduler heartbeat.",
        );
        for (plan, m) in plans {
            for (i, &n) in m.replica_arena_bytes.iter().enumerate() {
                let r = i.to_string();
                f.sample("ttsnn_replica_arena_bytes", &[("plan", plan), ("replica", &r)], n as f64);
            }
        }
    }
    out
}

/// Renders the process-level families the `/metrics` page appends after
/// the per-plan snapshot: the build-info gauge (with the kernel lane
/// set the process resolved as `kernel_lanes`), the uptime counter, and
/// the request-lifecycle per-stage latency histograms maintained by
/// `ttsnn_obs` (the stage attribution half of the tracing tentpole —
/// `admit` / `queue_wait` / `batch_form` / `execute` / `serialize` /
/// `write`, aggregated across every plan).
pub fn render_process(uptime: Duration) -> String {
    let mut out = String::new();
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_build_info",
            "gauge",
            "Build metadata as labels; the value is always 1.",
        );
        let git_sha = option_env!("TTSNN_GIT_SHA").unwrap_or("unknown");
        let labels = [
            ("version", env!("CARGO_PKG_VERSION")),
            ("git_sha", git_sha),
            ("kernel_lanes", ttsnn_tensor::runtime::lanes()),
        ];
        f.sample("ttsnn_build_info", &labels, 1.0);
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_uptime_seconds",
            "counter",
            "Seconds since the serving listener bound.",
        );
        f.sample("ttsnn_uptime_seconds", &[], uptime.as_secs_f64());
    }
    let stages = ttsnn_obs::stage_snapshot();
    let series: Vec<_> = stages.iter().map(|(stage, h)| (("stage", stage.name()), h)).collect();
    histogram(
        &mut out,
        "ttsnn_stage_latency_seconds",
        "Per-request latency attributed to each lifecycle stage.",
        &series,
    );
    out
}

/// Renders the telemetry-plane families the `/metrics` page appends
/// after the process families: the watchdog health gauge (from the
/// router's health board, so every mounted plan has a series even
/// before the first sampler tick), the multi-window SLO burn rates,
/// availability and budget-remaining gauges, and the per-replica
/// scheduler-heartbeat ages the watchdog keys on. `HELP`/`TYPE` headers
/// are emitted unconditionally so the families exist on every scrape.
pub fn render_telemetry(
    health: &[(String, HealthReport)],
    plans: &[(String, PlanStatus)],
) -> String {
    let mut out = String::new();
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_health_state",
            "gauge",
            "Watchdog health per plan: 0 healthy, 1 degraded, 2 unhealthy.",
        );
        for (plan, report) in health {
            f.sample("ttsnn_health_state", &[("plan", plan)], report.state.code() as f64);
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_slo_burn_rate",
            "gauge",
            "SLO error-budget burn rate over each trailing window (1.0 = sustainable pace).",
        );
        for (plan, status) in plans {
            for &(window, burn) in &status.slo.burn {
                f.sample("ttsnn_slo_burn_rate", &[("plan", plan), ("window", window)], burn);
            }
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_slo_availability",
            "gauge",
            "Good-event fraction over the slow burn window (1.0 when idle).",
        );
        for (plan, status) in plans {
            f.sample("ttsnn_slo_availability", &[("plan", plan)], status.slo.availability);
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_slo_error_budget_remaining",
            "gauge",
            "1 - slow-window burn rate; negative when over budget.",
        );
        for (plan, status) in plans {
            f.sample(
                "ttsnn_slo_error_budget_remaining",
                &[("plan", plan)],
                status.slo.budget_remaining,
            );
        }
    }
    {
        let mut f = Family::new(
            &mut out,
            "ttsnn_replica_heartbeat_age_seconds",
            "gauge",
            "Age of each replica's last scheduler-loop heartbeat at the last telemetry tick.",
        );
        for (plan, status) in plans {
            for (i, age) in status.heartbeat_age.iter().enumerate() {
                if let Some(age) = age {
                    let replica = i.to_string();
                    f.sample(
                        "ttsnn_replica_heartbeat_age_seconds",
                        &[("plan", plan), ("replica", &replica)],
                        age.as_secs_f64(),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_spell_infinities_the_prometheus_way() {
        assert_eq!(value(f64::INFINITY), "+Inf");
        assert_eq!(value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(value(0.0025), "0.0025");
        assert_eq!(value(3.0), "3");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain-name"), "plain-name");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut out = String::new();
        let mut f = Family::new(&mut out, "x_total", "counter", "Test.");
        f.sample("x_total", &[("plan", "we\"ird\n")], 1.0);
        assert!(out.ends_with("x_total{plan=\"we\\\"ird\\n\"} 1\n"));
    }

    #[test]
    fn telemetry_families_render_headers_even_when_empty() {
        let page = render_telemetry(&[], &[]);
        for family in [
            "ttsnn_health_state",
            "ttsnn_slo_burn_rate",
            "ttsnn_slo_availability",
            "ttsnn_slo_error_budget_remaining",
            "ttsnn_replica_heartbeat_age_seconds",
        ] {
            assert!(page.contains(&format!("# TYPE {family} gauge")), "{family}:\n{page}");
        }

        use ttsnn_obs::watchdog::{HealthReport, HealthState};
        let report = HealthReport { state: HealthState::Degraded, reason: "misses".into() };
        let health = vec![("p".to_string(), report.clone())];
        let mut slo = ttsnn_obs::slo::SloStatus::idle();
        slo.burn = vec![("5m", 1.5), ("1h", 0.5), ("6h", 0.25)];
        let plans = vec![(
            "p".to_string(),
            PlanStatus {
                health: report,
                slo,
                heartbeat_age: vec![Some(Duration::from_millis(500)), None],
            },
        )];
        let page = render_telemetry(&health, &plans);
        assert!(page.contains("ttsnn_health_state{plan=\"p\"} 1"), "{page}");
        assert!(page.contains("ttsnn_slo_burn_rate{plan=\"p\",window=\"5m\"} 1.5"), "{page}");
        assert!(page.contains("ttsnn_slo_availability{plan=\"p\"} 1"), "{page}");
        assert!(
            page.contains("ttsnn_replica_heartbeat_age_seconds{plan=\"p\",replica=\"0\"} 0.5"),
            "{page}"
        );
        // A replica with no heartbeat yet has no series.
        assert!(!page.contains("replica=\"1\""), "{page}");
    }

    /// The exact exposition of one histogram family: a value on an edge,
    /// one between edges and one past the last edge.
    #[test]
    fn histogram_family_bytes_are_pinned() {
        let mut h = Histogram::new(&ttsnn_infer::metrics::LATENCY_EDGES_SECS);
        for v in [0.0001, 0.0025, 0.003, 12.5] {
            h.record(v);
        }
        let mut out = String::new();
        histogram(&mut out, "x_seconds", "Test.", &[(("plan", "p"), &h)]);
        assert_eq!(
            out,
            "# HELP x_seconds Test.\n# TYPE x_seconds histogram\n\
             x_seconds_bucket{plan=\"p\",le=\"0.0001\"} 1\n\
             x_seconds_bucket{plan=\"p\",le=\"0.00025\"} 1\n\
             x_seconds_bucket{plan=\"p\",le=\"0.0005\"} 1\n\
             x_seconds_bucket{plan=\"p\",le=\"0.001\"} 1\n\
             x_seconds_bucket{plan=\"p\",le=\"0.0025\"} 2\n\
             x_seconds_bucket{plan=\"p\",le=\"0.005\"} 3\n\
             x_seconds_bucket{plan=\"p\",le=\"0.01\"} 3\n\
             x_seconds_bucket{plan=\"p\",le=\"0.025\"} 3\n\
             x_seconds_bucket{plan=\"p\",le=\"0.1\"} 3\n\
             x_seconds_bucket{plan=\"p\",le=\"0.5\"} 3\n\
             x_seconds_bucket{plan=\"p\",le=\"2\"} 3\n\
             x_seconds_bucket{plan=\"p\",le=\"10\"} 3\n\
             x_seconds_bucket{plan=\"p\",le=\"+Inf\"} 4\n\
             x_seconds_sum{plan=\"p\"} 12.5056\n\
             x_seconds_count{plan=\"p\"} 4\n"
        );
    }

    #[test]
    fn family_emits_headers_and_labelled_samples() {
        let mut out = String::new();
        let mut f = Family::new(&mut out, "x_total", "counter", "Test.");
        f.sample("x_total", &[("plan", "a"), ("state", "served")], 2.0);
        f.sample("x_total", &[], 1.0);
        assert_eq!(
            out,
            "# HELP x_total Test.\n# TYPE x_total counter\n\
             x_total{plan=\"a\",state=\"served\"} 2\nx_total 1\n"
        );
    }
}
