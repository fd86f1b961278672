//! The flight recorder under a flood of admission rejections, in a process
//! of its own: the flood pushes far more completions through the
//! process-wide recorder than it keeps (`ttsnn_obs::RECENT_COMPLETIONS`),
//! which would evict the completion another test in the same binary looks
//! for (`trace.rs`'s `served_request_yields_a_retrievable_trace`).

use std::time::Duration;

use ttsnn_core::TtMode;
use ttsnn_infer::{ClusterConfig, FairPolicy, Priority, RateLimit, TenantPolicy};
use ttsnn_obs::timeseries::TelemetryConfig;
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{http_get, Client, PlanSpec, Router, Server, ServerConfig, TelemetryOptions};
use ttsnn_snn::ConvPolicy;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;

fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::Ptt)
}

fn cluster_config(max_batch: usize) -> ClusterConfig {
    vgg_cluster_config(policy(), T, 1, max_batch, Duration::from_millis(1))
}

fn request(plan: &str, tenant: u32, input: ttsnn_tensor::Tensor) -> Request {
    Request {
        trace: 0,
        tenant,
        priority: Priority::Normal,
        deadline_ms: 0,
        plan: plan.into(),
        input,
    }
}

/// The telemetry sampler at a hot 25 ms × 256 tick, as in `trace.rs`.
fn fast_telemetry() -> TelemetryOptions {
    TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(25), slots: 256 },
        ..Default::default()
    }
}

/// Admission rejections land in the trace stream with their structured
/// reason, and hammering the server with rejected requests leaves every
/// bounded structure bounded — ring buffers, flight recorder, and the
/// per-request trace all stay within their caps.
#[test]
fn rejected_requests_are_traced_and_never_leak() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 93);
    let input = samples(94, 1).remove(0);
    // Tenant 8 gets one token and ~no refill: the first request is
    // served, everything after is rejected at admission.
    let fair = FairPolicy::default().with_tenant(
        8,
        TenantPolicy::default().with_rate(RateLimit { per_sec: 0.001, burst: 1.0 }),
    );
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: cluster_config(2).with_fair(fair),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let server = Server::bind(
        ServerConfig { workers: 2, telemetry: fast_telemetry(), ..Default::default() },
        router,
    )
    .unwrap();
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    let resp = client.request(&request("vgg", 8, input.clone())).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);

    // Far more rejections than the flight recorder keeps.
    let rounds = ttsnn_obs::RECENT_COMPLETIONS + 40;
    let mut last_trace = 0;
    for _ in 0..rounds {
        let resp = client.request(&request("vgg", 8, input.clone())).unwrap();
        assert_eq!(resp.status, Status::RateLimited, "{}", resp.message);
        assert_ne!(resp.trace, 0, "rejections are traced too");
        last_trace = resp.trace;
    }

    // The rejection is visible as a structured event in its trace...
    let (code, json) = http_get(addr, &format!("/trace?id={last_trace}")).unwrap();
    assert_eq!(code, 200, "rejected trace export: {json}");
    assert!(json.contains("\"name\":\"rejected\""), "missing rejected event:\n{json}");
    assert!(json.contains("\"reason\":\"rate_limited\",\"tenant\":8"), "{json}");

    // ...and in the flight recorder, which stays at its cap instead of
    // growing with the rejection volume.
    let (_, text) = http_get(addr, "/debug/requests").unwrap();
    assert!(text.contains("status=rejected_rate_limited"), "{text}");
    let recent = ttsnn_obs::completions();
    assert!(
        recent.len() <= ttsnn_obs::RECENT_COMPLETIONS,
        "flight recorder leaked: {} completions kept",
        recent.len()
    );
    // Ring buffers overwrite; a single rejected trace holds a handful of
    // events (admit + rejected + serialize + write), never a ring's worth.
    let events = ttsnn_obs::trace_events(last_trace);
    assert!(!events.is_empty() && events.len() < 16, "unexpected event count {}", events.len());
}
