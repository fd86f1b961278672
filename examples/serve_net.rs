//! Network serving quickstart: mount a frozen plan behind a TCP
//! listener, speak the length-prefixed wire protocol from a client, and
//! scrape the Prometheus metrics endpoint — all over a loopback socket
//! in one process.
//!
//! The network plane adds tenancy to the serving story: the request
//! carries a tenant id, priority, and deadline, the fair-queueing
//! policy arbitrates between tenants under load, and the `/metrics`
//! page breaks counters out per tenant. The logits that come back are
//! bit-identical to an in-process [`tt_snn::infer::Cluster`] call —
//! the socket is transport, never arithmetic.
//!
//! ```sh
//! cargo run --release --example serve_net
//! ```

use std::time::Duration;

use tt_snn::core::TtMode;
use tt_snn::infer::ClusterConfig;
use tt_snn::infer::{ArchSpec, EngineConfig, FairPolicy, Priority, RateLimit, TenantPolicy};
use tt_snn::obs::timeseries::TelemetryConfig;
use tt_snn::serve::wire::{Request, Status};
use tt_snn::serve::{http_get, Client, PlanSpec, Router, Server, ServerConfig, TelemetryOptions};
use tt_snn::snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use tt_snn::tensor::{Rng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(7);
    let timesteps = 2usize;

    // ---- A frozen plan: random-init here; a real deployment loads
    // whatever `train`/`ShardedTrainer` checkpointed.
    let cfg = VggConfig::vgg9(3, 4, (8, 8), 16);
    let policy = ConvPolicy::tt(TtMode::Ptt);
    let model = VggSnn::new(cfg.clone(), &policy, &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt)?;

    // ---- Tenancy policy: tenant 1 gets 3x the fair-queue weight of the
    // default tenant, tenant 7 is rate-limited to 2 requests/s.
    let fair = FairPolicy::default()
        .with_tenant(1, TenantPolicy::weighted(3.0))
        .with_tenant(7, TenantPolicy::weighted(1.0).with_rate(RateLimit::new(2.0, 2.0)));
    let config =
        ClusterConfig::new(EngineConfig::new(ArchSpec::Vgg(cfg), policy, timesteps).merged())
            .with_fair(fair);

    // ---- Bind the serving plane on an ephemeral loopback port.
    let router = Router::load(vec![PlanSpec {
        name: "vgg-demo".into(),
        config,
        quant: None,
        checkpoint: ckpt,
    }])?;
    // Sample telemetry every 50 ms so the demo has history to show
    // before it exits (production keeps the 5 s default).
    let telemetry = TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(50), slots: 128 },
        ..Default::default()
    };
    let server = Server::bind(ServerConfig { telemetry, ..Default::default() }, router)?;
    let addr = server.addr();
    println!("serving plan \"vgg-demo\" on {addr}");

    // ---- A wire client: tenant 1, High priority, 5 s deadline.
    let mut client = Client::connect(addr)?;
    let input = Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng);
    let resp = client.request(&Request {
        trace: 0, // 0 = let the server mint a trace id; it comes back in the response
        tenant: 1,
        priority: Priority::High,
        deadline_ms: 5_000,
        plan: "vgg-demo".into(),
        input,
    })?;
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    println!("tenant 1 served {} logits over TCP: {:?}", resp.logits.len(), resp.logits);

    // ---- Every request is traced end to end: pull the stage spans back
    // out as Chrome trace-event JSON (paste into Perfetto to visualize).
    if resp.trace != 0 {
        let (code, trace_json) = http_get(addr, &format!("/trace?id={}", resp.trace))?;
        println!("\nGET /trace?id={} -> {code} ({} bytes)", resp.trace, trace_json.len());
        let (_, flight) = http_get(addr, "/debug/requests")?;
        println!("GET /debug/requests:\n{flight}");
    }

    // ---- An unknown plan is an in-band error, not a dropped connection.
    let bad = client.request(&Request {
        trace: 0,
        tenant: 1,
        priority: Priority::Normal,
        deadline_ms: 0,
        plan: "no-such-plan".into(),
        input: Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng),
    })?;
    println!("unknown plan -> {:?} ({})", bad.status, bad.message);

    // ---- Scrape the Prometheus endpoint like a monitoring agent would.
    let (code, metrics) = http_get(addr, "/metrics")?;
    assert_eq!(code, 200);
    let shown: Vec<&str> = metrics
        .lines()
        .filter(|l| l.contains("tenant=\"1\"") || l.starts_with("ttsnn_queue_depth"))
        .collect();
    println!("\nGET /metrics ({} bytes); tenant-1 series:", metrics.len());
    for line in shown {
        println!("  {line}");
    }
    let (code, body) = http_get(addr, "/healthz")?;
    println!("GET /healthz -> {code} {}", body.trim());

    // ---- The continuous telemetry plane: wait for a sampler tick, then
    // browse the SLO dashboard and one history series as sparkline.
    // (The demo server samples every 50 ms; production defaults to 5 s.)
    let shared = server.telemetry();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while shared.ticks() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let (code, slo) = http_get(addr, "/debug/slo")?;
    assert_eq!(code, 200);
    println!("\nGET /debug/slo:\n{slo}");
    let series = "plan/vgg-demo/served_total";
    let (code, timeline) = http_get(addr, &format!("/debug/timeline?series={series}"))?;
    assert_eq!(code, 200);
    println!("GET /debug/timeline?series={series}:\n{timeline}");
    Ok(())
}
