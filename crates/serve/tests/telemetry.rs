//! The continuous telemetry plane, end to end over real sockets.
//!
//! The headline test drives one plan through a full incident arc —
//! healthy → saturated with deadline-missing traffic → recovered —
//! observing every transition through the HTTP surface alone: burn
//! rates rise on `/debug/slo`, `/healthz` flips to 503 with the
//! watchdog's reason and back to 200, and `ttsnn_health_state`
//! transitions 0 → 2 → 0 on `/metrics`. Alongside: served logits stay
//! bit-identical with the sampler on vs off, and dropping the server
//! joins the sampler thread (its tick counter freezes).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ttsnn_core::TtMode;
use ttsnn_infer::{ClusterConfig, Priority};
use ttsnn_obs::slo::SloSpec;
use ttsnn_obs::timeseries::TelemetryConfig;
use ttsnn_obs::watchdog::WatchdogConfig;
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{http_get, Client, PlanSpec, Router, Server, ServerConfig, TelemetryOptions};
use ttsnn_snn::ConvPolicy;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;

fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::Ptt)
}

/// A deliberately slow plan, its cost set by `timesteps` (one forward pass
/// in this suite's test build on a 2-vCPU AVX2 host: ≈ 2 ms at 12, ≈ 14 ms
/// at 96): queued 1 ms deadlines reliably expire behind it.
fn slow_plan(timesteps: usize) -> (Vec<u8>, ClusterConfig) {
    use ttsnn_snn::{checkpoint, SpikingModel, VggConfig, VggSnn};
    let cfg = VggConfig::vgg9(3, 10, (32, 32), 16);
    let model = VggSnn::new(cfg.clone(), &policy(), &mut ttsnn_tensor::Rng::seed_from(7));
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt).expect("serialize checkpoint");
    let config = ClusterConfig::new(
        ttsnn_infer::EngineConfig::new(ttsnn_infer::ArchSpec::Vgg(cfg), policy(), timesteps)
            .with_batching(ttsnn_infer::BatchPolicy { max_batch: 1, max_wait: Duration::ZERO }),
    )
    .with_replicas(1);
    (ckpt, config)
}

fn request(plan: &str, tenant: u32, deadline_ms: u32, input: ttsnn_tensor::Tensor) -> Request {
    Request { trace: 0, tenant, priority: Priority::Normal, deadline_ms, plan: plan.into(), input }
}

/// Fast sampler + tight watchdog so the whole arc fits in CI seconds.
fn fast_telemetry() -> TelemetryOptions {
    TelemetryOptions {
        enabled: true,
        timeseries: TelemetryConfig { resolution: Duration::from_millis(25), slots: 256 },
        // 90% of events good within 5 ms — a threshold the slow plan
        // cannot meet under deadline-missing flood traffic.
        slo: SloSpec { latency: Duration::from_millis(5), target: 0.9 },
        watchdog: WatchdogConfig {
            // Keep the stall and heartbeat detectors out of this test's
            // way: the miss streak is the condition under test.
            stall_samples: 1_000_000,
            miss_streak_degraded: 2,
            miss_streak_unhealthy: 4,
            eviction_storm: 1_000_000,
            heartbeat_stale: Duration::from_secs(600),
            recovery_samples: 2,
        },
    }
}

fn poll_healthz(addr: std::net::SocketAddr, want: u16, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Ok((code, body)) = http_get(addr, "/healthz") {
            if code == want {
                return Some(body);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

/// Healthy → unhealthy → recovered, observed via HTTP alone.
#[test]
fn health_arc_is_visible_over_http() {
    // 96 timesteps (≈ 14 ms a pass): a queued flood request waits far
    // longer than its 1 ms deadline, and no pass fits the 5 ms objective.
    // At 12 a pass had come down to ≈ 2 ms (≈ 10 ms when the plan was
    // sized), inside the objective the flood is meant to miss.
    let (ckpt, config) = slow_plan(96);
    let mut rng = ttsnn_tensor::Rng::seed_from(91);
    let inputs: Vec<ttsnn_tensor::Tensor> =
        (0..4).map(|_| ttsnn_tensor::Tensor::randn(&[3, 32, 32], &mut rng)).collect();
    let router = Router::load(vec![PlanSpec {
        name: "vgg-slow".into(),
        config,
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let server = Server::bind(
        ServerConfig { workers: 6, telemetry: fast_telemetry(), ..Default::default() },
        router,
    )
    .unwrap();
    let addr = server.addr();

    // Phase 1 — healthy: a few served requests, probe answers 200/ok.
    let mut client = Client::connect(addr).unwrap();
    let baseline: Vec<Vec<u32>> = inputs
        .iter()
        .map(|x| {
            let resp = client.request(&request("vgg-slow", 1, 0, x.clone())).unwrap();
            assert_eq!(resp.status, Status::Ok, "{}", resp.message);
            resp.logits.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let body = poll_healthz(addr, 200, Duration::from_secs(5)).expect("healthy probe");
    assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"health\":\"healthy\""), "{body}");

    // Phase 2 — flood with 1 ms deadlines: queued requests expire every
    // tick, the miss streak trips the watchdog, the probe flips to 503.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for worker in 0..3u32 {
            let stop = &stop;
            let flood = inputs[worker as usize % inputs.len()].clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    // Expired and served alike — what matters is that
                    // every sampler tick sees fresh deadline misses.
                    let _ = client.request(&request("vgg-slow", 2 + worker, 1, flood.clone()));
                }
            });
        }

        let body =
            poll_healthz(addr, 503, Duration::from_secs(20)).expect("flood flips /healthz to 503");
        assert!(body.contains("\"status\":\"unhealthy\""), "{body}");
        assert!(body.contains("\"reason\":\""), "carries the watchdog reason: {body}");
        assert!(body.contains("deadline-miss"), "names the condition: {body}");

        // The burn is visible on /debug/slo and /metrics while it burns.
        let (code, slo_page) = http_get(addr, "/debug/slo").unwrap();
        assert_eq!(code, 200);
        assert!(slo_page.contains("slo objective: 90.00%"), "{slo_page}");
        assert!(slo_page.contains("plan vgg-slow: unhealthy"), "{slo_page}");
        assert!(slo_page.contains("[page]"), "health transition paged: {slo_page}");
        let (_, metrics) = http_get(addr, "/metrics").unwrap();
        assert!(metrics.contains("ttsnn_health_state{plan=\"vgg-slow\"} 2"), "{metrics}");
        let burn_5m = metrics
            .lines()
            .find(|l| l.starts_with("ttsnn_slo_burn_rate{plan=\"vgg-slow\",window=\"5m\"}"))
            .and_then(|l| l.rsplit_once(' '))
            .map(|(_, v)| v.parse::<f64>().unwrap())
            .expect("burn-rate series present");
        assert!(burn_5m > 1.0, "fast window burns over budget: {burn_5m}");

        stop.store(true, Ordering::Relaxed);
    });

    // Phase 3 — recovered: misses stop, hysteresis steps the plan back
    // down to healthy, the probe returns to 200/ok.
    let body = poll_healthz(addr, 200, Duration::from_secs(20)).expect("probe recovers to 200");
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut body = body;
    while !body.starts_with("{\"status\":\"ok\"") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        body = http_get(addr, "/healthz").unwrap().1;
    }
    assert!(body.starts_with("{\"status\":\"ok\""), "fully healthy again: {body}");
    let (_, metrics) = http_get(addr, "/metrics").unwrap();
    assert!(metrics.contains("ttsnn_health_state{plan=\"vgg-slow\"} 0"), "{metrics}");
    // The recovery was evented too.
    let (_, slo_page) = http_get(addr, "/debug/slo").unwrap();
    assert!(slo_page.contains("health recovered"), "{slo_page}");

    // The incident changed nothing about the bits.
    let mut client = Client::connect(addr).unwrap();
    for (x, expected) in inputs.iter().zip(&baseline) {
        let resp = client.request(&request("vgg-slow", 1, 0, x.clone())).unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", resp.message);
        let got: Vec<u32> = resp.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(&got, expected, "logits bit-identical after the incident");
    }
}

/// Served logits are bit-identical with the sampler on vs off.
#[test]
fn logits_bit_identical_sampler_on_vs_off() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 95);
    let inputs = samples(96, 5);
    let config = || vgg_cluster_config(policy(), T, 1, 4, Duration::from_millis(1));
    let mount = |ckpt: Vec<u8>| {
        Router::load(vec![PlanSpec {
            name: "vgg".into(),
            config: config(),
            quant: None,
            checkpoint: ckpt,
        }])
        .unwrap()
    };
    let on = TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(5), slots: 64 },
        ..Default::default()
    };
    let off = TelemetryOptions { enabled: false, ..Default::default() };
    let server_on = Server::bind(
        ServerConfig { workers: 2, telemetry: on, ..Default::default() },
        mount(ckpt.clone()),
    )
    .unwrap();
    let server_off = Server::bind(
        ServerConfig { workers: 2, telemetry: off, ..Default::default() },
        mount(ckpt),
    )
    .unwrap();

    let bits = |addr: std::net::SocketAddr| -> Vec<Vec<u32>> {
        let mut client = Client::connect(addr).unwrap();
        inputs
            .iter()
            .map(|x| {
                let resp = client
                    .request(&Request {
                        trace: 0,
                        tenant: 1,
                        priority: Priority::Normal,
                        deadline_ms: 0,
                        plan: "vgg".into(),
                        input: x.clone(),
                    })
                    .unwrap();
                assert_eq!(resp.status, Status::Ok, "{}", resp.message);
                resp.logits.iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    };
    let with_sampler = bits(server_on.addr());
    let without = bits(server_off.addr());
    assert_eq!(with_sampler, without, "sampler on vs off must not change a logit bit");

    // The on-server really sampled; the off-server really didn't.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server_on.telemetry().ticks() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server_on.telemetry().ticks() >= 2, "sampler ticked");
    assert_eq!(server_off.telemetry().ticks(), 0, "disabled plane never ticks");
    assert!(server_off.telemetry().store().is_empty());
}

/// `Server::drop` joins the sampler: the tick counter freezes and the
/// history stays readable through the surviving `Arc`.
#[test]
fn sampler_joins_cleanly_on_server_drop() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 97);
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: vgg_cluster_config(policy(), T, 1, 2, Duration::from_millis(1)),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let telemetry = TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(5), slots: 64 },
        ..Default::default()
    };
    let server =
        Server::bind(ServerConfig { workers: 1, telemetry, ..Default::default() }, router).unwrap();
    let shared = server.telemetry();
    let deadline = Instant::now() + Duration::from_secs(5);
    while shared.ticks() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(shared.ticks() >= 3, "sampler is live");
    drop(server);
    let frozen = shared.ticks();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(shared.ticks(), frozen, "sampler joined on drop; no further ticks");
    // Frozen, but still readable: the rings survived the server.
    assert!(!shared.store().is_empty());
    assert!(shared.store().snapshot("plan/vgg/queue_depth").is_some());
    assert_eq!(shared.plan_status().len(), 1);
}

/// The timeline endpoint lists series, renders sparklines, and 404s on
/// unknown names; `/healthz?verbose=1` carries per-plan detail.
#[test]
fn timeline_and_verbose_healthz_render() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 99);
    let input = samples(98, 1).remove(0);
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: vgg_cluster_config(policy(), T, 1, 2, Duration::from_millis(1)),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let telemetry = TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(10), slots: 64 },
        ..Default::default()
    };
    let server =
        Server::bind(ServerConfig { workers: 2, telemetry, ..Default::default() }, router).unwrap();
    let addr = server.addr();
    let shared = server.telemetry();

    let mut client = Client::connect(addr).unwrap();
    let resp = client.request(&request("vgg", 3, 0, input)).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    let first = shared.ticks();
    let deadline = Instant::now() + Duration::from_secs(5);
    while shared.ticks() < first + 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    let (code, listing) = http_get(addr, "/debug/timeline").unwrap();
    assert_eq!(code, 200);
    for needle in
        ["plan/vgg/served_total", "plan/vgg/queue_depth", "stage/execute/count", "resolution"]
    {
        assert!(listing.contains(needle), "timeline listing missing {needle}:\n{listing}");
    }
    let (code, view) = http_get(addr, "/debug/timeline?series=plan/vgg/served_total").unwrap();
    assert_eq!(code, 200);
    assert!(view.contains("per-tick increase"), "{view}");
    assert!(view.contains("min "), "{view}");
    let (code, _) = http_get(addr, "/debug/timeline?series=nope").unwrap();
    assert_eq!(code, 404);

    let (code, body) = http_get(addr, "/healthz?verbose=1").unwrap();
    assert_eq!(code, 200);
    for needle in ["\"health\":\"healthy\"", "\"reason\":\"\"", "\"outstanding\":"] {
        assert!(body.contains(needle), "verbose healthz missing {needle}: {body}");
    }

    // /debug/slo renders even in the quiet case.
    let (code, slo_page) = http_get(addr, "/debug/slo").unwrap();
    assert_eq!(code, 200);
    assert!(slo_page.contains("plan vgg: healthy"), "{slo_page}");
    assert!(slo_page.contains("budget remaining"), "{slo_page}");
}

/// Options the sampler cannot run under are refused at bind, like zero
/// workers: a zero tick would re-snapshot every plan in a hot loop, and a
/// target outside (0, 1) leaves no error budget to measure burn against.
#[test]
fn bind_rejects_unusable_telemetry_options() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 93);
    let target = |target| TelemetryOptions {
        slo: SloSpec { target, ..SloSpec::default() },
        ..Default::default()
    };
    let zero_tick = TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::ZERO, slots: 64 },
        ..Default::default()
    };
    for telemetry in
        [zero_tick, target(0.0), target(1.0), target(-0.5), target(1.5), target(f64::NAN)]
    {
        let router = Router::load(vec![PlanSpec {
            name: "vgg".into(),
            config: vgg_cluster_config(policy(), T, 1, 2, Duration::from_millis(1)),
            quant: None,
            checkpoint: ckpt.clone(),
        }])
        .unwrap();
        let config =
            ServerConfig { workers: 1, telemetry: telemetry.clone(), ..Default::default() };
        match Server::bind(config, router) {
            Ok(_) => panic!("bound with {telemetry:?}"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{telemetry:?}: {e}"),
        }
    }
}
