//! Loopback tests: the full network serving plane over real sockets.
//!
//! The headline property: logits served over TCP are **bit-identical**
//! to an in-process submission against a separately loaded cluster of
//! the same checkpoint — across concurrent client connections, worker
//! threads and plans (f32 **and** int8); the serving matrix
//! (`matrix.rs`) adds kernel thread counts and 1 and 3 replicas. On top of
//! that:
//! malformed, oversized, and protocol-violating frames are answered
//! in-band without killing the connection; deadline expiry and
//! saturation/rate-limit rejections travel as structured retryable
//! statuses; and `GET /metrics` serves valid Prometheus text exposition
//! with the per-tenant counters visible.

use std::time::Duration;

use ttsnn_core::TtMode;
use ttsnn_infer::{
    ClusterConfig, FairPolicy, Priority, QuantSpec, RateLimit, SubmitOptions, TenantPolicy,
};
use ttsnn_obs::timeseries::TelemetryConfig;
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{http_get, Client, PlanSpec, Router, Server, ServerConfig, TelemetryOptions};
use ttsnn_snn::ConvPolicy;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;

fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::Ptt)
}

/// A deliberately *slow* plan, its cost set by `timesteps` (one forward
/// pass in this suite's test build on a 2-vCPU AVX2 host: ≈ 2 ms at 12,
/// ≈ 14 ms at 96, ≈ 35 ms at 240): big enough frames that a handful of
/// queued requests reliably outlive the millisecond-scale deadlines and
/// sleeps the overload tests race against.
fn slow_plan(timesteps: usize) -> (Vec<u8>, ClusterConfig, [usize; 3]) {
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
    (ckpt, config, [3, 32, 32])
}

fn slow_inputs(n: usize, seed: u64) -> Vec<ttsnn_tensor::Tensor> {
    let mut rng = ttsnn_tensor::Rng::seed_from(seed);
    (0..n).map(|_| ttsnn_tensor::Tensor::randn(&[3, 32, 32], &mut rng)).collect()
}

/// The suite's plan on two replicas.
fn cluster_config(timesteps: usize, max_batch: usize) -> ClusterConfig {
    vgg_cluster_config(policy(), timesteps, 2, max_batch, Duration::from_millis(1))
}

fn request(plan: &str, tenant: u32, priority: Priority, input: ttsnn_tensor::Tensor) -> Request {
    Request { trace: 0, tenant, priority, deadline_ms: 0, plan: plan.into(), input }
}

/// The telemetry sampler at a hot 25 ms × 256 tick: every test here also
/// checks that sampling beside the serving threads moves no logit bit.
fn fast_telemetry() -> TelemetryOptions {
    TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(25), slots: 256 },
        ..Default::default()
    }
}

/// Socket answers == in-process answers, bit for bit, on both planes.
#[test]
fn socket_parity_with_in_process_cluster_f32_and_int8() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 11);
    let calibration = samples(12, 4);
    let inputs = samples(13, 6);

    // In-process reference: clusters loaded *separately* from the same
    // checkpoint (the determinism contract makes load order, batching,
    // and concurrent traffic irrelevant to the bits).
    let expected = |quant: Option<QuantSpec>| -> Vec<Vec<u32>> {
        let cluster = match quant {
            Some(q) => {
                ttsnn_infer::Cluster::load_quantized(cluster_config(T, 4), q, ckpt.as_slice())
            }
            None => ttsnn_infer::Cluster::load(cluster_config(T, 4), ckpt.as_slice()),
        }
        .expect("load reference cluster");
        let session = cluster.session();
        inputs
            .iter()
            .map(|x| {
                session
                    .infer(x.clone())
                    .expect("reference inference")
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    };
    let expected_f32 = expected(None);
    let expected_int8 = expected(Some(QuantSpec::new(calibration.clone())));

    let router = Router::load(vec![
        PlanSpec {
            name: "vgg-f32".into(),
            config: cluster_config(T, 4),
            quant: None,
            checkpoint: ckpt.clone(),
        },
        PlanSpec {
            name: "vgg-int8".into(),
            config: cluster_config(T, 4),
            quant: Some(QuantSpec::new(calibration)),
            checkpoint: ckpt.clone(),
        },
    ])
    .expect("mount plans");
    let server = Server::bind(
        ServerConfig { workers: 3, telemetry: fast_telemetry(), ..Default::default() },
        router,
    )
    .expect("bind server");
    let addr = server.addr();

    // Three concurrent client connections per plan, mixed priorities and
    // tenants, every response compared bit-for-bit.
    std::thread::scope(|scope| {
        for (plan, expected) in [("vgg-f32", &expected_f32), ("vgg-int8", &expected_int8)] {
            for client_id in 0..3u32 {
                let inputs = &inputs;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for (i, input) in inputs.iter().enumerate() {
                        if i as u32 % 3 != client_id {
                            continue;
                        }
                        let priority = Priority::ALL[i % 3];
                        let resp = client
                            .request(&request(plan, client_id, priority, input.clone()))
                            .expect("request");
                        assert_eq!(resp.status, Status::Ok, "{plan}: {}", resp.message);
                        let got: Vec<u32> = resp.logits.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            got, expected[i],
                            "{plan} sample {i}: socket logits must be bit-identical"
                        );
                    }
                });
            }
        }
    });

    // The HTTP side: health probe (JSON readiness body, still 200-on-live)
    // and a valid Prometheus exposition with the per-tenant and histogram
    // series present.
    let (code, body) = http_get(addr, "/healthz").expect("healthz");
    assert_eq!(code, 200);
    assert!(body.starts_with("{\"status\":\"ok\""), "healthz is JSON-ish: {body}");
    for needle in
        ["\"uptime_seconds\":", "\"name\":\"vgg-f32\"", "\"replicas\":", "\"queue_depth\":"]
    {
        assert!(body.contains(needle), "healthz body missing {needle:?}: {body}");
    }
    let (code, page) = http_get(addr, "/metrics").expect("scrape");
    assert_eq!(code, 200);
    for needle in [
        "# TYPE ttsnn_requests_total counter",
        "# TYPE ttsnn_tenant_requests_total counter",
        "# TYPE ttsnn_request_latency_seconds histogram",
        "ttsnn_tenant_requests_total{plan=\"vgg-f32\",tenant=\"0\",state=\"served\"}",
        "ttsnn_request_latency_seconds_bucket{plan=\"vgg-int8\",le=\"+Inf\"}",
        "ttsnn_request_latency_seconds_count{plan=\"vgg-f32\"}",
        "# TYPE ttsnn_stream_sessions_total counter",
    ] {
        assert!(page.contains(needle), "metrics page missing {needle:?}:\n{page}");
    }
    // Every sample line must parse as `name{labels} value`.
    for line in page.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (series, v) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(v == "+Inf" || v.parse::<f64>().is_ok(), "unparsable value in line: {line}");
        assert!(!series.is_empty());
    }
    let (code, _) = http_get(addr, "/nope").expect("404 path");
    assert_eq!(code, 404);
}

/// Malformed, oversized, protocol-violating and old-version frames each
/// cost one error response — the same connection then serves a real
/// request, bit-identical to in-process.
#[test]
fn bad_frames_do_not_kill_the_connection() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 21);
    let input = samples(22, 1).remove(0);
    let reference = {
        let cluster = ttsnn_infer::Cluster::load(cluster_config(T, 2), ckpt.as_slice()).unwrap();
        cluster.session().infer(input.clone()).unwrap()
    };
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: cluster_config(T, 2),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let server = Server::bind(
        ServerConfig {
            workers: 2,
            max_frame_bytes: 4096,
            telemetry: fast_telemetry(),
            ..Default::default()
        },
        router,
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Garbage body of a plausible length.
    let mut garbage = 16u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0xDE; 16]);
    let resp = client.send_raw(&garbage).expect("garbage answered in-band");
    assert_eq!(resp.status, Status::Malformed);

    // Oversized declared length: drained, reported, stream stays in sync.
    let mut oversized = 8192u32.to_le_bytes().to_vec();
    oversized.extend_from_slice(&vec![0x00; 8192]);
    let resp = client.send_raw(&oversized).expect("oversized answered in-band");
    assert_eq!(resp.status, Status::Malformed);
    assert!(resp.message.contains("8192"), "names the declared size: {}", resp.message);

    // A response frame where a request belongs.
    let stray = ttsnn_serve::wire::encode_response(&ttsnn_serve::wire::Response::ok(vec![1.0]));
    let resp = client.send_raw(&stray).expect("stray response answered in-band");
    assert_eq!(resp.status, Status::Malformed);

    // A well-formed version-1 request (no trace field): refused, not served.
    let v2 = ttsnn_serve::wire::encode_request(&request("vgg", 0, Priority::Normal, input.clone()));
    let mut v1 = ((v2.len() - 4 - 8) as u32).to_le_bytes().to_vec();
    v1.extend_from_slice(&[v2[4], v2[5], 1, v2[7]]); // magic, version 1, kind
    v1.extend_from_slice(&v2[16..]); // everything after the 8 trace bytes
    let resp = client.send_raw(&v1).expect("v1 frame answered in-band");
    assert_eq!(resp.status, Status::Malformed, "{}", resp.message);
    assert!(resp.message.contains("unsupported version 1"), "{}", resp.message);

    // Unknown plan and bad shape are request-level errors, not hangups.
    let resp = client.request(&request("nope", 0, Priority::Normal, input.clone())).unwrap();
    assert_eq!(resp.status, Status::UnknownPlan);
    let bad_shape = ttsnn_tensor::Tensor::zeros(&[1, 2, 2]);
    let resp = client.request(&request("vgg", 0, Priority::Normal, bad_shape)).unwrap();
    assert_eq!(resp.status, Status::Shape);

    // The same connection still serves — bit-identical.
    let resp = client.request(&request("vgg", 0, Priority::Normal, input)).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    assert_eq!(resp.logits.len(), reference.data().len());
    for (a, b) in resp.logits.iter().zip(reference.data()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// A deadlined request stuck behind higher-priority work expires on the
/// scheduler and comes back as `DeadlineExpired` — visible per tenant on
/// the next `/metrics` scrape.
#[test]
fn expired_deadline_travels_as_status_and_tenant_metric() {
    // Strict priority (no fair policy), one replica, batch-of-1: High
    // blockers provably run before the Low request, whose 1 ms deadline
    // expires while it waits. ≈ 14 ms per blocker at 96 timesteps, so the
    // five hold the replica for ≈ 70 ms against the 5 ms head start below;
    // at 12 they took ≈ 2 ms each once the kernels got faster (≈ 10 ms when
    // the plan was sized), and the race was lost under a loaded host.
    let (ckpt, config, _) = slow_plan(96);
    let inputs = slow_inputs(6, 32);
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

    std::thread::scope(|scope| {
        for input in inputs.iter().take(5).cloned() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let resp = client.request(&request("vgg-slow", 1, Priority::High, input)).unwrap();
                assert_eq!(resp.status, Status::Ok, "{}", resp.message);
            });
        }
        // Give the blockers a head start into the queue, then race a
        // 1 ms-deadline Low request against ≥ 5 queued forward passes.
        std::thread::sleep(Duration::from_millis(5));
        let mut client = Client::connect(addr).unwrap();
        let req = Request {
            trace: 0,
            tenant: 42,
            priority: Priority::Low,
            deadline_ms: 1,
            plan: "vgg-slow".into(),
            input: inputs[5].clone(),
        };
        let resp = client.request(&req).unwrap();
        assert_eq!(resp.status, Status::DeadlineExpired, "{}", resp.message);
    });

    let (_, page) = http_get(addr, "/metrics").unwrap();
    assert!(
        page.contains(
            "ttsnn_tenant_requests_total{plan=\"vgg-slow\",tenant=\"42\",state=\"expired\"} 1"
        ),
        "expired request must be visible under its tenant:\n{page}"
    );
}

/// Overload comes back as structured, retryable statuses: saturation
/// carries the scheduler's retry-after hint, and a rate-limited tenant
/// is told so without the queue ever admitting the request.
#[test]
fn saturation_and_rate_limit_travel_as_retryable_statuses() {
    // ~40 ms per forward pass: the request in flight has to outlive the
    // 10 ms head start below by a wide margin (at 48 timesteps it had
    // come down to 8–10 ms as the kernels got faster).
    let (ckpt, config, _) = slow_plan(240);
    let inputs = slow_inputs(3, 42);
    let fair = FairPolicy::default()
        .with_tenant(5, TenantPolicy::default().with_rate(RateLimit { per_sec: 1.0, burst: 1.0 }));
    let config = config.with_queue_capacity(1).with_fair(fair);
    let router =
        Router::load(vec![PlanSpec { name: "vgg".into(), config, quant: None, checkpoint: ckpt }])
            .unwrap();
    let server = Server::bind(
        ServerConfig { workers: 3, telemetry: fast_telemetry(), ..Default::default() },
        router,
    )
    .unwrap();
    let addr = server.addr();

    // Saturation: a slow request in flight fills the capacity-1 queue;
    // the next submission fails fast with the scheduler's structured
    // rejection context.
    std::thread::scope(|scope| {
        let blocker = inputs[0].clone();
        scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let resp = client.request(&request("vgg", 1, Priority::Normal, blocker)).unwrap();
            assert_eq!(resp.status, Status::Ok, "{}", resp.message);
        });
        std::thread::sleep(Duration::from_millis(10));
        let mut client = Client::connect(addr).unwrap();
        let resp = client.request(&request("vgg", 2, Priority::Normal, inputs[1].clone())).unwrap();
        assert_eq!(resp.status, Status::Saturated, "{}", resp.message);
        assert!(resp.retry_after_ms >= 1, "carries a retry-after hint");
        assert!(resp.message.contains("tenant 2"), "names the tenant: {}", resp.message);
    });

    // Rate limiting, with the queue now idle so saturation cannot mask
    // it: tenant 5's bucket holds one token, refilled at 1/s. The first
    // request drains it and is served (~40 ms — far too little refill),
    // so the second is rejected at admission, queue space or not.
    // (The blocker's reply lands a hair before its outstanding slot is
    // released — give the scheduler a beat to drain.)
    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(addr).unwrap();
    let resp = client.request(&request("vgg", 5, Priority::Normal, inputs[1].clone())).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    std::thread::sleep(Duration::from_millis(50)); // drain the served slot, not the bucket
    let resp = client.request(&request("vgg", 5, Priority::Normal, inputs[2].clone())).unwrap();
    assert_eq!(resp.status, Status::RateLimited, "{}", resp.message);
    assert!(resp.retry_after_ms >= 1);
    assert!(resp.message.contains("tenant 5"), "names the tenant: {}", resp.message);

    // The scrape shows both rejections under their tenants.
    let (_, page) = http_get(addr, "/metrics").unwrap();
    assert!(page.contains(
        "ttsnn_tenant_requests_total{plan=\"vgg\",tenant=\"2\",state=\"rejected_saturated\"} 1"
    ));
    assert!(page.contains(
        "ttsnn_tenant_requests_total{plan=\"vgg\",tenant=\"5\",state=\"rejected_rate_limited\"} 1"
    ));
}

/// `Router::drift` measures int8-vs-f32 drift online, on the live
/// mounted clusters.
#[test]
fn online_plan_drift_between_mounted_plans() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 51);
    let calibration = samples(52, 4);
    let probes = samples(53, 5);
    let router = Router::load(vec![
        PlanSpec {
            name: "f32".into(),
            config: cluster_config(T, 4),
            quant: None,
            checkpoint: ckpt.clone(),
        },
        PlanSpec {
            name: "int8".into(),
            config: cluster_config(T, 4),
            quant: Some(QuantSpec::new(calibration)),
            checkpoint: ckpt,
        },
    ])
    .unwrap();
    let drift = router.drift("f32", "int8", &probes).expect("drift probe");
    assert_eq!(drift.requests, probes.len());
    assert!(drift.mean_abs_err.is_finite() && drift.mean_abs_err >= 0.0);
    assert!(drift.max_abs_err >= 0.0);
    assert!((0.0..=1.0).contains(&drift.agreement));
    // The probe itself generated traffic, so densities are measurable.
    assert!(drift.reference_density.is_some());
    assert!(drift.candidate_density.is_some());
    // Unknown plan names fail cleanly.
    assert!(router.drift("f32", "nope", &probes).is_err());

    // Determinism: the identical plan drifts zero against itself.
    let self_drift = router.drift("f32", "f32", &probes).unwrap();
    assert_eq!(self_drift.max_abs_err, 0.0);
    assert_eq!(self_drift.agreement, 1.0);
}

/// Stalled peers must not wedge the worker pool: a connection that
/// trickles fewer than 4 bytes and stops is dropped at the sniff
/// deadline, and a frame that stalls mid-body past the read timeout is
/// dropped as desynced — in both cases the (single) worker goes back to
/// serving well-behaved clients, and `Server::drop` joins cleanly.
#[test]
fn stalled_connections_do_not_wedge_workers() {
    use std::io::{Read, Write};

    let (ckpt, _) = vgg_checkpoint(&policy(), 71);
    let input = samples(72, 1).remove(0);
    let router = Router::load(vec![PlanSpec {
        name: "vgg".into(),
        config: cluster_config(T, 2),
        quant: None,
        checkpoint: ckpt,
    }])
    .unwrap();
    let server = Server::bind(
        ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(50),
            telemetry: fast_telemetry(),
            ..Default::default()
        },
        router,
    )
    .unwrap();
    let addr = server.addr();

    // 1–3 bytes then silence: without the sniff deadline this spins the
    // worker forever (the bytes are buffered, so no timeout ever fires).
    let mut sniff_staller = std::net::TcpStream::connect(addr).unwrap();
    sniff_staller.write_all(&[0x4E, 0x54]).unwrap();
    // The server closes without consuming the peeked bytes, which may
    // surface as a clean EOF or an RST — either way the connection dies.
    let mut sink = Vec::new();
    match sniff_staller.read_to_end(&mut sink) {
        Ok(_) => assert!(sink.is_empty(), "nothing was served to the staller"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    // The worker is free again: a real client gets served.
    let mut client = Client::connect(addr).unwrap();
    let resp = client.request(&request("vgg", 0, Priority::Normal, input.clone())).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    drop(client);

    // A frame that stalls mid-body past the read timeout desyncs the
    // stream; the server must drop it rather than retry into garbage.
    let mut mid_frame_staller = std::net::TcpStream::connect(addr).unwrap();
    let mut partial = 64u32.to_le_bytes().to_vec();
    partial.extend_from_slice(&[0xAB; 10]); // 10 of the declared 64 bytes
    mid_frame_staller.write_all(&partial).unwrap();
    let mut sink = Vec::new();
    match mid_frame_staller.read_to_end(&mut sink) {
        Ok(_) => assert!(sink.is_empty(), "no response on a desynced stream"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    // Still serving afterwards, and Server::drop joins (the test would
    // hang here if a worker were wedged).
    let mut client = Client::connect(addr).unwrap();
    let resp = client.request(&request("vgg", 0, Priority::Normal, input)).unwrap();
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
}

/// In-process sanity for the submit-options plumbing the server uses.
#[test]
fn submit_options_round_trip_through_cluster() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 61);
    let cluster = ttsnn_infer::Cluster::load(cluster_config(T, 2), ckpt.as_slice()).unwrap();
    let session = cluster.session();
    let opts = SubmitOptions::priority(Priority::High).with_tenant(9);
    let ticket = session.try_submit_with(samples(62, 1).remove(0), opts).unwrap();
    ticket.wait().unwrap();
    let m = ttsnn_testutil::drained_metrics(&cluster);
    assert_eq!(m.tenant(9).served, 1);
    assert_eq!(m.priority(Priority::High).served, 1);
}
