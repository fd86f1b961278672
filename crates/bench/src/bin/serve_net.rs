//! Closed-loop load generation against the network serving plane.
//!
//! Criterion-free. The bench binds a real [`ttsnn_serve::Server`] on a
//! loopback socket — accept loop, worker pool, wire protocol, fair
//! queueing, the whole ingress path — and drives it with stepped
//! offered loads: at each step, `C` closed-loop clients (half tenant 1
//! at fair-queue weight 3, half tenant 2 at weight 1) each keep exactly
//! one deadlined request in flight over its own TCP connection.
//! Recorded per step into `BENCH_serve_net.json`:
//!
//! * **goodput** — `Ok` responses per second;
//! * **p50 / p99 / p999 latency** — exact client-side send→reply
//!   quantiles, milliseconds;
//! * **SLO attainment** — fraction of requests answered `Ok` within the
//!   deadline ([`DEADLINE_MS`] — a deliberately tight bound so the
//!   sweep's upper steps visibly overload a small container);
//! * **per-tenant goodput** and the **Jain fairness index** over
//!   weight-normalized tenant goodput (1.0 = shares exactly match the
//!   3:1 weights);
//! * rejection/expiry counts (saturated, rate-limited, expired).
//!
//! A final `serve_net_summary` record carries `slo_knee_clients` — the
//! first offered-load step whose attainment fell below 99% (0 = never).
//!
//! **Caveat**: CI runs this on a 1-core dev container, so absolute
//! numbers mean little — the artifact is the shape: attainment near 1.0
//! at low load, a visible knee as offered load crosses capacity, and a
//! weight-normalized fairness index that *rises toward 1.0 at
//! saturation* (below saturation there is no backlog, the weights have
//! nothing to arbitrate, and equal per-client service reads as ~0.8).
//!
//! ```sh
//! cargo run -p ttsnn-bench --release --bin serve_net
//! ```

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_core::TtMode;
use ttsnn_infer::{
    ArchSpec, BatchPolicy, ClusterConfig, EngineConfig, FairPolicy, Priority, TenantPolicy,
};
use ttsnn_obs::quantile;
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{Client, PlanSpec, Router, Server, ServerConfig};
use ttsnn_snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use ttsnn_tensor::{Rng, Tensor};

const TIMESTEPS: usize = 4;
const DEADLINE_MS: u32 = 50;
const STEP_SECS: f64 = 1.0;
const STEPS: [usize; 4] = [2, 4, 8, 16];

fn vgg_cfg() -> VggConfig {
    VggConfig::vgg9(3, 10, (16, 16), 8)
}

fn checkpoint_bytes() -> Vec<u8> {
    let mut rng = Rng::seed_from(42);
    let model = VggSnn::new(vgg_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt).expect("serialize checkpoint");
    ckpt
}

#[derive(Default)]
struct StepStats {
    latencies_ms: Vec<f64>,
    ok: u64,
    ok_in_slo: u64,
    expired: u64,
    rejected: u64,
    per_tenant_ok: [u64; 2],
}

/// Jain fairness index over weight-normalized per-tenant goodput:
/// `(Σx)² / (n·Σx²)`, 1.0 when shares exactly match the weights.
fn jain(normalized: &[f64]) -> f64 {
    let n = normalized.len() as f64;
    let sum: f64 = normalized.iter().sum();
    let sq: f64 = normalized.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (n * sq)
    }
}

/// One offered-load step: `clients` closed-loop connections for
/// [`STEP_SECS`], alternating tenants 1 and 2.
fn drive_step(addr: std::net::SocketAddr, clients: usize, inputs: &[Tensor]) -> StepStats {
    let stats = Mutex::new(StepStats::default());
    let deadline = Instant::now() + Duration::from_secs_f64(STEP_SECS);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let stats = &stats;
            let inputs = &inputs;
            scope.spawn(move || {
                let tenant = 1 + (c % 2) as u32;
                let mut client = Client::connect(addr).expect("connect");
                let mut local = StepStats::default();
                let mut i = c;
                while Instant::now() < deadline {
                    let req = Request {
                        trace: 0,
                        tenant,
                        priority: Priority::Normal,
                        deadline_ms: DEADLINE_MS,
                        plan: "vgg".into(),
                        input: inputs[i % inputs.len()].clone(),
                    };
                    i += 1;
                    let t0 = Instant::now();
                    let resp = match client.request(&req) {
                        Ok(r) => r,
                        Err(_) => break,
                    };
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    local.latencies_ms.push(ms);
                    match resp.status {
                        Status::Ok => {
                            local.ok += 1;
                            local.per_tenant_ok[(tenant - 1) as usize] += 1;
                            if ms <= f64::from(DEADLINE_MS) {
                                local.ok_in_slo += 1;
                            }
                        }
                        Status::DeadlineExpired => local.expired += 1,
                        Status::Saturated | Status::RateLimited => {
                            local.rejected += 1;
                            if resp.retry_after_ms > 0 {
                                std::thread::sleep(Duration::from_millis(u64::from(
                                    resp.retry_after_ms.min(5),
                                )));
                            }
                        }
                        other => panic!("unexpected status {other:?}: {}", resp.message),
                    }
                }
                let mut s = stats.lock().expect("stats lock");
                s.latencies_ms.extend(local.latencies_ms);
                s.ok += local.ok;
                s.ok_in_slo += local.ok_in_slo;
                s.expired += local.expired;
                s.rejected += local.rejected;
                s.per_tenant_ok[0] += local.per_tenant_ok[0];
                s.per_tenant_ok[1] += local.per_tenant_ok[1];
            });
        }
    });
    stats.into_inner().expect("stats lock")
}

fn main() {
    let ckpt = checkpoint_bytes();
    let fair = FairPolicy::default()
        .with_tenant(1, TenantPolicy::weighted(3.0))
        .with_tenant(2, TenantPolicy::weighted(1.0));
    let config = ClusterConfig::new(
        EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::tt(TtMode::Ptt), TIMESTEPS)
            .merged()
            .with_batching(BatchPolicy { max_batch: 8, max_wait: Duration::from_millis(1) }),
    )
    .with_fair(fair);
    let replicas = config.num_replicas;
    let router =
        Router::load(vec![PlanSpec { name: "vgg".into(), config, quant: None, checkpoint: ckpt }])
            .expect("mount plan");
    let server = Server::bind(
        ServerConfig { workers: STEPS[STEPS.len() - 1] + 1, ..Default::default() },
        router,
    )
    .expect("bind server");
    let addr = server.addr();

    let mut rng = Rng::seed_from(7);
    let inputs: Vec<Tensor> = (0..16).map(|_| Tensor::randn(&[3, 16, 16], &mut rng)).collect();

    // Warmup outside the measured steps (first-touch allocation, lazily
    // spun worker threads).
    drive_step(addr, 2, &inputs);

    println!(
        "serve_net: closed-loop load vs {replicas}-replica plan, SLO = {DEADLINE_MS} ms \
         (1-core dev container: read the shape, not the absolute numbers)"
    );
    println!(
        "{:>8} {:>10} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "clients", "goodput/s", "p50 ms", "p99 ms", "p999 ms", "attainment", "jain"
    );

    let mut records = Vec::new();
    let mut knee = 0usize;
    for &clients in &STEPS {
        let mut s = drive_step(addr, clients, &inputs);
        s.latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let total = s.latencies_ms.len().max(1) as f64;
        let goodput = s.ok as f64 / STEP_SECS;
        let attainment = s.ok_in_slo as f64 / total;
        // Normalize tenant goodput by the 3:1 weights before Jain.
        let normalized = [s.per_tenant_ok[0] as f64 / 3.0, s.per_tenant_ok[1] as f64 / 1.0];
        let fairness = jain(&normalized);
        let p = |q| quantile(&s.latencies_ms, q).unwrap_or(0.0);
        let (p50, p99, p999) = (p(0.50), p(0.99), p(0.999));
        if knee == 0 && attainment < 0.99 {
            knee = clients;
        }
        println!(
            "{clients:>8} {goodput:>10.1} {p50:>9.2} {p99:>9.2} {p999:>9.2} \
             {attainment:>11.4} {fairness:>9.4}"
        );
        records.push(BenchRecord {
            name: format!("serve_net_c{clients}"),
            metrics: vec![
                ("clients".into(), clients as f64),
                ("goodput_rps".into(), goodput),
                ("p50_ms".into(), p50),
                ("p99_ms".into(), p99),
                ("p999_ms".into(), p999),
                ("slo_attainment".into(), attainment),
                ("jain_fairness".into(), fairness),
                ("tenant1_rps".into(), s.per_tenant_ok[0] as f64 / STEP_SECS),
                ("tenant2_rps".into(), s.per_tenant_ok[1] as f64 / STEP_SECS),
                ("expired".into(), s.expired as f64),
                ("rejected".into(), s.rejected as f64),
            ],
        });
    }
    println!(
        "SLO knee: {}",
        if knee == 0 { "not reached in this sweep".into() } else { format!("{knee} clients") }
    );
    records.push(BenchRecord {
        name: "serve_net_summary".into(),
        metrics: vec![
            ("slo_knee_clients".into(), knee as f64),
            ("deadline_ms".into(), f64::from(DEADLINE_MS)),
            ("replicas".into(), replicas as f64),
        ],
    });
    write_json("BENCH_serve_net.json", &records).expect("write BENCH_serve_net.json");
    println!("wrote BENCH_serve_net.json");
}
