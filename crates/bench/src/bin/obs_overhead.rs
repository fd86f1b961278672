//! Tracing-overhead measurement: the same inference workload with
//! request-lifecycle tracing enabled vs disabled.
//!
//! Criterion-free. The bench drives an in-process serving cluster (the
//! same scheduler → batcher → engine path the network plane uses, minus
//! socket noise) with closed waves of traced and untraced requests,
//! interleaved round-robin so clock drift and cache state hit both modes
//! equally. Traced rounds mint a real trace id per request, so every
//! hot-path hook fires: stage spans, per-timestep children, kernel
//! regions, stage histograms, and the flight recorder. Untraced rounds
//! run with tracing globally disabled (`ttsnn_obs::set_enabled(false)`,
//! what `TTSNN_TRACE=off` resolves to), so the hooks collapse to one
//! relaxed atomic load.
//!
//! A second comparison measures the **continuous telemetry sampler**
//! (`ttsnn_serve::TelemetryPlane`): the same waves with a sampler
//! snapshotting the cluster's metrics at a deliberately hot 5 ms tick
//! vs no sampler at all. The sampler is pull-based and off the request
//! path, so its overhead should be near the noise floor even at 200
//! ticks/s (the production default is one tick per 5 *seconds*).
//!
//! Written to `BENCH_obs_overhead.json`: throughput in every mode and
//! the relative overhead percentages. The observability contract is
//! also *checked*, not assumed: logits from traced, untraced,
//! sampler-on, and sampler-off rounds must all be bit-identical
//! (observability reads clocks and copies counters, never data).
//!
//! ```sh
//! cargo run -p ttsnn-bench --release --bin obs_overhead
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_core::TtMode;
use ttsnn_infer::{ArchSpec, BatchPolicy, ClusterConfig, EngineConfig, SubmitOptions};
use ttsnn_obs::timeseries::TelemetryConfig;
use ttsnn_serve::telemetry::PlanSource;
use ttsnn_serve::{TelemetryOptions, TelemetryPlane};
use ttsnn_snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use ttsnn_tensor::{Rng, Tensor};

const TIMESTEPS: usize = 4;
const WAVE: usize = 8;
const WAVES_PER_ROUND: usize = 4;
const ROUNDS: usize = 6; // per mode, interleaved

fn vgg_cfg() -> VggConfig {
    VggConfig::vgg9(3, 10, (16, 16), 8)
}

/// One closed wave per iteration: submit `WAVE` requests, wait for all,
/// repeat. Returns elapsed wall clock and every logit vector's bits.
fn run_round(
    session: &ttsnn_infer::ClusterSession,
    inputs: &[Tensor],
    traced: bool,
) -> (Duration, Vec<Vec<u32>>) {
    let mut bits = Vec::with_capacity(WAVE * WAVES_PER_ROUND);
    let t0 = Instant::now();
    for wave in 0..WAVES_PER_ROUND {
        let tickets: Vec<_> = (0..WAVE)
            .map(|i| {
                let mut opts = SubmitOptions::default().with_tenant(1);
                if traced {
                    opts = opts.with_trace(ttsnn_obs::next_trace_id());
                }
                session
                    .try_submit_with(inputs[(wave * WAVE + i) % inputs.len()].clone(), opts)
                    .expect("submit")
            })
            .collect();
        for t in tickets {
            let logits = t.wait().expect("inference");
            bits.push(logits.data().iter().map(|v| v.to_bits()).collect());
        }
    }
    (t0.elapsed(), bits)
}

fn main() {
    let mut rng = Rng::seed_from(42);
    let model = VggSnn::new(vgg_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt).expect("serialize checkpoint");
    let config = ClusterConfig::new(
        EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::tt(TtMode::Ptt), TIMESTEPS)
            .merged()
            .with_batching(BatchPolicy { max_batch: WAVE, max_wait: Duration::from_millis(1) }),
    );
    let cluster =
        Arc::new(ttsnn_infer::Cluster::load(config, ckpt.as_slice()).expect("load cluster"));
    let session = cluster.session();

    let inputs: Vec<Tensor> =
        (0..WAVE * 2).map(|_| Tensor::randn(&[3, 16, 16], &mut rng)).collect();

    // Warmup (first-touch allocation, replica spin-up), untimed.
    ttsnn_obs::set_enabled(true);
    run_round(&session, &inputs, true);

    let requests_per_round = (WAVE * WAVES_PER_ROUND) as f64;
    let mut traced_secs = 0.0;
    let mut off_secs = 0.0;
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for _ in 0..ROUNDS {
        ttsnn_obs::set_enabled(true);
        let (dt, bits) = run_round(&session, &inputs, true);
        traced_secs += dt.as_secs_f64();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "traced logits must be bit-identical across rounds"),
        }

        ttsnn_obs::set_enabled(false);
        let (dt, bits) = run_round(&session, &inputs, false);
        off_secs += dt.as_secs_f64();
        assert_eq!(
            reference.as_ref().unwrap(),
            &bits,
            "tracing must not change a single logit bit"
        );
    }
    ttsnn_obs::set_enabled(true);

    // Sampler overhead: the same untraced waves with the continuous
    // telemetry sampler snapshotting this cluster at a hot 5 ms tick vs
    // with no sampler thread at all, interleaved like the tracing
    // rounds. The plane is rebuilt per round so thread spawn/join churn
    // is charged to the sampler side, worst-case.
    let reference = reference.expect("reference bits from the tracing rounds");
    let telemetry = || TelemetryOptions {
        timeseries: TelemetryConfig { resolution: Duration::from_millis(5), slots: 1024 },
        ..Default::default()
    };
    let mut sampled_secs = 0.0;
    let mut unsampled_secs = 0.0;
    let mut sampler_ticks = 0u64;
    for _ in 0..ROUNDS {
        let source = PlanSource {
            name: "bench".into(),
            metrics: Box::new({
                let cluster = Arc::clone(&cluster);
                move || cluster.metrics()
            }),
        };
        let plane =
            TelemetryPlane::spawn(telemetry(), vec![source]).expect("spawn telemetry plane");
        let (dt, bits) = run_round(&session, &inputs, false);
        sampled_secs += dt.as_secs_f64();
        assert_eq!(&reference, &bits, "the sampler must not change a single logit bit");
        sampler_ticks += plane.shared().ticks();
        drop(plane); // joins the sampler thread

        let (dt, bits) = run_round(&session, &inputs, false);
        unsampled_secs += dt.as_secs_f64();
        assert_eq!(&reference, &bits, "sampler-off logits must match too");
    }
    assert!(sampler_ticks > 0, "the sampler never ticked — the comparison measured nothing");

    let traced_rps = ROUNDS as f64 * requests_per_round / traced_secs;
    let off_rps = ROUNDS as f64 * requests_per_round / off_secs;
    let overhead_pct = (off_rps - traced_rps) / off_rps * 100.0;
    let sampled_rps = ROUNDS as f64 * requests_per_round / sampled_secs;
    let unsampled_rps = ROUNDS as f64 * requests_per_round / unsampled_secs;
    let sampler_overhead_pct = (unsampled_rps - sampled_rps) / unsampled_rps * 100.0;
    println!(
        "obs_overhead: tracing and telemetry-sampler on vs off, {} requests per mode",
        ROUNDS * WAVE * WAVES_PER_ROUND
    );
    println!("  traced:      {traced_rps:>8.1} req/s");
    println!("  untraced:    {off_rps:>8.1} req/s");
    println!("  tracing overhead: {overhead_pct:.2}% (logits bit-identical in both modes)");
    println!("  sampler on:  {sampled_rps:>8.1} req/s ({sampler_ticks} ticks at 5 ms)");
    println!("  sampler off: {unsampled_rps:>8.1} req/s");
    println!("  sampler overhead: {sampler_overhead_pct:.2}% (logits bit-identical in both modes)");

    write_json(
        "BENCH_obs_overhead.json",
        &[BenchRecord {
            name: "obs_overhead".into(),
            metrics: vec![
                ("traced_rps".into(), traced_rps),
                ("off_rps".into(), off_rps),
                ("overhead_pct".into(), overhead_pct),
                ("sampler_on_rps".into(), sampled_rps),
                ("sampler_off_rps".into(), unsampled_rps),
                ("sampler_overhead_pct".into(), sampler_overhead_pct),
                ("sampler_ticks".into(), sampler_ticks as f64),
                ("requests_per_mode".into(), ROUNDS as f64 * requests_per_round),
            ],
        }],
    )
    .expect("write BENCH_obs_overhead.json");
    println!("wrote BENCH_obs_overhead.json");
}
