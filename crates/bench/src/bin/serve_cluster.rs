//! Serving-cluster throughput and latency vs replica count.
//!
//! Criterion-free. For each replica count the bench drives the same
//! frozen VGG9 \[PTT\] plan with a burst of mixed-priority requests from
//! concurrent client threads and records, into `BENCH_serve_cluster.json`:
//!
//! * **requests/s** — wall-clock throughput of the measured burst;
//! * **p50 / p99 / mean latency** — exact submit→reply quantiles from
//!   per-request client-side timing of the measured burst only (a
//!   warmup burst runs first and is excluded — the cluster's own
//!   cumulative histogram would mix cold-start samples in);
//! * the mean executed batch size of the measured burst (from the
//!   cluster's metrics delta), to show coalescing at work.
//!
//! On a single-core container the replica sweep mostly demonstrates that
//! scheduling overhead is flat; the speedup story needs real cores
//! (replicas × kernel threads compose like shards × threads in training).
//!
//! ```sh
//! cargo run -p ttsnn-bench --release --bin serve_cluster
//! ```

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_core::TtMode;
use ttsnn_infer::{
    ArchSpec, BatchPolicy, Cluster, ClusterConfig, EngineConfig, Priority, SubmitOptions,
};
use ttsnn_obs::quantile;
use ttsnn_snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};

const TIMESTEPS: usize = 4;
const REQUESTS: usize = 48;
const CLIENTS: usize = 4;

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

/// Drives one burst: `CLIENTS` threads each submit-and-wait their share of
/// the requests. Returns wall-clock seconds and every request's exact
/// submit→reply latency in seconds.
fn drive_burst(cluster: &Cluster, inputs: &[Tensor]) -> (f64, Vec<f64>) {
    let latencies = Mutex::new(Vec::with_capacity(inputs.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, chunk) in inputs.chunks(inputs.len().div_ceil(CLIENTS)).enumerate() {
            let session = cluster.session();
            let latencies = &latencies;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(chunk.len());
                for (i, input) in chunk.iter().enumerate() {
                    let opts = SubmitOptions::priority(match (c + i) % 3 {
                        0 => Priority::High,
                        1 => Priority::Normal,
                        _ => Priority::Low,
                    })
                    .with_deadline(Duration::from_secs(60));
                    let submitted = Instant::now();
                    let ticket = session.submit_with(input.clone(), opts).expect("bench submit");
                    ticket.wait().expect("bench request");
                    mine.push(submitted.elapsed().as_secs_f64());
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    (start.elapsed().as_secs_f64(), latencies.into_inner().unwrap())
}

/// Replies land a hair before the executor records its batch metrics, so
/// spin briefly until the served counter catches up with the burst.
fn drained_metrics(cluster: &Cluster, served_target: u64) -> ttsnn_infer::ClusterMetrics {
    for _ in 0..1000 {
        let m = cluster.metrics();
        if m.totals().served >= served_target {
            return m;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("cluster did not drain to {served_target} served requests");
}

fn main() {
    let threads = Runtime::global().threads();
    println!("serve_cluster: {threads} kernel thread(s), VGG9 [PTT], T={TIMESTEPS}");
    println!("{REQUESTS} requests per burst from {CLIENTS} client threads, mixed priorities\n");
    let ckpt = checkpoint_bytes();
    let mut rng = Rng::seed_from(7);
    let inputs: Vec<Tensor> =
        (0..REQUESTS).map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng)).collect();

    let mut records = Vec::new();
    for replicas in [1usize, 2, 4] {
        let cluster = Cluster::load(
            ClusterConfig::new(
                EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::tt(TtMode::Ptt), TIMESTEPS)
                    .with_batching(BatchPolicy {
                        max_batch: 8,
                        max_wait: Duration::from_millis(1),
                    }),
            )
            .with_replicas(replicas),
            ckpt.as_slice(),
        )
        .expect("cluster load");
        // Warmup (replica arenas + lazy pool spawn), excluded from the
        // measured latencies below.
        drive_burst(&cluster, &inputs[..CLIENTS]);
        let warm = drained_metrics(&cluster, CLIENTS as u64);
        let (secs, mut lats) = drive_burst(&cluster, &inputs);
        let m = drained_metrics(&cluster, warm.totals().served + REQUESTS as u64);
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rps = REQUESTS as f64 / secs;
        let p50_ms = quantile(&lats, 0.5).expect("a measured burst") * 1e3;
        let p99_ms = quantile(&lats, 0.99).expect("a measured burst") * 1e3;
        let mean_ms = lats.iter().sum::<f64>() / lats.len() as f64 * 1e3;
        // Metrics delta over the measured burst only.
        let served = m.totals().served - warm.totals().served;
        let batches = m.batches_executed - warm.batches_executed;
        let mean_batch = served as f64 / batches.max(1) as f64;
        assert_eq!(served as usize, REQUESTS, "every measured request must be served");
        println!(
            "{replicas} replica(s): {rps:>8.2} req/s   p50 {p50_ms:>7.2} ms   \
             p99 {p99_ms:>7.2} ms   mean {mean_ms:>7.2} ms   mean batch {mean_batch:.2}",
        );
        records.push(BenchRecord {
            name: format!("cluster_{replicas}_replicas"),
            metrics: vec![
                ("replicas".into(), replicas as f64),
                ("requests_per_sec".into(), rps),
                ("p50_latency_ms".into(), p50_ms),
                ("p99_latency_ms".into(), p99_ms),
                ("mean_latency_ms".into(), mean_ms),
                ("mean_batch_size".into(), mean_batch),
                ("served".into(), served as f64),
                ("threads".into(), threads as f64),
            ],
        });
    }

    let path = "BENCH_serve_cluster.json";
    write_json(path, &records).expect("write bench json");
    println!("\nwrote {path}");
}
