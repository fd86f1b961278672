//! Inference-plane throughput: graph-free evaluation vs the old
//! tape-building `Var` path, plus end-to-end serving through a 1-replica
//! cluster.
//!
//! Criterion-free. Three experiments, recorded into
//! `BENCH_infer_throughput.json` in the working directory:
//!
//! 1. **`var_plane`** — samples/second of evaluation through
//!    `TrainForward` (a full autograd tape built and thrown away per
//!    batch — what `evaluate` did before the API split).
//! 2. **`tensor_plane`** — samples/second of `evaluate_counts` on
//!    `InferForward` (zero autograd nodes, arena-backed intermediates).
//! 3. **`cluster_1_replica_serving`** — requests/second through a
//!    1-replica `ttsnn_infer` [`Cluster`] with dynamic micro-batching
//!    (per-sample determinism contract) on the same checkpoint.
//!
//! ```sh
//! cargo run -p ttsnn-bench --release --bin infer_throughput
//! ```

use std::time::{Duration, Instant};

use ttsnn_autograd::Var;
use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_core::TtMode;
use ttsnn_data::{Batch, StaticImages};
use ttsnn_infer::{ArchSpec, BatchPolicy, Cluster, ClusterConfig, ClusterSession, EngineConfig};
use ttsnn_snn::trainer::evaluate_counts;
use ttsnn_snn::{checkpoint, ConvPolicy, Model, SpikingModel, VggConfig, VggSnn};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};

const TIMESTEPS: usize = 4;
const BATCH: usize = 16;
const ITERS: usize = 3;

fn vgg_cfg() -> VggConfig {
    VggConfig::vgg9(3, 10, (16, 16), 8)
}

fn model() -> VggSnn {
    let mut rng = Rng::seed_from(42);
    VggSnn::new(vgg_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng)
}

fn data() -> Vec<Batch> {
    let mut rng = Rng::seed_from(1);
    StaticImages::new(3, 16, 16, 10, 0.15, 9)
        .dataset(BATCH * 2, &mut rng)
        .batches(BATCH, TIMESTEPS, &mut rng)
        .expect("bench batches")
}

/// The pre-split evaluation loop: Var-plane forward, tape built and
/// dropped. Kept here as the baseline the tensor plane is measured
/// against.
fn var_plane_counts(model: &mut dyn Model, batches: &[Batch]) -> (usize, usize) {
    let mut correct = 0usize;
    let mut total = 0usize;
    for batch in batches {
        model.reset_state();
        let mut preds: Option<Tensor> = None;
        for (t, frame) in batch.frames.iter().enumerate() {
            let logits =
                model.forward_timestep(&Var::constant(frame.clone()), t).expect("var forward");
            match preds.as_mut() {
                Some(p) => p.add_scaled(&logits.value(), 1.0).expect("logit sum"),
                None => preds = Some(logits.to_tensor()),
            }
        }
        let preds = preds.expect("timesteps");
        let k = preds.shape()[1];
        for (i, &label) in batch.labels.iter().enumerate() {
            let row = &preds.data()[i * k..(i + 1) * k];
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0);
            if argmax == label {
                correct += 1;
            }
            total += 1;
        }
    }
    (correct, total)
}

fn samples_per_sec(total_samples: usize, mut run: impl FnMut()) -> f64 {
    run(); // warmup
    let start = Instant::now();
    for _ in 0..ITERS {
        run();
    }
    (ITERS * total_samples) as f64 / start.elapsed().as_secs_f64()
}

fn cluster_requests_per_sec(session: &ClusterSession, inputs: &[Tensor]) -> f64 {
    // Warmup.
    session.infer(inputs[0].clone()).expect("warmup request");
    let start = Instant::now();
    for _ in 0..ITERS {
        let tickets: Vec<_> =
            inputs.iter().map(|x| session.submit(x.clone()).expect("bench submit")).collect();
        for t in tickets {
            t.wait().expect("bench request");
        }
    }
    (ITERS * inputs.len()) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let threads = Runtime::global().threads();
    println!("infer_throughput: {threads} kernel thread(s), VGG9 [PTT], T={TIMESTEPS}\n");
    let batches = data();
    let total: usize = batches.iter().map(Batch::len).sum();

    let mut net = model();
    let (var_correct, _) = var_plane_counts(&mut net, &batches); // sanity + warm arenas
    let var_sps = samples_per_sec(total, || {
        var_plane_counts(&mut net, &batches);
    });
    let tensor_sps = samples_per_sec(total, || {
        evaluate_counts(&mut net, &batches).expect("tensor-plane eval");
    });
    let (tensor_correct, _) = evaluate_counts(&mut net, &batches).expect("tensor-plane eval");
    assert_eq!(
        var_correct, tensor_correct,
        "the two planes must agree (bit-identical logits in Batch mode)"
    );
    println!("{:<28} {:>12.2} samples/s", "Var plane (tape built)", var_sps);
    println!("{:<28} {:>12.2} samples/s", "tensor plane (graph-free)", tensor_sps);
    println!("{:<28} {:>12.2}x", "speedup", tensor_sps / var_sps);

    // 1-replica cluster serving on the same weights.
    let mut ckpt = Vec::new();
    checkpoint::save_params(&net.params(), &mut ckpt).expect("serialize checkpoint");
    let cluster = Cluster::load(
        ClusterConfig::new(
            EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::tt(TtMode::Ptt), TIMESTEPS)
                .with_batching(BatchPolicy { max_batch: 8, max_wait: Duration::from_millis(1) }),
        )
        .with_replicas(1),
        ckpt.as_slice(),
    )
    .expect("cluster load");
    let mut rng = Rng::seed_from(7);
    let inputs: Vec<Tensor> =
        (0..BATCH).map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng)).collect();
    let cluster_rps = cluster_requests_per_sec(&cluster.session(), &inputs);
    println!(
        "{:<28} {:>12.2} requests/s ({})",
        "1-replica cluster serving",
        cluster_rps,
        cluster.info().model
    );

    let records = vec![
        BenchRecord {
            name: "var_plane".into(),
            metrics: vec![
                ("samples_per_sec".into(), var_sps),
                ("batch".into(), BATCH as f64),
                ("timesteps".into(), TIMESTEPS as f64),
                ("threads".into(), threads as f64),
            ],
        },
        BenchRecord {
            name: "tensor_plane".into(),
            metrics: vec![
                ("samples_per_sec".into(), tensor_sps),
                ("speedup_vs_var_plane".into(), tensor_sps / var_sps),
            ],
        },
        BenchRecord {
            name: "cluster_1_replica_serving".into(),
            metrics: vec![
                ("requests_per_sec".into(), cluster_rps),
                ("max_batch".into(), 8.0),
                ("max_wait_ms".into(), 1.0),
            ],
        },
    ];
    let path = "BENCH_infer_throughput.json";
    write_json(path, &records).expect("write bench json");
    println!("\nwrote {path}");
}
