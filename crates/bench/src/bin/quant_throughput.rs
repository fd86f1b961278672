//! Quantized serving plane: int8 vs f32 frozen plans on the same
//! checkpoint.
//!
//! Criterion-free. Recorded into `BENCH_quant_infer.json` in the working
//! directory:
//!
//! 1. **`f32_plan`** — requests/second through a merged-dense f32
//!    1-replica [`Cluster`] plus the plan's weight storage in bytes.
//! 2. **`int8_plan`** — requests/second through the same checkpoint
//!    frozen with [`Cluster::load_quantized`] (calibrate → int8 freeze →
//!    serve on the i8×i8→i32 kernels), plus int8 weight storage and the
//!    measured logit drift/argmax agreement against the f32 plan.
//! 3. **`modeled_accel_energy`** — what one inference of each plan would
//!    cost on the paper's accelerator datapath
//!    (`ttsnn_accel::serving_energy`): the measured CPU speedup is a
//!    kernel artifact, the modeled energy is the Table I story.
//!
//! ```sh
//! cargo run -p ttsnn-bench --release --bin quant_throughput
//! ```

use std::time::{Duration, Instant};

use ttsnn_accel::{serving_energy, EnergyModel, ServingPrecision};
use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_core::TtMode;
use ttsnn_infer::{
    plan_drift, ArchSpec, BatchPolicy, Cluster, ClusterConfig, ClusterSession, EngineConfig,
    QuantSpec,
};
use ttsnn_snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};

const TIMESTEPS: usize = 4;
const REQUESTS: usize = 16;
const ITERS: usize = 3;

fn vgg_cfg() -> VggConfig {
    VggConfig::vgg9(3, 10, (16, 16), 8)
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig::new(
        EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::tt(TtMode::Ptt), TIMESTEPS)
            .merged()
            .with_batching(BatchPolicy { max_batch: 8, max_wait: Duration::from_millis(1) }),
    )
    .with_replicas(1)
}

fn requests_per_sec(session: &ClusterSession, inputs: &[Tensor]) -> f64 {
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
    println!("quant_throughput: {threads} kernel thread(s), VGG9 [PTT->merged], T={TIMESTEPS}\n");

    let mut rng = Rng::seed_from(42);
    let model = VggSnn::new(vgg_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    let macs_per_timestep = model.macs_at(0) as f64;
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt).expect("serialize checkpoint");

    let mut rng = Rng::seed_from(7);
    let calibration: Vec<Tensor> =
        (0..4).map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng)).collect();
    let inputs: Vec<Tensor> =
        (0..REQUESTS).map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng)).collect();

    let f32_engine = Cluster::load(cluster_cfg(), ckpt.as_slice()).expect("f32 cluster");
    let int8_engine =
        Cluster::load_quantized(cluster_cfg(), QuantSpec::new(calibration), ckpt.as_slice())
            .expect("int8 cluster");
    let qi = int8_engine.info().quant.clone().expect("quant info");
    // The f32 plan stores the same weights the int8 plan froze, at 4
    // bytes each, plus the (float-in-both-plans) norm parameters.
    let f32_plan_bytes = qi.f32_bytes + int8_engine.info().num_params * 4;
    let int8_plan_bytes = qi.int8_bytes + int8_engine.info().num_params * 4;

    let f32_sess = f32_engine.session();
    let int8_sess = int8_engine.session();
    let f32_rps = requests_per_sec(&f32_sess, &inputs);
    let int8_rps = requests_per_sec(&int8_sess, &inputs);
    let drift = plan_drift(&f32_sess, &int8_sess, &inputs).expect("drift report");

    println!(
        "{:<26} {:>12.2} requests/s  {:>10} weight bytes",
        "f32 plan", f32_rps, f32_plan_bytes
    );
    println!(
        "{:<26} {:>12.2} requests/s  {:>10} weight bytes",
        "int8 plan", int8_rps, int8_plan_bytes
    );
    println!(
        "{:<26} {:>12.2}x throughput, {:.2}x storage",
        "int8 vs f32",
        int8_rps / f32_rps,
        f32_plan_bytes as f64 / int8_plan_bytes as f64
    );
    println!(
        "{:<26} agreement {:.1}%, mean |dlogit| {:.4}, max {:.4}",
        "plan drift",
        drift.agreement * 100.0,
        drift.mean_abs_err,
        drift.max_abs_err
    );

    // Modeled accelerator energy per inference (Table I datapath).
    let m = EnergyModel::nm28();
    let weights = qi.f32_bytes as f64 / 4.0;
    let activations = macs_per_timestep / (9.0 * 8.0); // rough per-layer output volume
    let e_f32 = serving_energy(
        macs_per_timestep,
        weights,
        activations,
        TIMESTEPS as f64,
        ServingPrecision::F32,
        &m,
    );
    let e_int8 = serving_energy(
        macs_per_timestep,
        weights,
        activations,
        TIMESTEPS as f64,
        ServingPrecision::Int8,
        &m,
    );
    println!(
        "{:<26} {:.1} nJ (f32) vs {:.1} nJ (int8) = {:.2}x modeled",
        "accelerator energy",
        e_f32.total_nj(),
        e_int8.total_nj(),
        e_f32.total_pj() / e_int8.total_pj()
    );

    let records = vec![
        BenchRecord {
            name: "f32_plan".into(),
            metrics: vec![
                ("requests_per_sec".into(), f32_rps),
                ("weight_bytes".into(), f32_plan_bytes as f64),
                ("timesteps".into(), TIMESTEPS as f64),
                ("threads".into(), threads as f64),
            ],
        },
        BenchRecord {
            name: "int8_plan".into(),
            metrics: vec![
                ("requests_per_sec".into(), int8_rps),
                ("weight_bytes".into(), int8_plan_bytes as f64),
                ("speedup_vs_f32".into(), int8_rps / f32_rps),
                ("storage_ratio_vs_f32".into(), f32_plan_bytes as f64 / int8_plan_bytes as f64),
                ("quantized_convs".into(), qi.quantized_convs as f64),
                ("argmax_agreement".into(), drift.agreement),
                ("mean_abs_logit_err".into(), drift.mean_abs_err),
                ("max_abs_logit_err".into(), drift.max_abs_err as f64),
            ],
        },
        BenchRecord {
            name: "modeled_accel_energy".into(),
            metrics: vec![
                ("f32_nj_per_inference".into(), e_f32.total_nj()),
                ("int8_nj_per_inference".into(), e_int8.total_nj()),
                ("modeled_energy_ratio".into(), e_f32.total_pj() / e_int8.total_pj()),
            ],
        },
    ];
    let path = "BENCH_quant_infer.json";
    write_json(path, &records).expect("write bench json");
    println!("\nwrote {path}");
}
