//! Quantized-plane tour: calibrate → freeze to int8 → serve, on a
//! 1-replica cluster and on the env-sized one, with a drift report against
//! the f32 plan frozen from the same checkpoint.
//!
//! ```sh
//! TTSNN_NUM_REPLICAS=3 cargo run --release --example quant_serve
//! ```

use std::time::Duration;

use tt_snn::core::TtMode;
use tt_snn::infer::{
    plan_drift, ArchSpec, BatchPolicy, Cluster, ClusterConfig, EngineConfig, QuantSpec,
};
use tt_snn::snn::quant::QuantConfig;
use tt_snn::snn::{checkpoint, ConvPolicy, SpikingModel, VggConfig, VggSnn};
use tt_snn::tensor::{Rng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(7);
    let timesteps = 2usize;

    // Train-side hand-off: one checkpoint (here: untrained weights; in a
    // real pipeline, whatever `train` produced).
    let cfg = VggConfig::vgg9(3, 4, (8, 8), 16);
    let policy = ConvPolicy::tt(TtMode::Ptt);
    let model = VggSnn::new(cfg.clone(), &policy, &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt)?;

    let engine_cfg = EngineConfig::new(ArchSpec::Vgg(cfg), policy, timesteps)
        .merged()
        .with_batching(BatchPolicy { max_batch: 4, max_wait: Duration::from_millis(2) });
    let solo_cfg = ClusterConfig::new(engine_cfg.clone()).with_replicas(1);

    // Step 1+2: calibration frames fix the static activation scales; the
    // cluster loads the checkpoint, merges TT cores back to dense, runs
    // the calibration pass, and freezes every conv + the classifier to
    // int8 (per-output-channel scales, exact i32 accumulators).
    let calibration: Vec<Tensor> =
        (0..4).map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng)).collect();
    let int8 = Cluster::load_quantized(
        solo_cfg.clone(),
        QuantSpec::new(calibration.clone()).with_config(QuantConfig::default()),
        ckpt.as_slice(),
    )?;
    let qi = int8.info().quant.clone().expect("quantized plan");
    println!(
        "frozen {}: {} convs -> int8, {} bytes (was {} as f32, {:.2}x smaller)",
        int8.info().model,
        qi.quantized_convs,
        qi.int8_bytes,
        qi.f32_bytes,
        qi.f32_bytes as f64 / qi.int8_bytes as f64
    );

    // Step 3: serve. Same session/batching machinery as the float plane;
    // integer accumulation makes logits bit-identical across thread
    // counts and batch compositions.
    let f32_plan = Cluster::load(solo_cfg, ckpt.as_slice())?;
    let inputs: Vec<Tensor> =
        (0..8).map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng)).collect();
    let logits = int8.session().infer(inputs[0].clone())?;
    println!("int8 logits[0]: {:?}", &logits.data()[..logits.len().min(4)]);

    // What did quantization cost? Drift of the int8 plan vs the f32 plan.
    let drift = plan_drift(&f32_plan.session(), &int8.session(), &inputs)?;
    println!(
        "drift vs f32 plan: {:.0}% argmax agreement, mean |dlogit| {:.4}, max {:.4}",
        drift.agreement * 100.0,
        drift.mean_abs_err,
        drift.max_abs_err
    );

    // The same spec freezes N replicas: the int8 weights are quantized
    // once, at load, and Arc-shared — N replicas, one copy.
    let cluster = Cluster::load_quantized(
        ClusterConfig::new(engine_cfg).with_queue_capacity(64),
        QuantSpec::new(calibration),
        ckpt.as_slice(),
    )?;
    let session = cluster.session();
    let tickets: Vec<_> = inputs.iter().map(|x| session.submit(x.clone())).collect();
    let mut agree = 0usize;
    for (ticket, input) in tickets.into_iter().zip(&inputs) {
        let y = ticket?.wait()?;
        // Bit-identical to one replica, whatever TTSNN_NUM_REPLICAS.
        if y == int8.session().infer(input.clone())? {
            agree += 1;
        }
    }
    println!(
        "cluster ({} replicas): {agree}/{} requests bit-identical to the 1-replica cluster",
        cluster.replicas(),
        inputs.len()
    );
    Ok(())
}
