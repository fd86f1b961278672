//! One process, three thread counts: `Runtime::install` pins the kernel
//! pool a whole training step or a whole served forward runs on, and no
//! result bit depends on it.
//!
//! The parity suites make the same claim, each sweeping [`THREADS`]; here
//! the three runs follow each other on one thread, beside one global
//! runtime and one arena, so a kernel that read the global runtime past an
//! installed scope, or a scope that leaked into the next run, would show.

use ttsnn_autograd::{Sgd, SgdConfig};
use ttsnn_core::TtMode;
use ttsnn_data::EventStream;
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::trainer::train_step;
use ttsnn_snn::{
    ConvPolicy, InferForward, InferStats, LossKind, ResNetConfig, ResNetSnn, SpikingModel, VggSnn,
};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{vgg9_tiny, THREADS};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// One classic step of an HTT MS-ResNet18 from a fixed seed: the loss bits
/// and the bits of every parameter's gradient, in `params()` order.
fn htt_step() -> (u32, Vec<Vec<u32>>) {
    let mut rng = Rng::seed_from(23);
    let t = 4;
    let cfg = ResNetConfig::resnet18_events(10, (16, 16), 8);
    let mut model = ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::htt_default(t)), &mut rng);
    let batch = EventStream::ncaltech_like(16, 16, 10, t)
        .dataset(8, &mut rng)
        .batches(8, t, &mut rng)
        .expect("one batch of 8")
        .remove(0);
    let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };
    let mut opt = Sgd::new(model.params(), sgd);
    let (loss, _) =
        train_step(&mut model, &batch, &mut opt, LossKind::SumCe).expect("batch fits the model");
    let grads = model
        .params()
        .iter()
        .map(|p| bits(&p.grad().expect("every parameter is reached by the loss")))
        .collect();
    (loss.to_bits(), grads)
}

#[test]
fn htt_training_step_is_bit_identical_under_installed_thread_counts() {
    let runs = THREADS.map(|n| {
        let rt = Runtime::new(n);
        let run = rt.install(htt_step);
        // The step's kernels forked on the installed pool, not the global one.
        assert_eq!(rt.stats().regions > 0, n > 1, "regions opened on the {n}-thread scope");
        run
    });
    for (n, run) in THREADS.iter().zip(&runs).skip(1) {
        assert_eq!(run.0, runs[0].0, "loss bits moved at {n} threads");
        assert_eq!(run.1.len(), runs[0].1.len());
        for (i, (got, want)) in run.1.iter().zip(&runs[0].1).enumerate() {
            assert_eq!(got, want, "gradient of parameter {i} moved at {n} threads");
        }
    }
}

#[test]
fn calibrated_int8_vgg_forward_is_bit_identical_under_installed_thread_counts() {
    let mut rng = Rng::seed_from(29);
    let mut net = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut rng);
    let frames: Vec<Tensor> =
        (0..4).map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng)).collect();
    let (t, b) = (2, 6);
    let calib = net.calibrate(&frames, t).expect("calibrate");
    net.quantize(&calib, &QuantConfig::default()).expect("quantize");
    net.set_infer_stats(InferStats::PerSample);
    // A time-major stack `(T·B, C, H, W)`, served in one call.
    let x = Tensor::rand_uniform(&[t * b, 3, 8, 8], 0.0, 1.0, &mut rng);
    let logits = THREADS.map(|n| {
        Runtime::new(n).install(|| {
            net.reset_state();
            bits(&net.forward_steps_tensor(&x, 0, t).expect("forward"))
        })
    });
    for (n, got) in THREADS.iter().zip(&logits).skip(1) {
        assert_eq!(got, &logits[0], "int8 logits moved at {n} threads");
    }
}
