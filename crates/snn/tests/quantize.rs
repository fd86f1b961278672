//! End-to-end tests of the model-side quantized serving plane:
//! calibrate → quantize → serve on VGG and ResNet, plan export/install
//! parity (under every sparse-dispatch mode and kernel thread count in
//! [`THREADS`]), and the merge-first contract.

use ttsnn_core::TtMode;
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{
    checkpoint, ConvPolicy, InferForward, InferStats, ResNetConfig, ResNetSnn, SpikingModel,
    VggConfig, VggSnn,
};
use ttsnn_tensor::qkernels::QAccum;
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::SparseMode;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{vgg9_tiny, THREADS};

const T: usize = 2;

fn calib_frames(c: usize, hw: usize, n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed);
    (0..n).map(|_| Tensor::rand_uniform(&[c, hw, hw], 0.0, 1.0, &mut rng)).collect()
}

/// Sum of per-timestep logits for one `(C, H, W)` frame on the inference
/// plane.
fn infer_logits(model: &mut dyn InferForward, frame: &Tensor) -> Tensor {
    model.reset_state();
    let mut shape = vec![1];
    shape.extend_from_slice(frame.shape());
    let input = Tensor::from_vec(frame.data().to_vec(), &shape).unwrap();
    let mut summed: Option<Tensor> = None;
    for t in 0..T {
        let logits = model.forward_timestep_tensor(&input, t).unwrap();
        match summed.as_mut() {
            Some(s) => s.add_scaled(&logits, 1.0).unwrap(),
            None => summed = Some(logits),
        }
    }
    model.reset_state();
    summed.unwrap()
}

#[test]
fn vgg_calibrate_quantize_serve() {
    let mut rng = Rng::seed_from(1);
    let cfg = vgg9_tiny();
    let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    let frames = calib_frames(3, 8, 4, 2);
    let float_params = net.num_params();

    // Float reference logits before freezing.
    net.set_infer_stats(InferStats::PerSample);
    let float_logits: Vec<Tensor> = frames.iter().map(|f| infer_logits(&mut net, f)).collect();

    let calib = net.calibrate(&frames, T).unwrap();
    assert!(!net.is_quantized());
    let report = net.quantize(&calib, &QuantConfig::default()).unwrap();
    assert!(net.is_quantized());
    assert_eq!(report.quantized_convs, 6);
    assert!(report.per_channel);
    assert_eq!(report.accum, QAccum::I32);
    assert!(
        report.int8_bytes * 3 < report.f32_bytes,
        "int8 plan must be ~4x smaller: {} vs {}",
        report.int8_bytes,
        report.f32_bytes
    );
    assert_eq!(net.name(), "VGG9 [int8]");
    // Only the norm parameters stay trainable/float.
    assert!(net.num_params() < float_params / 4);

    // Quantized outputs track the float plan on calibrated data. The net
    // is untrained, so tdBN + LIF thresholding amplify grid noise into
    // occasional spike flips — the bound is a sanity rail, not an accuracy
    // claim (the trained-accuracy delta is pinned in
    // `crates/infer/tests/quant.rs`).
    for (f, want) in frames.iter().zip(&float_logits) {
        let got = infer_logits(&mut net, f);
        let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        let diff = got.max_abs_diff(want).unwrap();
        assert!(diff < 0.7 * scale, "quantized drifted too far: {diff} vs |logits| {scale}");
    }

    // Determinism: repeated quantized passes are bit-identical, at every
    // kernel thread count.
    let a = infer_logits(&mut net, &frames[0]);
    for threads in THREADS {
        let b = Runtime::new(threads).install(|| infer_logits(&mut net, &frames[0]));
        assert_eq!(a, b, "{threads} threads");
    }
}

#[test]
fn quantize_requires_merge_first() {
    let mut rng = Rng::seed_from(3);
    let cfg = vgg9_tiny();
    let mut net = VggSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    let frames = calib_frames(3, 8, 2, 4);
    let calib = net.calibrate(&frames, T).unwrap();
    let err = net.quantize(&calib, &QuantConfig::default()).unwrap_err().to_string();
    assert!(err.contains("merge"), "unclear error: {err}");
    // After the merge the same calibration freezes cleanly.
    net.merge_into_dense().unwrap();
    net.quantize(&calib, &QuantConfig::default()).unwrap();
    assert_eq!(net.name(), "VGG9 [int8]");
}

#[test]
fn resnet_tt_merge_quantize_and_site_count() {
    let mut rng = Rng::seed_from(5);
    let cfg = ResNetConfig::resnet18(4, (8, 8), 16);
    let mut net = ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    net.merge_into_dense().unwrap();
    let frames = calib_frames(3, 8, 3, 6);
    net.set_infer_stats(InferStats::PerSample);
    let float_logits: Vec<Tensor> = frames.iter().map(|f| infer_logits(&mut net, f)).collect();
    let calib = net.calibrate(&frames, T).unwrap();
    let report = net.quantize(&calib, &QuantConfig::default()).unwrap();
    // resnet18: stem + 8 blocks x 2 convs + 3 projection shortcuts.
    assert_eq!(report.quantized_convs, 1 + 16 + 3);
    assert!(net.is_quantized());
    for (f, want) in frames.iter().zip(&float_logits) {
        let got = infer_logits(&mut net, f);
        let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
        assert!(got.max_abs_diff(want).unwrap() < 0.5 * scale);
    }
}

#[test]
fn stale_calibration_is_rejected() {
    let mut rng = Rng::seed_from(7);
    let mut small = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut rng);
    let mut rn =
        ResNetSnn::new(ResNetConfig::resnet18(5, (8, 8), 16), &ConvPolicy::Baseline, &mut rng);
    let frames = calib_frames(3, 8, 2, 8);
    let rn_calib = rn.calibrate(&frames, T).unwrap();
    // A ResNet calibration has more sites than the VGG has convs.
    let err = small.quantize(&rn_calib, &QuantConfig::default()).unwrap_err().to_string();
    assert!(err.contains("site"), "unclear error: {err}");
}

#[test]
fn plan_export_install_is_bit_exact_and_shares_storage() {
    let mut rng = Rng::seed_from(9);
    let cfg = vgg9_tiny();
    let mut a = VggSnn::new(cfg.clone(), &ConvPolicy::Baseline, &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&a.params(), &mut ckpt).unwrap();
    let frames = calib_frames(3, 8, 3, 10);
    let calib = a.calibrate(&frames, T).unwrap();
    a.quantize(&calib, &QuantConfig::default()).unwrap();
    let plan = a.quant_plan().expect("quantized model exports a plan");

    // Replica: fresh weights (loaded from the same checkpoint for the
    // norm params), then the shared int8 plan.
    let mut b = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut Rng::seed_from(999));
    checkpoint::load_params(&b.params(), ckpt.as_slice()).unwrap();
    b.install_quant_plan(&plan).unwrap();
    assert!(b.is_quantized());

    a.set_infer_stats(InferStats::PerSample);
    b.set_infer_stats(InferStats::PerSample);
    for f in &frames {
        let ya = infer_logits(&mut a, f);
        for threads in THREADS {
            for mode in [SparseMode::Auto, SparseMode::Force, SparseMode::Off] {
                b.set_sparse_mode(mode);
                let yb = Runtime::new(threads).install(|| infer_logits(&mut b, f));
                assert_eq!(
                    ya, yb,
                    "installed plan must serve bit-identically ({threads} threads, {mode:?})"
                );
            }
        }
    }

    // The int8 buffers are aliased, not copied.
    let plan_b = b.quant_plan().unwrap();
    for ((wa, _), (wb, _)) in plan.convs.iter().zip(plan_b.convs.iter()) {
        assert!(std::sync::Arc::ptr_eq(wa, wb), "conv weights must be shared");
    }
    assert!(std::sync::Arc::ptr_eq(&plan.fc.0, &plan_b.fc.0), "classifier must be shared");
}

#[test]
fn saturating_accumulator_mode_threads_through() {
    let mut rng = Rng::seed_from(11);
    let cfg = vgg9_tiny();
    let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    let frames = calib_frames(3, 8, 2, 12);
    let calib = net.calibrate(&frames, T).unwrap();
    let report = net.quantize(&calib, &QuantConfig::default().saturating16()).unwrap();
    assert_eq!(report.accum, QAccum::Saturate16);
    // Still serves (values clamp instead of overflowing).
    let y = infer_logits(&mut net, &frames[0]);
    assert!(y.data().iter().all(|v| v.is_finite()));
    let plan = net.quant_plan().unwrap();
    assert_eq!(plan.accum, QAccum::Saturate16);
}

#[test]
fn failed_quantize_leaves_model_untouched_and_retryable() {
    let mut rng = Rng::seed_from(13);
    let cfg = vgg9_tiny();
    let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    let frames = calib_frames(3, 8, 2, 14);
    let calib = net.calibrate(&frames, T).unwrap();
    // Poison the classifier: quantize must fail WITHOUT freezing any conv.
    let params = net.params();
    let fc_w = &params[params.len() - 2];
    let clean = fc_w.value().clone();
    let mut poisoned = clean.clone();
    poisoned.data_mut()[0] = f32::NAN;
    fc_w.set_value(poisoned);
    let err = net.quantize(&calib, &QuantConfig::default()).unwrap_err().to_string();
    assert!(err.contains("non-finite"), "unclear error: {err}");
    assert!(!net.is_quantized(), "failed quantize must not half-freeze the model");
    // The model is still fully usable and the quantize is retryable.
    fc_w.set_value(clean);
    net.quantize(&calib, &QuantConfig::default()).unwrap();
    assert!(net.is_quantized());
}

#[test]
fn mismatched_plan_install_leaves_model_untouched() {
    let mut rng = Rng::seed_from(17);
    // Plan frozen for a 5-class model...
    let cfg5 = vgg9_tiny();
    let mut a = VggSnn::new(cfg5, &ConvPolicy::Baseline, &mut rng);
    let frames = calib_frames(3, 8, 2, 18);
    let calib = a.calibrate(&frames, T).unwrap();
    a.quantize(&calib, &QuantConfig::default()).unwrap();
    let plan = a.quant_plan().unwrap();
    // ...must not install into a 7-class model, and must not touch it.
    let cfg7 = VggConfig::vgg9(3, 7, (8, 8), 16);
    let mut b = VggSnn::new(cfg7, &ConvPolicy::Baseline, &mut rng);
    let before_params = b.num_params();
    let err = b.install_quant_plan(&plan).unwrap_err().to_string();
    assert!(err.contains("classifier"), "unclear error: {err}");
    assert!(!b.is_quantized());
    assert_eq!(b.num_params(), before_params, "rejected install must not mutate the model");
    // Still serves on the float plane.
    b.set_infer_stats(InferStats::PerSample);
    let y = infer_logits(&mut b, &frames[0]);
    assert_eq!(y.len(), 7);
}

#[test]
fn calibration_frame_rejects_out_of_range_timestep() {
    use ttsnn_snn::quant::calibration_frame_at;
    let event = Tensor::zeros(&[2, 3, 4, 4]);
    assert!(calibration_frame_at(&event, 1, 2).is_ok());
    let err = calibration_frame_at(&event, 2, 2).unwrap_err().to_string();
    assert!(err.contains("out of range"), "unclear error: {err}");
    assert!(calibration_frame_at(&event, 0, 0).is_err(), "timesteps = 0 must error, not panic");
}
