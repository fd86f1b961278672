//! End-to-end tests of the model-side quantized serving plane:
//! calibrate → quantize → serve on VGG and ResNet, plan export/install
//! parity (under every sparse-dispatch mode and kernel thread count in
//! [`THREADS`]), and the merge-first contract.

use ttsnn_core::TtMode;
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{
    checkpoint, CalibStats, ConvPolicy, InferForward, InferStats, ResNetConfig, ResNetSnn,
    SpikingModel, VggConfig, VggSnn,
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
    let frames = calib_frames(3, 8, 3, 10);
    let calib = a.calibrate(&frames, T).unwrap();
    a.quantize(&calib, &QuantConfig::default()).unwrap();
    let plan = a.quant_plan().expect("quantized model exports a plan");

    // Replica: fresh weights, then the shared int8 plan and the float
    // (norm) remainder, installed as a serving replica is.
    let mut b = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut Rng::seed_from(999));
    b.install_frozen(&checkpoint::share_params(&a.params()), Some(&plan)).unwrap();
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
    let err = b.install_frozen(&[], Some(&plan)).unwrap_err().to_string();
    assert!(err.contains("classifier"), "unclear error: {err}");
    assert!(!b.is_quantized());
    assert_eq!(b.num_params(), before_params, "rejected install must not mutate the model");
    // Still serves on the float plane.
    b.set_infer_stats(InferStats::PerSample);
    let y = infer_logits(&mut b, &frames[0]);
    assert_eq!(y.len(), 7);
}

/// Calibration refuses what it cannot measure — no frame, no timestep, a
/// frame of another rank, another leading length, another `(C, H, W)` or
/// a non-finite value — with an error, not a panic, and the model
/// calibrates on afterwards.
#[test]
fn calibrate_rejects_what_it_cannot_use() {
    let mut net = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut Rng::seed_from(19));
    let frames = calib_frames(3, 8, 2, 20);
    let event = Tensor::zeros(&[T, 3, 8, 8]);
    let err = |net: &mut VggSnn, frames: &[Tensor], steps: usize| {
        net.calibrate(frames, steps).expect_err("calibration must be refused").to_string()
    };
    assert!(err(&mut net, &[], T).contains("0 frame(s)"));
    assert!(err(&mut net, &frames, 0).contains("0 timestep(s)"));
    assert!(err(&mut net, std::slice::from_ref(&event), 0).contains("0 timestep(s)"));
    let wrong_t = err(&mut net, std::slice::from_ref(&event), T + 1);
    assert!(wrong_t.contains("must be (C, H, W) or (3, C, H, W)"), "unclear error: {wrong_t}");
    assert!(err(&mut net, &[Tensor::zeros(&[8, 8])], T).contains("must be (C, H, W)"));
    assert!(err(&mut net, &[Tensor::zeros(&[1, T, 3, 8, 8])], T).contains("must be (C, H, W)"));
    assert!(err(&mut net, &[Tensor::zeros(&[2, 8, 8])], T).contains("(C, H, W) = (3, 8, 8)"));
    assert!(err(&mut net, &[Tensor::zeros(&[0, 8, 8])], T).contains("does not match the plan"));
    let mut nan = frames[0].clone();
    nan.data_mut()[5] = f32::NAN;
    assert!(err(&mut net, &[frames[0].clone(), nan], T).contains("non-finite"));
    // The refused calls left nothing behind.
    let calib = net.calibrate(&[frames[0].clone(), event], T).unwrap();
    assert_eq!((calib.frames, calib.timesteps), (2, T));
    net.quantize(&calib, &QuantConfig::default()).unwrap();
}

/// FNV-1a over every site's `(max_abs bits, integral, seen)`, site order.
fn calib_checksum(calib: &CalibStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &calib.sites {
        let flags = [u8::from(s.integral), u8::from(s.seen)];
        for byte in s.max_abs.to_bits().to_le_bytes().into_iter().chain(flags) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Calibration frames mixing direct coding `(C, 16, 16)` and per-timestep
/// `(steps, C, 16, 16)`: binary events, or analog pixels whose range grows
/// with the timestep, so the input site's maximum comes from the last one.
fn mixed_frames(c: usize, steps: usize, events: bool, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed);
    (0..4)
        .map(|i| {
            let shape = if i % 2 == 0 { vec![steps, c, 16, 16] } else { vec![c, 16, 16] };
            let mut x = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng);
            let frame = c * 16 * 16;
            for (t, slab) in x.data_mut().chunks_mut(frame).enumerate() {
                for v in slab {
                    *v = if events { f32::from(u8::from(*v < 0.3)) } else { *v * (t + 1) as f32 };
                }
            }
            x
        })
        .collect()
}

/// The activation ranges calibration records, pinned bit for bit on a
/// seeded 2-channel event VGG9 and a 3-channel analog MS-ResNet18 under
/// every convolution policy, at every kernel thread count: the int8 scales
/// a plan freezes cannot move unnoticed.
#[test]
fn calibration_stats_are_pinned() {
    const STEPS: usize = 4;
    let policies = [
        ("baseline", ConvPolicy::Baseline),
        ("PTT", ConvPolicy::tt(TtMode::Ptt)),
        ("HTT", ConvPolicy::tt(TtMode::htt_default(STEPS))),
    ];
    // (VGG9 events, MS-ResNet18 analog) per policy.
    let pinned: [u64; 6] = [
        0xaef1_3e66_6ae9_c174,
        0xe5d2_6868_78c6_c4ee,
        0x8a1f_3492_a7ec_0b54,
        0xe5d2_6868_78c6_c4ee,
        0xb528_7389_1b34_23f4,
        0xe5d2_6868_78c6_c4ee,
    ];
    let mut got = Vec::new();
    for (name, policy) in &policies {
        for arch in ["VGG9 events", "MS-ResNet18 analog"] {
            let mut rng = Rng::seed_from(23);
            let (mut net, frames) = if arch == "VGG9 events" {
                let net = VggSnn::new(VggConfig::vgg9(2, 5, (16, 16), 16), policy, &mut rng);
                (net, mixed_frames(2, STEPS, true, 24))
            } else {
                let net = ResNetSnn::new(ResNetConfig::resnet18(5, (16, 16), 16), policy, &mut rng);
                (net, mixed_frames(3, STEPS, false, 25))
            };
            let sums: Vec<u64> = THREADS
                .iter()
                .map(|&threads| {
                    let calib =
                        Runtime::new(threads).install(|| net.calibrate(&frames, STEPS)).unwrap();
                    assert_eq!((calib.frames, calib.timesteps), (frames.len(), STEPS));
                    assert_eq!(calib.sites.len(), net.conv_layer_specs().len() + 1);
                    calib_checksum(&calib)
                })
                .collect();
            assert!(
                sums.iter().all(|&s| s == sums[0]),
                "{arch} {name}: {sums:#x?} by thread count"
            );
            got.push(sums[0]);
        }
    }
    assert_eq!(got, pinned, "calibration checksums moved: {got:#x?}");
}
