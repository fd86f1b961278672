//! The quantized plane's parity and determinism contract:
//!
//! * the frozen int8 weights are **exactly** the grid
//!   `ttsnn_core::quant::fake_quant_int8` simulates (bit-equal
//!   dequantized weights);
//! * `Cluster::load_quantized` serves bit-identically to an in-process
//!   quantized model on the same checkpoint (`crates/serve/tests/matrix.rs`
//!   serves the int8 plan at every thread × replica count);
//! * a 3-replica quantized cluster serves bit-identically to the
//!   1-replica plan, with the int8 weights loaded once and `Arc`-shared;
//! * on a trained checkpoint, int8 serving tracks the f32 plan: high
//!   argmax agreement and a bounded accuracy delta on a synthetic
//!   dataset ([`ttsnn_infer::plan_drift`]).

use std::collections::BTreeSet;
use std::time::Duration;

use ttsnn_autograd::Var;
use ttsnn_core::quant::fake_quant_int8;
use ttsnn_core::TtMode;
use ttsnn_data::{Batch, StaticImages};
use ttsnn_infer::{
    plan_drift, BatchPolicy, Cluster, ClusterConfig, ClusterSession, EngineConfig, QuantSpec,
};
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{
    train, ConvPolicy, ConvUnit, InferForward, InferStats, SpikingModel, TrainConfig, VggSnn,
};
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{
    checkpoint_bytes, drained_metrics, samples as calib_samples, vgg9_tiny as vgg_cfg,
};

const T: usize = 2;

fn calib_frames(n: usize, seed: u64) -> Vec<Tensor> {
    calib_samples(seed, n)
}

fn engine_cfg() -> EngineConfig {
    engine_cfg_for(ConvPolicy::Baseline)
}

/// [`engine_cfg`] on `replicas` replicas.
fn cluster_cfg(replicas: usize) -> ClusterConfig {
    ClusterConfig::new(engine_cfg()).with_replicas(replicas)
}

fn engine_cfg_for(policy: ConvPolicy) -> EngineConfig {
    ttsnn_testutil::vgg_engine_config(policy, T, 4, Duration::from_millis(1))
}

/// Sum of per-timestep logits for one `(C, H, W)` frame on the inference
/// plane — the reference the engine must match bit for bit.
fn infer_logits(model: &mut VggSnn, frame: &Tensor) -> Tensor {
    ttsnn_testutil::infer_plane_reference(model, frame, T)
}

/// The frozen int8 plan executes exactly the weight grid that
/// quantization-aware training simulated: per-tensor frozen weights
/// dequantize **bit-equal** to `fake_quant_int8` on the same checkpoint
/// weights.
#[test]
fn frozen_weights_bit_equal_fake_quant_reference() {
    let mut rng = Rng::seed_from(1);
    let mut model = VggSnn::new(vgg_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    model.merge_into_dense().unwrap();
    // Snapshot the merged dense kernels before freezing.
    let dense_weights: Vec<Tensor> =
        model.params().iter().filter(|p| p.shape().len() == 4).map(|p| p.value().clone()).collect();
    let calib = model.calibrate(&calib_frames(2, 2), T).unwrap();
    model.quantize(&calib, &QuantConfig::default().per_tensor()).unwrap();
    let plan = model.quant_plan().unwrap();
    assert_eq!(plan.convs.len(), dense_weights.len());
    for (i, ((qw, _), dense)) in plan.convs.iter().zip(&dense_weights).enumerate() {
        let reference = fake_quant_int8(&Var::constant(dense.clone())).to_tensor();
        let frozen = ttsnn_snn::quant::QuantConv {
            weights: std::sync::Arc::clone(qw),
            x_scale: 1.0,
            accum: plan.accum,
        }
        .dequantized_weight()
        .unwrap();
        assert_eq!(frozen, reference, "conv {i}: int8 plane must execute the fake-quant grid");
    }
}

/// Cluster::load_quantized == in-process calibrate+quantize+forward on
/// the same checkpoint, bit for bit — and invariant to how requests were
/// batched.
#[test]
fn quantized_engine_bit_equals_in_process_reference() {
    let mut rng = Rng::seed_from(3);
    let mut reference = VggSnn::new(vgg_cfg(), &ConvPolicy::Baseline, &mut rng);
    let ckpt = checkpoint_bytes(&reference);
    let calibration = calib_frames(3, 4);

    // In-process reference path: same calibrate → quantize pipeline.
    let calib = reference.calibrate(&calibration, T).unwrap();
    reference.quantize(&calib, &QuantConfig::default()).unwrap();
    reference.set_infer_stats(InferStats::PerSample);

    let mut rng = Rng::seed_from(5);
    let inputs: Vec<Tensor> =
        (0..8).map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng)).collect();
    let want: Vec<Tensor> = inputs.iter().map(|x| infer_logits(&mut reference, x)).collect();

    let engine =
        Cluster::load_quantized(cluster_cfg(1), QuantSpec::new(calibration), ckpt.as_slice())
            .unwrap();
    let info = engine.info();
    let qi = info.quant.as_ref().expect("quantized plan reports what it froze");
    assert_eq!(qi.quantized_convs, 6);
    assert!(qi.per_channel);
    assert!(qi.int8_bytes * 3 < qi.f32_bytes, "int8 plan must be ~4x smaller");
    assert!(info.model.contains("int8"), "plan name: {}", info.model);

    let session = engine.session();
    // Coalesced submission: tickets ride shared batches.
    let tickets: Vec<_> = inputs.iter().map(|x| session.submit(x.clone()).unwrap()).collect();
    for (want, ticket) in want.iter().zip(tickets) {
        assert_eq!(
            &ticket.wait().unwrap(),
            want,
            "engine must match the in-process quantized reference bit-for-bit"
        );
    }
    // One-at-a-time submission: identical bits (batch-composition
    // invariance holds trivially — integer kernels never mix samples).
    for (input, want) in inputs.iter().zip(&want) {
        assert_eq!(&session.infer(input.clone()).unwrap(), want);
    }
}

/// A 3-replica quantized cluster == the 1-replica one bit-for-bit, and
/// the int8 buffers are genuinely shared (the plan reports one copy of the
/// weights however many replicas serve).
#[test]
fn quantized_cluster_bit_equals_engine_across_replicas() {
    let mut rng = Rng::seed_from(7);
    let model = VggSnn::new(vgg_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    let ckpt = checkpoint_bytes(&model);
    let calibration = calib_frames(3, 8);

    let cfg = engine_cfg_for(ConvPolicy::tt(TtMode::Ptt));
    let engine = Cluster::load_quantized(
        ClusterConfig::new(cfg.clone()).with_replicas(1),
        QuantSpec::new(calibration.clone()),
        ckpt.as_slice(),
    )
    .unwrap();
    let cluster = Cluster::load_quantized(
        ClusterConfig::new(cfg).with_replicas(3),
        QuantSpec::new(calibration),
        ckpt.as_slice(),
    )
    .unwrap();
    assert_eq!(engine.info(), cluster.info(), "same checkpoint, same frozen plan");
    assert!(cluster.info().quant.is_some());

    let mut rng = Rng::seed_from(9);
    let inputs: Vec<Tensor> =
        (0..10).map(|_| Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng)).collect();
    let esess = engine.session();
    let csess = cluster.session();
    let ctickets: Vec<_> =
        inputs.iter().map(|x| csess.submit(x.clone()).expect("cluster submit")).collect();
    for (input, ct) in inputs.iter().zip(ctickets) {
        let from_cluster = ct.wait().unwrap();
        let from_engine = esess.infer(input.clone()).unwrap();
        assert_eq!(
            from_cluster, from_engine,
            "replica count/scheduling must not change a single bit"
        );
    }
}

/// Build one batch-per-sample `(T, C, H, W)` request tensors out of a
/// dataset's batches.
fn requests_from_batches(batches: &[Batch]) -> (Vec<Tensor>, Vec<usize>) {
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for batch in batches {
        let bsz = batch.len();
        let (c, h, w) = {
            let s = batch.frames[0].shape();
            (s[1], s[2], s[3])
        };
        let frame_len = c * h * w;
        for i in 0..bsz {
            let mut data = Vec::with_capacity(T * frame_len);
            for frame in &batch.frames {
                data.extend_from_slice(&frame.data()[i * frame_len..(i + 1) * frame_len]);
            }
            inputs.push(Tensor::from_vec(data, &[T, c, h, w]).unwrap());
            labels.push(batch.labels[i]);
        }
    }
    (inputs, labels)
}

fn accuracy(session: &ClusterSession, inputs: &[Tensor], labels: &[usize]) -> f64 {
    let tickets: Vec<_> = inputs.iter().map(|x| session.submit(x.clone()).unwrap()).collect();
    let mut correct = 0usize;
    for (ticket, &label) in tickets.into_iter().zip(labels) {
        if ticket.wait().unwrap().argmax() == label {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

/// End-to-end on a trained checkpoint: the int8 plan's accuracy on a
/// synthetic dataset stays within a tight delta of the f32 plan, and the
/// two plans agree on most argmax predictions ([`plan_drift`]).
#[test]
fn trained_accuracy_delta_bounded_on_synth_dataset() {
    let timesteps = T;
    let mut rng = Rng::seed_from(11);
    let ds = StaticImages::new(3, 8, 8, 5, 0.15, 42).dataset(60, &mut rng);
    let (tr, te) = ds.split(0.75, &mut rng);
    let train_b = tr.batches(12, timesteps, &mut rng).unwrap();
    let test_b = te.batches(12, timesteps, &mut rng).unwrap();

    let mut model = VggSnn::new(vgg_cfg(), &ConvPolicy::Baseline, &mut rng);
    let tc = TrainConfig { epochs: 3, lr: 0.05, ..TrainConfig::default() };
    train(&mut model, &train_b, &test_b, &tc).unwrap();
    let ckpt = checkpoint_bytes(&model);

    // Calibrate on training frames (never the test set).
    let (calib_inputs, _) = requests_from_batches(&train_b[..1]);
    let f32_engine = Cluster::load(cluster_cfg(1), ckpt.as_slice()).unwrap();
    let int8_engine =
        Cluster::load_quantized(cluster_cfg(1), QuantSpec::new(calib_inputs), ckpt.as_slice())
            .unwrap();

    let (inputs, labels) = requests_from_batches(&test_b);
    let f32_sess = f32_engine.session();
    let int8_sess = int8_engine.session();
    let acc_f32 = accuracy(&f32_sess, &inputs, &labels);
    let acc_int8 = accuracy(&int8_sess, &inputs, &labels);
    assert!(
        (acc_f32 - acc_int8).abs() <= 0.25,
        "int8 shifted accuracy too much: {acc_f32} -> {acc_int8}"
    );

    let drift = plan_drift(&f32_sess, &int8_sess, &inputs).unwrap();
    assert_eq!(drift.requests, inputs.len());
    assert!(drift.agreement >= 0.7, "plans disagree too often: {}", drift.agreement);
    assert!(drift.mean_abs_err.is_finite() && drift.max_abs_err.is_finite());
    assert!(drift.mean_abs_err <= drift.max_abs_err as f64);
}

/// Config validation: an empty calibration set is rejected up front, and
/// a quantized plan cannot be asked to skip the merge.
#[test]
fn empty_calibration_rejected() {
    let mut rng = Rng::seed_from(13);
    let model = VggSnn::new(vgg_cfg(), &ConvPolicy::Baseline, &mut rng);
    let ckpt = checkpoint_bytes(&model);
    let Err(err) =
        Cluster::load_quantized(cluster_cfg(3), QuantSpec::new(Vec::new()), ckpt.as_slice())
    else {
        panic!("empty calibration must be rejected")
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("calibration"), "unclear error: {err}");
    // One replica rejects identically.
    let Err(err) =
        Cluster::load_quantized(cluster_cfg(1), QuantSpec::new(Vec::new()), ckpt.as_slice())
    else {
        panic!("empty calibration must be rejected")
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// The training plane of a quantized unit is explicitly closed: frozen
/// int8 weights cannot be trained.
#[test]
fn quantized_unit_has_no_training_plane() {
    let mut rng = Rng::seed_from(15);
    let mut model = VggSnn::new(vgg_cfg(), &ConvPolicy::Baseline, &mut rng);
    let calib = model.calibrate(&calib_frames(2, 16), T).unwrap();
    model.quantize(&calib, &QuantConfig::default()).unwrap();
    // Reach a quantized unit directly through the public ConvUnit API.
    let unit = ConvUnit::conv3x3(&ConvPolicy::Baseline, 0, 3, 4, (1, 1), &mut rng);
    drop(unit);
    let x = Var::constant(Tensor::zeros(&[1, 3, 8, 8]));
    let err = model.forward_timestep(&x, 0).unwrap_err().to_string();
    assert!(err.contains("training"), "unclear error: {err}");
}

/// A request with a NaN pixel fails its own ticket with a clear error on
/// BOTH planes — it must neither return NaN logits (f32) nor quantize
/// silently to zero (int8), and must not disturb co-batched requests.
#[test]
fn non_finite_requests_fail_their_own_ticket() {
    let mut rng = Rng::seed_from(21);
    let model = VggSnn::new(vgg_cfg(), &ConvPolicy::Baseline, &mut rng);
    let ckpt = checkpoint_bytes(&model);
    let calibration = calib_frames(2, 22);
    let int8 =
        Cluster::load_quantized(cluster_cfg(2), QuantSpec::new(calibration), ckpt.as_slice())
            .unwrap();
    let f32_engine = Cluster::load(cluster_cfg(1), ckpt.as_slice()).unwrap();

    let good = Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng);
    let mut bad = good.clone();
    bad.data_mut()[7] = f32::NAN;
    for engine in [&f32_engine, &int8] {
        let session = engine.session();
        // Submit the bad request co-batched with a good one.
        let (tb, tg) =
            (session.submit(bad.clone()).unwrap(), session.submit(good.clone()).unwrap());
        let err = tb.wait().unwrap_err().to_string();
        assert!(err.contains("non-finite"), "unclear error: {err}");
        let logits = tg.wait().unwrap();
        assert!(
            logits.data().iter().all(|v| v.is_finite()),
            "co-batched request must be unaffected"
        );
    }
}

/// Calibration is not traffic: every replica of an int8 plan starts with
/// empty activity counters, so one request answered again and again
/// reports one spike density, whichever replica served it.
#[test]
fn calibration_frames_never_reach_the_served_density() {
    let mut rng = Rng::seed_from(23);
    let model = VggSnn::new(vgg_cfg(), &ConvPolicy::Baseline, &mut rng);
    let ckpt = checkpoint_bytes(&model);
    let one_at_a_time = BatchPolicy { max_batch: 1, max_wait: Duration::ZERO };
    let config = ClusterConfig::new(engine_cfg().with_batching(one_at_a_time)).with_replicas(2);
    let cluster =
        Cluster::load_quantized(config, QuantSpec::new(calib_frames(8, 24)), ckpt.as_slice())
            .unwrap();
    let session = cluster.session();
    let request = Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut rng);
    let (mut means, mut layers) = (BTreeSet::new(), BTreeSet::new());
    for _ in 0..64 {
        session.infer(request.clone()).unwrap();
        let m = drained_metrics(&cluster);
        means.insert(m.mean_spike_density.expect("a served batch").to_bits());
        layers.insert(m.spike_density.iter().map(|d| d.to_bits()).collect::<Vec<_>>());
    }
    assert_eq!(means.len(), 1, "mean spike density moved across identical requests");
    assert_eq!(layers.len(), 1, "per-layer spike density moved across identical requests");
}
