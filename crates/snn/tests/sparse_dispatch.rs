//! Dispatcher-mode invariance for the spike-sparsity execution path.
//!
//! The density-adaptive dispatcher is a **performance choice, never a
//! semantic one**: whatever mode a model runs under — route everything
//! sparse, route nothing sparse, or decide per site from measured density
//! — the logits must be bit-identical. This suite pins that over VGG9 and
//! ResNet20, on the f32 and int8 planes, with spiking inputs at densities
//! on both sides of the routing threshold plus analog (unpackable) inputs,
//! in both `InferStats` modes, and at every kernel thread count in
//! [`THREADS`]: each mode at each count must equal the dense walk on one
//! thread.

use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{ConvPolicy, InferForward, InferStats, ResNetSnn, SpikingModel, VggSnn};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::{self, SparseMode};
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{resnet20_tiny, vgg9_tiny, THREADS};

const T: usize = 3;

/// `n` binary `(C, H, W)` frames with roughly `density` ones.
fn spike_frames(c: usize, hw: usize, n: usize, density: f32, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| {
            let data =
                (0..c * hw * hw).map(|_| if rng.uniform() < density { 1.0 } else { 0.0 }).collect();
            Tensor::from_vec(data, &[c, hw, hw]).unwrap()
        })
        .collect()
}

/// `n` analog frames (almost surely unpackable — the dense fallback path).
fn analog_frames(c: usize, hw: usize, n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed);
    (0..n).map(|_| Tensor::rand_uniform(&[c, hw, hw], 0.0, 1.0, &mut rng)).collect()
}

/// Per-timestep logits for a batch built from `frames`, under the given
/// stats mode (the input is repeated across timesteps, like static data).
fn batch_logits(
    model: &mut (impl InferForward + ?Sized),
    frames: &[Tensor],
    stats: InferStats,
) -> Vec<Tensor> {
    let [c, h, w] = [frames[0].shape()[0], frames[0].shape()[1], frames[0].shape()[2]];
    let mut data = Vec::new();
    for f in frames {
        data.extend_from_slice(f.data());
    }
    let input = Tensor::from_vec(data, &[frames.len(), c, h, w]).unwrap();
    model.set_infer_stats(stats);
    model.reset_state();
    let out = (0..T).map(|t| model.forward_timestep_tensor(&input, t).unwrap()).collect();
    model.reset_state();
    out
}

/// Asserts Off / Auto / Force at every count in [`THREADS`] produce the
/// logits of Off on one thread, bit for bit, on `frames`.
fn assert_mode_invariant<M, F>(model: &mut M, set_mode: F, frames: &[Tensor], label: &str)
where
    M: InferForward + ?Sized,
    F: Fn(&mut M, SparseMode),
{
    for stats in [InferStats::PerSample, InferStats::Batch] {
        set_mode(model, SparseMode::Off);
        let reference = Runtime::new(1).install(|| batch_logits(model, frames, stats));
        for threads in THREADS {
            for mode in [SparseMode::Off, SparseMode::Auto, SparseMode::Force] {
                set_mode(model, mode);
                let got = Runtime::new(threads).install(|| batch_logits(model, frames, stats));
                for (t, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
                    assert_eq!(
                        a, b,
                        "{label}: {mode:?} at {threads} threads differs from Off at t={t} \
                         under {stats:?}"
                    );
                }
            }
        }
        set_mode(model, spike::sparse_mode());
    }
}

#[test]
fn vgg_f32_dispatch_modes_are_bit_identical() {
    let mut rng = Rng::seed_from(11);
    let cfg = vgg9_tiny();
    let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    // Densities straddling SPARSE_DENSITY_THRESHOLD, plus analog input.
    for (i, density) in [0.05f32, 0.6].iter().enumerate() {
        let frames = spike_frames(3, 8, 3, *density, 100 + i as u64);
        assert_mode_invariant(&mut net, VggSnn::set_sparse_mode, &frames, "vgg f32 spikes");
    }
    let analog = analog_frames(3, 8, 3, 102);
    assert_mode_invariant(&mut net, VggSnn::set_sparse_mode, &analog, "vgg f32 analog");
}

#[test]
fn resnet_f32_dispatch_modes_are_bit_identical() {
    let mut rng = Rng::seed_from(12);
    let cfg = resnet20_tiny(5);
    let mut net = ResNetSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    for (i, density) in [0.05f32, 0.6].iter().enumerate() {
        let frames = spike_frames(3, 8, 3, *density, 200 + i as u64);
        assert_mode_invariant(&mut net, ResNetSnn::set_sparse_mode, &frames, "resnet f32 spikes");
    }
    let analog = analog_frames(3, 8, 3, 202);
    assert_mode_invariant(&mut net, ResNetSnn::set_sparse_mode, &analog, "resnet f32 analog");
}

#[test]
fn vgg_int8_dispatch_modes_are_bit_identical() {
    let mut rng = Rng::seed_from(13);
    let cfg = vgg9_tiny();
    let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    let frames = spike_frames(3, 8, 3, 0.15, 300);
    let calib = net.calibrate(&frames, T).unwrap();
    net.quantize(&calib, &QuantConfig::default()).unwrap();
    assert_mode_invariant(&mut net, VggSnn::set_sparse_mode, &frames, "vgg int8 spikes");
    let analog = analog_frames(3, 8, 3, 301);
    assert_mode_invariant(&mut net, VggSnn::set_sparse_mode, &analog, "vgg int8 analog");
}

#[test]
fn resnet_int8_dispatch_modes_are_bit_identical() {
    let mut rng = Rng::seed_from(14);
    let cfg = resnet20_tiny(5);
    let mut net = ResNetSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    let frames = spike_frames(3, 8, 3, 0.15, 400);
    let calib = net.calibrate(&frames, T).unwrap();
    net.quantize(&calib, &QuantConfig::default()).unwrap();
    assert_mode_invariant(&mut net, ResNetSnn::set_sparse_mode, &frames, "resnet int8 spikes");
}

#[test]
fn layer_spike_densities_are_measured_and_bounded() {
    let mut rng = Rng::seed_from(15);
    let cfg = vgg9_tiny();
    let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
    assert!(
        net.layer_spike_densities().iter().all(|&d| d == 0.0),
        "unrun layers must report density 0.0"
    );
    let frames = spike_frames(3, 8, 4, 0.3, 500);
    let _ = batch_logits(&mut net, &frames, InferStats::PerSample);
    let densities = net.layer_spike_densities();
    assert_eq!(densities.len(), 6, "one density per LIF layer in network order");
    assert!(densities.iter().all(|&d| (0.0..=1.0).contains(&d)), "densities must be in [0, 1]");
    assert!(densities.iter().any(|&d| d > 0.0), "an untrained net still fires somewhere");
    let mean = net.mean_spike_activity().expect("activity tracked after a forward pass");
    assert!((0.0..=1.0).contains(&mean));
}

#[test]
fn sparse_mode_defaults_to_auto() {
    let mut rng = Rng::seed_from(16);
    let mut net = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut rng);
    assert_eq!(net.sparse_dispatch_mode(), SparseMode::Auto);
    assert_eq!(spike::sparse_mode(), SparseMode::Auto);
    net.set_sparse_mode(SparseMode::Force);
    assert_eq!(net.sparse_dispatch_mode(), SparseMode::Force);
}

/// A finding, pinned: "sparse dispatch on every layer" is not what runs.
/// VGG9's third and fifth convolutions read a 2 × 2 average of spikes —
/// values in {0, ¼, ½, ¾, 1} — which no dispatch mode can route to the
/// event-driven kernels, and the classifier reads a pooled map too. Only
/// the sites a LIF layer (or a binary input) feeds directly run sparse.
/// (`layer_spike_densities` counts LIF layers under the threshold, not
/// convolutions routed sparse.)
#[test]
fn vgg9_sites_behind_a_pool_run_dense_whatever_the_density() {
    let mut rng = Rng::seed_from(17);
    let mut net = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut rng);
    let frames = spike_frames(3, 8, 4, 0.1, 600);
    for mode in [SparseMode::Auto, SparseMode::Force] {
        net.set_sparse_mode(mode);
        net.clear_dispatch_counts();
        let _ = batch_logits(&mut net, &frames, InferStats::PerSample);
        let calls = T as u64;
        let (sparse, dense) = ((calls, 0), (0, calls));
        assert_eq!(
            net.conv_dispatch_counts(),
            [sparse, sparse, dense, sparse, dense, sparse, dense],
            "{mode:?}: conv sites 0-5, then the classifier; densities {:?}",
            net.layer_spike_densities()
        );
    }
    net.set_sparse_mode(SparseMode::Off);
    net.clear_dispatch_counts();
    let _ = batch_logits(&mut net, &frames, InferStats::PerSample);
    assert!(net.conv_dispatch_counts().iter().all(|&(sparse, _)| sparse == 0));
    net.clear_dispatch_counts();
    assert!(net.conv_dispatch_counts().iter().all(|&calls| calls == (0, 0)));
}
