//! # ttsnn-testutil
//!
//! Shared fixtures for the workspace's integration suites: the tiny
//! CPU-feasible architectures every suite trains/serves, checkpoint
//! round-trips, deterministic sample generators, the two execution-plane
//! reference forwards, and cluster drain helpers.
//!
//! This crate is a **dev-dependency only** (Cargo permits the
//! `snn → testutil → snn` cycle because dev-dependencies do not
//! participate in the build graph of the library itself). Fixtures live
//! here so the suites in `crates/snn/tests`, `crates/infer/tests` and the
//! bench bins agree on what "the tiny VGG9" is — drifting copies of these
//! helpers were how shape mismatches between suites crept in.
//!
//! Everything here is deterministic: same seed, same bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Duration;

use ttsnn_autograd::Var;
use ttsnn_infer::{ArchSpec, BatchPolicy, Cluster, ClusterConfig, ClusterMetrics, EngineConfig};

/// The clock scheduling tests run the serving core on: it moves only when
/// the test advances it (see [`ttsnn_infer::clock`]).
pub use ttsnn_infer::ManualClock;
use ttsnn_snn::{
    checkpoint, ConvPolicy, InferForward, Network, ResNetConfig, SpikingModel, VggConfig, VggSnn,
};
use ttsnn_tensor::{Rng, Tensor};

/// The kernel thread counts every determinism suite sweeps in-process,
/// each under `Runtime::new(n).install(..)`: serial, the smallest pool
/// that forks, and an oversubscribed one.
pub const THREADS: [usize; 3] = [1, 2, 8];

/// The `(C, H, W)` frame shape of all tiny fixtures.
pub const FRAME_SHAPE: [usize; 3] = [3, 8, 8];

/// The tiny 5-class VGG9 (width 16, 8×8 inputs) every suite trains and
/// serves.
pub fn vgg9_tiny() -> VggConfig {
    VggConfig::vgg9(3, 5, (8, 8), 16)
}

/// The tiny ResNet20 (width 4, 8×8 inputs) with the given class count
/// (the suites use 4 or 5).
pub fn resnet20_tiny(num_classes: usize) -> ResNetConfig {
    ResNetConfig::resnet20(num_classes, (8, 8), 4)
}

/// Serializes a model's parameters to in-memory checkpoint bytes.
pub fn checkpoint_bytes(model: &(impl SpikingModel + ?Sized)) -> Vec<u8> {
    let mut bytes = Vec::new();
    checkpoint::save_params(&model.params(), &mut bytes).expect("in-memory checkpoint");
    bytes
}

/// Builds a seeded [`vgg9_tiny`] model under `policy`, checkpoints it,
/// and returns `(checkpoint, model)` — the model stays available as the
/// reference the serving plane must match bit for bit.
pub fn vgg_checkpoint(policy: &ConvPolicy, seed: u64) -> (Vec<u8>, VggSnn) {
    let mut rng = Rng::seed_from(seed);
    let model = VggSnn::new(vgg9_tiny(), policy, &mut rng);
    (checkpoint_bytes(&model), model)
}

/// `n` deterministic uniform-`[0, 1)` frames of [`FRAME_SHAPE`]. Seeds
/// are used verbatim — callers wanting streams decorrelated from their
/// model seeds should mix (e.g. `samples(seed ^ 0xABCD, 6)`).
pub fn samples(seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed);
    let [c, h, w] = FRAME_SHAPE;
    (0..n).map(|_| Tensor::rand_uniform(&[c, h, w], 0.0, 1.0, &mut rng)).collect()
}

/// Reference: the **training (autograd) plane** on a batch of one —
/// per-sample summed logits over `timesteps` under direct coding (the
/// `(C, H, W)` frame repeated every timestep). What a served request must
/// equal bit for bit.
pub fn train_plane_reference(model: &mut Network, sample: &Tensor, timesteps: usize) -> Tensor {
    model.reset_state();
    let mut batched_shape = vec![1usize];
    batched_shape.extend_from_slice(sample.shape());
    let x = Var::constant(Tensor::from_vec(sample.data().to_vec(), &batched_shape).unwrap());
    let mut sum: Option<Tensor> = None;
    for t in 0..timesteps {
        let logits = model.forward_timestep(&x, t).unwrap().to_tensor();
        match sum.as_mut() {
            Some(s) => s.add_scaled(&logits, 1.0).unwrap(),
            None => sum = Some(logits),
        }
    }
    let s = sum.unwrap();
    let k = s.shape()[1];
    Tensor::from_vec(s.data().to_vec(), &[k]).unwrap()
}

/// Reference: the **inference (tensor) plane** on a batch of one — summed
/// `(K,)` logits over `timesteps`. `input` is `(C, H, W)` direct coding
/// (repeated each timestep) or `(T, C, H, W)` explicit per-timestep
/// frames.
pub fn infer_plane_reference(
    model: &mut (impl InferForward + ?Sized),
    input: &Tensor,
    timesteps: usize,
) -> Tensor {
    model.reset_state();
    let per_timestep = input.ndim() == 4;
    let frame_len: usize = input.shape()[input.ndim() - 3..].iter().product();
    let mut shape = vec![1usize];
    shape.extend_from_slice(&input.shape()[input.ndim() - 3..]);
    let mut summed: Option<Tensor> = None;
    for t in 0..timesteps {
        let offset = if per_timestep { t * frame_len } else { 0 };
        let frame =
            Tensor::from_vec(input.data()[offset..offset + frame_len].to_vec(), &shape).unwrap();
        let logits = model.forward_timestep_tensor(&frame, t).unwrap();
        match summed.as_mut() {
            Some(s) => s.add_scaled(&logits, 1.0).unwrap(),
            None => summed = Some(logits),
        }
    }
    model.reset_state();
    let s = summed.unwrap();
    let k = s.len();
    Tensor::from_vec(s.data().to_vec(), &[k]).unwrap()
}

/// An [`EngineConfig`] serving [`vgg9_tiny`] under `policy` with the
/// given timesteps and batching knobs.
pub fn vgg_engine_config(
    policy: ConvPolicy,
    timesteps: usize,
    max_batch: usize,
    max_wait: Duration,
) -> EngineConfig {
    EngineConfig::new(ArchSpec::Vgg(vgg9_tiny()), policy, timesteps)
        .with_batching(BatchPolicy { max_batch, max_wait })
}

/// A [`ClusterConfig`] over [`vgg_engine_config`] with an explicit
/// replica count.
pub fn vgg_cluster_config(
    policy: ConvPolicy,
    timesteps: usize,
    replicas: usize,
    max_batch: usize,
    max_wait: Duration,
) -> ClusterConfig {
    ClusterConfig::new(vgg_engine_config(policy, timesteps, max_batch, max_wait))
        .with_replicas(replicas)
}

/// Polls until every submitted request reached a terminal state, then
/// returns the snapshot. A served, failed or expired request is in the
/// metrics before its reply is sent; what lands later is a cancellation,
/// counted when a replica reaps the dropped ticket's request. Stream chunks
/// drain too.
///
/// # Panics
///
/// Panics if the cluster has not drained within ~1 s.
pub fn drained_metrics(cluster: &Cluster) -> ClusterMetrics {
    for _ in 0..1000 {
        let m = cluster.metrics();
        let t = m.totals();
        let s = &m.sessions;
        if t.served + t.cancelled + t.expired + t.failed == t.submitted
            && s.chunks_served + s.chunks_expired + s.chunks_failed == s.chunks_submitted
        {
            return m;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("cluster did not drain: {:?} / {:?}", cluster.metrics().totals(), {
        let m = cluster.metrics();
        m.sessions
    });
}

/// Asserts two tensors are bit-identical (shape and every value, compared
/// as raw bits so `-0.0 != 0.0` and NaNs are caught too).
#[track_caller]
pub fn assert_bits_eq(a: &Tensor, b: &Tensor, context: &str) {
    assert_eq!(a.shape(), b.shape(), "{context}: shapes differ");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{context}: bit mismatch at flat index {i}: {x:?} vs {y:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let (ckpt_a, _) = vgg_checkpoint(&ConvPolicy::Baseline, 7);
        let (ckpt_b, _) = vgg_checkpoint(&ConvPolicy::Baseline, 7);
        assert_eq!(ckpt_a, ckpt_b);
        assert_eq!(samples(3, 2), samples(3, 2));
        assert_ne!(samples(3, 1), samples(4, 1));
    }

    #[test]
    fn references_agree_across_planes() {
        let (_, mut model) = vgg_checkpoint(&ConvPolicy::Baseline, 11);
        model.set_infer_stats(ttsnn_snn::InferStats::PerSample);
        let frame = &samples(5, 1)[0];
        let train = train_plane_reference(&mut model, frame, 2);
        let infer = infer_plane_reference(&mut model, frame, 2);
        assert_bits_eq(&train, &infer, "train vs infer plane reference");
    }
}
