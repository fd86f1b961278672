//! What the workloads and the probes are made of: the seeded random
//! streams, the model shapes, the checkpoints and the generated inputs.
//!
//! Everything here is a pure function of `--seed`. The program under test
//! never sees the seed — only the tensors and checkpoint bytes generated
//! from it.

use std::time::Duration;

use ttsnn_core::TtMode;
use ttsnn_data::{EventStream, StaticImages};
use ttsnn_infer::{ArchSpec, BatchPolicy, ClusterConfig, EngineConfig};
use ttsnn_snn::{checkpoint, ConvPolicy, ResNetConfig, SpikingModel, VggConfig, VggSnn};
use ttsnn_tensor::{Rng, Tensor};

/// Frame height and width of every workload (the scale of every existing
/// bench bin: width ÷ 8 models on 16 × 16 frames).
pub const HW: (usize, usize) = (16, 16);
/// Classes of every generated dataset.
pub const CLASSES: usize = 10;
/// Channel-width divisor applied to VGG9 / ResNet18.
pub const WIDTH_DIVISOR: usize = 8;

/// Independent random streams derived from the one `--seed`, so adding a
/// draw to one never shifts another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Model initialisation (the random-init checkpoint).
    Init,
    /// Generated request / training inputs.
    Data,
    /// Calibration frames of the int8 plan.
    Calibration,
    /// Tensors of the kernel probes.
    Probe,
}

/// The RNG of one [`Stream`] under `seed` (a splitmix64 step keeps
/// neighbouring seeds and streams uncorrelated).
pub fn rng(seed: u64, stream: Stream) -> Rng {
    Rng::seed_from(sub_seed(seed, stream as u64 + 1))
}

/// A 64-bit seed derived from `seed` and a lane number.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The serving model: VGG9 at width ÷ 8 on 16 × 16 frames.
pub fn vgg_cfg(in_channels: usize) -> VggConfig {
    VggConfig::vgg9(in_channels, CLASSES, HW, WIDTH_DIVISOR)
}

/// The training model: MS-ResNet18 at width ÷ 8 on 2-channel event frames.
pub fn resnet_cfg() -> ResNetConfig {
    ResNetConfig::resnet18_events(CLASSES, HW, WIDTH_DIVISOR)
}

/// A random-init PTT VGG9 checkpoint, serialized.
pub fn vgg_checkpoint(in_channels: usize, seed: u64) -> Vec<u8> {
    let model = VggSnn::new(
        vgg_cfg(in_channels),
        &ConvPolicy::tt(TtMode::Ptt),
        &mut rng(seed, Stream::Init),
    );
    let mut bytes = Vec::new();
    checkpoint::save_params(&model.params(), &mut bytes).expect("serialize checkpoint to memory");
    bytes
}

/// A 1-replica merged PTT VGG9 plan. One replica keeps the workloads
/// comparable on any core count; everything else is the product default.
pub fn cluster_cfg(in_channels: usize, timesteps: usize, max_batch: usize) -> ClusterConfig {
    ClusterConfig::new(
        EngineConfig::new(
            ArchSpec::Vgg(vgg_cfg(in_channels)),
            ConvPolicy::tt(TtMode::Ptt),
            timesteps,
        )
        .merged()
        .with_batching(BatchPolicy { max_batch, ..BatchPolicy::default() }),
    )
    .with_replicas(1)
}

/// How long an open batch waits for co-travellers, on every serving plan:
/// the product default (2 ms). The issue sized `serve_tcp_f32` at 1 ms;
/// under that window its two closed-loop callers have two stable phases —
/// in step (one batch of two, p50 3.5 ms) and out of step (batches of one,
/// p50 4.7 ms) — and rounds flipped between them, so the workload measured
/// which phase it fell into. A window longer than one forward plus the
/// round trip lets a caller that fell out of step always rejoin the other's
/// batch, which leaves the in-step phase alone.
pub fn max_wait() -> Duration {
    BatchPolicy::default().max_wait
}

/// `n` analog CIFAR10-like `(3, 16, 16)` frames, classes round-robin.
pub fn analog_frames(n: usize, seed: u64) -> Vec<Tensor> {
    let gen = StaticImages::cifar10_like(HW.0, HW.1);
    let mut rng = rng(seed, Stream::Data);
    (0..n).map(|i| gen.sample(i % CLASSES, &mut rng).frames.remove(0)).collect()
}

/// The event generator of the int8 batch workload: `timesteps` saccade
/// frames per sample at event rate 0.3 (mean spike density ≈ 0.13, under
/// the sparse-dispatch threshold).
pub fn sparse_events(timesteps: usize) -> EventStream {
    EventStream::ncaltech_like(HW.0, HW.1, CLASSES, timesteps).with_event_rate(0.3)
}

/// `n` whole `(T, 2, 16, 16)` event samples from `gen`, classes
/// round-robin, each from its own seed lane.
pub fn event_samples(gen: &EventStream, n: usize, seed: u64, stream: Stream) -> Vec<Tensor> {
    let base = sub_seed(seed, stream as u64 + 1);
    (0..n)
        .map(|i| {
            gen.sample_seeded(i % CLASSES, sub_seed(base, i as u64))
                .stacked()
                .expect("event frames share a shape")
        })
        .collect()
}

/// Bit patterns of a logit vector — what the correctness gate compares.
pub fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

/// Whether a reply's logits equal the reference bit for bit.
pub fn same_bits(reply: &[f32], reference: &[u32]) -> bool {
    reply.len() == reference.len() && reply.iter().zip(reference).all(|(r, &b)| r.to_bits() == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_generates_identical_inputs_and_another_does_not() {
        assert_eq!(analog_frames(4, 7), analog_frames(4, 7));
        assert_ne!(analog_frames(4, 7), analog_frames(4, 8));
        let gen = sparse_events(4);
        assert_eq!(
            event_samples(&gen, 3, 7, Stream::Data),
            event_samples(&gen, 3, 7, Stream::Data)
        );
        assert_ne!(
            event_samples(&gen, 3, 7, Stream::Data),
            event_samples(&gen, 3, 7, Stream::Calibration)
        );
        assert_eq!(vgg_checkpoint(2, 7), vgg_checkpoint(2, 7));
        assert_ne!(vgg_checkpoint(2, 7), vgg_checkpoint(2, 8));
    }

    #[test]
    fn the_gate_bites_on_one_flipped_bit() {
        let logits = [0.25f32, -1.5, 3.0];
        let reference = bits(&logits);
        assert!(same_bits(&logits, &reference));
        let mut flipped = logits;
        flipped[1] = f32::from_bits(flipped[1].to_bits() ^ 1);
        assert!(!same_bits(&flipped, &reference));
        assert!(!same_bits(&logits[..2], &reference));
    }
}
