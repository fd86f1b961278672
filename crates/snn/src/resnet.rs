//! Spiking MS-ResNet architectures (Hu et al., the paper's baseline) and
//! the ResNet20 variant used by the tdBN comparison of Table III.
//!
//! Topology follows the CIFAR-style residual network: a single 3×3 stem
//! (never decomposed — §III "the first CNN layer and the last classifier
//! are not decomposed"), basic blocks of two 3×3 convolutions with
//! BN + LIF, 1×1 projection shortcuts at stage boundaries, global average
//! pooling, and a fully-connected classifier on LIF spikes (Algorithm 1
//! line 14).
//!
//! The constructors take a `width_divisor` so the exact full-size topology
//! can be trained at CPU-feasible width (the substitution documented in
//! DESIGN.md §3); `width_divisor = 1` is the full-size layer table, and
//! [`resnet18_cifar`] / [`resnet34_ncaltech`] are its Table II specs: the
//! same program walked by [`Program::spec`] under the paper's VBMF ranks.

use ttsnn_core::flops::NetworkSpec;
use ttsnn_core::paper_ranks::{RESNET18_RANKS, RESNET34_RANKS};
use ttsnn_core::TtMode;
use ttsnn_tensor::ShapeError;

use crate::conv_unit::ConvPolicy;
use crate::lif::LifConfig;
use crate::network::{Architecture, Layer, Network, Program, Slot};
use crate::norm::NormKind;

/// Architecture hyper-parameters for [`ResNetSnn`].
#[derive(Debug, Clone)]
pub struct ResNetConfig {
    /// Display name.
    pub name: String,
    /// Input channels (3 for CIFAR-like, 2 for event data).
    pub in_channels: usize,
    /// Input spatial size.
    pub in_hw: (usize, usize),
    /// Number of classes.
    pub num_classes: usize,
    /// Blocks per stage (ResNet18: `[2,2,2,2]`, ResNet34: `[3,4,6,3]`,
    /// ResNet20: `[3,3,3]`).
    pub stage_blocks: Vec<usize>,
    /// Channel width per stage.
    pub widths: Vec<usize>,
    /// LIF neuron settings.
    pub lif: LifConfig,
    /// Normalization used after every convolution.
    pub norm: NormKind,
}

impl ResNetConfig {
    /// MS-ResNet18 topology at `width_divisor` (paper: CIFAR10/100).
    pub fn resnet18(num_classes: usize, in_hw: (usize, usize), width_divisor: usize) -> Self {
        Self::scaled("MS-ResNet18", 3, in_hw, num_classes, &[2, 2, 2, 2], width_divisor)
    }

    /// MS-ResNet34 topology at `width_divisor` with 2-channel event input
    /// (paper: N-Caltech101).
    pub fn resnet34_events(
        num_classes: usize,
        in_hw: (usize, usize),
        width_divisor: usize,
    ) -> Self {
        Self::scaled("MS-ResNet34", 2, in_hw, num_classes, &[3, 4, 6, 3], width_divisor)
    }

    /// MS-ResNet18 topology with 2-channel event input. Used for the
    /// *measured* event-data experiments: at CPU-feasible widths the
    /// 16-block ResNet34 suffers spike death (all-zero deep activity), so
    /// the measured substitute keeps the dataset's temporal statistics but
    /// the shallower topology (see DESIGN.md §3 and EXPERIMENTS.md).
    pub fn resnet18_events(
        num_classes: usize,
        in_hw: (usize, usize),
        width_divisor: usize,
    ) -> Self {
        Self::scaled("MS-ResNet18ev", 2, in_hw, num_classes, &[2, 2, 2, 2], width_divisor)
    }

    /// ResNet20 topology (tdBN baseline of Table III): 3 stages of widths
    /// 16/32/64 before scaling.
    pub fn resnet20(num_classes: usize, in_hw: (usize, usize), width_divisor: usize) -> Self {
        let widths = [16usize, 32, 64].iter().map(|w| (w / width_divisor).max(4)).collect();
        Self {
            name: "ResNet20".to_string(),
            in_channels: 3,
            in_hw,
            num_classes,
            stage_blocks: vec![3, 3, 3],
            widths,
            lif: LifConfig::default(),
            norm: NormKind::TdBn { alpha: 1.0, vth: 0.5 },
        }
    }

    fn scaled(
        name: &str,
        in_channels: usize,
        in_hw: (usize, usize),
        num_classes: usize,
        stage_blocks: &[usize],
        width_divisor: usize,
    ) -> Self {
        assert!(width_divisor > 0, "width_divisor must be positive");
        let widths = [64usize, 128, 256, 512].iter().map(|w| (w / width_divisor).max(4)).collect();
        Self {
            name: name.to_string(),
            in_channels,
            in_hw,
            num_classes,
            stage_blocks: stage_blocks.to_vec(),
            widths,
            lif: LifConfig::default(),
            norm: NormKind::TdBn { alpha: 1.0, vth: 0.5 },
        }
    }
}

impl Architecture for ResNetConfig {
    /// Stem conv / norm / LIF, then per basic block: stash the block input,
    /// `conv_a` (strided at stage boundaries) / norm / LIF, `conv_b` / norm,
    /// a 1×1 projection + norm on the stashed input where the shape
    /// changes, add, LIF.
    fn program(&self) -> Result<Program, ShapeError> {
        use Slot::{Main, Skip};
        if self.stage_blocks.len() != self.widths.len() || self.widths.is_empty() {
            return Err(ShapeError::new(format!(
                "{}: stage/width lists must align and be non-empty, got {} stages and {} widths",
                self.name,
                self.stage_blocks.len(),
                self.widths.len()
            )));
        }
        let conv = |out, kernel, stride, decompose, from, to| Layer::Conv {
            out,
            kernel,
            stride,
            decompose,
            from,
            to,
        };
        let mut c_in = self.widths[0];
        let mut layers = vec![conv(c_in, 3, 1, false, Main, Main), Layer::Norm(Main), Layer::Lif];
        for (stage, (&nblocks, &width)) in self.stage_blocks.iter().zip(&self.widths).enumerate() {
            for block in 0..nblocks {
                let downsample = stage > 0 && block == 0;
                let stride = if downsample { 2 } else { 1 };
                layers.extend([
                    Layer::Stash,
                    conv(width, 3, stride, true, Skip, Main),
                    Layer::Norm(Main),
                    Layer::Lif,
                    conv(width, 3, 1, true, Main, Main),
                    Layer::Norm(Main),
                ]);
                if c_in != width || downsample {
                    layers.extend([conv(width, 1, stride, false, Skip, Skip), Layer::Norm(Skip)]);
                }
                layers.extend([Layer::Add, Layer::Lif]);
                c_in = width;
            }
        }
        Ok(Program {
            name: self.name.clone(),
            input: [self.in_channels, self.in_hw.0, self.in_hw.1],
            num_classes: self.num_classes,
            norm: self.norm,
            lif: self.lif,
            layers,
        })
    }
}

/// A spiking residual network: the program [`ResNetConfig`] emits.
pub type ResNetSnn = Network;

/// The full-size `config` under the paper's `ranks` at `timesteps`, named
/// `name`. The spec carries ranks, not a mode, so the policy's mode is moot.
fn paper_spec(
    config: ResNetConfig,
    ranks: &[usize],
    timesteps: usize,
    name: String,
) -> NetworkSpec {
    let policy = ConvPolicy::TtWithRanks { mode: TtMode::Ptt, ranks: ranks.to_vec() };
    let spec = config.program().and_then(|program| program.spec(&policy, timesteps));
    NetworkSpec { name, ..spec.expect("the paper's networks are well-formed") }
}

/// Full-size MS-ResNet18 on CIFAR (32×32 RGB), T=4, with the paper's
/// published VBMF ranks — the Table II CIFAR10/CIFAR100 rows.
pub fn resnet18_cifar(num_classes: usize) -> NetworkSpec {
    let config = ResNetConfig::resnet18(num_classes, (32, 32), 1);
    paper_spec(config, &RESNET18_RANKS, 4, format!("MS-ResNet18 / CIFAR{num_classes}"))
}

/// Full-size MS-ResNet34 on N-Caltech101 (2-polarity event frames at
/// 48×48), T=6, with the paper's published VBMF ranks — the Table II
/// N-Caltech101 row.
pub fn resnet34_ncaltech() -> NetworkSpec {
    let config = ResNetConfig::resnet34_events(101, (48, 48), 1);
    paper_spec(config, &RESNET34_RANKS, 6, "MS-ResNet34 / N-Caltech101".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpikingModel;
    use ttsnn_autograd::Var;
    use ttsnn_core::TtMode;
    use ttsnn_tensor::{Rng, Tensor};

    /// Residual blocks = `Add` layers in the program.
    fn num_blocks(net: &ResNetSnn) -> usize {
        net.program().layers.iter().filter(|l| matches!(l, Layer::Add)).count()
    }

    fn tiny_cfg() -> ResNetConfig {
        ResNetConfig::resnet18(5, (8, 8), 16) // widths 4,8,16,32
    }

    #[test]
    fn forward_shapes_baseline_and_tt() {
        let mut rng = Rng::seed_from(1);
        let x = Var::constant(Tensor::randn(&[2, 3, 8, 8], &mut rng));
        for policy in [
            ConvPolicy::Baseline,
            ConvPolicy::tt(TtMode::Stt),
            ConvPolicy::tt(TtMode::Ptt),
            ConvPolicy::tt(TtMode::htt_default(2)),
        ] {
            let mut net = ResNetSnn::new(tiny_cfg(), &policy, &mut rng);
            for t in 0..2 {
                let y = net.forward_timestep(&x, t).unwrap();
                assert_eq!(y.shape(), vec![2, 5], "policy {}", policy.name());
            }
            net.reset_state();
        }
    }

    #[test]
    fn resnet18_has_8_blocks_16_decomposable_convs() {
        let mut rng = Rng::seed_from(2);
        let net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        assert_eq!(num_blocks(&net), 8);
        assert_eq!(net.tt_layers().len(), 16);
    }

    #[test]
    fn resnet20_topology() {
        let mut rng = Rng::seed_from(3);
        let cfg = ResNetConfig::resnet20(10, (8, 8), 4);
        let net = ResNetSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
        assert_eq!(num_blocks(&net), 9);
        assert!(net.tt_layers().is_empty());
    }

    #[test]
    fn resnet34_topology() {
        let mut rng = Rng::seed_from(4);
        let cfg = ResNetConfig::resnet34_events(11, (16, 16), 16);
        let net = ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::Stt), &mut rng);
        assert_eq!(num_blocks(&net), 16);
        assert_eq!(net.tt_layers().len(), 32);
    }

    #[test]
    fn tt_reduces_params_and_macs() {
        let mut rng = Rng::seed_from(5);
        let base = ResNetSnn::new(tiny_cfg(), &ConvPolicy::Baseline, &mut rng);
        let tt = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        assert!(tt.num_params() < base.num_params());
        assert!(tt.macs_at(0) < base.macs_at(0));
    }

    #[test]
    fn htt_macs_drop_at_half_timesteps() {
        let mut rng = Rng::seed_from(6);
        let net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::htt_default(4)), &mut rng);
        assert!(net.macs_at(3) < net.macs_at(0));
    }

    #[test]
    fn gradient_reaches_stem_through_full_depth() {
        let mut rng = Rng::seed_from(7);
        let mut net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        let x = Var::constant(Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng));
        let mut logits = net.forward_timestep(&x, 0).unwrap();
        for t in 1..2 {
            logits = logits.add(&net.forward_timestep(&x, t).unwrap()).unwrap();
        }
        let loss = ttsnn_autograd::ops::cross_entropy_logits(&logits, &[1]).unwrap();
        loss.backward();
        let stem_grad = net.params()[0].grad(); // params()[0] is the stem kernel
        assert!(stem_grad.is_some(), "stem must receive gradient through 18 layers + BPTT");
    }

    #[test]
    fn reset_state_allows_new_batch_size() {
        let mut rng = Rng::seed_from(8);
        let mut net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::Baseline, &mut rng);
        let x2 = Var::constant(Tensor::randn(&[2, 3, 8, 8], &mut rng));
        net.forward_timestep(&x2, 0).unwrap();
        let x3 = Var::constant(Tensor::randn(&[3, 3, 8, 8], &mut rng));
        assert!(net.forward_timestep(&x3, 1).is_err(), "stale membrane must be detected");
        net.reset_state();
        assert!(net.forward_timestep(&x3, 0).is_ok());
    }

    #[test]
    fn name_includes_policy() {
        let mut rng = Rng::seed_from(9);
        let net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        assert_eq!(net.name(), "MS-ResNet18 [PTT]");
    }

    #[test]
    fn merge_into_dense_preserves_ptt_outputs() {
        let mut rng = Rng::seed_from(10);
        let mut net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        let x = Var::constant(Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng));
        let before = net.forward_timestep(&x, 0).unwrap().to_tensor();
        net.reset_state();
        let merged = net.merge_into_dense().unwrap();
        assert_eq!(merged, 16);
        assert!(net.tt_layers().is_empty());
        let after = net.forward_timestep(&x, 0).unwrap().to_tensor();
        assert!(
            before.max_abs_diff(&after).unwrap() < 1e-2,
            "merged dense network must reproduce the TT network"
        );
        assert_eq!(net.name(), "MS-ResNet18 [merged-dense]");
    }

    #[test]
    fn merge_into_dense_is_noop_for_baseline() {
        let mut rng = Rng::seed_from(11);
        let mut net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::Baseline, &mut rng);
        assert_eq!(net.merge_into_dense().unwrap(), 0);
        assert_eq!(net.name(), "MS-ResNet18 [baseline]");
    }

    /// A rank list that does not cover the decomposable convs one for one
    /// is an error naming both counts, from the build and from the spec.
    #[test]
    fn spec_builder_validates_rank_count() {
        let policy = ConvPolicy::TtWithRanks { mode: TtMode::Ptt, ranks: RESNET18_RANKS.to_vec() };
        let cfg = ResNetConfig::resnet34_events(11, (16, 16), 16);
        let built = ResNetSnn::try_new(&cfg, &policy, &mut Rng::seed_from(13)).map(drop);
        let described = cfg.program().unwrap().spec(&policy, 4).map(drop);
        for result in [built, described] {
            let message = result.unwrap_err().to_string();
            assert!(message.contains("16 TT ranks for 32 decomposable"), "{message}");
        }
    }

    #[test]
    fn merged_network_has_dense_param_count() {
        let mut rng = Rng::seed_from(12);
        let mut tt_net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        let base_net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::Baseline, &mut rng);
        tt_net.merge_into_dense().unwrap();
        assert_eq!(tt_net.num_params(), base_net.num_params());
    }
}
