//! Spiking VGG architectures — the TEBN/TET/NDA baselines of Table III.
//!
//! Plain convolutional stacks (3×3 conv + BN + LIF) with 2×2 average
//! pooling between stages and a fully-connected head. As everywhere in this
//! reproduction, every 3×3 convolution after the stem is a
//! [`crate::ConvUnit`] slot, so the PTT plug-in experiment of Table III is a one-line policy
//! change.

use ttsnn_tensor::ShapeError;

use crate::lif::LifConfig;
use crate::network::{Architecture, Layer, Network, Program, Slot};
use crate::norm::NormKind;

/// Architecture hyper-parameters for [`VggSnn`].
#[derive(Debug, Clone)]
pub struct VggConfig {
    /// Display name.
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial size.
    pub in_hw: (usize, usize),
    /// Number of classes.
    pub num_classes: usize,
    /// Output channels of each conv layer.
    pub conv_widths: Vec<usize>,
    /// Indices (into `conv_widths`) after which a 2×2 average pool runs.
    pub pool_after: Vec<usize>,
    /// LIF neuron settings.
    pub lif: LifConfig,
    /// Normalization after every convolution.
    pub norm: NormKind,
}

impl VggConfig {
    /// VGG9-style stack at `width_divisor` (TEBN / TET baselines).
    ///
    /// # Panics
    ///
    /// Panics if `width_divisor == 0`.
    pub fn vgg9(
        in_channels: usize,
        num_classes: usize,
        in_hw: (usize, usize),
        width_divisor: usize,
    ) -> Self {
        assert!(width_divisor > 0);
        let w = |c: usize| (c / width_divisor).max(4);
        Self {
            name: "VGG9".to_string(),
            in_channels,
            in_hw,
            num_classes,
            conv_widths: vec![w(64), w(64), w(128), w(128), w(256), w(256)],
            pool_after: vec![1, 3, 5],
            lif: LifConfig::default(),
            norm: NormKind::TdBn { alpha: 1.0, vth: 0.5 },
        }
    }

    /// VGG11-style stack at `width_divisor` (NDA baseline).
    ///
    /// # Panics
    ///
    /// Panics if `width_divisor == 0`.
    pub fn vgg11(
        in_channels: usize,
        num_classes: usize,
        in_hw: (usize, usize),
        width_divisor: usize,
    ) -> Self {
        assert!(width_divisor > 0);
        let w = |c: usize| (c / width_divisor).max(4);
        Self {
            name: "VGG11".to_string(),
            in_channels,
            in_hw,
            num_classes,
            conv_widths: vec![w(64), w(128), w(256), w(256), w(512), w(512), w(512), w(512)],
            pool_after: vec![0, 1, 3, 5, 7],
            lif: LifConfig::default(),
            norm: NormKind::TdBn { alpha: 1.0, vth: 0.5 },
        }
    }

    /// Swaps in TEBN normalization over `timesteps` (the TEBN baseline).
    pub fn with_tebn(mut self, timesteps: usize) -> Self {
        self.norm = NormKind::Tebn { timesteps };
        self
    }
}

impl Architecture for VggConfig {
    /// Per conv layer: conv (the first stays dense, the rest follow the
    /// policy) / norm / LIF, then a 2×2 average pool after the layers
    /// `pool_after` names.
    fn program(&self) -> Result<Program, ShapeError> {
        use Slot::Main;
        let mut layers = Vec::new();
        for (i, &out) in self.conv_widths.iter().enumerate() {
            let conv =
                Layer::Conv { out, kernel: 3, stride: 1, decompose: i > 0, from: Main, to: Main };
            layers.extend([conv, Layer::Norm(Main), Layer::Lif]);
            if self.pool_after.contains(&i) {
                layers.push(Layer::AvgPool2);
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

/// A spiking VGG: the program [`VggConfig`] emits.
pub type VggSnn = Network;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_unit::ConvPolicy;
    use crate::model::SpikingModel;
    use ttsnn_autograd::Var;
    use ttsnn_core::TtMode;
    use ttsnn_tensor::{Rng, Tensor};

    fn num_conv_layers(net: &VggSnn) -> usize {
        net.program().layers.iter().filter(|l| matches!(l, Layer::Conv { .. })).count()
    }

    #[test]
    fn vgg9_forward_shape() {
        let mut rng = Rng::seed_from(1);
        let cfg = VggConfig::vgg9(3, 10, (16, 16), 16);
        let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
        let x = Var::constant(Tensor::randn(&[2, 3, 16, 16], &mut rng));
        let y = net.forward_timestep(&x, 0).unwrap();
        assert_eq!(y.shape(), vec![2, 10]);
        assert_eq!(num_conv_layers(&net), 6);
    }

    #[test]
    fn vgg11_forward_shape_event_input() {
        let mut rng = Rng::seed_from(2);
        let cfg = VggConfig::vgg11(2, 11, (32, 32), 32);
        let mut net = VggSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 2, 32, 32], &mut rng));
        let y = net.forward_timestep(&x, 0).unwrap();
        assert_eq!(y.shape(), vec![1, 11]);
        assert_eq!(num_conv_layers(&net), 8);
    }

    #[test]
    fn ptt_plugin_reduces_params() {
        let mut rng = Rng::seed_from(3);
        let cfg = VggConfig::vgg9(3, 10, (16, 16), 8);
        let base = VggSnn::new(cfg.clone(), &ConvPolicy::Baseline, &mut rng);
        let ptt = VggSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        assert!(ptt.num_params() < base.num_params());
        assert!(ptt.macs_at(0) < base.macs_at(0));
        assert_eq!(ptt.name(), "VGG9 [PTT]");
    }

    #[test]
    fn tebn_config_adds_timestep_params() {
        let mut rng = Rng::seed_from(4);
        let plain =
            VggSnn::new(VggConfig::vgg9(3, 10, (16, 16), 16), &ConvPolicy::Baseline, &mut rng);
        let tebn = VggSnn::new(
            VggConfig::vgg9(3, 10, (16, 16), 16).with_tebn(4),
            &ConvPolicy::Baseline,
            &mut rng,
        );
        assert!(tebn.params().len() > plain.params().len());
    }

    #[test]
    fn vgg_merge_into_dense_preserves_outputs() {
        let mut rng = Rng::seed_from(6);
        let cfg = VggConfig::vgg9(3, 5, (8, 8), 16);
        let mut net = VggSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        let x = Var::constant(Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng));
        let before = net.forward_timestep(&x, 0).unwrap().to_tensor();
        net.reset_state();
        let merged = net.merge_into_dense().unwrap();
        assert_eq!(merged, 5); // stem stays dense; 5 of 6 convs were TT
        let after = net.forward_timestep(&x, 0).unwrap().to_tensor();
        assert!(before.max_abs_diff(&after).unwrap() < 1e-2);
        assert_eq!(net.name(), "VGG9 [merged-dense]");
    }

    #[test]
    fn state_resets_between_batches() {
        let mut rng = Rng::seed_from(5);
        let cfg = VggConfig::vgg9(3, 10, (16, 16), 16);
        let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
        let x = Var::constant(Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut rng));
        let a = net.forward_timestep(&x, 0).unwrap().to_tensor();
        net.reset_state();
        let b = net.forward_timestep(&x, 0).unwrap().to_tensor();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-6, "reset must restore initial state");
    }
}
