//! Analytic parameter and FLOP accounting (Table II, columns 4–5).
//!
//! The paper reports trainable-parameter counts and FLOPs *during training*
//! for full-size MS-ResNet18 (CIFAR10/100, T=4) and MS-ResNet34
//! (N-Caltech101, T=6). Those columns are pure arithmetic over the layer
//! geometry and the published VBMF ranks ([`crate::paper_ranks`]) — no
//! training required. A [`NetworkSpec`] holds that geometry; it is not
//! written out here but walked from a layer program (`ttsnn_snn`'s
//! `Program::spec`; the two Table II specs are `ttsnn_snn::resnet18_cifar`
//! and `ttsnn_snn::resnet34_ncaltech`), and a decomposed layer's cost is
//! its [`tt_stages`] — the list [`crate::TtConv`] runs.
//!
//! Conventions (matching the paper's numbers):
//!
//! * "FLOPs" are multiply–accumulate counts summed over **all timesteps**
//!   for one input sample (CIFAR at T=4, N-Caltech101 at T=6).
//! * The first convolution and the classifier are never decomposed;
//!   1×1 shortcut convolutions are not decomposed either (nothing to
//!   factorize spatially).

use ttsnn_tensor::Conv2dGeometry;

use crate::layer::{tt_stages, TtStages};
use crate::modes::TtMode;
use crate::ttsvd::max_uniform_rank;

/// Whether a convolution layer stays dense or is TT-decomposed at a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Kept dense (first conv, shortcut convs).
    Dense,
    /// Decomposed into TT cores at the given uniform rank.
    Decomposed {
        /// Per-layer TT-rank (from VBMF or [`crate::paper_ranks`]).
        rank: usize,
    },
}

/// One convolution layer of a network spec: geometry plus decomposition
/// status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayerSpec {
    /// Full convolution geometry (channels, spatial size, kernel, stride,
    /// padding).
    pub geom: Conv2dGeometry,
    /// Dense or decomposed.
    pub kind: LayerKind,
}

impl ConvLayerSpec {
    /// The sub-convolutions this layer runs at timestep `t` under `mode`,
    /// its rank clamped to `min(I, O)`; `None` if it stays dense.
    pub fn stages(&self, mode: &TtMode, t: usize) -> Option<TtStages> {
        let LayerKind::Decomposed { rank } = self.kind else {
            return None;
        };
        let bound = max_uniform_rank(self.geom.in_channels, self.geom.out_channels);
        Some(tt_stages(&self.geom, rank.min(bound), mode, t))
    }

    /// Trainable parameters of the TT factorization of this layer (its full
    /// path's stages, `r·I + 6r² + r·O`), or the dense count if not
    /// decomposed.
    pub fn tt_params(&self) -> usize {
        self.stages(&TtMode::Ptt, 0).map_or(self.geom.params(), |s| s.params())
    }

    /// Forward MACs of this layer for one sample at timestep `t` under the
    /// given mode (dense layers are unaffected by the mode).
    pub fn macs(&self, mode: &TtMode, t: usize) -> usize {
        self.stages(mode, t).map_or(self.geom.macs(), |s| s.macs())
    }
}

/// Analytic description of a full network: every convolution layer plus the
/// classifier/normalization parameter counts and the training timestep
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Human-readable name ("MS-ResNet18 / CIFAR10").
    pub name: String,
    /// All convolution layers in network order.
    pub conv_layers: Vec<ConvLayerSpec>,
    /// Classifier (fully-connected) parameters including bias.
    pub fc_params: usize,
    /// Normalization (BN) parameters.
    pub bn_params: usize,
    /// Training timesteps `T`.
    pub timesteps: usize,
}

impl NetworkSpec {
    /// Baseline (dense) trainable parameters.
    pub fn baseline_params(&self) -> usize {
        self.conv_layers.iter().map(|l| l.geom.params()).sum::<usize>()
            + self.fc_params
            + self.bn_params
    }

    /// TT-decomposed trainable parameters (identical for STT/PTT/HTT —
    /// HTT shares weights and merely skips cores at some timesteps).
    pub fn tt_params(&self) -> usize {
        self.conv_layers.iter().map(|l| l.tt_params()).sum::<usize>()
            + self.fc_params
            + self.bn_params
    }

    /// Baseline MACs for one sample, summed over all `T` timesteps.
    pub fn baseline_macs(&self) -> usize {
        self.conv_layers.iter().map(|l| l.geom.macs()).sum::<usize>() * self.timesteps
    }

    /// MACs under a TT mode for one sample, summed over all `T` timesteps
    /// (HTT's schedule makes later timesteps cheaper).
    pub fn mode_macs(&self, mode: &TtMode) -> usize {
        (0..self.timesteps)
            .map(|t| self.conv_layers.iter().map(|l| l.macs(mode, t)).sum::<usize>())
            .sum()
    }

    /// Parameter compression ratio `baseline / TT` (Table II's "(6.13×)"
    /// style numbers).
    pub fn param_compression(&self) -> f64 {
        self.baseline_params() as f64 / self.tt_params() as f64
    }

    /// FLOP compression ratio `baseline / mode`.
    pub fn flop_compression(&self, mode: &TtMode) -> f64 {
        self.baseline_macs() as f64 / self.mode_macs(mode) as f64
    }

    /// Number of decomposed layers.
    pub fn num_decomposed(&self) -> usize {
        self.conv_layers.iter().filter(|l| matches!(l.kind, LayerKind::Decomposed { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_layer_macs_ignore_mode() {
        let l = ConvLayerSpec {
            geom: Conv2dGeometry::new(3, 8, (8, 8), (3, 3), (1, 1), (1, 1)),
            kind: LayerKind::Dense,
        };
        assert_eq!(l.macs(&TtMode::Stt, 0), l.geom.macs());
        assert_eq!(l.macs(&TtMode::htt_default(4), 3), l.geom.macs());
    }

    #[test]
    fn rank_clamped_in_spec_params() {
        let l = ConvLayerSpec {
            geom: Conv2dGeometry::new(4, 8, (8, 8), (3, 3), (1, 1), (1, 1)),
            kind: LayerKind::Decomposed { rank: 100 },
        };
        // clamped to min(I,O)=4
        assert_eq!(l.tt_params(), 4 * 4 + 6 * 16 + 4 * 8);
    }
}
