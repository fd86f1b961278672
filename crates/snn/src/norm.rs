//! Batch-normalization variants used by the paper and its Table III
//! baselines.
//!
//! * **tdBN** (Zheng et al., AAAI 2021): threshold-dependent batch norm.
//!   Activations are normalized per channel and scaled by `α·V_th` so the
//!   pre-activation distribution matches the firing threshold. The paper's
//!   MS-ResNet baseline uses this (Algorithm 1 line 10).
//! * **TEBN** (Duan et al., NeurIPS 2022): temporal effective batch norm —
//!   batch statistics plus a *learned per-timestep* scale that reweights
//!   each timestep's contribution.
//!
//! Statistics are computed per timestep over the batch (the paper's
//! layer-by-layer, timestep-by-timestep training order makes this the
//! natural formulation). The training plane normalizes all timesteps of a
//! layer in one call, each timestep's slab of the time-major stack by its
//! own statistics.

use ttsnn_autograd::Var;
use ttsnn_tensor::norm::{self, NormDims};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{ShapeError, Tensor};

use crate::model::InferStats;

/// Which normalization a [`Norm`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NormKind {
    /// Threshold-dependent BN with extra scale `α·V_th`.
    TdBn {
        /// The α scaling constant (Zheng et al. use 1).
        alpha: f32,
        /// The firing threshold V_th the scale is matched to.
        vth: f32,
    },
    /// Temporal effective BN with a learned scale per timestep.
    Tebn {
        /// Number of timesteps `T` the layer is trained for.
        timesteps: usize,
    },
}

impl NormKind {
    /// Trainable parameters of a layer of this kind over `channels` maps:
    /// γ and β per channel, plus TEBN's scale per timestep.
    pub fn params(&self, channels: usize) -> usize {
        let per_timestep = match *self {
            NormKind::TdBn { .. } => 0,
            NormKind::Tebn { timesteps } => timesteps,
        };
        2 * channels + per_timestep
    }
}

/// A trainable normalization layer (γ, β per channel, plus TEBN's
/// per-timestep scales when selected).
#[derive(Debug)]
pub struct Norm {
    gamma: Var,
    beta: Var,
    kind: NormKind,
    timestep_scales: Vec<Var>,
    channels: usize,
    eps: f32,
}

impl Norm {
    /// Creates a normalization layer over `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or a TEBN layer is created with zero
    /// timesteps.
    pub fn new(channels: usize, kind: NormKind) -> Self {
        assert!(channels > 0, "Norm: channels must be positive");
        let timestep_scales = match kind {
            NormKind::Tebn { timesteps } => {
                assert!(timesteps > 0, "Norm: TEBN needs at least one timestep");
                (0..timesteps).map(|_| Var::param(Tensor::ones(&[1]))).collect()
            }
            NormKind::TdBn { .. } => Vec::new(),
        };
        Self {
            gamma: Var::param(Tensor::ones(&[channels])),
            beta: Var::param(Tensor::zeros(&[channels])),
            kind,
            timestep_scales,
            channels,
            eps: 1e-5,
        }
    }

    /// The paper's default: tdBN with α = 1 matched to V_th = 0.5.
    pub fn td_bn(channels: usize) -> Self {
        Self::new(channels, NormKind::TdBn { alpha: 1.0, vth: 0.5 })
    }

    /// TEBN over `timesteps`.
    pub fn tebn(channels: usize, timesteps: usize) -> Self {
        Self::new(channels, NormKind::Tebn { timesteps })
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The normalization variant.
    pub fn kind(&self) -> NormKind {
        self.kind
    }

    /// Trainable parameters (γ, β, and TEBN per-timestep scales).
    pub fn params(&self) -> Vec<Var> {
        let mut p = vec![self.gamma.clone(), self.beta.clone()];
        p.extend(self.timestep_scales.iter().cloned());
        p
    }

    /// Applies the normalization to timesteps `t0..t0 + steps` at once: `x`
    /// is their time-major stack `(steps·B, C, H, W)`, and every timestep is
    /// normalized by its own batch statistics (and, under TEBN, multiplied
    /// by its own learned scale; timesteps past the schedule reuse the last).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x` is not `(steps·B, C, H, W)` with `C`
    /// equal to the layer's channel count.
    pub fn forward_sequence(&self, x: &Var, t0: usize, steps: usize) -> Result<Var, ShapeError> {
        match self.kind {
            NormKind::TdBn { alpha, vth } => {
                x.batch_norm2d(&self.gamma, &self.beta, self.eps, alpha * vth, steps)
            }
            NormKind::Tebn { .. } => {
                let y = x.batch_norm2d(&self.gamma, &self.beta, self.eps, 1.0, steps)?;
                let last = self.timestep_scales.len() - 1;
                let scales: Vec<Var> =
                    (t0..t0 + steps).map(|t| self.timestep_scales[t.min(last)].clone()).collect();
                y.scale_by_groups(&scales)
            }
        }
    }

    /// Applies the normalization to timesteps `t0..t0 + steps` on the
    /// **inference plane**, in place on their time-major stack `(steps·B, C,
    /// H, W)`, with no autograd bookkeeping.
    ///
    /// With [`InferStats::Batch`] every timestep's `B` rows are one
    /// statistics group; with [`InferStats::PerSample`] every row is
    /// normalized by its own statistics (the serving mode: invariant to
    /// batch composition, and equal to `Batch` at B = 1). Either way it is
    /// one `norm::normalize` call, whose statistics are the ones
    /// `Var::batch_norm2d` takes from `norm::channel_stats`, computed by the
    /// same code, so `Batch` is bit-identical to [`Norm::forward_sequence`].
    /// TEBN's scale is the one of the group's timestep.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x` is not `(steps·B, C, H, W)` with `C`
    /// equal to the layer's channel count.
    pub fn forward_tensor(
        &self,
        x: &mut Tensor,
        t0: usize,
        steps: usize,
        stats: InferStats,
    ) -> Result<(), ShapeError> {
        let &[rows, c, h, w] = x.shape() else {
            return Err(ShapeError::new(format!(
                "Norm::forward_tensor: expected 4-D input, got {:?}",
                x.shape()
            )));
        };
        if c != self.channels || steps == 0 || !rows.is_multiple_of(steps) {
            return Err(ShapeError::new(format!(
                "Norm::forward_tensor: input {:?} is not {steps} timestep(s) of {} channels",
                x.shape(),
                self.channels
            )));
        }
        // The tdBN extra scale and the TEBN scale of each timestep, exactly
        // as the Var path composes them: y = (γ · extra · x̂ + β) · sv.
        let (extra, scales): (f32, Vec<f32>) = match self.kind {
            NormKind::TdBn { alpha, vth } => (alpha * vth, vec![1.0; steps]),
            NormKind::Tebn { .. } => {
                let last = self.timestep_scales.len() - 1;
                let at = |t: usize| self.timestep_scales[t.min(last)].value().data()[0];
                (1.0, (t0..t0 + steps).map(at).collect())
            }
        };
        let (gamma, beta) = (self.gamma.value(), self.beta.value());
        // Rows per statistics group: a timestep's batch, or one sample.
        let (batch, ns) = (rows / steps, if stats == InferStats::Batch { rows / steps } else { 1 });
        let dims = NormDims { b: ns, c, plane: h * w };
        let affine = (gamma.data(), beta.data(), extra);
        let scale = |group: usize| scales[group * ns / batch];
        norm::normalize(&Runtime::current(), dims, x.data_mut(), self.eps, affine, scale);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::Rng;

    #[test]
    fn kind_counts_the_parameters_a_layer_holds() {
        for kind in [NormKind::TdBn { alpha: 1.0, vth: 0.5 }, NormKind::Tebn { timesteps: 3 }] {
            let held: usize = Norm::new(5, kind).params().iter().map(|p| p.value().len()).sum();
            assert_eq!(kind.params(5), held, "{kind:?}");
        }
    }

    #[test]
    fn tdbn_scales_to_threshold() {
        let mut rng = Rng::seed_from(1);
        let x = Var::constant(Tensor::randn(&[4, 2, 5, 5], &mut rng));
        let norm = Norm::td_bn(2);
        let y = norm.forward_sequence(&x, 0, 1).unwrap().to_tensor();
        // per-channel std should be ~ alpha*vth = 0.5
        let plane = 25;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for b in 0..4 {
                let start = (b * 2 + ch) * plane;
                vals.extend_from_slice(&y.data()[start..start + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let std =
                (vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32).sqrt();
            assert!((std - 0.5).abs() < 0.05, "tdBN std {std} should be ~0.5");
        }
    }

    #[test]
    fn tebn_scale_is_per_timestep_and_trainable() {
        let mut rng = Rng::seed_from(2);
        let x = Var::constant(Tensor::randn(&[2, 3, 4, 4], &mut rng));
        let norm = Norm::tebn(3, 4);
        // Nudging the t=2 scale changes only the t=2 output.
        let before_t2 = norm.forward_sequence(&x, 2, 1).unwrap().to_tensor();
        let before_t0 = norm.forward_sequence(&x, 0, 1).unwrap().to_tensor();
        norm.timestep_scales[2].update_value(|s| s.data_mut()[0] = 2.0);
        let after_t2 = norm.forward_sequence(&x, 2, 1).unwrap().to_tensor();
        let after_t0 = norm.forward_sequence(&x, 0, 1).unwrap().to_tensor();
        assert!(before_t2.max_abs_diff(&after_t2).unwrap() > 0.1);
        assert!(before_t0.max_abs_diff(&after_t0).unwrap() < 1e-6);
        assert!(after_t2.max_abs_diff(&before_t2.scale(2.0)).unwrap() < 1e-5);
    }

    #[test]
    fn param_counts() {
        assert_eq!(Norm::td_bn(8).params().len(), 2);
        assert_eq!(Norm::tebn(8, 4).params().len(), 6); // gamma, beta, 4 scales
    }

    #[test]
    fn gradients_reach_gamma_beta() {
        let mut rng = Rng::seed_from(3);
        let x = Var::constant(Tensor::randn(&[2, 2, 3, 3], &mut rng));
        let norm = Norm::td_bn(2);
        let m = Var::constant(Tensor::randn(&[2, 2, 3, 3], &mut rng));
        norm.forward_sequence(&x, 0, 1).unwrap().mul(&m).unwrap().sum_to_scalar().backward();
        assert!(norm.gamma.grad().is_some());
        assert!(norm.beta.grad().is_some());
    }

    #[test]
    fn tebn_gradients_reach_timestep_scale() {
        let mut rng = Rng::seed_from(4);
        let x = Var::constant(Tensor::randn(&[2, 2, 3, 3], &mut rng));
        let norm = Norm::tebn(2, 3);
        let m = Var::constant(Tensor::randn(&[2, 2, 3, 3], &mut rng));
        norm.forward_sequence(&x, 1, 1).unwrap().mul(&m).unwrap().sum_to_scalar().backward();
        assert!(norm.timestep_scales[1].grad().is_some());
        assert!(norm.timestep_scales[0].grad().is_none());
    }

    #[test]
    fn forward_tensor_batch_mode_matches_var_bitwise() {
        let mut rng = Rng::seed_from(6);
        for norm in [Norm::td_bn(3), Norm::tebn(3, 4)] {
            norm.timestep_scales.iter().enumerate().for_each(|(i, s)| {
                s.update_value(|t| t.data_mut()[0] = 1.0 + 0.25 * i as f32);
            });
            for t in 0..3 {
                let x = Tensor::randn(&[4, 3, 5, 5], &mut rng);
                let via_var =
                    norm.forward_sequence(&Var::constant(x.clone()), t, 1).unwrap().to_tensor();
                let mut via_tensor = x;
                norm.forward_tensor(&mut via_tensor, t, 1, InferStats::Batch).unwrap();
                assert_eq!(via_var, via_tensor, "t={t}");
            }
        }
    }

    #[test]
    fn forward_tensor_per_sample_is_batch_invariant() {
        let mut rng = Rng::seed_from(7);
        let norm = Norm::td_bn(2);
        let x = Tensor::randn(&[5, 2, 4, 4], &mut rng);
        let mut batched = x.clone();
        norm.forward_tensor(&mut batched, 0, 1, InferStats::PerSample).unwrap();
        let slab = 2 * 16;
        for s in 0..5 {
            let mut solo =
                Tensor::from_vec(x.data()[s * slab..(s + 1) * slab].to_vec(), &[1, 2, 4, 4])
                    .unwrap();
            norm.forward_tensor(&mut solo, 0, 1, InferStats::PerSample).unwrap();
            assert_eq!(&batched.data()[s * slab..(s + 1) * slab], solo.data(), "sample {s}");
        }
    }

    #[test]
    fn forward_tensor_validates_shapes() {
        let norm = Norm::td_bn(3);
        let mut bad_c = Tensor::zeros(&[1, 4, 2, 2]);
        assert!(norm.forward_tensor(&mut bad_c, 0, 1, InferStats::Batch).is_err());
        let mut bad_rank = Tensor::zeros(&[3, 2, 2]);
        assert!(norm.forward_tensor(&mut bad_rank, 0, 1, InferStats::Batch).is_err());
    }

    #[test]
    fn forward_validates_channels() {
        let norm = Norm::td_bn(3);
        let x = Var::constant(Tensor::zeros(&[1, 4, 2, 2]));
        assert!(norm.forward_sequence(&x, 0, 1).is_err());
    }

    #[test]
    fn tebn_timestep_overflow_clamps() {
        let mut rng = Rng::seed_from(5);
        let x = Var::constant(Tensor::randn(&[1, 2, 2, 2], &mut rng));
        let norm = Norm::tebn(2, 2);
        // t beyond schedule reuses the last scale rather than panicking.
        assert!(norm.forward_sequence(&x, 10, 1).is_ok());
    }
}
