//! Spiking VGG architectures — the TEBN/TET/NDA baselines of Table III.
//!
//! Plain convolutional stacks (3×3 conv + BN + LIF) with 2×2 average
//! pooling between stages and a fully-connected head. As everywhere in this
//! reproduction, every 3×3 convolution after the stem is a [`ConvUnit`]
//! slot, so the PTT plug-in experiment of Table III is a one-line policy
//! change.

use ttsnn_autograd::Var;
use ttsnn_tensor::spike::{self, SparseMode};
use ttsnn_tensor::{pool, Rng, ShapeError, Tensor};

use crate::conv_unit::{ConvPolicy, ConvUnit};
use crate::lif::{Lif, LifConfig};
use crate::model::{
    linear_per_timestep, linear_tensor_mode, InferForward, InferState, InferStats, SpikingModel,
    TrainForward,
};
use crate::norm::{Norm, NormKind};
use crate::quant::{
    self, calibration_frame_at, CalibRecorder, CalibStats, QuantConfig, QuantLinear,
    QuantPlanWeights, QuantReport,
};

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

struct VggLayer {
    conv: ConvUnit,
    norm: Norm,
    lif: Lif,
    pool: bool,
    in_hw: (usize, usize),
}

/// A spiking VGG with pluggable convolution policy, executable on both
/// planes ([`TrainForward`] for BPTT, [`InferForward`] graph-free).
pub struct VggSnn {
    config: VggConfig,
    policy_name: &'static str,
    layers: Vec<VggLayer>,
    fc_w: Var,
    fc_b: Var,
    /// Quantized classifier head; `Some` once the model is frozen to the
    /// int8 serving plane.
    qfc: Option<QuantLinear>,
    /// Live calibration hook (only during [`VggSnn::calibrate`]).
    calib: Option<CalibRecorder>,
    infer_stats: InferStats,
    /// Sparse-dispatch override; `None` follows `TTSNN_SPARSE_MODE`.
    sparse_mode: Option<SparseMode>,
}

impl VggSnn {
    /// Builds the network under the given convolution policy. The first
    /// convolution stays dense (it is the spike encoder under direct
    /// coding); all later 3×3 convolutions follow the policy.
    ///
    /// # Panics
    ///
    /// Panics if pooling would shrink the feature map below 2×2 or an odd
    /// spatial size meets a 2×2 pool — VGG9 (3 pools) needs at least
    /// 8×8 inputs, VGG11 (5 pools) at least 32×32.
    pub fn new(config: VggConfig, policy: &ConvPolicy, rng: &mut Rng) -> Self {
        let mut layers = Vec::new();
        let mut hw = config.in_hw;
        let mut c_in = config.in_channels;
        let mut conv_index = 0usize;
        for (i, &width) in config.conv_widths.iter().enumerate() {
            let conv = if i == 0 {
                ConvUnit::dense(c_in, width, (3, 3), (1, 1), (1, 1), rng)
            } else {
                let unit = ConvUnit::conv3x3(policy, conv_index, c_in, width, (1, 1), rng);
                conv_index += 1;
                unit
            };
            let pool = config.pool_after.contains(&i);
            layers.push(VggLayer {
                conv,
                norm: Norm::new(width, config.norm),
                lif: Lif::new(config.lif),
                pool,
                in_hw: hw,
            });
            if pool {
                assert!(
                    hw.0.is_multiple_of(2) && hw.1.is_multiple_of(2) && hw.0 >= 2 && hw.1 >= 2,
                    "2x2 pool needs even spatial dims, got {hw:?}"
                );
                hw = (hw.0 / 2, hw.1 / 2);
            }
            c_in = width;
        }
        let feat = c_in;
        let fc_w = Var::param(Tensor::kaiming(&[config.num_classes, feat], rng));
        let fc_b = Var::param(Tensor::zeros(&[config.num_classes]));
        Self {
            policy_name: policy.name(),
            config,
            layers,
            fc_w,
            fc_b,
            qfc: None,
            calib: None,
            infer_stats: InferStats::default(),
            sparse_mode: None,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &VggConfig {
        &self.config
    }

    /// Overrides the inference plane's sparse-dispatch mode for this
    /// model instance (`None` follows the process-wide
    /// `TTSNN_SPARSE_MODE`). Because sparse and dense kernels are
    /// bit-identical, this changes performance only — tests use it to pin
    /// exactly that.
    pub fn set_sparse_mode(&mut self, mode: Option<SparseMode>) {
        self.sparse_mode = mode;
    }

    /// The sparse-dispatch mode the inference plane currently resolves to.
    pub fn sparse_dispatch_mode(&self) -> SparseMode {
        self.sparse_mode.unwrap_or_else(spike::sparse_mode)
    }

    /// Number of conv layers.
    pub fn num_conv_layers(&self) -> usize {
        self.layers.len()
    }

    /// Merges every TT convolution back into a dense kernel in place
    /// (Algorithm 1 lines 20–22). Returns the number of layers merged.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any layer's cores became inconsistent
    /// (cannot happen through this API).
    pub fn merge_into_dense(&mut self) -> Result<usize, ShapeError> {
        let mut merged = 0usize;
        for l in &mut self.layers {
            if let Some(dense) = l.conv.merged()? {
                l.conv = dense;
                merged += 1;
            }
        }
        if merged > 0 {
            self.policy_name = "merged-dense";
        }
        Ok(merged)
    }

    /// Whether the model has been frozen to the int8 serving plane.
    pub fn is_quantized(&self) -> bool {
        self.qfc.is_some()
    }

    /// Runs a calibration pass on the inference plane: each frame —
    /// `(C, H, W)` direct coding or `(T, C, H, W)` event frames — is
    /// unrolled for `timesteps` while hooks record the activation range
    /// entering every convolution and the classifier. The returned
    /// [`CalibStats`] feed [`VggSnn::quantize`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a frame does not match the architecture.
    pub fn calibrate(
        &mut self,
        frames: &[Tensor],
        timesteps: usize,
    ) -> Result<CalibStats, ShapeError> {
        let prev = self.infer_stats;
        self.infer_stats = InferStats::PerSample;
        self.calib = Some(CalibRecorder::default());
        let mut failed = None;
        'outer: for frame in frames {
            self.reset_state();
            for t in 0..timesteps {
                let input = match calibration_frame_at(frame, t, timesteps) {
                    Ok(i) => i,
                    Err(e) => {
                        failed = Some(e);
                        break 'outer;
                    }
                };
                if let Err(e) = self.forward_timestep_tensor(&input, t) {
                    failed = Some(e);
                    break 'outer;
                }
            }
        }
        self.reset_state();
        self.infer_stats = prev;
        // A failed forward drops the recorder on its error path; the stats
        // are moot in that case anyway.
        let recorder = self.calib.take();
        match (failed, recorder) {
            (Some(e), _) => Err(e),
            (None, Some(rec)) => Ok(rec.into_stats(frames.len(), timesteps)),
            (None, None) => Err(ShapeError::new("calibrate: recorder lost".to_string())),
        }
    }

    /// Freezes every (dense) convolution and the classifier to int8 using
    /// the calibrated activation scales — the quantized serving plane.
    /// Requires TT layers to be merged first ([`VggSnn::merge_into_dense`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the calibration does not cover every
    /// site, a conv is still TT-decomposed, or weights are non-finite.
    pub fn quantize(
        &mut self,
        calib: &CalibStats,
        cfg: &QuantConfig,
    ) -> Result<QuantReport, ShapeError> {
        let sites = self.layers.len();
        if calib.sites.len() != sites + 1 {
            return Err(ShapeError::new(format!(
                "quantize: calibration covered {} sites, model has {} convs + classifier",
                calib.sites.len(),
                sites
            )));
        }
        // Quantize the classifier FIRST: if it fails (e.g. non-finite
        // weights), no conv site has been frozen yet and the model stays
        // fully usable — the same no-half-frozen invariant
        // `quantize_conv_sites` keeps internally.
        let ql = QuantLinear::from_dense(
            &self.fc_w.value(),
            &self.fc_b.value(),
            calib.scale_for(sites),
            cfg,
        )?;
        let mut report = quant::quantize_conv_sites(
            self.layers.iter_mut().map(|l| &mut l.conv).collect(),
            calib,
            cfg,
        )?;
        report.int8_bytes += ql.weights.storage_bytes();
        report.f32_bytes += (self.fc_w.value().len() + self.fc_b.value().len()) * 4;
        self.qfc = Some(ql);
        self.policy_name = "int8";
        Ok(report)
    }

    /// Exports the frozen int8 weights for O(1) sharing with sibling
    /// replicas (`None` until [`VggSnn::quantize`] has run).
    pub fn quant_plan(&self) -> Option<QuantPlanWeights> {
        quant::export_conv_sites(self.layers.iter().map(|l| &l.conv).collect(), self.qfc.as_ref())
    }

    /// Installs shared frozen int8 weights exported by a sibling replica's
    /// [`VggSnn::quant_plan`], discarding this model's float conv and
    /// classifier weights.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the plan does not match the architecture.
    pub fn install_quant_plan(&mut self, plan: &QuantPlanWeights) -> Result<(), ShapeError> {
        // Validate the classifier BEFORE mutating any conv site, so a
        // mismatched plan cannot leave the model half-installed.
        let (fc, x_scale) = &plan.fc;
        if fc.out_features != self.config.num_classes || fc.in_features != self.fc_w.shape()[1] {
            return Err(ShapeError::new(
                "install_quant_plan: classifier shape mismatch".to_string(),
            ));
        }
        quant::install_conv_sites(
            self.layers.iter_mut().map(|l| &mut l.conv).collect(),
            &plan.convs,
            plan.accum,
        )?;
        self.qfc = Some(QuantLinear {
            weights: std::sync::Arc::clone(fc),
            x_scale: *x_scale,
            accum: plan.accum,
        });
        self.policy_name = "int8";
        Ok(())
    }
}

impl TrainForward for VggSnn {
    fn forward_sequence(
        &mut self,
        x: &Var,
        t0: usize,
        steps: usize,
    ) -> Result<Vec<Var>, ShapeError> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            let y = layer.conv.forward_sequence(&h, t0, steps)?;
            let y = layer.norm.forward_sequence(&y, t0, steps)?;
            h = layer.lif.scan(&y, steps)?;
            if layer.pool {
                h = h.avg_pool2d(2)?;
            }
        }
        let pooled = h.global_avg_pool()?;
        linear_per_timestep(&pooled, &self.fc_w, &self.fc_b, steps)
    }
}

impl InferForward for VggSnn {
    fn forward_timestep_tensor(&mut self, x: &Tensor, t: usize) -> Result<Tensor, ShapeError> {
        let stats = self.infer_stats;
        let mode = self.sparse_dispatch_mode();
        // Taken (not borrowed) so the calibration hooks can observe inputs
        // while the layer loop holds `&mut self.layers`.
        let mut calib = self.calib.take();
        let mut site = 0usize;
        let mut h: Option<Tensor> = None;
        for layer in &mut self.layers {
            if let Some(rec) = calib.as_mut() {
                rec.observe(site, h.as_ref().unwrap_or(x));
            }
            site += 1;
            let mut y = layer.conv.forward_tensor_mode(h.as_ref().unwrap_or(x), t, mode)?;
            if let Some(spent) = h.take() {
                spent.recycle();
            }
            layer.norm.forward_tensor(&mut y, t, stats)?;
            let s = layer.lif.step_tensor(y)?;
            h = Some(if layer.pool {
                let pooled = pool::avg_pool2d(&s, 2)?;
                s.recycle();
                pooled
            } else {
                s
            });
        }
        let feats = match h {
            Some(f) => f,
            None => x.clone(),
        };
        let pooled = pool::global_avg_pool(&feats)?;
        feats.recycle();
        if let Some(rec) = calib.as_mut() {
            rec.observe(site, &pooled);
        }
        self.calib = calib;
        let logits = match &self.qfc {
            Some(q) => q.forward_mode(&pooled, mode),
            None => {
                linear_tensor_mode(&pooled, &self.fc_w.value(), &self.fc_b.value(), stats, mode)
            }
        };
        pooled.recycle();
        logits
    }

    fn set_infer_stats(&mut self, stats: InferStats) {
        self.infer_stats = stats;
    }

    fn infer_stats(&self) -> InferStats {
        self.infer_stats
    }

    fn take_infer_state(&mut self) -> InferState {
        InferState::from_membranes(
            self.layers.iter_mut().map(|l| l.lif.take_state_tensor()).collect(),
        )
    }

    fn restore_infer_state(&mut self, state: InferState) -> Result<(), ShapeError> {
        if state.layers() != self.layers.len() {
            return Err(ShapeError::new(format!(
                "VggSnn::restore_infer_state: snapshot covers {} LIF layers, model has {}",
                state.layers(),
                self.layers.len()
            )));
        }
        for (layer, membrane) in self.layers.iter_mut().zip(state.into_membranes()) {
            layer.lif.restore_state_tensor(membrane);
        }
        Ok(())
    }
}

impl SpikingModel for VggSnn {
    fn params(&self) -> Vec<Var> {
        let mut p = Vec::new();
        for l in &self.layers {
            p.extend(l.conv.params());
            p.extend(l.norm.params());
        }
        // Once the classifier is frozen to int8 its float weights are no
        // longer parameters (only the norm layers stay float).
        if self.qfc.is_none() {
            p.push(self.fc_w.clone());
            p.push(self.fc_b.clone());
        }
        p
    }

    fn reset_state(&mut self) {
        for l in &mut self.layers {
            l.lif.reset();
        }
    }

    fn name(&self) -> String {
        format!("{} [{}]", self.config.name, self.policy_name)
    }

    fn macs_at(&self, t: usize) -> usize {
        let mut total = 0usize;
        for l in &self.layers {
            total += l.conv.macs(l.in_hw, t);
        }
        total + self.fc_w.value().len()
    }

    fn mean_spike_activity(&self) -> Option<f64> {
        let mut spikes = 0.0f64;
        let mut steps = 0.0f64;
        for l in &self.layers {
            let (s, n) = l.lif.activity_counts();
            spikes += s;
            steps += n;
        }
        if steps > 0.0 {
            Some(spikes / steps)
        } else {
            None
        }
    }

    fn layer_spike_densities(&self) -> Vec<f64> {
        self.layers.iter().map(|l| l.lif.activity().unwrap_or(0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_core::TtMode;

    #[test]
    fn vgg9_forward_shape() {
        let mut rng = Rng::seed_from(1);
        let cfg = VggConfig::vgg9(3, 10, (16, 16), 16);
        let mut net = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
        let x = Var::constant(Tensor::randn(&[2, 3, 16, 16], &mut rng));
        let y = net.forward_timestep(&x, 0).unwrap();
        assert_eq!(y.shape(), vec![2, 10]);
        assert_eq!(net.num_conv_layers(), 6);
    }

    #[test]
    fn vgg11_forward_shape_event_input() {
        let mut rng = Rng::seed_from(2);
        let cfg = VggConfig::vgg11(2, 11, (32, 32), 32);
        let mut net = VggSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 2, 32, 32], &mut rng));
        let y = net.forward_timestep(&x, 0).unwrap();
        assert_eq!(y.shape(), vec![1, 11]);
        assert_eq!(net.num_conv_layers(), 8);
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
