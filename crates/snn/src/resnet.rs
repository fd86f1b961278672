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
//! DESIGN.md §3); `width_divisor = 1` reproduces the full-size layer table
//! whose analytic params/FLOPs live in `ttsnn_core::flops`.

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

    fn make_norm(&self, channels: usize) -> Norm {
        Norm::new(channels, self.norm)
    }
}

struct BasicBlock {
    conv_a: ConvUnit,
    norm_a: Norm,
    lif_a: Lif,
    conv_b: ConvUnit,
    norm_b: Norm,
    lif_b: Lif,
    shortcut: Option<(ConvUnit, Norm)>,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
}

/// A spiking residual network with pluggable convolution policy.
///
/// ```
/// use ttsnn_snn::{ResNetConfig, ResNetSnn, ConvPolicy, SpikingModel, TrainForward};
/// use ttsnn_core::TtMode;
/// use ttsnn_autograd::Var;
/// use ttsnn_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let mut rng = Rng::seed_from(0);
/// let cfg = ResNetConfig::resnet18(10, (16, 16), 16); // narrow for the doc test
/// let mut net = ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
/// let x = Var::constant(Tensor::randn(&[2, 3, 16, 16], &mut rng));
/// let logits = net.forward_timestep(&x, 0)?;
/// assert_eq!(logits.shape(), vec![2, 10]);
/// # Ok(())
/// # }
/// ```
pub struct ResNetSnn {
    config: ResNetConfig,
    policy_name: &'static str,
    stem: ConvUnit,
    stem_norm: Norm,
    stem_lif: Lif,
    blocks: Vec<BasicBlock>,
    fc_w: Var,
    fc_b: Var,
    /// Quantized classifier head; `Some` once the model is frozen to the
    /// int8 serving plane.
    qfc: Option<QuantLinear>,
    /// Live calibration hook (only during [`ResNetSnn::calibrate`]).
    calib: Option<CalibRecorder>,
    infer_stats: InferStats,
    /// Sparse-dispatch override; `None` follows `TTSNN_SPARSE_MODE`.
    sparse_mode: Option<SparseMode>,
}

impl ResNetSnn {
    /// Builds the network under the given convolution policy.
    ///
    /// # Panics
    ///
    /// Panics if `config.stage_blocks` and `config.widths` lengths differ
    /// or the input is too small for the stage downsampling.
    pub fn new(config: ResNetConfig, policy: &ConvPolicy, rng: &mut Rng) -> Self {
        assert_eq!(config.stage_blocks.len(), config.widths.len(), "stage/width lists must align");
        let stem_out = config.widths[0];
        let stem = ConvUnit::dense(config.in_channels, stem_out, (3, 3), (1, 1), (1, 1), rng);
        let stem_norm = config.make_norm(stem_out);
        let stem_lif = Lif::new(config.lif);
        let mut blocks = Vec::new();
        let mut hw = config.in_hw;
        let mut c_in = stem_out;
        let mut conv_index = 0usize;
        for (stage, (&nblocks, &width)) in
            config.stage_blocks.iter().zip(config.widths.iter()).enumerate()
        {
            for b in 0..nblocks {
                let downsample = stage > 0 && b == 0;
                let stride = if downsample { (2, 2) } else { (1, 1) };
                let out_hw = if downsample { (hw.0.div_ceil(2), hw.1.div_ceil(2)) } else { hw };
                assert!(out_hw.0 >= 1 && out_hw.1 >= 1, "input too small for architecture");
                let conv_a = ConvUnit::conv3x3(policy, conv_index, c_in, width, stride, rng);
                conv_index += 1;
                let conv_b = ConvUnit::conv3x3(policy, conv_index, width, width, (1, 1), rng);
                conv_index += 1;
                let shortcut = if c_in != width || downsample {
                    Some((
                        ConvUnit::dense(c_in, width, (1, 1), stride, (0, 0), rng),
                        config.make_norm(width),
                    ))
                } else {
                    None
                };
                blocks.push(BasicBlock {
                    conv_a,
                    norm_a: config.make_norm(width),
                    lif_a: Lif::new(config.lif),
                    conv_b,
                    norm_b: config.make_norm(width),
                    lif_b: Lif::new(config.lif),
                    shortcut,
                    in_hw: hw,
                    out_hw,
                });
                hw = out_hw;
                c_in = width;
            }
        }
        let fc_w = Var::param(Tensor::kaiming(&[config.num_classes, c_in], rng));
        let fc_b = Var::param(Tensor::zeros(&[config.num_classes]));
        Self {
            policy_name: policy.name(),
            config,
            stem,
            stem_norm,
            stem_lif,
            blocks,
            fc_w,
            fc_b,
            qfc: None,
            calib: None,
            infer_stats: InferStats::default(),
            sparse_mode: None,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ResNetConfig {
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

    /// Number of residual blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Snapshots of all TT conv layers (for merge-back / analysis), in
    /// network order. Empty for baseline networks.
    pub fn tt_layers(&self) -> Vec<&ttsnn_core::TtConv> {
        let mut out = Vec::new();
        for b in &self.blocks {
            for c in [&b.conv_a, &b.conv_b] {
                if let ConvUnit::Tt(tt) = c {
                    out.push(tt);
                }
            }
        }
        out
    }

    /// Merges every TT convolution back into a dense kernel in place
    /// (Algorithm 1 lines 20–22): after this call the network runs
    /// spike-driven dense inference with no TT restructuring. Returns the
    /// number of layers merged.
    ///
    /// For HTT-trained networks the merged model uses the *full* (PTT)
    /// path weights at every timestep, as in the paper's inference
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any layer's cores became inconsistent
    /// (cannot happen through this API).
    pub fn merge_into_dense(&mut self) -> Result<usize, ShapeError> {
        let mut merged = 0usize;
        for b in &mut self.blocks {
            for conv in [&mut b.conv_a, &mut b.conv_b] {
                if let Some(dense) = conv.merged()? {
                    *conv = dense;
                    merged += 1;
                }
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

    /// All convolution sites in calibration/quantization order: stem,
    /// then per block `conv_a`, `conv_b`, shortcut (when present) — the
    /// exact order the inference plane's calibration hooks visit them.
    fn conv_sites_mut(&mut self) -> Vec<&mut ConvUnit> {
        let mut v = vec![&mut self.stem];
        for b in &mut self.blocks {
            v.push(&mut b.conv_a);
            v.push(&mut b.conv_b);
            if let Some((conv, _)) = &mut b.shortcut {
                v.push(conv);
            }
        }
        v
    }

    fn conv_sites(&self) -> Vec<&ConvUnit> {
        let mut v = vec![&self.stem];
        for b in &self.blocks {
            v.push(&b.conv_a);
            v.push(&b.conv_b);
            if let Some((conv, _)) = &b.shortcut {
                v.push(conv);
            }
        }
        v
    }

    /// Runs a calibration pass on the inference plane (see
    /// `VggSnn::calibrate`; identical contract).
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
        let recorder = self.calib.take();
        match (failed, recorder) {
            (Some(e), _) => Err(e),
            (None, Some(rec)) => Ok(rec.into_stats(frames.len(), timesteps)),
            (None, None) => Err(ShapeError::new("calibrate: recorder lost".to_string())),
        }
    }

    /// Freezes every (dense) convolution — stem, block convs, shortcut
    /// projections — and the classifier to int8 using the calibrated
    /// activation scales. Requires TT layers to be merged first.
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
        let sites = self.conv_sites().len();
        if calib.sites.len() != sites + 1 {
            return Err(ShapeError::new(format!(
                "quantize: calibration covered {} sites, model has {} convs + classifier",
                calib.sites.len(),
                sites
            )));
        }
        // Quantize the classifier FIRST: if it fails, no conv site has
        // been frozen yet and the model stays fully usable.
        let ql = QuantLinear::from_dense(
            &self.fc_w.value(),
            &self.fc_b.value(),
            calib.scale_for(sites),
            cfg,
        )?;
        let mut report = quant::quantize_conv_sites(self.conv_sites_mut(), calib, cfg)?;
        report.int8_bytes += ql.weights.storage_bytes();
        report.f32_bytes += (self.fc_w.value().len() + self.fc_b.value().len()) * 4;
        self.qfc = Some(ql);
        self.policy_name = "int8";
        Ok(report)
    }

    /// Exports the frozen int8 weights for O(1) sharing with sibling
    /// replicas (`None` until [`ResNetSnn::quantize`] has run).
    pub fn quant_plan(&self) -> Option<QuantPlanWeights> {
        quant::export_conv_sites(self.conv_sites(), self.qfc.as_ref())
    }

    /// Installs shared frozen int8 weights exported by a sibling
    /// replica's [`ResNetSnn::quant_plan`].
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
        quant::install_conv_sites(self.conv_sites_mut(), &plan.convs, plan.accum)?;
        self.qfc = Some(QuantLinear {
            weights: std::sync::Arc::clone(fc),
            x_scale: *x_scale,
            accum: plan.accum,
        });
        self.policy_name = "int8";
        Ok(())
    }
}

impl TrainForward for ResNetSnn {
    fn forward_sequence(
        &mut self,
        x: &Var,
        t0: usize,
        steps: usize,
    ) -> Result<Vec<Var>, ShapeError> {
        let y = self.stem.forward_sequence(x, t0, steps)?;
        let y = self.stem_norm.forward_sequence(&y, t0, steps)?;
        let mut spikes = self.stem_lif.scan(&y, steps)?;
        for block in &mut self.blocks {
            let h = block.conv_a.forward_sequence(&spikes, t0, steps)?;
            let h = block.norm_a.forward_sequence(&h, t0, steps)?;
            let h = block.lif_a.scan(&h, steps)?;
            let y = block.conv_b.forward_sequence(&h, t0, steps)?;
            let y = block.norm_b.forward_sequence(&y, t0, steps)?;
            let sc = match &block.shortcut {
                Some((conv, norm)) => {
                    let s = conv.forward_sequence(&spikes, t0, steps)?;
                    norm.forward_sequence(&s, t0, steps)?
                }
                None => spikes.clone(),
            };
            spikes = block.lif_b.scan(&y.add(&sc)?, steps)?;
        }
        let pooled = spikes.global_avg_pool()?;
        linear_per_timestep(&pooled, &self.fc_w, &self.fc_b, steps)
    }
}

impl InferForward for ResNetSnn {
    fn forward_timestep_tensor(&mut self, x: &Tensor, t: usize) -> Result<Tensor, ShapeError> {
        let stats = self.infer_stats;
        let mode = self.sparse_dispatch_mode();
        // Taken (not borrowed) so the calibration hooks can observe inputs
        // while the block loop holds `&mut self.blocks`. Site order matches
        // `conv_sites`: stem, then per block conv_a, conv_b, shortcut.
        let mut calib = self.calib.take();
        let mut site = 0usize;
        if let Some(rec) = calib.as_mut() {
            rec.observe(site, x);
        }
        site += 1;
        let mut y = self.stem.forward_tensor_mode(x, t, mode)?;
        self.stem_norm.forward_tensor(&mut y, t, stats)?;
        let mut spikes = self.stem_lif.step_tensor(y)?;
        for block in &mut self.blocks {
            if let Some(rec) = calib.as_mut() {
                rec.observe(site, &spikes);
            }
            site += 1;
            let mut h = block.conv_a.forward_tensor_mode(&spikes, t, mode)?;
            block.norm_a.forward_tensor(&mut h, t, stats)?;
            let h = block.lif_a.step_tensor(h)?;
            if let Some(rec) = calib.as_mut() {
                rec.observe(site, &h);
            }
            site += 1;
            let mut y = block.conv_b.forward_tensor_mode(&h, t, mode)?;
            h.recycle();
            block.norm_b.forward_tensor(&mut y, t, stats)?;
            // y += shortcut, the tensor twin of the Var path's y.add(&sc).
            match &block.shortcut {
                Some((conv, norm)) => {
                    if let Some(rec) = calib.as_mut() {
                        rec.observe(site, &spikes);
                    }
                    site += 1;
                    let mut sc = conv.forward_tensor_mode(&spikes, t, mode)?;
                    norm.forward_tensor(&mut sc, t, stats)?;
                    y.add_scaled(&sc, 1.0)?;
                    sc.recycle();
                }
                None => y.add_scaled(&spikes, 1.0)?,
            }
            spikes.recycle();
            spikes = block.lif_b.step_tensor(y)?;
        }
        let pooled = pool::global_avg_pool(&spikes)?;
        spikes.recycle();
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
        // Same order as `reset_state` / `layer_spike_densities`: stem, then
        // per block lif_a, lif_b.
        let mut membranes = vec![self.stem_lif.take_state_tensor()];
        for b in &mut self.blocks {
            membranes.push(b.lif_a.take_state_tensor());
            membranes.push(b.lif_b.take_state_tensor());
        }
        InferState::from_membranes(membranes)
    }

    fn restore_infer_state(&mut self, state: InferState) -> Result<(), ShapeError> {
        let expected = 1 + 2 * self.blocks.len();
        if state.layers() != expected {
            return Err(ShapeError::new(format!(
                "ResNetSnn::restore_infer_state: snapshot covers {} LIF layers, model has \
                 {expected}",
                state.layers()
            )));
        }
        let mut membranes = state.into_membranes().into_iter();
        self.stem_lif.restore_state_tensor(membranes.next().unwrap());
        for b in &mut self.blocks {
            b.lif_a.restore_state_tensor(membranes.next().unwrap());
            b.lif_b.restore_state_tensor(membranes.next().unwrap());
        }
        Ok(())
    }
}

impl SpikingModel for ResNetSnn {
    fn params(&self) -> Vec<Var> {
        let mut p = self.stem.params();
        p.extend(self.stem_norm.params());
        for b in &self.blocks {
            p.extend(b.conv_a.params());
            p.extend(b.norm_a.params());
            p.extend(b.conv_b.params());
            p.extend(b.norm_b.params());
            if let Some((conv, norm)) = &b.shortcut {
                p.extend(conv.params());
                p.extend(norm.params());
            }
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
        self.stem_lif.reset();
        for b in &mut self.blocks {
            b.lif_a.reset();
            b.lif_b.reset();
        }
    }

    fn name(&self) -> String {
        format!("{} [{}]", self.config.name, self.policy_name)
    }

    fn macs_at(&self, t: usize) -> usize {
        let mut total = self.stem.macs(self.config.in_hw, t);
        for b in &self.blocks {
            total += b.conv_a.macs(b.in_hw, t);
            total += b.conv_b.macs(b.out_hw, t);
            if let Some((conv, _)) = &b.shortcut {
                total += conv.macs(b.in_hw, t);
            }
        }
        total + self.fc_w.value().len()
    }

    fn mean_spike_activity(&self) -> Option<f64> {
        let mut spikes = 0.0f64;
        let mut steps = 0.0f64;
        let mut record = |lif: &Lif| {
            let (s, n) = lif.activity_counts();
            spikes += s;
            steps += n;
        };
        record(&self.stem_lif);
        for b in &self.blocks {
            record(&b.lif_a);
            record(&b.lif_b);
        }
        if steps > 0.0 {
            Some(spikes / steps)
        } else {
            None
        }
    }

    fn layer_spike_densities(&self) -> Vec<f64> {
        let mut out = vec![self.stem_lif.activity().unwrap_or(0.0)];
        for b in &self.blocks {
            out.push(b.lif_a.activity().unwrap_or(0.0));
            out.push(b.lif_b.activity().unwrap_or(0.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_core::TtMode;

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
        assert_eq!(net.num_blocks(), 8);
        assert_eq!(net.tt_layers().len(), 16);
    }

    #[test]
    fn resnet20_topology() {
        let mut rng = Rng::seed_from(3);
        let cfg = ResNetConfig::resnet20(10, (8, 8), 4);
        let net = ResNetSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
        assert_eq!(net.num_blocks(), 9);
        assert!(net.tt_layers().is_empty());
    }

    #[test]
    fn resnet34_topology() {
        let mut rng = Rng::seed_from(4);
        let cfg = ResNetConfig::resnet34_events(11, (16, 16), 16);
        let net = ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::Stt), &mut rng);
        assert_eq!(net.num_blocks(), 16);
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
        let stem_grad = net.stem.params()[0].grad();
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

    #[test]
    fn merged_network_has_dense_param_count() {
        let mut rng = Rng::seed_from(12);
        let mut tt_net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
        let base_net = ResNetSnn::new(tiny_cfg(), &ConvPolicy::Baseline, &mut rng);
        tt_net.merge_into_dense().unwrap();
        assert_eq!(tt_net.num_params(), base_net.num_params());
    }
}
