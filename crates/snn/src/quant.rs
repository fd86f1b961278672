//! The **quantized serving plane**: frozen int8 conv/linear layers,
//! activation calibration, and the shared-weight plumbing that lets one
//! quantized plan serve N cluster replicas.
//!
//! # Dataflow
//!
//! Deployment follows the accelerator's arithmetic (PAPER Table I: 8-bit
//! multipliers, 16-bit accumulators):
//!
//! 1. **Calibrate** — run each calibration frame alone through the
//!    inference plane, all `T` timesteps in one call, while
//!    [`CalibRecorder`] hooks record the max-abs activation entering every
//!    conv and the classifier ([`crate::Network::calibrate`]: site `i` is
//!    the `i`-th conv of the layer program, the classifier comes last).
//!    Each site gets a static symmetric scale.
//!    Sites whose activations are all integers within ±127 — i.e. **binary
//!    spike tensors**, which is every conv input after the stem in an SNN —
//!    snap to scale 1, making their quantization *lossless*.
//! 2. **Quantize** — `quantize()` freezes every dense conv kernel and the
//!    classifier to int8 ([`QuantConv`] / [`QuantLinear`]; per-output-
//!    channel scales by default), replacing the float weights. The model
//!    keeps float normalization and LIF dynamics: only the MAC-heavy
//!    kernels run in int8, exactly the split the accelerator makes.
//! 3. **Serve** — the inference plane routes quantized layers through
//!    `ttsnn_tensor::qkernels` (i8×i8→i32 on the worker pool). Integer
//!    accumulation is exact, so outputs are bit-identical across thread
//!    counts, replica counts and batch compositions by construction.
//!
//! The int8 plane executes **exactly the grid** that
//! `ttsnn_core::quant::fake_quant_int8` simulates during QAT: the frozen
//! weights dequantize bit-equal to the fake-quant forward values
//! (`crates/infer/tests/quant.rs` pins this).

use std::sync::Arc;

use ttsnn_core::quant::{quantize_int8, quantize_int8_per_channel};
use ttsnn_tensor::qkernels::{self, QAccum};
use ttsnn_tensor::spike::{self, EventWeights, SparseMode, SpikeTensor, WindowTable};
use ttsnn_tensor::{Conv2dGeometry, ShapeError, Tensor};

use crate::conv_unit::{route_events, ConvUnit};

/// Granularity and accumulator knobs for plan freezing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// One scale per output channel (default) instead of one per tensor.
    pub per_channel: bool,
    /// Accumulator width: exact i32 (default) or the accelerator's
    /// saturating i16.
    pub accum: QAccum,
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self { per_channel: true, accum: QAccum::I32 }
    }
}

impl QuantConfig {
    /// Per-tensor scales instead of per-channel.
    pub fn per_tensor(mut self) -> Self {
        self.per_channel = false;
        self
    }

    /// Accelerator-faithful saturating 16-bit accumulation.
    pub fn saturating16(mut self) -> Self {
        self.accum = QAccum::Saturate16;
        self
    }
}

// ---------------------------------------------------------------------------
// Frozen int8 layers.

/// Frozen int8 weights of one convolution, `Arc`-shared across replicas.
#[derive(Debug, PartialEq)]
pub struct QConvWeights {
    /// Int8 kernel, `(O, I·Kh·Kw)` row-major (flattened OIHW).
    pub values: Vec<i8>,
    /// Per-output-channel dequantization scales (length `O`), or a single
    /// per-tensor scale (length 1).
    pub scales: Vec<f32>,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel spatial size.
    pub kernel: (usize, usize),
    /// Stride.
    pub stride: (usize, usize),
    /// Padding.
    pub padding: (usize, usize),
    /// The kernel laid out for the event scatter at the activation scale it
    /// was frozen with: `[I·Kh·Kw][O]`, each weight times that scale's spike
    /// value, as i32. A serving layout, not counted by
    /// [`QConvWeights::storage_bytes`].
    pub events: EventWeights<i32>,
}

impl QConvWeights {
    /// Storage footprint: one byte per weight plus the scales.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() + self.scales.len() * std::mem::size_of::<f32>()
    }
}

/// A quantized convolution slot: shared frozen weights plus this
/// network's static input-activation scale.
#[derive(Debug, Clone)]
pub struct QuantConv {
    /// Frozen int8 kernel (shared across replicas).
    pub weights: Arc<QConvWeights>,
    /// Static activation scale from calibration.
    pub x_scale: f32,
    /// Accumulator mode.
    pub accum: QAccum,
}

impl QuantConv {
    /// Quantizes a dense OIHW kernel under `cfg`, with the calibrated
    /// input-activation scale.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the kernel is not 4-D or holds non-finite
    /// weights.
    pub fn from_dense(
        weight: &Tensor,
        stride: (usize, usize),
        padding: (usize, usize),
        x_scale: f32,
        cfg: &QuantConfig,
    ) -> Result<Self, ShapeError> {
        if weight.ndim() != 4 {
            return Err(ShapeError::new(format!(
                "QuantConv::from_dense: expected OIHW kernel, got {:?}",
                weight.shape()
            )));
        }
        let s = weight.shape();
        let (values, scales) = quantize_weight(weight, cfg)?;
        let events = EventWeights::quantized(&values, s[0], x_scale)?;
        Ok(Self {
            weights: Arc::new(QConvWeights {
                events,
                values,
                scales,
                in_channels: s[1],
                out_channels: s[0],
                kernel: (s[2], s[3]),
                stride,
                padding,
            }),
            x_scale,
            accum: cfg.accum,
        })
    }

    /// Geometry for an input of the given spatial size.
    pub fn geometry(&self, in_hw: (usize, usize)) -> Conv2dGeometry {
        let w = &*self.weights;
        Conv2dGeometry::new(w.in_channels, w.out_channels, in_hw, w.kernel, w.stride, w.padding)
    }

    /// Runs the int8 convolution on float activations `x` `(B, C, H, W)`:
    /// quantize → i8×i8→i32 GEMM → per-channel dequantize — or, given the
    /// `events` the router picked for `x` (its bit-packed spikes), the
    /// event-driven path that skips quantization and im2col entirely. The two
    /// are bit-identical (i32 accumulation is exact; saturating-i16
    /// accumulation sees the identical nonzero-term sequence).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x` or `events` is incompatible with the
    /// kernel.
    pub fn forward(&self, x: &Tensor, events: Option<&SpikeTensor>) -> Result<Tensor, ShapeError> {
        self.forward_at(x, events, None)
    }

    /// [`QuantConv::forward`], with the event path reading the frozen
    /// layouts — `windows`, the site's table, and the weights'
    /// [`QConvWeights::events`] — when both are there and the weights were
    /// laid out at this layer's activation scale; laying them out for the
    /// call otherwise. Bit-identical either way.
    pub(crate) fn forward_at(
        &self,
        x: &Tensor,
        events: Option<&SpikeTensor>,
        windows: Option<&WindowTable>,
    ) -> Result<Tensor, ShapeError> {
        if x.ndim() != 4 {
            return Err(ShapeError::new(format!(
                "QuantConv::forward: expected 4-D input, got {:?}",
                x.shape()
            )));
        }
        let g = self.geometry((x.shape()[2], x.shape()[3]));
        let w = &*self.weights;
        let (x_scale, accum) = (self.x_scale, self.accum);
        match (events, windows) {
            (Some(sp), Some(table)) if w.events.x_scale() == x_scale => {
                spike::sparse_qconv2d_frozen(sp, &w.events, &w.scales, table, &g, accum)
            }
            (Some(sp), _) => spike::sparse_qconv2d(sp, x_scale, &w.values, &w.scales, &g, accum),
            (None, _) => qkernels::qconv2d(x, x_scale, &w.values, &w.scales, &g, accum),
        }
    }

    /// The float kernel this layer effectively applies:
    /// `scales[oc] × q[oc, ...]` as an OIHW tensor — bit-equal to what
    /// `fake_quant_int8` would emit for the original weights.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the stored shape became inconsistent
    /// (cannot happen through [`QuantConv::from_dense`]).
    pub fn dequantized_weight(&self) -> Result<Tensor, ShapeError> {
        let w = &*self.weights;
        let k = w.in_channels * w.kernel.0 * w.kernel.1;
        let data = w
            .values
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let oc = i / k;
                let s = if w.scales.len() == 1 { w.scales[0] } else { w.scales[oc] };
                q as f32 * s
            })
            .collect();
        Tensor::from_vec(data, &[w.out_channels, w.in_channels, w.kernel.0, w.kernel.1])
    }
}

/// Frozen int8 classifier weights (plus float bias), `Arc`-shared.
#[derive(Debug, PartialEq)]
pub struct QLinearWeights {
    /// Int8 weight, `(O, F)` row-major.
    pub values: Vec<i8>,
    /// Per-output scales (length `O`) or one per-tensor scale.
    pub scales: Vec<f32>,
    /// Float bias (length `O`) — biases stay in float, as on the
    /// accelerator's post-accumulation datapath.
    pub bias: Vec<f32>,
    /// Output features.
    pub out_features: usize,
    /// Input features.
    pub in_features: usize,
}

impl QLinearWeights {
    /// Storage footprint: one byte per weight plus scales and bias.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() + (self.scales.len() + self.bias.len()) * std::mem::size_of::<f32>()
    }
}

/// A quantized fully connected classifier head.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    /// Frozen int8 weight + float bias (shared across replicas).
    pub weights: Arc<QLinearWeights>,
    /// Static activation scale from calibration.
    pub x_scale: f32,
    /// Accumulator mode.
    pub accum: QAccum,
}

impl QuantLinear {
    /// Quantizes a dense `(O, F)` weight and `(O,)` bias under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on rank/shape mismatch or non-finite
    /// weights.
    pub fn from_dense(
        weight: &Tensor,
        bias: &Tensor,
        x_scale: f32,
        cfg: &QuantConfig,
    ) -> Result<Self, ShapeError> {
        if weight.ndim() != 2 || bias.ndim() != 1 || bias.shape()[0] != weight.shape()[0] {
            return Err(ShapeError::new(format!(
                "QuantLinear::from_dense: expected w:(O,F) b:(O), got {:?} {:?}",
                weight.shape(),
                bias.shape()
            )));
        }
        let (values, scales) = quantize_weight(weight, cfg)?;
        Ok(Self {
            weights: Arc::new(QLinearWeights {
                values,
                scales,
                bias: bias.data().to_vec(),
                out_features: weight.shape()[0],
                in_features: weight.shape()[1],
            }),
            x_scale,
            accum: cfg.accum,
        })
    }

    /// Runs the int8 classifier on float features `x` `(B, F)` — or, given
    /// the `events` the router picked for `x`, event-driven on its bit-packed
    /// spikes, bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x` or `events` is incompatible.
    pub fn forward(&self, x: &Tensor, events: Option<&SpikeTensor>) -> Result<Tensor, ShapeError> {
        let w = &*self.weights;
        if x.ndim() != 2 || x.shape()[1] != w.in_features {
            return Err(ShapeError::new(format!(
                "QuantLinear::forward: input {:?} vs (B, {})",
                x.shape(),
                w.in_features
            )));
        }
        let (values, scales, bias) = (&w.values[..], &w.scales[..], &w.bias[..]);
        match events {
            Some(sp) => spike::sparse_qlinear(sp, self.x_scale, values, scales, bias, self.accum),
            None => qkernels::qlinear(x, self.x_scale, values, scales, bias, self.accum),
        }
    }

    /// The classifier under a sparse-dispatch mode: event-driven when `x`
    /// is binary and `mode` routes its density sparse, dense otherwise.
    /// Also returns whether the sparse kernel served the call.
    pub(crate) fn forward_mode(
        &self,
        x: &Tensor,
        mode: SparseMode,
    ) -> Result<(Tensor, bool), ShapeError> {
        let events = route_events(x, None, mode);
        self.forward(x, events.as_deref()).map(|y| (y, events.is_some()))
    }
}

/// Quantizes one weight tensor under `cfg`, returning the int8 values in
/// the tensor's own layout plus the scale list (length channels, or 1).
fn quantize_weight(weight: &Tensor, cfg: &QuantConfig) -> Result<(Vec<i8>, Vec<f32>), ShapeError> {
    if cfg.per_channel {
        let q = quantize_int8_per_channel(weight).map_err(|e| ShapeError::new(e.to_string()))?;
        Ok((q.values, q.scales))
    } else {
        let q = quantize_int8(weight).map_err(|e| ShapeError::new(e.to_string()))?;
        Ok((q.values, vec![q.scale]))
    }
}

// ---------------------------------------------------------------------------
// Calibration.

/// Running activation statistics for one quantization site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteStats {
    /// Largest |activation| observed.
    pub max_abs: f32,
    /// Whether every observed activation was an integer (true for binary
    /// spike tensors — these sites quantize losslessly at scale 1).
    pub integral: bool,
    /// Whether the site was visited at all.
    pub seen: bool,
}

impl Default for SiteStats {
    fn default() -> Self {
        Self { max_abs: 0.0, integral: true, seen: false }
    }
}

impl SiteStats {
    /// The symmetric int8 scale for this site: 1 for unseen or all-zero
    /// sites, 1 for integer-valued sites within ±127 (lossless spike
    /// quantization), `max_abs / 127` otherwise.
    pub fn scale(&self) -> f32 {
        let lossless_spikes = self.integral && self.max_abs <= 127.0;
        if !self.seen || self.max_abs == 0.0 || lossless_spikes {
            1.0
        } else {
            self.max_abs / 127.0
        }
    }
}

/// The calibration hook the models thread through their inference plane:
/// one [`SiteStats`] per quantization site, in network order (convs
/// first, classifier input last).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CalibRecorder {
    sites: Vec<SiteStats>,
}

impl CalibRecorder {
    /// Folds one activation tensor into site `site`'s statistics.
    pub fn observe(&mut self, site: usize, x: &Tensor) {
        if self.sites.len() <= site {
            self.sites.resize(site + 1, SiteStats::default());
        }
        let s = &mut self.sites[site];
        s.seen = true;
        for &v in x.data() {
            s.max_abs = s.max_abs.max(v.abs());
            s.integral &= v.fract() == 0.0;
        }
    }

    /// Finalizes into [`CalibStats`].
    pub fn into_stats(self, frames: usize, timesteps: usize) -> CalibStats {
        CalibStats { sites: self.sites, frames, timesteps }
    }
}

/// Activation-range statistics from a calibration pass, consumed by
/// `quantize()`.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibStats {
    /// Per-site statistics, network order; the last site is the
    /// classifier input.
    pub sites: Vec<SiteStats>,
    /// Calibration frames observed.
    pub frames: usize,
    /// Timesteps unrolled per frame.
    pub timesteps: usize,
}

impl CalibStats {
    /// The activation scale for site `i` (1.0 for out-of-range sites —
    /// which `quantize()` rejects by site count before ever asking).
    pub fn scale_for(&self, i: usize) -> f32 {
        self.sites.get(i).map(|s| s.scale()).unwrap_or(1.0)
    }
}

// ---------------------------------------------------------------------------
// Plan-level reporting and replica sharing.

/// What `quantize()` did to the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantReport {
    /// Convolutions frozen to int8.
    pub quantized_convs: usize,
    /// Int8 storage of the frozen weights (values + scales + bias).
    pub int8_bytes: usize,
    /// What the same weights occupied in f32.
    pub f32_bytes: usize,
    /// Per-channel scales?
    pub per_channel: bool,
    /// Accumulator mode.
    pub accum: QAccum,
}

/// The `Send + Sync` bundle of frozen int8 weights one plan-builder
/// replica exports so its siblings can alias the same buffers — the
/// quantized twin of `checkpoint::share_params`.
#[derive(Debug, Clone)]
pub struct QuantPlanWeights {
    /// Per-site conv weights and activation scales, network order.
    pub convs: Vec<(Arc<QConvWeights>, f32)>,
    /// Classifier weights and activation scale.
    pub fc: (Arc<QLinearWeights>, f32),
    /// Accumulator mode of the plan.
    pub accum: QAccum,
}

/// Quantizes an ordered list of conv sites in place (site `i` uses
/// `calib` site `i`), returning the report tallies: the conv half of
/// [`crate::Network::quantize`].
///
/// # Errors
///
/// Returns [`ShapeError`] if any site is still TT-decomposed (merge
/// first) or already quantized, or if weights are non-finite.
pub(crate) fn quantize_conv_sites(
    sites: Vec<&mut ConvUnit>,
    calib: &CalibStats,
    cfg: &QuantConfig,
) -> Result<QuantReport, ShapeError> {
    let mut report = QuantReport {
        quantized_convs: 0,
        int8_bytes: 0,
        f32_bytes: 0,
        per_channel: cfg.per_channel,
        accum: cfg.accum,
    };
    // Two passes: quantize everything first, install only once every site
    // validated — an error must not leave the model half-frozen.
    let mut quantized = Vec::with_capacity(sites.len());
    for (i, unit) in sites.iter().enumerate() {
        match &**unit {
            ConvUnit::Dense { weight, stride, padding, .. } => {
                let w = weight.value();
                let qc = QuantConv::from_dense(&w, *stride, *padding, calib.scale_for(i), cfg)?;
                report.int8_bytes += qc.weights.storage_bytes();
                report.f32_bytes += w.len() * std::mem::size_of::<f32>();
                quantized.push(qc);
            }
            ConvUnit::Tt(_) => {
                return Err(ShapeError::new(format!(
                    "quantize: conv site {i} is still TT-decomposed — merge_into_dense first"
                )))
            }
            ConvUnit::Quantized(_) => {
                return Err(ShapeError::new(format!("quantize: conv site {i} already quantized")))
            }
        }
    }
    for (unit, qc) in sites.into_iter().zip(quantized) {
        *unit = ConvUnit::Quantized(qc);
        report.quantized_convs += 1;
    }
    Ok(report)
}

/// Installs shared quantized conv weights into an ordered list of dense
/// conv sites — the replica-side half of plan sharing. The dense float
/// weights (checkpoint-loaded or garbage) are discarded.
///
/// # Errors
///
/// Returns [`ShapeError`] if site counts or layer shapes disagree, or a
/// site is not dense.
pub(crate) fn install_conv_sites(
    sites: Vec<&mut ConvUnit>,
    shared: &[(Arc<QConvWeights>, f32)],
    accum: QAccum,
) -> Result<(), ShapeError> {
    if sites.len() != shared.len() {
        return Err(ShapeError::new(format!(
            "install_quant_plan: model has {} conv sites, plan has {}",
            sites.len(),
            shared.len()
        )));
    }
    // Two passes: validate every site first, install only afterwards — a
    // mid-list error must not leave the model half-installed.
    for (i, (unit, (weights, _))) in sites.iter().zip(shared.iter()).enumerate() {
        match &**unit {
            ConvUnit::Dense { weight, .. } => {
                let s = weight.shape();
                if (s[0], s[1], s[2], s[3])
                    != (
                        weights.out_channels,
                        weights.in_channels,
                        weights.kernel.0,
                        weights.kernel.1,
                    )
                {
                    return Err(ShapeError::new(format!(
                        "install_quant_plan: conv site {i} shape mismatch (model {s:?})"
                    )));
                }
            }
            _ => {
                return Err(ShapeError::new(format!(
                    "install_quant_plan: conv site {i} must be dense (merged) before install"
                )))
            }
        }
    }
    for (unit, (weights, x_scale)) in sites.into_iter().zip(shared.iter()) {
        *unit = ConvUnit::Quantized(QuantConv {
            weights: Arc::clone(weights),
            x_scale: *x_scale,
            accum,
        });
    }
    Ok(())
}

/// Exports the shared-weight bundle from an ordered list of quantized
/// conv sites plus the quantized classifier. `None` if any site is not
/// quantized yet.
pub(crate) fn export_conv_sites(
    sites: Vec<&ConvUnit>,
    fc: Option<&QuantLinear>,
) -> Option<QuantPlanWeights> {
    let fc = fc?;
    let mut convs = Vec::with_capacity(sites.len());
    for unit in sites {
        match unit {
            ConvUnit::Quantized(q) => convs.push((Arc::clone(&q.weights), q.x_scale)),
            _ => return None,
        }
    }
    Some(QuantPlanWeights { convs, fc: (Arc::clone(&fc.weights), fc.x_scale), accum: fc.accum })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::Rng;

    #[test]
    fn spike_sites_snap_to_lossless_scale() {
        let mut rec = CalibRecorder::default();
        let spikes = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4]).unwrap();
        rec.observe(0, &spikes);
        let frames = Tensor::from_vec(vec![0.25, 0.9, -0.1], &[3]).unwrap();
        rec.observe(1, &frames);
        let stats = rec.into_stats(1, 1);
        assert_eq!(stats.scale_for(0), 1.0, "binary spikes quantize losslessly");
        assert!((stats.scale_for(1) - 0.9 / 127.0).abs() < 1e-7);
        assert_eq!(stats.scale_for(9), 1.0, "out-of-range sites default to 1");
    }

    #[test]
    fn quant_conv_roundtrips_weight_grid() {
        let mut rng = Rng::seed_from(1);
        let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let qc = QuantConv::from_dense(&w, (1, 1), (1, 1), 0.5, &QuantConfig::default()).unwrap();
        let deq = qc.dequantized_weight().unwrap();
        assert_eq!(deq.shape(), w.shape());
        // Every dequantized value is on its channel's grid, within half a
        // step of the original.
        for oc in 0..4 {
            let s = qc.weights.scales[oc];
            for i in 0..27 {
                let a = w.data()[oc * 27 + i];
                let b = deq.data()[oc * 27 + i];
                assert!((a - b).abs() <= s * 0.5 + 1e-6);
            }
        }
    }

    #[test]
    fn quant_conv_matches_float_conv_within_quant_error() {
        let mut rng = Rng::seed_from(2);
        let w = Tensor::randn(&[4, 2, 3, 3], &mut rng);
        let x = Tensor::rand_uniform(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        let qc = QuantConv::from_dense(&w, (1, 1), (1, 1), 1.0 / 127.0, &QuantConfig::default())
            .unwrap();
        let got = qc.forward(&x, None).unwrap();
        let g = qc.geometry((6, 6));
        let want = ttsnn_tensor::conv::conv2d(&x, &w, &g).unwrap();
        assert_eq!(got.shape(), want.shape());
        assert!(got.max_abs_diff(&want).unwrap() < 0.2, "quantization error should be small");
    }

    #[test]
    fn quant_linear_matches_oracle() {
        let mut rng = Rng::seed_from(3);
        let w = Tensor::randn(&[5, 8], &mut rng);
        let b = Tensor::randn(&[5], &mut rng);
        let x = Tensor::randn(&[3, 8], &mut rng);
        let ql = QuantLinear::from_dense(&w, &b, 0.05, &QuantConfig::default()).unwrap();
        let y = ql.forward(&x, None).unwrap();
        assert_eq!(y.shape(), &[3, 5]);
        // Against the float layer, error bounded by quantization noise.
        let per_sample = crate::InferStats::PerSample;
        let (yf, _) =
            crate::model::linear_tensor_mode(&x, &w, &b, 1, per_sample, SparseMode::Off).unwrap();
        assert!(y.max_abs_diff(&yf).unwrap() < 0.5);
    }

    #[test]
    fn non_finite_weights_fail_quantization_clearly() {
        let w = Tensor::from_vec(vec![f32::NAN; 36], &[2, 2, 3, 3]).unwrap();
        let err = QuantConv::from_dense(&w, (1, 1), (1, 1), 1.0, &QuantConfig::default())
            .unwrap_err()
            .to_string();
        assert!(err.contains("non-finite"), "unclear error: {err}");
    }
}
