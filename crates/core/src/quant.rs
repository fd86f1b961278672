//! Symmetric 8-bit weight quantization.
//!
//! The proposed accelerator (Table I) computes with **8-bit multipliers and
//! 16-bit accumulators**, so deploying a trained TT-SNN on it implies
//! quantizing the merged weights to int8. The paper treats quantization as
//! an orthogonal efficiency technique (§I cites Q-SpiNN and MINT); this
//! module provides the standard machinery:
//!
//! * [`quantize_int8`] / [`Quantized::dequantize`] — symmetric **per-tensor**
//!   int8 quantization with a power-free scale;
//! * [`quantize_int8_per_channel`] / [`QuantizedPerChannel`] — symmetric
//!   **per-output-channel** quantization (one scale per axis-0 slice), the
//!   granularity quantized serving plans use by default: a narrow channel
//!   no longer pays for the widest channel's range;
//! * [`fake_quant_int8`] — a straight-through-estimator autograd op for
//!   quantization-aware fine-tuning of the TT cores. The int8 execution
//!   plane (`ttsnn_tensor::qkernels`, `ttsnn_infer` quantized plans) runs
//!   on exactly the grid this op simulates.
//!
//! Non-finite weights are rejected with a [`QuantError`]: a NaN or ±∞
//! would otherwise poison the max-abs scale and silently quantize the
//! whole tensor to garbage.

use ttsnn_autograd::Var;
use ttsnn_tensor::qkernels::quantize_to_i8;
use ttsnn_tensor::{ShapeError, Tensor};

/// Why a tensor could not be quantized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// The tensor contains a NaN or infinite value (first offending flat
    /// index reported) — quantizing it would produce a garbage scale.
    NonFinite(usize),
    /// The tensor's shape does not support the requested granularity
    /// (e.g. per-channel quantization of a 0-dimensional tensor).
    BadShape(String),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NonFinite(i) => {
                write!(f, "cannot quantize: non-finite weight at flat index {i}")
            }
            QuantError::BadShape(msg) => write!(f, "cannot quantize: {msg}"),
        }
    }
}

impl std::error::Error for QuantError {}

fn check_finite(t: &Tensor) -> Result<(), QuantError> {
    match t.data().iter().position(|v| !v.is_finite()) {
        Some(i) => Err(QuantError::NonFinite(i)),
        None => Ok(()),
    }
}

/// Scale for one symmetric int8 group: `max|x| / 127`, and 1 for all-zero
/// groups (or a max-abs so small the quotient underflows to zero) so
/// dequantization stays exact.
fn group_scale(xs: &[f32]) -> f32 {
    let scale = xs.iter().fold(0.0f32, |m, &v| m.max(v.abs())) / 127.0;
    if scale > 0.0 {
        scale
    } else {
        1.0
    }
}

/// A tensor quantized to symmetric int8: `value ≈ scale × q`.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Quantized values in `[-127, 127]`.
    pub values: Vec<i8>,
    /// Dequantization scale.
    pub scale: f32,
    /// Original shape.
    pub shape: Vec<usize>,
}

impl Quantized {
    /// Reconstructs the floating-point tensor `scale × q`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the stored shape is inconsistent with the
    /// value count (cannot happen through [`quantize_int8`]).
    pub fn dequantize(&self) -> Result<Tensor, ShapeError> {
        Tensor::from_vec(self.values.iter().map(|&q| q as f32 * self.scale).collect(), &self.shape)
    }

    /// Storage size in bytes (one byte per weight plus the scale).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() + std::mem::size_of::<f32>()
    }
}

/// A tensor quantized to symmetric int8 with **one scale per axis-0
/// slice** (per output channel for OIHW kernels and `(O, F)` linear
/// weights): `value[c, ...] ≈ scales[c] × q[c, ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedPerChannel {
    /// Quantized values in `[-127, 127]`, original layout.
    pub values: Vec<i8>,
    /// One dequantization scale per axis-0 slice.
    pub scales: Vec<f32>,
    /// Original shape.
    pub shape: Vec<usize>,
}

impl QuantizedPerChannel {
    /// Reconstructs the floating-point tensor `scales[c] × q[c, ...]`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the stored shape is inconsistent with the
    /// value count (cannot happen through [`quantize_int8_per_channel`]).
    pub fn dequantize(&self) -> Result<Tensor, ShapeError> {
        let chunk = if self.scales.is_empty() { 0 } else { self.values.len() / self.scales.len() };
        let data = self
            .values
            .iter()
            .enumerate()
            .map(|(i, &q)| q as f32 * self.scales[i / chunk.max(1)])
            .collect();
        Tensor::from_vec(data, &self.shape)
    }

    /// Storage size in bytes (one byte per weight plus one `f32` scale per
    /// channel).
    pub fn storage_bytes(&self) -> usize {
        self.values.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Number of axis-0 channels.
    pub fn channels(&self) -> usize {
        self.scales.len()
    }
}

/// Quantizes a tensor to symmetric int8 with one scale `max|x| / 127`, on
/// the grid of `ttsnn_tensor::qkernels::quantize_to_i8`.
///
/// All-zero tensors quantize to all-zero values with scale 1.
///
/// # Errors
///
/// Returns [`QuantError::NonFinite`] if the tensor holds a NaN or ±∞ —
/// such a value would poison the scale and silently corrupt every other
/// weight in the tensor.
pub fn quantize_int8(t: &Tensor) -> Result<Quantized, QuantError> {
    check_finite(t)?;
    let scale = group_scale(t.data());
    let mut values = vec![0; t.len()];
    quantize_to_i8(t.data(), scale, &mut values);
    Ok(Quantized { values, scale, shape: t.shape().to_vec() })
}

/// Quantizes a tensor to symmetric int8 with **one scale per axis-0
/// slice** (`scales[c] = max|x[c, ...]| / 127`; all-zero channels get
/// scale 1).
///
/// Per-channel scales are never larger than the per-tensor scale (each
/// channel's max-abs is at most the global max-abs), so the per-element
/// round-trip error bound `scale / 2` only tightens — the monotonicity
/// property `crates/core/tests/prop.rs` pins.
///
/// # Errors
///
/// Returns [`QuantError::NonFinite`] for NaN/±∞ weights, or
/// [`QuantError::BadShape`] for a 0-dimensional or empty-axis-0 tensor.
pub fn quantize_int8_per_channel(t: &Tensor) -> Result<QuantizedPerChannel, QuantError> {
    if t.ndim() == 0 || t.shape()[0] == 0 {
        return Err(QuantError::BadShape(format!(
            "per-channel quantization needs a non-empty axis 0, got shape {:?}",
            t.shape()
        )));
    }
    check_finite(t)?;
    let channels = t.shape()[0];
    let chunk = t.len() / channels;
    let mut values = vec![0; t.len()];
    let mut scales = Vec::with_capacity(channels);
    for (slice, q) in t.data().chunks(chunk).zip(values.chunks_mut(chunk)) {
        let scale = group_scale(slice);
        scales.push(scale);
        quantize_to_i8(slice, scale, q);
    }
    Ok(QuantizedPerChannel { values, scales, shape: t.shape().to_vec() })
}

/// Straight-through fake quantization: forward emits
/// `dequantize(quantize_int8(x))`, backward passes the gradient through
/// unchanged — the standard estimator for quantization-aware training.
///
/// # Panics
///
/// Panics if the weights contain non-finite values (see
/// [`QuantError::NonFinite`]) — QAT on NaN weights is already divergent,
/// and continuing would silently train against a garbage grid.
pub fn fake_quant_int8(x: &Var) -> Var {
    let q = quantize_int8(&x.value()).expect("fake_quant_int8: non-finite weights");
    let value = q.dequantize().expect("quantize preserves shape");
    Var::custom(value, vec![x.clone()], Box::new(|g, parents| parents[0].add_grad(g)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::Rng;

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let mut rng = Rng::seed_from(1);
        let t = Tensor::randn(&[4, 4], &mut rng).scale(3.0);
        let q = quantize_int8(&t).unwrap();
        let back = q.dequantize().unwrap();
        let max_err = t.max_abs_diff(&back).unwrap();
        assert!(max_err <= q.scale * 0.5 + 1e-6, "err {max_err} vs half-step {}", q.scale / 2.0);
    }

    #[test]
    fn extreme_values_map_to_127() {
        let t = Tensor::from_vec(vec![-2.0, 0.0, 2.0], &[3]).unwrap();
        let q = quantize_int8(&t).unwrap();
        assert_eq!(q.values, vec![-127, 0, 127]);
        assert!((q.scale - 2.0 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn zero_tensor_is_stable() {
        let q = quantize_int8(&Tensor::zeros(&[5])).unwrap();
        assert!(q.values.iter().all(|&v| v == 0));
        assert_eq!(q.dequantize().unwrap(), Tensor::zeros(&[5]));
    }

    #[test]
    fn non_finite_weights_are_rejected_with_index() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let t = Tensor::from_vec(vec![1.0, bad, 2.0], &[3]).unwrap();
            assert_eq!(quantize_int8(&t).unwrap_err(), QuantError::NonFinite(1));
            assert_eq!(quantize_int8_per_channel(&t).unwrap_err(), QuantError::NonFinite(1));
        }
        let msg = quantize_int8(&Tensor::from_vec(vec![f32::NAN], &[1]).unwrap())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("non-finite"), "unclear error: {msg}");
    }

    #[test]
    fn per_channel_uses_one_scale_per_output_channel() {
        // Channel 0 spans ±1, channel 1 spans ±100: per-tensor must spend
        // its grid on the big channel, per-channel must not.
        let t = Tensor::from_vec(vec![1.0, -0.5, 100.0, -25.0], &[2, 2]).unwrap();
        let pc = quantize_int8_per_channel(&t).unwrap();
        assert_eq!(pc.channels(), 2);
        assert!((pc.scales[0] - 1.0 / 127.0).abs() < 1e-9);
        assert!((pc.scales[1] - 100.0 / 127.0).abs() < 1e-6);
        assert_eq!(pc.values, vec![127, -64, 127, -32]);
        let back = pc.dequantize().unwrap();
        // Small channel reconstructed at fine granularity.
        assert!((back.at(&[0, 1]) - -0.5).abs() <= pc.scales[0] * 0.5 + 1e-6);
        // Per-tensor would have err up to 100/254 ≈ 0.39 on that element.
        let pt = quantize_int8(&t).unwrap();
        let pt_err = (pt.dequantize().unwrap().at(&[0, 1]) - -0.5).abs();
        assert!((back.at(&[0, 1]) - -0.5).abs() < pt_err);
    }

    #[test]
    fn per_channel_scales_never_exceed_per_tensor_scale() {
        let mut rng = Rng::seed_from(5);
        let t = Tensor::randn(&[6, 3, 3, 3], &mut rng);
        let pt = quantize_int8(&t).unwrap();
        let pc = quantize_int8_per_channel(&t).unwrap();
        for (c, &s) in pc.scales.iter().enumerate() {
            assert!(s <= pt.scale + 1e-12, "channel {c}: {s} > per-tensor {}", pt.scale);
        }
    }

    #[test]
    fn per_channel_rejects_scalar() {
        let t = Tensor::from_vec(vec![1.0], &[]).unwrap_or_else(|_| Tensor::zeros(&[1]));
        // 0-d tensors may not construct; exercise the shape guard by rank.
        if t.ndim() == 0 {
            assert!(matches!(quantize_int8_per_channel(&t).unwrap_err(), QuantError::BadShape(_)));
        }
    }

    #[test]
    fn storage_is_4x_smaller_than_f32() {
        let mut rng = Rng::seed_from(2);
        let t = Tensor::randn(&[64, 64, 3, 3], &mut rng);
        let q = quantize_int8(&t).unwrap();
        let f32_bytes = t.len() * 4;
        assert!(q.storage_bytes() * 3 < f32_bytes, "int8 must be ~4x smaller");
        let pc = quantize_int8_per_channel(&t).unwrap();
        assert!(pc.storage_bytes() * 3 < f32_bytes, "per-channel int8 must stay ~4x smaller");
    }

    #[test]
    fn fake_quant_forward_quantizes_backward_passes_through() {
        let mut rng = Rng::seed_from(3);
        let x = Var::param(Tensor::randn(&[6], &mut rng));
        let y = fake_quant_int8(&x);
        // forward: values land on the int8 grid
        let q = quantize_int8(&x.value()).unwrap();
        assert!(y.to_tensor().max_abs_diff(&q.dequantize().unwrap()).unwrap() < 1e-7);
        // backward: straight-through
        y.sum_to_scalar().backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn quantized_tt_cores_still_merge_close() {
        use crate::merge::merge_ptt;
        use crate::ttsvd::TtCores;
        let mut rng = Rng::seed_from(4);
        let cores = TtCores::randn(8, 8, 4, &mut rng);
        let mut quantized = cores.clone();
        quantized.w1 = quantize_int8(&cores.w1).unwrap().dequantize().unwrap();
        quantized.w2 = quantize_int8(&cores.w2).unwrap().dequantize().unwrap();
        quantized.w3 = quantize_int8(&cores.w3).unwrap().dequantize().unwrap();
        quantized.w4 = quantize_int8(&cores.w4).unwrap().dequantize().unwrap();
        let a = merge_ptt(&cores).unwrap();
        let b = merge_ptt(&quantized).unwrap();
        let rel = a.sub(&b).unwrap().norm() / a.norm();
        assert!(rel < 0.05, "int8 cores should merge within 5%: {rel}");
    }
}
