//! Integer kernels for the **quantized inference plane**: i8×i8→i32
//! GEMM / conv / linear with requantization, on the same persistent worker
//! pool — and the same kernel bodies — as the float kernels.
//!
//! The paper's target accelerator (Table I) computes with **8-bit
//! multipliers and 16-bit accumulators**; this module is the CPU
//! realization of that arithmetic, as two `Mac`s (see `runtime/gemm.rs`)
//! that the shared drivers are instantiated at:
//!
//! * [`QAccum::I32`] — exact 32-bit accumulation (the mode quantized
//!   serving plans use by default).
//! * [`QAccum::Saturate16`] — **accelerator-faithful** saturating 16-bit
//!   accumulation: after every multiply-add the running sum is clamped to
//!   the `i16` range, exactly what a 16-bit accumulator register does.
//!   Lossy on layers whose dot products overflow ±32767.
//!
//! Integer arithmetic has no rounding, and every output element is produced
//! by exactly one task in ascending-`k` order — results are **bit-identical
//! across thread counts** by construction, in both modes. An accumulator
//! mode only ever picks the `Mac`; no loop here is written per mode.
//!
//! # Lanes
//!
//! The inner loops — the GEMM tile, the dot, quantization, the int8
//! unfolding, the requantizing epilogue and the event scatter — run on the
//! lane set the process resolved once from its CPU
//! ([`runtime::lanes`]: explicit AVX2 kernels where the CPU has AVX2,
//! the portable bodies elsewhere). Each hook asks for the set on the thread
//! it runs on (`Lanes::current`), and a parallel region hands its caller's
//! pinned set to its pool workers, so a kernel's workers run the set it was
//! called with. The sets are bit-identical: `I32` sums are
//! exact whatever their grouping, and `Sat16` keeps every element's
//! ascending-`k` saturating fold in `i16` lanes across output columns
//! (`crates/tensor/tests/lanes.rs` checks every kernel under both sets
//! against `reference_qgemm`).
//!
//! # Dataflow
//!
//! Weights are quantized offline (per output channel or per tensor, see
//! `ttsnn_core::quant`); activations are quantized on the fly with a
//! **static scale** measured by a calibration pass. [`qconv2d`] and
//! [`qlinear`] take the float activations, quantize them into per-thread
//! integer scratch, run the integer kernel, and dequantize the `i32`
//! accumulators back to `f32` with the per-output-channel combined scale
//! `x_scale · w_scale[oc]` — one float multiply per output element, after
//! all accumulation happened exactly.

use crate::conv::{check_input, per_sample, Conv2dGeometry};
use crate::error::ShapeError;
use crate::runtime::{self, dot_gemm, dot_row, saxpy_gemm, with_scratch, Lanes, Mac, Runtime};
use crate::spike::Taps;
use crate::tensor::Tensor;

/// Accumulator width of the integer kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QAccum {
    /// Exact 32-bit accumulation (default for serving plans).
    #[default]
    I32,
    /// Saturating 16-bit accumulation after every multiply-add — faithful
    /// to the accelerator's 16-bit accumulator registers (Table I).
    Saturate16,
}

impl QAccum {
    /// Short name for reports (`"i32"` / `"sat16"`).
    pub fn name(&self) -> &'static str {
        match self {
            QAccum::I32 => "i32",
            QAccum::Saturate16 => "sat16",
        }
    }
}

/// Quantizes `src` onto the symmetric int8 grid of `scale`:
/// `q = clamp(round(src / scale), -127, 127)`, half away from zero. The
/// weight quantizers of `ttsnn_core::quant` are this call, so the integer
/// plane executes exactly the grid that fake-quant training simulated.
///
/// NaN maps to 0 and ±∞ to ±127; callers that must not silently swallow
/// them (the serving engine, `ttsnn_core::quant`) reject them before
/// quantizing.
///
/// # Panics
///
/// Panics if `dst` is shorter than `src` or `scale` is not a positive
/// finite number.
pub fn quantize_to_i8(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert!(scale.is_finite() && scale > 0.0, "quantize_to_i8: bad scale {scale}");
    assert!(dst.len() >= src.len(), "quantize_to_i8: dst too short");
    Lanes::current().quantize(src, scale, dst);
}

// ---------------------------------------------------------------------------
// The integer `Mac`s.

/// [`Mac::COST`] of both integer types — what one integer multiply-add costs
/// in the f32 operations `runtime::fork_grain` counts in, and through the
/// drivers the grain of every int8 kernel (GEMM tile, dot rows, `qconv2d`'s
/// batch split, the dense and the sparse linear). On the avx2 lanes
/// (`runtime::lanes`) they run at ≈ 31–33 Gop/s on one thread against
/// the float GEMM's ≈ 30–37 GFLOP/s on the same lanes (≈ 19–20 on the
/// portable ones; the shapes of the `tensor.qconv_gops` and
/// `tensor.gemm_gflops` probes on one kernel thread, 2-vCPU host): an
/// integer operation costs about the wall time of a float one, and one is
/// the least a cost can be. The portable lanes run at ≈ 6 Gop/s, so there
/// the int8 kernels fork later than their cost would ask — a grain moves no
/// bit.
const OP_COST: usize = 1;

/// i8 elements accumulated in an `i32` slot: exactly (`I32`), or clamped to
/// the `i16` range after every multiply-add (`Sat16`). Both skip zero
/// coefficients — neither an exact sum nor a saturating fold
/// (`saturating_add(acc, 0)` is `acc`) notices a zero term while the others
/// keep their ascending-`k` order, which every driver guarantees. In `qconv2d`
/// the coefficients are the *weights*, and a merged PTT / HTT kernel is a cross
/// (Eq. 6: a 3×1 plus a 1×3 branch): 4 of every 9 taps are exactly zero.
pub(crate) struct Int<const SAT16: bool>;
pub(crate) type I32 = Int<false>;

/// The integer epilogue: `out = acc · x_scale · w_scale[oc] (+ bias[oc])`,
/// after all accumulation happened in integers. Holding one means the scales
/// passed the checks every int8 kernel makes.
#[derive(Clone, Copy)]
pub(crate) struct Requant<'a> {
    x_scale: f32,
    w_scales: &'a [f32],
    bias: Option<&'a [f32]>,
}

impl<'a> Requant<'a> {
    /// A positive finite activation scale, `out_channels` positive finite
    /// weight scales (or one per tensor) and, if any, as many bias entries.
    pub(crate) fn new(
        who: &str,
        x_scale: f32,
        w_scales: &'a [f32],
        bias: Option<&'a [f32]>,
        out_channels: usize,
    ) -> Result<Self, ShapeError> {
        if let Some(bias) = bias.filter(|b| b.len() != out_channels) {
            return Err(ShapeError::new(format!(
                "{who}: bias has {} entries, weight implies {out_channels} outputs",
                bias.len()
            )));
        }
        if (w_scales.len() != out_channels && w_scales.len() != 1)
            || w_scales.iter().any(|s| !s.is_finite() || *s <= 0.0)
        {
            return Err(ShapeError::new(format!(
                "{who}: expected {out_channels} per-channel weight scales (or 1 per-tensor \
                 scale), all positive and finite, got {} of them",
                w_scales.len()
            )));
        }
        if !x_scale.is_finite() || x_scale <= 0.0 {
            return Err(ShapeError::new(format!(
                "{who}: activation scale must be positive and finite, got {x_scale}"
            )));
        }
        Ok(Self { x_scale, w_scales, bias })
    }

    /// Output channel `oc`'s combined scale `x_scale · w_scale[oc]`.
    #[inline]
    pub(crate) fn scale(&self, oc: usize) -> f32 {
        self.x_scale * if self.w_scales.len() == 1 { self.w_scales[0] } else { self.w_scales[oc] }
    }

    /// Output channel `oc`'s bias, if the layer has one.
    #[inline]
    pub(crate) fn bias(&self, oc: usize) -> Option<f32> {
        self.bias.map(|b| b[oc])
    }
}

impl<const SAT16: bool> Mac for Int<SAT16> {
    type Elem = i8;
    type Acc = i32;
    type Epilogue<'a> = Requant<'a>;

    const ZERO: i32 = 0;
    const COST: usize = OP_COST;

    #[inline(always)]
    fn skips(a: i8) -> bool {
        a == 0
    }

    #[inline(always)]
    fn mac(acc: i32, a: i8, b: i8) -> i32 {
        if SAT16 {
            (acc as i16).saturating_add(a as i16 * b as i16) as i32
        } else {
            acc + a as i32 * b as i32
        }
    }

    #[inline(always)]
    fn add_term(acc: i32, term: i32) -> i32 {
        if SAT16 {
            (acc as i16).saturating_add(term as i16) as i32
        } else {
            acc + term
        }
    }

    fn dot(x: &[i8], y: &[i8]) -> i32 {
        Lanes::current().dot::<SAT16>(x, y)
    }

    fn spike(ep: Requant<'_>) -> i8 {
        spike_code(ep.x_scale)
    }

    fn finish(out: &mut [f32], acc: impl Iterator<Item = i32>, oc: usize, ep: Requant<'_>) {
        let (s, bias) = (ep.scale(oc), ep.bias(oc));
        for (o, a) in out.iter_mut().zip(acc) {
            *o = match bias {
                Some(bias) => a as f32 * s + bias,
                None => a as f32 * s,
            };
        }
    }

    fn tile(a: &[i8], a_strides: (usize, usize), b: &[i8], rows: &mut [i32], k: usize, n: usize) {
        Lanes::current().qgemm_rows::<SAT16>(a, a_strides, b, rows, (k, n));
    }

    fn scatter(taps: Taps<'_>, wt: &[i32], out_s: &mut [f32], o: usize, ep: Requant<'_>) {
        Lanes::current().scatter::<SAT16>(taps, wt, out_s, o, ep);
    }
}

/// The int8 value a spike quantizes to at activation scale `x_scale`:
/// `clamp(round(1/x_scale), ±127)`. With the calibration convention for
/// binary sites (`x_scale = 1`), this is exactly `1`.
pub(crate) fn spike_code(x_scale: f32) -> i8 {
    (1.0f32 / x_scale).round().clamp(-127.0, 127.0) as i8
}

/// Evaluates `$body` with `$E` naming the [`Mac`] of `$accum` — the only
/// thing an int8 kernel ever selects.
macro_rules! by_accum {
    ($accum:expr, $E:ident => $body:expr) => {{
        match $accum {
            QAccum::I32 => {
                type $E = Int<false>;
                $body
            }
            QAccum::Saturate16 => {
                type $E = Int<true>;
                $body
            }
        }
    }};
}
pub(crate) use by_accum;

// ---------------------------------------------------------------------------
// Integer GEMM family.

/// Naive triple loop, the oracle for the property tests. Overwrites
/// `out`. Honors the accumulator mode exactly like the fast kernels.
pub fn reference_qgemm(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    accum: QAccum,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = match accum {
                QAccum::I32 => {
                    let mut acc = 0i32;
                    for kk in 0..k {
                        acc += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                    }
                    acc
                }
                QAccum::Saturate16 => {
                    let mut acc = 0i16;
                    for kk in 0..k {
                        acc = acc.saturating_add(a[i * k + kk] as i16 * b[kk * n + j] as i16);
                    }
                    acc as i32
                }
            };
        }
    }
}

/// `out = A·B` with `A (m,k)` i8, `B (k,n)` i8, `out (m,n)` i32, all
/// row-major — `runtime::gemm`'s tile at an integer `Mac`, parallelized
/// over disjoint output row ranges.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)] // kernel signature: dims + accumulator mode
pub fn qgemm(
    rt: &Runtime,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    accum: QAccum,
) {
    by_accum!(accum, E => saxpy_gemm::<E>("qgemm", rt, a, (k, 1), b, out, (m, k, n)));
}

/// `out = A·Bᵀ` with `A (m,k)` i8, `B (n,k)` i8, `out (m,n)` i32 — the
/// integer dot-product kernel behind quantized linear layers (`y = x·Wᵀ`
/// with `W` stored `(O, F)`).
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)] // kernel signature: dims + accumulator mode
pub fn qgemm_a_bt(
    rt: &Runtime,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    accum: QAccum,
) {
    by_accum!(accum, E => dot_gemm::<E>("qgemm_a_bt", rt, a, b, out, (m, k, n)));
}

// ---------------------------------------------------------------------------
// Quantized layer kernels.

/// The int8 weight check of the conv family: `qw` is `(O, C·Kh·Kw)`.
pub(crate) fn check_qweight(qw: &[i8], g: &Conv2dGeometry) -> Result<(), ShapeError> {
    if qw.len() != g.params() {
        return Err(ShapeError::new(format!(
            "qconv2d: quantized weight has {} values, geometry wants {}",
            qw.len(),
            g.params()
        )));
    }
    Ok(())
}

/// Quantized 2-D convolution: quantize the input activations with the
/// static `x_scale`, unfold (im2col) in int8, run the i8×i8 GEMM, and
/// dequantize the integer accumulators with `x_scale · w_scales[oc]`.
///
/// * `x` — float activations `(B, C, H, W)`;
/// * `qw` — int8 kernel, `(O, C·Kh·Kw)` row-major (the natural flattening
///   of an OIHW kernel);
/// * `w_scales` — one scale per output channel, or a single per-tensor
///   scale.
///
/// Output is `(B, O, Oh, Ow)` float. Samples are independent and every
/// output element is dequantized by one float multiply from an exactly
/// accumulated integer, so results are bit-identical across thread
/// counts *and* batch compositions (the serving plane's `PerSample`
/// contract holds with no batch/per-sample mode split).
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes, scales, or geometry disagree.
pub fn qconv2d(
    x: &Tensor,
    x_scale: f32,
    qw: &[i8],
    w_scales: &[f32],
    g: &Conv2dGeometry,
    accum: QAccum,
) -> Result<Tensor, ShapeError> {
    let (b, oh, ow) = check_input(x.shape(), g)?;
    check_qweight(qw, g)?;
    let ep = Requant::new("qconv2d", x_scale, w_scales, None, g.out_channels)?;
    let (k, ospatial, in_slab) = (g.patch_len(), oh * ow, g.in_slab());
    let (o, out_slab) = (g.out_channels, g.out_channels * ospatial);
    let mut out = Tensor::scratch(&[b, o, oh, ow]);
    let xd = x.data();
    by_accum!(accum, E => {
        // Per group of samples: quantize → int8 im2col into the group's panel
        // → the integer tile → epilogue, sample by sample out of the panel.
        let lanes = Lanes::current();
        let group = |rt: &Runtime, s0: usize, out_g: &mut [f32]| {
            let n = out_g.len() / out_slab;
            let (x_g, width) = (&xd[s0 * in_slab..(s0 + n) * in_slab], n * ospatial);
            with_scratch(in_slab, |qx| {
                with_scratch(k * width, |qcols| {
                    for (i, xs) in x_g.chunks_exact(in_slab).enumerate() {
                        lanes.quantize(xs, x_scale, qx);
                        lanes.unfold(qx, g, &mut qcols[i * ospatial..], width);
                    }
                    with_scratch(o * width, |acc: &mut [i32]| {
                        saxpy_gemm::<E>("qgemm", rt, qw, (k, 1), qcols, acc, (o, k, width));
                        for (i, out_s) in out_g.chunks_exact_mut(out_slab).enumerate() {
                            for (oc, orow) in out_s.chunks_exact_mut(ospatial).enumerate() {
                                let arow = &acc[oc * width + i * ospatial..][..ospatial];
                                lanes.requant_row(orow, arow, oc, ep);
                            }
                        }
                    });
                });
            });
        };
        let ops = OP_COST * 2 * g.macs();
        per_sample("qconv2d", out.data_mut(), out_slab, ops, Some(ospatial), group);
    });
    Ok(out)
}

/// The row driver of the linear kernels ([`qlinear`],
/// [`crate::spike::sparse_linear`], [`crate::spike::sparse_qlinear`]): opens
/// the `name` region and has `row(s, acc)` fill the accumulators of every row
/// `s` of `y`, written through `ep`. Each row is produced by one task, so the
/// output is invariant to batch composition and thread count; rows fork at
/// `E::COST · 2 · macs_per_row` operations each, `macs_per_row` being what a
/// row really multiplies: features × outputs dense, its events × outputs sparse.
pub(crate) fn linear_rows<E: Mac>(
    name: &'static str,
    y: &mut Tensor,
    macs_per_row: usize,
    ep: E::Epilogue<'_>,
    row: impl Fn(usize, &mut [E::Acc]) + Sync,
) {
    let _region = ttsnn_obs::region(name);
    let out_features = y.shape()[1];
    let min_rows = runtime::fork_grain(E::COST * 2 * macs_per_row);
    Runtime::current().parallel_over_slabs(y.data_mut(), out_features, min_rows, |s, yrow| {
        with_scratch(out_features, |acc: &mut [E::Acc]| {
            row(s, acc);
            for (oc, (y, &a)) in yrow.iter_mut().zip(acc.iter()).enumerate() {
                E::finish(std::slice::from_mut(y), std::iter::once(a), oc, ep);
            }
        });
    });
}

/// The checks of the int8 linear family: `(B, F)` input shape against an
/// `(O, F)` weight of `qw_len` values, bias and scales. Returns
/// `(B, F, O)` and the epilogue.
pub(crate) fn check_qlinear<'a>(
    who: &str,
    shape: &[usize],
    x_scale: f32,
    qw_len: usize,
    w_scales: &'a [f32],
    bias: &'a [f32],
) -> Result<((usize, usize, usize), Requant<'a>), ShapeError> {
    if shape.len() != 2 {
        return Err(ShapeError::new(format!("{who}: expected (B, F) input, got {shape:?}")));
    }
    let (b, feat) = (shape[0], shape[1]);
    if feat == 0 || !qw_len.is_multiple_of(feat) {
        return Err(ShapeError::new(format!(
            "{who}: weight length {qw_len} is not a multiple of feature dim {feat}"
        )));
    }
    let out_ch = qw_len / feat;
    Ok(((b, feat, out_ch), Requant::new(who, x_scale, w_scales, Some(bias), out_ch)?))
}

/// Quantized fully connected layer `y = dequant(q(x) · qWᵀ) + bias` with
/// `x (B, F)` float, `qw (O, F)` int8, `bias (O)` float.
///
/// Rows are processed independently (each through the same kernel a
/// batch-of-1 call would use) and integer accumulation is exact, so the
/// output is invariant to batch composition — the quantized plane needs
/// no `Batch`/`PerSample` split.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes or scales disagree.
pub fn qlinear(
    x: &Tensor,
    x_scale: f32,
    qw: &[i8],
    w_scales: &[f32],
    bias: &[f32],
    accum: QAccum,
) -> Result<Tensor, ShapeError> {
    let ((b, feat, out_ch), ep) =
        check_qlinear("qlinear", x.shape(), x_scale, qw.len(), w_scales, bias)?;
    let mut y = Tensor::scratch(&[b, out_ch]);
    let xd = x.data();
    // Per row: quantize → one dot per output.
    by_accum!(accum, E => linear_rows::<E>("qlinear", &mut y, feat * out_ch, ep, |s, acc| {
        with_scratch(feat, |qx| {
            Lanes::current().quantize(&xd[s * feat..(s + 1) * feat], x_scale, qx);
            dot_row::<E>(qx, qw, acc);
        });
    }));
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn rand_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
        (0..len).map(|_| (rng.below(255) as i32 - 127) as i8).collect()
    }

    #[test]
    fn qgemm_matches_reference_across_shapes_threads_and_modes() {
        let mut rng = Rng::seed_from(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (4, 7, 9), (17, 3, 17), (33, 64, 12)] {
            let a = rand_i8(m * k, &mut rng);
            let b = rand_i8(k * n, &mut rng);
            for accum in [QAccum::I32, QAccum::Saturate16] {
                let mut want = vec![0i32; m * n];
                reference_qgemm(&a, &b, &mut want, m, k, n, accum);
                for threads in [1usize, 2, 4] {
                    let rt = Runtime::new(threads);
                    let mut got = vec![i32::MIN; m * n];
                    qgemm(&rt, &a, &b, &mut got, m, k, n, accum);
                    assert_eq!(got, want, "({m},{k},{n}) threads={threads} {accum:?}");
                }
            }
        }
    }

    #[test]
    fn qgemm_a_bt_matches_transposed_reference() {
        let mut rng = Rng::seed_from(8);
        let (m, k, n) = (5, 11, 7);
        let a = rand_i8(m * k, &mut rng);
        let bt = rand_i8(n * k, &mut rng); // stored (n, k)
                                           // Build B (k, n) explicitly for the reference.
        let mut b = vec![0i8; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        for accum in [QAccum::I32, QAccum::Saturate16] {
            let mut want = vec![0i32; m * n];
            reference_qgemm(&a, &b, &mut want, m, k, n, accum);
            let mut got = vec![0i32; m * n];
            qgemm_a_bt(&Runtime::new(2), &a, &bt, &mut got, m, k, n, accum);
            assert_eq!(got, want, "{accum:?}");
        }
    }

    #[test]
    fn saturate16_clamps_where_i32_does_not() {
        // 127 · 127 · 4 = 64516 overflows i16 (32767) but not i32.
        let a = vec![127i8; 4];
        let b = vec![127i8; 4];
        let mut exact = vec![0i32; 1];
        qgemm(&Runtime::new(1), &a, &b, &mut exact, 1, 4, 1, QAccum::I32);
        assert_eq!(exact[0], 64516);
        let mut sat = vec![0i32; 1];
        qgemm(&Runtime::new(1), &a, &b, &mut sat, 1, 4, 1, QAccum::Saturate16);
        assert_eq!(sat[0], i16::MAX as i32);
    }

    #[test]
    fn quantize_to_i8_matches_grid() {
        let src = [0.0f32, 1.0, -1.0, 0.4, 1e9];
        let mut dst = [0i8; 5];
        quantize_to_i8(&src, 1.0 / 127.0, &mut dst);
        assert_eq!(dst, [0, 127, -127, 51, 127]);
    }

    #[test]
    fn qconv2d_matches_naive_quantized_conv() {
        let mut rng = Rng::seed_from(9);
        let g = Conv2dGeometry::new(3, 4, (6, 5), (3, 3), (1, 1), (1, 1));
        let k = 3 * 3 * 3;
        let x = Tensor::randn(&[2, 3, 6, 5], &mut rng);
        let qw = rand_i8(4 * k, &mut rng);
        let w_scales = [0.02f32, 0.03, 0.01, 0.04];
        let x_scale = 0.05f32;
        let got = qconv2d(&x, x_scale, &qw, &w_scales, &g, QAccum::I32).unwrap();
        // Naive oracle: quantize, direct integer convolution, dequantize.
        let (oh, ow) = g.out_hw();
        for s in 0..2 {
            for o in 0..4 {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0i32;
                        for c in 0..3 {
                            for ki in 0..3 {
                                for kj in 0..3 {
                                    let ii = (oi + ki) as isize - 1;
                                    let jj = (oj + kj) as isize - 1;
                                    if ii < 0 || jj < 0 || ii >= 6 || jj >= 5 {
                                        continue;
                                    }
                                    let xv = x.at(&[s, c, ii as usize, jj as usize]);
                                    let qx =
                                        (xv / x_scale).round().clamp(-127.0, 127.0) as i8 as i32;
                                    let wv = qw[o * k + (c * 3 + ki) * 3 + kj] as i32;
                                    acc += qx * wv;
                                }
                            }
                        }
                        let want = acc as f32 * (x_scale * w_scales[o]);
                        let gotv = got.at(&[s, o, oi, oj]);
                        assert_eq!(gotv, want, "({s},{o},{oi},{oj})");
                    }
                }
            }
        }
    }

    #[test]
    fn qconv2d_bit_identical_across_threads_and_batch_composition() {
        let mut rng = Rng::seed_from(10);
        let g = Conv2dGeometry::new(2, 3, (8, 8), (3, 3), (1, 1), (1, 1));
        let x = Tensor::randn(&[4, 2, 8, 8], &mut rng);
        let qw = rand_i8(3 * 2 * 9, &mut rng);
        let base =
            Runtime::new(1).install(|| qconv2d(&x, 0.1, &qw, &[0.01], &g, QAccum::I32)).unwrap();
        for threads in [2usize, 4, 8] {
            let out = Runtime::new(threads)
                .install(|| qconv2d(&x, 0.1, &qw, &[0.01], &g, QAccum::I32))
                .unwrap();
            assert_eq!(out, base, "threads={threads}");
        }
        // Batch composition: sample 2 alone equals sample 2 in the batch.
        let solo = Tensor::from_vec(x.data()[2 * 128..3 * 128].to_vec(), &[1, 2, 8, 8]).unwrap();
        let alone = qconv2d(&solo, 0.1, &qw, &[0.01], &g, QAccum::I32).unwrap();
        let slab = base.len() / 4;
        assert_eq!(&base.data()[2 * slab..3 * slab], alone.data());
    }

    #[test]
    fn qlinear_matches_scalar_oracle_and_threads() {
        let mut rng = Rng::seed_from(11);
        let (b, f, o) = (5, 9, 4);
        let x = Tensor::randn(&[b, f], &mut rng);
        let qw = rand_i8(o * f, &mut rng);
        let scales = [0.01f32, 0.02, 0.015, 0.03];
        let bias = [0.5f32, -0.25, 0.0, 1.0];
        let got = qlinear(&x, 0.04, &qw, &scales, &bias, QAccum::I32).unwrap();
        for s in 0..b {
            for oc in 0..o {
                let mut acc = 0i32;
                for j in 0..f {
                    let qx = (x.at(&[s, j]) / 0.04).round().clamp(-127.0, 127.0) as i8 as i32;
                    acc += qx * qw[oc * f + j] as i32;
                }
                let want = acc as f32 * (0.04 * scales[oc]) + bias[oc];
                assert_eq!(got.at(&[s, oc]), want, "({s},{oc})");
            }
        }
        let two = Runtime::new(2)
            .install(|| qlinear(&x, 0.04, &qw, &scales, &bias, QAccum::I32))
            .unwrap();
        assert_eq!(two, got);
    }

    #[test]
    fn rejects_bad_scales_and_shapes() {
        let g = Conv2dGeometry::new(1, 2, (4, 4), (3, 3), (1, 1), (1, 1));
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let qw = vec![0i8; 2 * 9];
        assert!(qconv2d(&x, 0.0, &qw, &[1.0], &g, QAccum::I32).is_err());
        assert!(qconv2d(&x, 0.1, &qw, &[1.0, f32::NAN], &g, QAccum::I32).is_err());
        assert!(qconv2d(&x, 0.1, &qw[..17], &[1.0], &g, QAccum::I32).is_err());
        assert!(qconv2d(&x, 0.1, &qw, &[1.0, 1.0, 1.0], &g, QAccum::I32).is_err());
        let xf = Tensor::zeros(&[2, 3]);
        assert!(qlinear(&xf, 0.1, &[0i8; 7], &[1.0], &[0.0], QAccum::I32).is_err());
        assert!(qlinear(&xf, 0.1, &[0i8; 6], &[1.0], &[0.0, 0.0], QAccum::I32).is_ok());
        assert!(qlinear(&xf, 0.1, &[0i8; 6], &[1.0], &[0.0], QAccum::I32).is_err());
    }
}
