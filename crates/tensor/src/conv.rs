//! 2-D convolution kernels (forward, input gradient, weight gradient) via
//! im2col / col2im, batch-parallel through [`crate::runtime`].
//!
//! All functions operate on NCHW activations `(B, C, H, W)` and OIHW weights
//! `(O, I, Kh, Kw)`. Asymmetric kernels (3×1, 1×3, 1×1) — the shapes the TT
//! cores of the paper use — are fully supported; padding is specified per
//! axis so that, e.g., a 3×1 core pads only vertically.
//!
//! Every kernel here is a closure over a group of consecutive samples handed
//! to `per_sample`, the batch driver the int8 convolution
//! ([`crate::qkernels::qconv2d`]) shares: it opens the kernel's trace region,
//! sizes the groups and decides the fork. A group is one GEMM **panel**: its
//! samples' im2col columns side by side (`(C·Kh·Kw, n·Oh·Ow)`), one product,
//! and each sample's block of the result scattered back (or folded, for the
//! input gradient). A sample whose output plane is wide (≥ 256 columns) is a
//! panel of its own; shorter planes — the post-pool layers of a served
//! network, a few dozen columns each — are gathered until the panel is that
//! wide, so the GEMM streams long rows instead of paying its per-call and
//! per-row overhead on each sample. The weight gradient keeps one sample per
//! group: its per-sample partials must stay apart to be summed in sample
//! order.
//!
//! Groups are split across the runtime's workers, each unfolding into its
//! own per-thread arena scratch ([`crate::runtime::with_scratch`]: no
//! allocation once an arena is warm) and running a serial GEMM per panel; a
//! lone group falls through to the row-parallel GEMM instead, so both ends
//! of the batch-size spectrum use all cores. Every output element is one
//! GEMM column summed in ascending `k` by exactly one thread, whatever panel
//! it sits in — bit-identical across thread counts and batch compositions.
//!
//! **Pointwise geometry** (1×1 kernel, stride 1, no padding — the `w1` /
//! `w4` TT cores, two thirds of a TT-SNN training step's conv calls): the
//! im2col matrix *is* the sample slab and col2im adds it into zeros, so a
//! lone sample runs all three GEMMs straight on its slab, with the same
//! operands in the same order as the unfolded path and therefore the same
//! bits.

use std::ops::Range;

use crate::error::ShapeError;
use crate::runtime::{self, with_scratch, Runtime};
use crate::tensor::Tensor;

/// Static geometry of a 2-D convolution: everything needed to derive output
/// sizes, FLOP counts and buffer sizes without touching data.
///
/// ```
/// use ttsnn_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 16, (32, 32), (3, 3), (1, 1), (1, 1));
/// assert_eq!(g.out_hw(), (32, 32));
/// assert_eq!(g.macs(), 16 * 32 * 32 * 3 * 3 * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Input spatial size `(H, W)`.
    pub in_hw: (usize, usize),
    /// Kernel size `(Kh, Kw)`.
    pub kernel: (usize, usize),
    /// Stride `(Sh, Sw)`.
    pub stride: (usize, usize),
    /// Zero padding `(Ph, Pw)` applied symmetrically per axis.
    pub padding: (usize, usize),
}

impl Conv2dGeometry {
    /// Creates a geometry descriptor.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_hw: (usize, usize),
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Self {
        Self { in_channels, out_channels, in_hw, kernel, stride, padding }
    }

    /// Output spatial size `(Oh, Ow)`, for a geometry that describes a
    /// convolution: a stride of at least 1 and a kernel that fits its padded
    /// input on each axis, which every kernel of the conv family checks
    /// before it asks. On any other geometry the subtraction below
    /// underflows.
    pub fn out_hw(&self) -> (usize, usize) {
        let (h, w) = self.in_hw;
        let (kh, kw) = self.kernel;
        let (sh, sw) = self.stride;
        let (ph, pw) = self.padding;
        ((h + 2 * ph - kh) / sh + 1, (w + 2 * pw - kw) / sw + 1)
    }

    /// Multiply–accumulate count for one forward pass over one sample.
    pub fn macs(&self) -> usize {
        let (oh, ow) = self.out_hw();
        self.out_channels * oh * ow * self.in_channels * self.kernel.0 * self.kernel.1
    }

    /// Trainable parameter count (no bias, as in the paper's conv layers).
    pub fn params(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel.0 * self.kernel.1
    }

    /// Rows of the im2col matrix: `C·Kh·Kw`.
    pub(crate) fn patch_len(&self) -> usize {
        self.in_channels * self.kernel.0 * self.kernel.1
    }

    /// Elements of one input sample: `C·H·W`.
    pub(crate) fn in_slab(&self) -> usize {
        self.in_channels * self.in_hw.0 * self.in_hw.1
    }

    /// The check every conv-family kernel makes of its geometry before it
    /// reads `out_hw`: a stride of 0, an input plane with no rows or no
    /// columns, or a kernel longer than its padded input on either axis
    /// describes no convolution.
    pub(crate) fn check(&self) -> Result<(), ShapeError> {
        let ((h, w), (kh, kw)) = (self.in_hw, self.kernel);
        let ((sh, sw), (ph, pw)) = (self.stride, self.padding);
        if sh == 0 || sw == 0 {
            return Err(ShapeError::new(format!("conv2d: stride {:?} has a 0", self.stride)));
        }
        if h == 0 || w == 0 {
            return Err(ShapeError::new(format!("conv2d: input plane {:?} is empty", self.in_hw)));
        }
        if kh > h + 2 * ph || kw > w + 2 * pw {
            return Err(ShapeError::new(format!(
                "conv2d: kernel {:?} exceeds the padded input {:?}",
                self.kernel,
                (h + 2 * ph, w + 2 * pw)
            )));
        }
        Ok(())
    }

    /// 1×1 kernel, stride 1, no padding: im2col is the identity.
    fn is_pointwise(&self) -> bool {
        self.kernel == (1, 1) && self.stride == (1, 1) && self.padding == (0, 0)
    }
}

/// The input check of the whole conv family (dense or packed, f32 or int8):
/// `g` itself ([`Conv2dGeometry::check`]), then an NCHW `shape` against it.
/// Returns `(B, Oh, Ow)`.
pub(crate) fn check_input(
    shape: &[usize],
    g: &Conv2dGeometry,
) -> Result<(usize, usize, usize), ShapeError> {
    g.check()?;
    if shape.len() != 4 {
        return Err(ShapeError::new(format!("conv2d: expected 4-D NCHW input, got {shape:?}")));
    }
    if shape[1] != g.in_channels || (shape[2], shape[3]) != g.in_hw {
        return Err(ShapeError::new(format!(
            "conv2d: input {shape:?} does not match geometry (C={}, HW={:?})",
            g.in_channels, g.in_hw
        )));
    }
    let (oh, ow) = g.out_hw();
    Ok((shape[0], oh, ow))
}

/// The f32 weight check of the conv family: an OIHW `shape` against `g`.
pub(crate) fn check_weight(shape: &[usize], g: &Conv2dGeometry) -> Result<(), ShapeError> {
    let expect = [g.out_channels, g.in_channels, g.kernel.0, g.kernel.1];
    if shape != expect {
        return Err(ShapeError::new(format!(
            "conv2d: weight {shape:?} does not match geometry {expect:?}"
        )));
    }
    Ok(())
}

/// The outputs `o` in `0..out_len` whose tap at kernel offset `k` reads
/// inside an axis of `len` inputs — `0 ≤ o·stride + k − pad < len` — as one
/// run, with the first input the run reads (`len` at most, for an empty run).
/// Needs a checked geometry ([`Conv2dGeometry::check`]).
fn tap_run(
    (out_len, stride, pad, len): (usize, usize, usize, usize),
    k: usize,
) -> (Range<usize>, usize) {
    let end = (len + pad).checked_sub(k + 1).map_or(0, |last| last / stride + 1).min(out_len);
    let start = pad.saturating_sub(k).div_ceil(stride).min(end);
    (start..end, (start * stride + k).saturating_sub(pad).min(len))
}

/// Unfolds one sample `(C, H, W)` into its im2col columns: row `r` of the
/// `(C*Kh*Kw, Oh*Ow)` matrix goes to `cols[r * ld..][..Oh*Ow]`, so `ld =
/// Oh*Ow` writes the matrix itself and a wider `ld` one sample's block of a
/// gathered panel. Generic over the element type so the float kernels and the
/// int8 quantized kernels ([`crate::qkernels`]) share one unfolding; `zero`
/// is the padding value.
///
/// Per tap, the output rows and columns that read inside the plane are one
/// run each ([`tap_run`], worked out once for every channel): the tap's row
/// is zero-filled, then each output row's run is copied in whole — one
/// `copy_from_slice` at stride 1.
pub(crate) fn im2col_sample_t<T: Copy>(
    x: &[T],
    g: &Conv2dGeometry,
    cols: &mut [T],
    ld: usize,
    zero: T,
) {
    let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
    let ((sh, sw), (ph, pw)) = (g.stride, g.padding);
    for ki in 0..kh {
        let (rows, i0) = tap_run((oh, sh, ph, h), ki);
        for kj in 0..kw {
            let (run, j0) = tap_run((ow, sw, pw, w), kj);
            for c in 0..g.in_channels {
                let plane = &x[c * h * w..][..h * w];
                let row = (c * kh + ki) * kw + kj;
                let dst = &mut cols[row * ld..row * ld + oh * ow];
                dst.fill(zero);
                for (t, oi) in rows.clone().enumerate() {
                    let src = &plane[(i0 + t * sh) * w..][..w];
                    let dst = &mut dst[oi * ow..(oi + 1) * ow][run.clone()];
                    if sw == 1 {
                        dst.copy_from_slice(&src[j0..j0 + dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src[j0..].iter().step_by(sw)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Runs `f` on the im2col panel `(C*Kh*Kw, n*Oh*Ow)` of the `n` samples `x`
/// holds, sample `i` in column block `i`: for a pointwise geometry the
/// samples themselves, gathered ([`with_gathered`]); an unfolding into arena
/// scratch otherwise.
fn with_cols<R>(x: &[f32], n: usize, g: &Conv2dGeometry, f: impl FnOnce(&[f32]) -> R) -> R {
    let ospatial = g.out_hw().0 * g.out_hw().1;
    if g.is_pointwise() {
        return with_gathered(x, n, (g.in_channels, ospatial), f);
    }
    let width = n * ospatial;
    with_scratch(g.patch_len() * width, |cols| {
        for (i, xs) in x.chunks_exact(g.in_slab()).enumerate() {
            im2col_sample_t(xs, g, &mut cols[i * ospatial..], width, 0.0);
        }
        f(cols)
    })
}

/// Runs `f` on the `(rows, n*plane)` panel of the `n` samples `src` holds as
/// `(rows, plane)` matrices: `src` itself for one sample, a gathered copy in
/// arena scratch otherwise.
fn with_gathered<R>(
    src: &[f32],
    n: usize,
    (rows, plane): (usize, usize),
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    if n == 1 {
        return f(src);
    }
    with_scratch(rows * n * plane, |panel: &mut [f32]| {
        for (i, sample) in src.chunks_exact(rows * plane).enumerate() {
            for (r, row) in sample.chunks_exact(plane).enumerate() {
                panel[(r * n + i) * plane..][..plane].copy_from_slice(row);
            }
        }
        f(panel)
    })
}

/// Has `f` write the `(rows, n*plane)` panel of the `n` samples `out` holds
/// as `(rows, plane)` matrices: into `out` itself for one sample, into arena
/// scratch that is then scattered back otherwise.
fn with_scattered<R>(
    out: &mut [f32],
    n: usize,
    (rows, plane): (usize, usize),
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    if n == 1 {
        return f(out);
    }
    with_scratch(rows * n * plane, |panel: &mut [f32]| {
        let r = f(panel);
        for (i, sample) in out.chunks_exact_mut(rows * plane).enumerate() {
            for (row, dst) in sample.chunks_exact_mut(plane).enumerate() {
                dst.copy_from_slice(&panel[(row * n + i) * plane..][..plane]);
            }
        }
        r
    })
}

/// Folds one sample's im2col columns (row `r` at `cols[r * ld..][..Oh*Ow]`,
/// as [`im2col_sample_t`] lays them out) back into a sample gradient `(C, H,
/// W)`, *accumulating* overlapping contributions (the adjoint of the
/// unfolding). Each tap's in-plane runs ([`tap_run`]) are worked out once
/// for every channel and added whole. A channel's terms land in its own
/// plane only, so each element still receives its terms in the `(c, ki, kj,
/// oi, oj)` order of the per-element fold.
fn col2im_sample(cols: &[f32], ld: usize, g: &Conv2dGeometry, x_grad: &mut [f32]) {
    let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
    let ((sh, sw), (ph, pw)) = (g.stride, g.padding);
    for ki in 0..kh {
        let (rows, i0) = tap_run((oh, sh, ph, h), ki);
        for kj in 0..kw {
            let (run, j0) = tap_run((ow, sw, pw, w), kj);
            for c in 0..g.in_channels {
                let plane = &mut x_grad[c * h * w..][..h * w];
                let row = (c * kh + ki) * kw + kj;
                let src = &cols[row * ld..row * ld + oh * ow];
                for (t, oi) in rows.clone().enumerate() {
                    let dst = &mut plane[(i0 + t * sh) * w..][..w];
                    let src = &src[oi * ow..(oi + 1) * ow][run.clone()];
                    // `step_by` with a run-time step does not vectorize: one
                    // loop for both strides made `conv2d_input_grad` 1.2–3.2 ×
                    // slower on training-sized stride-1 geometries.
                    if sw == 1 {
                        for (d, &v) in dst[j0..].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst[j0..].iter_mut().step_by(sw).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Output columns below which a sample's GEMM is too narrow to stream well
/// on its own: [`per_sample`] gathers samples whose planes are shorter into
/// one panel of at least this many columns.
const PANEL_COLUMNS: usize = 256;

/// The batch driver of every per-sample kernel — the three f32 convolutions
/// and [`crate::qkernels::qconv2d`]: opens the `name` region and runs
/// `group(rt, s0, out_g)` over consecutive samples `s0..s0 + n` of `out`,
/// `out_g` being their `n` slabs. The one place their fork is decided.
///
/// `plane` is the number of GEMM columns one sample contributes, for the
/// kernels whose samples may share a panel. A sample whose plane is shorter
/// than [`PANEL_COLUMNS`] is gathered with its neighbours until a panel
/// reaches that width; `None` (the weight gradient, whose per-sample partials
/// must stay apart) keeps every group at one sample. A lone group
/// parallelizes *inside* its kernels (it is handed the current runtime);
/// several are split across the pool by `ops_per_sample`, each running its
/// kernels on [`Runtime::serial`]. Every GEMM column is summed on its own in
/// ascending `k` whatever panel it sits in, so the grouping moves no bit.
pub(crate) fn per_sample<T: Send>(
    name: &'static str,
    out: &mut [T],
    slab: usize,
    ops_per_sample: usize,
    plane: Option<usize>,
    group: impl Fn(&Runtime, usize, &mut [T]) + Sync,
) {
    let _region = ttsnn_obs::region(name);
    if out.is_empty() {
        return;
    }
    let samples = out.len() / slab;
    let per_panel = match plane {
        Some(plane) if plane < PANEL_COLUMNS => PANEL_COLUMNS.div_ceil(plane.max(1)),
        _ => 1,
    };
    let rt = Runtime::current();
    if samples <= per_panel {
        return group(&rt, 0, out);
    }
    let (serial, min_samples) = (Runtime::serial(), runtime::fork_grain(ops_per_sample));
    rt.parallel_over_ranges(out, slab, min_samples, |s0, run| {
        for (i, out_g) in run.chunks_mut(per_panel * slab).enumerate() {
            group(serial, s0 + i * per_panel, out_g);
        }
    });
}

/// Convolution forward pass: `y = x (*) weight`.
///
/// Input `(B, C, H, W)`, weight `(O, C, Kh, Kw)`, output `(B, O, Oh, Ow)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `g` describes no convolution, or the input or
/// weight does not match it.
pub fn conv2d(x: &Tensor, weight: &Tensor, g: &Conv2dGeometry) -> Result<Tensor, ShapeError> {
    let (b, oh, ow) = check_input(x.shape(), g)?;
    check_weight(weight.shape(), g)?;
    let (k, ospatial, in_slab) = (g.patch_len(), oh * ow, g.in_slab());
    // No zero-fill: the GEMM overwrites every element of every sample.
    let mut out = Tensor::scratch(&[b, g.out_channels, oh, ow]);
    let (xd, wd) = (x.data(), weight.data());
    let (o, out_slab) = (g.out_channels, g.out_channels * ospatial);
    let conv = |rt: &Runtime, s0: usize, out_g: &mut [f32]| {
        let n = out_g.len() / out_slab;
        with_cols(&xd[s0 * in_slab..(s0 + n) * in_slab], n, g, |cols| {
            with_scattered(out_g, n, (o, ospatial), |panel| {
                runtime::gemm(rt, wd, cols, panel, o, k, n * ospatial);
            });
        });
    };
    per_sample("conv2d", out.data_mut(), out_slab, 2 * g.macs(), Some(ospatial), conv);
    Ok(out)
}

/// Gradient of the convolution with respect to its **input**:
/// `dx = weight^T (*) dy` folded via col2im.
///
/// # Errors
///
/// Returns [`ShapeError`] if `g` describes no convolution, or `y_grad` or
/// `weight` does not match it.
pub fn conv2d_input_grad(
    y_grad: &Tensor,
    weight: &Tensor,
    g: &Conv2dGeometry,
) -> Result<Tensor, ShapeError> {
    g.check()?;
    check_weight(weight.shape(), g)?;
    let (oh, ow) = g.out_hw();
    if y_grad.ndim() != 4
        || y_grad.shape()[1] != g.out_channels
        || (y_grad.shape()[2], y_grad.shape()[3]) != (oh, ow)
    {
        return Err(ShapeError::new(format!(
            "conv2d_input_grad: output grad {:?} does not match geometry",
            y_grad.shape()
        )));
    }
    let b = y_grad.shape()[0];
    let (k, ospatial) = (g.patch_len(), oh * ow);
    let out_slab = g.out_channels * ospatial;
    let pointwise = g.is_pointwise();
    let x_shape = [b, g.in_channels, g.in_hw.0, g.in_hw.1];
    let mut x_grad =
        if pointwise { Tensor::scratch(&x_shape) } else { Tensor::scratch_zeroed(&x_shape) };
    // dx_cols = Wᵀ · dy, read directly from the (O, k) weight layout — no
    // transpose copy.
    let (wd, gd, o, in_slab) = (weight.data(), y_grad.data(), g.out_channels, g.in_slab());
    let sample = |rt: &Runtime, s0: usize, xg_g: &mut [f32]| {
        let n = xg_g.len() / in_slab;
        let width = n * ospatial;
        with_gathered(&gd[s0 * out_slab..(s0 + n) * out_slab], n, (o, ospatial), |dy| {
            if pointwise {
                // col2im would add these columns into zeros. The GEMM's
                // accumulators start from +0.0 and a sum that starts there
                // never lands on −0.0, so `0.0 + v` is `v` bit for bit and
                // the GEMM can write the slabs itself.
                with_scattered(xg_g, n, (k, ospatial), |panel| {
                    runtime::gemm_at_b(rt, wd, dy, panel, k, o, width);
                });
            } else {
                with_scratch(k * width, |cols| {
                    runtime::gemm_at_b(rt, wd, dy, cols, k, o, width);
                    for (i, xg_s) in xg_g.chunks_exact_mut(in_slab).enumerate() {
                        col2im_sample(&cols[i * ospatial..], width, g, xg_s);
                    }
                });
            }
        });
    };
    let macs = 2 * g.macs();
    per_sample("conv2d_input_grad", x_grad.data_mut(), in_slab, macs, Some(ospatial), sample);
    Ok(x_grad)
}

/// Gradient of the convolution with respect to its **weight**:
/// `dW = dy · im2col(x)^T`, summed over the batch.
///
/// # Errors
///
/// Returns [`ShapeError`] if `g` describes no convolution, or `x` or
/// `y_grad` does not match it.
pub fn conv2d_weight_grad(
    x: &Tensor,
    y_grad: &Tensor,
    g: &Conv2dGeometry,
) -> Result<Tensor, ShapeError> {
    let (b, oh, ow) = check_input(x.shape(), g)?;
    if y_grad.shape() != [b, g.out_channels, oh, ow] {
        return Err(ShapeError::new(format!(
            "conv2d_weight_grad: output grad {:?} does not match geometry",
            y_grad.shape()
        )));
    }
    let (k, ospatial, in_slab) = (g.patch_len(), oh * ow, g.in_slab());
    let (out_slab, wlen) = (g.out_channels * ospatial, g.params());
    let (xd, gd) = (x.data(), y_grad.data());
    // Per-sample partials `dW_s = dy_s · colsᵀ` in disjoint slabs, then the
    // batch reduction in fixed sample order, so results do not depend on the
    // thread count. `cols` is `(k, ospatial)` — exactly the `(n, k̂)`
    // row-major `b` operand `gemm_a_bt` wants, so no caller-side transpose.
    // Fixed-size chunks (a constant, never a function of the thread count)
    // bound the partials at ≤ ~64 MiB on wide layers × large batches. A lone
    // sample folds like any other: its partial was summed up from +0.0, so
    // adding it into zeros returns it bit for bit.
    const MAX_PARTIAL_ELEMS: usize = 16 * 1024 * 1024;
    let chunk = (MAX_PARTIAL_ELEMS / wlen.max(1)).min(b).max(1);
    let mut w_grad =
        Tensor::scratch_zeroed(&[g.out_channels, g.in_channels, g.kernel.0, g.kernel.1]);
    // The GEMM overwrites every partial it is handed: no zero-fill.
    with_scratch(chunk * wlen, |partials: &mut [f32]| {
        for c0 in (0..b).step_by(chunk) {
            let part = &mut partials[..chunk.min(b - c0) * wlen];
            per_sample("conv2d_weight_grad", part, wlen, 2 * g.macs(), None, |rt, i, dw_s| {
                let s = c0 + i;
                with_cols(&xd[s * in_slab..(s + 1) * in_slab], 1, g, |cols| {
                    let gd_s = &gd[s * out_slab..(s + 1) * out_slab];
                    runtime::gemm_a_bt(rt, gd_s, cols, dw_s, g.out_channels, ospatial, k);
                });
            });
            let acc = w_grad.data_mut();
            for dw_s in part.chunks(wlen) {
                for (a, &v) in acc.iter_mut().zip(dw_s.iter()) {
                    *a += v;
                }
            }
        }
    });
    Ok(w_grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qkernels::{qconv2d, QAccum};
    use crate::rng::Rng;
    use crate::spike::{self, EventWeights, SpikeTensor, WindowTable};
    use proptest::prelude::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// All three kernels through explicit im2col / col2im, sample by
    /// sample on one thread — the path every geometry took before the
    /// pointwise one existed, kept as its bit-level reference. Returns
    /// `(y, dx, dw)`.
    fn unfolded(
        x: &Tensor,
        w: &Tensor,
        gy: &Tensor,
        g: &Conv2dGeometry,
    ) -> (Tensor, Tensor, Tensor) {
        let rt = Runtime::new(1);
        let b = x.shape()[0];
        let (oh, ow) = g.out_hw();
        let (o, osp) = (g.out_channels, oh * ow);
        let k = g.in_channels * g.kernel.0 * g.kernel.1;
        let in_slab = g.in_channels * g.in_hw.0 * g.in_hw.1;
        let mut y = Tensor::zeros(&[b, o, oh, ow]);
        let mut dx = Tensor::zeros(x.shape());
        let mut dw = Tensor::zeros(w.shape());
        let mut cols = vec![0.0f32; k * osp];
        let mut dw_s = vec![0.0f32; o * k];
        for s in 0..b {
            let gy_s = &gy.data()[s * o * osp..(s + 1) * o * osp];
            im2col_sample_t(&x.data()[s * in_slab..(s + 1) * in_slab], g, &mut cols, osp, 0.0);
            let y_s = &mut y.data_mut()[s * o * osp..(s + 1) * o * osp];
            runtime::gemm(&rt, w.data(), &cols, y_s, o, k, osp);
            runtime::gemm_a_bt(&rt, gy_s, &cols, &mut dw_s, o, osp, k);
            for (a, &v) in dw.data_mut().iter_mut().zip(&dw_s) {
                *a += v;
            }
            runtime::gemm_at_b(&rt, w.data(), gy_s, &mut cols, k, o, osp);
            col2im_sample(&cols, osp, g, &mut dx.data_mut()[s * in_slab..(s + 1) * in_slab]);
        }
        (y, dx, dw)
    }

    /// Pointwise operands with exact zeros of both signs and cancelling
    /// pairs mixed in, so `0.0 + v` versus `v` would show.
    fn signed_zero_randn(shape: &[usize], rng: &mut Rng) -> Tensor {
        let mut t = Tensor::randn(shape, rng);
        for v in t.data_mut() {
            let u = rng.uniform();
            if u < 0.15 {
                *v = 0.0;
            } else if u < 0.3 {
                *v = -0.0;
            } else if u < 0.45 {
                *v = v.signum();
            }
        }
        t
    }

    fn assert_pointwise_matches_unfolded(c: usize, o: usize, hw: (usize, usize), b: usize) {
        let mut rng = Rng::seed_from((c * 31 + o * 7 + hw.0 * 3 + hw.1 + b) as u64);
        let g = Conv2dGeometry::new(c, o, hw, (1, 1), (1, 1), (0, 0));
        let x = signed_zero_randn(&[b, c, hw.0, hw.1], &mut rng);
        let w = signed_zero_randn(&[o, c, 1, 1], &mut rng);
        let gy = signed_zero_randn(&[b, o, hw.0, hw.1], &mut rng);
        let (y, dx, dw) = unfolded(&x, &w, &gy, &g);
        for threads in 1..=8 {
            let rt = Runtime::new(threads);
            let tag = format!("c={c} o={o} hw={hw:?} b={b} threads={threads}");
            assert_eq!(bits(&rt.install(|| conv2d(&x, &w, &g)).unwrap()), bits(&y), "y {tag}");
            assert_eq!(
                bits(&rt.install(|| conv2d_input_grad(&gy, &w, &g)).unwrap()),
                bits(&dx),
                "dx {tag}"
            );
            assert_eq!(
                bits(&rt.install(|| conv2d_weight_grad(&x, &gy, &g)).unwrap()),
                bits(&dw),
                "dw {tag}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The pointwise path (GEMM straight on the slab) against the
        /// im2col / col2im path, `to_bits` equal — signs of zero included
        /// — for forward and both gradients at 1–8 threads.
        #[test]
        fn pointwise_matches_unfolded_bitwise(
            c in 1usize..12,
            o in 1usize..12,
            h in 1usize..7,
            w in 1usize..7,
            b in 1usize..6,
        ) {
            assert_pointwise_matches_unfolded(c, o, (h, w), b);
        }
    }

    /// The same at a size whose batch split really forks (each half of the
    /// batch carries more than the fork grain).
    #[test]
    fn pointwise_matches_unfolded_bitwise_when_forked() {
        assert_pointwise_matches_unfolded(48, 48, (16, 16), 4);
    }

    /// The per-element unfolding every geometry took before the row runs —
    /// a branch and a bounds-checked load per element — kept as the oracle
    /// of [`im2col_sample_t`].
    fn im2col_oracle<T: Copy>(x: &[T], g: &Conv2dGeometry, cols: &mut [T], ld: usize, zero: T) {
        let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
        let ((sh, sw), (ph, pw)) = (g.stride, g.padding);
        for c in 0..g.in_channels {
            let plane = &x[c * h * w..(c + 1) * h * w];
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (c * kh + ki) * kw + kj;
                    let dst = &mut cols[row * ld..row * ld + oh * ow];
                    for oi in 0..oh {
                        let src_i = (oi * sh + ki) as isize - ph as isize;
                        if src_i < 0 || src_i >= h as isize {
                            dst[oi * ow..(oi + 1) * ow].fill(zero);
                            continue;
                        }
                        let src_row = &plane[src_i as usize * w..(src_i as usize + 1) * w];
                        for oj in 0..ow {
                            let src_j = (oj * sw + kj) as isize - pw as isize;
                            dst[oi * ow + oj] = if src_j < 0 || src_j >= w as isize {
                                zero
                            } else {
                                src_row[src_j as usize]
                            };
                        }
                    }
                }
            }
        }
    }

    /// The per-element fold, kept as the oracle of [`col2im_sample`].
    fn col2im_oracle(cols: &[f32], ld: usize, g: &Conv2dGeometry, x_grad: &mut [f32]) {
        let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
        let ((sh, sw), (ph, pw)) = (g.stride, g.padding);
        for c in 0..g.in_channels {
            let plane = &mut x_grad[c * h * w..(c + 1) * h * w];
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (c * kh + ki) * kw + kj;
                    let src = &cols[row * ld..row * ld + oh * ow];
                    for oi in 0..oh {
                        let dst_i = (oi * sh + ki) as isize - ph as isize;
                        if dst_i < 0 || dst_i >= h as isize {
                            continue;
                        }
                        for oj in 0..ow {
                            let dst_j = (oj * sw + kj) as isize - pw as isize;
                            if dst_j >= 0 && dst_j < w as isize {
                                plane[dst_i as usize * w + dst_j as usize] += src[oi * ow + oj];
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`im2col_sample_t`] (f32 and i8) and [`col2im_sample`] against their
    /// oracles on `g`, bit for bit, into a block of a wider panel (`ld >
    /// Oh·Ow`) whose gaps must stay untouched.
    fn assert_unfold_and_fold_match_oracles(g: &Conv2dGeometry, rng: &mut Rng) {
        let (oh, ow) = g.out_hw();
        let (k, ld) = (g.patch_len(), oh * ow + 1 + rng.below(4));
        let x: Vec<f32> = (0..g.in_slab()).map(|_| rng.normal()).collect();
        let mut want = vec![f32::NAN; k * ld];
        let mut got = want.clone();
        im2col_oracle(&x, g, &mut want, ld, 0.0);
        im2col_sample_t(&x, g, &mut got, ld, 0.0);
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "f32 unfold {g:?} ld={ld}");
        let xi: Vec<i8> = x.iter().map(|&v| (v * 40.0) as i8).collect();
        let (mut want, mut got) = (vec![99i8; k * ld], vec![99i8; k * ld]);
        im2col_oracle(&xi, g, &mut want, ld, 0);
        im2col_sample_t(&xi, g, &mut got, ld, 0);
        assert_eq!(got, want, "i8 unfold {g:?} ld={ld}");
        let cols: Vec<f32> = (0..k * ld).map(|_| rng.normal()).collect();
        let mut want: Vec<f32> = (0..g.in_slab()).map(|_| rng.normal()).collect();
        let mut got = want.clone();
        col2im_oracle(&cols, ld, g, &mut want);
        col2im_sample(&cols, ld, g, &mut got);
        assert_eq!(bits(&got), bits(&want), "fold {g:?} ld={ld}");
    }

    /// The row-run unfolding and fold against their oracles on random
    /// geometries: kernels 1–5, strides 1–3, padding 0–3 (as wide as the
    /// kernel and wider), inputs 1–9 on a side.
    #[test]
    fn row_run_unfold_and_fold_match_their_per_element_oracles() {
        let mut rng = Rng::seed_from(17);
        let mut checked = 0;
        while checked < 600 {
            let mut pick = |lo: usize, hi: usize| lo + rng.below(hi - lo + 1);
            let g = Conv2dGeometry::new(
                pick(1, 3),
                1,
                (pick(1, 9), pick(1, 9)),
                (pick(1, 5), pick(1, 5)),
                (pick(1, 3), pick(1, 3)),
                (pick(0, 3), pick(0, 3)),
            );
            if g.check().is_err() {
                continue;
            }
            checked += 1;
            assert_unfold_and_fold_match_oracles(&g, &mut rng);
        }
    }

    /// Geometries that describe no convolution: a kernel longer than the
    /// padded input on either axis, a stride of 0 on either, and an input
    /// plane with no rows or no columns (even where padding makes room for
    /// the kernel). Each has one input channel and one output channel.
    fn degenerate_geometries() -> [Conv2dGeometry; 7] {
        let g = |in_hw, kernel, stride, padding| {
            Conv2dGeometry::new(1, 1, in_hw, kernel, stride, padding)
        };
        [
            g((2, 2), (3, 3), (1, 1), (0, 0)),
            g((2, 2), (1, 5), (2, 2), (1, 1)),
            g((2, 2), (1, 1), (0, 1), (0, 0)),
            g((2, 2), (3, 3), (1, 0), (1, 1)),
            g((0, 4), (1, 1), (1, 1), (1, 0)),
            g((3, 0), (1, 3), (2, 1), (0, 2)),
            g((0, 0), (2, 2), (1, 2), (1, 1)),
        ]
    }

    /// A zero input of `g`'s shape, one sample.
    fn input_of(g: &Conv2dGeometry) -> Tensor {
        Tensor::zeros(&[1, g.in_channels, g.in_hw.0, g.in_hw.1])
    }

    #[test]
    fn conv2d_rejects_degenerate_geometries() {
        for g in degenerate_geometries() {
            let w = Tensor::zeros(&[1, 1, g.kernel.0, g.kernel.1]);
            assert!(conv2d(&input_of(&g), &w, &g).is_err(), "{g:?}");
        }
    }

    #[test]
    fn conv2d_input_grad_rejects_degenerate_geometries() {
        for g in degenerate_geometries() {
            let (gy, w) =
                (Tensor::zeros(&[1, 1, 1, 1]), Tensor::zeros(&[1, 1, g.kernel.0, g.kernel.1]));
            assert!(conv2d_input_grad(&gy, &w, &g).is_err(), "{g:?}");
        }
    }

    #[test]
    fn conv2d_weight_grad_rejects_degenerate_geometries() {
        for g in degenerate_geometries() {
            let gy = Tensor::zeros(&[1, 1, 1, 1]);
            assert!(conv2d_weight_grad(&input_of(&g), &gy, &g).is_err(), "{g:?}");
        }
    }

    #[test]
    fn qconv2d_rejects_degenerate_geometries() {
        for g in degenerate_geometries() {
            let (x, qw) = (input_of(&g), vec![1i8; g.params()]);
            for accum in [QAccum::I32, QAccum::Saturate16] {
                assert!(qconv2d(&x, 1.0, &qw, &[1.0], &g, accum).is_err(), "{g:?}");
            }
        }
    }

    #[test]
    fn event_convolutions_reject_degenerate_geometries() {
        // Layouts of a geometry that is one, handed in beside one that is not.
        let valid = Conv2dGeometry::new(1, 1, (2, 2), (1, 1), (1, 1), (0, 0));
        let table = WindowTable::new(&valid).unwrap();
        let w = Tensor::zeros(&[1, 1, 1, 1]);
        let (weights, qweights) =
            (EventWeights::new(&w).unwrap(), EventWeights::quantized(&[1], 1, 1.0).unwrap());
        for g in degenerate_geometries() {
            let spikes = SpikeTensor::try_pack(&input_of(&g)).unwrap();
            let w = Tensor::zeros(&[1, 1, g.kernel.0, g.kernel.1]);
            let qw = vec![1i8; g.params()];
            assert!(WindowTable::new(&g).is_err(), "{g:?}");
            assert!(spike::sparse_conv2d(&spikes, &w, &g).is_err(), "{g:?}");
            assert!(spike::sparse_conv2d_frozen(&spikes, &weights, &table, &g).is_err(), "{g:?}");
            for accum in [QAccum::I32, QAccum::Saturate16] {
                let frozen =
                    spike::sparse_qconv2d_frozen(&spikes, &qweights, &[1.0], &table, &g, accum);
                assert!(frozen.is_err(), "{g:?}");
                let per_call = spike::sparse_qconv2d(&spikes, 1.0, &qw, &[1.0], &g, accum);
                assert!(per_call.is_err(), "{g:?}");
            }
        }
    }

    /// Direct (loop) convolution used as a reference oracle.
    fn conv2d_naive(x: &Tensor, w: &Tensor, g: &Conv2dGeometry) -> Tensor {
        let b = x.shape()[0];
        let (oh, ow) = g.out_hw();
        let mut y = Tensor::zeros(&[b, g.out_channels, oh, ow]);
        for s in 0..b {
            for o in 0..g.out_channels {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0;
                        for c in 0..g.in_channels {
                            for ki in 0..g.kernel.0 {
                                for kj in 0..g.kernel.1 {
                                    let ii = (oi * g.stride.0 + ki) as isize - g.padding.0 as isize;
                                    let jj = (oj * g.stride.1 + kj) as isize - g.padding.1 as isize;
                                    if ii >= 0
                                        && jj >= 0
                                        && (ii as usize) < g.in_hw.0
                                        && (jj as usize) < g.in_hw.1
                                    {
                                        acc += x.at(&[s, c, ii as usize, jj as usize])
                                            * w.at(&[o, c, ki, kj]);
                                    }
                                }
                            }
                        }
                        *y.at_mut(&[s, o, oi, oj]) = acc;
                    }
                }
            }
        }
        y
    }

    #[test]
    fn geometry_out_hw() {
        let g = Conv2dGeometry::new(3, 8, (32, 32), (3, 3), (1, 1), (1, 1));
        assert_eq!(g.out_hw(), (32, 32));
        let g = Conv2dGeometry::new(3, 8, (32, 32), (3, 3), (2, 2), (1, 1));
        assert_eq!(g.out_hw(), (16, 16));
        let g = Conv2dGeometry::new(3, 8, (8, 8), (1, 1), (1, 1), (0, 0));
        assert_eq!(g.out_hw(), (8, 8));
        // asymmetric 3x1 with vertical-only padding keeps spatial size
        let g = Conv2dGeometry::new(4, 4, (8, 8), (3, 1), (1, 1), (1, 0));
        assert_eq!(g.out_hw(), (8, 8));
        let g = Conv2dGeometry::new(4, 4, (8, 8), (1, 3), (1, 1), (0, 1));
        assert_eq!(g.out_hw(), (8, 8));
    }

    #[test]
    fn geometry_macs_params() {
        let g = Conv2dGeometry::new(3, 16, (32, 32), (3, 3), (1, 1), (1, 1));
        assert_eq!(g.params(), 16 * 3 * 3 * 3);
        assert_eq!(g.macs(), 16 * 32 * 32 * 3 * 3 * 3);
    }

    #[test]
    fn conv_matches_naive_3x3() {
        let mut rng = Rng::seed_from(10);
        let g = Conv2dGeometry::new(3, 5, (7, 6), (3, 3), (1, 1), (1, 1));
        let x = Tensor::randn(&[2, 3, 7, 6], &mut rng);
        let w = Tensor::randn(&[5, 3, 3, 3], &mut rng);
        let fast = conv2d(&x, &w, &g).unwrap();
        let slow = conv2d_naive(&x, &w, &g);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn conv_matches_naive_asymmetric() {
        let mut rng = Rng::seed_from(11);
        for (kernel, padding) in [((3, 1), (1, 0)), ((1, 3), (0, 1)), ((1, 1), (0, 0))] {
            let g = Conv2dGeometry::new(4, 3, (6, 5), kernel, (1, 1), padding);
            let x = Tensor::randn(&[2, 4, 6, 5], &mut rng);
            let w = Tensor::randn(&[3, 4, kernel.0, kernel.1], &mut rng);
            let fast = conv2d(&x, &w, &g).unwrap();
            let slow = conv2d_naive(&x, &w, &g);
            assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4, "kernel {kernel:?} mismatch");
        }
    }

    #[test]
    fn conv_matches_naive_strided() {
        let mut rng = Rng::seed_from(12);
        let g = Conv2dGeometry::new(2, 4, (9, 9), (3, 3), (2, 2), (1, 1));
        let x = Tensor::randn(&[1, 2, 9, 9], &mut rng);
        let w = Tensor::randn(&[4, 2, 3, 3], &mut rng);
        let fast = conv2d(&x, &w, &g).unwrap();
        let slow = conv2d_naive(&x, &w, &g);
        assert_eq!(fast.shape(), &[1, 4, 5, 5]);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn conv_rejects_bad_shapes() {
        let g = Conv2dGeometry::new(3, 5, (8, 8), (3, 3), (1, 1), (1, 1));
        let x = Tensor::zeros(&[1, 3, 8, 8]);
        let w_bad = Tensor::zeros(&[5, 3, 3, 1]);
        assert!(conv2d(&x, &w_bad, &g).is_err());
        let x_bad = Tensor::zeros(&[1, 4, 8, 8]);
        let w = Tensor::zeros(&[5, 3, 3, 3]);
        assert!(conv2d(&x_bad, &w, &g).is_err());
        assert!(conv2d(&Tensor::zeros(&[3, 8, 8]), &w, &g).is_err());
    }

    /// Finite-difference check of the weight gradient.
    #[test]
    fn weight_grad_matches_finite_difference() {
        let mut rng = Rng::seed_from(13);
        let g = Conv2dGeometry::new(2, 3, (5, 5), (3, 3), (1, 1), (1, 1));
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let mut w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        // loss = sum(conv(x, w) * m) for a fixed random m
        let (oh, ow) = g.out_hw();
        let m = Tensor::randn(&[2, 3, oh, ow], &mut rng);
        let analytic = conv2d_weight_grad(&x, &m, &g).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 7, 23, 41, 53] {
            let orig = w.data()[idx];
            w.data_mut()[idx] = orig + eps;
            let lp = conv2d(&x, &w, &g).unwrap().mul(&m).unwrap().sum();
            w.data_mut()[idx] = orig - eps;
            let lm = conv2d(&x, &w, &g).unwrap().mul(&m).unwrap().sum();
            w.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs()),
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// Finite-difference check of the input gradient.
    #[test]
    fn input_grad_matches_finite_difference() {
        let mut rng = Rng::seed_from(14);
        let g = Conv2dGeometry::new(2, 3, (5, 4), (3, 1), (1, 1), (1, 0));
        let mut x = Tensor::randn(&[1, 2, 5, 4], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 1], &mut rng);
        let (oh, ow) = g.out_hw();
        let m = Tensor::randn(&[1, 3, oh, ow], &mut rng);
        let analytic = conv2d_input_grad(&m, &w, &g).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 5, 17, 33] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let lp = conv2d(&x, &w, &g).unwrap().mul(&m).unwrap().sum();
            x.data_mut()[idx] = orig - eps;
            let lm = conv2d(&x, &w, &g).unwrap().mul(&m).unwrap().sum();
            x.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs()),
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// conv2d is linear in x: conv(a*x1 + b*x2) == a*conv(x1) + b*conv(x2).
    #[test]
    fn conv_is_linear_in_input() {
        let mut rng = Rng::seed_from(15);
        let g = Conv2dGeometry::new(3, 4, (6, 6), (3, 3), (1, 1), (1, 1));
        let x1 = Tensor::randn(&[1, 3, 6, 6], &mut rng);
        let x2 = Tensor::randn(&[1, 3, 6, 6], &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let lhs = conv2d(&x1.scale(2.0).add(&x2.scale(-0.5)).unwrap(), &w, &g).unwrap();
        let rhs = conv2d(&x1, &w, &g)
            .unwrap()
            .scale(2.0)
            .add(&conv2d(&x2, &w, &g).unwrap().scale(-0.5))
            .unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-4);
    }

    /// im2col/col2im adjointness: <im2col(x), c> == <x, col2im(c)>.
    #[test]
    fn im2col_col2im_adjoint() {
        let mut rng = Rng::seed_from(16);
        let g = Conv2dGeometry::new(2, 1, (5, 5), (3, 3), (1, 1), (1, 1));
        let x = Tensor::randn(&[2, 5, 5], &mut rng);
        let k = 2 * 3 * 3;
        let (oh, ow) = g.out_hw();
        let mut cols = vec![0.0f32; k * oh * ow];
        im2col_sample_t(x.data(), &g, &mut cols, oh * ow, 0.0);
        let c = Tensor::randn(&[k * oh * ow], &mut rng);
        let lhs: f32 = cols.iter().zip(c.data().iter()).map(|(a, b)| a * b).sum();
        let mut folded = vec![0.0f32; 2 * 5 * 5];
        col2im_sample(c.data(), oh * ow, &g, &mut folded);
        let rhs: f32 = folded.iter().zip(x.data().iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }
}
