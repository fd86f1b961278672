//! Differentiable operations on [`Var`].
//!
//! Each op computes its forward value eagerly with [`ttsnn_tensor`] kernels
//! and records a backward closure that distributes the output gradient to
//! its parents. The op set is exactly what the TT-SNN training pipeline
//! (Algorithm 1 of the paper) needs:
//!
//! * elementwise arithmetic and scaling — membrane-potential updates (Eq. 1),
//!   with the LIF step's two fused forms [`Var::scale_add`] (leak +
//!   integrate) and [`Var::hard_reset`];
//! * [`Var::conv2d`] — both the baseline 3×3 convolutions and the TT cores'
//!   1×1 / 3×1 / 1×3 sub-convolutions;
//! * [`Var::spike`] — the Heaviside firing function with a surrogate
//!   gradient for BPTT;
//! * [`Var::batch_norm2d`] — tdBN-style normalization;
//! * [`Var::linear`], pooling, and [`cross_entropy_logits`] — the classifier
//!   head and loss of Algorithm 1 lines 14–16.
//!
//! # What a backward closure may touch
//!
//! Every output and every gradient is a `Tensor::scratch` buffer. A closure
//! owns the gradient it is handed: it rewrites it in place where the
//! parent's gradient has the same shape, moves it into the (last) parent
//! that wants it, and recycles it otherwise. Forward inputs are read from
//! `parents[i].value()` — no closure captures a copy of a tensor.

use ttsnn_tensor::runtime::{fork_grain, with_scratch, Runtime};
use ttsnn_tensor::{conv, pool, Conv2dGeometry, ShapeError, Tensor};

use crate::var::Var;

/// Surrogate-gradient shape used in place of the Heaviside derivative during
/// the backward pass (the paper follows STBP's rectangular window).
///
/// All variants are functions of `u - V_th`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Surrogate {
    /// `1/width` inside `|u - vth| < width/2`, zero outside (STBP).
    Rectangle {
        /// Window width `a`.
        width: f32,
    },
    /// Triangular bump `max(0, 1 - |u - vth|/width) / width`.
    Triangle {
        /// Half-base of the triangle.
        width: f32,
    },
    /// Scaled arctan derivative `alpha / (2 * (1 + (pi/2 * alpha * x)^2))`.
    Atan {
        /// Sharpness `alpha`.
        alpha: f32,
    },
}

impl Default for Surrogate {
    /// The paper's default: rectangular window of width 1.
    fn default() -> Self {
        Surrogate::Rectangle { width: 1.0 }
    }
}

#[inline]
fn rectangle(x: f32, width: f32) -> f32 {
    if x.abs() < width / 2.0 {
        1.0 / width
    } else {
        0.0
    }
}

#[inline]
fn triangle(x: f32, width: f32) -> f32 {
    let t = 1.0 - x.abs() / width;
    if t > 0.0 {
        t / width
    } else {
        0.0
    }
}

#[inline]
fn atan(x: f32, alpha: f32) -> f32 {
    let s = std::f32::consts::FRAC_PI_2 * alpha * x;
    alpha / (2.0 * (1.0 + s * s))
}

impl Surrogate {
    /// Evaluates the surrogate derivative at `x = u - vth`.
    pub fn grad(&self, x: f32) -> f32 {
        match *self {
            Surrogate::Rectangle { width } => rectangle(x, width),
            Surrogate::Triangle { width } => triangle(x, width),
            Surrogate::Atan { alpha } => atan(x, alpha),
        }
    }

    /// `g[i] *= self.grad(u[i] - vth)` over a whole tensor, the variant
    /// chosen once outside the element loop.
    fn scale_grad(&self, g: &mut Tensor, u: &Tensor, vth: f32) {
        let done = match *self {
            Surrogate::Rectangle { width } => {
                g.zip_inplace(u, |gv, uv| gv * rectangle(uv - vth, width))
            }
            Surrogate::Triangle { width } => {
                g.zip_inplace(u, |gv, uv| gv * triangle(uv - vth, width))
            }
            Surrogate::Atan { alpha } => g.zip_inplace(u, |gv, uv| gv * atan(uv - vth, alpha)),
        };
        done.expect("spike backward shape");
    }
}

/// `H(u − V_th)` as `0.0` / `1.0`.
#[inline]
fn heaviside(u: f32, vth: f32) -> f32 {
    if u >= vth {
        1.0
    } else {
        0.0
    }
}

/// The hard-reset gate `1 − H(u − V_th)`, in the arithmetic of the chain it
/// fuses (`s · −1 + 1`; the negation is an exact sign flip).
#[inline]
fn reset_gate(u: f32, vth: f32) -> f32 {
    -heaviside(u, vth) + 1.0
}

/// The `(H·W)`-element planes of channel `ch` in a `(B, C, H, W)` buffer,
/// in sample order.
fn channel_planes(
    b: usize,
    c: usize,
    ch: usize,
    plane: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> + Clone {
    (0..b).map(move |s| (s * c + ch) * plane..(s * c + ch + 1) * plane)
}

/// A `[1]`-shaped tensor holding `v` (an arena buffer like every other
/// value on the tape: what a dropped node recycles, an op must have taken).
fn scalar(v: f32) -> Tensor {
    let mut t = Tensor::scratch(&[1]);
    t.data_mut()[0] = v;
    t
}

/// Softmax of one row of logits into `probs`; returns the row's maximum
/// `m` and the normalizer `z = Σ exp(v − m)`.
fn softmax_row(row: &[f32], probs: &mut [f32]) -> (f32, f32) {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (p, v) in probs.iter_mut().zip(row) {
        *p = (v - m).exp();
    }
    let z: f32 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= z;
    }
    (m, z)
}

impl Var {
    // ------------------------------------------------------------ pointwise

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn add(&self, other: &Var) -> Result<Var, ShapeError> {
        let value = self.value().add(&other.value())?;
        Ok(Var::from_op(
            "add",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad_ref(&g);
                parents[1].accumulate_grad(g);
            }),
        ))
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn sub(&self, other: &Var) -> Result<Var, ShapeError> {
        let value = self.value().sub(&other.value())?;
        Ok(Var::from_op(
            "sub",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|mut g, parents| {
                parents[0].accumulate_grad_ref(&g);
                g.map_inplace(|v| -v);
                parents[1].accumulate_grad(g);
            }),
        ))
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn mul(&self, other: &Var) -> Result<Var, ShapeError> {
        let value = self.value().mul(&other.value())?;
        Ok(Var::from_op(
            "mul",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|mut g, parents| {
                if parents[0].requires_grad() {
                    let da = g.mul(&parents[1].value()).expect("mul backward shape");
                    parents[0].accumulate_grad(da);
                }
                if parents[1].requires_grad() {
                    g.zip_inplace(&parents[0].value(), |gv, av| gv * av)
                        .expect("mul backward shape");
                }
                parents[1].accumulate_grad(g);
            }),
        ))
    }

    /// Multiplies by a compile-time scalar.
    pub fn scale(&self, s: f32) -> Var {
        let value = self.value().scale(s);
        Var::from_op(
            "scale",
            value,
            vec![self.clone()],
            Box::new(move |mut g, parents| {
                g.map_inplace(|v| v * s);
                parents[0].accumulate_grad(g);
            }),
        )
    }

    /// Adds a compile-time scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let value = self.value().add_scalar(s);
        Var::from_op(
            "add_scalar",
            value,
            vec![self.clone()],
            Box::new(|g, parents| parents[0].accumulate_grad(g)),
        )
    }

    /// `self · s + other` in one node — the leak-and-integrate half of the
    /// LIF update (`u = τ·m + x`), with the float operations of
    /// `self.scale(s).add(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on shape mismatch.
    pub fn scale_add(&self, s: f32, other: &Var) -> Result<Var, ShapeError> {
        let value = self.value().zip(&other.value(), |a, b| a * s + b)?;
        Ok(Var::from_op(
            "scale_add",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |mut g, parents| {
                parents[1].accumulate_grad_ref(&g);
                g.map_inplace(|v| v * s);
                parents[0].accumulate_grad(g);
            }),
        ))
    }

    /// Multiplies every element by a **learned scalar** (a `Var` holding a
    /// single element) — the TEBN per-timestep scale.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `s` does not hold exactly one element.
    pub fn scale_by(&self, s: &Var) -> Result<Var, ShapeError> {
        if s.value().len() != 1 {
            return Err(ShapeError::new(format!(
                "scale_by: scale must be a single element, got {:?}",
                s.shape()
            )));
        }
        let sv = s.value().data()[0];
        let value = self.value().scale(sv);
        Ok(Var::from_op(
            "scale_by",
            value,
            vec![self.clone(), s.clone()],
            Box::new(move |mut g, parents| {
                let ds: f32 =
                    g.data().iter().zip(parents[0].value().data()).map(|(a, b)| a * b).sum();
                g.map_inplace(|v| v * sv);
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(scalar(ds));
            }),
        ))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let value = self.value().map(|v| v.max(0.0));
        Var::from_op(
            "relu",
            value,
            vec![self.clone()],
            Box::new(|mut g, parents| {
                g.zip_inplace(&parents[0].value(), |gv, xv| if xv > 0.0 { gv } else { 0.0 })
                    .expect("relu backward shape");
                parents[0].accumulate_grad(g);
            }),
        )
    }

    /// Heaviside spike with surrogate gradient: forward emits
    /// `1.0` where the membrane potential is at or above `vth`, backward
    /// uses `surrogate.grad(u - vth)`.
    ///
    /// This is the firing function `H(u − V_th)` of Eq. (1) in the paper.
    pub fn spike(&self, vth: f32, surrogate: Surrogate) -> Var {
        let value = self.value().map(|u| heaviside(u, vth));
        Var::from_op(
            "spike",
            value,
            vec![self.clone()],
            Box::new(move |mut g, parents| {
                surrogate.scale_grad(&mut g, &parents[0].value(), vth);
                parents[0].accumulate_grad(g);
            }),
        )
    }

    /// Hard reset of a membrane potential: `u · (1 − H(u − V_th))`, zero
    /// where the neuron fired and `u` elsewhere, with the gate **detached**
    /// (the STBP convention: no gradient flows through the firing decision
    /// here, only through `u`). One node, one pass; the float operations of
    /// `u.mul(&u.spike(..).detach().scale(-1.0).add_scalar(1.0))`.
    pub fn hard_reset(&self, vth: f32) -> Var {
        let value = self.value().map(|u| u * reset_gate(u, vth));
        Var::from_op(
            "hard_reset",
            value,
            vec![self.clone()],
            Box::new(move |mut g, parents| {
                g.zip_inplace(&parents[0].value(), |gv, uv| gv * reset_gate(uv, vth))
                    .expect("hard_reset backward shape");
                parents[0].accumulate_grad(g);
            }),
        )
    }

    // ------------------------------------------------------------- reshapes

    /// Reshape preserving element count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Var, ShapeError> {
        let value = self.value().scratch_copy().into_reshaped(shape)?;
        let old_shape = self.shape();
        Ok(Var::from_op(
            "reshape",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(g.into_reshaped(&old_shape).expect("reshape backward"));
            }),
        ))
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements as a `[1]`-shaped scalar node.
    pub fn sum_to_scalar(&self) -> Var {
        let total = self.value().sum();
        let shape = self.shape();
        Var::from_op(
            "sum_to_scalar",
            scalar(total),
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Tensor::scratch(&shape);
                dx.data_mut().fill(g.data()[0]);
                g.recycle();
                parents[0].accumulate_grad(dx);
            }),
        )
    }

    /// Mean of all elements as a `[1]`-shaped scalar node.
    pub fn mean_to_scalar(&self) -> Var {
        let n = self.value().len().max(1) as f32;
        self.sum_to_scalar().scale(1.0 / n)
    }

    // --------------------------------------------------------------- linear

    /// Matrix product of 2-D nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if operands are not 2-D or inner dims disagree.
    pub fn matmul(&self, other: &Var) -> Result<Var, ShapeError> {
        let value = self.value().matmul(&other.value())?;
        Ok(Var::from_op(
            "matmul",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                // dA = g · Bᵀ and dB = Aᵀ · g via the runtime's transpose-
                // reading kernels — no transpose copies.
                if parents[0].requires_grad() {
                    let da = g.matmul_a_bt(&parents[1].value()).expect("matmul backward da");
                    parents[0].accumulate_grad(da);
                }
                if parents[1].requires_grad() {
                    let db = parents[0].value().matmul_at_b(&g).expect("matmul backward db");
                    parents[1].accumulate_grad(db);
                }
                g.recycle();
            }),
        ))
    }

    /// Fully connected layer: `y = x · wᵀ + b` with `x: (B, F)`,
    /// `w: (O, F)`, `b: (O)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on dimension mismatch.
    pub fn linear(&self, weight: &Var, bias: &Var) -> Result<Var, ShapeError> {
        let x = self.value();
        let w = weight.value();
        let b = bias.value();
        if x.ndim() != 2 || w.ndim() != 2 || b.ndim() != 1 {
            return Err(ShapeError::new(format!(
                "linear: expected x:(B,F) w:(O,F) b:(O), got {:?} {:?} {:?}",
                x.shape(),
                w.shape(),
                b.shape()
            )));
        }
        let feat = x.shape()[1];
        let (out, feat2) = (w.shape()[0], w.shape()[1]);
        if feat != feat2 || b.shape()[0] != out {
            return Err(ShapeError::new(format!(
                "linear: inconsistent dims x:{:?} w:{:?} b:{:?}",
                x.shape(),
                w.shape(),
                b.shape()
            )));
        }
        // y = x · wᵀ read straight from the (O, F) weight layout.
        let mut y = x.matmul_a_bt(&w)?;
        for row in y.data_mut().chunks_mut(out.max(1)) {
            for (v, &bv) in row.iter_mut().zip(b.data()) {
                *v += bv;
            }
        }
        drop((x, w, b));
        Ok(Var::from_op(
            "linear",
            y,
            vec![self.clone(), weight.clone(), bias.clone()],
            Box::new(|g, parents| {
                // dx = g · w
                if parents[0].requires_grad() {
                    let dx = g.matmul(&parents[1].value()).expect("linear backward dx");
                    parents[0].accumulate_grad(dx);
                }
                // dw = gᵀ · x without materializing gᵀ
                if parents[1].requires_grad() {
                    let dw = g.matmul_at_b(&parents[0].value()).expect("linear backward dw");
                    parents[1].accumulate_grad(dw);
                }
                // db = column sums of g
                if parents[2].requires_grad() {
                    parents[2].accumulate_grad(g.sum_axis(0).expect("linear backward db"));
                }
                g.recycle();
            }),
        ))
    }

    // ---------------------------------------------------------- convolution

    /// 2-D convolution `(B,C,H,W) ⊛ (O,C,Kh,Kw)`, geometry-checked.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if input or weight does not match `geometry`.
    pub fn conv2d(&self, weight: &Var, geometry: Conv2dGeometry) -> Result<Var, ShapeError> {
        let value = conv::conv2d(&self.value(), &weight.value(), &geometry)?;
        Ok(Var::from_op(
            "conv2d",
            value,
            vec![self.clone(), weight.clone()],
            Box::new(move |g, parents| {
                if parents[0].requires_grad() {
                    let dx = conv::conv2d_input_grad(&g, &parents[1].value(), &geometry)
                        .expect("conv2d backward dx");
                    parents[0].accumulate_grad(dx);
                }
                if parents[1].requires_grad() {
                    let dw = conv::conv2d_weight_grad(&parents[0].value(), &g, &geometry)
                        .expect("conv2d backward dw");
                    parents[1].accumulate_grad(dw);
                }
                g.recycle();
            }),
        ))
    }

    // -------------------------------------------------------------- pooling

    /// Average pooling with window and stride `k`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input is not 4-D or `k` does not divide
    /// the spatial dims.
    pub fn avg_pool2d(&self, k: usize) -> Result<Var, ShapeError> {
        let value = pool::avg_pool2d(&self.value(), k)?;
        let in_hw = {
            let s = self.shape();
            (s[2], s[3])
        };
        Ok(Var::from_op(
            "avg_pool2d",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dx = pool::avg_pool2d_backward(&g, k, in_hw).expect("avg_pool backward");
                parents[0].accumulate_grad(dx);
                g.recycle();
            }),
        ))
    }

    /// Global average pooling `(B,C,H,W) -> (B,C)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input is not 4-D.
    pub fn global_avg_pool(&self) -> Result<Var, ShapeError> {
        let value = pool::global_avg_pool(&self.value())?;
        let in_hw = {
            let s = self.shape();
            (s[2], s[3])
        };
        Ok(Var::from_op(
            "global_avg_pool",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dx = pool::global_avg_pool_backward(&g, in_hw).expect("gap backward");
                parents[0].accumulate_grad(dx);
                g.recycle();
            }),
        ))
    }

    // ------------------------------------------------------------ batchnorm

    /// Training-mode 2-D batch normalization with affine parameters and an
    /// extra constant scale (tdBN multiplies by `α·V_th`).
    ///
    /// Statistics are computed per channel over `(B, H, W)` of this batch:
    /// `y = γ · k · (x − μ)/√(σ² + eps) + β`.
    ///
    /// The node keeps the per-channel `μ` and `1/√(σ² + eps)` only; backward
    /// recomputes `x̂` from the input it reads off the tape. Both directions
    /// run on the global kernel pool in two phases — per-channel reductions,
    /// then per-sample elementwise work — with thread-count-independent
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x` is not 4-D or `gamma`/`beta` are not
    /// `[C]`-shaped.
    pub fn batch_norm2d(
        &self,
        gamma: &Var,
        beta: &Var,
        eps: f32,
        extra_scale: f32,
    ) -> Result<Var, ShapeError> {
        let x = self.value();
        if x.ndim() != 4 {
            return Err(ShapeError::new(format!(
                "batch_norm2d: expected 4-D input, got {:?}",
                x.shape()
            )));
        }
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        if gamma.shape() != [c] || beta.shape() != [c] {
            return Err(ShapeError::new(format!(
                "batch_norm2d: gamma/beta must be [{c}], got {:?}/{:?}",
                gamma.shape(),
                beta.shape()
            )));
        }
        let dims = BnDims { b, c, plane: h * w };
        let mut y = Tensor::scratch(&[b, c, h, w]);
        let stats = {
            let (gv, bv) = (gamma.value(), beta.value());
            let affine = (gv.data(), bv.data(), extra_scale);
            bn_forward(Runtime::global(), dims, x.data(), affine, eps, y.data_mut())
        };
        drop(x);
        Ok(Var::from_op(
            "batch_norm2d",
            y,
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(move |mut g, parents| {
                let mut dgamma = Tensor::scratch(&[c]);
                let mut dbeta = Tensor::scratch(&[c]);
                {
                    let (x, gv) = (parents[0].value(), parents[1].value());
                    let scale = (gv.data(), extra_scale);
                    with_scratch(2 * c, |sums: &mut [f32]| {
                        let rt = Runtime::global();
                        bn_backward(rt, dims, x.data(), &stats, scale, g.data_mut(), sums);
                        for (ch, s) in sums.chunks(2).enumerate() {
                            dbeta.data_mut()[ch] = s[0];
                            dgamma.data_mut()[ch] = s[1] * extra_scale;
                        }
                    });
                }
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(dgamma);
                parents[2].accumulate_grad(dbeta);
            }),
        ))
    }
}

/// Shape of a batch-norm operand: `(B, C, H·W)`.
#[derive(Clone, Copy)]
struct BnDims {
    b: usize,
    c: usize,
    plane: usize,
}

/// What one element of a channel reduction costs in the streamed `f32`
/// operations `runtime::fork_grain` counts in: the sums below are
/// sequential by contract (their order is what `train_bits` pins), so each
/// add waits ≈ 4 cycles for the one before it where a streamed kernel
/// retires several operations a cycle. Counting them at face value leaves
/// the statistics passes of the two deepest ResNet stages (4 × 4 and 2 × 2
/// planes) on one core and the `train_htt_events` step at 29.2 ms; at 8 it
/// is 28.1 ms, and 16 changes nothing.
const CHAIN_COST: usize = 8;

/// Batch-norm forward in two pool phases. Phase 1 fills the returned
/// `[C × 2]` array of per-channel `(μ, 1/√(σ² + eps))`, a channel per slab,
/// each channel summed by one task in sample order. Phase 2 writes
/// `y = γ·k·(x − μ)/√(σ² + eps) + β`, a sample per slab. Neither split
/// changes what an element computes, so the result does not depend on the
/// thread count. `affine` is `(γ, β, k)`.
fn bn_forward(
    rt: &Runtime,
    BnDims { b, c, plane }: BnDims,
    xd: &[f32],
    (gamma, beta, extra_scale): (&[f32], &[f32], f32),
    eps: f32,
    yd: &mut [f32],
) -> Vec<f32> {
    let n = (b * plane) as f32;
    let mut stats = vec![0.0f32; 2 * c];
    rt.parallel_over_slabs(&mut stats, 2, fork_grain(2 * CHAIN_COST * b * plane), |ch, st| {
        let channel = channel_planes(b, c, ch, plane);
        let mut acc = 0.0;
        for r in channel.clone() {
            acc += xd[r].iter().sum::<f32>();
        }
        let m = acc / n;
        let mut vacc = 0.0;
        for r in channel {
            vacc += xd[r].iter().map(|v| (v - m).powi(2)).sum::<f32>();
        }
        st[0] = m;
        st[1] = 1.0 / (vacc / n + eps).sqrt();
    });
    let slab = c * plane;
    rt.parallel_over_slabs(yd, slab, fork_grain(4 * slab), |s, y_s| {
        let x_s = &xd[s * slab..(s + 1) * slab];
        for (ch, st) in stats.chunks(2).enumerate() {
            let (m, inv) = (st[0], st[1]);
            let (gk, shift) = (gamma[ch] * extra_scale, beta[ch]);
            let r = ch * plane..(ch + 1) * plane;
            for (o, &v) in y_s[r.clone()].iter_mut().zip(&x_s[r]) {
                *o = gk * ((v - m) * inv) + shift;
            }
        }
    });
    stats
}

/// Batch-norm backward in the same two phases. Phase 1 fills `sums`, a
/// `[C × 2]` array, with the per-channel reductions `(Σ dy, Σ dy·x̂)`;
/// phase 2 rewrites `gd` from `dy` to `dx` in place, a sample per slab
/// (element `i` needs `dy[i]` and its channel's two sums only). `stats` is
/// [`bn_forward`]'s result, `scale` is `(γ, k)`.
fn bn_backward(
    rt: &Runtime,
    BnDims { b, c, plane }: BnDims,
    xd: &[f32],
    stats: &[f32],
    (gamma, extra_scale): (&[f32], f32),
    gd: &mut [f32],
    sums: &mut [f32],
) {
    let n = (b * plane) as f32;
    {
        let gd = &*gd;
        rt.parallel_over_slabs(sums, 2, fork_grain(2 * CHAIN_COST * b * plane), |ch, su| {
            let (m, inv) = (stats[2 * ch], stats[2 * ch + 1]);
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for r in channel_planes(b, c, ch, plane) {
                for (&dy, &v) in gd[r.clone()].iter().zip(&xd[r]) {
                    sum_dy += dy;
                    sum_dy_xhat += dy * ((v - m) * inv);
                }
            }
            su[0] = sum_dy;
            su[1] = sum_dy_xhat;
        });
    }
    let slab = c * plane;
    rt.parallel_over_slabs(gd, slab, fork_grain(8 * slab), |s, g_s| {
        let x_s = &xd[s * slab..(s + 1) * slab];
        for ch in 0..c {
            let (m, inv) = (stats[2 * ch], stats[2 * ch + 1]);
            let (sum_dy, sum_dy_xhat) = (sums[2 * ch], sums[2 * ch + 1]);
            let coeff = gamma[ch] * extra_scale * inv / n;
            let r = ch * plane..(ch + 1) * plane;
            for (dy, &v) in g_s[r.clone()].iter_mut().zip(&x_s[r]) {
                let xh = (v - m) * inv;
                *dy = coeff * (n * *dy - sum_dy - xh * sum_dy_xhat);
            }
        }
    });
}

/// Softmax cross-entropy over logits `(B, K)` against integer labels,
/// averaged over the batch. Returns a `[1]`-shaped scalar node.
///
/// # Errors
///
/// Returns [`ShapeError`] if `logits` is not 2-D, `labels.len()` differs
/// from the batch size, or any label is out of range.
pub fn cross_entropy_logits(logits: &Var, labels: &[usize]) -> Result<Var, ShapeError> {
    let x = logits.value();
    if x.ndim() != 2 {
        return Err(ShapeError::new(format!(
            "cross_entropy_logits: expected (B,K) logits, got {:?}",
            x.shape()
        )));
    }
    let (b, k) = (x.shape()[0], x.shape()[1]);
    if labels.len() != b {
        return Err(ShapeError::new(format!(
            "cross_entropy_logits: {} labels for batch of {b}",
            labels.len()
        )));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= k) {
        return Err(ShapeError::new(format!(
            "cross_entropy_logits: label {bad} out of range for {k} classes"
        )));
    }
    let mut loss = 0.0f32;
    let mut probs = Tensor::scratch(&[k]);
    for (row, &label) in x.data().chunks(k.max(1)).zip(labels) {
        let (m, z) = softmax_row(row, probs.data_mut());
        loss += z.ln() + m - row[label];
    }
    probs.recycle();
    loss /= b as f32;
    drop(x);
    let labels: Vec<usize> = labels.to_vec();
    Ok(Var::from_op(
        "cross_entropy_logits",
        scalar(loss),
        vec![logits.clone()],
        Box::new(move |g, parents| {
            // d loss / d logits = (softmax − onehot) · g / B, the softmax
            // recomputed from the logits on the tape.
            let scale = g.data()[0] / b as f32;
            g.recycle();
            let mut dx = Tensor::scratch(&[b, k]);
            let x = parents[0].value();
            for ((row, drow), &l) in
                x.data().chunks(k.max(1)).zip(dx.data_mut().chunks_mut(k.max(1))).zip(&labels)
            {
                softmax_row(row, drow);
                drow[l] -= 1.0;
            }
            drop(x);
            dx.map_inplace(|v| v * scale);
            parents[0].accumulate_grad(dx);
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::Rng;

    /// Central-difference gradient check: perturbs `param` elementwise and
    /// compares to the autograd gradient of `loss_fn`.
    fn grad_check(param: &Var, loss_fn: impl Fn() -> Var, indices: &[usize], eps: f32, tol: f32) {
        param.zero_grad();
        let loss = loss_fn();
        loss.backward();
        let analytic = param.grad().expect("no gradient reached the parameter");
        for &idx in indices {
            let orig = param.to_tensor().data()[idx];
            param.update_value(|t| t.data_mut()[idx] = orig + eps);
            let lp = loss_fn().to_tensor().data()[0];
            param.update_value(|t| t.data_mut()[idx] = orig - eps);
            let lm = loss_fn().to_tensor().data()[0];
            param.update_value(|t| t.data_mut()[idx] = orig);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + a.abs().max(numeric.abs())),
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// Batch norm forward and backward as one channel-major serial loop —
    /// how the op was written before it ran on the pool, kept as the
    /// bit-level reference. Returns `y`, `dx` and the `[C × 2]` array of
    /// `(Σ dy, Σ dy·x̂)`.
    fn bn_serial(
        (b, c, plane): (usize, usize, usize),
        xd: &[f32],
        dyd: &[f32],
        (gamma, beta, extra_scale): (&[f32], &[f32], f32),
        eps: f32,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = (b * plane) as f32;
        let mut y = vec![0.0f32; xd.len()];
        let mut dx = dyd.to_vec();
        let mut sums = vec![0.0f32; 2 * c];
        for ch in 0..c {
            let channel = channel_planes(b, c, ch, plane);
            let mut acc = 0.0;
            for r in channel.clone() {
                acc += xd[r].iter().sum::<f32>();
            }
            let m = acc / n;
            let mut vacc = 0.0;
            for r in channel.clone() {
                vacc += xd[r].iter().map(|v| (v - m).powi(2)).sum::<f32>();
            }
            let inv = 1.0 / (vacc / n + eps).sqrt();
            let (gk, shift) = (gamma[ch] * extra_scale, beta[ch]);
            for r in channel.clone() {
                for (o, &v) in y[r.clone()].iter_mut().zip(&xd[r]) {
                    *o = gk * ((v - m) * inv) + shift;
                }
            }
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for r in channel.clone() {
                for (&dy, &v) in dx[r.clone()].iter().zip(&xd[r]) {
                    sum_dy += dy;
                    sum_dy_xhat += dy * ((v - m) * inv);
                }
            }
            sums[2 * ch] = sum_dy;
            sums[2 * ch + 1] = sum_dy_xhat;
            let coeff = gamma[ch] * extra_scale * inv / n;
            for r in channel {
                for (dy, &v) in dx[r.clone()].iter_mut().zip(&xd[r]) {
                    let xh = (v - m) * inv;
                    *dy = coeff * (n * *dy - sum_dy - xh * sum_dy_xhat);
                }
            }
        }
        (y, dx, sums)
    }

    fn slice_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The two pool phases give the serial loop's bits at every thread
        /// count, on shapes from one element up to ones where both phases
        /// fork (channels split once `16·B·H·W·C` passes the fork grain,
        /// samples once `4·C·H·W·B` does), `B = 1` and `C = 1` included.
        #[test]
        fn batch_norm_bit_equal_to_serial_loop_across_threads(
            seed in 0u64..10_000,
            b in 1usize..9,
            c in 1usize..17,
            h in 1usize..13,
            w in 1usize..13,
        ) {
            let mut rng = Rng::seed_from(seed);
            let dims = BnDims { b, c, plane: h * w };
            let x = Tensor::randn(&[b, c, h, w], &mut rng);
            let dy = Tensor::randn(&[b, c, h, w], &mut rng);
            let gamma = Tensor::randn(&[c], &mut rng);
            let beta = Tensor::randn(&[c], &mut rng);
            let affine = (gamma.data(), beta.data(), 0.7);
            let (y0, dx0, sums0) = bn_serial((b, c, h * w), x.data(), dy.data(), affine, 1e-5);
            for threads in 1..=8 {
                let rt = Runtime::new(threads);
                let mut y = vec![f32::NAN; x.len()];
                let stats = bn_forward(&rt, dims, x.data(), affine, 1e-5, &mut y);
                proptest::prop_assert_eq!(slice_bits(&y), slice_bits(&y0), "y at {} threads", threads);
                let mut g = dy.data().to_vec();
                let mut sums = vec![f32::NAN; 2 * c];
                bn_backward(&rt, dims, x.data(), &stats, (gamma.data(), 0.7), &mut g, &mut sums);
                proptest::prop_assert_eq!(slice_bits(&g), slice_bits(&dx0), "dx at {} threads", threads);
                proptest::prop_assert_eq!(slice_bits(&sums), slice_bits(&sums0), "sums at {} threads", threads);
            }
        }
    }

    #[test]
    fn add_sub_mul_grads() {
        let mut rng = Rng::seed_from(40);
        let a = Var::param(Tensor::randn(&[6], &mut rng));
        let b = Var::param(Tensor::randn(&[6], &mut rng));
        grad_check(
            &a,
            || a.add(&b).unwrap().mul(&a).unwrap().sum_to_scalar(),
            &[0, 3, 5],
            1e-2,
            1e-2,
        );
        grad_check(&b, || a.sub(&b).unwrap().mul(&b).unwrap().sum_to_scalar(), &[1, 4], 1e-2, 1e-2);
    }

    #[test]
    fn scale_and_add_scalar_grads() {
        let x = Var::param(Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap());
        let loss = x.scale(4.0).add_scalar(3.0).sum_to_scalar();
        loss.backward();
        assert_eq!(x.grad().unwrap().data(), &[4.0, 4.0]);
    }

    #[test]
    fn scale_by_learned_scalar() {
        let mut rng = Rng::seed_from(41);
        let x = Var::param(Tensor::randn(&[5], &mut rng));
        let s = Var::param(Tensor::from_vec(vec![0.7], &[1]).unwrap());
        grad_check(
            &s,
            || x.scale_by(&s).unwrap().mul(&x).unwrap().sum_to_scalar(),
            &[0],
            1e-2,
            1e-2,
        );
        grad_check(&x, || x.scale_by(&s).unwrap().sum_to_scalar(), &[0, 2], 1e-2, 1e-2);
        assert!(x.scale_by(&x).is_err());
    }

    #[test]
    fn relu_grad_masks_negatives() {
        let x = Var::param(Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]).unwrap());
        x.relu().sum_to_scalar().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn spike_forward_is_binary() {
        let u = Var::constant(Tensor::from_vec(vec![0.1, 0.5, 0.9, -0.2], &[4]).unwrap());
        let s = u.spike(0.5, Surrogate::default());
        assert_eq!(s.to_tensor().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn spike_backward_uses_surrogate() {
        let u = Var::param(Tensor::from_vec(vec![0.2, 0.5, 1.2], &[3]).unwrap());
        let s = u.spike(0.5, Surrogate::Rectangle { width: 1.0 });
        s.sum_to_scalar().backward();
        // |u-0.5| < 0.5 for 0.2 and 0.5 (and 1.2 is outside: |0.7| >= 0.5)
        assert_eq!(u.grad().unwrap().data(), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn surrogate_shapes() {
        let rect = Surrogate::Rectangle { width: 2.0 };
        assert_eq!(rect.grad(0.0), 0.5);
        assert_eq!(rect.grad(1.5), 0.0);
        let tri = Surrogate::Triangle { width: 1.0 };
        assert_eq!(tri.grad(0.0), 1.0);
        assert_eq!(tri.grad(1.0), 0.0);
        assert!((tri.grad(0.5) - 0.5).abs() < 1e-6);
        let atan = Surrogate::Atan { alpha: 2.0 };
        assert!(atan.grad(0.0) > atan.grad(1.0));
    }

    #[test]
    fn matmul_grads() {
        let mut rng = Rng::seed_from(42);
        let a = Var::param(Tensor::randn(&[3, 4], &mut rng));
        let b = Var::param(Tensor::randn(&[4, 2], &mut rng));
        grad_check(&a, || a.matmul(&b).unwrap().sum_to_scalar(), &[0, 5, 11], 1e-2, 1e-2);
        grad_check(&b, || a.matmul(&b).unwrap().sum_to_scalar(), &[0, 7], 1e-2, 1e-2);
    }

    #[test]
    fn linear_grads() {
        let mut rng = Rng::seed_from(43);
        let x = Var::param(Tensor::randn(&[2, 5], &mut rng));
        let w = Var::param(Tensor::randn(&[3, 5], &mut rng));
        let b = Var::param(Tensor::randn(&[3], &mut rng));
        grad_check(&x, || x.linear(&w, &b).unwrap().sum_to_scalar(), &[0, 9], 1e-2, 1e-2);
        grad_check(&w, || x.linear(&w, &b).unwrap().sum_to_scalar(), &[0, 14], 1e-2, 1e-2);
        grad_check(&b, || x.linear(&w, &b).unwrap().sum_to_scalar(), &[0, 2], 1e-2, 1e-2);
    }

    #[test]
    fn linear_rejects_bad_shapes() {
        let x = Var::constant(Tensor::zeros(&[2, 5]));
        let w = Var::constant(Tensor::zeros(&[3, 4]));
        let b = Var::constant(Tensor::zeros(&[3]));
        assert!(x.linear(&w, &b).is_err());
    }

    #[test]
    fn conv2d_grads() {
        let mut rng = Rng::seed_from(44);
        let g = Conv2dGeometry::new(2, 3, (5, 5), (3, 3), (1, 1), (1, 1));
        let x = Var::param(Tensor::randn(&[1, 2, 5, 5], &mut rng));
        let w = Var::param(Tensor::randn(&[3, 2, 3, 3], &mut rng));
        grad_check(&x, || x.conv2d(&w, g).unwrap().sum_to_scalar(), &[0, 11, 33], 1e-2, 2e-2);
        grad_check(&w, || x.conv2d(&w, g).unwrap().sum_to_scalar(), &[0, 25, 53], 1e-2, 2e-2);
    }

    #[test]
    fn conv2d_asymmetric_kernel_grads() {
        let mut rng = Rng::seed_from(45);
        let g = Conv2dGeometry::new(2, 2, (4, 4), (1, 3), (1, 1), (0, 1));
        let x = Var::param(Tensor::randn(&[1, 2, 4, 4], &mut rng));
        let w = Var::param(Tensor::randn(&[2, 2, 1, 3], &mut rng));
        grad_check(&w, || x.conv2d(&w, g).unwrap().sum_to_scalar(), &[0, 5, 11], 1e-2, 2e-2);
    }

    #[test]
    fn pooling_grads() {
        let mut rng = Rng::seed_from(46);
        let x = Var::param(Tensor::randn(&[1, 2, 4, 4], &mut rng));
        grad_check(&x, || x.avg_pool2d(2).unwrap().sum_to_scalar(), &[0, 15, 31], 1e-2, 1e-2);
        grad_check(&x, || x.global_avg_pool().unwrap().sum_to_scalar(), &[3, 17], 1e-2, 1e-2);
    }

    #[test]
    fn reshape_grad_flows() {
        let mut rng = Rng::seed_from(47);
        let x = Var::param(Tensor::randn(&[2, 6], &mut rng));
        grad_check(
            &x,
            || {
                x.reshape(&[3, 4])
                    .unwrap()
                    .mul(&x.reshape(&[3, 4]).unwrap())
                    .unwrap()
                    .sum_to_scalar()
            },
            &[0, 7],
            1e-2,
            1e-2,
        );
    }

    #[test]
    fn batch_norm_normalizes() {
        let mut rng = Rng::seed_from(48);
        let x = Var::constant(Tensor::randn(&[4, 3, 5, 5], &mut rng).scale(3.0).add_scalar(2.0));
        let gamma = Var::param(Tensor::ones(&[3]));
        let beta = Var::param(Tensor::zeros(&[3]));
        let y = x.batch_norm2d(&gamma, &beta, 1e-5, 1.0).unwrap();
        let v = y.to_tensor();
        // per-channel mean ~0, var ~1
        let plane = 25;
        for ch in 0..3 {
            let mut vals = Vec::new();
            for s in 0..4 {
                let start = (s * 3 + ch) * plane;
                vals.extend_from_slice(&v.data()[start..start + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batch_norm_extra_scale_applied() {
        let mut rng = Rng::seed_from(49);
        let x = Var::constant(Tensor::randn(&[2, 1, 4, 4], &mut rng));
        let gamma = Var::param(Tensor::ones(&[1]));
        let beta = Var::param(Tensor::zeros(&[1]));
        let y1 = x.batch_norm2d(&gamma, &beta, 1e-5, 1.0).unwrap().to_tensor();
        let y2 = x.batch_norm2d(&gamma, &beta, 1e-5, 0.5).unwrap().to_tensor();
        assert!(y1.scale(0.5).max_abs_diff(&y2).unwrap() < 1e-6);
    }

    #[test]
    fn batch_norm_grads() {
        let mut rng = Rng::seed_from(50);
        let x = Var::param(Tensor::randn(&[2, 2, 3, 3], &mut rng));
        let gamma = Var::param(Tensor::rand_uniform(&[2], 0.5, 1.5, &mut rng));
        let beta = Var::param(Tensor::randn(&[2], &mut rng));
        let m = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let mc = Var::constant(m);
        let loss_fn =
            || x.batch_norm2d(&gamma, &beta, 1e-5, 0.8).unwrap().mul(&mc).unwrap().sum_to_scalar();
        grad_check(&gamma, loss_fn, &[0, 1], 1e-2, 2e-2);
        grad_check(&beta, loss_fn, &[0, 1], 1e-2, 2e-2);
        grad_check(&x, loss_fn, &[0, 8, 17, 35], 1e-2, 5e-2);
    }

    #[test]
    fn batch_norm_rejects_bad_shapes() {
        let x = Var::constant(Tensor::zeros(&[2, 3, 4, 4]));
        let ok = Var::constant(Tensor::zeros(&[3]));
        let bad = Var::constant(Tensor::zeros(&[2]));
        assert!(x.batch_norm2d(&bad, &ok, 1e-5, 1.0).is_err());
        assert!(Var::constant(Tensor::zeros(&[2, 3])).batch_norm2d(&ok, &ok, 1e-5, 1.0).is_err());
    }

    #[test]
    fn cross_entropy_known_value() {
        // uniform logits -> loss = ln(K)
        let logits = Var::param(Tensor::zeros(&[2, 4]));
        let loss = cross_entropy_logits(&logits, &[0, 3]).unwrap();
        assert!((loss.to_tensor().data()[0] - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grads() {
        let mut rng = Rng::seed_from(51);
        let logits = Var::param(Tensor::randn(&[3, 5], &mut rng));
        grad_check(
            &logits,
            || cross_entropy_logits(&logits, &[1, 0, 4]).unwrap(),
            &[0, 6, 14],
            1e-2,
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_validation() {
        let logits = Var::constant(Tensor::zeros(&[2, 3]));
        assert!(cross_entropy_logits(&logits, &[0]).is_err());
        assert!(cross_entropy_logits(&logits, &[0, 3]).is_err());
        assert!(cross_entropy_logits(&Var::constant(Tensor::zeros(&[6])), &[0]).is_err());
    }

    #[test]
    fn cross_entropy_decreases_under_gradient_step() {
        let mut rng = Rng::seed_from(52);
        let logits = Var::param(Tensor::randn(&[4, 3], &mut rng));
        let labels = [0usize, 1, 2, 0];
        let l0 = cross_entropy_logits(&logits, &labels).unwrap();
        l0.backward();
        let g = logits.grad().unwrap();
        logits.update_value(|t| t.add_scaled(&g, -0.5).unwrap());
        let l1 = cross_entropy_logits(&logits, &labels).unwrap();
        assert!(l1.to_tensor().data()[0] < l0.to_tensor().data()[0]);
    }

    #[test]
    fn lif_style_bptt_chain_has_temporal_gradient() {
        // u_t = 0.25 * u_{t-1} + w * x_t ; s_t = spike(u_t); loss = sum_t s_t
        // Gradient must flow to w through all timesteps.
        let w = Var::param(Tensor::from_vec(vec![0.4], &[1]).unwrap());
        let mut u = Var::constant(Tensor::zeros(&[1]));
        let mut total = Var::constant(Tensor::zeros(&[1]));
        for t in 0..4 {
            let x = Var::constant(Tensor::from_vec(vec![0.5 + 0.1 * t as f32], &[1]).unwrap());
            let i = w.mul(&x).unwrap();
            u = u.scale(0.25).add(&i).unwrap();
            let s = u.spike(0.5, Surrogate::default());
            total = total.add(&s).unwrap();
        }
        total.sum_to_scalar().backward();
        let g = w.grad().unwrap().data()[0];
        assert!(g > 0.0, "temporal gradient should be positive, got {g}");
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The fused LIF ops against the chains they replace, bit for bit:
    /// values, and the gradients reaching both inputs — signs of zero and
    /// the `u == vth` edge included.
    #[test]
    fn scale_add_and_hard_reset_match_their_chains_bitwise() {
        let mut rng = Rng::seed_from(53);
        let (tau, vth) = (0.25, 0.5);
        let mut m0 = Tensor::randn(&[3, 7], &mut rng);
        let mut x0 = Tensor::randn(&[3, 7], &mut rng);
        m0.data_mut()[..3].copy_from_slice(&[-0.0, 0.0, 2.0]);
        x0.data_mut()[..3].copy_from_slice(&[-0.0, -0.0, 0.0]); // u = -0.0, 0.0, vth
        let seed = Tensor::randn(&[3, 7], &mut rng).map(|v| if v.abs() < 0.2 { -0.0 } else { v });
        let run = |fused: bool| {
            let (m, x) = (Var::param(m0.clone()), Var::param(x0.clone()));
            let (u, next) = if fused {
                let u = m.scale_add(tau, &x).unwrap();
                let next = u.hard_reset(vth);
                (u, next)
            } else {
                let u = m.scale(tau).add(&x).unwrap();
                let gate = u.spike(vth, Surrogate::default()).detach().scale(-1.0).add_scalar(1.0);
                let next = u.mul(&gate).unwrap();
                (u, next)
            };
            let out = (bits(&u.value()), bits(&next.value()));
            next.backward_with_seed(&seed);
            (out, bits(&m.grad().unwrap()), bits(&x.grad().unwrap()))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn hard_reset_zeroes_fired_neurons_and_blocks_their_gradient() {
        let u = Var::param(Tensor::from_vec(vec![0.2, 0.5, 1.5, -0.3], &[4]).unwrap());
        let m = u.hard_reset(0.5);
        assert_eq!(m.value().data(), &[0.2, 0.0, 0.0, -0.3]);
        m.sum_to_scalar().backward();
        assert_eq!(u.grad().unwrap().data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    /// Every surrogate variant: the hoisted whole-tensor form equals the
    /// per-element `Surrogate::grad` it replaced.
    #[test]
    fn spike_backward_matches_per_element_surrogate_bitwise() {
        let mut rng = Rng::seed_from(54);
        let vth = 0.5;
        for surrogate in [
            Surrogate::Rectangle { width: 0.8 },
            Surrogate::Triangle { width: 1.3 },
            Surrogate::Atan { alpha: 2.0 },
        ] {
            let u = Var::param(Tensor::randn(&[40], &mut rng));
            let seed = Tensor::randn(&[40], &mut rng);
            u.spike(vth, surrogate).backward_with_seed(&seed);
            let want: Vec<u32> = seed
                .data()
                .iter()
                .zip(u.value().data())
                .map(|(g, uv)| (g * surrogate.grad(uv - vth)).to_bits())
                .collect();
            assert_eq!(bits(&u.grad().unwrap()), want, "{surrogate:?}");
        }
    }
}
