//! Differentiable operations on [`Var`].
//!
//! Each op computes its forward value eagerly with [`ttsnn_tensor`] kernels
//! and records a backward closure that distributes the output gradient to
//! its parents. The op set is exactly what the TT-SNN training pipeline
//! (Algorithm 1 of the paper) needs:
//!
//! * [`Var::lif_scan`] — the LIF neuron of Eq. (1) over every timestep of a
//!   layer at once: leak, integrate, fire, hard reset, and the surrogate
//!   BPTT recurrence, as one tape node;
//! * elementwise arithmetic and scaling;
//! * [`Var::conv2d`] — both the baseline 3×3 convolutions and the TT cores'
//!   1×1 / 3×1 / 1×3 sub-convolutions;
//! * [`Var::batch_norm2d`] — tdBN-style normalization, with statistics per
//!   group of rows (one group per timestep), and
//!   [`Var::scale_by_groups`], TEBN's learned scale per timestep;
//! * [`Var::rows`] / [`Var::concat_rows`] — cutting a time-major stack
//!   `[T·B, …]` (row `t·B + s`) into runs of timesteps and joining them;
//! * [`Var::linear`], pooling, and [`cross_entropy_logits`] — the classifier
//!   head and loss of Algorithm 1 lines 14–16.
//!
//! # What a backward closure may touch
//!
//! Every output and every gradient is a `Tensor::scratch` buffer. A closure
//! owns the gradient it is handed: it rewrites it in place where the
//! parent's gradient has the same shape, moves it into the (last) parent
//! that wants it, and recycles it otherwise. Forward inputs are read from
//! `parents[i].value()` — no closure captures a copy of a tensor. A forward
//! by-product only the backward needs (the scan's membranes, batch norm's
//! statistics) is kept in a private `Saved` wrapper, which returns it to the
//! arena with the node.

use std::cell::RefCell;
use std::rc::Rc;

use ttsnn_tensor::norm::{self, NormDims};
use ttsnn_tensor::runtime::{with_scratch, Runtime};
use ttsnn_tensor::{conv, lif, pool, Conv2dGeometry, ShapeError, Tensor};

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

/// The three shapes as functions of `x = u − V_th`, each with its constants
/// worked out once: a division left inside the window test keeps the loop
/// around it from vectorising (the scan's backward ran 7 × slower for it).
fn rectangle(width: f32) -> impl Fn(f32) -> f32 + Copy + Sync {
    let (half, height) = (width / 2.0, 1.0 / width);
    move |x| if x.abs() < half { height } else { 0.0 }
}

fn triangle(width: f32) -> impl Fn(f32) -> f32 + Copy + Sync {
    move |x| {
        let t = 1.0 - x.abs() / width;
        if t > 0.0 {
            t / width
        } else {
            0.0
        }
    }
}

fn atan(alpha: f32) -> impl Fn(f32) -> f32 + Copy + Sync {
    move |x| {
        let s = std::f32::consts::FRAC_PI_2 * alpha * x;
        alpha / (2.0 * (1.0 + s * s))
    }
}

impl Surrogate {
    /// Evaluates the surrogate derivative at `x = u - vth`.
    pub fn grad(&self, x: f32) -> f32 {
        match *self {
            Surrogate::Rectangle { width } => rectangle(width)(x),
            Surrogate::Triangle { width } => triangle(width)(x),
            Surrogate::Atan { alpha } => atan(alpha)(x),
        }
    }
}

/// A `[1]`-shaped tensor holding `v` (an arena buffer like every other
/// value on the tape: what a dropped node recycles, an op must have taken).
fn scalar(v: f32) -> Tensor {
    let mut t = Tensor::scratch(&[1]);
    t.data_mut()[0] = v;
    t
}

/// A forward by-product that only a node's backward closure (and whoever
/// shares it through an `Rc`) reads. An arena buffer like every value on the
/// tape, so it goes back there when the node that captured it drops.
struct Saved(Tensor);

impl Drop for Saved {
    fn drop(&mut self) {
        std::mem::take(&mut self.0).recycle();
    }
}

/// Rows per group when the leading axis of `shape` is cut into `groups`
/// equal runs (a time-major stack `[T·B, …]` into its `T` timesteps).
fn rows_per_group(op: &str, shape: &[usize], groups: usize) -> Result<usize, ShapeError> {
    match shape.first() {
        Some(&rows) if groups > 0 && rows.is_multiple_of(groups) => Ok(rows / groups),
        _ => Err(ShapeError::new(format!(
            "{op}: cannot cut shape {shape:?} into {groups} equal groups of rows"
        ))),
    }
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

    /// Multiplies every element by a **learned scalar** (a `Var` holding a
    /// single element): [`Var::scale_by_groups`] with one group.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `s` does not hold exactly one element.
    pub fn scale_by(&self, s: &Var) -> Result<Var, ShapeError> {
        self.scale_by_groups(std::slice::from_ref(s))
    }

    /// Cuts the leading axis into `scales.len()` equal groups of rows and
    /// multiplies group `g` by the **learned scalar** `scales[g]` — TEBN's
    /// per-timestep scale over a time-major stack, in one node. Each
    /// scale's gradient is `Σ g·x` over its group, summed in element order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a scale does not hold exactly one element
    /// or the leading axis does not divide into `scales.len()` groups.
    pub fn scale_by_groups(&self, scales: &[Var]) -> Result<Var, ShapeError> {
        if let Some(bad) = scales.iter().find(|s| s.value().len() != 1) {
            return Err(ShapeError::new(format!(
                "scale_by: scale must be a single element, got {:?}",
                bad.shape()
            )));
        }
        let x = self.value();
        let rows = rows_per_group("scale_by", x.shape(), scales.len())?;
        // Elements per group (at least one, so the chunking below is defined
        // on an empty tensor too).
        let group = (rows * x.len() / x.shape()[0].max(1)).max(1);
        let factors: Vec<f32> = scales.iter().map(|s| s.value().data()[0]).collect();
        let mut value = Tensor::scratch(x.shape());
        for ((out, xs), &sv) in
            value.data_mut().chunks_mut(group).zip(x.data().chunks(group)).zip(&factors)
        {
            for (o, &v) in out.iter_mut().zip(xs) {
                *o = v * sv;
            }
        }
        drop(x);
        let mut parents = vec![self.clone()];
        parents.extend(scales.iter().cloned());
        Ok(Var::from_op(
            "scale_by",
            value,
            parents,
            Box::new(move |mut g, parents| {
                let chunks = g.data_mut().chunks_mut(group);
                for (((gs, xs), &sv), scale) in chunks
                    .zip(parents[0].value().data().chunks(group))
                    .zip(&factors)
                    .zip(&parents[1..])
                {
                    let ds: f32 = gs.iter().zip(xs).map(|(a, b)| a * b).sum();
                    gs.iter_mut().for_each(|v| *v *= sv);
                    scale.accumulate_grad(scalar(ds));
                }
                parents[0].accumulate_grad(g);
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

    /// The LIF neuron of Eq. (1) over `steps` timesteps at once. `self` is
    /// the synaptic input of a layer as a time-major stack `[steps·B, …]`
    /// (row `t·B + s`), `carry` the post-reset membrane `[B, …]` an earlier
    /// scan left behind ([`LifScan::carry`]), if any. Per neuron, in time
    /// order:
    ///
    /// ```text
    /// u_t = τ · m_{t−1} + x_t      (u_0 = x_0 + 0.0 without a carry)
    /// s_t = H(u_t − V_th)
    /// m_t = u_t · (1 − s_t)        (the gate detached: STBP)
    /// ```
    ///
    /// and backward the reverse scan `g_t = dS_t · σ'(u_t − V_th) +
    /// (τ · g_{t+1}) · (1 − s_t)`, `dx_t = g_t`, with the running value in
    /// registers. One node, one pass in each direction, on the global
    /// kernel pool over disjoint ranges of neurons
    /// ([`ttsnn_tensor::lif`], the kernels the inference plane runs too);
    /// the float operations are those of a per-timestep chain of
    /// `m.scale(τ).add(x)`, a surrogate spike node and `u · (1 − s)`, so
    /// values and gradients are bit-identical to it — whether the timesteps
    /// come in one call or carried across several.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the leading axis does not divide into
    /// `steps`, or `carry` is not shaped like one timestep of the input.
    pub fn lif_scan(
        &self,
        carry: Option<&Var>,
        steps: usize,
        tau: f32,
        vth: f32,
        surrogate: Surrogate,
    ) -> Result<LifScan, ShapeError> {
        let x = self.value();
        let batch = rows_per_group("lif_scan", x.shape(), steps)?;
        let mut step_shape = x.shape().to_vec();
        step_shape[0] = batch;
        if let Some(c) = carry.filter(|c| c.shape() != step_shape) {
            return Err(ShapeError::new(format!(
                "lif_scan: carry {:?} is not one timestep {step_shape:?} of the input",
                c.shape()
            )));
        }
        let mut u = Tensor::scratch(x.shape());
        let lif::Scanned { spikes, fired, .. } = {
            let carry = carry.map(Var::value);
            let keep = lif::Keep::Every { u: &mut u, carry: carry.as_deref() };
            lif::scan(&Runtime::current(), steps, (tau, vth), &x, keep, false)
        };
        drop(x);
        let tape = Rc::new(ScanTape { u: Saved(u), carry_grad: RefCell::new(None) });
        let mut parents = vec![self.clone()];
        parents.extend(carry.cloned());
        let node = Var::from_op("lif_scan", spikes, parents, {
            let tape = Rc::clone(&tape);
            Box::new(move |mut g, parents| {
                let carry_out = tape.carry_grad.borrow_mut().take();
                let mut dcarry = parents
                    .get(1)
                    .filter(|c| c.requires_grad())
                    .map(|c| Tensor::scratch(c.value().shape()));
                let neuron = (tau, vth, surrogate);
                let carries = (carry_out.as_ref().map(Tensor::data), dcarry.as_mut());
                lif_backward(steps, neuron, tape.u.0.data(), g.data_mut(), carries);
                carry_out.into_iter().for_each(Tensor::recycle);
                parents[0].accumulate_grad(g);
                if let Some(d) = dcarry {
                    parents[1].accumulate_grad(d);
                }
            })
        });
        Ok(LifScan { spikes: node, fired, tape, step_shape })
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

    /// Rows `start..start + len` of the leading axis, as a node of their
    /// own (the whole range is `self`, no node). On a time-major stack
    /// `[T·B, …]` this is a run of timesteps.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the value is 0-D or the range runs past its
    /// leading axis.
    pub fn rows(&self, start: usize, len: usize) -> Result<Var, ShapeError> {
        let x = self.value();
        let total = match x.shape().first() {
            Some(&total) if start + len <= total => total,
            _ => {
                return Err(ShapeError::new(format!(
                    "rows: [{start}, {}) out of range for shape {:?}",
                    start + len,
                    x.shape()
                )))
            }
        };
        if len == total {
            drop(x);
            return Ok(self.clone());
        }
        let row = x.len() / total;
        let mut shape = x.shape().to_vec();
        shape[0] = len;
        let mut value = Tensor::scratch(&shape);
        value.data_mut().copy_from_slice(&x.data()[start * row..(start + len) * row]);
        drop(x);
        Ok(Var::from_op(
            "rows",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accumulate_grad_rows(start, g)),
        ))
    }

    /// Joins `parts` along their leading axis, in order — the inverse of
    /// cutting a stack with [`Var::rows`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `parts` is empty, a part is 0-D, or the
    /// parts disagree past their leading axis.
    pub fn concat_rows(parts: &[Var]) -> Result<Var, ShapeError> {
        let mut shape = parts.first().map(Var::shape).unwrap_or_default();
        let lens: Vec<usize> = parts.iter().map(|p| p.value().len()).collect();
        if shape.is_empty() || parts.iter().any(|p| p.shape().get(1..) != shape.get(1..)) {
            return Err(ShapeError::new(format!(
                "concat_rows: cannot join shapes {:?} along the leading axis",
                parts.iter().map(Var::shape).collect::<Vec<_>>()
            )));
        }
        shape[0] = parts.iter().map(|p| p.shape()[0]).sum();
        let mut value = Tensor::scratch(&shape);
        let mut rest = value.data_mut();
        for (part, &len) in parts.iter().zip(&lens) {
            let (head, tail) = rest.split_at_mut(len);
            head.copy_from_slice(part.value().data());
            rest = tail;
        }
        Ok(Var::from_op(
            "concat_rows",
            value,
            parts.to_vec(),
            Box::new(move |g, parents| {
                let mut rest = g.data();
                for (part, &len) in parents.iter().zip(&lens) {
                    let (head, tail) = rest.split_at(len);
                    rest = tail;
                    if part.requires_grad() {
                        let mut dpart = Tensor::scratch(part.value().shape());
                        dpart.data_mut().copy_from_slice(head);
                        part.accumulate_grad(dpart);
                    }
                }
                g.recycle();
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
    /// The leading axis is cut into `groups` equal runs of samples — the
    /// timesteps of a time-major stack `[T·B, C, H, W]`, or one group for a
    /// plain batch — and statistics are computed per group and channel over
    /// the group's `(B, H, W)`: `y = γ · k · (x − μ)/√(σ² + eps) + β`. Every
    /// group's output and input gradient are those of a call on that group
    /// alone, bit for bit; the γ / β gradients add the groups' sums in group
    /// order.
    ///
    /// The node keeps the per-group, per-channel `μ` and `1/√(σ² + eps)`
    /// only; backward recomputes `x̂` from the input it reads off the tape.
    /// Both directions run on the global kernel pool in two phases —
    /// per-channel reductions, then per-sample elementwise work — with
    /// thread-count-independent bits.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x` is not 4-D, its leading axis does not
    /// divide into `groups`, or `gamma`/`beta` are not `[C]`-shaped.
    pub fn batch_norm2d(
        &self,
        gamma: &Var,
        beta: &Var,
        eps: f32,
        extra_scale: f32,
        groups: usize,
    ) -> Result<Var, ShapeError> {
        let x = self.value();
        if x.ndim() != 4 {
            return Err(ShapeError::new(format!(
                "batch_norm2d: expected 4-D input, got {:?}",
                x.shape()
            )));
        }
        let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
        let b = rows_per_group("batch_norm2d", x.shape(), groups)?;
        if gamma.shape() != [c] || beta.shape() != [c] {
            return Err(ShapeError::new(format!(
                "batch_norm2d: gamma/beta must be [{c}], got {:?}/{:?}",
                gamma.shape(),
                beta.shape()
            )));
        }
        let dims = NormDims { b, c, plane: h * w };
        let mut y = Tensor::scratch(x.shape());
        let mut stats = Saved(Tensor::scratch(&[groups * c, 2]));
        {
            let (gv, bv) = (gamma.value(), beta.value());
            let affine = (gv.data(), bv.data(), extra_scale);
            let rt = Runtime::current();
            norm::batch_norm(&rt, dims, x.data(), affine, eps, stats.0.data_mut(), y.data_mut());
        }
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
                    with_scratch(2 * groups * c, |sums: &mut [f32]| {
                        let (rt, st) = (Runtime::current(), stats.0.data());
                        norm::batch_norm_backward(
                            &rt,
                            dims,
                            x.data(),
                            st,
                            scale,
                            g.data_mut(),
                            sums,
                        );
                        // Group 0's sums as they are (what a one-group call
                        // has always returned), later groups added to them.
                        let (first, later) = sums.split_at(2 * c);
                        for (ch, s) in first.chunks(2).enumerate() {
                            dbeta.data_mut()[ch] = s[0];
                            dgamma.data_mut()[ch] = s[1] * extra_scale;
                        }
                        for group in later.chunks(2 * c) {
                            for (ch, s) in group.chunks(2).enumerate() {
                                dbeta.data_mut()[ch] += s[0];
                                dgamma.data_mut()[ch] += s[1] * extra_scale;
                            }
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

/// What a [`Var::lif_scan`] node's backward needs from its forward, shared
/// with the carry that may be built from it later.
struct ScanTape {
    /// The pre-reset membranes `u_t` of every timestep, stacked like the
    /// input.
    u: Saved,
    /// The gradient reaching the membrane this scan left behind, put here by
    /// the carry's backward for the scan's own to start from.
    carry_grad: RefCell<Option<Tensor>>,
}

/// The result of [`Var::lif_scan`].
pub struct LifScan {
    /// The binary spikes `s_t`, stacked like the input.
    pub spikes: Var,
    /// How many neurons fired, over all timesteps.
    pub fired: u64,
    tape: Rc<ScanTape>,
    step_shape: Vec<usize>,
}

impl std::fmt::Debug for LifScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifScan").field("spikes", &self.spikes).field("fired", &self.fired).finish()
    }
}

impl LifScan {
    /// The shape `[B, …]` of one timestep of the scan.
    pub fn step_shape(&self) -> &[usize] {
        &self.step_shape
    }

    /// The post-reset membrane `m = u · (1 − s)` after the scan's last
    /// timestep, as the `carry` of the scan that continues it. Built when
    /// asked for: a scan over a whole sequence never pays for it.
    ///
    /// The scan node has one output on the tape, its spikes, so the
    /// gradient that reaches this membrane is handed to the scan's backward
    /// directly (which the sweep runs after this node's, being its parent);
    /// a scan whose spikes nobody used gets a zero `dS` to run on.
    pub fn carry(&self) -> Var {
        let (u, s) = (self.tape.u.0.data(), self.spikes.value());
        let mut m = Tensor::scratch(&self.step_shape);
        let last = u.len() - m.len();
        // The reset the scan applied, from the spikes it emitted: `s · −1 + 1`.
        for ((m, &uv), &sv) in m.data_mut().iter_mut().zip(&u[last..]).zip(&s.data()[last..]) {
            *m = uv * (-sv + 1.0);
        }
        drop(s);
        let tape = Rc::clone(&self.tape);
        Var::from_op(
            "lif_carry",
            m,
            vec![self.spikes.clone()],
            Box::new(move |g, parents| {
                let mut slot = tape.carry_grad.borrow_mut();
                match slot.as_mut() {
                    Some(sum) => {
                        sum.add_scaled(&g, 1.0).expect("carry gradient shape");
                        g.recycle();
                    }
                    None => *slot = Some(g),
                }
                parents[0].ensure_grad();
            }),
        )
    }
}

/// The reverse scan of [`Var::lif_scan`] ([`lif::scan_backward`]) on the
/// global kernel pool, one instance of its loops per surrogate, each with
/// its shape inlined. `neuron` is `(τ, V_th, σ')`.
fn lif_backward(
    steps: usize,
    (tau, vth, surrogate): (f32, f32, Surrogate),
    u: &[f32],
    g: &mut [f32],
    carries: (Option<&[f32]>, Option<&mut Tensor>),
) {
    let (rt, neuron) = (&Runtime::current(), (tau, vth));
    match surrogate {
        Surrogate::Rectangle { width } => {
            lif::scan_backward(rt, steps, neuron, rectangle(width), u, g, carries);
        }
        Surrogate::Triangle { width } => {
            lif::scan_backward(rt, steps, neuron, triangle(width), u, g, carries);
        }
        Surrogate::Atan { alpha } => {
            lif::scan_backward(rt, steps, neuron, atan(alpha), u, g, carries)
        }
    }
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

    /// Batch norm forward and backward of one group as one channel-major
    /// serial loop — how the op was written before it ran on the pool, kept
    /// as the bit-level reference. Returns `y`, `dx` and the `[C × 2]` array
    /// of `(Σ dy, Σ dy·x̂)`.
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
            let channel = (0..b).map(|s| (s * c + ch) * plane..(s * c + ch + 1) * plane);
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

        /// The two pool phases give the serial loop's bits — every group
        /// those of a loop over that group alone — at every thread count, on
        /// shapes from one element up to ones where both phases fork
        /// (each splits once `4·B·C·H·W·G` passes the fork grain), `B = 1`,
        /// `C = 1` and one group included.
        #[test]
        fn batch_norm_bit_equal_to_serial_loop_across_threads(
            seed in 0u64..10_000,
            groups in 1usize..4,
            b in 1usize..9,
            c in 1usize..17,
            h in 1usize..13,
            w in 1usize..13,
        ) {
            let mut rng = Rng::seed_from(seed);
            let dims = NormDims { b, c, plane: h * w };
            let x = Tensor::randn(&[groups * b, c, h, w], &mut rng);
            let dy = Tensor::randn(&[groups * b, c, h, w], &mut rng);
            let gamma = Tensor::randn(&[c], &mut rng);
            let beta = Tensor::randn(&[c], &mut rng);
            let affine = (gamma.data(), beta.data(), 0.7);
            let (mut y0, mut dx0, mut sums0) = (Vec::new(), Vec::new(), Vec::new());
            for (xg, dyg) in x.data().chunks(b * c * h * w).zip(dy.data().chunks(b * c * h * w)) {
                let (y, dx, sums) = bn_serial((b, c, h * w), xg, dyg, affine, 1e-5);
                y0.extend(y);
                dx0.extend(dx);
                sums0.extend(sums);
            }
            for threads in 1..=8 {
                let rt = Runtime::new(threads);
                let mut y = vec![f32::NAN; x.len()];
                let mut stats = vec![f32::NAN; 2 * groups * c];
                norm::batch_norm(&rt, dims, x.data(), affine, 1e-5, &mut stats, &mut y);
                proptest::prop_assert_eq!(slice_bits(&y), slice_bits(&y0), "y at {} threads", threads);
                let mut g = dy.data().to_vec();
                let mut sums = vec![f32::NAN; 2 * groups * c];
                norm::batch_norm_backward(&rt, dims, x.data(), &stats, (gamma.data(), 0.7), &mut g, &mut sums);
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

    /// The test-only spike node `H(u − V_th)` with a surrogate gradient:
    /// with `scale`, `add` and `mul`, what the per-timestep chain the scan is
    /// checked against is built from.
    fn spike(u: &Var, vth: f32, surrogate: Surrogate) -> Var {
        let value = u.value().map(|v| if v >= vth { 1.0 } else { 0.0 });
        Var::from_op(
            "spike",
            value,
            vec![u.clone()],
            Box::new(move |mut g, parents| {
                g.zip_inplace(&parents[0].value(), |gv, uv| gv * surrogate.grad(uv - vth))
                    .expect("spike backward shape");
                parents[0].accumulate_grad(g);
            }),
        )
    }

    #[test]
    fn one_step_scan_is_a_binary_spike() {
        let u = Var::constant(Tensor::from_vec(vec![0.1, 0.5, 0.9, -0.2], &[1, 4]).unwrap());
        let s = u.lif_scan(None, 1, 0.25, 0.5, Surrogate::default()).unwrap().spikes;
        assert_eq!(s.to_tensor().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn one_step_scan_backward_uses_surrogate() {
        let u = Var::param(Tensor::from_vec(vec![0.2, 0.5, 1.2], &[1, 3]).unwrap());
        let s = u.lif_scan(None, 1, 0.25, 0.5, Surrogate::Rectangle { width: 1.0 }).unwrap().spikes;
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
        let y = x.batch_norm2d(&gamma, &beta, 1e-5, 1.0, 1).unwrap();
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
        let y1 = x.batch_norm2d(&gamma, &beta, 1e-5, 1.0, 1).unwrap().to_tensor();
        let y2 = x.batch_norm2d(&gamma, &beta, 1e-5, 0.5, 1).unwrap().to_tensor();
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
        let loss_fn = || {
            x.batch_norm2d(&gamma, &beta, 1e-5, 0.8, 1).unwrap().mul(&mc).unwrap().sum_to_scalar()
        };
        grad_check(&gamma, loss_fn, &[0, 1], 1e-2, 2e-2);
        grad_check(&beta, loss_fn, &[0, 1], 1e-2, 2e-2);
        grad_check(&x, loss_fn, &[0, 8, 17, 35], 1e-2, 5e-2);
    }

    #[test]
    fn batch_norm_rejects_bad_shapes() {
        let x = Var::constant(Tensor::zeros(&[2, 3, 4, 4]));
        let ok = Var::constant(Tensor::zeros(&[3]));
        let bad = Var::constant(Tensor::zeros(&[2]));
        assert!(x.batch_norm2d(&bad, &ok, 1e-5, 1.0, 1).is_err());
        assert!(Var::constant(Tensor::zeros(&[2, 3]))
            .batch_norm2d(&ok, &ok, 1e-5, 1.0, 1)
            .is_err());
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
            let s = spike(&u, 0.5, Surrogate::default());
            total = total.add(&s).unwrap();
        }
        total.sum_to_scalar().backward();
        let g = w.grad().unwrap().data()[0];
        assert!(g > 0.0, "temporal gradient should be positive, got {g}");
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A `[rows, 4, 3]` tensor with exact zeros of both signs mixed in.
    fn signed_zero_randn(rows: usize, rng: &mut Rng) -> Tensor {
        Tensor::randn(&[rows, 4, 3], rng).map(|v| match v {
            v if v.abs() < 0.15 => -0.0,
            v if v.abs() < 0.3 => 0.0,
            v => v,
        })
    }

    /// Spikes, input gradient and carried membrane of `steps` timesteps of
    /// `B = 3` neurons-by-12, run as the per-timestep chain the scan
    /// replaces — leak and integrate, spike, reset through the detached
    /// gate — a separate input leaf per timestep.
    fn lif_chain(
        x: &Tensor,
        seed: &Tensor,
        steps: usize,
        (tau, vth, surrogate): (f32, f32, Surrogate),
    ) -> (Vec<u32>, Vec<u32>) {
        let step = x.len() / steps;
        let slab = |t: &Tensor, i: usize| {
            Tensor::from_vec(t.data()[i * step..(i + 1) * step].to_vec(), &[3, 4, 3]).unwrap()
        };
        let inputs: Vec<Var> = (0..steps).map(|t| Var::param(slab(x, t))).collect();
        let mut membrane: Option<Var> = None;
        let mut spikes = Vec::new();
        let mut loss: Option<Var> = None;
        for (t, x_t) in inputs.iter().enumerate() {
            let u = match &membrane {
                Some(m) => m.scale(tau).add(x_t).unwrap(),
                None => x_t.add_scalar(0.0),
            };
            let s = spike(&u, vth, surrogate);
            membrane = Some(u.mul(&s.detach().scale(-1.0).add_scalar(1.0)).unwrap());
            spikes.extend(bits(&s.value()));
            let term = s.mul(&Var::constant(slab(seed, t))).unwrap().sum_to_scalar();
            loss = Some(match loss {
                Some(l) => l.add(&term).unwrap(),
                None => term,
            });
        }
        loss.unwrap().backward();
        (spikes, inputs.iter().flat_map(|x_t| bits(&x_t.grad().unwrap())).collect())
    }

    /// The same through [`Var::lif_scan`], the timesteps cut into calls of
    /// `chunks` steps each, every call after the first carrying the
    /// membrane of the one before.
    fn lif_scanned(
        x: &Tensor,
        seed: &Tensor,
        chunks: &[usize],
        (tau, vth, surrogate): (f32, f32, Surrogate),
    ) -> (Vec<u32>, Vec<u32>, u64) {
        let steps: usize = chunks.iter().sum();
        let x = Var::param(x.clone());
        let rows = x.shape()[0] / steps;
        let (mut t, mut fired) = (0, 0);
        let mut prev: Option<LifScan> = None;
        let mut spikes = Vec::new();
        for &n in chunks {
            let carry = prev.as_ref().map(LifScan::carry);
            let x_n = x.rows(t * rows, n * rows).unwrap();
            let scan = x_n.lif_scan(carry.as_ref(), n, tau, vth, surrogate).unwrap();
            fired += scan.fired;
            spikes.push(scan.spikes.clone());
            prev = Some(scan);
            t += n;
        }
        let all = Var::concat_rows(&spikes).unwrap();
        all.mul(&Var::constant(seed.clone())).unwrap().sum_to_scalar().backward();
        let fired_values = all.value().data().iter().filter(|&&s| s == 1.0).count() as u64;
        assert_eq!(fired, fired_values, "the scan's count is not the number of ones it wrote");
        let spike_bits = bits(&all.value());
        (spike_bits, bits(&x.grad().unwrap()), fired)
    }

    /// The scan against the three-op chain, bit for bit, for every
    /// surrogate: spikes and the gradient of every timestep's input — signs
    /// of zero and the `u == vth` edge included — in one call, in
    /// single-step calls, and in uneven ones. (A whole-tensor `rows` is the
    /// tensor itself, so the one-call case has no `0.0 + v` on its way.)
    #[test]
    fn lif_scan_matches_the_per_timestep_chain_bitwise() {
        let mut rng = Rng::seed_from(55);
        let steps = 5;
        for surrogate in [
            Surrogate::Rectangle { width: 1.0 },
            Surrogate::Triangle { width: 1.3 },
            Surrogate::Atan { alpha: 2.0 },
        ] {
            for (tau, vth) in [(0.25, 0.5), (0.9, 0.3)] {
                let neuron = (tau, vth, surrogate);
                let mut x = signed_zero_randn(steps * 3, &mut rng);
                x.data_mut()[..2].copy_from_slice(&[vth, -0.0]);
                let seed = signed_zero_randn(steps * 3, &mut rng);
                let (want_s, want_dx) = lif_chain(&x, &seed, steps, neuron);
                let (s, dx, fired) = lif_scanned(&x, &seed, &[steps], neuron);
                assert!(fired > 0 && (fired as usize) < s.len(), "a degenerate input: {fired}");
                assert_eq!((&s, &dx), (&want_s, &want_dx), "one call, {neuron:?}");
                for chunks in [&[1, 1, 1, 1, 1][..], &[2, 3], &[4, 1]] {
                    let (s, dx, _) = lif_scanned(&x, &seed, chunks, neuron);
                    assert_eq!(s, want_s, "spikes, calls of {chunks:?}, {neuron:?}");
                    // The input gradient passes a `rows` on its way back:
                    // equal as numbers, `-0.0` arriving as `0.0`.
                    let plus_zero = |b: &u32| if *b == (-0.0f32).to_bits() { 0 } else { *b };
                    assert_eq!(
                        dx.iter().map(plus_zero).collect::<Vec<_>>(),
                        want_dx.iter().map(plus_zero).collect::<Vec<_>>(),
                        "dx, calls of {chunks:?}, {neuron:?}"
                    );
                }
            }
        }
    }

    /// A membrane whose own spikes nobody used still carries gradient back
    /// to the input that charged it.
    #[test]
    fn lif_carry_alone_takes_gradient_back_through_an_unused_scan() {
        let x0 = Var::param(Tensor::full(&[1, 2], 0.2));
        let first = x0.lif_scan(None, 1, 0.9, 0.5, Surrogate::default()).unwrap();
        let x1 = Var::constant(Tensor::full(&[1, 2], 0.3));
        let second = x1.lif_scan(Some(&first.carry()), 1, 0.9, 0.5, Surrogate::default()).unwrap();
        second.spikes.sum_to_scalar().backward();
        // u1 = 0.9 · 0.2 + 0.3 = 0.48: inside the window, so dS/du1 = 1 and
        // du1/dx0 = τ (x0 did not fire).
        assert_eq!(x0.grad().unwrap().data(), &[0.9, 0.9]);
    }

    #[test]
    fn rows_and_concat_rows_are_inverse_and_differentiable() {
        let mut rng = Rng::seed_from(57);
        let x = Var::param(Tensor::randn(&[6, 2, 3], &mut rng));
        let (head, tail) = (x.rows(0, 4).unwrap(), x.rows(4, 2).unwrap());
        assert_eq!(head.shape(), vec![4, 2, 3]);
        assert_eq!(tail.value().data(), &x.value().data()[24..]);
        let joined = Var::concat_rows(&[head, tail]).unwrap();
        assert_eq!(bits(&joined.value()), bits(&x.value()));
        assert_eq!(x.rows(0, 6).unwrap().id(), x.id(), "the whole range is the node itself");
        assert!(x.rows(5, 2).is_err());
        assert!(Var::concat_rows(&[]).is_err());
        assert!(Var::concat_rows(&[x.clone(), Var::constant(Tensor::zeros(&[1, 3, 2]))]).is_err());
        // Overlapping ranges add; rows no range covers get zero.
        let w = Var::constant(Tensor::randn(&[2, 2, 3], &mut rng));
        let loss = |x: &Var| {
            let a = x.rows(1, 2).unwrap().mul(&w).unwrap();
            let b = x.rows(2, 2).unwrap().mul(&w).unwrap();
            Var::concat_rows(&[a, b]).unwrap().scale(2.0).sum_to_scalar()
        };
        grad_check(&x, || loss(&x), &[0, 7, 13, 17, 22, 35], 1e-2, 1e-2);
        x.zero_grad();
        loss(&x).backward();
        assert!(x.grad().unwrap().data()[..6].iter().all(|&v| v == 0.0));
    }

    /// Grouped batch norm against one call per group: outputs and input
    /// gradients bit for bit, γ / β gradients as the groups' partials added
    /// in group order.
    #[test]
    fn grouped_batch_norm_matches_a_call_per_group_bitwise() {
        let mut rng = Rng::seed_from(58);
        let (groups, b, c) = (3, 4, 5);
        let x0 = Tensor::randn(&[groups * b, c, 3, 2], &mut rng);
        let seed = Tensor::randn(&[groups * b, c, 3, 2], &mut rng);
        let gamma0 = Tensor::rand_uniform(&[c], 0.5, 1.5, &mut rng);
        let beta0 = Tensor::randn(&[c], &mut rng);
        let fresh = || (Var::param(gamma0.clone()), Var::param(beta0.clone()));

        let x = Var::param(x0.clone());
        let (gamma, beta) = fresh();
        let y = x.batch_norm2d(&gamma, &beta, 1e-5, 0.5, groups).unwrap();
        y.backward_with_seed(&seed);

        let slab = b * c * 6;
        let (mut want_y, mut want_dx) = (Vec::new(), Vec::new());
        let (mut dgamma, mut dbeta): (Option<Tensor>, Option<Tensor>) = (None, None);
        for g in 0..groups {
            let cut = |t: &Tensor| {
                Tensor::from_vec(t.data()[g * slab..(g + 1) * slab].to_vec(), &[b, c, 3, 2])
                    .unwrap()
            };
            let x_g = Var::param(cut(&x0));
            let (gamma_g, beta_g) = fresh();
            let y_g = x_g.batch_norm2d(&gamma_g, &beta_g, 1e-5, 0.5, 1).unwrap();
            y_g.backward_with_seed(&cut(&seed));
            want_y.extend(bits(&y_g.value()));
            want_dx.extend(bits(&x_g.grad().unwrap()));
            for (sum, part) in [(&mut dgamma, gamma_g.grad()), (&mut dbeta, beta_g.grad())] {
                match sum {
                    Some(sum) => sum.add_scaled(&part.unwrap(), 1.0).unwrap(),
                    None => *sum = part,
                }
            }
        }
        assert_eq!(bits(&y.value()), want_y);
        assert_eq!(bits(&x.grad().unwrap()), want_dx);
        assert_eq!(bits(&gamma.grad().unwrap()), bits(&dgamma.unwrap()));
        assert_eq!(bits(&beta.grad().unwrap()), bits(&dbeta.unwrap()));
        assert!(x.batch_norm2d(&gamma, &beta, 1e-5, 0.5, 5).is_err(), "12 rows, 5 groups");
        assert!(x.batch_norm2d(&gamma, &beta, 1e-5, 0.5, 0).is_err());
    }

    /// One scale per group against `scale_by` on each group alone.
    #[test]
    fn scale_by_groups_matches_scale_by_per_group_bitwise() {
        let mut rng = Rng::seed_from(59);
        let x0 = Tensor::randn(&[6, 5], &mut rng);
        let seed = Tensor::randn(&[6, 5], &mut rng);
        let factors = [0.7f32, -1.3, 2.0];
        let scales: Vec<Var> =
            factors.iter().map(|&f| Var::param(Tensor::from_vec(vec![f], &[1]).unwrap())).collect();
        let x = Var::param(x0.clone());
        let y = x.scale_by_groups(&scales).unwrap();
        y.backward_with_seed(&seed);
        for (g, scale) in scales.iter().enumerate() {
            let cut =
                |t: &Tensor| Tensor::from_vec(t.data()[g * 10..(g + 1) * 10].to_vec(), &[2, 5]);
            let x_g = Var::param(cut(&x0).unwrap());
            let s_g = Var::param(Tensor::from_vec(vec![factors[g]], &[1]).unwrap());
            let y_g = x_g.scale_by(&s_g).unwrap();
            y_g.backward_with_seed(&cut(&seed).unwrap());
            assert_eq!(&bits(&y.value())[g * 10..(g + 1) * 10], bits(&y_g.value()));
            assert_eq!(&bits(&x.grad().unwrap())[g * 10..(g + 1) * 10], bits(&x_g.grad().unwrap()));
            assert_eq!(bits(&scale.grad().unwrap()), bits(&s_g.grad().unwrap()), "group {g}");
        }
        assert!(x.scale_by_groups(&scales[..0]).is_err());
        assert!(Var::param(Tensor::zeros(&[4, 5])).scale_by_groups(&scales).is_err());
    }
}
