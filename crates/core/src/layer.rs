//! [`TtConv`] — the drop-in TT-decomposed spiking convolution module.
//!
//! One `TtConv` replaces one baseline 3×3 convolution (Fig. 1(a)) with the
//! four TT cores, and executes them according to the selected [`TtMode`]:
//! sequentially (STT), with the parallel branch sum of Eq. (5) (PTT), or
//! with the per-timestep full/half schedule (HTT). Strided layers (the
//! downsampling convolutions of MS-ResNet) are supported; the stride is
//! carried by the asymmetric cores so the factorization stays exact for
//! STT.

use ttsnn_autograd::Var;
use ttsnn_tensor::{conv, Conv2dGeometry, Rng, ShapeError, Tensor};

use crate::merge::{merge_ptt, merge_stt};
use crate::modes::TtMode;
use crate::ttsvd::{decompose, TtCores};

/// A TT-decomposed 3×3 convolution layer with trainable cores.
///
/// The layer owns four [`Var`] parameters (the cores `w1..w4` of Fig. 1)
/// and is timestep-aware: [`TtConv::forward_sequence`] is told which
/// timesteps its input holds, so the HTT schedule can select the full or
/// half path for each (Fig. 2).
///
/// ```
/// use ttsnn_core::{TtConv, TtMode};
/// use ttsnn_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let mut rng = Rng::seed_from(7);
/// let conv = TtConv::randn(8, 16, 4, TtMode::Stt, &mut rng);
/// let x = Tensor::randn(&[2, 8, 10, 10], &mut rng);
/// assert_eq!(conv.forward_tensor(&x, 0)?.shape(), &[2, 16, 10, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TtConv {
    w1: Var,
    w2: Var,
    w3: Var,
    w4: Var,
    mode: TtMode,
    stride: (usize, usize),
    in_channels: usize,
    out_channels: usize,
    rank: usize,
}

impl TtConv {
    /// Builds a layer from existing cores (e.g. produced by
    /// [`decompose`]) with stride 1.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the cores are internally inconsistent.
    pub fn from_cores(cores: TtCores, mode: TtMode) -> Result<Self, ShapeError> {
        Self::from_cores_strided(cores, mode, (1, 1))
    }

    /// Builds a layer from existing cores with an explicit stride.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the cores are internally inconsistent or
    /// the stride is zero.
    pub fn from_cores_strided(
        cores: TtCores,
        mode: TtMode,
        stride: (usize, usize),
    ) -> Result<Self, ShapeError> {
        cores.validate()?;
        if stride.0 == 0 || stride.1 == 0 {
            return Err(ShapeError::new("TtConv: stride must be positive"));
        }
        Ok(Self {
            in_channels: cores.in_channels(),
            out_channels: cores.out_channels(),
            rank: cores.rank(),
            w1: Var::param(cores.w1),
            w2: Var::param(cores.w2),
            w3: Var::param(cores.w3),
            w4: Var::param(cores.w4),
            mode,
            stride,
        })
    }

    /// Initializes from a dense pre-trained `(O, I, 3, 3)` weight via
    /// TT-SVD at the given rank (Algorithm 1, lines 3–5), stride 1.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `weight` is not `(O, I, 3, 3)` or
    /// `rank == 0`.
    pub fn from_dense(weight: &Tensor, rank: usize, mode: TtMode) -> Result<Self, ShapeError> {
        Self::from_cores(decompose(weight, rank)?, mode)
    }

    /// Random (Kaiming) initialization — training TT-SNN from scratch;
    /// [`TtConv::randn_strided`] at stride 1.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn randn(
        in_channels: usize,
        out_channels: usize,
        rank: usize,
        mode: TtMode,
        rng: &mut Rng,
    ) -> Self {
        Self::randn_strided(in_channels, out_channels, rank, mode, (1, 1), rng)
    }

    /// Random initialization with stride (for MS-ResNet downsampling
    /// layers).
    ///
    /// # Panics
    ///
    /// Panics if any dimension or stride component is zero.
    pub fn randn_strided(
        in_channels: usize,
        out_channels: usize,
        rank: usize,
        mode: TtMode,
        stride: (usize, usize),
        rng: &mut Rng,
    ) -> Self {
        let mut cores = TtCores::randn(in_channels, out_channels, rank, rng);
        // `TtCores::randn` calibrates the *STT chain* (a 4-factor product)
        // to Kaiming scale. The PTT/HTT effective kernel of Eq. (6) is a
        // 3-factor product (`w1 · (w2 + w3) · w4`), so those modes need
        // their own calibration or their effective variance — and hence
        // their training dynamics — drifts from the dense baseline's.
        if !matches!(mode, TtMode::Stt) {
            let fan_in = (in_channels * 9) as f32;
            let target = (2.0 / fan_in).sqrt() * ((out_channels * in_channels * 9) as f32).sqrt();
            let actual = merge_ptt(&cores).expect("freshly built cores are consistent").norm();
            if actual > 1e-12 {
                // A common factor c on all four cores scales the 3-factor
                // PTT kernel by c^3.
                let scale = (target / actual).powf(1.0 / 3.0);
                cores.w1 = cores.w1.scale(scale);
                cores.w2 = cores.w2.scale(scale);
                cores.w3 = cores.w3.scale(scale);
                cores.w4 = cores.w4.scale(scale);
            }
        }
        Self::from_cores_strided(cores, mode, stride)
            .expect("randn cores are always consistent; stride validated by assert")
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Effective (possibly clamped) TT-rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The computation pipeline this layer runs.
    pub fn mode(&self) -> &TtMode {
        &self.mode
    }

    /// Convolution stride.
    pub fn stride(&self) -> (usize, usize) {
        self.stride
    }

    /// The four trainable core parameters, in `w1..w4` order.
    pub fn params(&self) -> Vec<Var> {
        vec![self.w1.clone(), self.w2.clone(), self.w3.clone(), self.w4.clone()]
    }

    /// Total trainable parameters (`r·I + 6r² + r·O`).
    pub fn num_params(&self) -> usize {
        let r = self.rank;
        r * self.in_channels + 6 * r * r + r * self.out_channels
    }

    /// Snapshot of the current core values.
    pub fn cores(&self) -> TtCores {
        TtCores {
            w1: self.w1.to_tensor(),
            w2: self.w2.to_tensor(),
            w3: self.w3.to_tensor(),
            w4: self.w4.to_tensor(),
        }
    }

    fn geometry_for(&self, hw: (usize, usize)) -> Geometries {
        let (sh, sw) = self.stride;
        let (h, w) = hw;
        let r = self.rank;
        let (oh, ow) = ((h + 2 - 3) / sh + 1, (w + 2 - 3) / sw + 1); // 3x3 pad 1
        Geometries {
            g1: Conv2dGeometry::new(self.in_channels, r, (h, w), (1, 1), (1, 1), (0, 0)),
            // STT: vertical core takes the vertical stride, horizontal core
            // the horizontal stride.
            g2_seq: Conv2dGeometry::new(r, r, (h, w), (3, 1), (sh, 1), (1, 0)),
            g3_seq: Conv2dGeometry::new(r, r, (oh, w), (1, 3), (1, sw), (0, 1)),
            // PTT: both branches consume w1's output and apply the full
            // stride so their outputs align for the sum of Eq. (5).
            g2_par: Conv2dGeometry::new(r, r, (h, w), (3, 1), (sh, sw), (1, 0)),
            g3_par: Conv2dGeometry::new(r, r, (h, w), (1, 3), (sh, sw), (0, 1)),
            g4: Conv2dGeometry::new(r, self.out_channels, (oh, ow), (1, 1), (1, 1), (0, 0)),
            // Half path: the 1x1 projection absorbs the stride, so `w4` sees
            // the full path's geometry.
            g1_half: Conv2dGeometry::new(self.in_channels, r, (h, w), (1, 1), (sh, sw), (0, 0)),
        }
    }

    /// Runs the layer on an autograd node holding `steps` timesteps at once
    /// (Algorithm 1, lines 11–12): `x` is the time-major stack
    /// `(steps·B, I, H, W)`, row `t·B + s`, of timesteps `t0..t0 + steps`.
    /// Output spatial size is `ceil(H/sh) × ceil(W/sw)` with the implicit
    /// 3×3/pad-1 geometry.
    ///
    /// STT and PTT run every core once over the whole stack. HTT cuts the
    /// stack where its schedule changes between full and half: `w2` / `w3`
    /// run once per run of full timesteps, and the two 1×1 cores once over
    /// everything — `w4` always, `w1` unless the layer is strided (its half
    /// path then downsamples in `w1`, its full path after it). The kernels
    /// work a sample at a time, so every activation is the one a call per
    /// timestep would produce, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x` is not `(steps·B, I, H, W)`.
    pub fn forward_sequence(&self, x: &Var, t0: usize, steps: usize) -> Result<Var, ShapeError> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(ShapeError::new(format!(
                "TtConv::forward_sequence: expected (steps·B, {}, H, W), got {:?}",
                self.in_channels, shape
            )));
        }
        if steps == 0 || !shape[0].is_multiple_of(steps) {
            return Err(ShapeError::new(format!(
                "TtConv::forward_sequence: {} rows do not hold {steps} timesteps",
                shape[0]
            )));
        }
        let g = self.geometry_for((shape[2], shape[3]));
        if matches!(self.mode, TtMode::Stt) {
            let o = x.conv2d(&self.w1, g.g1)?;
            let o = o.conv2d(&self.w2, g.g2_seq)?;
            let o = o.conv2d(&self.w3, g.g3_seq)?;
            return o.conv2d(&self.w4, g.g4);
        }
        let runs = self.schedule_runs(t0, steps, shape[0] / steps);
        // With stride 1 the two `w1` geometries are the same convolution.
        let shared_w1 = if g.g1 == g.g1_half { Some(x.conv2d(&self.w1, g.g1)?) } else { None };
        let mut mixed = Vec::with_capacity(runs.len());
        for (full, first, rows) in runs {
            let o = match &shared_w1 {
                Some(o) => o.rows(first, rows)?,
                None => {
                    let g1 = if full { g.g1 } else { g.g1_half };
                    x.rows(first, rows)?.conv2d(&self.w1, g1)?
                }
            };
            mixed.push(if full {
                let vertical = o.conv2d(&self.w2, g.g2_par)?;
                let horizontal = o.conv2d(&self.w3, g.g3_par)?;
                vertical.add(&horizontal)?
            } else {
                o
            });
        }
        let mixed = match mixed.as_slice() {
            [one] => one.clone(),
            many => Var::concat_rows(many)?,
        };
        mixed.conv2d(&self.w4, g.g4)
    }

    /// Maximal runs of the timesteps `t0..t0 + steps` that take the same
    /// path, as `(full, first row, rows)` of a time-major stack with `batch`
    /// rows a timestep; STT and PTT are one full run.
    fn schedule_runs(&self, t0: usize, steps: usize, batch: usize) -> Vec<(bool, usize, usize)> {
        let mut runs: Vec<(bool, usize, usize)> = Vec::new();
        for t in 0..steps {
            let full = self.mode.is_full_at(t0 + t);
            match runs.last_mut() {
                Some((last, _, rows)) if *last == full => *rows += batch,
                _ => runs.push((full, t * batch, batch)),
            }
        }
        runs
    }

    /// Forward on plain tensors at timestep `t`, with **no gradient
    /// tracking**: [`TtConv::forward_steps_tensor`] over a sequence of one.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] under the same conditions as
    /// [`TtConv::forward_sequence`].
    pub fn forward_tensor(&self, x: &Tensor, t: usize) -> Result<Tensor, ShapeError> {
        self.forward_steps_tensor(x, t, 1)
    }

    /// Forward on plain tensors over timesteps `t0..t0 + steps` at once —
    /// `x` is their time-major stack `(steps·B, I, H, W)` — with **no
    /// gradient tracking**: runs the sub-convolution chain directly on the
    /// runtime kernels, building no autograd graph — the inference path. HTT
    /// cuts the stack where its schedule changes between full and half, as
    /// [`TtConv::forward_sequence`] does; the kernels work a sample at a
    /// time, so every row is the one a call per timestep would produce, bit
    /// for bit. Every intermediate between cores is checked out of the
    /// thread's arena and recycled as soon as the next core has consumed it;
    /// the caller recycles the output.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] under the same conditions as
    /// [`TtConv::forward_sequence`].
    pub fn forward_steps_tensor(
        &self,
        x: &Tensor,
        t0: usize,
        steps: usize,
    ) -> Result<Tensor, ShapeError> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(ShapeError::new(format!(
                "TtConv::forward_tensor: expected (steps·B, {}, H, W), got {:?}",
                self.in_channels, shape
            )));
        }
        if steps == 0 || !shape[0].is_multiple_of(steps) {
            return Err(ShapeError::new(format!(
                "TtConv::forward_tensor: {} rows do not hold {steps} timesteps",
                shape[0]
            )));
        }
        let g = self.geometry_for((shape[2], shape[3]));
        let (w1, w2, w3, w4) = (self.w1.value(), self.w2.value(), self.w3.value(), self.w4.value());
        // Everything up to `w4`, for a run of rows on one path.
        let mix = |x: &Tensor, full: bool| -> Result<Tensor, ShapeError> {
            match (&self.mode, full) {
                (TtMode::Stt, _) => {
                    let o1 = conv::conv2d(x, &w1, &g.g1)?;
                    let o2 = conv::conv2d(&o1, &w2, &g.g2_seq)?;
                    o1.recycle();
                    let o3 = conv::conv2d(&o2, &w3, &g.g3_seq);
                    o2.recycle();
                    o3
                }
                (_, true) => {
                    let o = conv::conv2d(x, &w1, &g.g1)?;
                    let mut vertical = conv::conv2d(&o, &w2, &g.g2_par)?;
                    let horizontal = conv::conv2d(&o, &w3, &g.g3_par)?;
                    o.recycle();
                    // vertical + horizontal in place: `1.0 * h` is `h` exactly.
                    vertical.add_scaled(&horizontal, 1.0)?;
                    horizontal.recycle();
                    Ok(vertical)
                }
                (_, false) => conv::conv2d(x, &w1, &g.g1_half),
            }
        };
        let mixed = match self.schedule_runs(t0, steps, shape[0] / steps).as_slice() {
            &[(full, ..)] => mix(x, full)?,
            runs => {
                let row = x.len() / shape[0];
                let mut mixed: Option<Tensor> = None;
                for &(full, first, rows) in runs {
                    let mut cut = Tensor::scratch(&[rows, shape[1], shape[2], shape[3]]);
                    cut.data_mut().copy_from_slice(&x.data()[first * row..(first + rows) * row]);
                    let part = mix(&cut, full)?;
                    cut.recycle();
                    let out_row = part.len() / rows;
                    let whole = mixed.get_or_insert_with(|| {
                        let ps = part.shape();
                        Tensor::scratch(&[shape[0], ps[1], ps[2], ps[3]])
                    });
                    whole.data_mut()[first * out_row..][..part.len()].copy_from_slice(part.data());
                    part.recycle();
                }
                mixed.expect("steps >= 1 gives at least one run")
            }
        };
        let y = conv::conv2d(&mixed, &w4, &g.g4);
        mixed.recycle();
        y
    }

    /// Merges the trained cores back into one dense `(O, I, 3, 3)` kernel
    /// (Algorithm 1 lines 20–22 / Eq. (6)); STT layers use the full chain
    /// contraction, PTT/HTT layers the cross-kernel of Eq. (6).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the stored cores became inconsistent
    /// (cannot happen through this API).
    pub fn merge(&self) -> Result<Tensor, ShapeError> {
        let cores = self.cores();
        match self.mode {
            TtMode::Stt => merge_stt(&cores),
            TtMode::Ptt | TtMode::Htt(_) => merge_ptt(&cores),
        }
    }

    /// Forward MAC count for one sample at the given input size and
    /// timestep (used by the FLOPs accounting and by the accelerator
    /// model).
    pub fn macs(&self, in_hw: (usize, usize), t: usize) -> usize {
        let g = self.geometry_for(in_hw);
        match (&self.mode, self.mode.is_full_at(t)) {
            (TtMode::Stt, _) => g.g1.macs() + g.g2_seq.macs() + g.g3_seq.macs() + g.g4.macs(),
            (TtMode::Ptt, _) | (TtMode::Htt(_), true) => {
                g.g1.macs() + g.g2_par.macs() + g.g3_par.macs() + g.g4.macs()
            }
            (TtMode::Htt(_), false) => g.g1_half.macs() + g.g4.macs(),
        }
    }
}

struct Geometries {
    g1: Conv2dGeometry,
    g2_seq: Conv2dGeometry,
    g3_seq: Conv2dGeometry,
    g2_par: Conv2dGeometry,
    g3_par: Conv2dGeometry,
    g4: Conv2dGeometry,
    g1_half: Conv2dGeometry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::conv;

    #[test]
    fn output_shapes_all_modes() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 6, 8, 8], &mut rng);
        for mode in [TtMode::Stt, TtMode::Ptt, TtMode::htt_default(4)] {
            let layer = TtConv::randn(6, 10, 4, mode.clone(), &mut rng);
            for t in 0..4 {
                let y = layer.forward_tensor(&x, t).unwrap();
                assert_eq!(y.shape(), &[2, 10, 8, 8], "mode {mode} t {t}");
            }
        }
    }

    /// Both constructors build every mode at the same scale: PTT / HTT get
    /// their 3-factor calibration from `randn` too.
    #[test]
    fn randn_is_randn_strided_at_stride_one() {
        for mode in [TtMode::Stt, TtMode::Ptt, TtMode::htt_default(4)] {
            let plain = TtConv::randn(6, 10, 4, mode.clone(), &mut Rng::seed_from(15));
            let strided =
                TtConv::randn_strided(6, 10, 4, mode.clone(), (1, 1), &mut Rng::seed_from(15));
            assert_eq!(plain.cores(), strided.cores(), "mode {mode}");
        }
    }

    #[test]
    fn strided_output_shapes() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        for mode in [TtMode::Stt, TtMode::Ptt, TtMode::htt_default(4)] {
            let layer = TtConv::randn_strided(4, 8, 3, mode.clone(), (2, 2), &mut rng);
            for t in [0usize, 3] {
                let y = layer.forward_tensor(&x, t).unwrap();
                assert_eq!(y.shape(), &[1, 8, 4, 4], "mode {mode} t {t}");
            }
        }
    }

    #[test]
    fn stt_forward_matches_merged_dense_conv() {
        let mut rng = Rng::seed_from(3);
        let layer = TtConv::randn(5, 7, 3, TtMode::Stt, &mut rng);
        let x = Tensor::randn(&[2, 5, 6, 6], &mut rng);
        let via_tt = layer.forward_tensor(&x, 0).unwrap();
        let dense = layer.merge().unwrap();
        let g = Conv2dGeometry::new(5, 7, (6, 6), (3, 3), (1, 1), (1, 1));
        let via_dense = conv::conv2d(&x, &dense, &g).unwrap();
        assert!(via_tt.max_abs_diff(&via_dense).unwrap() < 1e-3);
    }

    #[test]
    fn ptt_forward_matches_merged_dense_conv() {
        let mut rng = Rng::seed_from(4);
        let layer = TtConv::randn(4, 6, 3, TtMode::Ptt, &mut rng);
        let x = Tensor::randn(&[1, 4, 7, 7], &mut rng);
        let via_tt = layer.forward_tensor(&x, 0).unwrap();
        let dense = layer.merge().unwrap();
        let g = Conv2dGeometry::new(4, 6, (7, 7), (3, 3), (1, 1), (1, 1));
        let via_dense = conv::conv2d(&x, &dense, &g).unwrap();
        assert!(via_tt.max_abs_diff(&via_dense).unwrap() < 1e-3);
    }

    #[test]
    fn strided_stt_matches_merged_strided_dense() {
        let mut rng = Rng::seed_from(5);
        let layer = TtConv::randn_strided(4, 5, 3, TtMode::Stt, (2, 2), &mut rng);
        let x = Tensor::randn(&[1, 4, 9, 9], &mut rng);
        let via_tt = layer.forward_tensor(&x, 0).unwrap();
        let dense = layer.merge().unwrap();
        let g = Conv2dGeometry::new(4, 5, (9, 9), (3, 3), (2, 2), (1, 1));
        let via_dense = conv::conv2d(&x, &dense, &g).unwrap();
        assert!(via_tt.max_abs_diff(&via_dense).unwrap() < 1e-3);
    }

    #[test]
    fn htt_half_path_uses_fewer_macs() {
        let mut rng = Rng::seed_from(6);
        let layer = TtConv::randn(16, 16, 8, TtMode::htt_default(4), &mut rng);
        let full = layer.macs((8, 8), 0);
        let half = layer.macs((8, 8), 3);
        assert!(half < full, "half path {half} should be cheaper than full {full}");
        // Half path has no 3x1/1x3 cores: exactly r*I*HW + r*O*HW
        assert_eq!(half, 8 * 16 * 64 + 8 * 16 * 64);
    }

    #[test]
    fn htt_timestep_dependence() {
        let mut rng = Rng::seed_from(7);
        let layer = TtConv::randn(4, 4, 2, TtMode::htt_default(2), &mut rng);
        let x = Tensor::randn(&[1, 4, 5, 5], &mut rng);
        let early = layer.forward_tensor(&x, 0).unwrap();
        let late = layer.forward_tensor(&x, 1).unwrap();
        // Full vs half path differ (PTT includes asymmetric cores).
        assert!(early.max_abs_diff(&late).unwrap() > 1e-6);
    }

    #[test]
    fn gradients_reach_all_cores() {
        let mut rng = Rng::seed_from(8);
        for mode in [TtMode::Stt, TtMode::Ptt] {
            let layer = TtConv::randn(3, 4, 2, mode, &mut rng);
            let x = Var::constant(Tensor::randn(&[1, 3, 5, 5], &mut rng));
            let y = layer.forward_sequence(&x, 0, 1).unwrap();
            y.sum_to_scalar().backward();
            for (i, p) in layer.params().iter().enumerate() {
                let g = p.grad().unwrap_or_else(|| panic!("core w{} got no grad", i + 1));
                assert!(g.norm() > 0.0, "core w{} grad is zero", i + 1);
            }
        }
    }

    #[test]
    fn htt_half_timestep_skips_asymmetric_core_grads() {
        let mut rng = Rng::seed_from(9);
        let layer = TtConv::randn(3, 4, 2, TtMode::htt_default(2), &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 3, 5, 5], &mut rng));
        let y = layer.forward_sequence(&x, 1, 1).unwrap(); // half timestep
        y.sum_to_scalar().backward();
        let params = layer.params();
        assert!(params[0].grad().is_some(), "w1 must receive grad on half path");
        assert!(params[1].grad().is_none(), "w2 unused on half path");
        assert!(params[2].grad().is_none(), "w3 unused on half path");
        assert!(params[3].grad().is_some(), "w4 must receive grad on half path");
    }

    /// One call over a time-major stack against a call per timestep:
    /// outputs and input gradients bit for bit, core gradients to rounding
    /// (they add the timesteps in a different order), on every mode, both
    /// strides and HTT schedules with one, two and four runs.
    #[test]
    fn forward_sequence_matches_a_call_per_timestep() {
        use crate::modes::HttSchedule;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let htt = |p: &str| TtMode::Htt(HttSchedule::from_pattern(p).unwrap());
        let (steps, batch) = (4, 3);
        let mut rng = Rng::seed_from(14);
        for mode in [TtMode::Stt, TtMode::Ptt, htt("FFHH"), htt("FHFH"), htt("HHHH")] {
            for stride in [(1, 1), (2, 2)] {
                let layer = TtConv::randn_strided(3, 5, 2, mode.clone(), stride, &mut rng);
                let x0 = Tensor::randn(&[steps * batch, 3, 6, 6], &mut rng);
                let x = Var::param(x0.clone());
                let y = layer.forward_sequence(&x, 0, steps).unwrap();
                let seed = Tensor::randn(&y.shape(), &mut rng);
                y.backward_with_seed(&seed);
                let whole: Vec<Option<Tensor>> = layer.params().iter().map(Var::grad).collect();
                layer.params().iter().for_each(Var::zero_grad);

                let cut = |t: &Tensor, i: usize| {
                    let n = t.len() / steps;
                    let mut shape = t.shape().to_vec();
                    shape[0] = batch;
                    Tensor::from_vec(t.data()[i * n..(i + 1) * n].to_vec(), &shape).unwrap()
                };
                let (mut want_y, mut want_dx) = (Vec::new(), Vec::new());
                for t in 0..steps {
                    let x_t = Var::param(cut(&x0, t));
                    let y_t = layer.forward_sequence(&x_t, t, 1).unwrap();
                    y_t.backward_with_seed(&cut(&seed, t));
                    want_y.extend(bits(&y_t.value()));
                    want_dx.extend(bits(&x_t.grad().unwrap()));
                }
                let tag = format!("{mode} stride {stride:?}");
                assert_eq!(bits(&y.value()), want_y, "y, {tag}");
                assert_eq!(bits(&x.grad().unwrap()), want_dx, "dx, {tag}");
                for (i, (p, whole)) in layer.params().iter().zip(&whole).enumerate() {
                    match (whole, p.grad()) {
                        (Some(whole), Some(stepwise)) => {
                            let err = whole.max_abs_diff(&stepwise).unwrap();
                            assert!(err <= 1e-5 * (1.0 + whole.norm()), "w{} {tag}: {err}", i + 1);
                        }
                        (None, None) => {}
                        _ => panic!("w{} {tag}: only one of the two passes reached it", i + 1),
                    }
                }
                assert!(layer.forward_sequence(&x, 0, 5).is_err(), "12 rows, 5 timesteps");
            }
        }
    }

    #[test]
    fn from_dense_approximates_original() {
        let mut rng = Rng::seed_from(10);
        // Low-TT-rank ground truth decomposes exactly.
        let truth = TtCores::randn(6, 6, 3, &mut rng);
        let dense = crate::merge::merge_stt(&truth).unwrap();
        let layer = TtConv::from_dense(&dense, 3, TtMode::Stt).unwrap();
        let x = Tensor::randn(&[1, 6, 6, 6], &mut rng);
        let g = Conv2dGeometry::new(6, 6, (6, 6), (3, 3), (1, 1), (1, 1));
        let want = conv::conv2d(&x, &dense, &g).unwrap();
        let got = layer.forward_tensor(&x, 0).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-2);
    }

    #[test]
    fn num_params_matches_formula_and_cores() {
        let mut rng = Rng::seed_from(11);
        let layer = TtConv::randn(16, 32, 8, TtMode::Ptt, &mut rng);
        assert_eq!(layer.num_params(), 8 * 16 + 6 * 64 + 8 * 32);
        assert_eq!(layer.num_params(), layer.cores().num_params());
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let mut rng = Rng::seed_from(12);
        let layer = TtConv::randn(4, 4, 2, TtMode::Stt, &mut rng);
        let x = Tensor::zeros(&[1, 5, 6, 6]);
        assert!(layer.forward_tensor(&x, 0).is_err());
        assert!(layer.forward_tensor(&Tensor::zeros(&[4, 6, 6]), 0).is_err());
    }

    #[test]
    fn accessors() {
        let mut rng = Rng::seed_from(13);
        let layer = TtConv::randn_strided(4, 8, 3, TtMode::Ptt, (2, 1), &mut rng);
        assert_eq!(layer.in_channels(), 4);
        assert_eq!(layer.out_channels(), 8);
        assert_eq!(layer.rank(), 3);
        assert_eq!(layer.stride(), (2, 1));
        assert_eq!(layer.mode().name(), "PTT");
    }
}
