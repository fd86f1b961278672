//! A pluggable convolution slot: dense kernel or TT module.
//!
//! The paper's contribution 2 is that TT-SNN "can be easily and flexibly
//! integrated into SNN convolutional computations" — architectures here
//! take a [`ConvPolicy`] and every 3×3 convolution slot materializes either
//! as a dense kernel (the baseline of Table II) or as a
//! [`ttsnn_core::TtConv`] in the requested mode.

use std::borrow::Cow;

use ttsnn_autograd::Var;
use ttsnn_core::flops::{ConvLayerSpec, LayerKind};
use ttsnn_core::{TtConv, TtMode};
use ttsnn_tensor::spike::{self, EventWeights, SparseMode, SpikeTensor, WindowTable};
use ttsnn_tensor::{conv, Conv2dGeometry, Rng, ShapeError, Tensor};

use crate::quant::QuantConv;

/// The dense-or-events decision of every inference site (convolution,
/// float and int8 classifier): the packed spikes the event-driven kernels
/// should read, or `None` to run dense. `handed` is what the LIF scan that
/// produced `x` packed as it fired, if it did; without it — and unless `mode`
/// rules the sparse path out — `x` is packed here, which measures the site's
/// density as a by-product and fails for non-binary activations, which always
/// run dense. Sparse and dense results are bit-identical, so the answer is a
/// cost decision, never a semantic one.
pub(crate) fn route_events<'a>(
    x: &Tensor,
    handed: Option<&'a SpikeTensor>,
    mode: SparseMode,
) -> Option<Cow<'a, SpikeTensor>> {
    if mode == SparseMode::Off {
        return None;
    }
    let packed = match handed {
        Some(handed) => Cow::Borrowed(handed),
        None => Cow::Owned(SpikeTensor::try_pack(x)?),
    };
    mode.routes_sparse(packed.density()).then_some(packed)
}

/// What freezing a plan lays out, once, for one convolution site's event
/// scatter ([`crate::Network::install_frozen`]): the [`WindowTable`]
/// of the site's geometry and, beside a dense f32 kernel, that kernel as
/// [`EventWeights`] (an int8 unit carries its own in `QConvWeights`).
#[derive(Debug)]
pub struct EventLayouts {
    windows: WindowTable,
    /// The dense kernel laid out, and the weight version it was copied at: a
    /// weight rewritten since is served from itself, never from a stale copy.
    kernel: Option<(EventWeights<f32>, u64)>,
}

/// How a network's 3×3 convolutions are realized.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvPolicy {
    /// Dense baseline convolutions (Fig. 1(a)).
    Baseline,
    /// TT-decomposed convolutions in the given mode, with ranks chosen as
    /// `max(1, round(fraction · min(I, O)))` per layer — the scaled-width
    /// analogue of VBMF's channel-proportional ranks.
    Tt {
        /// Pipeline (STT / PTT / HTT).
        mode: TtMode,
        /// Rank as a fraction of `min(I, O)` (the paper's VBMF ranks are
        /// roughly 0.25–0.4 of the layer width).
        rank_fraction: f32,
    },
    /// TT-decomposed with explicit per-layer ranks, consumed in network
    /// order (mirrors Algorithm 1's VBMF rank list).
    TtWithRanks {
        /// Pipeline (STT / PTT / HTT).
        mode: TtMode,
        /// One rank per decomposed layer, in construction order; a list of
        /// another length is a [`ShapeError`] when a network is built or
        /// described.
        ranks: Vec<usize>,
    },
}

impl ConvPolicy {
    /// Convenience TT policy at the paper-typical rank fraction (0.3).
    pub fn tt(mode: TtMode) -> Self {
        ConvPolicy::Tt { mode, rank_fraction: 0.3 }
    }

    /// Resolves the rank for the `index`-th decomposed layer with the given
    /// channel bounds; `None` for the baseline policy. Past the end of a
    /// `TtWithRanks` list it answers the channel bound; a network's shape
    /// walk rejects such a list before asking.
    pub fn rank_for(&self, index: usize, in_ch: usize, out_ch: usize) -> Option<usize> {
        match self {
            ConvPolicy::Baseline => None,
            ConvPolicy::Tt { rank_fraction, .. } => {
                let bound = in_ch.min(out_ch);
                Some(((bound as f32 * rank_fraction).round() as usize).clamp(1, bound))
            }
            ConvPolicy::TtWithRanks { ranks, .. } => {
                let bound = in_ch.min(out_ch);
                Some(ranks.get(index).copied().unwrap_or(bound).clamp(1, bound))
            }
        }
    }

    /// The TT mode, if this policy decomposes.
    pub fn mode(&self) -> Option<&TtMode> {
        match self {
            ConvPolicy::Baseline => None,
            ConvPolicy::Tt { mode, .. } | ConvPolicy::TtWithRanks { mode, .. } => Some(mode),
        }
    }

    /// Short name for reports ("baseline", "STT", "PTT", "HTT").
    pub fn name(&self) -> &'static str {
        match self.mode() {
            None => "baseline",
            Some(m) => m.name(),
        }
    }
}

/// One convolution layer: dense kernel or TT cores.
#[derive(Debug)]
pub enum ConvUnit {
    /// Dense convolution with an explicit kernel.
    Dense {
        /// `(O, I, Kh, Kw)` kernel parameter.
        weight: Var,
        /// Kernel spatial size.
        kernel: (usize, usize),
        /// Stride.
        stride: (usize, usize),
        /// Padding.
        padding: (usize, usize),
    },
    /// A TT-decomposed 3×3 convolution.
    Tt(TtConv),
    /// A **frozen int8** convolution (the quantized serving plane): int8
    /// weights shared across replicas, static calibrated activation
    /// scale, integer kernels. Inference-plane only — it has no trainable
    /// parameters and no `Var` forward.
    Quantized(QuantConv),
}

impl ConvUnit {
    /// A dense convolution with Kaiming initialization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn dense(
        in_ch: usize,
        out_ch: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        rng: &mut Rng,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && kernel.0 > 0 && kernel.1 > 0);
        ConvUnit::Dense {
            weight: Var::param(Tensor::kaiming(&[out_ch, in_ch, kernel.0, kernel.1], rng)),
            kernel,
            stride,
            padding,
        }
    }

    /// Builds the `index`-th 3×3 conv slot of a network under `policy`:
    /// dense for the baseline, a [`TtConv`] otherwise.
    pub fn conv3x3(
        policy: &ConvPolicy,
        index: usize,
        in_ch: usize,
        out_ch: usize,
        stride: (usize, usize),
        rng: &mut Rng,
    ) -> Self {
        let kind = match policy.rank_for(index, in_ch, out_ch) {
            None => LayerKind::Dense,
            Some(rank) => LayerKind::Decomposed { rank },
        };
        // A unit is shaped by its channels and kernel, not its input size.
        let geom = Conv2dGeometry::new(in_ch, out_ch, (3, 3), (3, 3), stride, (1, 1));
        Self::from_spec(&ConvLayerSpec { geom, kind }, policy.mode(), rng)
    }

    /// Realises one convolution of a described network: a [`TtConv`] at the
    /// spec's rank when it is decomposed and a `mode` is given, a dense
    /// Kaiming kernel of its geometry otherwise.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn from_spec(spec: &ConvLayerSpec, mode: Option<&TtMode>, rng: &mut Rng) -> Self {
        let g = &spec.geom;
        match (spec.kind, mode) {
            (LayerKind::Decomposed { rank }, Some(mode)) => {
                let (i, o) = (g.in_channels, g.out_channels);
                ConvUnit::Tt(TtConv::randn_strided(i, o, rank, mode.clone(), g.stride, rng))
            }
            _ => Self::dense(g.in_channels, g.out_channels, g.kernel, g.stride, g.padding, rng),
        }
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        match self {
            ConvUnit::Dense { weight, .. } => weight.shape()[1],
            ConvUnit::Tt(tt) => tt.in_channels(),
            ConvUnit::Quantized(q) => q.weights.in_channels,
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        match self {
            ConvUnit::Dense { weight, .. } => weight.shape()[0],
            ConvUnit::Tt(tt) => tt.out_channels(),
            ConvUnit::Quantized(q) => q.weights.out_channels,
        }
    }

    /// Trainable parameters (empty for frozen quantized units).
    pub fn params(&self) -> Vec<Var> {
        match self {
            ConvUnit::Dense { weight, .. } => vec![weight.clone()],
            ConvUnit::Tt(tt) => tt.params(),
            ConvUnit::Quantized(_) => Vec::new(),
        }
    }

    /// Trainable parameter count (0 for frozen quantized units).
    pub fn num_params(&self) -> usize {
        match self {
            ConvUnit::Dense { weight, .. } => weight.value().len(),
            ConvUnit::Tt(tt) => tt.num_params(),
            ConvUnit::Quantized(_) => 0,
        }
    }

    /// The full convolution geometry at the given input size (for a TT
    /// unit, that of the 3×3 kernel its cores factorize).
    pub fn geometry(&self, in_hw: (usize, usize)) -> Conv2dGeometry {
        match self {
            ConvUnit::Dense { weight, kernel, stride, padding } => {
                let s = weight.shape();
                Conv2dGeometry::new(s[1], s[0], in_hw, *kernel, *stride, *padding)
            }
            ConvUnit::Tt(tt) => tt.geometry(in_hw),
            ConvUnit::Quantized(q) => q.geometry(in_hw),
        }
    }

    /// Forward MAC count for one sample at the given input size and
    /// timestep.
    pub fn macs(&self, in_hw: (usize, usize), t: usize) -> usize {
        match self {
            ConvUnit::Tt(tt) => tt.macs(in_hw, t),
            _ => self.geometry(in_hw).macs(),
        }
    }

    /// Merges a TT unit's cores into a dense 3×3 kernel (Algorithm 1,
    /// lines 20–22), producing an equivalent [`ConvUnit::Dense`]; returns
    /// `None` for units that are already dense.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the stored cores became inconsistent
    /// (cannot happen through this API).
    pub fn merged(&self) -> Result<Option<ConvUnit>, ShapeError> {
        match self {
            ConvUnit::Dense { .. } | ConvUnit::Quantized(_) => Ok(None),
            ConvUnit::Tt(tt) => Ok(Some(ConvUnit::Dense {
                weight: Var::param(tt.merge()?),
                kernel: (3, 3),
                stride: tt.stride(),
                padding: (1, 1),
            })),
        }
    }

    /// Runs the convolution over timesteps `t0..t0 + steps` at once: `x` is
    /// their time-major stack `(steps·B, C, H, W)`. TT units consult their
    /// HTT schedule for each timestep; dense units convolve the stack as the
    /// batch it is.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x`'s shape is incompatible.
    pub fn forward_sequence(&self, x: &Var, t0: usize, steps: usize) -> Result<Var, ShapeError> {
        match self {
            ConvUnit::Dense { weight, .. } => {
                let xs = x.shape();
                if xs.len() != 4 {
                    return Err(ShapeError::new(format!(
                        "ConvUnit::forward_sequence: expected 4-D input, got {xs:?}"
                    )));
                }
                x.conv2d(weight, self.geometry((xs[2], xs[3])))
            }
            ConvUnit::Tt(tt) => tt.forward_sequence(x, t0, steps),
            ConvUnit::Quantized(_) => Err(ShapeError::new(
                "ConvUnit::forward_sequence: a quantized unit is frozen for serving and has no \
                 training (Var) plane"
                    .to_string(),
            )),
        }
    }

    /// The layouts a frozen plan keeps for this unit's event scatter at
    /// input size `in_hw`; `None` for a TT unit, which always runs dense.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a dense kernel is not 4-D or the geometry at
    /// `in_hw` describes no convolution (neither can happen through this
    /// API).
    pub(crate) fn event_layouts(
        &self,
        in_hw: (usize, usize),
    ) -> Result<Option<EventLayouts>, ShapeError> {
        let kernel = match self {
            ConvUnit::Tt(_) => return Ok(None),
            ConvUnit::Dense { weight, .. } => {
                Some((EventWeights::new(&weight.value())?, weight.version()))
            }
            ConvUnit::Quantized(_) => None,
        };
        Ok(Some(EventLayouts { windows: WindowTable::new(&self.geometry(in_hw))?, kernel }))
    }

    /// Runs the convolution on plain tensors with **no gradient tracking**
    /// — the inference path (e.g. merged-deployment evaluation) — at
    /// timestep `t`, under [`spike::sparse_mode`]. See
    /// [`ConvUnit::forward_tensor_mode`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x`'s shape is incompatible.
    pub fn forward_tensor(&self, x: &Tensor, t: usize) -> Result<Tensor, ShapeError> {
        self.forward_tensor_mode(x, None, t, 1, spike::sparse_mode(), None).map(|(y, _)| y)
    }

    /// Runs the convolution over timesteps `t0..t0 + steps` at once on the
    /// inference plane: `x` is their time-major stack `(steps·B, C, H, W)`,
    /// and the kernels work a sample at a time, so stacking moves no bit.
    /// Goes straight to the runtime kernels without building an autograd
    /// graph. Also returns whether the sparse kernels served the call.
    ///
    /// Density-adaptive dispatch: `route_events` decides, from `mode` (the
    /// model's [`crate::Network::sparse_dispatch_mode`]) and `packed` (the
    /// spike words of the LIF scan that produced `x`, when it handed them
    /// over), whether the event-driven kernels serve the call.
    /// They read `layouts` when the plan froze some for this unit
    /// ([`crate::Network::install_frozen`]) and lay their own out
    /// otherwise, with the same bits.
    ///
    /// TT units always run dense: their weights live as factorized cores,
    /// so there is no flat kernel for the event scatter to gather from —
    /// serving plans merge TT cores into dense kernels first, after which
    /// the sparse path applies.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `x`'s shape is incompatible.
    pub fn forward_tensor_mode(
        &self,
        x: &Tensor,
        packed: Option<&SpikeTensor>,
        t0: usize,
        steps: usize,
        mode: SparseMode,
        layouts: Option<&EventLayouts>,
    ) -> Result<(Tensor, bool), ShapeError> {
        let xs = x.shape();
        if xs.len() != 4 {
            return Err(ShapeError::new(format!(
                "ConvUnit::forward_tensor: expected 4-D input, got {xs:?}"
            )));
        }
        // TT units run dense (see above); every other site asks the router.
        let sparse = match self {
            ConvUnit::Tt(_) => None,
            _ => route_events(x, packed, mode),
        };
        let y = match (self, sparse.as_deref()) {
            (ConvUnit::Tt(tt), _) => tt.forward_steps_tensor(x, t0, steps),
            (ConvUnit::Dense { weight, .. }, Some(sp)) => {
                let g = self.geometry((xs[2], xs[3]));
                match layouts {
                    Some(EventLayouts { windows, kernel: Some((kernel, version)) })
                        if *version == weight.version() =>
                    {
                        spike::sparse_conv2d_frozen(sp, kernel, windows, &g)
                    }
                    _ => spike::sparse_conv2d(sp, &weight.value(), &g),
                }
            }
            (ConvUnit::Dense { weight, .. }, None) => {
                conv::conv2d(x, &weight.value(), &self.geometry((xs[2], xs[3])))
            }
            (ConvUnit::Quantized(q), events) => {
                q.forward_at(x, events, layouts.map(|l| &l.windows))
            }
        };
        Ok((y?, sparse.is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_policy_is_dense() {
        let mut rng = Rng::seed_from(1);
        let unit = ConvUnit::conv3x3(&ConvPolicy::Baseline, 0, 4, 8, (1, 1), &mut rng);
        assert!(matches!(unit, ConvUnit::Dense { .. }));
        assert_eq!(unit.num_params(), 8 * 4 * 9);
        assert_eq!(unit.in_channels(), 4);
        assert_eq!(unit.out_channels(), 8);
    }

    #[test]
    fn tt_policy_builds_tt_unit_with_fraction_rank() {
        let mut rng = Rng::seed_from(2);
        let policy = ConvPolicy::Tt { mode: TtMode::Ptt, rank_fraction: 0.5 };
        let unit = ConvUnit::conv3x3(&policy, 0, 16, 32, (1, 1), &mut rng);
        match &unit {
            ConvUnit::Tt(tt) => assert_eq!(tt.rank(), 8), // 0.5 * min(16,32)
            _ => panic!("expected TT unit"),
        }
    }

    #[test]
    fn explicit_ranks_consumed_in_order() {
        let mut rng = Rng::seed_from(3);
        let policy = ConvPolicy::TtWithRanks { mode: TtMode::Stt, ranks: vec![2, 5] };
        let u0 = ConvUnit::conv3x3(&policy, 0, 8, 8, (1, 1), &mut rng);
        let u1 = ConvUnit::conv3x3(&policy, 1, 8, 8, (1, 1), &mut rng);
        let (ConvUnit::Tt(t0), ConvUnit::Tt(t1)) = (&u0, &u1) else { panic!("expected TT units") };
        assert_eq!(t0.rank(), 2);
        assert_eq!(t1.rank(), 5);
        // missing index falls back to channel bound
        assert_eq!(policy.rank_for(9, 8, 8), Some(8));
    }

    #[test]
    fn rank_fraction_clamps() {
        let p = ConvPolicy::Tt { mode: TtMode::Stt, rank_fraction: 0.01 };
        assert_eq!(p.rank_for(0, 8, 8), Some(1));
        let p = ConvPolicy::Tt { mode: TtMode::Stt, rank_fraction: 5.0 };
        assert_eq!(p.rank_for(0, 8, 16), Some(8));
    }

    #[test]
    fn forward_shapes_match_between_dense_and_tt() {
        let mut rng = Rng::seed_from(4);
        let x = Var::constant(Tensor::randn(&[2, 6, 8, 8], &mut rng));
        for policy in [ConvPolicy::Baseline, ConvPolicy::tt(TtMode::Ptt)] {
            let unit = ConvUnit::conv3x3(&policy, 0, 6, 12, (2, 2), &mut rng);
            let y = unit.forward_sequence(&x, 0, 1).unwrap();
            assert_eq!(y.shape(), vec![2, 12, 4, 4], "policy {}", policy.name());
        }
    }

    #[test]
    fn forward_tensor_matches_autograd_forward() {
        let mut rng = Rng::seed_from(7);
        let x = Tensor::randn(&[2, 6, 8, 8], &mut rng);
        for policy in
            [ConvPolicy::Baseline, ConvPolicy::tt(TtMode::Ptt), ConvPolicy::tt(TtMode::Stt)]
        {
            let unit = ConvUnit::conv3x3(&policy, 0, 6, 12, (1, 1), &mut rng);
            let via_var =
                unit.forward_sequence(&Var::constant(x.clone()), 0, 1).unwrap().to_tensor();
            let via_tensor = unit.forward_tensor(&x, 0).unwrap();
            assert!(via_tensor.max_abs_diff(&via_var).unwrap() < 1e-6, "policy {}", policy.name());
        }
    }

    #[test]
    fn dense_1x1_shortcut() {
        let mut rng = Rng::seed_from(5);
        let unit = ConvUnit::dense(4, 8, (1, 1), (2, 2), (0, 0), &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 4, 8, 8], &mut rng));
        let y = unit.forward_sequence(&x, 0, 1).unwrap();
        assert_eq!(y.shape(), vec![1, 8, 4, 4]);
    }

    #[test]
    fn macs_tt_below_dense() {
        let mut rng = Rng::seed_from(6);
        let dense = ConvUnit::conv3x3(&ConvPolicy::Baseline, 0, 32, 32, (1, 1), &mut rng);
        let tt = ConvUnit::conv3x3(&ConvPolicy::tt(TtMode::Ptt), 0, 32, 32, (1, 1), &mut rng);
        assert!(tt.macs((16, 16), 0) < dense.macs((16, 16), 0));
        assert!(tt.num_params() < dense.num_params());
    }

    #[test]
    fn frozen_layouts_never_serve_a_rewritten_weight() {
        let mut rng = Rng::seed_from(8);
        let unit = ConvUnit::dense(4, 6, (3, 3), (1, 1), (1, 1), &mut rng);
        let x = Tensor::randn(&[2, 4, 6, 6], &mut rng).map(|v| if v > 0.5 { 1.0 } else { 0.0 });
        let layouts = unit.event_layouts((6, 6)).unwrap();
        let run = |l: Option<&EventLayouts>| {
            unit.forward_tensor_mode(&x, None, 0, 1, SparseMode::Force, l).unwrap()
        };
        assert_eq!(run(layouts.as_ref()), run(None), "frozen layouts == per-call layouts");
        let ConvUnit::Dense { weight, .. } = &unit else { unreachable!("a dense unit") };
        weight.set_value(Tensor::randn(&[6, 4, 3, 3], &mut rng));
        let (y, sparse) = run(layouts.as_ref());
        assert!(sparse, "binary input at force routes to the event kernel");
        let want = conv::conv2d(&x, &weight.value(), &unit.geometry((6, 6))).unwrap();
        assert_eq!(y, want, "a rewritten weight is served from itself");
    }

    #[test]
    fn policy_names() {
        assert_eq!(ConvPolicy::Baseline.name(), "baseline");
        assert_eq!(ConvPolicy::tt(TtMode::Stt).name(), "STT");
        assert_eq!(ConvPolicy::tt(TtMode::htt_default(4)).name(), "HTT");
    }
}
