//! One layer program per model, walked by every plane.
//!
//! An [`Architecture`] ([`crate::ResNetConfig`], [`crate::VggConfig`]) only
//! *describes* itself, as a [`Program`]: a flat list of [`Layer`]s over two
//! activation slots. One shape walk checks every layer against what its
//! slots hold; [`Network::try_new`] realises the checked list as ops holding
//! weights and membrane state, and [`Program::spec`] counts it, weight-free,
//! in the vocabulary of the analytic accounting (`ttsnn_core::flops`).
//! Everything a consumer does with a model is then one of three walks of
//! that vector, written once here: the **tape walk**
//! ([`Network::forward_sequence`], layer-major BPTT), the **tensor
//! walk** ([`InferForward::forward_steps_tensor`], the same layer-major
//! forward over any cut of a sequence on f32 / spike-sparse / int8 kernels,
//! with calibration hooks), and the
//! **accounting and state walks** (parameters, MACs, TT layers, merge-back,
//! the conv sites the quantizer freezes, the LIF list behind reset / take /
//! restore / densities).
//!
//! # Two slots
//!
//! [`Slot::Main`] carries the running activation and starts as the input
//! frame; [`Slot::Skip`] holds a block input for its residual connection.
//! A basic block is: [`Layer::Stash`] (main → skip), `conv_a` reading skip
//! into main, norm, LIF, `conv_b`, norm, optionally a projection conv and
//! norm on skip, [`Layer::Add`], LIF. A plain stack never leaves main.
//!
//! # The order contract
//!
//! Program order is the order of everything that used to be kept in step by
//! comment: RNG draws (convs in program order, then the classifier; norms
//! and LIFs draw nothing), [`SpikingModel::params`] (each conv's and norm's
//! parameters in program order, then `fc_w`, `fc_b` unless frozen to int8 —
//! the checkpoint layout), conv sites (calibration site `i` is the `i`-th
//! conv, the classifier comes last), LIF layers ([`InferState`] membranes,
//! spike densities) and MAC accounting. `tests/program_order.rs` pins them.
//!
//! A new architecture is a new [`Architecture`] impl; a new per-layer
//! feature is a new variant or an edit to one walk — never an edit per
//! model.

use ttsnn_autograd::Var;
use ttsnn_core::flops::{ConvLayerSpec, LayerKind, NetworkSpec};
use ttsnn_core::TtConv;
use ttsnn_tensor::spike::{self, SparseMode, SpikeTensor};
use ttsnn_tensor::{pool, Conv2dGeometry, Rng, ShapeError, Tensor};

use crate::conv_unit::{ConvPolicy, ConvUnit, EventLayouts};
use crate::lif::{Lif, LifConfig};
use crate::model::{
    copy_frame, linear_per_timestep, linear_tensor_mode, validate_frames, InferForward, InferState,
    InferStats, SpikingModel,
};
use crate::norm::{Norm, NormKind};
use crate::quant::{
    self, CalibRecorder, CalibStats, QuantConfig, QuantLinear, QuantPlanWeights, QuantReport,
};

/// One of the two activation slots a program's layers read and write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The running activation; starts as the input frame.
    Main,
    /// A block input held for its residual connection.
    Skip,
}

/// One step of a layer program, as an architecture describes it — before
/// any weight exists. `Lif`, `AvgPool2`, `Stash` and `Add` act on main.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `to = conv(from)`: square `kernel` at padding `kernel / 2`. The input
    /// is consumed when `from == to` and stays in its slot otherwise.
    Conv {
        /// Output channels.
        out: usize,
        /// Kernel side (3 or 1 in the shipped architectures).
        kernel: usize,
        /// Stride along both axes.
        stride: usize,
        /// A 3×3 slot the [`ConvPolicy`] realises (dense, or TT at the next
        /// rank); `false` for stems and projections, which stay dense.
        decompose: bool,
        /// Slot read.
        from: Slot,
        /// Slot written.
        to: Slot,
    },
    /// Normalizes a slot in place.
    Norm(Slot),
    /// A LIF layer: membrane input in, spikes out.
    Lif,
    /// 2×2 average pooling.
    AvgPool2,
    /// Moves main to skip (the start of a residual block).
    Stash,
    /// `main += skip`, emptying skip.
    Add,
}

/// A whole network as data: what [`Architecture::program`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Display name.
    pub name: String,
    /// Input frame shape `(C, H, W)`.
    pub input: [usize; 3],
    /// Classes of the classifier that closes the program (on the globally
    /// average-pooled main slot).
    pub num_classes: usize,
    /// Normalization every [`Layer::Norm`] uses.
    pub norm: NormKind,
    /// Neuron settings every [`Layer::Lif`] uses.
    pub lif: LifConfig,
    /// The layers, in execution order.
    pub layers: Vec<Layer>,
}

/// Something that can describe itself as a layer program — all an
/// architecture has to do.
pub trait Architecture {
    /// The program for this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the configuration contradicts itself before
    /// any layer can be emitted (e.g. list lengths that do not align).
    fn program(&self) -> Result<Program, ShapeError>;
}

/// A [`Layer`] the shape walk has met: what realising or counting it needs.
#[derive(Debug, Clone, Copy)]
enum Checked {
    /// A conv's full geometry, and dense or decomposed at the policy's rank.
    Conv {
        spec: ConvLayerSpec,
        from: Slot,
        to: Slot,
    },
    /// A norm over this many channels.
    Norm {
        channels: usize,
        on: Slot,
    },
    Lif,
    AvgPool2,
    Stash,
    Add,
}

impl Program {
    /// The shape walk, shared by [`Network::try_new`] and [`Program::spec`]:
    /// every layer checked once, in order, against the `(C, H, W)` its slots
    /// hold, each decomposable 3×3 given its kind by
    /// [`ConvPolicy::rank_for`]. Returns the layers one for one and the
    /// channels the classifier reads.
    fn check(&self, policy: &ConvPolicy) -> Result<(Vec<Checked>, usize), ShapeError> {
        let fail = |i: usize, kind: &dyn std::fmt::Debug, why: String| {
            ShapeError::new(format!("{}: program op {i} ({kind:?}): {why}", self.name))
        };
        // The tensor walk borrows the caller's frame until a conv has
        // written main, so nothing may run in place before that.
        if !matches!(
            self.layers.first(),
            Some(Layer::Conv { from: Slot::Main, to: Slot::Main, .. })
        ) {
            let why = "a program starts with a conv from main to main".to_string();
            return Err(fail(0, &self.layers.first(), why));
        }
        // The `(C, H, W)` each slot holds.
        let mut shapes = [Some(self.input), None];
        let mut slots_3x3 = 0usize;
        let mut check = |layer: Layer| -> Result<Checked, String> {
            let held = |slot: Slot| {
                shapes[slot as usize].ok_or_else(|| format!("the {slot:?} slot is empty"))
            };
            Ok(match layer {
                Layer::Conv { out, kernel, stride, decompose, from, to } => {
                    let [c, h, w] = held(from)?;
                    let square = |n| (n, n);
                    let (kernel, stride, pad) =
                        (square(kernel), square(stride), square(kernel / 2));
                    let geom = Conv2dGeometry::new(c, out, (h, w), kernel, stride, pad);
                    let empty = [c, h, w, out, kernel.0, stride.0].contains(&0);
                    if empty || (decompose && kernel.0 != 3) {
                        return Err(format!("cannot realise {geom:?}"));
                    }
                    let rank = decompose.then(|| {
                        slots_3x3 += 1;
                        policy.rank_for(slots_3x3 - 1, c, out)
                    });
                    let kind = match rank.flatten() {
                        Some(rank) => LayerKind::Decomposed { rank },
                        None => LayerKind::Dense,
                    };
                    let (oh, ow) = geom.out_hw();
                    shapes[to as usize] = Some([out, oh, ow]);
                    Checked::Conv { spec: ConvLayerSpec { geom, kind }, from, to }
                }
                Layer::Norm(on) => {
                    let [channels, ..] = held(on)?;
                    if matches!(self.norm, NormKind::Tebn { timesteps: 0 }) {
                        return Err("TEBN needs at least one timestep".to_string());
                    }
                    Checked::Norm { channels, on }
                }
                Layer::Lif => {
                    held(Slot::Main)?;
                    Checked::Lif
                }
                Layer::AvgPool2 => {
                    let [c, h, w] = held(Slot::Main)?;
                    if h == 0 || w == 0 || !h.is_multiple_of(2) || !w.is_multiple_of(2) {
                        return Err(format!("2x2 pool needs even spatial dims, got {h}x{w}"));
                    }
                    shapes[0] = Some([c, h / 2, w / 2]);
                    Checked::AvgPool2
                }
                Layer::Stash => {
                    if shapes[1].is_some() {
                        return Err("the Skip slot is already occupied".to_string());
                    }
                    shapes = [None, Some(held(Slot::Main)?)];
                    Checked::Stash
                }
                Layer::Add => {
                    let (main, skip) = (held(Slot::Main)?, held(Slot::Skip)?);
                    if main != skip {
                        return Err(format!("main {main:?} does not match skip {skip:?}"));
                    }
                    shapes[1] = None;
                    Checked::Add
                }
            })
        };
        let mut checked = Vec::with_capacity(self.layers.len());
        for (i, &layer) in self.layers.iter().enumerate() {
            checked.push(check(layer).map_err(|why| fail(i, &layer, why))?);
        }
        if let ConvPolicy::TtWithRanks { ranks, .. } = policy {
            if ranks.len() != slots_3x3 {
                return Err(ShapeError::new(format!(
                    "{}: {} TT ranks for {slots_3x3} decomposable 3x3 convs",
                    self.name,
                    ranks.len()
                )));
            }
        }
        let classes = self.num_classes;
        match shapes {
            [Some([c, _, _]), None] if c > 0 && classes > 0 => Ok((checked, c)),
            _ => {
                let why = format!("{classes} classes over [main, skip] = {shapes:?}");
                Err(fail(checked.len(), &format_args!("classifier"), why))
            }
        }
    }

    /// The network this program describes under `policy`, trained for
    /// `timesteps`, as the analytic accounting sees it: every conv's
    /// geometry and kind (ranks from [`ConvPolicy::rank_for`]), the norm
    /// parameters per [`NormKind`] and the classifier's. Walks the
    /// weight-free program, so a full-size ResNet34 costs no weights; a
    /// [`Network`] built from the same program and policy has exactly these
    /// convs, parameters and MACs.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] where [`Network::try_new`] would.
    pub fn spec(&self, policy: &ConvPolicy, timesteps: usize) -> Result<NetworkSpec, ShapeError> {
        let (checked, features) = self.check(policy)?;
        let mut spec = NetworkSpec {
            name: self.name.clone(),
            conv_layers: Vec::new(),
            fc_params: features * self.num_classes + self.num_classes,
            bn_params: 0,
            timesteps,
        };
        for layer in checked {
            match layer {
                Checked::Conv { spec: conv, .. } => spec.conv_layers.push(conv),
                Checked::Norm { channels, .. } => spec.bn_params += self.norm.params(channels),
                _ => {}
            }
        }
        Ok(spec)
    }
}

/// A realised [`Layer`]: the same step, holding its weights or state.
#[derive(Debug)]
enum Op {
    /// `in_hw` is the input's spatial size, for MAC accounting; `events` the
    /// layouts [`Network::install_frozen`] made for the unit.
    Conv {
        unit: ConvUnit,
        in_hw: (usize, usize),
        from: Slot,
        to: Slot,
        events: Option<EventLayouts>,
    },
    Norm {
        norm: Norm,
        on: Slot,
    },
    Lif(Lif),
    AvgPool2,
    Stash,
    Add,
}

/// A spiking network with a pluggable convolution policy, executable on
/// both planes: one layer program (see the [module docs](self)) closed by a
/// classifier on the globally average-pooled spikes of its last layer
/// (Algorithm 1 line 14).
///
/// ```
/// use ttsnn_snn::{ConvPolicy, Network, ResNetConfig};
/// use ttsnn_core::TtMode;
/// use ttsnn_autograd::Var;
/// use ttsnn_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let mut rng = Rng::seed_from(0);
/// let cfg = ResNetConfig::resnet18(10, (16, 16), 16); // narrow for the doc test
/// let mut net = Network::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
/// let x = Var::constant(Tensor::randn(&[2, 3, 16, 16], &mut rng));
/// let logits = net.forward_timestep(&x, 0)?;
/// assert_eq!(logits.shape(), vec![2, 10]);
/// # Ok(())
/// # }
/// ```
pub struct Network {
    program: Program,
    policy_name: &'static str,
    /// `program.layers`, realised one for one.
    ops: Vec<Op>,
    fc_w: Var,
    fc_b: Var,
    /// Quantized classifier head; `Some` once frozen to the int8 plane.
    qfc: Option<QuantLinear>,
    /// Live calibration hook (only during [`Network::calibrate`]).
    calib: Option<CalibRecorder>,
    infer_stats: InferStats,
    /// Sparse-dispatch mode of the tensor walk ([`spike::sparse_mode`]
    /// unless a test pins another).
    sparse_mode: SparseMode,
    /// `[sparse, dense]` tensor-walk calls per conv site, classifier last.
    dispatch: Vec<[u64; 2]>,
}

/// [`Network::try_new`] checked that every layer's operands are there, so
/// the walks cannot meet this through the public API.
fn missing(slot: Slot) -> ShapeError {
    ShapeError::new(format!("layer program read the empty {slot:?} slot"))
}

/// What the tape walk reads from a slot.
fn held(slots: &[Option<Var>; 2], slot: Slot) -> Result<&Var, ShapeError> {
    slots[slot as usize].as_ref().ok_or_else(|| missing(slot))
}

impl Network {
    /// Builds `config`'s network under the given convolution policy. Stems
    /// and 1×1 projections stay dense (the first convolution is the spike
    /// encoder under direct coding); every other 3×3 follows the policy.
    ///
    /// # Panics
    ///
    /// Panics where [`Network::try_new`] returns an error: stage lists that
    /// do not align, zero widths or classes, an odd spatial size meeting a
    /// 2×2 pool (VGG9's 3 pools need 8×8 inputs, VGG11's 5 need 32×32).
    pub fn new(config: impl Architecture, policy: &ConvPolicy, rng: &mut Rng) -> Self {
        Self::try_new(&config, policy, rng).expect("the configuration must describe a network")
    }

    /// [`Network::new`] for configurations that arrive from outside the
    /// program (a serving plan). Every layer's shape is checked first, once,
    /// against what its slots hold (the walk [`Program::spec`] counts);
    /// weights are then drawn from `rng` for the convolutions in program
    /// order, then for the classifier.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] naming the index and kind of the first layer
    /// that cannot be realised, or both counts when a
    /// [`ConvPolicy::TtWithRanks`] list does not cover the decomposable
    /// convolutions one for one.
    pub fn try_new(
        config: &impl Architecture,
        policy: &ConvPolicy,
        rng: &mut Rng,
    ) -> Result<Self, ShapeError> {
        let program = config.program()?;
        let (checked, features) = program.check(policy)?;
        let ops: Vec<Op> = checked
            .into_iter()
            .map(|layer| match layer {
                Checked::Conv { spec, from, to } => {
                    let unit = ConvUnit::from_spec(&spec, policy.mode(), rng);
                    Op::Conv { unit, in_hw: spec.geom.in_hw, from, to, events: None }
                }
                Checked::Norm { channels, on } => {
                    Op::Norm { norm: Norm::new(channels, program.norm), on }
                }
                Checked::Lif => Op::Lif(Lif::new(program.lif)),
                Checked::AvgPool2 => Op::AvgPool2,
                Checked::Stash => Op::Stash,
                Checked::Add => Op::Add,
            })
            .collect();
        let sites = ops.iter().filter(|op| matches!(op, Op::Conv { .. })).count() + 1;
        let classes = program.num_classes;
        Ok(Self {
            policy_name: policy.name(),
            ops,
            fc_w: Var::param(Tensor::kaiming(&[classes, features], rng)),
            fc_b: Var::param(Tensor::zeros(&[classes])),
            qfc: None,
            calib: None,
            infer_stats: InferStats::default(),
            sparse_mode: spike::sparse_mode(),
            dispatch: vec![[0; 2]; sites],
            program,
        })
    }

    /// The program this network realises.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Sets the inference plane's sparse-dispatch mode for this model
    /// instance (default [`spike::sparse_mode`]). Sparse and dense kernels
    /// are bit-identical, so this changes performance only — tests use it
    /// to pin exactly that, with [`SparseMode::Off`] as the dense reference.
    pub fn set_sparse_mode(&mut self, mode: SparseMode) {
        self.sparse_mode = mode;
    }

    /// The sparse-dispatch mode the inference plane serves under.
    pub fn sparse_dispatch_mode(&self) -> SparseMode {
        self.sparse_mode
    }

    /// How often the tensor walk served each site from the event-driven
    /// sparse kernels and from the dense ones, as `(sparse, dense)` calls per
    /// convolution in program order, the classifier last, since construction
    /// or the last [`Network::clear_dispatch_counts`]. A site reads sparse
    /// only if its input is binary: the average of a 2×2 pool of spikes is
    /// not, so a conv (or classifier) behind a pool runs dense whatever the
    /// spike density.
    pub fn conv_dispatch_counts(&self) -> Vec<(u64, u64)> {
        self.dispatch.iter().map(|&[sparse, dense]| (sparse, dense)).collect()
    }

    /// Clears the dispatch counters (nothing else is touched).
    pub fn clear_dispatch_counts(&mut self) {
        self.dispatch.fill([0; 2]);
    }

    /// Every convolution with its input size, in program order — the
    /// calibration / quantization site order.
    fn convs(&self) -> impl Iterator<Item = (&ConvUnit, (usize, usize))> {
        self.ops.iter().filter_map(|op| match op {
            Op::Conv { unit, in_hw, .. } => Some((unit, *in_hw)),
            _ => None,
        })
    }

    /// Every convolution, handed out for rewriting: each drops the layouts
    /// frozen for it.
    fn convs_mut(&mut self) -> impl Iterator<Item = &mut ConvUnit> {
        self.ops.iter_mut().filter_map(|op| match op {
            Op::Conv { unit, events, .. } => {
                *events = None;
                Some(unit)
            }
            _ => None,
        })
    }

    /// Every LIF layer in program order — the [`InferState`] order.
    fn lifs(&self) -> impl Iterator<Item = &Lif> {
        self.ops.iter().filter_map(|op| match op {
            Op::Lif(lif) => Some(lif),
            _ => None,
        })
    }

    fn lifs_mut(&mut self) -> impl Iterator<Item = &mut Lif> {
        self.ops.iter_mut().filter_map(|op| match op {
            Op::Lif(lif) => Some(lif),
            _ => None,
        })
    }

    /// All TT conv layers (for merge-back / analysis), in network order.
    /// Empty for baseline and merged networks.
    pub fn tt_layers(&self) -> Vec<&TtConv> {
        self.convs()
            .filter_map(|(unit, _)| if let ConvUnit::Tt(tt) = unit { Some(tt) } else { None })
            .collect()
    }

    /// The constructed network in the vocabulary of the analytic accounting
    /// (`ttsnn_core::flops`): every convolution's geometry and whether it is
    /// dense or decomposed at which rank, in network order — what
    /// [`Program::spec`] describes, read back from the realised units.
    pub fn conv_layer_specs(&self) -> Vec<ConvLayerSpec> {
        let spec = |(unit, in_hw): (&ConvUnit, _)| ConvLayerSpec {
            geom: unit.geometry(in_hw),
            kind: match unit {
                ConvUnit::Tt(tt) => LayerKind::Decomposed { rank: tt.rank() },
                _ => LayerKind::Dense,
            },
        };
        self.convs().map(spec).collect()
    }

    /// Merges every TT convolution back into a dense kernel in place
    /// (Algorithm 1 lines 20–22) and returns how many were merged. An
    /// HTT-trained network serves its *full* (PTT) path at every timestep
    /// afterwards, as in the paper's inference pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any layer's cores became inconsistent
    /// (cannot happen through this API).
    pub fn merge_into_dense(&mut self) -> Result<usize, ShapeError> {
        let mut merged = 0usize;
        for unit in self.convs_mut() {
            if let Some(dense) = unit.merged()? {
                *unit = dense;
                merged += 1;
            }
        }
        if merged > 0 {
            self.policy_name = "merged-dense";
        }
        Ok(merged)
    }

    /// Turns this freshly built model into a serving replica of a frozen
    /// plan — the one way a model is brought up to serve. In this order:
    ///
    /// 1. `quant`'s shared int8 conv and classifier weights replace the
    ///    model's float ones ([`Network::quant_plan`] exports them), which
    ///    shrinks [`SpikingModel::params`] to the float (norm) remainder;
    /// 2. `weights` — [`checkpoint::share_params`](crate::checkpoint::share_params)
    ///    of the plan, in `params()` order — are installed as O(1) handles,
    ///    so every replica aliases one copy;
    /// 3. the event layouts are laid out from the final weights;
    /// 4. the model switches to [`InferStats::PerSample`], the serving
    ///    contract.
    ///
    /// The model starts with the plan's weights and no traffic on its
    /// activity counters.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `quant` or `weights` does not match the
    /// architecture. A mismatched `quant` leaves the model untouched; a
    /// mismatched `weights` list is found after `quant` is installed.
    ///
    /// The steps it runs are not public, so a replica cannot be assembled
    /// any other way:
    ///
    /// ```
    /// # use ttsnn_snn::{checkpoint, ConvPolicy, Network, SpikingModel, VggConfig};
    /// # let mut net = Network::new(VggConfig::vgg9(3, 5, (8, 8), 16), &ConvPolicy::Baseline, &mut ttsnn_tensor::Rng::seed_from(1));
    /// let weights = checkpoint::share_params(&net.params());
    /// net.install_frozen(&weights, None).unwrap();
    /// ```
    ///
    /// ```compile_fail,E0624
    /// # use ttsnn_snn::{checkpoint, ConvPolicy, Network, SpikingModel, VggConfig};
    /// # let mut net = Network::new(VggConfig::vgg9(3, 5, (8, 8), 16), &ConvPolicy::Baseline, &mut ttsnn_tensor::Rng::seed_from(1));
    /// let weights = checkpoint::share_params(&net.params());
    /// net.freeze_event_layouts().unwrap();
    /// ```
    ///
    /// ```compile_fail,E0624
    /// # use ttsnn_snn::{checkpoint, ConvPolicy, Network, SpikingModel, VggConfig};
    /// # let mut net = Network::new(VggConfig::vgg9(3, 5, (8, 8), 16), &ConvPolicy::Baseline, &mut ttsnn_tensor::Rng::seed_from(1));
    /// let weights = checkpoint::share_params(&net.params());
    /// net.install_quant_plan(&net.quant_plan().unwrap()).unwrap();
    /// ```
    ///
    /// ```compile_fail,E0603
    /// # use ttsnn_snn::{checkpoint, ConvPolicy, Network, SpikingModel, VggConfig};
    /// # let mut net = Network::new(VggConfig::vgg9(3, 5, (8, 8), 16), &ConvPolicy::Baseline, &mut ttsnn_tensor::Rng::seed_from(1));
    /// let weights = checkpoint::share_params(&net.params());
    /// checkpoint::install_params(&net.params(), &weights).unwrap();
    /// ```
    pub fn install_frozen(
        &mut self,
        weights: &[Tensor],
        quant: Option<&QuantPlanWeights>,
    ) -> Result<(), ShapeError> {
        if let Some(quant) = quant {
            self.install_quant_plan(quant)?;
        }
        crate::checkpoint::install_params(&self.params(), weights)
            .map_err(|e| ShapeError::new(e.to_string()))?;
        self.freeze_event_layouts()?;
        self.set_infer_stats(InferStats::PerSample);
        Ok(())
    }

    /// Lays out, once, what the event-driven kernels read at every
    /// convolution the serving plane may route to them (TT units never are):
    /// the window table of the site's geometry and a dense f32 kernel's
    /// `[C·Kh·Kw][O]` copy (an int8 unit's is frozen with it). A plan calls
    /// it once its weights are final: rewriting a unit afterwards drops its
    /// layouts, and a weight rewritten in place (`Var::set_value`, which
    /// `checkpoint::share_params` calls too) is served from itself until the
    /// next freeze. Results are bit-identical with or without it.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a dense kernel is not 4-D (cannot happen
    /// through this API).
    pub(crate) fn freeze_event_layouts(&mut self) -> Result<(), ShapeError> {
        for op in &mut self.ops {
            if let Op::Conv { unit, in_hw, events, .. } = op {
                *events = unit.event_layouts(*in_hw)?;
            }
        }
        Ok(())
    }

    /// Whether the model has been frozen to the int8 serving plane.
    pub fn is_quantized(&self) -> bool {
        self.qfc.is_some()
    }

    /// Runs a calibration pass on the inference plane: each frame —
    /// `(C, H, W)` direct coding or `(T, C, H, W)` event frames — is stacked
    /// time-major over `timesteps` and walked in one
    /// [`InferForward::forward_steps_tensor`] call while hooks record the
    /// activation range entering every convolution (site `i` is the `i`-th
    /// conv of the program) and the classifier (the last site). Every frame
    /// runs alone, at batch 1, where [`InferStats::Batch`] and
    /// [`InferStats::PerSample`] agree, so the model's mode is left as it
    /// is. The returned [`CalibStats`] feed [`Network::quantize`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if there is no frame or no timestep (nothing
    /// to measure), or if a frame fails [`validate_frames`]: another rank,
    /// another leading length than `timesteps`, another `(C, H, W)` than
    /// the program's input, or a non-finite value.
    pub fn calibrate(
        &mut self,
        frames: &[Tensor],
        timesteps: usize,
    ) -> Result<CalibStats, ShapeError> {
        if frames.is_empty() || timesteps == 0 {
            return Err(ShapeError::new(format!(
                "calibrate: {} frame(s) over {timesteps} timestep(s) measure no activation range",
                frames.len()
            )));
        }
        let [c, h, w] = self.program.input;
        self.calib = Some(CalibRecorder::default());
        let run = frames.iter().try_for_each(|frame| {
            validate_frames(frame, self.program.input, Some(timesteps), "calibration frame")
                .map_err(ShapeError::new)?;
            let mut stack = Tensor::scratch(&[timesteps, c, h, w]);
            for (t, row) in stack.data_mut().chunks_mut(c * h * w).enumerate() {
                copy_frame(frame, t, row);
            }
            self.reset_state();
            let logits = self.forward_steps_tensor(&stack, 0, timesteps);
            stack.recycle();
            logits.map(Tensor::recycle)
        });
        self.reset_state();
        let recorder = self.calib.take().unwrap_or_default();
        run.map(|()| recorder.into_stats(frames.len(), timesteps))
    }

    /// Freezes every (dense) convolution — stems, block convs, shortcut
    /// projections — and the classifier to int8 using the calibrated
    /// activation scales: the quantized serving plane. Requires TT layers
    /// to be merged first ([`Network::merge_into_dense`]).
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
        let sites = self.convs().count();
        if calib.sites.len() != sites + 1 {
            return Err(ShapeError::new(format!(
                "quantize: calibration covered {} sites, model has {sites} convs + classifier",
                calib.sites.len()
            )));
        }
        // Quantize the classifier FIRST: if it fails (e.g. non-finite
        // weights), no conv site has been frozen yet and the model stays
        // fully usable — the no-half-frozen invariant `quantize_conv_sites`
        // keeps internally.
        let ql = QuantLinear::from_dense(
            &self.fc_w.value(),
            &self.fc_b.value(),
            calib.scale_for(sites),
            cfg,
        )?;
        let mut report = quant::quantize_conv_sites(self.convs_mut().collect(), calib, cfg)?;
        report.int8_bytes += ql.weights.storage_bytes();
        report.f32_bytes += (self.fc_w.value().len() + self.fc_b.value().len()) * 4;
        self.qfc = Some(ql);
        self.policy_name = "int8";
        Ok(report)
    }

    /// Exports the frozen int8 weights for O(1) sharing with sibling
    /// replicas (`None` until [`Network::quantize`] has run).
    pub fn quant_plan(&self) -> Option<QuantPlanWeights> {
        quant::export_conv_sites(self.convs().map(|(unit, _)| unit).collect(), self.qfc.as_ref())
    }

    /// Installs shared frozen int8 weights exported by a sibling replica's
    /// [`Network::quant_plan`], discarding this model's float conv and
    /// classifier weights.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the plan does not match the architecture.
    pub(crate) fn install_quant_plan(&mut self, plan: &QuantPlanWeights) -> Result<(), ShapeError> {
        // Validate the classifier BEFORE mutating any conv site, so a
        // mismatched plan cannot leave the model half-installed.
        let (fc, x_scale) = &plan.fc;
        if [fc.out_features, fc.in_features] != self.fc_w.shape()[..] {
            return Err(ShapeError::new("install_quant_plan: classifier shape mismatch"));
        }
        quant::install_conv_sites(self.convs_mut().collect(), &plan.convs, plan.accum)?;
        let weights = std::sync::Arc::clone(fc);
        self.qfc = Some(QuantLinear { weights, x_scale: *x_scale, accum: plan.accum });
        self.policy_name = "int8";
        Ok(())
    }

    /// The **tape walk**: processes timesteps `t0..t0 + steps` of a batch
    /// on autograd [`Var`]s, recording the BPTT tape, layer-major — every
    /// layer sees all the timesteps of the call at once. `x` is their input
    /// frames as one time-major stack `(steps·B, C, H, W)`: row `t·B + s` is
    /// sample `s` at timestep `t0 + t`. Returns the `(B, K)` logits of each
    /// timestep, in order, as graph nodes.
    ///
    /// The only recurrence in a feed-forward SNN is each LIF layer's own
    /// membrane, so a layer does not need the layers after it to have seen
    /// timestep `t` before it looks at `t + 1`: convolutions and tdBN run
    /// over the stacked timesteps as one batch (statistics still per
    /// timestep), and only the LIF scans through time, inside one tape
    /// node. The LIF layers start from the membranes the previous call left
    /// (see [`SpikingModel::reset_state`]), so a sequence may be fed in
    /// several calls; logits, loss and activation gradients do not depend
    /// on how it was cut.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input does not match the architecture
    /// or does not hold `steps` timesteps.
    pub fn forward_sequence(
        &mut self,
        x: &Var,
        t0: usize,
        steps: usize,
    ) -> Result<Vec<Var>, ShapeError> {
        // [main, skip]. A `Var` is a shared handle, so a stash shares main
        // rather than emptying it.
        let mut slots = [Some(x.clone()), None];
        for op in &mut self.ops {
            let (slot, y) = match op {
                Op::Conv { unit, from, to, .. } => {
                    (*to, unit.forward_sequence(held(&slots, *from)?, t0, steps)?)
                }
                Op::Norm { norm, on } => {
                    (*on, norm.forward_sequence(held(&slots, *on)?, t0, steps)?)
                }
                Op::Lif(lif) => (Slot::Main, lif.scan(held(&slots, Slot::Main)?, steps)?),
                Op::AvgPool2 => (Slot::Main, held(&slots, Slot::Main)?.avg_pool2d(2)?),
                Op::Stash => (Slot::Skip, held(&slots, Slot::Main)?.clone()),
                Op::Add => {
                    let sum = held(&slots, Slot::Main)?.add(held(&slots, Slot::Skip)?)?;
                    slots[Slot::Skip as usize] = None;
                    (Slot::Main, sum)
                }
            };
            slots[slot as usize] = Some(y);
        }
        let pooled = held(&slots, Slot::Main)?.global_avg_pool()?;
        linear_per_timestep(&pooled, &self.fc_w, &self.fc_b, steps)
    }

    /// Processes the `(B, C, H, W)` input frame at timestep `t`, returning
    /// `(B, K)` logits for this timestep as a graph node: a sequence of one,
    /// and the oracle the layer-major walk is checked against.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the input does not match the architecture.
    pub fn forward_timestep(&mut self, x: &Var, t: usize) -> Result<Var, ShapeError> {
        let mut logits = self.forward_sequence(x, t, 1)?;
        logits.pop().ok_or_else(|| ShapeError::new("forward_sequence returned no logits"))
    }
}

impl InferForward for Network {
    fn forward_steps_tensor(
        &mut self,
        x: &Tensor,
        t0: usize,
        steps: usize,
    ) -> Result<Tensor, ShapeError> {
        let stats = self.infer_stats;
        let mode = self.sparse_dispatch_mode();
        let mut site = 0usize;
        // [main, skip]: owned buffers that go back to the arena as soon as
        // they are spent, each with the spike words of the LIF scan that
        // wrote it riding beside it until something rewrites the slot. Main
        // starts empty: until the first conv writes it, main *is* the
        // caller's stack `x` (`try_new` lets nothing but a conv read it
        // there).
        let mut slots: [Option<(Tensor, Option<SpikeTensor>)>; 2] = [None, None];
        for op in &mut self.ops {
            match op {
                Op::Conv { unit, from, to, events, .. } => {
                    let (src, packed) = match &slots[*from as usize] {
                        Some((y, packed)) => (y, packed.as_ref()),
                        None => (x, None),
                    };
                    if let Some(rec) = self.calib.as_mut() {
                        rec.observe(site, src);
                    }
                    let (y, sparse) =
                        unit.forward_tensor_mode(src, packed, t0, steps, mode, events.as_ref())?;
                    self.dispatch[site][usize::from(!sparse)] += 1;
                    site += 1;
                    if let Some((spent, _)) = slots[*to as usize].replace((y, None)) {
                        spent.recycle();
                    }
                }
                Op::Norm { norm, on } => {
                    let (y, packed) = slots[*on as usize].as_mut().ok_or_else(|| missing(*on))?;
                    *packed = None;
                    norm.forward_tensor(y, t0, steps, stats)?;
                }
                Op::Lif(lif) => {
                    let (y, _) = slots[0].take().ok_or_else(|| missing(Slot::Main))?;
                    slots[0] = Some(lif.scan_tensor(y, steps, mode != SparseMode::Off)?);
                }
                Op::AvgPool2 => {
                    let (y, _) = slots[0].take().ok_or_else(|| missing(Slot::Main))?;
                    slots[0] = Some((pool::avg_pool2d(&y, 2)?, None));
                    y.recycle();
                }
                Op::Stash => slots.swap(0, 1),
                Op::Add => {
                    let (sc, _) = slots[1].take().ok_or_else(|| missing(Slot::Skip))?;
                    let (y, packed) = slots[0].as_mut().ok_or_else(|| missing(Slot::Main))?;
                    *packed = None;
                    y.add_scaled(&sc, 1.0)?;
                    sc.recycle();
                }
            }
        }
        let [main, _] = slots;
        let pooled = pool::global_avg_pool(main.as_ref().map_or(x, |(y, _)| y))?;
        if let Some((spent, _)) = main {
            spent.recycle();
        }
        if let Some(rec) = self.calib.as_mut() {
            rec.observe(site, &pooled);
        }
        let logits = match &self.qfc {
            Some(q) => q.forward_mode(&pooled, mode),
            None => {
                let (w, b) = (self.fc_w.value(), self.fc_b.value());
                linear_tensor_mode(&pooled, &w, &b, steps, stats, mode)
            }
        };
        pooled.recycle();
        let (logits, sparse) = logits?;
        self.dispatch[site][usize::from(!sparse)] += 1;
        Ok(logits)
    }

    fn set_infer_stats(&mut self, stats: InferStats) {
        self.infer_stats = stats;
    }

    fn infer_stats(&self) -> InferStats {
        self.infer_stats
    }

    fn take_infer_state(&mut self) -> InferState {
        InferState::from_membranes(self.lifs_mut().map(Lif::take_state_tensor).collect())
    }

    fn restore_infer_state(&mut self, state: InferState) -> Result<(), ShapeError> {
        let expected = self.lifs().count();
        if state.layers() != expected {
            return Err(ShapeError::new(format!(
                "restore_infer_state: snapshot covers {} LIF layers, model has {expected}",
                state.layers()
            )));
        }
        for (lif, membrane) in self.lifs_mut().zip(state.into_membranes()) {
            lif.restore_state_tensor(membrane);
        }
        Ok(())
    }
}

impl SpikingModel for Network {
    fn params(&self) -> Vec<Var> {
        let mut p = Vec::new();
        for op in &self.ops {
            match op {
                Op::Conv { unit, .. } => p.extend(unit.params()),
                Op::Norm { norm, .. } => p.extend(norm.params()),
                _ => {}
            }
        }
        // Once the classifier is frozen to int8 its float weights are no
        // longer parameters (only the norm layers stay float).
        if self.qfc.is_none() {
            p.extend([self.fc_w.clone(), self.fc_b.clone()]);
        }
        p
    }

    fn reset_state(&mut self) {
        self.lifs_mut().for_each(Lif::reset);
    }

    fn name(&self) -> String {
        format!("{} [{}]", self.program.name, self.policy_name)
    }

    fn macs_at(&self, t: usize) -> usize {
        let convs: usize = self.convs().map(|(unit, in_hw)| unit.macs(in_hw, t)).sum();
        convs + self.fc_w.value().len()
    }

    fn mean_spike_activity(&self) -> Option<f64> {
        let (spikes, steps) = self.lifs().fold((0.0f64, 0.0f64), |(spikes, steps), lif| {
            let (s, n) = lif.activity_counts();
            (spikes + s, steps + n)
        });
        (steps > 0.0).then(|| spikes / steps)
    }

    fn layer_spike_densities(&self) -> Vec<f64> {
        self.lifs().map(|lif| lif.activity().unwrap_or(0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Slot::{Main, Skip};

    /// An architecture that is nothing but its layer list.
    struct Custom(Vec<Layer>);

    impl Architecture for Custom {
        fn program(&self) -> Result<Program, ShapeError> {
            Ok(Program {
                name: "custom".to_string(),
                input: [2, 8, 8],
                num_classes: 3,
                norm: NormKind::TdBn { alpha: 1.0, vth: 0.5 },
                lif: LifConfig::default(),
                layers: self.0.clone(),
            })
        }
    }

    fn conv(out: usize, kernel: usize, stride: usize, from: Slot, to: Slot) -> Layer {
        Layer::Conv { out, kernel, stride, decompose: kernel == 3 && from == to, from, to }
    }

    fn build(layers: Vec<Layer>) -> Result<Network, ShapeError> {
        Network::try_new(&Custom(layers), &ConvPolicy::Baseline, &mut Rng::seed_from(3))
    }

    #[test]
    fn a_new_architecture_gets_both_planes_and_the_accounting() {
        // One strided residual block with a projection, then a pool.
        let layers = vec![
            conv(4, 3, 1, Main, Main),
            Layer::Norm(Main),
            Layer::Lif,
            Layer::Stash,
            conv(8, 3, 2, Skip, Main),
            Layer::Norm(Main),
            conv(8, 1, 2, Skip, Skip),
            Layer::Norm(Skip),
            Layer::Add,
            Layer::Lif,
            Layer::AvgPool2,
        ];
        let mut net = build(layers.clone()).unwrap();
        assert_eq!(net.program().layers, layers);
        assert_eq!(net.layer_spike_densities().len(), 2);
        assert_eq!(net.params().len(), 3 + 2 * 3 + 2);
        let macs = (4 * 2 * 9 * 64) + (8 * 4 * 9 * 16) + (8 * 4 * 16) + 3 * 8;
        assert_eq!(net.macs_at(0), macs);

        let x = Tensor::rand_uniform(&[2, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(4));
        for t in 0..2 {
            let tape = net.forward_timestep(&Var::constant(x.clone()), t).unwrap().to_tensor();
            assert_eq!(tape.shape(), &[2, 3]);
        }
        net.reset_state();
        let first = net.forward_timestep(&Var::constant(x.clone()), 0).unwrap().to_tensor();
        net.reset_state();
        let tensor = net.forward_timestep_tensor(&x, 0).unwrap();
        assert_eq!(first, tensor, "Batch statistics: the two walks agree bit for bit");
    }

    #[test]
    fn unrealisable_programs_name_the_op() {
        let stem = || vec![conv(4, 3, 1, Main, Main), Layer::Norm(Main), Layer::Lif];
        let with = |tail: &[Layer]| build([stem(), tail.to_vec()].concat()).map(|_| ());
        let message = |r: Result<(), ShapeError>| r.unwrap_err().to_string();

        assert!(message(with(&[Layer::Add])).contains("op 3 (Add): the Skip slot is empty"));
        assert!(message(with(&[Layer::Stash, Layer::Lif])).contains("op 4 (Lif): the Main slot"));
        assert!(message(with(&[Layer::Stash, Layer::Stash])).contains("op 4 (Stash)"));
        let pools = [Layer::AvgPool2; 4];
        assert!(message(with(&pools)).contains("op 6 (AvgPool2): 2x2 pool needs even"));
        assert!(message(with(&[conv(0, 3, 1, Main, Main)])).contains("op 3 (Conv {"));
        assert!(message(with(&[conv(4, 3, 0, Main, Main)])).contains("cannot realise"));
        // A stash that is never added back would leak a buffer per timestep.
        assert!(message(with(&[Layer::Stash, conv(4, 3, 1, Skip, Main)])).contains("classifier"));
        // Mismatched residual: the strided branch halves main, skip stays.
        let tail = [Layer::Stash, conv(4, 3, 2, Skip, Main), Layer::Add];
        assert!(message(with(&tail)).contains("does not match"));
        // Nothing runs in place on the caller's frame.
        assert!(message(build(vec![Layer::Lif]).map(|_| ())).contains("op 0 (Some(Lif))"));
        assert!(message(build(vec![]).map(|_| ())).contains("op 0 (None)"));
    }
}
