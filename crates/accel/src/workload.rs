//! Translation of a network spec into per-timestep accelerator workloads.
//!
//! Each convolution layer at each timestep becomes a [`LayerOp`] — a short
//! list of [`SubConv`] stages (one for dense layers; for TT layers the
//! [`ttsnn_core::tt_stages`] the layer runs: four on full timesteps, two on
//! HTT half timesteps) annotated with MAC counts, activation volumes and
//! weight sizes. The mapping module then prices these under a given
//! hardware target.

use ttsnn_core::flops::{ConvLayerSpec, NetworkSpec};
use ttsnn_core::{HttSchedule, TtMode, TtStages};
use ttsnn_tensor::Conv2dGeometry;

/// The training method whose energy is being evaluated (the four bars of
/// Fig. 4(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Dense baseline SNN.
    Baseline,
    /// Sequential TT.
    Stt,
    /// Parallel TT (Eq. (5)).
    Ptt,
    /// Half TT with the paper's first-half-full schedule.
    Htt,
}

impl Method {
    /// All four methods in Fig. 4(a) order.
    pub const ALL: [Method; 4] = [Method::Baseline, Method::Stt, Method::Ptt, Method::Htt];

    /// The TT mode this method runs, if any.
    pub fn tt_mode(&self, timesteps: usize) -> Option<TtMode> {
        match self {
            Method::Baseline => None,
            Method::Stt => Some(TtMode::Stt),
            Method::Ptt => Some(TtMode::Ptt),
            Method::Htt => Some(TtMode::Htt(HttSchedule::first_half_full(timesteps))),
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Baseline => "baseline",
            Method::Stt => "STT",
            Method::Ptt => "PTT",
            Method::Htt => "HTT",
        }
    }
}

/// One sub-convolution stage of a layer at one timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubConv {
    /// Multiply–accumulate count.
    pub macs: f64,
    /// Output activation elements.
    pub out_elems: f64,
    /// Weight parameters streamed for this stage.
    pub weight_params: f64,
    /// Whether the stage's input is binary spikes (cluster-1 style
    /// accumulate-only PEs suffice).
    pub spike_input: bool,
}

/// One layer's work at one timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOp {
    /// Sub-convolution stages in execution order.
    pub stages: Vec<SubConv>,
    /// Indices of two stages that may run concurrently on the proposed
    /// multi-cluster design (the PTT branches).
    pub parallel_pair: Option<(usize, usize)>,
    /// Input activation elements (spike-coded).
    pub in_elems: f64,
    /// Output activation elements (becomes membrane/spike traffic).
    pub out_elems: f64,
}

/// The whole network's work for one image across all timesteps.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWorkload {
    /// Network name.
    pub name: String,
    /// Method evaluated.
    pub method: Method,
    /// Timesteps `T`.
    pub timesteps: usize,
    /// `steps[t]` is the layer list at timestep `t`.
    pub steps: Vec<Vec<LayerOp>>,
    /// Total trainable parameters (weight DRAM traffic scales with this).
    pub total_params: f64,
}

/// One layer at timestep `t`: its TT stages under `mode`, or the layer
/// itself as one stage when it is dense or no mode is given.
fn layer_op(l: &ConvLayerSpec, mode: Option<&TtMode>, t: usize) -> LayerOp {
    let elems = |g: &Conv2dGeometry| {
        let (oh, ow) = g.out_hw();
        (g.out_channels * oh * ow) as f64
    };
    let tt = mode.and_then(|mode| l.stages(mode, t));
    let stages = tt.as_ref().map_or(std::slice::from_ref(&l.geom), TtStages::geometries);
    LayerOp {
        // The layer's input is spikes; the stages behind the first read the
        // cores' non-spike intermediates.
        stages: stages
            .iter()
            .enumerate()
            .map(|(i, g)| SubConv {
                macs: g.macs() as f64,
                out_elems: elems(g),
                weight_params: g.params() as f64,
                spike_input: i == 0,
            })
            .collect(),
        parallel_pair: tt.and_then(|tt| tt.parallel_pair()),
        in_elems: (l.geom.in_channels * l.geom.in_hw.0 * l.geom.in_hw.1) as f64,
        out_elems: elems(&l.geom),
    }
}

impl NetworkWorkload {
    /// Builds the workload for `method` from an analytic network spec
    /// (e.g. `ttsnn_snn::resnet18_cifar`).
    pub fn from_spec(spec: &NetworkSpec, method: Method) -> Self {
        let mode = method.tt_mode(spec.timesteps);
        let mut steps = Vec::with_capacity(spec.timesteps);
        for t in 0..spec.timesteps {
            steps.push(spec.conv_layers.iter().map(|l| layer_op(l, mode.as_ref(), t)).collect());
        }
        let total_params: f64 = match mode {
            None => spec.baseline_params() as f64,
            Some(_) => spec.tt_params() as f64,
        };
        Self { name: spec.name.clone(), method, timesteps: spec.timesteps, steps, total_params }
    }

    /// Total MACs across all timesteps (cross-check against
    /// [`NetworkSpec::mode_macs`]).
    pub fn total_macs(&self) -> f64 {
        self.steps
            .iter()
            .flat_map(|layers| layers.iter())
            .flat_map(|l| l.stages.iter())
            .map(|s| s.macs)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_snn::resnet18_cifar;

    #[test]
    fn baseline_workload_single_stage_layers() {
        let spec = resnet18_cifar(10);
        let w = NetworkWorkload::from_spec(&spec, Method::Baseline);
        assert_eq!(w.timesteps, 4);
        assert_eq!(w.steps.len(), 4);
        assert!(w.steps[0].iter().all(|l| l.stages.len() == 1));
        assert!((w.total_macs() - spec.baseline_macs() as f64).abs() < 1.0);
        assert!((w.total_params - spec.baseline_params() as f64).abs() < 1.0);
    }

    #[test]
    fn stt_workload_four_stage_layers() {
        let spec = resnet18_cifar(10);
        let w = NetworkWorkload::from_spec(&spec, Method::Stt);
        // decomposed layers have 4 stages, dense stem/shortcuts 1
        let four_stage = w.steps[0].iter().filter(|l| l.stages.len() == 4).count();
        assert_eq!(four_stage, 16);
        assert!(w.steps[0].iter().all(|l| l.parallel_pair.is_none()));
        let want = spec.mode_macs(&TtMode::Stt) as f64;
        assert!((w.total_macs() - want).abs() / want < 1e-9);
    }

    #[test]
    fn ptt_marks_parallel_branches() {
        let spec = resnet18_cifar(10);
        let w = NetworkWorkload::from_spec(&spec, Method::Ptt);
        let with_pair = w.steps[0].iter().filter(|l| l.parallel_pair == Some((1, 2))).count();
        assert_eq!(with_pair, 16);
        let want = spec.mode_macs(&TtMode::Ptt) as f64;
        assert!((w.total_macs() - want).abs() / want < 1e-9);
    }

    #[test]
    fn htt_half_timesteps_have_two_stages() {
        let spec = resnet18_cifar(10); // T=4 -> FFHH
        let w = NetworkWorkload::from_spec(&spec, Method::Htt);
        let full = w.steps[0].iter().filter(|l| l.stages.len() == 4).count();
        let half = w.steps[3].iter().filter(|l| l.stages.len() == 2).count();
        assert_eq!(full, 16);
        assert_eq!(half, 16);
        let want = spec.mode_macs(&TtMode::htt_default(4)) as f64;
        assert!((w.total_macs() - want).abs() / want < 1e-9);
    }

    #[test]
    fn spike_input_only_on_first_stage() {
        let spec = resnet18_cifar(10);
        let w = NetworkWorkload::from_spec(&spec, Method::Ptt);
        for l in &w.steps[0] {
            assert!(l.stages[0].spike_input);
            for s in &l.stages[1..] {
                assert!(!s.spike_input, "inner TT stages process non-spike data");
            }
        }
    }

    #[test]
    fn method_names_and_modes() {
        assert_eq!(Method::Baseline.name(), "baseline");
        assert!(Method::Baseline.tt_mode(4).is_none());
        assert_eq!(Method::Htt.tt_mode(4), Some(TtMode::htt_default(4)));
        assert_eq!(Method::ALL.len(), 4);
    }
}
