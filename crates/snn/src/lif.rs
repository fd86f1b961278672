//! The iterative Leaky-Integrate-and-Fire neuron of Eq. (1).
//!
//! ```text
//! u[l,t] = τm · u[l,t−1] · (1 − s[l,t−1]) + Σ_j w_ij · s[j,t]
//! s[l,t] = H(u[l,t] − V_th)
//! ```
//!
//! The membrane potential leaks with factor τm, integrates the layer's
//! synaptic input, fires a binary spike through the Heaviside step, and is
//! hard-reset to zero on firing. During BPTT the Heaviside derivative is
//! replaced by a surrogate (STBP's rectangular window by default); the
//! reset factor is detached from the graph, the standard STBP treatment.

use ttsnn_autograd::ops::LifScan;
use ttsnn_autograd::{Surrogate, Var};
use ttsnn_tensor::lif::{self, Keep};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::SpikeTensor;
use ttsnn_tensor::{ShapeError, Tensor};

/// LIF neuron hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifConfig {
    /// Membrane leak factor τm ∈ (0, 1] (paper: 0.25).
    pub tau: f32,
    /// Firing threshold V_th (paper: 0.5).
    pub vth: f32,
    /// Surrogate gradient used in place of the Heaviside derivative.
    pub surrogate: Surrogate,
}

impl Default for LifConfig {
    /// The paper's settings: τm = 0.25, V_th = 0.5, rectangular surrogate.
    fn default() -> Self {
        Self { tau: 0.25, vth: 0.5, surrogate: Surrogate::default() }
    }
}

/// A stateful LIF neuron layer: holds the (post-reset) membrane potential
/// between calls of one BPTT unrolling. The training plane hands it a whole
/// sequence at once ([`Lif::scan`]); [`Lif::step`] is a sequence of one.
///
/// Call [`Lif::reset`] between batches — membrane state must not leak
/// across independent samples.
///
/// ```
/// use ttsnn_snn::{Lif, LifConfig};
/// use ttsnn_autograd::Var;
/// use ttsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let mut lif = Lif::new(LifConfig::default());
/// let drive = Var::constant(Tensor::full(&[1, 4], 0.3));
/// let s1 = lif.step(&drive)?; // u = 0.3 < 0.5 -> no spike
/// assert_eq!(s1.to_tensor().sum(), 0.0);
/// let s2 = lif.step(&drive)?; // u = 0.25*0.3 + 0.3 = 0.375 -> still quiet
/// assert_eq!(s2.to_tensor().sum(), 0.0);
/// let s3 = lif.step(&Var::constant(Tensor::full(&[1, 4], 0.6)))?; // fires
/// assert_eq!(s3.to_tensor().sum(), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lif {
    config: LifConfig,
    /// The training plane's last scan; the next one starts from the
    /// membrane it left, which is only built if a next one comes.
    last_scan: Option<LifScan>,
    membrane_tensor: Option<Tensor>,
    spike_sum: f64,
    neuron_steps: f64,
}

impl Lif {
    /// A fresh neuron layer with zeroed membrane.
    pub fn new(config: LifConfig) -> Self {
        Self { config, last_scan: None, membrane_tensor: None, spike_sum: 0.0, neuron_steps: 0.0 }
    }

    /// The neuron's configuration.
    pub fn config(&self) -> LifConfig {
        self.config
    }

    /// Clears membrane state on both planes (call between batches /
    /// samples). The tensor plane's membrane buffer goes back to the
    /// runtime arena for reuse.
    pub fn reset(&mut self) {
        self.last_scan = None;
        if let Some(m) = self.membrane_tensor.take() {
            m.recycle();
        }
    }

    /// Whether the membrane currently holds state from a previous step on
    /// either plane.
    pub fn has_state(&self) -> bool {
        self.last_scan.is_some() || self.membrane_tensor.is_some()
    }

    /// Moves the **inference-plane** membrane out of the neuron (leaving it
    /// stateless on that plane), or `None` if no tensor step has run since
    /// the last reset. The buffer is moved, not copied, so restoring it
    /// later resumes the unrolling with bit-identical state — the
    /// foundation of the serving layer's streaming sessions.
    pub fn take_state_tensor(&mut self) -> Option<Tensor> {
        self.membrane_tensor.take()
    }

    /// Installs a previously [taken](Lif::take_state_tensor) inference-plane
    /// membrane (or clears it with `None`). Any membrane currently held is
    /// recycled to the runtime arena first.
    pub fn restore_state_tensor(&mut self, membrane: Option<Tensor>) {
        if let Some(old) = self.membrane_tensor.take() {
            old.recycle();
        }
        self.membrane_tensor = membrane;
    }

    /// Mean spike activity observed since the last
    /// [`Lif::clear_activity`]: fired spikes / (neurons × steps). `None`
    /// if no step has run. This is the sparsity statistic SATA-style
    /// accelerators exploit; feed it into
    /// `ttsnn_accel::EnergyModel::spike_activity` to replace the default
    /// 0.25 with a measured value.
    pub fn activity(&self) -> Option<f64> {
        if self.neuron_steps > 0.0 {
            Some(self.spike_sum / self.neuron_steps)
        } else {
            None
        }
    }

    /// Accumulated (spikes, neuron-steps) counters.
    pub fn activity_counts(&self) -> (f64, f64) {
        (self.spike_sum, self.neuron_steps)
    }

    /// Clears the activity counters (membrane state is untouched).
    pub fn clear_activity(&mut self) {
        self.spike_sum = 0.0;
        self.neuron_steps = 0.0;
    }

    /// Advances `steps` timesteps at once on the training plane. `input` is
    /// the layer's synaptic input as a time-major stack `[steps·B, …]` (row
    /// `t·B + s`); the result is the binary spike stack of the same shape.
    /// Each neuron integrates its inputs in time order starting from the
    /// membrane the previous call left (zero after a [`Lif::reset`]), fires
    /// through the Heaviside step and is hard-reset where it fired.
    /// Gradients flow through the temporal path (τm·u) and the surrogate
    /// spike, across calls too; the reset gate is detached.
    ///
    /// One tape node per call ([`Var::lif_scan`]), on the kernel
    /// [`Lif::scan_tensor`] runs: cutting a sequence into several calls does
    /// not move a bit of the spikes or of the input gradients.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `input` does not hold `steps` timesteps, or
    /// one timestep of it is not shaped like the stored membrane (i.e. the
    /// caller changed batch shape without [`Lif::reset`]).
    pub fn scan(&mut self, input: &Var, steps: usize) -> Result<Var, ShapeError> {
        let carry = match &self.last_scan {
            Some(prev) => {
                let mut expected = prev.step_shape().to_vec();
                expected[0] *= steps;
                if input.shape() != expected {
                    return Err(ShapeError::new(format!(
                        "Lif::scan: {steps} timestep(s) of input shape {:?} do not match \
                         membrane {:?} (missing reset?)",
                        input.shape(),
                        prev.step_shape()
                    )));
                }
                Some(prev.carry())
            }
            None => None,
        };
        let LifConfig { tau, vth, surrogate } = self.config;
        let scan = input.lif_scan(carry.as_ref(), steps, tau, vth, surrogate)?;
        self.spike_sum += scan.fired as f64;
        self.neuron_steps += scan.spikes.value().len() as f64;
        let spikes = scan.spikes.clone();
        self.last_scan = Some(scan);
        Ok(spikes)
    }

    /// Advances one timestep on the training plane: [`Lif::scan`] over a
    /// sequence of one.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `input`'s shape differs from the stored
    /// membrane's (i.e. the caller changed batch shape without
    /// [`Lif::reset`]).
    pub fn step(&mut self, input: &Var) -> Result<Var, ShapeError> {
        self.scan(input, 1)
    }

    /// Advances `steps` timesteps at once on the **inference plane**: the
    /// scan kernel [`Lif::scan`] runs ([`ttsnn_tensor::lif::scan`]) on plain
    /// tensors, keeping only the membrane the sequence ends on. `input` is a
    /// time-major stack `[steps·B, …]`; the spikes are bit-identical to the
    /// `Var` path's however the sequence is cut into calls. With `pack` they
    /// also come back bit-packed (when one timestep fills whole 64-bit
    /// words), for the convolution that reads them next.
    ///
    /// `input`'s buffer goes back to the arena, the spikes come out of it and
    /// the membrane is rewritten in place, so a steady-state loop allocates
    /// nothing here.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `input` does not hold `steps` timesteps, or
    /// one timestep of it is not shaped like the stored membrane (i.e. the
    /// caller changed batch shape without [`Lif::reset`]).
    pub fn scan_tensor(
        &mut self,
        input: Tensor,
        steps: usize,
        pack: bool,
    ) -> Result<(Tensor, Option<SpikeTensor>), ShapeError> {
        let mut step_shape = input.shape().to_vec();
        match step_shape.first_mut() {
            Some(rows) if steps > 0 && rows.is_multiple_of(steps) => *rows /= steps,
            _ => {
                return Err(ShapeError::new(format!(
                    "Lif::scan_tensor: input shape {:?} does not hold {steps} timestep(s)",
                    input.shape()
                )))
            }
        }
        let held = self.membrane_tensor.take();
        if let Some(prev) = held.as_ref().filter(|prev| prev.shape() != step_shape) {
            let err = ShapeError::new(format!(
                "Lif::scan_tensor: {steps} timestep(s) of input shape {:?} do not match membrane \
                 {:?} (missing reset?)",
                input.shape(),
                prev.shape()
            ));
            self.membrane_tensor = held;
            return Err(err);
        }
        let fresh = held.is_none();
        let mut membrane = held.unwrap_or_else(|| Tensor::scratch(&step_shape));
        let keep = Keep::Last { membrane: &mut membrane, fresh };
        let neuron = (self.config.tau, self.config.vth);
        let scanned = lif::scan(&Runtime::current(), steps, neuron, &input, keep, pack);
        self.spike_sum += scanned.fired as f64;
        self.neuron_steps += input.len() as f64;
        input.recycle();
        self.membrane_tensor = Some(membrane);
        Ok((scanned.spikes, scanned.packed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::{Rng, Tensor};

    fn drive(v: f32) -> Var {
        Var::constant(Tensor::full(&[1, 3], v))
    }

    /// One inference-plane timestep.
    fn step_tensor(lif: &mut Lif, x: Tensor) -> Result<Tensor, ShapeError> {
        lif.scan_tensor(x, 1, false).map(|(spikes, _)| spikes)
    }

    #[test]
    fn integrates_and_fires() {
        let mut lif = Lif::new(LifConfig::default());
        // u1 = 0.4 (no spike), u2 = 0.25*0.4 + 0.45 = 0.55 >= 0.5 -> spike
        let s1 = lif.step(&drive(0.4)).unwrap();
        assert_eq!(s1.to_tensor().sum(), 0.0);
        let s2 = lif.step(&drive(0.45)).unwrap();
        assert_eq!(s2.to_tensor().sum(), 3.0);
    }

    #[test]
    fn hard_reset_zeroes_membrane_after_spike() {
        let mut lif = Lif::new(LifConfig::default());
        let s = lif.step(&drive(1.0)).unwrap();
        assert_eq!(s.to_tensor().sum(), 3.0);
        // After the spike the membrane is reset: a sub-threshold drive must
        // not fire even though 0.25*1.0 + 0.4 would have been 0.65.
        let s2 = lif.step(&drive(0.4)).unwrap();
        assert_eq!(s2.to_tensor().sum(), 0.0);
    }

    #[test]
    fn leak_decays_subthreshold_membrane() {
        let cfg = LifConfig { tau: 0.5, vth: 10.0, surrogate: Surrogate::default() };
        let mut lif = Lif::new(cfg);
        lif.step(&drive(1.0)).unwrap();
        lif.step(&drive(0.0)).unwrap();
        lif.step(&drive(0.0)).unwrap();
        // membrane after 3 steps = 0.25; next step leaks once more:
        // u = 0.5*0.25 + 9.9 = 10.025 >= 10 -> fires...
        let s = lif.step(&drive(9.9)).unwrap();
        assert_eq!(s.to_tensor().sum(), 3.0);
        // ...but after reset the same drive alone must not.
        lif.reset();
        let s = lif.step(&drive(9.9)).unwrap();
        assert_eq!(s.to_tensor().sum(), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut lif = Lif::new(LifConfig::default());
        lif.step(&drive(0.3)).unwrap();
        assert!(lif.has_state());
        lif.reset();
        assert!(!lif.has_state());
    }

    #[test]
    fn shape_change_without_reset_is_error() {
        let mut lif = Lif::new(LifConfig::default());
        lif.step(&drive(0.3)).unwrap();
        let bad = Var::constant(Tensor::zeros(&[2, 3]));
        assert!(lif.step(&bad).is_err());
        lif.reset();
        assert!(lif.step(&bad).is_ok());
    }

    #[test]
    fn spikes_are_binary() {
        let mut rng = Rng::seed_from(1);
        let mut lif = Lif::new(LifConfig::default());
        for _ in 0..5 {
            let x = Var::constant(Tensor::randn(&[2, 8], &mut rng));
            let s = lif.step(&x).unwrap();
            assert!(s.to_tensor().data().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn temporal_gradient_flows_to_early_input() {
        // Input at t=0 influences the spike at t=2 through the membrane.
        let cfg = LifConfig { tau: 0.9, vth: 0.5, surrogate: Surrogate::default() };
        let mut lif = Lif::new(cfg);
        let x0 = Var::param(Tensor::full(&[1, 1], 0.2));
        let _ = lif.step(&x0).unwrap();
        let _ = lif.step(&Var::constant(Tensor::full(&[1, 1], 0.1))).unwrap();
        let s = lif.step(&Var::constant(Tensor::full(&[1, 1], 0.1))).unwrap();
        s.sum_to_scalar().backward();
        let g = x0.grad().expect("gradient must reach t=0 input");
        assert!(g.data()[0] > 0.0, "temporal gradient {}", g.data()[0]);
    }

    #[test]
    fn activity_tracks_firing_rate() {
        let mut lif = Lif::new(LifConfig::default());
        assert!(lif.activity().is_none());
        // 3 neurons, first step all fire, second step none fire.
        lif.step(&drive(1.0)).unwrap();
        assert_eq!(lif.activity(), Some(1.0));
        lif.step(&drive(0.0)).unwrap();
        assert_eq!(lif.activity(), Some(0.5));
        let (s, n) = lif.activity_counts();
        assert_eq!((s, n), (3.0, 6.0));
        lif.clear_activity();
        assert!(lif.activity().is_none());
        assert!(lif.has_state(), "clearing stats must not touch the membrane");
    }

    #[test]
    fn step_tensor_matches_var_step_bitwise() {
        let mut rng = Rng::seed_from(3);
        let mut var_lif = Lif::new(LifConfig::default());
        let mut tsr_lif = Lif::new(LifConfig::default());
        for _ in 0..6 {
            let x = Tensor::randn(&[2, 5], &mut rng);
            let via_var = var_lif.step(&Var::constant(x.clone())).unwrap().to_tensor();
            let via_tensor = step_tensor(&mut tsr_lif, x).unwrap();
            assert_eq!(via_var, via_tensor);
        }
        assert_eq!(var_lif.activity_counts(), tsr_lif.activity_counts());
    }

    /// One scan over a stack of timesteps, scans of uneven length and a
    /// step at a time: the same spikes and the same counters.
    #[test]
    fn scan_over_a_stack_equals_steps() {
        let mut rng = Rng::seed_from(4);
        let (steps, batch) = (5, 2);
        let x = Tensor::randn(&[steps * batch, 6], &mut rng);
        let rows = |t0: usize, n: usize| {
            let data = x.data()[t0 * batch * 6..(t0 + n) * batch * 6].to_vec();
            Var::constant(Tensor::from_vec(data, &[n * batch, 6]).unwrap())
        };
        let mut whole = Lif::new(LifConfig::default());
        let want = whole.scan(&Var::constant(x.clone()), steps).unwrap().to_tensor();
        for cuts in [&[1, 1, 1, 1, 1][..], &[2, 3], &[4, 1]] {
            let mut lif = Lif::new(LifConfig::default());
            let mut got = Vec::new();
            let mut t0 = 0;
            for &n in cuts {
                got.extend_from_slice(lif.scan(&rows(t0, n), n).unwrap().value().data());
                t0 += n;
            }
            assert_eq!(got, want.data(), "cuts {cuts:?}");
            assert_eq!(lif.activity_counts(), whole.activity_counts(), "cuts {cuts:?}");
        }
        // Three timesteps of the wrong batch size after two of the right one.
        let mut lif = Lif::new(LifConfig::default());
        lif.scan(&rows(0, 2), 2).unwrap();
        assert!(lif.scan(&Var::constant(Tensor::zeros(&[3 * 3, 6])), 3).is_err());
        assert!(lif.scan(&rows(2, 3), 2).is_err(), "6 rows are not 2 timesteps of 2");
    }

    #[test]
    fn step_tensor_shape_change_without_reset_is_error() {
        let mut lif = Lif::new(LifConfig::default());
        step_tensor(&mut lif, Tensor::zeros(&[1, 3])).unwrap();
        assert!(lif.has_state());
        assert!(step_tensor(&mut lif, Tensor::zeros(&[2, 3])).is_err());
        lif.reset();
        assert!(!lif.has_state());
        assert!(step_tensor(&mut lif, Tensor::zeros(&[2, 3])).is_ok());
    }

    #[test]
    fn planes_hold_independent_state() {
        let mut lif = Lif::new(LifConfig::default());
        lif.step(&drive(0.3)).unwrap();
        step_tensor(&mut lif, Tensor::full(&[1, 3], 0.3)).unwrap();
        assert!(lif.has_state());
        lif.reset();
        assert!(!lif.has_state());
    }

    #[test]
    fn take_restore_state_tensor_resumes_bitwise() {
        let mut rng = Rng::seed_from(9);
        let frames: Vec<Tensor> = (0..6).map(|_| Tensor::randn(&[2, 5], &mut rng)).collect();
        // Reference: one uninterrupted unrolling.
        let mut whole = Lif::new(LifConfig::default());
        let expected: Vec<Tensor> =
            frames.iter().map(|f| step_tensor(&mut whole, f.clone()).unwrap()).collect();
        // Same unrolling with a take/restore cycle at every boundary.
        let mut chunked = Lif::new(LifConfig::default());
        let mut saved = chunked.take_state_tensor();
        for (f, want) in frames.iter().zip(&expected) {
            chunked.restore_state_tensor(saved.take());
            let got = step_tensor(&mut chunked, f.clone()).unwrap();
            assert_eq!(&got, want, "take/restore must not perturb a single bit");
            saved = chunked.take_state_tensor();
            assert!(!chunked.has_state(), "take must leave the tensor plane stateless");
        }
    }

    #[test]
    fn restore_replaces_existing_membrane() {
        let mut lif = Lif::new(LifConfig::default());
        step_tensor(&mut lif, Tensor::full(&[1, 3], 0.3)).unwrap();
        let saved = lif.take_state_tensor().unwrap();
        // Drive the neuron to a different membrane, then restore the saved
        // one: the next step must behave as if the detour never happened.
        step_tensor(&mut lif, Tensor::full(&[1, 3], 0.9)).unwrap();
        lif.restore_state_tensor(Some(saved));
        // membrane 0.3 -> u = 0.25*0.3 + 0.45 = 0.525 >= 0.5: fires.
        let s = step_tensor(&mut lif, Tensor::full(&[1, 3], 0.45)).unwrap();
        assert_eq!(s.sum(), 3.0);
    }

    #[test]
    fn higher_threshold_fires_less() {
        let mut rng = Rng::seed_from(2);
        let x = Tensor::rand_uniform(&[4, 16], 0.0, 1.0, &mut rng);
        let mut low = Lif::new(LifConfig { vth: 0.2, ..LifConfig::default() });
        let mut high = Lif::new(LifConfig { vth: 0.9, ..LifConfig::default() });
        let sl = low.step(&Var::constant(x.clone())).unwrap().to_tensor().sum();
        let sh = high.step(&Var::constant(x)).unwrap().to_tensor().sum();
        assert!(sl > sh);
    }
}
