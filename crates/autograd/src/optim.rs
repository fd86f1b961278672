//! Optimizers, learning-rate schedules, and the deterministic gradient
//! all-reduce used by data-parallel training.
//!
//! The paper trains with SGD (momentum 0.9, weight decay 1e-4) under a
//! cosine-annealing schedule starting at 0.1 — [`Sgd`] and
//! [`CosineAnnealing`] implement exactly that.
//!
//! [`GradReduce`] is the trainer-level counterpart of the kernel runtime's
//! fixed-summation-order guarantee: it folds per-shard gradient
//! contributions **in a fixed global order** (by contribution index, not by
//! arrival order), so a data-parallel all-reduce produces bit-identical
//! results no matter how many worker threads raced to deliver their
//! shards. Combined with [`Sgd::step_with_grads`] — which applies an
//! externally reduced gradient with exactly the arithmetic of
//! [`Sgd::step`] — replicated optimizers on N workers stay in bitwise
//! lockstep.

use std::collections::BTreeMap;

use ttsnn_tensor::{ShapeError, Tensor};

use crate::var::Var;

/// Hyper-parameters for [`Sgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (paper: 0.9).
    pub momentum: f32,
    /// Decoupled L2 weight decay (paper: 1e-4).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    /// The paper's training hyper-parameters: lr 0.1, momentum 0.9,
    /// weight decay 1e-4.
    fn default() -> Self {
        Self { lr: 0.1, momentum: 0.9, weight_decay: 1e-4 }
    }
}

/// Stochastic gradient descent with momentum and weight decay over a fixed
/// set of parameters.
///
/// ```
/// use ttsnn_autograd::{Sgd, SgdConfig, Var};
/// use ttsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let w = Var::param(Tensor::from_vec(vec![1.0], &[1])?);
/// let mut opt = Sgd::new(vec![w.clone()], SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0 });
/// let loss = w.mul(&w)?.sum_to_scalar(); // dL/dw = 2w = 2
/// loss.backward();
/// opt.step();
/// assert!((w.to_tensor().data()[0] - 0.8).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Var>,
    velocity: Vec<Tensor>,
    config: SgdConfig,
}

impl Sgd {
    /// Creates an optimizer over `params`.
    pub fn new(params: Vec<Var>, config: SgdConfig) -> Self {
        let velocity = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        Self { params, velocity, config }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.config.lr
    }

    /// Overrides the learning rate (used by schedulers).
    pub fn set_lr(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// Current hyper-parameters.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Replaces all hyper-parameters, preserving momentum state. Used by
    /// data-parallel workers that receive the schedule from the trainer.
    pub fn set_config(&mut self, config: SgdConfig) {
        self.config = config;
    }

    /// Zeroes the momentum buffers (the state a freshly constructed
    /// optimizer starts from). Called at the start of a training run and
    /// after loading a checkpoint so a resumed replicated optimizer matches
    /// a newly built one bit for bit.
    pub fn reset_velocity(&mut self) {
        for v in &mut self.velocity {
            *v = Tensor::zeros(v.shape());
        }
    }

    /// Number of parameters managed.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The managed parameters, in update order.
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// The shared update arithmetic of [`Sgd::step`] and
    /// [`Sgd::step_with_grads`]: `v ← μ·v + (g + λ·w)`, `w ← w − lr·v`,
    /// element by element and in place. One code path keeps the two entry
    /// points bit-identical.
    fn apply_update(config: SgdConfig, p: &Var, v: &mut Tensor, g: &Tensor) {
        let SgdConfig { lr, momentum, weight_decay } = config;
        p.update_value(|w| {
            assert_eq!(w.shape(), g.shape(), "gradient shape differs from its parameter's");
            for ((w, v), &g) in w.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                let g_eff = if weight_decay != 0.0 { g + weight_decay * *w } else { g };
                *v = *v * momentum + g_eff;
                *w += -lr * *v;
            }
        });
    }

    /// Applies one update from the gradients accumulated on the parameters
    /// by `backward()`. Parameters with no accumulated gradient are
    /// skipped.
    pub fn step(&mut self) {
        for (p, v) in self.params.iter().zip(self.velocity.iter_mut()) {
            p.with_grad(|g| {
                if let Some(g) = g {
                    Self::apply_update(self.config, p, v, g);
                }
            });
        }
    }

    /// Applies one update from externally supplied gradients — the reduced
    /// output of a [`GradReduce`] in data-parallel training — instead of
    /// the parameters' own accumulated gradients. `grads[i]` updates the
    /// `i`-th managed parameter; a `None` entry is skipped, exactly as
    /// [`Sgd::step`] skips parameters without an accumulated gradient. The
    /// arithmetic is exactly that of [`Sgd::step`], so a replica stepped
    /// this way matches a single-model optimizer stepped with the same
    /// gradient bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the gradient count or any gradient shape
    /// disagrees with the managed parameters. Validation happens **before**
    /// any update is applied, so an error leaves every parameter and
    /// momentum buffer untouched.
    pub fn step_with_grads(&mut self, grads: &[Option<Tensor>]) -> Result<(), ShapeError> {
        if grads.len() != self.params.len() {
            return Err(ShapeError::new(format!(
                "step_with_grads: {} gradients for {} parameters",
                grads.len(),
                self.params.len()
            )));
        }
        for (p, g) in self.params.iter().zip(grads) {
            if let Some(g) = g {
                if g.shape() != p.shape().as_slice() {
                    return Err(ShapeError::new(format!(
                        "step_with_grads: gradient shape {:?} vs parameter shape {:?}",
                        g.shape(),
                        p.shape()
                    )));
                }
            }
        }
        for ((p, v), g) in self.params.iter().zip(self.velocity.iter_mut()).zip(grads) {
            let Some(g) = g else { continue };
            Self::apply_update(self.config, p, v, g);
        }
        Ok(())
    }

    /// Clears all parameter gradients (call between batches).
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

/// Fixed-order gradient all-reduce for data-parallel training.
///
/// Each of `expected` contributions is a per-parameter gradient list (one
/// `Option<Tensor>` per parameter, `None` when the contribution touched
/// that parameter not at all) tagged with its **global contribution
/// index** — in the sharded trainer, the micro-batch index within the
/// batch. Contributions may arrive in *any* order (worker threads race),
/// but they are folded strictly in index order: out-of-order arrivals are
/// parked until their turn. The reduction is therefore **bit-deterministic
/// and invariant to both the number of shards and the thread schedule** —
/// the same guarantee the kernel runtime makes one level down, lifted to
/// the trainer.
///
/// [`GradReduce::finish`] returns the *mean* contribution (the sum scaled
/// by `1/expected`), matching the per-micro-batch mean losses the sharded
/// trainer optimizes.
///
/// ```
/// use ttsnn_autograd::GradReduce;
/// use ttsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let mut reduce = GradReduce::new(2);
/// // Contribution 1 arrives before contribution 0 — the fold still runs
/// // 0-then-1.
/// reduce.push(1, vec![Some(Tensor::from_vec(vec![3.0], &[1])?)])?;
/// reduce.push(0, vec![Some(Tensor::from_vec(vec![1.0], &[1])?)])?;
/// let mean = reduce.finish()?;
/// assert_eq!(mean[0].as_ref().unwrap().data(), &[2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GradReduce {
    expected: usize,
    next: usize,
    acc: Option<Vec<Option<Tensor>>>,
    pending: BTreeMap<usize, Vec<Option<Tensor>>>,
}

impl GradReduce {
    /// A reducer awaiting exactly `expected` contributions with indices
    /// `0..expected`.
    pub fn new(expected: usize) -> Self {
        Self { expected, next: 0, acc: None, pending: BTreeMap::new() }
    }

    /// Number of contributions folded so far.
    pub fn folded(&self) -> usize {
        self.next
    }

    /// Delivers contribution `index`. Folds it immediately if it is the
    /// next in order (and then drains any parked successors); parks it
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `index` is out of range or duplicated, or
    /// if the contribution's length or any tensor shape disagrees with the
    /// contributions folded before it.
    pub fn push(&mut self, index: usize, grads: Vec<Option<Tensor>>) -> Result<(), ShapeError> {
        if index >= self.expected {
            return Err(ShapeError::new(format!(
                "GradReduce: contribution index {index} out of range (expected {})",
                self.expected
            )));
        }
        if index < self.next || self.pending.contains_key(&index) {
            return Err(ShapeError::new(format!("GradReduce: duplicate contribution {index}")));
        }
        self.pending.insert(index, grads);
        while let Some(grads) = self.pending.remove(&self.next) {
            self.fold(grads)?;
            self.next += 1;
        }
        Ok(())
    }

    /// Folds one in-order contribution into the accumulator. Validation
    /// happens before any mutation: a rejected contribution leaves the
    /// accumulator exactly as it was, so the caller may fix and re-push it.
    fn fold(&mut self, grads: Vec<Option<Tensor>>) -> Result<(), ShapeError> {
        match self.acc.as_mut() {
            None => self.acc = Some(grads),
            Some(acc) => {
                if acc.len() != grads.len() {
                    return Err(ShapeError::new(format!(
                        "GradReduce: contribution has {} parameters, expected {}",
                        grads.len(),
                        acc.len()
                    )));
                }
                for (i, (slot, g)) in acc.iter().zip(&grads).enumerate() {
                    if let (Some(sum), Some(g)) = (slot, g) {
                        if sum.shape() != g.shape() {
                            return Err(ShapeError::new(format!(
                                "GradReduce: parameter {i} shape {:?} vs accumulated {:?}",
                                g.shape(),
                                sum.shape()
                            )));
                        }
                    }
                }
                for (slot, g) in acc.iter_mut().zip(grads) {
                    match (slot.as_mut(), g) {
                        (_, None) => {}
                        (None, Some(g)) => *slot = Some(g),
                        (Some(sum), Some(g)) => {
                            sum.add_scaled(&g, 1.0).expect("shapes pre-validated")
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Completes the reduction, returning the mean contribution.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if fewer than `expected` contributions were
    /// delivered.
    pub fn finish(self) -> Result<Vec<Option<Tensor>>, ShapeError> {
        if self.next != self.expected {
            return Err(ShapeError::new(format!(
                "GradReduce: only {} of {} contributions delivered",
                self.next, self.expected
            )));
        }
        let mut acc = self.acc.unwrap_or_default();
        if self.expected > 1 {
            let inv = 1.0 / self.expected as f32;
            for slot in acc.iter_mut().flatten() {
                *slot = slot.scale(inv);
            }
        }
        Ok(acc)
    }
}

/// Cosine-annealing learning-rate schedule:
/// `lr(e) = lr_min + (lr_max − lr_min)·(1 + cos(π·e/E))/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineAnnealing {
    /// Initial (maximum) learning rate.
    pub lr_max: f32,
    /// Final (minimum) learning rate.
    pub lr_min: f32,
    /// Total number of epochs `E`.
    pub epochs: usize,
}

impl CosineAnnealing {
    /// Creates the paper's schedule: decays from `lr_max` to 0 over
    /// `epochs`.
    pub fn new(lr_max: f32, epochs: usize) -> Self {
        Self { lr_max, lr_min: 0.0, epochs }
    }

    /// Learning rate at the given (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        if self.epochs == 0 {
            return self.lr_max;
        }
        let e = epoch.min(self.epochs) as f32 / self.epochs as f32;
        self.lr_min + (self.lr_max - self.lr_min) * (1.0 + (std::f32::consts::PI * e).cos()) / 2.0
    }

    /// Updates `opt`'s learning rate for `epoch`.
    pub fn apply(&self, opt: &mut Sgd, epoch: usize) {
        opt.set_lr(self.lr_at(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_plain_step() {
        let w = Var::param(Tensor::from_vec(vec![2.0, -1.0], &[2]).unwrap());
        let mut opt =
            Sgd::new(vec![w.clone()], SgdConfig { lr: 0.5, momentum: 0.0, weight_decay: 0.0 });
        let loss = w.mul(&w).unwrap().sum_to_scalar();
        loss.backward();
        opt.step();
        // w -= 0.5 * 2w  => w/2... w = [2,-1] -> grad [4,-2] -> w = [0, 0]
        assert_eq!(w.to_tensor().data(), &[0.0, 0.0]);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let w = Var::param(Tensor::from_vec(vec![0.0], &[1]).unwrap());
        let mut opt =
            Sgd::new(vec![w.clone()], SgdConfig { lr: 1.0, momentum: 0.5, weight_decay: 0.0 });
        // constant gradient of 1.0 twice
        for _ in 0..2 {
            opt.zero_grad();
            let loss = w.clone().add_scalar(0.0).sum_to_scalar();
            loss.backward();
            opt.step();
        }
        // step1: v=1, w=-1; step2: v=0.5+1=1.5, w=-2.5
        assert!((w.to_tensor().data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn sgd_weight_decay_shrinks_params() {
        let w = Var::param(Tensor::from_vec(vec![10.0], &[1]).unwrap());
        let mut opt =
            Sgd::new(vec![w.clone()], SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.1 });
        // zero loss gradient; decay alone should shrink w
        let loss = w.scale(0.0).sum_to_scalar();
        loss.backward();
        opt.step();
        assert!((w.to_tensor().data()[0] - 9.9).abs() < 1e-5);
    }

    #[test]
    fn sgd_skips_params_without_grad() {
        let w = Var::param(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let untouched = Var::param(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let mut opt = Sgd::new(vec![w.clone(), untouched.clone()], SgdConfig::default());
        let loss = w.mul(&w).unwrap().sum_to_scalar();
        loss.backward();
        opt.step();
        assert_eq!(untouched.to_tensor().data(), &[5.0]);
        assert_eq!(opt.num_params(), 2);
    }

    #[test]
    fn zero_grad_clears() {
        let w = Var::param(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let opt = Sgd::new(vec![w.clone()], SgdConfig::default());
        w.mul(&w).unwrap().sum_to_scalar().backward();
        assert!(w.grad().is_some());
        opt.zero_grad();
        assert!(w.grad().is_none());
    }

    #[test]
    fn step_with_grads_matches_step_bitwise() {
        // Two identical params, one stepped from its own backward grads,
        // one from externally supplied identical grads: bit-equal after
        // several momentum+decay steps.
        let a = Var::param(Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]).unwrap());
        let b = Var::param(a.to_tensor());
        let cfg = SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 1e-4 };
        let mut opt_a = Sgd::new(vec![a.clone()], cfg);
        let mut opt_b = Sgd::new(vec![b.clone()], cfg);
        for _ in 0..4 {
            opt_a.zero_grad();
            let loss = a.mul(&a).unwrap().sum_to_scalar();
            loss.backward();
            let g = a.grad().unwrap();
            opt_a.step();
            opt_b.step_with_grads(&[Some(g)]).unwrap();
            assert_eq!(a.to_tensor(), b.to_tensor());
        }
    }

    #[test]
    fn step_with_grads_skips_none_like_step() {
        let w = Var::param(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let mut opt = Sgd::new(vec![w.clone()], SgdConfig::default());
        opt.step_with_grads(&[None]).unwrap();
        assert_eq!(w.to_tensor().data(), &[5.0]);
    }

    #[test]
    fn step_with_grads_validates() {
        let w = Var::param(Tensor::zeros(&[2]));
        let mut opt = Sgd::new(vec![w], SgdConfig::default());
        assert!(opt.step_with_grads(&[]).is_err());
        assert!(opt.step_with_grads(&[Some(Tensor::zeros(&[3]))]).is_err());
    }

    #[test]
    fn reset_velocity_restores_fresh_state() {
        let w = Var::param(Tensor::from_vec(vec![0.0], &[1]).unwrap());
        let cfg = SgdConfig { lr: 1.0, momentum: 0.5, weight_decay: 0.0 };
        let mut opt = Sgd::new(vec![w.clone()], cfg);
        opt.step_with_grads(&[Some(Tensor::ones(&[1]))]).unwrap();
        let after_one = w.to_tensor();
        opt.reset_velocity();
        w.set_value(Tensor::zeros(&[1]));
        opt.step_with_grads(&[Some(Tensor::ones(&[1]))]).unwrap();
        assert_eq!(w.to_tensor(), after_one, "reset must behave like a fresh optimizer");
    }

    #[test]
    fn grad_reduce_is_arrival_order_invariant() {
        let contribution = |v: f32| vec![Some(Tensor::from_vec(vec![v, 2.0 * v], &[2]).unwrap())];
        let orders: [&[usize]; 3] = [&[0, 1, 2], &[2, 1, 0], &[1, 2, 0]];
        let mut results = Vec::new();
        for order in orders {
            let mut reduce = GradReduce::new(3);
            for &i in order {
                reduce.push(i, contribution(0.1 + i as f32)).unwrap();
            }
            results.push(reduce.finish().unwrap());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn grad_reduce_none_is_identity() {
        let mut reduce = GradReduce::new(3);
        reduce.push(0, vec![None, Some(Tensor::from_vec(vec![3.0], &[1]).unwrap())]).unwrap();
        reduce.push(1, vec![Some(Tensor::from_vec(vec![6.0], &[1]).unwrap()), None]).unwrap();
        reduce.push(2, vec![None, None]).unwrap();
        let mean = reduce.finish().unwrap();
        assert_eq!(mean[0].as_ref().unwrap().data(), &[2.0]);
        assert_eq!(mean[1].as_ref().unwrap().data(), &[1.0]);
        // A parameter no contribution touched stays None.
        let mut reduce = GradReduce::new(1);
        reduce.push(0, vec![None]).unwrap();
        assert!(reduce.finish().unwrap()[0].is_none());
    }

    #[test]
    fn grad_reduce_rejects_misuse() {
        let g = || vec![Some(Tensor::zeros(&[1]))];
        let mut reduce = GradReduce::new(2);
        assert!(reduce.push(5, g()).is_err(), "index out of range");
        reduce.push(0, g()).unwrap();
        assert!(reduce.push(0, g()).is_err(), "duplicate index");
        assert!(GradReduce::new(2).finish().is_err(), "missing contributions");
        // Mismatched parameter count across contributions.
        let mut reduce = GradReduce::new(2);
        reduce.push(0, g()).unwrap();
        assert!(reduce.push(1, vec![Some(Tensor::zeros(&[1])), None]).is_err());
    }

    #[test]
    fn grad_reduce_single_contribution_is_exact_identity() {
        // expected == 1 must not even multiply by 1.0 — the single-shard
        // trainer's bit-equality with the classic trainer rides on this.
        let g = Tensor::from_vec(vec![1.0e-38, -7.25], &[2]).unwrap();
        let mut reduce = GradReduce::new(1);
        reduce.push(0, vec![Some(g.clone())]).unwrap();
        assert_eq!(reduce.finish().unwrap()[0].as_ref().unwrap(), &g);
    }

    #[test]
    fn cosine_schedule_endpoints() {
        let sched = CosineAnnealing::new(0.1, 100);
        assert!((sched.lr_at(0) - 0.1).abs() < 1e-7);
        assert!(sched.lr_at(100) < 1e-7);
        assert!((sched.lr_at(50) - 0.05).abs() < 1e-7);
    }

    #[test]
    fn cosine_schedule_monotone_decreasing() {
        let sched = CosineAnnealing::new(0.1, 40);
        let mut prev = f32::INFINITY;
        for e in 0..=40 {
            let lr = sched.lr_at(e);
            assert!(lr <= prev + 1e-9);
            prev = lr;
        }
    }

    #[test]
    fn cosine_applies_to_optimizer() {
        let w = Var::param(Tensor::zeros(&[1]));
        let mut opt = Sgd::new(vec![w], SgdConfig::default());
        let sched = CosineAnnealing::new(0.2, 10);
        sched.apply(&mut opt, 5);
        assert!((opt.lr() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_epochs_is_constant() {
        let sched = CosineAnnealing::new(0.3, 0);
        assert_eq!(sched.lr_at(0), 0.3);
        assert_eq!(sched.lr_at(7), 0.3);
    }

    #[test]
    fn training_converges_on_linear_regression() {
        use ttsnn_tensor::Rng;
        let mut rng = Rng::seed_from(60);
        // y = X w_true, learn w from scratch
        let x = Var::constant(Tensor::randn(&[16, 3], &mut rng));
        let w_true = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3, 1]).unwrap();
        let y = Var::constant(x.value().matmul(&w_true).unwrap());
        let w = Var::param(Tensor::zeros(&[3, 1]));
        let mut opt =
            Sgd::new(vec![w.clone()], SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 });
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            opt.zero_grad();
            let pred = x.matmul(&w).unwrap();
            let err = pred.sub(&y).unwrap();
            let loss = err.mul(&err).unwrap().mean_to_scalar();
            last = loss.to_tensor().data()[0];
            loss.backward();
            opt.step();
        }
        assert!(last < 1e-3, "final loss {last}");
        assert!(w.to_tensor().max_abs_diff(&w_true).unwrap() < 0.05);
    }
}
