//! Optimizers and learning-rate schedules.
//!
//! The paper trains with SGD (momentum 0.9, weight decay 1e-4) under a
//! cosine-annealing schedule starting at 0.1 — [`Sgd`] and
//! [`CosineAnnealing`] implement exactly that.

use ttsnn_tensor::Tensor;

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

    /// Number of parameters managed.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The managed parameters, in update order.
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// Applies one update from the gradients accumulated on the parameters
    /// by `backward()`: `v ← μ·v + (g + λ·w)`, `w ← w − lr·v`, element by
    /// element and in place. Parameters with no accumulated gradient are
    /// skipped.
    pub fn step(&mut self) {
        let SgdConfig { lr, momentum, weight_decay } = self.config;
        for (p, v) in self.params.iter().zip(self.velocity.iter_mut()) {
            p.with_grad(|g| {
                let Some(g) = g else { return };
                p.update_value(|w| {
                    assert_eq!(w.shape(), g.shape(), "gradient shape differs from its parameter's");
                    for ((w, v), &g) in w.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                        let g_eff = if weight_decay != 0.0 { g + weight_decay * *w } else { g };
                        *v = *v * momentum + g_eff;
                        *w += -lr * *v;
                    }
                });
            });
        }
    }

    /// Clears all parameter gradients (call between batches).
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
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
