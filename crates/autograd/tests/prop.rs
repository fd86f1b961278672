//! Property-based gradient checks: for random small graphs, the autograd
//! gradient must match central differences.
#![allow(clippy::disallowed_methods)] // `Var::to_tensor` is for tests (`clippy.toml`).

use proptest::prelude::*;
use ttsnn_autograd::ops::cross_entropy_logits;
use ttsnn_autograd::{Surrogate, Var};
use ttsnn_tensor::{Conv2dGeometry, Rng, Tensor};

/// Central-difference check of d(loss)/d(param[idx]).
fn check_grad(param: &Var, loss_fn: &dyn Fn() -> Var, idx: usize, tol: f32) -> Result<(), String> {
    param.zero_grad();
    loss_fn().backward();
    let analytic = param.grad().ok_or("no grad")?.data()[idx];
    let eps = 1e-2f32;
    let orig = param.to_tensor().data()[idx];
    param.update_value(|t| t.data_mut()[idx] = orig + eps);
    let lp = loss_fn().to_tensor().data()[0];
    param.update_value(|t| t.data_mut()[idx] = orig - eps);
    let lm = loss_fn().to_tensor().data()[0];
    param.update_value(|t| t.data_mut()[idx] = orig);
    let numeric = (lp - lm) / (2.0 * eps);
    if (analytic - numeric).abs() > tol * (1.0 + analytic.abs().max(numeric.abs())) {
        return Err(format!("idx {idx}: analytic {analytic} vs numeric {numeric}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn elementwise_graph_grads(seed in 0u64..1000) {
        let mut rng = Rng::seed_from(seed);
        let n = 2 + rng.below(8);
        let a = Var::param(Tensor::randn(&[n], &mut rng));
        let b = Var::constant(Tensor::randn(&[n], &mut rng));
        let loss_fn = || {
            a.mul(&b).unwrap().add(&a).unwrap().mul(&a).unwrap().sum_to_scalar()
        };
        let idx = rng.below(n);
        prop_assert!(check_grad(&a, &loss_fn, idx, 5e-2).is_ok());
    }

    #[test]
    fn matmul_chain_grads(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let (m, k, n) = (1 + rng.below(4), 1 + rng.below(4), 1 + rng.below(4));
        let a = Var::param(Tensor::randn(&[m, k], &mut rng));
        let b = Var::constant(Tensor::randn(&[k, n], &mut rng));
        let loss_fn = || a.matmul(&b).unwrap().sum_to_scalar();
        let idx = rng.below(m * k);
        prop_assert!(check_grad(&a, &loss_fn, idx, 5e-2).is_ok());
    }

    #[test]
    fn conv_weight_grads(seed in 0u64..200) {
        let mut rng = Rng::seed_from(seed);
        let i = 1 + rng.below(3);
        let o = 1 + rng.below(3);
        let g = Conv2dGeometry::new(i, o, (5, 5), (3, 3), (1, 1), (1, 1));
        let x = Var::constant(Tensor::randn(&[1, i, 5, 5], &mut rng));
        let w = Var::param(Tensor::randn(&[o, i, 3, 3], &mut rng));
        let loss_fn = || x.conv2d(&w, g).unwrap().sum_to_scalar();
        let idx = rng.below(o * i * 9);
        prop_assert!(check_grad(&w, &loss_fn, idx, 5e-2).is_ok());
    }

    #[test]
    fn cross_entropy_grads_random_labels(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let b = 1 + rng.below(4);
        let k = 2 + rng.below(5);
        let labels: Vec<usize> = (0..b).map(|_| rng.below(k)).collect();
        let logits = Var::param(Tensor::randn(&[b, k], &mut rng));
        let loss_fn = || cross_entropy_logits(&logits, &labels).unwrap();
        let idx = rng.below(b * k);
        prop_assert!(check_grad(&logits, &loss_fn, idx, 5e-2).is_ok());
    }

    #[test]
    fn spike_forward_always_binary(seed in 0u64..1000, vth in -1.0f32..1.5) {
        let mut rng = Rng::seed_from(seed);
        let u = Var::constant(Tensor::randn(&[1, 16], &mut rng));
        // One timestep of a reset neuron: u = x, s = H(x − V_th).
        let spike = |vth: f32| u.lif_scan(None, 1, 0.25, vth, Surrogate::default()).unwrap().spikes;
        let t = spike(vth).to_tensor();
        prop_assert!(t.data().iter().all(|&v| v == 0.0 || v == 1.0));
        // monotone in threshold: higher vth never fires more
        prop_assert!(spike(vth + 0.5).to_tensor().sum() <= t.sum());
    }

    #[test]
    fn surrogate_grads_nonnegative(x in -3.0f32..3.0, width in 0.1f32..3.0, alpha in 0.1f32..4.0) {
        let rect = Surrogate::Rectangle { width }.grad(x);
        let tri = Surrogate::Triangle { width }.grad(x);
        let atan = Surrogate::Atan { alpha }.grad(x);
        prop_assert!(rect >= 0.0);
        prop_assert!(tri >= 0.0);
        prop_assert!(atan > 0.0);
    }

    #[test]
    fn batch_norm_output_stats(seed in 0u64..300) {
        let mut rng = Rng::seed_from(seed);
        let c = 1 + rng.below(3);
        let x = Var::constant(
            Tensor::randn(&[4, c, 4, 4], &mut rng).scale(1.0 + rng.uniform() * 4.0),
        );
        let gamma = Var::param(Tensor::ones(&[c]));
        let beta = Var::param(Tensor::zeros(&[c]));
        let y = x.batch_norm2d(&gamma, &beta, 1e-5, 1.0, 1).unwrap().to_tensor();
        let mean = y.mean();
        prop_assert!(mean.abs() < 1e-2, "normalized mean {mean}");
    }
}
