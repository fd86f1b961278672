//! Property suite for the spike-sparsity execution path.
//!
//! Pins the three contracts of `ttsnn_tensor::spike`:
//!
//! 1. **Round trip** — `SpikeTensor::try_pack` followed by `unpack` is the
//!    identity on binary tensors (bit equality), `density()` counts
//!    exactly, and non-binary inputs are rejected.
//! 2. **Sparse ≡ dense, f32** — the event-driven conv/linear kernels are
//!    **bit-identical** to the dense kernels they shadow, at every
//!    density and at every thread count 1–8, and numerically agree with
//!    an independent f64 triple-loop oracle.
//! 3. **Sparse ≡ dense, int8** — same, against `qkernels::{qconv2d,
//!    qlinear}` for both accumulator modes, and exactly equal to a naive
//!    integer oracle (i32 accumulation is order-free).

use proptest::prelude::*;
use ttsnn_tensor::qkernels::{self, QAccum};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::{self, SparseMode, SpikeTensor};
use ttsnn_tensor::{conv, Conv2dGeometry, Rng, Tensor};

/// A random exactly-0.0/1.0 tensor with roughly `density` ones.
fn random_spikes(shape: &[usize], density: f64, rng: &mut Rng) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| if (rng.uniform() as f64) < density { 1.0 } else { 0.0 }).collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// Independent f64 triple-loop convolution oracle (no padding tricks, no
/// blocking — a different summation order from both production kernels).
fn conv_oracle(x: &Tensor, w: &Tensor, g: &Conv2dGeometry) -> Vec<f64> {
    let (b, (oh, ow)) = (x.shape()[0], g.out_hw());
    let mut out = vec![0.0f64; b * g.out_channels * oh * ow];
    for s in 0..b {
        for oc in 0..g.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f64;
                    for c in 0..g.in_channels {
                        for ky in 0..g.kernel.0 {
                            for kx in 0..g.kernel.1 {
                                let iy = (oy * g.stride.0 + ky) as isize - g.padding.0 as isize;
                                let ix = (ox * g.stride.1 + kx) as isize - g.padding.1 as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy as usize >= g.in_hw.0
                                    || ix as usize >= g.in_hw.1
                                {
                                    continue;
                                }
                                acc += f64::from(x.at(&[s, c, iy as usize, ix as usize]))
                                    * f64::from(w.at(&[oc, c, ky, kx]));
                            }
                        }
                    }
                    out[((s * g.out_channels + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_unpack_is_identity(seed in 0u64..100_000, density in 0.0f64..=1.0) {
        let mut rng = Rng::seed_from(seed);
        let shape = [1 + rng.below(4), 1 + rng.below(8), 1 + rng.below(9), 1 + rng.below(9)];
        let x = random_spikes(&shape, density, &mut rng);
        let sp = SpikeTensor::try_pack(&x).expect("binary tensor must pack");
        prop_assert_eq!(sp.unpack(), x.clone(), "unpack(pack(x)) must be bit-identical");
        let ones = x.data().iter().filter(|&&v| v == 1.0).count();
        prop_assert_eq!(sp.ones(), ones);
        prop_assert!((sp.density() - ones as f64 / x.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn pack_rejects_any_non_binary_value(seed in 0u64..100_000, bad in 1e-6f32..0.999) {
        let mut rng = Rng::seed_from(seed);
        let shape = [2, 1 + rng.below(6), 1 + rng.below(6)];
        let mut x = random_spikes(&shape, 0.5, &mut rng);
        let idx = rng.below(x.len());
        x.data_mut()[idx] = bad;
        prop_assert!(SpikeTensor::try_pack(&x).is_none(), "value {bad} must reject packing");
    }

    #[test]
    fn sparse_conv_matches_dense_and_oracle_across_threads(
        seed in 0u64..100_000,
        density in 0.0f64..=1.0,
    ) {
        let mut rng = Rng::seed_from(seed);
        let g = Conv2dGeometry::new(
            1 + rng.below(3),
            1 + rng.below(4),
            (3 + rng.below(6), 3 + rng.below(6)),
            (1 + rng.below(3), 1 + rng.below(3)),
            (1 + rng.below(2), 1 + rng.below(2)),
            (rng.below(2), rng.below(2)),
        );
        let b = 1 + rng.below(3);
        let x = random_spikes(&[b, g.in_channels, g.in_hw.0, g.in_hw.1], density, &mut rng);
        let w = Tensor::randn(&[g.out_channels, g.in_channels, g.kernel.0, g.kernel.1], &mut rng);
        let sp = SpikeTensor::try_pack(&x).unwrap();
        let dense = Runtime::new(1).install(|| conv::conv2d(&x, &w, &g)).unwrap();
        for threads in 1..=8 {
            let y = Runtime::new(threads).install(|| spike::sparse_conv2d(&sp, &w, &g)).unwrap();
            prop_assert_eq!(
                y.data(), dense.data(),
                "sparse conv bits differ from dense at {} threads", threads
            );
        }
        let oracle = conv_oracle(&x, &w, &g);
        for (got, want) in dense.data().iter().zip(oracle.iter()) {
            prop_assert!((f64::from(*got) - want).abs() < 1e-3, "oracle disagrees: {got} vs {want}");
        }
    }

    #[test]
    fn sparse_linear_matches_per_sample_dense_across_threads(
        seed in 0u64..100_000,
        density in 0.0f64..=1.0,
    ) {
        let mut rng = Rng::seed_from(seed);
        let (b, feat, out) = (1 + rng.below(6), 1 + rng.below(40), 1 + rng.below(12));
        let x = random_spikes(&[b, feat], density, &mut rng);
        let w = Tensor::randn(&[out, feat], &mut rng);
        let sp = SpikeTensor::try_pack(&x).unwrap();
        // Per-sample dense reference: each row through the m = 1 GEMM.
        let mut dense = vec![0.0f32; b * out];
        let rt1 = Runtime::new(1);
        for s in 0..b {
            ttsnn_tensor::runtime::gemm_a_bt(
                &rt1,
                &x.data()[s * feat..(s + 1) * feat],
                w.data(),
                &mut dense[s * out..(s + 1) * out],
                1,
                feat,
                out,
            );
        }
        for threads in 1..=8 {
            let y = Runtime::new(threads).install(|| spike::sparse_linear(&sp, &w)).unwrap();
            prop_assert_eq!(
                y.data(), dense.as_slice(),
                "sparse linear bits differ from per-sample dense at {} threads", threads
            );
        }
    }

    #[test]
    fn sparse_qconv_matches_dense_across_threads_and_accum_modes(
        seed in 0u64..100_000,
        density in 0.0f64..=1.0,
        unit_scale in 0u8..2,
    ) {
        let mut rng = Rng::seed_from(seed);
        let g = Conv2dGeometry::new(
            1 + rng.below(3),
            1 + rng.below(4),
            (3 + rng.below(5), 3 + rng.below(5)),
            (1 + rng.below(3), 1 + rng.below(3)),
            (1 + rng.below(2), 1 + rng.below(2)),
            (rng.below(2), rng.below(2)),
        );
        let b = 1 + rng.below(3);
        let x = random_spikes(&[b, g.in_channels, g.in_hw.0, g.in_hw.1], density, &mut rng);
        let kdim = g.in_channels * g.kernel.0 * g.kernel.1;
        let qw: Vec<i8> =
            (0..g.out_channels * kdim).map(|_| (rng.below(255) as i32 - 127) as i8).collect();
        let w_scales: Vec<f32> = (0..g.out_channels).map(|_| 0.01 + rng.uniform() * 0.1).collect();
        let x_scale = if unit_scale == 0 { 1.0 } else { 0.5 };
        let sp = SpikeTensor::try_pack(&x).unwrap();
        for accum in [QAccum::I32, QAccum::Saturate16] {
            let dense =
                Runtime::new(1)
                    .install(|| qkernels::qconv2d(&x, x_scale, &qw, &w_scales, &g, accum))
                    .unwrap();
            for threads in [1usize, 2, 4, 8] {
                let y = Runtime::new(threads)
                    .install(|| spike::sparse_qconv2d(&sp, x_scale, &qw, &w_scales, &g, accum))
                    .unwrap();
                prop_assert_eq!(
                    y.data(), dense.data(),
                    "sparse qconv bits differ ({:?}, {} threads)", accum, threads
                );
            }
        }
    }

    #[test]
    fn sparse_qlinear_matches_dense_and_integer_oracle(
        seed in 0u64..100_000,
        density in 0.0f64..=1.0,
    ) {
        let mut rng = Rng::seed_from(seed);
        let (b, feat, out) = (1 + rng.below(5), 1 + rng.below(50), 1 + rng.below(10));
        let x = random_spikes(&[b, feat], density, &mut rng);
        let qw: Vec<i8> = (0..out * feat).map(|_| (rng.below(255) as i32 - 127) as i8).collect();
        let w_scales: Vec<f32> = (0..out).map(|_| 0.01 + rng.uniform() * 0.1).collect();
        let bias: Vec<f32> = (0..out).map(|_| rng.uniform() - 0.5).collect();
        let x_scale = 1.0f32;
        let sp = SpikeTensor::try_pack(&x).unwrap();
        let dense =
            Runtime::new(1)
                .install(|| qkernels::qlinear(&x, x_scale, &qw, &w_scales, &bias, QAccum::I32))
                .unwrap();
        for threads in [1usize, 2, 4, 8] {
            let y = Runtime::new(threads)
                .install(|| spike::sparse_qlinear(&sp, x_scale, &qw, &w_scales, &bias, QAccum::I32))
                .unwrap();
            prop_assert_eq!(y.data(), dense.data(), "sparse qlinear bits differ at {} threads", threads);
        }
        // Independent integer oracle: i32 accumulation is order-free, so
        // equality is exact, not approximate.
        for s in 0..b {
            for oc in 0..out {
                let acc: i32 = (0..feat)
                    .filter(|&f| x.data()[s * feat + f] == 1.0)
                    .map(|f| i32::from(qw[oc * feat + f]))
                    .sum();
                let want = acc as f32 * x_scale * w_scales[oc] + bias[oc];
                prop_assert_eq!(dense.data()[s * out + oc], want, "integer oracle disagrees");
            }
        }
    }
}

#[test]
fn mode_routing_honors_threshold_and_overrides() {
    assert!(!SparseMode::Off.routes_sparse(0.0));
    assert!(SparseMode::Force.routes_sparse(0.99));
    assert!(SparseMode::Auto.routes_sparse(spike::SPARSE_DENSITY_THRESHOLD - 0.01));
    assert!(!SparseMode::Auto.routes_sparse(spike::SPARSE_DENSITY_THRESHOLD + 0.01));
    assert_eq!(spike::sparse_mode(), SparseMode::Auto);
}
