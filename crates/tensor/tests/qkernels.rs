//! Property tests for the int8 kernels: the integer GEMM family must be
//! **bit-identical** to its naive reference across shapes, accumulator
//! modes, and thread counts (each property pins its own pools, 1–8
//! threads), and the quantized conv must be invariant to batch
//! composition.

use proptest::prelude::*;
use ttsnn_tensor::qkernels::{qconv2d, qgemm, qgemm_a_bt, qlinear, reference_qgemm, QAccum};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Conv2dGeometry, Rng, Tensor};

const DIMS: [usize; 4] = [1, 3, 17, 64];

fn rand_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
    (0..len).map(|_| (rng.below(255) as i32 - 127) as i8).collect()
}

#[test]
fn qgemm_bit_equals_reference_on_shape_grid_across_threads() {
    let mut rng = Rng::seed_from(1);
    // 300 is longer than the tile's k-panel (256): the saturating fold has
    // to carry its order across a panel boundary.
    let k_dims = [DIMS[0], DIMS[1], DIMS[2], DIMS[3], 300];
    for &m in &DIMS {
        for &k in &k_dims {
            for &n in &DIMS {
                let dense = rand_i8(m * k, &mut rng);
                // A merged PTT kernel's rows: taps 0, 2, 6, 8 of every 9
                // zero in every row, which the tile skips four rows at a time.
                let cross: Vec<i8> = dense
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if matches!(i % k % 9, 0 | 2 | 6 | 8) { 0 } else { v })
                    .collect();
                let b = rand_i8(k * n, &mut rng);
                for (pattern, a) in [("dense", &dense), ("cross", &cross)] {
                    for accum in [QAccum::I32, QAccum::Saturate16] {
                        let mut want = vec![0i32; m * n];
                        reference_qgemm(a, &b, &mut want, m, k, n, accum);
                        for threads in 1..=8 {
                            let mut got = vec![i32::MIN; m * n];
                            qgemm(&Runtime::new(threads), a, &b, &mut got, m, k, n, accum);
                            assert_eq!(
                                got, want,
                                "({m},{k},{n}) {pattern} threads={threads} {accum:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// qgemm_a_bt against the plain-layout reference, all modes/threads.
    #[test]
    fn qgemm_a_bt_bit_equals_reference(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let (m, k, n) = (1 + rng.below(8), 1 + rng.below(32), 1 + rng.below(8));
        let a = rand_i8(m * k, &mut rng);
        let bt = rand_i8(n * k, &mut rng);
        let mut b = vec![0i8; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = bt[j * k + kk];
            }
        }
        for accum in [QAccum::I32, QAccum::Saturate16] {
            let mut want = vec![0i32; m * n];
            reference_qgemm(&a, &b, &mut want, m, k, n, accum);
            for threads in [1usize, 2, 8] {
                let mut got = vec![0i32; m * n];
                qgemm_a_bt(&Runtime::new(threads), &a, &bt, &mut got, m, k, n, accum);
                prop_assert_eq!(&got, &want, "threads={} {:?}", threads, accum);
            }
        }
    }

    /// Saturating 16-bit accumulation never exceeds the i16 range and
    /// equals exact accumulation whenever no partial sum overflows.
    #[test]
    fn saturate16_is_bounded_and_exact_when_in_range(seed in 0u64..500) {
        let mut rng = Rng::seed_from(seed);
        let k = 1 + rng.below(64);
        let a = rand_i8(k, &mut rng);
        let b = rand_i8(k, &mut rng);
        let mut sat = vec![0i32; 1];
        qgemm(&Runtime::new(1), &a, &b, &mut sat, 1, k, 1, QAccum::Saturate16);
        prop_assert!(sat[0] >= i16::MIN as i32 && sat[0] <= i16::MAX as i32);
        // Exact-path partial sums (prefix sums) all in range => identical.
        let mut prefix = 0i64;
        let mut in_range = true;
        for kk in 0..k {
            prefix += a[kk] as i64 * b[kk] as i64;
            in_range &= prefix >= i16::MIN as i64 && prefix <= i16::MAX as i64;
        }
        if in_range {
            let mut exact = vec![0i32; 1];
            qgemm(&Runtime::new(1), &a, &b, &mut exact, 1, k, 1, QAccum::I32);
            prop_assert_eq!(sat[0], exact[0]);
        }
    }

    /// The quantized conv is bit-identical across thread counts and batch
    /// compositions (the serving plane's determinism contract, with no
    /// float rounding to hide behind).
    #[test]
    fn qconv2d_thread_and_batch_invariant(seed in 0u64..200) {
        let mut rng = Rng::seed_from(seed);
        let (c, o) = (1 + rng.below(3), 1 + rng.below(4));
        let hw = 4 + rng.below(5);
        let batch = 1 + rng.below(3);
        let g = Conv2dGeometry::new(c, o, (hw, hw), (3, 3), (1, 1), (1, 1));
        let x = Tensor::randn(&[batch, c, hw, hw], &mut rng);
        let qw = rand_i8(o * c * 9, &mut rng);
        let scales: Vec<f32> = (0..o).map(|i| 0.01 + 0.005 * i as f32).collect();
        let base = Runtime::new(1)
            .install(|| qconv2d(&x, 0.03, &qw, &scales, &g, QAccum::I32))
            .unwrap();
        for threads in [2usize, 8] {
            let out = Runtime::new(threads)
                .install(|| qconv2d(&x, 0.03, &qw, &scales, &g, QAccum::I32))
                .unwrap();
            prop_assert_eq!(&out, &base, "threads={}", threads);
        }
        let slab = base.len() / batch;
        let in_slab = c * hw * hw;
        for s in 0..batch {
            let solo = Tensor::from_vec(
                x.data()[s * in_slab..(s + 1) * in_slab].to_vec(),
                &[1, c, hw, hw],
            )
            .unwrap();
            let alone = Runtime::new(2)
                .install(|| qconv2d(&solo, 0.03, &qw, &scales, &g, QAccum::I32))
                .unwrap();
            prop_assert_eq!(&base.data()[s * slab..(s + 1) * slab], alone.data());
        }
    }

    /// Quantization onto the grid then integer linear equals the scalar
    /// oracle bit for bit, across threads.
    #[test]
    fn qlinear_thread_invariant(seed in 0u64..200) {
        let mut rng = Rng::seed_from(seed);
        let (b, f, o) = (1 + rng.below(6), 1 + rng.below(16), 1 + rng.below(5));
        let x = Tensor::randn(&[b, f], &mut rng);
        let qw = rand_i8(o * f, &mut rng);
        let scales = vec![0.02f32; 1];
        let bias: Vec<f32> = (0..o).map(|i| i as f32 * 0.1).collect();
        let base = Runtime::new(1)
            .install(|| qlinear(&x, 0.05, &qw, &scales, &bias, QAccum::I32))
            .unwrap();
        for threads in [2usize, 8] {
            let out = Runtime::new(threads)
                .install(|| qlinear(&x, 0.05, &qw, &scales, &bias, QAccum::I32))
                .unwrap();
            prop_assert_eq!(&out, &base, "threads={}", threads);
        }
    }
}

#[test]
fn accum_names_are_stable() {
    assert_eq!(QAccum::I32.name(), "i32");
    assert_eq!(QAccum::Saturate16.name(), "sat16");
    assert_eq!(QAccum::default(), QAccum::I32);
}
