//! Every int8 kernel computes the same bits on every lane set: the portable
//! lanes, the set this CPU resolved (`runtime::int8_lanes()`), and the naive
//! `reference_qgemm` oracle, in both accumulator modes. Shapes put `k`, `n`
//! and `O` off every lane width (8, 16, 32), operands include `-128`, and
//! `Sat16` sums overflow ±32767. On a CPU without AVX2 both sets are the
//! portable one and the test still checks the kernels against the oracle.

use ttsnn_tensor::qkernels::{self, QAccum};
use ttsnn_tensor::runtime::{self, with_int8_lanes, Int8Lanes, Runtime};
use ttsnn_tensor::spike::{self, EventWeights, SpikeTensor, WindowTable};
use ttsnn_tensor::{Conv2dGeometry, Rng, Tensor};

const MODES: [QAccum; 2] = [QAccum::I32, QAccum::Saturate16];

fn lane_sets() -> [Int8Lanes; 2] {
    [Int8Lanes::portable(), Int8Lanes::resolved()]
}

/// `len` int8 values: a third extreme (`-128`, `-127`, `127`), a third zero,
/// the rest uniform — so `Sat16` folds saturate and zero coefficients skip.
fn operands(len: usize, rng: &mut Rng) -> Vec<i8> {
    (0..len)
        .map(|_| match rng.below(6) {
            0 => [-128, -127, 127][rng.below(3)],
            1 => 127,
            2 | 3 => 0,
            _ => (rng.below(256) as i32 - 128) as i8,
        })
        .collect()
}

fn binary(shape: &[usize], density: f32, rng: &mut Rng) -> Tensor {
    let n = shape.iter().product();
    let data = (0..n).map(|_| if rng.uniform() < density { 1.0 } else { 0.0 }).collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// Runs `kernel` on every lane set, asserts they agree bit for bit and
/// returns the answer.
fn same_on_every_lane_set<T: PartialEq + std::fmt::Debug>(what: &str, kernel: impl Fn() -> T) -> T {
    let [portable, resolved] = lane_sets().map(|lanes| with_int8_lanes(lanes, &kernel));
    assert_eq!(portable, resolved, "{what}: {} lanes differ from portable", runtime::int8_lanes());
    portable
}

fn f32_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn resolved_lanes_are_named() {
    assert!(["avx2", "portable"].contains(&runtime::int8_lanes()));
    assert_eq!(Int8Lanes::resolved().name(), runtime::int8_lanes());
    assert_eq!(Int8Lanes::portable().name(), "portable");
    // The pin is scoped: it ends with the closure.
    with_int8_lanes(Int8Lanes::portable(), || {});
    assert_eq!(Int8Lanes::resolved().name(), runtime::int8_lanes());
}

#[test]
fn qgemm_and_qgemm_a_bt_match_the_reference_on_every_lane_set() {
    let mut rng = Rng::seed_from(31);
    let shapes = [(1, 1, 1), (3, 5, 17), (4, 2, 16), (5, 33, 47), (9, 300, 70), (7, 17, 33)];
    for (m, k, n) in shapes {
        let a = operands(m * k, &mut rng);
        let b = operands(k * n, &mut rng);
        // `B` stored (n, k) for the transposed kernel.
        let bt: Vec<i8> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
        for accum in MODES {
            let mut want = vec![0i32; m * n];
            qkernels::reference_qgemm(&a, &b, &mut want, m, k, n, accum);
            if accum == QAccum::Saturate16 && k >= 33 {
                assert!(want.iter().any(|v| v.abs() == 32767 || *v == -32768), "no saturation");
            }
            for threads in [1, 3] {
                let rt = Runtime::new(threads);
                let got = same_on_every_lane_set("qgemm", || {
                    let mut out = vec![i32::MIN; m * n];
                    qkernels::qgemm(&rt, &a, &b, &mut out, m, k, n, accum);
                    out
                });
                assert_eq!(got, want, "qgemm ({m},{k},{n}) {accum:?} threads={threads}");
                let got = same_on_every_lane_set("qgemm_a_bt", || {
                    let mut out = vec![i32::MIN; m * n];
                    qkernels::qgemm_a_bt(&rt, &a, &bt, &mut out, m, k, n, accum);
                    out
                });
                assert_eq!(got, want, "qgemm_a_bt ({m},{k},{n}) {accum:?} threads={threads}");
            }
        }
    }
}

#[test]
fn quantize_to_i8_matches_the_scalar_grid_on_every_lane_set() {
    let mut rng = Rng::seed_from(32);
    let specials = [0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 126.5, -127.5, 1e9, -1e9, 0.49999997];
    let nonfinite = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for len in [0, 1, 31, 32, 33, 70] {
        let src: Vec<f32> = (0..len)
            .map(|i| match i % 5 {
                0 => specials[rng.below(specials.len())],
                1 => nonfinite[rng.below(3)],
                _ => rng.normal() * 100.0,
            })
            .collect();
        for scale in [1.0f32, 0.5, 0.021] {
            let want: Vec<i8> =
                src.iter().map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8).collect();
            let got = same_on_every_lane_set("quantize_to_i8", || {
                let mut dst = vec![99i8; len + 3];
                qkernels::quantize_to_i8(&src, scale, &mut dst);
                dst
            });
            assert_eq!(&got[..len], &want[..], "len={len} scale={scale}");
            assert_eq!(&got[len..], &[99; 3], "wrote past the source");
        }
    }
}

/// The geometries of the conv tests: `O` and `Oh·Ow` off the lane widths,
/// padding wider than the kernel's reach, stride 2, a 1×1 and an asymmetric
/// kernel, and 81 taps a position into an `O` of one lane block plus a tail
/// (so `Sat16` event sums saturate there too).
fn geometries() -> Vec<Conv2dGeometry> {
    vec![
        Conv2dGeometry::new(3, 5, (7, 6), (3, 3), (1, 1), (1, 1)),
        Conv2dGeometry::new(2, 8, (9, 9), (3, 3), (2, 2), (1, 1)),
        Conv2dGeometry::new(4, 13, (6, 5), (3, 1), (1, 1), (1, 0)),
        Conv2dGeometry::new(3, 19, (5, 4), (1, 1), (1, 1), (0, 0)),
        Conv2dGeometry::new(9, 16, (4, 4), (3, 3), (1, 1), (3, 3)),
        Conv2dGeometry::new(9, 12, (5, 5), (3, 3), (1, 1), (1, 1)),
    ]
}

/// `qconv2d`'s oracle: quantize, unfold naively, `reference_qgemm`, requant.
fn reference_qconv(
    x: &Tensor,
    x_scale: f32,
    qw: &[i8],
    w_scales: &[f32],
    g: &Conv2dGeometry,
    accum: QAccum,
) -> Vec<u32> {
    let (b, (oh, ow), o, k) =
        (x.shape()[0], g.out_hw(), g.out_channels, g.in_channels * g.kernel.0 * g.kernel.1);
    let (h, w) = g.in_hw;
    let mut out = Vec::new();
    for s in 0..b {
        let mut cols = vec![0i8; k * oh * ow];
        for c in 0..g.in_channels {
            for ki in 0..g.kernel.0 {
                for kj in 0..g.kernel.1 {
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let i = (oi * g.stride.0 + ki) as isize - g.padding.0 as isize;
                            let j = (oj * g.stride.1 + kj) as isize - g.padding.1 as isize;
                            if i < 0 || j < 0 || i >= h as isize || j >= w as isize {
                                continue;
                            }
                            let v = x.at(&[s, c, i as usize, j as usize]);
                            let row = (c * g.kernel.0 + ki) * g.kernel.1 + kj;
                            cols[row * oh * ow + oi * ow + oj] =
                                (v / x_scale).round().clamp(-127.0, 127.0) as i8;
                        }
                    }
                }
            }
        }
        let mut acc = vec![0i32; o * oh * ow];
        qkernels::reference_qgemm(qw, &cols, &mut acc, o, k, oh * ow, accum);
        for (oc, row) in acc.chunks(oh * ow).enumerate() {
            let scale = x_scale * if w_scales.len() == 1 { w_scales[0] } else { w_scales[oc] };
            out.extend(row.iter().map(|&a| (a as f32 * scale).to_bits()));
        }
    }
    out
}

#[test]
fn conv_kernels_match_the_reference_on_every_lane_set() {
    let mut rng = Rng::seed_from(33);
    for g in geometries() {
        let (o, b) = (g.out_channels, 3);
        let qw = operands(o * g.in_channels * g.kernel.0 * g.kernel.1, &mut rng);
        let w_scales: Vec<f32> = (0..o).map(|i| 0.01 + 0.003 * i as f32).collect();
        let shape = [b, g.in_channels, g.in_hw.0, g.in_hw.1];
        let table = WindowTable::new(&g);
        for accum in MODES {
            // Analog activations through the dense kernel.
            let x = Tensor::randn(&shape, &mut rng);
            let want = reference_qconv(&x, 0.02, &qw, &w_scales, &g, accum);
            let dense = same_on_every_lane_set("qconv2d", || {
                f32_bits(&qkernels::qconv2d(&x, 0.02, &qw, &w_scales, &g, accum).unwrap())
            });
            assert_eq!(dense, want, "qconv2d {g:?} {accum:?}");
            // Spikes through the dense and both event kernels; a small scale
            // makes the spike code 48, so `Sat16` saturates.
            for (density, x_scale) in [(0.15, 1.0), (0.6, 0.5), (1.0, 0.021)] {
                let x = binary(&shape, density, &mut rng);
                let sp = SpikeTensor::try_pack(&x).unwrap();
                let want = reference_qconv(&x, x_scale, &qw, &w_scales, &g, accum);
                let weights = EventWeights::quantized(&qw, o, x_scale).unwrap();
                for threads in [1, 3] {
                    let rt = Runtime::new(threads);
                    let what = format!("{g:?} {accum:?} density={density} threads={threads}");
                    let dense = same_on_every_lane_set("qconv2d", || {
                        let y = rt
                            .install(|| qkernels::qconv2d(&x, x_scale, &qw, &w_scales, &g, accum));
                        f32_bits(&y.unwrap())
                    });
                    assert_eq!(dense, want, "qconv2d on spikes {what}");
                    let sparse = same_on_every_lane_set("sparse_qconv2d", || {
                        let y = rt.install(|| {
                            spike::sparse_qconv2d(&sp, x_scale, &qw, &w_scales, &g, accum)
                        });
                        f32_bits(&y.unwrap())
                    });
                    assert_eq!(sparse, want, "sparse_qconv2d {what}");
                    let frozen = same_on_every_lane_set("sparse_qconv2d_frozen", || {
                        let y = rt.install(|| {
                            spike::sparse_qconv2d_frozen(
                                &sp, &weights, &w_scales, &table, &g, accum,
                            )
                        });
                        f32_bits(&y.unwrap())
                    });
                    assert_eq!(frozen, want, "sparse_qconv2d_frozen {what}");
                }
            }
        }
    }
}

#[test]
fn linear_kernels_match_the_reference_on_every_lane_set() {
    let mut rng = Rng::seed_from(34);
    for (b, feat, out) in [(1, 1, 1), (3, 37, 11), (5, 130, 19), (2, 16, 8), (4, 600, 3)] {
        let qw = operands(out * feat, &mut rng);
        let w_scales: Vec<f32> = (0..out).map(|i| 0.02 + 0.001 * i as f32).collect();
        let bias: Vec<f32> = (0..out).map(|i| 0.25 * i as f32 - 1.0).collect();
        // `W` as the (F, O) operand of `reference_qgemm`.
        let wt: Vec<i8> = (0..feat * out).map(|i| qw[(i % out) * feat + i / out]).collect();
        for accum in MODES {
            for (density, x_scale) in [(0.2, 1.0), (1.0, 0.021)] {
                let x = binary(&[b, feat], density, &mut rng);
                let qx: Vec<i8> = x
                    .data()
                    .iter()
                    .map(|&v| (v / x_scale).round().clamp(-127.0, 127.0) as i8)
                    .collect();
                let mut acc = vec![0i32; b * out];
                qkernels::reference_qgemm(&qx, &wt, &mut acc, b, feat, out, accum);
                let want: Vec<u32> = acc
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        (a as f32 * (x_scale * w_scales[i % out]) + bias[i % out]).to_bits()
                    })
                    .collect();
                let sp = SpikeTensor::try_pack(&x).unwrap();
                for threads in [1, 3] {
                    let rt = Runtime::new(threads);
                    let what = format!("({b},{feat},{out}) {accum:?} density={density}");
                    let dense = same_on_every_lane_set("qlinear", || {
                        let y = rt.install(|| {
                            qkernels::qlinear(&x, x_scale, &qw, &w_scales, &bias, accum)
                        });
                        f32_bits(&y.unwrap())
                    });
                    assert_eq!(dense, want, "qlinear {what}");
                    let sparse = same_on_every_lane_set("sparse_qlinear", || {
                        let y = rt.install(|| {
                            spike::sparse_qlinear(&sp, x_scale, &qw, &w_scales, &bias, accum)
                        });
                        f32_bits(&y.unwrap())
                    });
                    assert_eq!(sparse, want, "sparse_qlinear {what}");
                }
            }
        }
    }
}
