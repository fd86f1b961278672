//! Every lane-dispatched kernel computes the same bits on every lane set:
//! the portable lanes, the set this CPU resolved (`runtime::lanes()`), and a
//! naive oracle. On a CPU without AVX2 both sets are the portable one and the
//! suite still checks the kernels against the oracles.
//!
//! **f32.** `gemm`, `gemm_at_b`, `gemm_a_bt` (its dot branch below 8 rows
//! and its transpose + tile branch) and the three convolutions, at 1 and 3
//! threads, against oracles that add `a · b` to a `+0.0` in ascending `k`
//! (the 4-lane dot for the dot branch). Widths `n` run 1–17, 31 and 33, so
//! every 16-column block, 8-column tail and scalar tail of the avx2 tile
//! shows up, with row counts that leave 1–3 remainder rows; operands mix in
//! `NaN`, `±∞` and `−0.0`. Among the mutants this kills: a fused
//! multiply-add in the tile, a dropped 8-column or scalar column tail, a
//! skipped remainder row, and a wrong `a` stride in the tile's packing (the
//! `gemm_at_b` layout).
//!
//! **f32 events.** `sparse_conv2d` and `sparse_conv2d_frozen` against the
//! dense `conv2d`'s bits (and, for non-finite weights, the event sum) at every
//! width of the avx2 tap walk.
//!
//! **norm and pool.** tdBN's statistics and backward sums (`norm`) and
//! `avg_pool2d` against the loops they replaced, kept verbatim as oracles.
//!
//! **int8.** Every int8 kernel in both accumulator modes against
//! `reference_qgemm`. Shapes put `k`, `n` and `O` off every lane width (8,
//! 16, 32), operands include `-128`, and `Sat16` sums overflow ±32767.

use ttsnn_tensor::qkernels::{self, QAccum};
use ttsnn_tensor::runtime::{self, with_lanes, Lanes, Runtime};
use ttsnn_tensor::spike::{self, EventWeights, SpikeTensor, WindowTable};
use ttsnn_tensor::{conv, norm, pool, Conv2dGeometry, Rng, Tensor};

const MODES: [QAccum; 2] = [QAccum::I32, QAccum::Saturate16];

fn lane_sets() -> [Lanes; 2] {
    [Lanes::portable(), Lanes::resolved()]
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
    let [portable, resolved] = lane_sets().map(|lanes| with_lanes(lanes, &kernel));
    assert_eq!(portable, resolved, "{what}: {} lanes differ from portable", runtime::lanes());
    portable
}

fn f32_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn resolved_lanes_are_named() {
    assert!(["avx2", "portable"].contains(&runtime::lanes()));
    assert_eq!(Lanes::resolved().name(), runtime::lanes());
    assert_eq!(Lanes::portable().name(), "portable");
    // The pin is scoped: it ends with the closure.
    with_lanes(Lanes::portable(), || {});
    assert_eq!(Lanes::resolved().name(), runtime::lanes());
}

/// An f32 as the suite compares it: its bits, every `NaN` counted as one
/// value — IEEE fixes no `NaN` payload, and x86 makes `∞ · 0` a negative one.
fn canon(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// `len` f32 values, normal draws over five decades (so a reordered sum
/// rounds differently) with one in 40 a special: `NaN`, `±∞` or `−0.0`.
fn f32_operands(len: usize, rng: &mut Rng) -> Vec<f32> {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    (0..len)
        .map(|_| match rng.below(40) {
            0 => specials[rng.below(4)],
            _ => rng.normal() * [1e-2, 1.0, 1e3][rng.below(3)],
        })
        .collect()
}

fn f32_tensor(shape: &[usize], rng: &mut Rng) -> Tensor {
    Tensor::from_vec(f32_operands(shape.iter().product(), rng), shape).unwrap()
}

/// Element `(i, kk)` of `a` at `a[i · row_stride + kk · k_stride]`: `A · B`
/// with every element a `+0.0` plus its terms in ascending `k`.
fn ascending_k(
    a: &[f32],
    (row_stride, k_stride): (usize, usize),
    b: &[f32],
    (m, k, n): (usize, usize, usize),
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for kk in 0..k {
                out[i * n + j] += a[i * row_stride + kk * k_stride] * b[kk * n + j];
            }
        }
    }
    out
}

/// `gemm_a_bt`'s dot branch: four lanes by `kk mod 4`, then a tail.
fn lane_dot(x: &[f32], y: &[f32]) -> f32 {
    let (mut lanes, body) = ([0.0f32; 4], x.len() / 4 * 4);
    for i in 0..body {
        lanes[i % 4] += x[i] * y[i];
    }
    let tail = (body..x.len()).fold(0.0f32, |t, i| t + x[i] * y[i]);
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) + tail
}

/// `A · Bᵀ` with `B` stored `(n, k)`, as `gemm_a_bt` computes it: the lane
/// dot below 8 rows, ascending `k` above.
fn a_bt_oracle(a: &[f32], bt: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    if m < 8 {
        let dot = |i: usize, j: usize| lane_dot(&a[i * k..][..k], &bt[j * k..][..k]);
        return (0..m * n).map(|e| dot(e / n, e % n)).collect();
    }
    let b: Vec<f32> = (0..k * n).map(|e| bt[(e % n) * k + e / n]).collect();
    ascending_k(a, (k, 1), &b, (m, k, n))
}

/// Fills the three arena buffers the calling thread's next kernel takes
/// first with `NaN`, so that a value a kernel fails to write cannot be
/// stood in for by what an earlier call (on the other lane set) left there.
fn poison_scratch() {
    let poison = |s: &mut [f32]| s.fill(f32::NAN);
    runtime::with_scratch(1 << 16, |a: &mut [f32]| {
        poison(a);
        runtime::with_scratch(1 << 16, |b: &mut [f32]| {
            poison(b);
            runtime::with_scratch(1 << 16, poison);
        });
    });
}

/// Runs `kernel` on every lane set, asserting that each answer matches
/// `want` as [`canon`] compares them.
fn f32_on_every_lane_set(what: &str, want: &[f32], kernel: impl Fn() -> Vec<f32>) {
    let want = canon(want);
    for lanes in lane_sets() {
        poison_scratch();
        let got = canon(&with_lanes(lanes, &kernel));
        assert!(got == want, "{what}: {} lanes differ from the oracle", lanes.name());
    }
}

#[test]
fn f32_gemm_family_matches_ascending_k_on_every_lane_set() {
    let mut rng = Rng::seed_from(35);
    let widths = (1..=17).chain([31, 33]);
    let small = widths.flat_map(|n| [1, 4, 6, 9, 13].map(|m| [1, 5, 33].map(|k| (m, k, n))));
    // Shapes whose row range forks at 3 threads.
    let forked = [(67, 300, 33), (29, 513, 47), (130, 64, 100)];
    for (m, k, n) in small.flatten().chain(forked) {
        let (a, b) = (f32_operands(m * k, &mut rng), f32_operands(k * n, &mut rng));
        // `A` stored `(k, m)` for `gemm_at_b`, `B` stored `(n, k)` for `gemm_a_bt`.
        let at: Vec<f32> = (0..k * m).map(|e| a[(e % m) * k + e / m]).collect();
        let bt: Vec<f32> = (0..n * k).map(|e| b[(e % k) * n + e / k]).collect();
        let want = ascending_k(&a, (k, 1), &b, (m, k, n));
        let want_a_bt = a_bt_oracle(&a, &bt, (m, k, n));
        for threads in [1, 3] {
            let rt = Runtime::new(threads);
            let what = |kernel| format!("{kernel} ({m},{k},{n}) threads={threads}");
            let run = |f: &dyn Fn(&mut [f32])| {
                let mut out = vec![f32::NAN; m * n];
                f(&mut out);
                out
            };
            f32_on_every_lane_set(&what("gemm"), &want, || {
                run(&|out| runtime::gemm(&rt, &a, &b, out, m, k, n))
            });
            f32_on_every_lane_set(&what("gemm_at_b"), &want, || {
                run(&|out| runtime::gemm_at_b(&rt, &at, &b, out, m, k, n))
            });
            f32_on_every_lane_set(&what("gemm_a_bt"), &want_a_bt, || {
                run(&|out| runtime::gemm_a_bt(&rt, &a, &bt, out, m, k, n))
            });
        }
    }
}

/// The per-element unfolding, row `(c, ki, kj)` of `(C·Kh·Kw, Oh·Ow)`.
fn unfold_oracle(x: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
    let mut cols = vec![0.0f32; g.in_channels * kh * kw * oh * ow];
    for (e, v) in cols.iter_mut().enumerate() {
        let (row, p) = (e / (oh * ow), e % (oh * ow));
        let (c, ki, kj) = (row / (kh * kw), row / kw % kh, row % kw);
        let i = (p / ow * g.stride.0 + ki).checked_sub(g.padding.0).filter(|&i| i < h);
        let j = (p % ow * g.stride.1 + kj).checked_sub(g.padding.1).filter(|&j| j < w);
        if let (Some(i), Some(j)) = (i, j) {
            *v = x[(c * h + i) * w + j];
        }
    }
    cols
}

/// Adds `cols` back into a zeroed `(C, H, W)` in `(c, ki, kj, oi, oj)` order.
fn fold_oracle(cols: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
    let mut x = vec![0.0f32; g.in_channels * h * w];
    for (e, &v) in cols.iter().enumerate() {
        let (row, p) = (e / (oh * ow), e % (oh * ow));
        let (c, ki, kj) = (row / (kh * kw), row / kw % kh, row % kw);
        let i = (p / ow * g.stride.0 + ki).checked_sub(g.padding.0).filter(|&i| i < h);
        let j = (p % ow * g.stride.1 + kj).checked_sub(g.padding.1).filter(|&j| j < w);
        if let (Some(i), Some(j)) = (i, j) {
            x[(c * h + i) * w + j] += v;
        }
    }
    x
}

#[test]
fn f32_convolutions_match_ascending_k_on_every_lane_set() {
    let mut rng = Rng::seed_from(36);
    let mut geometries = geometries();
    // Planes under the panel width, gathered: several samples per GEMM.
    geometries.push(Conv2dGeometry::new(6, 9, (4, 3), (1, 1), (1, 1), (0, 0)));
    // `O` and `C·Kh·Kw` of 8 and up: the weight gradient's transpose + tile.
    geometries.push(Conv2dGeometry::new(5, 11, (9, 7), (3, 3), (1, 1), (1, 1)));
    for g in geometries {
        let b = 3;
        let ((oh, ow), o) = (g.out_hw(), g.out_channels);
        let (k, osp) = (g.in_channels * g.kernel.0 * g.kernel.1, oh * ow);
        let in_slab = g.in_channels * g.in_hw.0 * g.in_hw.1;
        let x = f32_tensor(&[b, g.in_channels, g.in_hw.0, g.in_hw.1], &mut rng);
        let w = f32_tensor(&[o, g.in_channels, g.kernel.0, g.kernel.1], &mut rng);
        let gy = f32_tensor(&[b, o, oh, ow], &mut rng);
        let (mut y, mut dx, mut dw) = (Vec::new(), Vec::new(), vec![0.0f32; o * k]);
        let samples = x.data().chunks_exact(in_slab).zip(gy.data().chunks_exact(o * osp));
        for (xs, gys) in samples {
            let cols = unfold_oracle(xs, &g);
            y.extend(ascending_k(w.data(), (k, 1), &cols, (o, k, osp)));
            dx.extend(fold_oracle(&ascending_k(w.data(), (1, k), gys, (k, o, osp)), &g));
            for (acc, v) in dw.iter_mut().zip(a_bt_oracle(gys, &cols, (o, osp, k))) {
                *acc += v;
            }
        }
        for threads in [1, 3] {
            let rt = Runtime::new(threads);
            let what = |kernel| format!("{kernel} {g:?} threads={threads}");
            f32_on_every_lane_set(&what("conv2d"), &y, || {
                rt.install(|| conv::conv2d(&x, &w, &g)).unwrap().data().to_vec()
            });
            f32_on_every_lane_set(&what("conv2d_input_grad"), &dx, || {
                rt.install(|| conv::conv2d_input_grad(&gy, &w, &g)).unwrap().data().to_vec()
            });
            f32_on_every_lane_set(&what("conv2d_weight_grad"), &dw, || {
                rt.install(|| conv::conv2d_weight_grad(&x, &gy, &g)).unwrap().data().to_vec()
            });
        }
    }
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
/// (so `Sat16` event sums saturate there too). `O` = 8, 16, 32 and 64 are the
/// event scatter's fixed-block widths (the served VGG9 ÷ 8 runs 8, 16 and
/// 32); 5, 12, 13 and 19 take its per-row path, with and without a block.
fn geometries() -> Vec<Conv2dGeometry> {
    vec![
        Conv2dGeometry::new(3, 5, (7, 6), (3, 3), (1, 1), (1, 1)),
        Conv2dGeometry::new(2, 8, (9, 9), (3, 3), (2, 2), (1, 1)),
        Conv2dGeometry::new(4, 13, (6, 5), (3, 1), (1, 1), (1, 0)),
        Conv2dGeometry::new(3, 19, (5, 4), (1, 1), (1, 1), (0, 0)),
        Conv2dGeometry::new(9, 16, (4, 4), (3, 3), (1, 1), (3, 3)),
        Conv2dGeometry::new(9, 12, (5, 5), (3, 3), (1, 1), (1, 1)),
        Conv2dGeometry::new(4, 32, (5, 5), (3, 3), (1, 1), (1, 1)),
        Conv2dGeometry::new(3, 64, (5, 3), (3, 3), (1, 1), (1, 1)),
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
        let table = WindowTable::new(&g).unwrap();
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

/// `sparse_conv2d`'s oracle: per output, its weights at the firing inputs
/// added to a `+0.0` in ascending patch order `(c, ki, kj)`, the zero-spike
/// terms left out. With finite weights that is the dense kernel's sum.
fn event_oracle(x: &Tensor, w: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let ((h, wd), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
    let kdim = g.in_channels * kh * kw;
    let mut out = Vec::new();
    for xs in x.data().chunks_exact(g.in_channels * h * wd) {
        for (oc, p) in (0..g.out_channels).flat_map(|oc| (0..oh * ow).map(move |p| (oc, p))) {
            let mut acc = 0.0f32;
            for kk in 0..kdim {
                let (c, ki, kj) = (kk / (kh * kw), kk / kw % kh, kk % kw);
                let i = (p / ow * g.stride.0 + ki).checked_sub(g.padding.0).filter(|&i| i < h);
                let j = (p % ow * g.stride.1 + kj).checked_sub(g.padding.1).filter(|&j| j < wd);
                if let (Some(i), Some(j)) = (i, j) {
                    if xs[(c * h + i) * wd + j] == 1.0 {
                        acc += w[oc * kdim + kk];
                    }
                }
            }
            out.push(acc);
        }
    }
    out
}

/// The f32 event kernels, per call and frozen, on every lane set at 1 and 3
/// threads: against the dense `conv2d`'s bits for finite weights (with
/// `−0.0` among them), and against the event sum for weights with `NaN` and
/// `±∞` too, where a left-out `0 · ∞` is not the dense kernel's `NaN`. `O`
/// runs every fixed block of the avx2 tap walk and its per-row path
/// ([`geometries`]); densities 0, 0.13 and 1. Among the mutants this kills:
/// a dropped `O mod 8` remainder lane in the per-row path, a block left
/// unzeroed (the arena is poisoned first), the wrong block count at `O` = 32
/// or 64, and a dropped position edge of the transposing epilogue.
#[test]
fn f32_event_kernels_match_the_dense_bits_on_every_lane_set() {
    let mut rng = Rng::seed_from(39);
    for g in geometries() {
        let (b, o) = (3, g.out_channels);
        let shape = [b, g.in_channels, g.in_hw.0, g.in_hw.1];
        let wshape = [o, g.in_channels, g.kernel.0, g.kernel.1];
        let finite = f32_operands(wshape.iter().product(), &mut rng)
            .into_iter()
            .map(|v| if v.is_finite() { v } else { -0.0 })
            .collect();
        let finite = Tensor::from_vec(finite, &wshape).unwrap();
        let special = f32_tensor(&wshape, &mut rng);
        let table = WindowTable::new(&g).unwrap();
        for density in [0.0, 0.13, 1.0] {
            let x = binary(&shape, density, &mut rng);
            let sp = SpikeTensor::try_pack(&x).unwrap();
            let dense = canon(conv::conv2d(&x, &finite, &g).unwrap().data());
            assert_eq!(canon(&event_oracle(&x, finite.data(), &g)), dense, "oracle {g:?}");
            let want_special = canon(&event_oracle(&x, special.data(), &g));
            for (w, want) in [(&finite, &dense), (&special, &want_special)] {
                let weights = EventWeights::new(w).unwrap();
                for threads in [1, 3] {
                    let rt = Runtime::new(threads);
                    let what = |kernel| format!("{kernel} {g:?} density={density} t={threads}");
                    let sparse = same_on_every_lane_set(&what("sparse_conv2d"), || {
                        poison_scratch();
                        canon(rt.install(|| spike::sparse_conv2d(&sp, w, &g)).unwrap().data())
                    });
                    assert_eq!(&sparse, want, "{}", what("sparse_conv2d"));
                    let frozen = same_on_every_lane_set(&what("sparse_conv2d_frozen"), || {
                        poison_scratch();
                        let y =
                            rt.install(|| spike::sparse_conv2d_frozen(&sp, &weights, &table, &g));
                        canon(y.unwrap().data())
                    });
                    assert_eq!(&frozen, want, "{}", what("sparse_conv2d_frozen"));
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

/// A normalization operand's channel planes: most normal draws over five
/// decades (so a reordered sum rounds differently), some with one `NaN`,
/// `±∞` or `±0.0` mixed in, some all `−0.0`, some all `+0.0` — one kind per
/// plane, so most statistics stay finite and their bits say something.
fn norm_operand(planes: usize, plane: usize, rng: &mut Rng) -> Vec<f32> {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    let mut out = Vec::with_capacity(planes * plane);
    for _ in 0..planes {
        let kind = rng.below(12);
        let scale = [1e-2, 1.0, 1e3][rng.below(3)];
        let special = rng.below(plane);
        out.extend((0..plane).map(|p| match kind {
            0 => -0.0,
            1 => 0.0,
            2 | 3 if p == special => specials[rng.below(specials.len())],
            _ => rng.normal() * scale + 0.5 * scale,
        }));
    }
    out
}

/// The statistics as the two planes computed them before they shared a
/// kernel: per channel, plane sums folded into `+0.0` in sample order, then
/// the same over the squared deviations.
fn norm_stats_oracle(x: &[f32], (b, c, plane): (usize, usize, usize), eps: f32) -> Vec<f32> {
    let n = (b * plane) as f32;
    let mut stats = Vec::new();
    for g in 0..x.len() / (b * c * plane) {
        for ch in 0..c {
            let channel =
                (g * b..(g + 1) * b).map(|s| (s * c + ch) * plane..(s * c + ch + 1) * plane);
            let mut acc = 0.0;
            for r in channel.clone() {
                acc += x[r].iter().sum::<f32>();
            }
            let m = acc / n;
            let mut vacc = 0.0;
            for r in channel {
                vacc += x[r].iter().map(|v| (v - m).powi(2)).sum::<f32>();
            }
            stats.extend([m, 1.0 / (vacc / n + eps).sqrt()]);
        }
    }
    stats
}

/// The backward's sums as the training plane computed them: two chains from
/// `+0.0` through the samples and positions in order.
fn norm_grad_sums_oracle(
    x: &[f32],
    dy: &[f32],
    stats: &[f32],
    (b, c, plane): (usize, usize, usize),
) -> Vec<f32> {
    let mut sums = Vec::new();
    for (i, st) in stats.chunks(2).enumerate() {
        let (g, ch, m, inv) = (i / c, i % c, st[0], st[1]);
        let mut sum_dy = 0.0f32;
        let mut sum_dy_xhat = 0.0f32;
        for s in g * b..(g + 1) * b {
            let r = (s * c + ch) * plane..(s * c + ch + 1) * plane;
            for (&dy, &v) in dy[r.clone()].iter().zip(&x[r]) {
                sum_dy += dy;
                sum_dy_xhat += dy * ((v - m) * inv);
            }
        }
        sums.extend([sum_dy, sum_dy_xhat]);
    }
    sums
}

/// The norm kernels against the loops they replaced, bit for bit, on every
/// lane set at 1 and 3 threads: channel counts on, off and across the
/// 8-lane blocks, planes from one position to more than the transposed
/// 8-position steps, groups of 1, 3 and 16 samples (two groups a call, so a
/// lane block never reads across one). Among the mutants this kills: a plane
/// partial added straight into the group sum, the samples folded in another
/// order, a fused multiply-add in the backward, a backward chain started at
/// `−0.0` (a channel whose `dy` is all `−0.0` sums to `+0.0`), a dropped
/// position tail and a lane block that crosses a group. Starting a plane
/// partial at `+0.0` instead of `−0.0` is not among them: the partial then
/// differs only in the sign of a zero, which adding it to the `+0.0` fold
/// erases, so the two are the same kernel.
#[test]
fn norm_kernels_match_the_ordered_loops_on_every_lane_set() {
    let mut rng = Rng::seed_from(37);
    let eps = 1e-5;
    for c in [1, 7, 8, 9, 17, 64] {
        for plane in [1, 4, 16, 64, 256] {
            for b in [1, 3, 16] {
                let (groups, dims) = (2, norm::NormDims { b, c, plane });
                let planes = groups * b * c;
                let x = norm_operand(planes, plane, &mut rng);
                let dy = norm_operand(planes, plane, &mut rng);
                let stats = norm_stats_oracle(&x, (b, c, plane), eps);
                let sums = norm_grad_sums_oracle(&x, &dy, &stats, (b, c, plane));
                // The inference plane's in-place form: TEBN-style group
                // scales, tdBN's extra scale `k`.
                let (gamma, beta, k) =
                    (norm_operand(1, c, &mut rng), norm_operand(1, c, &mut rng), 0.5);
                let scale = |g: usize| 1.0 + 0.25 * g as f32;
                let mut y = x.clone();
                for (i, v) in y.iter_mut().enumerate() {
                    let (g, ch) = (i / (b * c * plane), i / plane % c);
                    let (m, inv) = (stats[2 * (g * c + ch)], stats[2 * (g * c + ch) + 1]);
                    *v = (gamma[ch] * k * ((*v - m) * inv) + beta[ch]) * scale(g);
                }
                for threads in [1, 3] {
                    let rt = Runtime::new(threads);
                    let what = |kernel| format!("{kernel} c={c} plane={plane} b={b} t={threads}");
                    f32_on_every_lane_set(&what("channel_stats"), &stats, || {
                        let mut out = vec![f32::NAN; 2 * groups * c];
                        norm::channel_stats(&rt, dims, &x, eps, &mut out);
                        out
                    });
                    f32_on_every_lane_set(&what("channel_grad_sums"), &sums, || {
                        let mut out = vec![f32::NAN; 2 * groups * c];
                        norm::channel_grad_sums(&rt, dims, &x, &dy, &stats, &mut out);
                        out
                    });
                    f32_on_every_lane_set(&what("normalize"), &y, || {
                        let mut out = x.clone();
                        norm::normalize(&rt, dims, &mut out, eps, (&gamma, &beta, k), scale);
                        out
                    });
                }
            }
        }
    }
}

/// `avg_pool2d` against the window loop it ran before its `k = 2` path:
/// every window summed from `+0.0`, rows first, then scaled by `1/k²`. At
/// `k = 2` (the side-by-side path, odd and even output widths) and `k = 3`
/// (the general loop), with `NaN`, `±∞` and `±0.0` among the inputs and
/// planes that are all `−0.0` (a window summed from `−0.0` would keep it).
#[test]
fn avg_pool2d_matches_the_window_loop_on_every_lane_set() {
    let mut rng = Rng::seed_from(38);
    for k in [2, 3] {
        for (oh, ow) in [(1, 1), (2, 3), (4, 4), (3, 9), (5, 16), (2, 17)] {
            let (b, c, h, w) = (2, 5, oh * k, ow * k);
            let x = norm_operand(b * c, h * w, &mut rng);
            let mut want = Vec::new();
            for xp in x.chunks(h * w) {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0;
                        for row in xp[oi * k * w..(oi + 1) * k * w].chunks(w) {
                            for &v in &row[oj * k..(oj + 1) * k] {
                                acc += v;
                            }
                        }
                        want.push(acc * (1.0 / (k * k) as f32));
                    }
                }
            }
            let x = Tensor::from_vec(x, &[b, c, h, w]).unwrap();
            for threads in [1, 3] {
                let what = format!("avg_pool2d k={k} out=({oh},{ow}) threads={threads}");
                f32_on_every_lane_set(&what, &want, || {
                    let y = Runtime::new(threads).install(|| pool::avg_pool2d(&x, k));
                    y.unwrap().data().to_vec()
                });
            }
        }
    }
}
