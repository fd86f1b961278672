//! Bit-identity of the serving convolutions' layouts.
//!
//! Two things changed how a convolution reaches its sums without changing
//! which sums it does, and this suite pins that they moved no bit:
//!
//! 1. **Gathered panels** — `conv2d`, `conv2d_input_grad` and `qconv2d`
//!    gather samples whose output plane is short into one GEMM panel. Every
//!    batch is checked against the per-sample path (each sample alone, one
//!    call each), with `B·P` on both sides of the 256-column panel width.
//! 2. **Plan-time event layouts** — `sparse_conv2d_frozen` /
//!    `sparse_qconv2d_frozen` read a `WindowTable` and `[C·Kh·Kw][O]`
//!    `EventWeights` built once; they must equal the per-call event kernels
//!    and the dense kernels.
//! 3. **One fold for the weight gradient** — `conv2d_weight_grad` splits the
//!    output elements across threads and walks every sample in one lane
//!    call, each per-sample partial summed in registers; it must equal
//!    unfolding each sample, one `gemm_a_bt` per sample and adding the
//!    partials into `+0.0` in sample order. Batches of 1, 3, 8, 9 and 17
//!    fill lane-packed sample blocks and leave remainders.
//!
//! Kernels 1×1, 3×1, 1×3 and 3×3 at stride 1 and 2, padding 0 and 1, output
//! channels 1, 3, 8, 19 and 64 (either side of the weight gradient's `O < 8`
//! dot form), both accumulator modes (with Sat16 sums that really saturate),
//! at 1, 2 and 8 threads.

use proptest::prelude::*;
use ttsnn_tensor::qkernels::{self, QAccum};
use ttsnn_tensor::runtime::{self, Runtime};
use ttsnn_tensor::spike::{self, EventWeights, SpikeTensor, WindowTable};
use ttsnn_tensor::{conv, Conv2dGeometry, Rng, Tensor};

const KERNELS: [(usize, usize); 4] = [(1, 1), (3, 1), (1, 3), (3, 3)];
const OUT_CHANNELS: [usize; 5] = [1, 3, 8, 19, 64];
const THREADS: [usize; 3] = [1, 2, 8];
const DENSITIES: [f64; 4] = [0.0, 0.1, 0.5, 1.0];
const ACCUMS: [QAccum; 2] = [QAccum::I32, QAccum::Saturate16];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A geometry from the property inputs; the input grows so the kernel fits
/// without padding.
fn geometry(
    c: usize,
    o: usize,
    (h, w): (usize, usize),
    kernel: (usize, usize),
    stride: usize,
    pad: usize,
) -> Conv2dGeometry {
    let hw = (h.max(kernel.0), w.max(kernel.1));
    Conv2dGeometry::new(c, o, hw, kernel, (stride, stride), (pad, pad))
}

fn input_shape(b: usize, g: &Conv2dGeometry) -> [usize; 4] {
    [b, g.in_channels, g.in_hw.0, g.in_hw.1]
}

/// Sample `s` of a batch, as a batch of one.
fn sample(x: &Tensor, s: usize) -> Tensor {
    let slab = x.len() / x.shape()[0];
    let mut shape = x.shape().to_vec();
    shape[0] = 1;
    Tensor::from_vec(x.data()[s * slab..(s + 1) * slab].to_vec(), &shape).unwrap()
}

/// The per-sample path: `kernel` on each sample of `x` alone, concatenated.
fn per_sample_bits(x: &Tensor, kernel: impl Fn(&Tensor) -> Tensor) -> Vec<u32> {
    (0..x.shape()[0]).flat_map(|s| bits(&kernel(&sample(x, s)))).collect()
}

fn random_spikes(shape: &[usize], density: f64, rng: &mut Rng) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| if (rng.uniform() as f64) < density { 1.0 } else { 0.0 }).collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// Int8 weights spread over the whole grid, so Sat16 sums leave the i16
/// range once a spike quantizes to a large code.
fn random_qweight(len: usize, rng: &mut Rng) -> Vec<i8> {
    (0..len).map(|_| (rng.below(255) as i32 - 127) as i8).collect()
}

fn scales(o: usize) -> Vec<f32> {
    (0..o).map(|i| 0.01 + 0.001 * i as f32).collect()
}

/// `got` at every thread count equals `want`.
fn at_every_thread_count(want: &[u32], tag: &str, got: impl Fn() -> Tensor) {
    for threads in THREADS {
        let y = Runtime::new(threads).install(&got);
        assert_eq!(bits(&y), want, "{tag} threads={threads}");
    }
}

/// The dense kernels that gather panels, against the per-sample path.
fn check_gathered(g: &Conv2dGeometry, b: usize, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let (oh, ow) = g.out_hw();
    let x = Tensor::randn(&input_shape(b, g), &mut rng);
    let w = Tensor::randn(&[g.out_channels, g.in_channels, g.kernel.0, g.kernel.1], &mut rng);
    let gy = Tensor::randn(&[b, g.out_channels, oh, ow], &mut rng);
    let tag = format!("g={g:?} b={b} B·P={}", b * oh * ow);

    let want = per_sample_bits(&x, |xs| conv::conv2d(xs, &w, g).unwrap());
    at_every_thread_count(&want, &format!("conv2d {tag}"), || conv::conv2d(&x, &w, g).unwrap());
    let want = per_sample_bits(&gy, |gs| conv::conv2d_input_grad(gs, &w, g).unwrap());
    at_every_thread_count(&want, &format!("conv2d_input_grad {tag}"), || {
        conv::conv2d_input_grad(&gy, &w, g).unwrap()
    });

    let qw = random_qweight(g.params(), &mut rng);
    let sc = scales(g.out_channels);
    for accum in ACCUMS {
        let want =
            per_sample_bits(&x, |xs| qkernels::qconv2d(xs, 0.02, &qw, &sc, g, accum).unwrap());
        at_every_thread_count(&want, &format!("qconv2d {accum:?} {tag}"), || {
            qkernels::qconv2d(&x, 0.02, &qw, &sc, g, accum).unwrap()
        });
    }
}

/// The frozen event kernels against the per-call ones and the dense ones.
fn check_frozen(g: &Conv2dGeometry, b: usize, density: f64, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let x = random_spikes(&input_shape(b, g), density, &mut rng);
    let sp = SpikeTensor::try_pack(&x).unwrap();
    let w = Tensor::randn(&[g.out_channels, g.in_channels, g.kernel.0, g.kernel.1], &mut rng);
    let (table, ew) = (WindowTable::new(g).unwrap(), EventWeights::new(&w).unwrap());
    let tag = format!("g={g:?} b={b} density={density}");

    let want = bits(&conv::conv2d(&x, &w, g).unwrap());
    at_every_thread_count(&want, &format!("sparse_conv2d {tag}"), || {
        spike::sparse_conv2d(&sp, &w, g).unwrap()
    });
    at_every_thread_count(&want, &format!("sparse_conv2d_frozen {tag}"), || {
        spike::sparse_conv2d_frozen(&sp, &ew, &table, g).unwrap()
    });

    let qw = random_qweight(g.params(), &mut rng);
    let sc = scales(g.out_channels);
    for x_scale in [1.0f32, 1.0 / 127.0] {
        let qew = EventWeights::quantized(&qw, g.out_channels, x_scale).unwrap();
        for accum in ACCUMS {
            let want = bits(&qkernels::qconv2d(&x, x_scale, &qw, &sc, g, accum).unwrap());
            let tag = format!("{accum:?} x_scale={x_scale} {tag}");
            at_every_thread_count(&want, &format!("sparse_qconv2d {tag}"), || {
                spike::sparse_qconv2d(&sp, x_scale, &qw, &sc, g, accum).unwrap()
            });
            at_every_thread_count(&want, &format!("sparse_qconv2d_frozen {tag}"), || {
                spike::sparse_qconv2d_frozen(&sp, &qew, &sc, &table, g, accum).unwrap()
            });
        }
    }
}

/// Sample `s`'s im2col matrix `(C·Kh·Kw, Oh·Ow)`, element by element.
fn unfold(x: &Tensor, s: usize, g: &Conv2dGeometry) -> Vec<f32> {
    let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
    let plane = |c: usize| &x.data()[(s * g.in_channels + c) * h * w..][..h * w];
    let mut cols = vec![0.0f32; g.in_channels * kh * kw * oh * ow];
    for (e, v) in cols.iter_mut().enumerate() {
        let (row, p) = (e / (oh * ow), e % (oh * ow));
        let (c, ki, kj) = (row / (kh * kw), row / kw % kh, row % kw);
        let i = (p / ow * g.stride.0 + ki).checked_sub(g.padding.0).filter(|&i| i < h);
        let j = (p % ow * g.stride.1 + kj).checked_sub(g.padding.1).filter(|&j| j < w);
        if let (Some(i), Some(j)) = (i, j) {
            *v = plane(c)[i * w + j];
        }
    }
    cols
}

/// The weight gradient sample by sample: each sample's partial `dy_s ·
/// colsᵀ` from its own `gemm_a_bt` call, added into `+0.0` in sample order.
fn per_sample_weight_grad(x: &Tensor, gy: &Tensor, g: &Conv2dGeometry) -> Vec<u32> {
    let rt = Runtime::new(1);
    let (b, (oh, ow)) = (x.shape()[0], g.out_hw());
    let (o, p, k) = (g.out_channels, oh * ow, g.in_channels * g.kernel.0 * g.kernel.1);
    let (mut dw, mut part) = (vec![0.0f32; o * k], vec![0.0f32; o * k]);
    for s in 0..b {
        let dy = &gy.data()[s * o * p..][..o * p];
        runtime::gemm_a_bt(&rt, dy, &unfold(x, s, g), &mut part, o, p, k);
        for (a, v) in dw.iter_mut().zip(&part) {
            *a += v;
        }
    }
    dw.iter().map(|v| v.to_bits()).collect()
}

/// `conv2d_weight_grad` against [`per_sample_weight_grad`] on every kernel
/// shape, stride, output width and thread count, at padding 0 and at the
/// padding that keeps the plane, on planes whose positions leave every lane
/// tail (7 × 9 is 63 positions, 20 at stride 2).
#[test]
fn weight_grad_matches_the_per_sample_fold() {
    for (ki, &kernel) in KERNELS.iter().enumerate() {
        for stride in [1, 2] {
            for pad in [(0, 0), (kernel.0 / 2, kernel.1 / 2)] {
                for (oi, &o) in OUT_CHANNELS.iter().enumerate() {
                    for b in [1, 3, 8, 9, 17] {
                        let seed = (ki * 1000 + stride * 100 + pad.0 * 20 + pad.1 * 10 + oi) as u64;
                        let mut rng = Rng::seed_from(seed * 31 + b as u64);
                        let g = Conv2dGeometry::new(3, o, (7, 9), kernel, (stride, stride), pad);
                        let (oh, ow) = g.out_hw();
                        let x = Tensor::randn(&input_shape(b, &g), &mut rng);
                        let gy = Tensor::randn(&[b, o, oh, ow], &mut rng);
                        let want = per_sample_weight_grad(&x, &gy, &g);
                        at_every_thread_count(
                            &want,
                            &format!("conv2d_weight_grad {g:?} b={b}"),
                            || conv::conv2d_weight_grad(&x, &gy, &g).unwrap(),
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planes from 1 to 441 columns and batches up to 11: single samples,
    /// panels under and over 256 columns, and planes too wide to gather.
    #[test]
    fn gathered_panels_match_the_per_sample_path(
        kernel in 0usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        c in 1usize..5,
        o in 0usize..5,
        h in 1usize..20,
        w in 1usize..20,
        b in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let g = geometry(c, OUT_CHANNELS[o], (h, w), KERNELS[kernel], stride, pad);
        check_gathered(&g, b, seed);
    }

    #[test]
    fn frozen_event_layouts_match_the_dense_kernels(
        kernel in 0usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        c in 1usize..6,
        o in 0usize..5,
        h in 1usize..12,
        w in 1usize..12,
        b in 1usize..5,
        density in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let g = geometry(c, OUT_CHANNELS[o], (h, w), KERNELS[kernel], stride, pad);
        check_frozen(&g, b, DENSITIES[density], seed);
    }
}

/// Every kernel shape and output width once, deterministically, so no
/// corner of the grid is left to the draw.
#[test]
fn every_kernel_stride_padding_and_width() {
    for (ki, &kernel) in KERNELS.iter().enumerate() {
        for stride in [1, 2] {
            for pad in [0, 1] {
                for (oi, &o) in OUT_CHANNELS.iter().enumerate() {
                    let seed = (ki * 100 + stride * 10 + pad + oi * 1000) as u64;
                    // 4 × 6 samples of an 8×8 plane (gathered), 2 of 17×17.
                    check_gathered(&geometry(3, o, (8, 8), kernel, stride, pad), 6, seed);
                    check_gathered(&geometry(2, o, (17, 17), kernel, 1, pad), 2, seed);
                    check_frozen(&geometry(3, o, (7, 6), kernel, stride, pad), 2, 0.3, seed);
                }
            }
        }
    }
}

/// Spikes at code 127 against weights of ±127: Sat16 sums clamp on every
/// path — dense, per-call events, frozen events — and the clamp shows.
#[test]
fn sat16_sums_saturate_alike_on_every_path() {
    let g = Conv2dGeometry::new(6, 8, (5, 5), (3, 3), (1, 1), (1, 1));
    let mut rng = Rng::seed_from(7);
    let qw: Vec<i8> = (0..g.params()).map(|i| if i % 7 == 3 { -127 } else { 127 }).collect();
    let sc = scales(8);
    let x = random_spikes(&[4, 6, 5, 5], 0.6, &mut rng);
    let sp = SpikeTensor::try_pack(&x).unwrap();
    let (table, qew) =
        (WindowTable::new(&g).unwrap(), EventWeights::quantized(&qw, 8, 1.0 / 127.0).unwrap());
    let exact = qkernels::qconv2d(&x, 1.0 / 127.0, &qw, &sc, &g, QAccum::I32).unwrap();
    let sat = qkernels::qconv2d(&x, 1.0 / 127.0, &qw, &sc, &g, QAccum::Saturate16).unwrap();
    let clamped = exact.data().iter().zip(sat.data()).filter(|(e, s)| e != s).count();
    assert!(clamped > exact.len() / 4, "only {clamped} of {} outputs saturated", exact.len());
    let want = per_sample_bits(&x, |xs| {
        qkernels::qconv2d(xs, 1.0 / 127.0, &qw, &sc, &g, QAccum::Saturate16).unwrap()
    });
    assert_eq!(bits(&sat), want, "gathered qconv2d vs per sample");
    at_every_thread_count(&want, "sparse_qconv2d", || {
        spike::sparse_qconv2d(&sp, 1.0 / 127.0, &qw, &sc, &g, QAccum::Saturate16).unwrap()
    });
    at_every_thread_count(&want, "sparse_qconv2d_frozen", || {
        spike::sparse_qconv2d_frozen(&sp, &qew, &sc, &table, &g, QAccum::Saturate16).unwrap()
    });
}

/// A NaN weight poisons its channel on the gathered dense path exactly as on
/// the per-sample one: `0 · NaN` is NaN, and the panel skips nothing.
#[test]
fn nan_weight_propagates_through_a_gathered_panel() {
    let g = Conv2dGeometry::new(3, 4, (4, 4), (3, 3), (1, 1), (1, 1));
    let mut rng = Rng::seed_from(11);
    let x = random_spikes(&[8, 3, 4, 4], 0.3, &mut rng);
    let mut w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
    w.data_mut()[27 + 4] = f32::NAN; // channel 1, centre tap of input channel 0
    let y = conv::conv2d(&x, &w, &g).unwrap();
    assert_eq!(bits(&y), per_sample_bits(&x, |xs| conv::conv2d(xs, &w, &g).unwrap()));
    for (i, plane) in y.data().chunks(16).enumerate() {
        let poisoned = i % 4 == 1;
        assert!(plane.iter().all(|v| v.is_nan() == poisoned), "sample {} channel {}", i / 4, i % 4);
    }
}
