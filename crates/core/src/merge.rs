//! Post-training merge-back (Algorithm 1 lines 20–22, Eq. (6)).
//!
//! After training, the four TT cores are contracted into a single dense
//! `(O, I, 3, 3)` kernel so that inference runs as an ordinary spike-driven
//! convolution with no TT restructuring:
//!
//! * [`merge_stt`] — `W = w1 ×₁ w2 ×₁ w3 ×₁ w4` (full chain, separable
//!   3×3 kernel).
//! * [`merge_ptt`] — `W = w1 ×₁ w2 ×₁ w4 + w1 ×₁ w3 ×₁ w4` (Eq. (6)):
//!   the cross-shaped kernel whose four corners are structurally zero.

use ttsnn_tensor::runtime::with_scratch_zeroed;
use ttsnn_tensor::{ShapeError, Tensor};

use crate::ttsvd::TtCores;

/// Contracts the STT chain into a dense `(O, I, 3, 3)` kernel:
/// `W[o,i,kh,kw] = Σ_{a,b,c} w1[a,i]·w2[b,a,kh]·w3[c,b,kw]·w4[o,c]`.
///
/// Convolving with the merged kernel (padding (1,1)) is mathematically
/// identical to running the four sub-convolutions in sequence.
///
/// # Errors
///
/// Returns [`ShapeError`] if the cores fail [`TtCores::validate`].
pub fn merge_stt(cores: &TtCores) -> Result<Tensor, ShapeError> {
    cores.validate()?;
    let (i, o, r) = (cores.in_channels(), cores.out_channels(), cores.rank());
    let (w1, w2, w3, w4) = (cores.w1.data(), cores.w2.data(), cores.w3.data(), cores.w4.data());
    // Contract in cost-optimal order over flat slices:
    //   m[a, c, kh, kw] = Σ_b w2[b, a, kh] · w3[c, b, kw]        O(9 r³)
    //   t[a, oo, kh, kw] = Σ_c m[a, c, kh, kw] · w4[oo, c]       O(9 r² O)
    //   out[oo, ii, kh, kw] = Σ_a w1[a, ii] · t[a, oo, kh, kw]   O(9 r I O)
    // w2 layout: (b, a, kh, 1) -> idx (b*r + a)*3 + kh
    // w3 layout: (c, b, 1, kw) -> idx (c*r + b)*3 + kw
    //
    // The two intermediates live in the runtime's per-thread scratch arena:
    // merge-back runs once per layer per timestep in HTT ablations, and the
    // arena keeps it allocation-free after the first call.
    let mut out = Tensor::zeros(&[o, i, 3, 3]);
    with_scratch_zeroed(r * r * 9, |m: &mut [f32]| {
        for b in 0..r {
            for a in 0..r {
                for kh in 0..3 {
                    let w2v = w2[(b * r + a) * 3 + kh];
                    for c in 0..r {
                        let mrow = &mut m[(a * r + c) * 9 + kh * 3..(a * r + c) * 9 + kh * 3 + 3];
                        let w3row = &w3[(c * r + b) * 3..(c * r + b) * 3 + 3];
                        for kw in 0..3 {
                            mrow[kw] += w2v * w3row[kw];
                        }
                    }
                }
            }
        }
        // t[a, oo, kh, kw]
        with_scratch_zeroed(r * o * 9, |t: &mut [f32]| {
            for a in 0..r {
                for oo in 0..o {
                    let trow = &mut t[(a * o + oo) * 9..(a * o + oo) * 9 + 9];
                    for c in 0..r {
                        let w4v = w4[oo * r + c];
                        let mrow = &m[(a * r + c) * 9..(a * r + c) * 9 + 9];
                        for k in 0..9 {
                            trow[k] += w4v * mrow[k];
                        }
                    }
                }
            }
            let out_data = out.data_mut();
            for a in 0..r {
                for ii in 0..i {
                    let w1v = w1[a * i + ii];
                    for oo in 0..o {
                        let trow = &t[(a * o + oo) * 9..(a * o + oo) * 9 + 9];
                        let orow = &mut out_data[(oo * i + ii) * 9..(oo * i + ii) * 9 + 9];
                        for k in 0..9 {
                            orow[k] += w1v * trow[k];
                        }
                    }
                }
            }
        });
    });
    Ok(out)
}

/// Contracts the PTT pipeline into the dense cross-shaped kernel of
/// Eq. (6):
///
/// `W[o,i,kh,kw] = Σ_{a,b} w1[a,i]·(w2[b,a,kh]·δ(kw=1) + w3[b,a,kw]·δ(kh=1))·w4[o,b]`.
///
/// The 3×1 branch occupies the center column, the 1×3 branch the center
/// row; the four corner taps are exactly zero ("3×3 without the four corner
/// values", Fig. 1(c)).
///
/// # Errors
///
/// Returns [`ShapeError`] if the cores fail [`TtCores::validate`].
pub fn merge_ptt(cores: &TtCores) -> Result<Tensor, ShapeError> {
    cores.validate()?;
    let (i, o, r) = (cores.in_channels(), cores.out_channels(), cores.rank());
    let (w1, w2, w3, w4) = (cores.w1.data(), cores.w2.data(), cores.w3.data(), cores.w4.data());
    // cross[a, b, kh, kw] = w2[b, a, kh]·δ(kw=1) + w3[b, a, kw]·δ(kh=1),
    // then contract with w4 over b and w1 over a, as in merge_stt. The
    // intermediate lives in the runtime's per-thread scratch arena.
    let mut out = Tensor::zeros(&[o, i, 3, 3]);
    with_scratch_zeroed(r * o * 9, |t: &mut [f32]| {
        // t[a, oo, kh, kw]
        for a in 0..r {
            for b in 0..r {
                // assemble the 3x3 cross for this (a, b)
                let mut cross = [0.0f32; 9];
                for kh in 0..3 {
                    cross[kh * 3 + 1] += w2[(b * r + a) * 3 + kh];
                }
                for kw in 0..3 {
                    cross[3 + kw] += w3[(b * r + a) * 3 + kw];
                }
                for oo in 0..o {
                    let w4v = w4[oo * r + b];
                    let trow = &mut t[(a * o + oo) * 9..(a * o + oo) * 9 + 9];
                    for k in 0..9 {
                        trow[k] += w4v * cross[k];
                    }
                }
            }
        }
        let out_data = out.data_mut();
        for a in 0..r {
            for ii in 0..i {
                let w1v = w1[a * i + ii];
                for oo in 0..o {
                    let trow = &t[(a * o + oo) * 9..(a * o + oo) * 9 + 9];
                    let orow = &mut out_data[(oo * i + ii) * 9..(oo * i + ii) * 9 + 9];
                    for k in 0..9 {
                        orow[k] += w1v * trow[k];
                    }
                }
            }
        }
    });
    Ok(out)
}

/// Contracts the HTT *half path* (`w1 → w4` only) into a dense kernel whose
/// single non-zero tap is the center: a 1×1 convolution embedded in 3×3.
///
/// # Errors
///
/// Returns [`ShapeError`] if the cores fail [`TtCores::validate`].
pub fn merge_half(cores: &TtCores) -> Result<Tensor, ShapeError> {
    cores.validate()?;
    let (i, o, r) = (cores.in_channels(), cores.out_channels(), cores.rank());
    let mut out = Tensor::zeros(&[o, i, 3, 3]);
    for oo in 0..o {
        for ii in 0..i {
            let mut acc = 0.0f32;
            for a in 0..r {
                acc += cores.w1.at(&[a, ii, 0, 0]) * cores.w4.at(&[oo, a, 0, 0]);
            }
            *out.at_mut(&[oo, ii, 1, 1]) = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_tensor::{conv, Conv2dGeometry, Rng};

    fn forward_stt(cores: &TtCores, x: &Tensor) -> Tensor {
        let (b, _c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let _ = b;
        let r = cores.rank();
        let g1 = Conv2dGeometry::new(cores.in_channels(), r, (h, w), (1, 1), (1, 1), (0, 0));
        let y1 = conv::conv2d(x, &cores.w1, &g1).unwrap();
        let g2 = Conv2dGeometry::new(r, r, (h, w), (3, 1), (1, 1), (1, 0));
        let y2 = conv::conv2d(&y1, &cores.w2, &g2).unwrap();
        let g3 = Conv2dGeometry::new(r, r, (h, w), (1, 3), (1, 1), (0, 1));
        let y3 = conv::conv2d(&y2, &cores.w3, &g3).unwrap();
        let g4 = Conv2dGeometry::new(r, cores.out_channels(), (h, w), (1, 1), (1, 1), (0, 0));
        conv::conv2d(&y3, &cores.w4, &g4).unwrap()
    }

    fn forward_ptt(cores: &TtCores, x: &Tensor) -> Tensor {
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let r = cores.rank();
        let g1 = Conv2dGeometry::new(cores.in_channels(), r, (h, w), (1, 1), (1, 1), (0, 0));
        let y1 = conv::conv2d(x, &cores.w1, &g1).unwrap();
        let g2 = Conv2dGeometry::new(r, r, (h, w), (3, 1), (1, 1), (1, 0));
        let b2 = conv::conv2d(&y1, &cores.w2, &g2).unwrap();
        let g3 = Conv2dGeometry::new(r, r, (h, w), (1, 3), (1, 1), (0, 1));
        let b3 = conv::conv2d(&y1, &cores.w3, &g3).unwrap();
        let sum = b2.add(&b3).unwrap();
        let g4 = Conv2dGeometry::new(r, cores.out_channels(), (h, w), (1, 1), (1, 1), (0, 0));
        conv::conv2d(&sum, &cores.w4, &g4).unwrap()
    }

    #[test]
    fn stt_merge_equals_sequential_forward() {
        let mut rng = Rng::seed_from(10);
        let cores = TtCores::randn(5, 7, 3, &mut rng);
        let x = Tensor::randn(&[2, 5, 6, 6], &mut rng);
        let merged = merge_stt(&cores).unwrap();
        let g = Conv2dGeometry::new(5, 7, (6, 6), (3, 3), (1, 1), (1, 1));
        let via_dense = conv::conv2d(&x, &merged, &g).unwrap();
        let via_chain = forward_stt(&cores, &x);
        assert!(via_dense.max_abs_diff(&via_chain).unwrap() < 1e-3);
    }

    #[test]
    fn ptt_merge_equals_parallel_forward() {
        let mut rng = Rng::seed_from(11);
        let cores = TtCores::randn(4, 6, 3, &mut rng);
        let x = Tensor::randn(&[2, 4, 5, 5], &mut rng);
        let merged = merge_ptt(&cores).unwrap();
        let g = Conv2dGeometry::new(4, 6, (5, 5), (3, 3), (1, 1), (1, 1));
        let via_dense = conv::conv2d(&x, &merged, &g).unwrap();
        let via_branches = forward_ptt(&cores, &x);
        assert!(via_dense.max_abs_diff(&via_branches).unwrap() < 1e-3);
    }

    #[test]
    fn ptt_merged_kernel_has_zero_corners() {
        let mut rng = Rng::seed_from(12);
        let cores = TtCores::randn(4, 4, 2, &mut rng);
        let merged = merge_ptt(&cores).unwrap();
        for o in 0..4 {
            for i in 0..4 {
                for (kh, kw) in [(0, 0), (0, 2), (2, 0), (2, 2)] {
                    assert_eq!(merged.at(&[o, i, kh, kw]), 0.0, "corner ({kh},{kw}) not zero");
                }
            }
        }
    }

    #[test]
    fn half_merge_is_center_only() {
        let mut rng = Rng::seed_from(13);
        let cores = TtCores::randn(3, 5, 2, &mut rng);
        let merged = merge_half(&cores).unwrap();
        for o in 0..5 {
            for i in 0..3 {
                for kh in 0..3 {
                    for kw in 0..3 {
                        if (kh, kw) != (1, 1) {
                            assert_eq!(merged.at(&[o, i, kh, kw]), 0.0);
                        }
                    }
                }
            }
        }
        // center equals w4·w1 product
        let expect: f32 =
            (0..2).map(|a| cores.w1.at(&[a, 0, 0, 0]) * cores.w4.at(&[0, a, 0, 0])).sum();
        assert!((merged.at(&[0, 0, 1, 1]) - expect).abs() < 1e-6);
    }

    #[test]
    fn merges_reject_invalid_cores() {
        let mut rng = Rng::seed_from(14);
        let mut cores = TtCores::randn(3, 3, 2, &mut rng);
        cores.w3 = Tensor::zeros(&[2, 2, 3, 1]);
        assert!(merge_stt(&cores).is_err());
        assert!(merge_ptt(&cores).is_err());
        assert!(merge_half(&cores).is_err());
    }

    #[test]
    fn stt_merge_linearity_in_w4() {
        // Doubling w4 doubles the merged kernel.
        let mut rng = Rng::seed_from(15);
        let cores = TtCores::randn(3, 4, 2, &mut rng);
        let m1 = merge_stt(&cores).unwrap();
        let mut scaled = cores.clone();
        scaled.w4 = scaled.w4.scale(2.0);
        let m2 = merge_stt(&scaled).unwrap();
        assert!(m1.scale(2.0).max_abs_diff(&m2).unwrap() < 1e-5);
    }
}
