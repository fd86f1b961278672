//! Average-pooling kernels with backward passes.
//!
//! The MS-ResNet architectures in the paper use strided convolutions for
//! downsampling and a global average pool before the classifier; `avg_pool2d`
//! additionally supports the 2×2 pooling used by the VGG baselines of
//! Table III.

use crate::error::ShapeError;
use crate::runtime::{fork_grain, Runtime};
use crate::tensor::Tensor;

/// Average pooling with a square `k`×`k` window and stride `k`.
///
/// Input `(B, C, H, W)`; `H` and `W` must be divisible by `k`. Output planes
/// are independent and each element is written by one task, so the result
/// does not depend on the thread count.
///
/// # Errors
///
/// Returns [`ShapeError`] on non-4-D input or indivisible spatial dims.
pub fn avg_pool2d(x: &Tensor, k: usize) -> Result<Tensor, ShapeError> {
    let _region = ttsnn_obs::region("avg_pool2d");
    if x.ndim() != 4 {
        return Err(ShapeError::new(format!(
            "avg_pool2d: expected 4-D input, got {:?}",
            x.shape()
        )));
    }
    let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    if k == 0 || h % k != 0 || w % k != 0 {
        return Err(ShapeError::new(format!(
            "avg_pool2d: window {k} does not divide spatial dims ({h}, {w})"
        )));
    }
    let (oh, ow) = (h / k, w / k);
    let mut y = Tensor::scratch(&[b, c, oh, ow]);
    if y.is_empty() {
        return Ok(y);
    }
    let inv = 1.0 / (k * k) as f32;
    let xd = x.data();
    // Plane by plane (one add per input element); each window summed from a
    // `+0.0` rows first, then columns.
    Runtime::current().parallel_over_slabs(y.data_mut(), oh * ow, fork_grain(h * w), |p, yp| {
        let xp = &xd[p * h * w..(p + 1) * h * w];
        for (oi, yrow) in yp.chunks_mut(ow).enumerate() {
            let band = &xp[oi * k * w..(oi + 1) * k * w];
            if k == 2 {
                // The same four adds per window, written out so that the
                // windows of a row run side by side on the vector lanes.
                let (top, bottom) = band.split_at(w);
                let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
                for (out, (a, b)) in yrow.iter_mut().zip(windows) {
                    *out = ((((0.0 + a[0]) + a[1]) + b[0]) + b[1]) * inv;
                }
                continue;
            }
            for (oj, out) in yrow.iter_mut().enumerate() {
                let mut acc = 0.0;
                for row in band.chunks(w) {
                    for &v in &row[oj * k..(oj + 1) * k] {
                        acc += v;
                    }
                }
                *out = acc * inv;
            }
        }
    });
    Ok(y)
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its `k`×`k` window.
///
/// # Errors
///
/// Returns [`ShapeError`] if `y_grad` is not 4-D.
pub fn avg_pool2d_backward(
    y_grad: &Tensor,
    k: usize,
    in_hw: (usize, usize),
) -> Result<Tensor, ShapeError> {
    if y_grad.ndim() != 4 {
        return Err(ShapeError::new(format!(
            "avg_pool2d_backward: expected 4-D grad, got {:?}",
            y_grad.shape()
        )));
    }
    let (b, c, oh, ow) =
        (y_grad.shape()[0], y_grad.shape()[1], y_grad.shape()[2], y_grad.shape()[3]);
    if oh * k != in_hw.0 || ow * k != in_hw.1 {
        return Err(ShapeError::new(format!(
            "avg_pool2d_backward: grad {:?} with window {k} does not map to input {in_hw:?}",
            y_grad.shape()
        )));
    }
    let (h, w) = in_hw;
    // Zeroed, then added into: `0.0 + g` keeps the sign of zero the
    // accumulating form has always produced.
    let mut x_grad = Tensor::scratch_zeroed(&[b, c, h, w]);
    if x_grad.is_empty() {
        return Ok(x_grad);
    }
    let inv = 1.0 / (k * k) as f32;
    for (gp, xp) in y_grad.data().chunks(oh * ow).zip(x_grad.data_mut().chunks_mut(h * w)) {
        for (grow, band) in gp.chunks(ow).zip(xp.chunks_mut(k * w)) {
            for row in band.chunks_mut(w) {
                for (&g, win) in grow.iter().zip(row.chunks_mut(k)) {
                    let g = g * inv;
                    for v in win {
                        *v += g;
                    }
                }
            }
        }
    }
    Ok(x_grad)
}

/// Global average pooling: `(B, C, H, W) -> (B, C)`, one task per output
/// element (thread-count invariant like [`avg_pool2d`]).
///
/// # Errors
///
/// Returns [`ShapeError`] on non-4-D input.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor, ShapeError> {
    let _region = ttsnn_obs::region("global_avg_pool");
    if x.ndim() != 4 {
        return Err(ShapeError::new(format!(
            "global_avg_pool: expected 4-D input, got {:?}",
            x.shape()
        )));
    }
    let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let mut y = Tensor::scratch(&[b, c]);
    let inv = 1.0 / (h * w) as f32;
    let (xd, plane) = (x.data(), h * w);
    Runtime::current().parallel_over_slabs(y.data_mut(), 1, fork_grain(plane), |i, out| {
        out[0] = xd[i * plane..(i + 1) * plane].iter().sum::<f32>() * inv;
    });
    Ok(y)
}

/// Backward pass of [`global_avg_pool`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `y_grad` is not 2-D.
pub fn global_avg_pool_backward(
    y_grad: &Tensor,
    in_hw: (usize, usize),
) -> Result<Tensor, ShapeError> {
    if y_grad.ndim() != 2 {
        return Err(ShapeError::new(format!(
            "global_avg_pool_backward: expected 2-D grad, got {:?}",
            y_grad.shape()
        )));
    }
    let (b, c) = (y_grad.shape()[0], y_grad.shape()[1]);
    let (h, w) = in_hw;
    let inv = 1.0 / (h * w) as f32;
    let mut x_grad = Tensor::scratch(&[b, c, h, w]);
    if x_grad.is_empty() {
        return Ok(x_grad);
    }
    for (plane, &g) in x_grad.data_mut().chunks_mut(h * w).zip(y_grad.data()) {
        plane.fill(g * inv);
    }
    Ok(x_grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn avg_pool_known_values() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = avg_pool2d(&x, 2).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_rejects_indivisible() {
        let x = Tensor::zeros(&[1, 1, 5, 4]);
        assert!(avg_pool2d(&x, 2).is_err());
        assert!(avg_pool2d(&Tensor::zeros(&[1, 4, 4]), 2).is_err());
    }

    #[test]
    fn avg_pool_grad_is_uniform_spread() {
        let g = Tensor::ones(&[1, 1, 2, 2]);
        let dx = avg_pool2d_backward(&g, 2, (4, 4)).unwrap();
        assert_eq!(dx.shape(), &[1, 1, 4, 4]);
        for &v in dx.data() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn avg_pool_grad_finite_difference() {
        let mut rng = Rng::seed_from(20);
        let mut x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let m = Tensor::randn(&[1, 2, 2, 2], &mut rng);
        let analytic = avg_pool2d_backward(&m, 2, (4, 4)).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 9, 21, 31] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let lp = avg_pool2d(&x, 2).unwrap().mul(&m).unwrap().sum();
            x.data_mut()[idx] = orig - eps;
            let lm = avg_pool2d(&x, 2).unwrap().mul(&m).unwrap().sum();
            x.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((analytic.data()[idx] - numeric).abs() < 1e-2);
        }
    }

    #[test]
    fn global_avg_pool_values() {
        let x =
            Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]).unwrap();
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[4.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_grad_finite_difference() {
        let mut rng = Rng::seed_from(21);
        let mut x = Tensor::randn(&[2, 3, 3, 3], &mut rng);
        let m = Tensor::randn(&[2, 3], &mut rng);
        let analytic = global_avg_pool_backward(&m, (3, 3)).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 13, 26, 40] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let lp = global_avg_pool(&x).unwrap().mul(&m).unwrap().sum();
            x.data_mut()[idx] = orig - eps;
            let lm = global_avg_pool(&x).unwrap().mul(&m).unwrap().sum();
            x.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((analytic.data()[idx] - numeric).abs() < 1e-2);
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The slice loops against the element-indexed loops they replaced
    /// (same summation order), bit for bit — `-0.0` gradients included.
    #[test]
    fn slice_kernels_match_indexed_reference_bitwise() {
        let mut rng = Rng::seed_from(22);
        let (b, c, h, w, k) = (2, 3, 6, 4, 2);
        let (oh, ow) = (h / k, w / k);
        let x = Tensor::randn(&[b, c, h, w], &mut rng);
        let mut gy = Tensor::randn(&[b, c, oh, ow], &mut rng);
        gy.data_mut()[3] = -0.0;
        let mut gv = Tensor::randn(&[b, c], &mut rng);
        gv.data_mut()[1] = -0.0;

        let mut y = Tensor::zeros(&[b, c, oh, ow]);
        let mut dx = Tensor::zeros(&[b, c, h, w]);
        let mut v = Tensor::zeros(&[b, c]);
        let mut dv = Tensor::zeros(&[b, c, h, w]);
        let inv = 1.0 / (k * k) as f32;
        let ginv = 1.0 / (h * w) as f32;
        for s in 0..b {
            for ch in 0..c {
                let mut plane = 0.0;
                for i in 0..h {
                    for j in 0..w {
                        plane += x.at(&[s, ch, i, j]);
                        *dv.at_mut(&[s, ch, i, j]) = gv.at(&[s, ch]) * ginv;
                    }
                }
                *v.at_mut(&[s, ch]) = plane * ginv;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0;
                        for di in 0..k {
                            for dj in 0..k {
                                acc += x.at(&[s, ch, oi * k + di, oj * k + dj]);
                                *dx.at_mut(&[s, ch, oi * k + di, oj * k + dj]) +=
                                    gy.at(&[s, ch, oi, oj]) * inv;
                            }
                        }
                        *y.at_mut(&[s, ch, oi, oj]) = acc * inv;
                    }
                }
            }
        }
        assert_eq!(bits(&avg_pool2d(&x, k).unwrap()), bits(&y));
        assert_eq!(bits(&avg_pool2d_backward(&gy, k, (h, w)).unwrap()), bits(&dx));
        assert_eq!(bits(&global_avg_pool(&x).unwrap()), bits(&v));
        assert_eq!(bits(&global_avg_pool_backward(&gv, (h, w)).unwrap()), bits(&dv));
    }

    #[test]
    fn empty_planes_do_not_panic() {
        assert!(avg_pool2d(&Tensor::zeros(&[1, 2, 0, 4]), 2).unwrap().is_empty());
        assert!(avg_pool2d_backward(&Tensor::zeros(&[1, 2, 0, 2]), 2, (0, 4)).unwrap().is_empty());
        assert!(global_avg_pool_backward(&Tensor::zeros(&[1, 2]), (0, 3)).unwrap().is_empty());
        assert_eq!(global_avg_pool(&Tensor::zeros(&[0, 2, 3, 3])).unwrap().shape(), &[0, 2]);
    }

    #[test]
    fn pool_backward_shape_validation() {
        assert!(avg_pool2d_backward(&Tensor::zeros(&[1, 1, 2, 2]), 2, (5, 4)).is_err());
        assert!(global_avg_pool_backward(&Tensor::zeros(&[2, 2, 2]), (2, 2)).is_err());
    }
}
