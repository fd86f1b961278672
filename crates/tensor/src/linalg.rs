//! Dense linear algebra needed by TT-SVD and VBMF: a one-sided Jacobi
//! singular value decomposition.
//!
//! Jacobi SVD is slower than bidiagonalization-based methods but is simple,
//! numerically robust and plenty fast for the matrices TT-SVD produces
//! (unfoldings of convolution kernels, at most a few thousand rows/columns).

use crate::error::ShapeError;
use crate::tensor::Tensor;

/// Thin singular value decomposition `A = U · diag(S) · Vt`.
///
/// For an `m×n` input, `u` is `m×k`, `s` has length `k`, and `vt` is `k×n`
/// with `k = min(m, n)`. Singular values are returned in non-increasing
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Svd {
    /// Left singular vectors, `m×k`.
    pub u: Tensor,
    /// Singular values, non-increasing, length `k`.
    pub s: Vec<f32>,
    /// Right singular vectors (transposed), `k×n`.
    pub vt: Tensor,
}

impl Svd {
    /// Reconstructs `U · diag(S) · Vt`.
    ///
    /// # Errors
    ///
    /// Propagates [`ShapeError`] from the underlying matrix products (cannot
    /// happen for a value produced by [`svd`]).
    pub fn reconstruct(&self) -> Result<Tensor, ShapeError> {
        let k = self.s.len();
        let mut us = self.u.clone();
        let m = us.shape()[0];
        for i in 0..m {
            for j in 0..k {
                us.data_mut()[i * k + j] *= self.s[j];
            }
        }
        us.matmul(&self.vt)
    }

    /// Truncates the decomposition to the leading `rank` components.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or `rank > self.s.len()`.
    pub fn truncate(&self, rank: usize) -> Svd {
        assert!(rank >= 1 && rank <= self.s.len(), "rank {rank} out of range");
        let m = self.u.shape()[0];
        let n = self.vt.shape()[1];
        let k = self.s.len();
        let mut u = Tensor::zeros(&[m, rank]);
        for i in 0..m {
            for j in 0..rank {
                u.data_mut()[i * rank + j] = self.u.data()[i * k + j];
            }
        }
        let mut vt = Tensor::zeros(&[rank, n]);
        vt.data_mut().copy_from_slice(&self.vt.data()[..rank * n]);
        Svd { u, s: self.s[..rank].to_vec(), vt }
    }
}

/// Computes the thin SVD of a 2-D tensor by one-sided Jacobi rotation.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a` is not 2-D or has a zero dimension.
///
/// ```
/// use ttsnn_tensor::{linalg::svd, Tensor, Rng};
///
/// # fn main() -> Result<(), ttsnn_tensor::ShapeError> {
/// let mut rng = Rng::seed_from(1);
/// let a = Tensor::randn(&[6, 4], &mut rng);
/// let dec = svd(&a)?;
/// assert!(dec.reconstruct()?.max_abs_diff(&a)? < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn svd(a: &Tensor) -> Result<Svd, ShapeError> {
    if a.ndim() != 2 {
        return Err(ShapeError::new(format!("svd: expected 2-D tensor, got {:?}", a.shape())));
    }
    let (m, n) = (a.shape()[0], a.shape()[1]);
    if m == 0 || n == 0 {
        return Err(ShapeError::new("svd: zero-sized matrix"));
    }
    // One-sided Jacobi wants tall matrices; transpose wide inputs and swap
    // U <-> V at the end.
    if m < n {
        let t = a.transpose().expect("2-D transpose cannot fail");
        let Svd { u, s, vt } = jacobi_tall(&t);
        let new_u = vt.transpose().expect("2-D transpose cannot fail");
        let new_vt = u.transpose().expect("2-D transpose cannot fail");
        return Ok(Svd { u: new_u, s, vt: new_vt });
    }
    Ok(jacobi_tall(a))
}

/// One-sided Jacobi SVD of a tall (`m >= n`) matrix.
fn jacobi_tall(a: &Tensor) -> Svd {
    let (m, n) = (a.shape()[0], a.shape()[1]);
    // Work on columns: store A column-major for cache-friendly rotations.
    let mut cols = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            cols[j * m + i] = a.data()[i * n + j];
        }
    }
    // V accumulates the right rotations, also column-major.
    let mut v = vec![0.0f32; n * n];
    for j in 0..n {
        v[j * n + j] = 1.0;
    }
    let eps = 1e-9f64;
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    let x = cols[p * m + i] as f64;
                    let y = cols[q * m + i] as f64;
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                off += apq.abs();
                if apq.abs() <= eps * (app * aqq).sqrt().max(1e-30) {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) entry of A^T A.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let x = cols[p * m + i];
                    let y = cols[q * m + i];
                    cols[p * m + i] = (c * x as f64 - s * y as f64) as f32;
                    cols[q * m + i] = (s * x as f64 + c * y as f64) as f32;
                }
                for i in 0..n {
                    let x = v[p * n + i];
                    let y = v[q * n + i];
                    v[p * n + i] = (c * x as f64 - s * y as f64) as f32;
                    v[q * n + i] = (s * x as f64 + c * y as f64) as f32;
                }
            }
        }
        if off < 1e-10 {
            break;
        }
    }
    // Singular values = column norms; U = normalized columns.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f32> = (0..n)
        .map(|j| (0..m).map(|i| cols[j * m + i] * cols[j * m + i]).sum::<f32>().sqrt())
        .collect();
    order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).unwrap_or(std::cmp::Ordering::Equal));
    let mut u = Tensor::zeros(&[m, n]);
    let mut vt = Tensor::zeros(&[n, n]);
    let mut s = Vec::with_capacity(n);
    for (rank, &j) in order.iter().enumerate() {
        let norm = norms[j];
        s.push(norm);
        let inv = if norm > 1e-20 { 1.0 / norm } else { 0.0 };
        for i in 0..m {
            u.data_mut()[i * n + rank] = cols[j * m + i] * inv;
        }
        for i in 0..n {
            vt.data_mut()[rank * n + i] = v[j * n + i];
        }
    }
    Svd { u, s, vt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn assert_orthonormal_cols(u: &Tensor, tol: f32) {
        let (m, k) = (u.shape()[0], u.shape()[1]);
        for a in 0..k {
            for b in 0..k {
                let dot: f32 = (0..m).map(|i| u.data()[i * k + a] * u.data()[i * k + b]).sum();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < tol, "col {a}·{b} = {dot}");
            }
        }
    }

    #[test]
    fn svd_reconstructs_tall() {
        let mut rng = Rng::seed_from(30);
        let a = Tensor::randn(&[12, 5], &mut rng);
        let dec = svd(&a).unwrap();
        assert_eq!(dec.u.shape(), &[12, 5]);
        assert_eq!(dec.vt.shape(), &[5, 5]);
        assert!(dec.reconstruct().unwrap().max_abs_diff(&a).unwrap() < 1e-3);
    }

    #[test]
    fn svd_reconstructs_wide() {
        let mut rng = Rng::seed_from(31);
        let a = Tensor::randn(&[4, 9], &mut rng);
        let dec = svd(&a).unwrap();
        assert_eq!(dec.u.shape(), &[4, 4]);
        assert_eq!(dec.vt.shape(), &[4, 9]);
        assert!(dec.reconstruct().unwrap().max_abs_diff(&a).unwrap() < 1e-3);
    }

    #[test]
    fn svd_square_orthonormal() {
        let mut rng = Rng::seed_from(32);
        let a = Tensor::randn(&[8, 8], &mut rng);
        let dec = svd(&a).unwrap();
        assert_orthonormal_cols(&dec.u, 1e-3);
        let v = dec.vt.transpose().unwrap();
        assert_orthonormal_cols(&v, 1e-3);
    }

    #[test]
    fn singular_values_sorted_nonnegative() {
        let mut rng = Rng::seed_from(33);
        let a = Tensor::randn(&[10, 6], &mut rng);
        let dec = svd(&a).unwrap();
        for w in dec.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        for &s in &dec.s {
            assert!(s >= 0.0);
        }
    }

    #[test]
    fn svd_of_known_rank_matrix() {
        // rank-2 matrix: outer product sum
        let mut rng = Rng::seed_from(34);
        let u1 = Tensor::randn(&[7, 1], &mut rng);
        let v1 = Tensor::randn(&[1, 5], &mut rng);
        let u2 = Tensor::randn(&[7, 1], &mut rng);
        let v2 = Tensor::randn(&[1, 5], &mut rng);
        let a = u1.matmul(&v1).unwrap().add(&u2.matmul(&v2).unwrap()).unwrap();
        let dec = svd(&a).unwrap();
        assert!(dec.s[0] > 1e-2);
        assert!(dec.s[1] > 1e-3);
        for &s in &dec.s[2..] {
            assert!(s < 1e-3, "expected rank 2, got extra singular value {s}");
        }
    }

    #[test]
    fn svd_diagonal_matrix() {
        let mut a = Tensor::zeros(&[3, 3]);
        *a.at_mut(&[0, 0]) = 3.0;
        *a.at_mut(&[1, 1]) = 1.0;
        *a.at_mut(&[2, 2]) = 2.0;
        let dec = svd(&a).unwrap();
        assert!((dec.s[0] - 3.0).abs() < 1e-4);
        assert!((dec.s[1] - 2.0).abs() < 1e-4);
        assert!((dec.s[2] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn truncate_gives_best_low_rank() {
        let mut rng = Rng::seed_from(35);
        let a = Tensor::randn(&[9, 6], &mut rng);
        let dec = svd(&a).unwrap();
        let t2 = dec.truncate(2);
        assert_eq!(t2.u.shape(), &[9, 2]);
        assert_eq!(t2.vt.shape(), &[2, 6]);
        // Eckart–Young: residual equals sqrt of sum of discarded sv^2.
        let approx = t2.reconstruct().unwrap();
        let resid = a.sub(&approx).unwrap().norm();
        let expect: f32 = dec.s[2..].iter().map(|s| s * s).sum::<f32>().sqrt();
        assert!((resid - expect).abs() < 1e-2 * (1.0 + expect), "{resid} vs {expect}");
    }

    #[test]
    fn svd_rejects_bad_input() {
        assert!(svd(&Tensor::zeros(&[3])).is_err());
        assert!(svd(&Tensor::zeros(&[0, 3])).is_err());
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn truncate_rank_zero_panics() {
        let dec = svd(&Tensor::eye(3)).unwrap();
        let _ = dec.truncate(0);
    }
}
