//! Register-tiled, cache-blocked, thread-parallel GEMM family.
//!
//! Three layouts cover every product the training stack needs without
//! materializing a transpose:
//!
//! | kernel        | computes | `a` layout | `b` layout | used by |
//! |---------------|----------|------------|------------|---------|
//! | [`gemm`]      | `A·B`    | `(m, k)`   | `(k, n)`   | forward matmul, conv forward |
//! | [`gemm_at_b`] | `Aᵀ·B`   | `(k, m)`   | `(k, n)`   | conv input-grad (`Wᵀ·dy`), `dB = Aᵀ·g` |
//! | [`gemm_a_bt`] | `A·Bᵀ`   | `(m, k)`   | `(n, k)`   | linear forward (`x·Wᵀ`), `dA = g·Bᵀ`, conv weight-grad (`dy·colsᵀ`) |
//!
//! All kernels **overwrite** `out` (shape `(m, n)`, row-major) and
//! parallelize over disjoint row ranges of the output, so each element is
//! produced by exactly one thread with a fixed summation order — results
//! are bit-identical for every thread count.
//!
//! The serial core of the saxpy-style kernels is a 4-row register tile
//! over a k-blocked panel: one streamed row of `B` updates four output
//! rows per pass (4× B-row reuse, and an inner loop the compiler
//! auto-vectorizes). `gemm_a_bt` uses per-row dot products for small `m`
//! and otherwise stages a one-shot transpose of `B` in arena scratch
//! (O(nk) copies against O(mnk) compute) to reach saxpy-kernel speed —
//! "no transpose" in this module means *callers* never materialize one.
//! No `unsafe`, no SIMD intrinsics — portability and determinism over
//! the last 20%.

use super::pool::{fork_grain, Runtime};

/// Rows per register tile in the saxpy-style kernels.
const MR: usize = 4;
/// K-panel length: a `KC × n` strip of B streams through L1/L2 while four
/// A-rows' worth of panel coefficients stay hot.
const KC: usize = 256;

/// Naive triple loop, kept as the oracle for property tests and the
/// seed-vs-runtime benchmarks. Overwrites `out`.
pub fn reference_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

#[inline]
fn check(a: usize, b: usize, o: usize, m: usize, k: usize, n: usize) {
    assert_eq!(a, m * k, "gemm: `a` has wrong length");
    assert_eq!(b, k * n, "gemm: `b` has wrong length");
    assert_eq!(o, m * n, "gemm: `out` has wrong length");
}

/// `out = A·B` with `A (m,k)`, `B (k,n)`, `out (m,n)`, all row-major.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm(rt: &Runtime, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _region = ttsnn_obs::region("gemm");
    check(a.len(), b.len(), out.len(), m, k, n);
    if m * n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    rt.parallel_over_ranges(out, n, fork_grain(2 * k * n), |row0, rows| {
        gemm_serial_rows(&a[row0 * k..], b, rows, k, n);
    });
}

/// Serial core for [`gemm`] over a row range: `rows = A_range · B` where
/// `a` holds the range's rows of A back to back.
fn gemm_serial_rows(a: &[f32], b: &[f32], rows: &mut [f32], k: usize, n: usize) {
    let mrows = rows.len() / n;
    rows.fill(0.0);
    let mut i = 0;
    // 4-row register tile: each B row streamed once per tile.
    while i + MR <= mrows {
        let (o0, rest) = rows[i * n..].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3rest) = rest.split_at_mut(n);
        let o3 = &mut o3rest[..n];
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for kk in kb..kend {
                let a0 = a[i * k + kk];
                let a1 = a[(i + 1) * k + kk];
                let a2 = a[(i + 2) * k + kk];
                let a3 = a[(i + 3) * k + kk];
                let brow = &b[kk * n..kk * n + n];
                for (((dv0, dv1), (dv2, dv3)), &bv) in o0
                    .iter_mut()
                    .zip(o1.iter_mut())
                    .zip(o2.iter_mut().zip(o3.iter_mut()))
                    .zip(brow.iter())
                {
                    *dv0 += a0 * bv;
                    *dv1 += a1 * bv;
                    *dv2 += a2 * bv;
                    *dv3 += a3 * bv;
                }
            }
        }
        i += MR;
    }
    // Remainder rows one at a time.
    while i < mrows {
        let orow = &mut rows[i * n..(i + 1) * n];
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for kk in kb..kend {
                let av = a[i * k + kk];
                let brow = &b[kk * n..kk * n + n];
                for (dv, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *dv += av * bv;
                }
            }
        }
        i += 1;
    }
}

/// `out = Aᵀ·B` with `A (k,m)`, `B (k,n)`, `out (m,n)`: reads `A`
/// column-wise in place, so autograd's `dB = Aᵀ·g` needs no transpose copy.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm_at_b(
    rt: &Runtime,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let _region = ttsnn_obs::region("gemm_at_b");
    assert_eq!(a.len(), k * m, "gemm_at_b: `a` has wrong length");
    assert_eq!(b.len(), k * n, "gemm_at_b: `b` has wrong length");
    assert_eq!(out.len(), m * n, "gemm_at_b: `out` has wrong length");
    if m * n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    rt.parallel_over_ranges(out, n, fork_grain(2 * k * n), |row0, rows| {
        let mrows = rows.len() / n;
        rows.fill(0.0);
        let mut i = 0;
        while i + MR <= mrows {
            let (o0, rest) = rows[i * n..].split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3rest) = rest.split_at_mut(n);
            let o3 = &mut o3rest[..n];
            for kb in (0..k).step_by(KC) {
                let kend = (kb + KC).min(k);
                for kk in kb..kend {
                    // A column (row0+i .. row0+i+3) at row kk, stride m.
                    let acol = &a[kk * m + row0 + i..kk * m + row0 + i + MR];
                    let (a0, a1, a2, a3) = (acol[0], acol[1], acol[2], acol[3]);
                    let brow = &b[kk * n..kk * n + n];
                    for (((dv0, dv1), (dv2, dv3)), &bv) in o0
                        .iter_mut()
                        .zip(o1.iter_mut())
                        .zip(o2.iter_mut().zip(o3.iter_mut()))
                        .zip(brow.iter())
                    {
                        *dv0 += a0 * bv;
                        *dv1 += a1 * bv;
                        *dv2 += a2 * bv;
                        *dv3 += a3 * bv;
                    }
                }
            }
            i += MR;
        }
        while i < mrows {
            let orow = &mut rows[i * n..(i + 1) * n];
            for kb in (0..k).step_by(KC) {
                let kend = (kb + KC).min(k);
                for kk in kb..kend {
                    let av = a[kk * m + row0 + i];
                    let brow = &b[kk * n..kk * n + n];
                    for (dv, &bv) in orow.iter_mut().zip(brow.iter()) {
                        *dv += av * bv;
                    }
                }
            }
            i += 1;
        }
    });
}

/// `out = A·Bᵀ` with `A (m,k)`, `B (n,k)`, `out (m,n)`: both operands are
/// read along contiguous rows (a dot-product kernel), so `y = x·Wᵀ` and
/// `dA = g·Bᵀ` need no transpose copy.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm_a_bt(
    rt: &Runtime,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let _region = ttsnn_obs::region("gemm_a_bt");
    assert_eq!(a.len(), m * k, "gemm_a_bt: `a` has wrong length");
    assert_eq!(b.len(), n * k, "gemm_a_bt: `b` has wrong length");
    assert_eq!(out.len(), m * n, "gemm_a_bt: `out` has wrong length");
    if m * n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // With enough output rows to amortize it, transpose B once into arena
    // scratch (O(nk) copies against O(mnk) compute) and run the ~2× faster
    // saxpy kernel. `m` is a property of the call, not the thread count, so
    // determinism across thread counts is unaffected.
    if m >= 2 * MR {
        super::arena::with_scratch(k * n, |bt| {
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &v) in brow.iter().enumerate() {
                    bt[kk * n + j] = v;
                }
            }
            gemm(rt, a, bt, out, m, k, n);
        });
        return;
    }
    rt.parallel_over_ranges(out, n, fork_grain(2 * k * n), |row0, rows| {
        for (i, orow) in rows.chunks_mut(n).enumerate() {
            let arow = &a[(row0 + i) * k..(row0 + i + 1) * k];
            for (j, dv) in orow.iter_mut().enumerate() {
                *dv = dot4(arow, &b[j * k..(j + 1) * k]);
            }
        }
    });
}

/// Dot product with four independent accumulator lanes — vectorizable, and
/// a fixed summation order independent of threading.
#[inline]
fn dot4(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f32; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let xs = &x[c * 4..c * 4 + 4];
        let ys = &y[c * 4..c * 4 + 4];
        lanes[0] += xs[0] * ys[0];
        lanes[1] += xs[1] * ys[1];
        lanes[2] += xs[2] * ys[2];
        lanes[3] += xs[3] * ys[3];
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn randv(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn reference_matches_hand_computed() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        reference_gemm(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_matches_reference_across_shapes_and_threads() {
        let mut rng = Rng::seed_from(100);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (4, 7, 9), (17, 3, 17), (33, 64, 12)] {
            let a = randv(m * k, &mut rng);
            let b = randv(k * n, &mut rng);
            let mut want = vec![0.0; m * n];
            reference_gemm(&a, &b, &mut want, m, k, n);
            for threads in [1usize, 2, 4] {
                let rt = Runtime::new(threads);
                let mut got = vec![f32::NAN; m * n];
                gemm(&rt, &a, &b, &mut got, m, k, n);
                assert!(max_diff(&got, &want) < 1e-4, "gemm ({m},{k},{n}) threads={threads}");
            }
        }
    }

    #[test]
    fn transpose_variants_match_explicit_transposes() {
        let mut rng = Rng::seed_from(101);
        let (m, k, n) = (6, 11, 5);
        let a = randv(m * k, &mut rng); // (m,k)
        let b = randv(k * n, &mut rng); // (k,n)
        let rt = Runtime::new(2);
        // at_b: build At (k,m) explicitly, expect At^T*B == A*B? No:
        // gemm_at_b takes `a` stored (k,m); feed it transpose(A) and expect A·B.
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut want = vec![0.0; m * n];
        reference_gemm(&a, &b, &mut want, m, k, n);
        let mut got = vec![0.0; m * n];
        gemm_at_b(&rt, &at, &b, &mut got, m, k, n);
        assert!(max_diff(&got, &want) < 1e-4, "gemm_at_b");
        // a_bt: feed transpose(B) stored (n,k) and expect A·B.
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut got2 = vec![0.0; m * n];
        gemm_a_bt(&rt, &a, &bt, &mut got2, m, k, n);
        assert!(max_diff(&got2, &want) < 1e-4, "gemm_a_bt");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut rng = Rng::seed_from(102);
        let (m, k, n) = (29, 31, 23);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let mut base = vec![0.0; m * n];
        gemm(&Runtime::new(1), &a, &b, &mut base, m, k, n);
        for threads in 2..=8 {
            let mut out = vec![0.0; m * n];
            gemm(&Runtime::new(threads), &a, &b, &mut out, m, k, n);
            assert_eq!(out, base, "thread count {threads} changed bits");
        }
    }

    #[test]
    fn nan_propagates_through_zero_coefficients() {
        // The seed kernel skipped av == 0.0, silently dropping NaN/Inf from
        // B. 0 · NaN must stay NaN.
        let a = [0.0f32, 1.0];
        let b = [f32::NAN, 2.0];
        let mut out = [0.0f32; 1];
        gemm(&Runtime::new(1), &a, &b, &mut out, 1, 2, 1);
        assert!(out[0].is_nan());
    }

    #[test]
    fn degenerate_dims() {
        let rt = Runtime::new(2);
        let mut out = [7.0f32; 3];
        gemm(&rt, &[], &[], &mut out, 3, 0, 1);
        assert_eq!(out, [0.0; 3]);
        let mut empty: [f32; 0] = [];
        gemm(&rt, &[], &[1.0], &mut empty, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn rejects_bad_lengths() {
        let mut out = [0.0f32; 4];
        gemm(&Runtime::new(1), &[1.0; 3], &[1.0; 4], &mut out, 2, 2, 2);
    }
}
