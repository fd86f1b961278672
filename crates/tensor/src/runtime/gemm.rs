//! The kernel drivers' core: one register-tiled, cache-blocked,
//! thread-parallel product family, written once over [`Mac`].
//!
//! Three layouts cover every product the stack needs without materializing a
//! transpose:
//!
//! | kernel        | computes | `a` layout | `b` layout | used by |
//! |---------------|----------|------------|------------|---------|
//! | [`gemm`]      | `A·B`    | `(m, k)`   | `(k, n)`   | forward matmul, conv forward |
//! | [`gemm_at_b`] | `Aᵀ·B`   | `(k, m)`   | `(k, n)`   | conv input-grad (`Wᵀ·dy`), `dB = Aᵀ·g` |
//! | [`gemm_a_bt`] | `A·Bᵀ`   | `(m, k)`   | `(n, k)`   | linear forward (`x·Wᵀ`), `dA = g·Bᵀ` |
//!
//! [`crate::qkernels::qgemm`] / [`crate::qkernels::qgemm_a_bt`] are the first
//! and the last of them at an integer [`Mac`] — one (element, accumulator)
//! pair, which is all a kernel body is generic over: [`F32`] here, `I32` and
//! `Sat16` in [`crate::qkernels`].
//!
//! Two drivers carry all five. `saxpy_gemm` reads `a` through a `(row, k)`
//! stride pair, so it serves both `a` layouts: a 4-row register tile over a
//! `KC`-long k-panel, so one streamed row of `B` updates four output rows per
//! pass (4× B-row reuse, and an inner loop the compiler auto-vectorizes);
//! coefficients a type may skip are skipped four rows at a time. `dot_gemm`
//! is the dot-product form of `A·Bᵀ`; `gemm_a_bt` uses it for small `m` and
//! otherwise stages a one-shot transpose of `B` in arena scratch (O(nk)
//! copies against O(mnk) compute) to reach saxpy speed — "no transpose" in
//! this module means *callers* never materialize one.
//!
//! The convolutions batch the first two over samples (`with_gemm_samples`:
//! `A` packed once for a fork range, one lane call a run of samples) and sum their weight
//! gradient `dy·colsᵀ` sample by sample in one lane call
//! (`weight_grad_portable` is its portable body), each partial summed as
//! [`gemm_a_bt`] would sum it.
//!
//! Both open the kernel's `ttsnn_obs` region, check the operand lengths,
//! **overwrite** `out` (shape `(m, n)`, row-major) and fork over disjoint row
//! ranges of it at `E::COST · 2kn` operations a row, so each element is
//! produced by exactly one thread in ascending `k` and results are
//! bit-identical for every thread count. This module has no `unsafe` and no
//! SIMD intrinsics: the generic bodies are what the compiler makes of them
//! for the target baseline, and an explicit-lane micro-kernel is an override
//! of one [`Mac`] hook — [`Mac::tile`], [`Mac::dot`], [`Mac::scatter`] — that
//! asks the lane set the process resolved (`runtime::lanes`: AVX2 where the
//! CPU has it). [`F32`] overrides the tile (so every f32 product but the
//! small-`m` dot runs on it) and the scatter; the integer types override all
//! three.
//!
//! A hook asks for the set on the thread it runs on ([`Lanes::current`]);
//! a parallel region hands its caller's pinned set to the workers that run
//! its tasks, so a pinned kernel runs on that set wherever its tiles land.

use super::arena::{with_scratch, Scratch};
use super::lanes::Lanes;
use super::pool::{fork_grain, Runtime};
use crate::spike::Taps;

/// Rows per register tile in the saxpy-style kernels.
const MR: usize = 4;
/// K-panel length: a `KC × n` strip of B streams through L1/L2 while four
/// A-rows' worth of panel coefficients stay hot.
const KC: usize = 256;

/// One (element, accumulator) pair and everything the kernel drivers need to
/// know about it. Closed over [`F32`], `I32` and `Sat16`.
pub(crate) trait Mac: Sized {
    type Elem: Copy + Send + Sync;
    type Acc: Scratch + Send + Sync;
    /// What the epilogue needs besides the accumulators.
    type Epilogue<'a>: Copy + Send + Sync;

    const ZERO: Self::Acc;
    /// What one multiply-accumulate costs in the streamed `f32` operations
    /// [`fork_grain`] counts in.
    const COST: usize;

    /// Whether `a · b` may be left out of a sum whatever `b` is.
    fn skips(a: Self::Elem) -> bool;

    /// `acc + a · b`.
    fn mac(acc: Self::Acc, a: Self::Elem, b: Self::Elem) -> Self::Acc;

    /// `acc + term`, for a `term` that is already one product
    /// (`mac(ZERO, a, b)`): `mac(acc, a, b) == add_term(acc, mac(ZERO, a, b))`.
    fn add_term(acc: Self::Acc, term: Self::Acc) -> Self::Acc;

    /// `Σ x[i] · y[i]` in the type's fixed order.
    fn dot(x: &[Self::Elem], y: &[Self::Elem]) -> Self::Acc {
        x.iter().zip(y).fold(Self::ZERO, |acc, (&x, &y)| Self::mac(acc, x, y))
    }

    /// The element a spike is under `ep`.
    fn spike(ep: Self::Epilogue<'_>) -> Self::Elem;

    /// `acc + w · spike`.
    fn add_spike(acc: Self::Acc, w: Self::Elem, spike: Self::Elem) -> Self::Acc {
        Self::mac(acc, w, spike)
    }

    /// [`Mac::dot`] of `w` with the binary vector whose ones sit at `events`
    /// (ascending), bit-equal to it: the terms left out cannot move a sum.
    fn event_dot(events: &[u32], w: &[Self::Elem], spike: Self::Elem) -> Self::Acc {
        events.iter().fold(Self::ZERO, |acc, &kk| Self::add_spike(acc, w[kk as usize], spike))
    }

    /// The epilogue of output channel `channel`: writes `out` from its
    /// accumulators, in order — whatever order the caller walks its
    /// accumulator block in (a panel row, a transposed block, one element).
    fn finish(
        out: &mut [f32],
        acc: impl Iterator<Item = Self::Acc>,
        channel: usize,
        ep: Self::Epilogue<'_>,
    );

    /// The tile [`saxpy_gemm`] forks: `rows = A_range · B`, every element in
    /// ascending `k`. Every type runs it on its lane set.
    fn tile(
        a: &[Self::Elem],
        a_strides: (usize, usize),
        b: &[Self::Elem],
        rows: &mut [Self::Acc],
        k: usize,
        n: usize,
    ) {
        saxpy_rows::<Self>(a, a_strides, b, rows, k, n);
    }

    /// One sample of the event scatter ([`crate::spike::scatter`] on the
    /// portable lanes): its taps into an `(Oh·Ow, O)` accumulator block, then
    /// the transposing epilogue into `out_s`. Every type runs it on its lane
    /// set.
    fn scatter(
        taps: Taps<'_>,
        wt: &[Self::Acc],
        out_s: &mut [f32],
        o: usize,
        ep: Self::Epilogue<'_>,
    );
}

/// f32 elements, f32 sums, no epilogue. Never skips: `0 · NaN` is NaN.
pub(crate) struct F32;

impl Mac for F32 {
    type Elem = f32;
    type Acc = f32;
    type Epilogue<'a> = ();

    const ZERO: f32 = 0.0;
    const COST: usize = 1;

    #[inline(always)]
    fn skips(_: f32) -> bool {
        false
    }

    #[inline(always)]
    fn mac(acc: f32, a: f32, b: f32) -> f32 {
        acc + a * b
    }

    #[inline(always)]
    fn add_term(acc: f32, term: f32) -> f32 {
        acc + term
    }

    /// Four independent accumulator lanes — vectorizable, and a fixed
    /// summation order independent of threading.
    #[inline]
    fn dot(x: &[f32], y: &[f32]) -> f32 {
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

    fn spike((): ()) -> f32 {
        1.0
    }

    /// `w · 1.0` is `w` bit for bit.
    #[inline(always)]
    fn add_spike(acc: f32, w: f32, _: f32) -> f32 {
        acc + w
    }

    /// The lanes of [`F32::dot`] exactly (`kk → lane kk mod 4` below the
    /// 4-aligned prefix, remainder into the tail, same reduction tree); a
    /// zero-spike term is an exact `±0.0` and cannot change a `+0.0`-born lane.
    fn event_dot(events: &[u32], w: &[f32], _: f32) -> f32 {
        let chunks4 = (w.len() / 4) * 4;
        let mut lanes = [0.0f32; 4];
        let mut tail = 0.0f32;
        for &kk in events {
            let kk = kk as usize;
            if kk < chunks4 {
                lanes[kk & 3] += w[kk];
            } else {
                tail += w[kk];
            }
        }
        (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]) + tail
    }

    fn finish(out: &mut [f32], acc: impl Iterator<Item = f32>, _: usize, (): ()) {
        for (o, a) in out.iter_mut().zip(acc) {
            *o = a;
        }
    }

    fn tile(a: &[f32], a_strides: (usize, usize), b: &[f32], rows: &mut [f32], k: usize, n: usize) {
        let m = rows.len() / n.max(1);
        Lanes::current().with_f32_tile(a, a_strides, (m, k, n), |tile| tile(b, rows));
    }

    fn scatter(taps: Taps<'_>, wt: &[f32], out_s: &mut [f32], o: usize, (): ()) {
        Lanes::current().f32_scatter(taps, wt, out_s, o);
    }
}

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

/// The saxpy-style product `out = A·B` for every [`Mac`] and both layouts of
/// `A`: element `(i, kk)` of `A` is `a[i · row_stride + kk · k_stride]`, so
/// `(k, 1)` reads an `(m, k)` operand and `(1, m)` a `(k, m)` one column-wise
/// in place. Opens the `name` region; panics on a slice length that disagrees
/// with the dimensions; forks over output rows.
pub(crate) fn saxpy_gemm<E: Mac>(
    name: &'static str,
    rt: &Runtime,
    a: &[E::Elem],
    a_strides: (usize, usize),
    b: &[E::Elem],
    out: &mut [E::Acc],
    (m, k, n): (usize, usize, usize),
) {
    let _region = ttsnn_obs::region(name);
    check(name, (a.len(), b.len(), out.len()), (m, k, n));
    if k == 0 {
        // No coefficient to read a row range's start from.
        return out.fill(E::ZERO);
    }
    rt.parallel_over_ranges(out, n, fork_grain(E::COST * 2 * k * n), |row0, rows| {
        E::tile(&a[row0 * a_strides.0..], a_strides, b, rows, k, n);
    });
}

/// The one 4-row / `KC`-panel tile: `rows = A_range · B`, `a` starting at the
/// range's first row. Every output element adds its terms in ascending `k`.
pub(crate) fn saxpy_rows<E: Mac>(
    a: &[E::Elem],
    (row_stride, k_stride): (usize, usize),
    b: &[E::Elem],
    rows: &mut [E::Acc],
    k: usize,
    n: usize,
) {
    let mrows = rows.len() / n;
    rows.fill(E::ZERO);
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
                let at = i * row_stride + kk * k_stride;
                let (a0, a1) = (a[at], a[at + row_stride]);
                let (a2, a3) = (a[at + 2 * row_stride], a[at + 3 * row_stride]);
                if E::skips(a0) && E::skips(a1) && E::skips(a2) && E::skips(a3) {
                    continue;
                }
                let brow = &b[kk * n..kk * n + n];
                for (((dv0, dv1), (dv2, dv3)), &bv) in o0
                    .iter_mut()
                    .zip(o1.iter_mut())
                    .zip(o2.iter_mut().zip(o3.iter_mut()))
                    .zip(brow.iter())
                {
                    *dv0 = E::mac(*dv0, a0, bv);
                    *dv1 = E::mac(*dv1, a1, bv);
                    *dv2 = E::mac(*dv2, a2, bv);
                    *dv3 = E::mac(*dv3, a3, bv);
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
                let av = a[i * row_stride + kk * k_stride];
                if E::skips(av) {
                    continue;
                }
                let brow = &b[kk * n..kk * n + n];
                for (dv, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *dv = E::mac(*dv, av, bv);
                }
            }
        }
        i += 1;
    }
}

/// The portable batched f32 tile: [`saxpy_rows`] on each `(k, n)` block of
/// `b` and `(m, n)` block of `rows` in turn.
pub(crate) fn f32_rows_portable(
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    rows: &mut [f32],
    (k, n): (usize, usize),
) {
    if k * n == 0 || rows.is_empty() {
        return rows.fill(0.0);
    }
    let per = rows.len() / (b.len() / (k * n));
    for (b, out) in b.chunks_exact(k * n).zip(rows.chunks_exact_mut(per)) {
        saxpy_rows::<F32>(a, a_strides, b, out, k, n);
    }
}

/// Runs `f(gemm)` over a range of `samples` samples: `gemm(b, out)` is
/// `out_s = A · B_s` for every sample `s` of a run of them, `B_s` the `(k,
/// n)` block `b[s·k·n..]`, `out_s` the `(m, n)` block `out[s·m·n..]`, `A`
/// read as [`saxpy_gemm`] reads it. A lone sample is [`saxpy_gemm`] on `rt`
/// under `name` (its rows fork); more go through one lane call a run on
/// this thread, `A` packed once for every run. Every element adds its terms
/// to a `+0.0` in ascending `k` either way.
pub(crate) fn with_gemm_samples<R>(
    name: &'static str,
    rt: &Runtime,
    (a, a_strides): (&[f32], (usize, usize)),
    (m, k, n): (usize, usize, usize),
    samples: usize,
    f: impl FnOnce(&mut dyn FnMut(&[f32], &mut [f32])) -> R,
) -> R {
    if samples <= 1 {
        return f(&mut |b, out| saxpy_gemm::<F32>(name, rt, a, a_strides, b, out, (m, k, n)));
    }
    Lanes::current().with_f32_tile(a, a_strides, (m, k, n), |tile| {
        f(&mut |b, out| {
            assert_eq!(b.len() * m, out.len() * k, "with_gemm_samples: sample counts");
            tile(b, out);
        })
    })
}

/// The convolution weight gradient's fold, portable: for every sample `s` of
/// `dy` (`(O, P)` blocks) in order, each element `(kk, o)` of `acc (rows, O)`
/// adds `Σ_p dy_s[o][p] · cols_s[kk][p]`, sample `s`'s rows of `cols` at
/// `cols[s · stride..]`. The partial is summed from `+0.0` as `gemm_a_bt`
/// sums one: in ascending `p` at `O ≥ 8`, as [`F32::dot`] below.
pub(crate) fn weight_grad_portable(
    dy: &[f32],
    (cols, stride): (&[f32], usize),
    acc: &mut [f32],
    (o, p): (usize, usize),
) {
    if o * p == 0 {
        return;
    }
    for (s, dy_s) in dy.chunks_exact(o * p).enumerate() {
        for (kk, acc) in acc.chunks_exact_mut(o).enumerate() {
            let c = &cols[s * stride + kk * p..][..p];
            for (a, d) in acc.iter_mut().zip(dy_s.chunks_exact(p)) {
                *a += if o < 2 * MR {
                    F32::dot(d, c)
                } else {
                    d.iter().zip(c).fold(0.0, |t, (&d, &c)| t + d * c)
                };
            }
        }
    }
}

/// The dot-product form `out = A·Bᵀ` with `A (m,k)`, `B (n,k)` for every
/// [`Mac`]: both operands read along contiguous rows. Region, panics and fork
/// as [`saxpy_gemm`].
pub(crate) fn dot_gemm<E: Mac>(
    name: &'static str,
    rt: &Runtime,
    a: &[E::Elem],
    b: &[E::Elem],
    out: &mut [E::Acc],
    (m, k, n): (usize, usize, usize),
) {
    let _region = ttsnn_obs::region(name);
    check(name, (a.len(), b.len(), out.len()), (m, k, n));
    rt.parallel_over_ranges(out, n, fork_grain(E::COST * 2 * k * n), |row0, rows| {
        for (i, orow) in rows.chunks_mut(n).enumerate() {
            dot_row::<E>(&a[(row0 + i) * k..(row0 + i + 1) * k], b, orow);
        }
    });
}

/// One output row of [`dot_gemm`]: `orow[j] = arow · b[j]`.
pub(crate) fn dot_row<E: Mac>(arow: &[E::Elem], b: &[E::Elem], orow: &mut [E::Acc]) {
    let k = arow.len();
    for (j, dv) in orow.iter_mut().enumerate() {
        *dv = E::dot(arow, &b[j * k..(j + 1) * k]);
    }
}

fn check(name: &str, (a, b, o): (usize, usize, usize), (m, k, n): (usize, usize, usize)) {
    assert_eq!(a, m * k, "{name}: `a` has wrong length");
    assert_eq!(b, k * n, "{name}: `b` has wrong length");
    assert_eq!(o, m * n, "{name}: `out` has wrong length");
}

/// `out = A·B` with `A (m,k)`, `B (k,n)`, `out (m,n)`, all row-major.
///
/// # Panics
///
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm(rt: &Runtime, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    saxpy_gemm::<F32>("gemm", rt, a, (k, 1), b, out, (m, k, n));
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
    saxpy_gemm::<F32>("gemm_at_b", rt, a, (1, m), b, out, (m, k, n));
}

/// `out = A·Bᵀ` with `A (m,k)`, `B (n,k)`, `out (m,n)`: both operands are
/// read along contiguous rows, so `y = x·Wᵀ` and `dA = g·Bᵀ` need no
/// transpose copy.
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
    // With enough output rows to amortize the transpose, stage it and run the
    // saxpy tile. `m` is a property of the call, not the thread count, so
    // determinism across thread counts is unaffected.
    if m < 2 * MR || k * n == 0 {
        return dot_gemm::<F32>("gemm_a_bt", rt, a, b, out, (m, k, n));
    }
    let _region = ttsnn_obs::region("gemm_a_bt");
    check("gemm_a_bt", (a.len(), b.len(), out.len()), (m, k, n));
    with_scratch(k * n, |bt: &mut [f32]| {
        Lanes::current().transpose(b, (n, k), bt);
        gemm(rt, a, bt, out, m, k, n);
    });
}

/// `bt (k, n)` from `b (n, k)`: the transpose [`gemm_a_bt`] stages.
pub(crate) fn transpose(b: &[f32], (n, k): (usize, usize), bt: &mut [f32]) {
    for (j, brow) in b.chunks_exact(k).enumerate() {
        for (kk, &v) in brow.iter().enumerate() {
            bt[kk * n + j] = v;
        }
    }
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
