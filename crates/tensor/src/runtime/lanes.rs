//! The machine lanes the kernels run on, resolved once per process.
//!
//! The f32 GEMM tile behind `gemm`, `gemm_at_b` and `gemm_a_bt`, the three
//! f32 convolutions (the tile over a batch of samples, their unfolding and
//! fold, the weight gradient's per-sample partials), the event scatter of
//! `sparse_conv2d`, and every int8 kernel — the `qgemm` tile, the dot behind
//! `qlinear` / `qgemm_a_bt`, `qconv2d`'s quantization and unfolding, the
//! requantizing epilogue and the event scatter of `sparse_qconv2d` — ask a
//! [`Lanes`] for their inner loop. There are two sets:
//!
//! * **portable** — the generic bodies every `Mac` runs, compiled for the
//!   target's baseline (SSE2 on `x86_64`: 128-bit float lanes and no packed
//!   32-bit multiply);
//! * **avx2** — explicit 256-bit kernels, chosen where
//!   `is_x86_feature_detected!("avx2")` says the CPU has them.
//!
//! [`Lanes::resolved`] makes that choice once, for both element types;
//! nothing else selects a path, and [`lanes`] reports it. [`with_lanes`]
//! pins the kernels a thread calls to a given set, which is how tests run
//! the portable lanes beside the resolved ones.
//!
//! # Bit identity
//!
//! Both sets compute the same bits. The f32 tile keeps every output
//! element's own sum: it starts at `+0.0` and adds `a · b` in ascending `k`,
//! a separate multiply and add per term (`vmulps` then `vaddps`, never a
//! fused multiply-add, which rounds once instead of twice) — it only holds
//! 4 rows × 16 columns of those sums in registers at a time. Integer `I32`
//! sums are exact, so the avx2 int8 tile and dot may regroup them
//! (`vpmaddwd` adds two products before the accumulator does). `Sat16` is a
//! saturating fold in ascending `k`, and no regrouping of it is exact: its
//! avx2 tile keeps one `i16` lane per output column and adds every product
//! with `vpaddsw`, one `k` at a time, and its dot (whose `k` runs along a
//! row) stays the portable fold. The avx2 event scatter is one tap walk for
//! every element type: it adds the same pre-multiplied rows in the same event
//! order, each output element's sum on a lane of its own — `i32` lanes,
//! clamped after every add for `Sat16`, and `f32` lanes adding to a `+0.0`
//! as the portable `F32::add_term` does. Quantization and the epilogue are
//! elementwise: the same IEEE divide, round, clamp, convert, multiply and
//! add per element, with no fused multiply-add. The weight gradient's dot
//! form keeps `F32::dot`'s four lanes per partial (two partials to a
//! register) and its reduction tree. Unfolding and folding move values
//! without arithmetic, but for the fold's adds, each in the portable order.
//! `gemm_a_bt`'s dot rows and every elementwise training op never come here.
//!
//! # Safety
//!
//! The avx2 kernels are `#[target_feature(enable = "avx2")]` functions, which
//! are undefined behaviour to call on a CPU without AVX2. A [`Lanes`]
//! naming the avx2 set exists only after detection returned true: its field
//! is private to this module and [`Lanes::resolved`] is its only
//! constructor, so every call into the avx2 kernels (in [`Lanes`]'s
//! methods) is guarded by the value itself. The kernels' own `unsafe` is
//! confined to the load / store helpers of the `avx2` submodule, each of
//! which takes a reference to exactly the bytes it touches.

use std::cell::Cell;
use std::sync::OnceLock;

use super::gemm::{f32_rows_portable, saxpy_rows, transpose, weight_grad_portable, Mac, F32};
use crate::conv::{fold_portable, im2col_sample_t, unfold_portable, Conv2dGeometry};
use crate::norm::{grad_sums_portable, plane_sums_portable, LaneBlock, LANES};
use crate::qkernels::{Int, Requant};
use crate::spike::{scatter, Taps};

/// A set of machine lanes for the f32 tile and the int8 kernels:
/// [`Lanes::portable`], or the set this CPU supports, [`Lanes::resolved`].
/// A set the CPU lacks cannot be named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes(Kind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

static RESOLVED: OnceLock<Lanes> = OnceLock::new();

thread_local! {
    static PINNED: Cell<Option<Lanes>> = const { Cell::new(None) };
}

impl Lanes {
    /// The baseline lanes, on every target.
    pub const fn portable() -> Self {
        Lanes(Kind::Portable)
    }

    /// The widest set this CPU supports, detected on first use and fixed for
    /// the life of the process.
    pub fn resolved() -> Self {
        *RESOLVED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return Lanes(Kind::Avx2);
            }
            Lanes::portable()
        })
    }

    /// `"avx2"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Kind::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => "avx2",
        }
    }

    /// The set a kernel called on this thread runs on: the pinned one inside
    /// [`with_lanes`], the resolved one otherwise.
    pub(crate) fn current() -> Self {
        pinned().unwrap_or_else(Self::resolved)
    }

    /// `dst[i] = clamp(round(src[i] / scale), ±127)`, `NaN` to 0.
    pub(crate) fn quantize(self, src: &[f32], scale: f32, dst: &mut [i8]) {
        let dst = &mut dst[..src.len()];
        match self.0 {
            Kind::Portable => quantize_portable(src, scale, dst),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::quantize(src, scale, dst) },
        }
    }

    /// One sample's int8 unfolding: patch row `r` of `x` at `cols[r · ld..]`,
    /// as `conv::im2col_sample_t` lays it out.
    pub(crate) fn unfold(self, x: &[i8], g: &Conv2dGeometry, cols: &mut [i8], ld: usize) {
        match self.0 {
            Kind::Portable => im2col_sample_t(x, g, cols, ld, 0),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::unfold(x, g, cols, ld) },
        }
    }

    /// The `qgemm` tile: `rows = A_range · B` (see `gemm::saxpy_rows`).
    pub(crate) fn qgemm_rows<const SAT16: bool>(
        self,
        a: &[i8],
        a_strides: (usize, usize),
        b: &[i8],
        rows: &mut [i32],
        (k, n): (usize, usize),
    ) {
        match self.0 {
            Kind::Portable => saxpy_rows::<Int<SAT16>>(a, a_strides, b, rows, k, n),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::qgemm_rows::<SAT16>(a, a_strides, b, rows, (k, n)) },
        }
    }

    /// The f32 unfolding of `samples` samples (`x` at stride `in_slab`) into
    /// `cols`, sample `s`'s im2col matrix at `cols[s · C·Kh·Kw·Oh·Ow..]`.
    pub(crate) fn unfold_f32(
        self,
        x: &[f32],
        samples: (usize, usize),
        g: &Conv2dGeometry,
        cols: &mut [f32],
    ) {
        match self.0 {
            Kind::Portable => unfold_portable(x, samples, g, cols),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::unfold_f32(x, samples, g, cols) },
        }
    }

    /// Each slab of `x_grad` as its sample's im2col matrix in `cols` added
    /// into zeros (see `conv::col2im_sample`).
    pub(crate) fn fold_f32(self, cols: &[f32], g: &Conv2dGeometry, x_grad: &mut [f32]) {
        match self.0 {
            Kind::Portable => fold_portable(cols, g, x_grad),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::fold_f32(cols, g, x_grad) },
        }
    }

    /// Runs `f(tile)`: `tile(b, rows)` is the f32 tile `A · B_s` (see
    /// `gemm::saxpy_rows`) into each `(m, n)` block of `rows` from each `(k,
    /// n)` block of `b`, `A` (`m` rows of `k`) packed once for every call.
    pub(crate) fn with_f32_tile<R>(
        self,
        a: &[f32],
        a_strides: (usize, usize),
        (m, k, n): (usize, usize, usize),
        f: impl FnOnce(&mut dyn FnMut(&[f32], &mut [f32])) -> R,
    ) -> R {
        match self.0 {
            _ if k * n == 0 => f(&mut |_, rows| rows.fill(0.0)),
            Kind::Portable => f(&mut |b, rows| f32_rows_portable(a, a_strides, b, rows, (k, n))),
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => super::with_scratch(m * k, |coef: &mut [f32]| {
                // SAFETY: an `Avx2` set exists only once AVX2 was detected.
                unsafe { avx2::pack(a, a_strides, (m, k), coef) };
                // SAFETY: as above.
                f(&mut |b, rows| unsafe { avx2::f32_rows(coef, b, rows, (m, k, n)) })
            }),
        }
    }

    /// The convolution weight gradient's fold into `acc (rows, O)`, every
    /// sample of `dy` in order (see `gemm::weight_grad_portable`).
    pub(crate) fn f32_weight_grad(
        self,
        dy: &[f32],
        cols: (&[f32], usize),
        acc: &mut [f32],
        (o, p): (usize, usize),
    ) {
        match self.0 {
            Kind::Portable => weight_grad_portable(dy, cols, acc, (o, p)),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::f32_weight_grad(dy, cols, acc, (o, p)) },
        }
    }

    /// `bt (k, n)` from `b (n, k)`, a copy on either set.
    pub(crate) fn transpose(self, b: &[f32], (n, k): (usize, usize), bt: &mut [f32]) {
        match self.0 {
            Kind::Portable => transpose(b, (n, k), bt),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::transpose(b, (n, k), bt) },
        }
    }

    /// `Σ x[i] · y[i]` in the accumulator mode's fold.
    pub(crate) fn dot<const SAT16: bool>(self, x: &[i8], y: &[i8]) -> i32 {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 if !SAT16 => unsafe { avx2::dot(x, y) },
            _ => x.iter().zip(y).fold(0, |acc, (&x, &y)| Int::<SAT16>::mac(acc, x, y)),
        }
    }

    /// The epilogue of one output channel's contiguous accumulators.
    pub(crate) fn requant_row(self, out: &mut [f32], acc: &[i32], oc: usize, ep: Requant<'_>) {
        match self.0 {
            Kind::Portable => {
                Int::<false>::finish(out, acc.iter().copied(), oc, ep);
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::requant_row(out, acc, oc, ep) },
        }
    }

    /// A lane block's norm statistics sums (see `norm::plane_sums_portable`).
    pub(crate) fn plane_sums(
        self,
        x: &[f32],
        block: LaneBlock,
        mean: Option<&[f32; LANES]>,
    ) -> [f32; LANES] {
        match self.0 {
            Kind::Portable => plane_sums_portable(x, block, mean),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe {
                match mean {
                    None => avx2::plane_sums::<false>(x, block, &[0.0; LANES]),
                    Some(mean) => avx2::plane_sums::<true>(x, block, mean),
                }
            },
        }
    }

    /// A lane block's norm backward sums (see `norm::grad_sums_portable`).
    pub(crate) fn grad_sums(
        self,
        dy: &[f32],
        x: &[f32],
        block: LaneBlock,
        stats: (&[f32; LANES], &[f32; LANES]),
    ) -> [[f32; LANES]; 2] {
        match self.0 {
            Kind::Portable => grad_sums_portable(dy, x, block, stats),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::grad_sums(dy, x, block, stats) },
        }
    }

    /// One sample's int8 event scatter and requantizing, transposing
    /// epilogue (see `spike::scatter`).
    pub(crate) fn scatter<const SAT16: bool>(
        self,
        taps: Taps<'_>,
        wt: &[i32],
        out_s: &mut [f32],
        o: usize,
        ep: Requant<'_>,
    ) {
        match self.0 {
            Kind::Portable => scatter::<Int<SAT16>>(taps, wt, out_s, o, ep),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::scatter::<SAT16>(taps, wt, out_s, o, ep) },
        }
    }

    /// One sample's f32 event scatter and transposing epilogue (see
    /// `spike::scatter`).
    pub(crate) fn f32_scatter(self, taps: Taps<'_>, wt: &[f32], out_s: &mut [f32], o: usize) {
        match self.0 {
            Kind::Portable => scatter::<F32>(taps, wt, out_s, o, ()),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` set exists only once AVX2 was detected.
            Kind::Avx2 => unsafe { avx2::f32_scatter(taps, wt, out_s, o) },
        }
    }
}

/// The lane set this process resolved: `"avx2"` or `"portable"`.
pub fn lanes() -> &'static str {
    Lanes::resolved().name()
}

/// Runs `f` with every lane-dispatched kernel it calls on this thread on
/// `lanes`. A parallel region hands its caller's pinned set to the pool
/// workers that run its tasks, so `f`'s whole kernels run on it. Outside,
/// they run on [`Lanes::resolved`]. Both sets compute the same bits; this
/// exists so a test can show it.
pub fn with_lanes<R>(lanes: Lanes, f: impl FnOnce() -> R) -> R {
    with_pinned(Some(lanes), f)
}

/// The set [`with_lanes`] pinned on this thread, if any.
pub(super) fn pinned() -> Option<Lanes> {
    PINNED.with(Cell::get)
}

/// Runs `f` with this thread's pinned set replaced by `pinned` (`None`:
/// none), restoring the previous one afterwards, also when `f` panics.
pub(super) fn with_pinned<R>(pinned: Option<Lanes>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Lanes>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PINNED.with(|p| p.replace(pinned)));
    f()
}

/// The portable quantizer — `ttsnn_core::quant::quantize_int8`'s grid.
fn quantize_portable(src: &[f32], scale: f32, dst: &mut [i8]) {
    for (d, &v) in dst.iter_mut().zip(src.iter()) {
        *d = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The avx2 set. Only [`Lanes`](super::Lanes)'s methods call in
    //! here; every function is compiled for AVX2 and is sound to call only
    //! on a CPU that has it.

    use std::arch::x86_64::*;

    use crate::conv::{im2col_sample_t, Conv2dGeometry};
    use crate::norm::LaneBlock;
    use crate::qkernels::Requant;
    use crate::runtime::{with_scratch, with_scratch_zeroed, Scratch};
    use crate::spike::Taps;

    /// Rows per register tile, f32 and `qgemm`.
    const MR: usize = 4;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_i8x16(src: &[i8; 16]) -> __m128i {
        // SAFETY: `src` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_i32x8(src: &[i32; 8]) -> __m256i {
        // SAFETY: `src` is 32 readable bytes; the load is unaligned.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_i32x8(dst: &mut [i32; 8], v: __m256i) {
        // SAFETY: `dst` is 32 writable bytes; the store is unaligned.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_f32x8(src: &[f32; 8]) -> __m256 {
        // SAFETY: `src` is 32 readable bytes; the load is unaligned.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_f32x8(dst: &mut [f32; 8], v: __m256) {
        // SAFETY: `dst` is 32 writable bytes; the store is unaligned.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_f32x4(src: &[f32; 4]) -> __m128 {
        // SAFETY: `src` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_ps(src.as_ptr()) }
    }

    /// The first `src.len()` lanes (all 8 if longer) from `src`, zero in
    /// the rest.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_f32x8_partial(src: &[f32]) -> __m256 {
        let mask = lanes_below(src.len());
        // SAFETY: the mask enables lane `i` only for `i < src.len()`, and a
        // masked load reads only the lanes it enables: every byte read is
        // inside `src`.
        unsafe { _mm256_maskload_ps(src.as_ptr(), mask) }
    }

    /// Lanes `0..dst.len()` (all 8 if longer) of `v` into `dst`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_f32x8_partial(dst: &mut [f32], v: __m256) {
        let mask = lanes_below(dst.len());
        // SAFETY: the mask enables lane `i` only for `i < dst.len()`, and a
        // masked store writes only the lanes it enables: every byte written
        // is inside `dst`.
        unsafe { _mm256_maskstore_ps(dst.as_mut_ptr(), mask, v) }
    }

    /// A lane mask whose lanes `i < len` are set.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes_below(len: usize) -> __m256i {
        let len = _mm256_set1_epi32(len.min(8) as i32);
        _mm256_cmpgt_epi32(len, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store_i8x32(dst: &mut [i8; 32], v: __m256i) {
        // SAFETY: `dst` is 32 writable bytes; the store is unaligned.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    /// The first `N` elements of `s`, as an array.
    #[inline(always)]
    fn head<T, const N: usize>(s: &[T]) -> &[T; N] {
        s.first_chunk().expect("lane block within its slice")
    }

    #[inline(always)]
    fn head_mut<T, const N: usize>(s: &mut [T]) -> &mut [T; N] {
        s.first_chunk_mut().expect("lane block within its slice")
    }

    /// Eight quantized lanes: the portable `round().clamp(-127, 127) as i8`
    /// of `v / scale`, as `i32`. `round` is half away from zero:
    /// `trunc(q) ± 1` where `|q - trunc(q)| ≥ 0.5` (an exact difference).
    /// `NaN` clamps to `-127` here and is masked to 0, as `NaN as i8` is.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn quantize8(v: __m256, scale: __m256) -> __m256i {
        let sign = _mm256_set1_ps(-0.0);
        let q = _mm256_div_ps(v, scale);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
        let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(q, t));
        let away = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
        let step = _mm256_and_ps(away, _mm256_or_ps(_mm256_set1_ps(1.0), _mm256_and_ps(q, sign)));
        let r = _mm256_add_ps(t, step);
        let r = _mm256_min_ps(_mm256_max_ps(r, _mm256_set1_ps(-127.0)), _mm256_set1_ps(127.0));
        let ordered = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_ORD_Q>(q, q));
        _mm256_and_si256(_mm256_cvttps_epi32(r), ordered)
    }

    /// `dst = quantize(src)`, 32 elements a step; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize(src: &[f32], scale: f32, dst: &mut [i8]) {
        let vs = _mm256_set1_ps(scale);
        let (blocks, tail) = src.as_chunks::<32>();
        let (dblocks, dtail) = dst.as_chunks_mut::<32>();
        for (s, d) in blocks.iter().zip(dblocks) {
            let q = |i: usize| quantize8(load_f32x8(head(&s[i * 8..])), vs);
            // Packing interleaves the 128-bit halves; the permute undoes it.
            let words = _mm256_packs_epi32(q(0), q(1));
            let bytes = _mm256_packs_epi16(words, _mm256_packs_epi32(q(2), q(3)));
            let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
            store_i8x32(d, _mm256_permutevar8x32_epi32(bytes, order));
        }
        super::quantize_portable(tail, scale, dtail);
    }

    /// The unfolding through a zero-padded copy of the sample's planes: a
    /// patch row is then `Oh` plain `Ow`-element copies, one fixed-size move
    /// each at the common widths, instead of a bounds test per element or a
    /// `memcpy` call per run.
    #[target_feature(enable = "avx2")]
    pub(super) fn unfold<T: Scratch>(x: &[T], g: &Conv2dGeometry, cols: &mut [T], ld: usize) {
        let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
        let ((sh, sw), (ph, pw)) = (g.stride, g.padding);
        if sw != 1 || oh * ow * h * w == 0 {
            return im2col_sample_t(x, g, cols, ld, T::default());
        }
        let (hp, wp) = (h + 2 * ph, w + 2 * pw);
        with_scratch(g.in_channels * hp * wp, |padded: &mut [T]| {
            padded.fill(T::default());
            for c in 0..g.in_channels {
                let (to, from) = (|i| (c * hp + ph + i) * wp + pw, |i| (c * h + i) * w);
                copy_rows((h, w), (padded, to), (x, from));
                for ki in 0..kh {
                    for kj in 0..kw {
                        let block = &mut cols[((c * kh + ki) * kw + kj) * ld..][..oh * ow];
                        let from = |oi| (c * hp + oi * sh + ki) * wp + kj;
                        copy_rows((oh, ow), (block, |oi| oi * ow), (padded, from));
                    }
                }
            }
        });
    }

    /// Whether `g` keeps its plane: stride 1 and an output the input's size,
    /// so patch row `(c, ki, kj)` is channel `c`'s plane shifted by `(ki −
    /// ph, kj − pw)` with the columns that leave the plane zeroed.
    fn keeps_plane(g: &Conv2dGeometry) -> bool {
        g.stride == (1, 1) && g.out_hw() == g.in_hw
    }

    /// `masks[kj · P + p]`: all ones where output position `p`'s tap `kj`
    /// reads inside its row, `+0.0` where it reads padding.
    fn column_masks(g: &Conv2dGeometry, masks: &mut [f32]) {
        let (w, pw, p) = (g.in_hw.1, g.padding.1, g.in_hw.0 * g.in_hw.1);
        for (kj, plane) in masks.chunks_exact_mut(p).enumerate() {
            for row in plane.chunks_exact_mut(w) {
                for (j, m) in row.iter_mut().enumerate() {
                    let inside = (pw..w + pw).contains(&(j + kj));
                    *m = if inside { f32::from_bits(!0) } else { 0.0 };
                }
            }
        }
    }

    /// The f32 unfolding of `samples` samples (`x` at stride `in_slab`).
    /// A geometry that keeps its plane ([`keeps_plane`]) copies each channel
    /// once into a zero-margined buffer and writes each patch row as one
    /// shifted run of it, 8 lanes at a time through [`column_masks`]; a 1×1
    /// kernel at stride 2 takes every other input of every other row, 8 lanes
    /// from 16 by a shuffle. Any other geometry unfolds sample by sample.
    ///
    /// Against sample-by-sample [`unfold`] and `fold_portable` (one thread,
    /// 2-vCPU AVX2 host, per kernel call over the benchmark's training
    /// step), the plane shift ran the stride-1 3×1 / 1×3 / 3×3 cores 1.07–1.85
    /// × faster forward, 1.08–1.52 × on the input gradient and 1.05–1.54 ×
    /// on the weight gradient; the shuffle ran the strided 1×1 cores 1.2–2.0
    /// ×, 1.37–2.04 × and 1.15–2.13 ×.
    #[target_feature(enable = "avx2")]
    pub(super) fn unfold_f32(
        x: &[f32],
        (samples, in_slab): (usize, usize),
        g: &Conv2dGeometry,
        cols: &mut [f32],
    ) {
        let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
        let p = oh * ow;
        let cols = cols.chunks_exact_mut((g.patch_len() * p).max(1)).take(samples).enumerate();
        if g.stride == (2, 2) && g.kernel == (1, 1) && g.padding == (0, 0) {
            for (s, cols) in cols {
                for (c, plane) in cols.chunks_exact_mut(p).enumerate() {
                    for (oi, row) in plane.chunks_exact_mut(ow).enumerate() {
                        evens(&x[s * in_slab + c * h * w + 2 * oi * w..][..w], row);
                    }
                }
            }
            return;
        }
        if !keeps_plane(g) {
            for (s, cols) in cols {
                unfold(&x[s * in_slab..], g, cols, p);
            }
            return;
        }
        let margin = g.padding.0 * w + g.padding.1;
        with_scratch(kw * p, |masks: &mut [f32]| {
            column_masks(g, masks);
            with_scratch_zeroed(p + 2 * margin, |plane: &mut [f32]| {
                for (s, cols) in cols {
                    for (c, cols) in cols.chunks_exact_mut(kh * kw * p).enumerate() {
                        plane[margin..][..p].copy_from_slice(&x[s * in_slab + c * p..][..p]);
                        for (tap, row) in cols.chunks_exact_mut(p).enumerate() {
                            let (ki, kj) = (tap / kw, tap % kw);
                            masked::<false>(&plane[ki * w + kj..][..p], &masks[kj * p..][..p], row);
                        }
                    }
                }
            });
        });
    }

    /// `dst = src & mask` (or with `ADD`, `dst += src & mask`), lane for
    /// lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn masked<const ADD: bool>(src: &[f32], mask: &[f32], dst: &mut [f32]) {
        let (db, dt) = dst.as_chunks_mut::<8>();
        let (sb, mb) = (src.as_chunks::<8>().0, mask.as_chunks::<8>().0);
        for ((d, s), m) in db.iter_mut().zip(sb).zip(mb) {
            let v = _mm256_and_ps(load_f32x8(s), load_f32x8(m));
            store_f32x8(d, if ADD { _mm256_add_ps(load_f32x8(d), v) } else { v });
        }
        if !dt.is_empty() {
            let at = db.len() * 8;
            let v = _mm256_and_ps(load_f32x8_partial(&src[at..]), load_f32x8_partial(&mask[at..]));
            let v = if ADD { _mm256_add_ps(load_f32x8_partial(dt), v) } else { v };
            store_f32x8_partial(dt, v);
        }
    }

    /// `dst[j] = src[2j]`: 8 lanes from 16 inputs by a shuffle, the rest one
    /// by one.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn evens(src: &[f32], dst: &mut [f32]) {
        let mut j = 0;
        while j + 8 <= dst.len() && 2 * j + 16 <= src.len() {
            let (a, b) = (load_f32x8(head(&src[2 * j..])), load_f32x8(head(&src[2 * j + 8..])));
            let e = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(a, b));
            store_f32x8(
                head_mut(&mut dst[j..]),
                _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(e)),
            );
            j += 8;
        }
        for (j, d) in dst.iter_mut().enumerate().skip(j) {
            *d = src[2 * j];
        }
    }

    /// The f32 fold: each slab of `x_grad` as its sample's im2col matrix in
    /// `cols` added into zeros, one sample at a time so the slab is written
    /// while it is in cache. A geometry that keeps its plane adds each
    /// patch row, masked ([`column_masks`]), as one shifted run into a
    /// zero-margined copy of the channel's plane — each element still meets
    /// its terms in `(ki, kj)` order, and a masked lane adds a `+0.0` that
    /// no sum born at `+0.0` can notice — then copies the plane out; a 1×1
    /// kernel at stride 2 adds 8 inputs to every other lane of 16. Any other
    /// geometry, or a plane under 8 positions, folds sample by sample.
    #[target_feature(enable = "avx2")]
    pub(super) fn fold_f32(cols: &[f32], g: &Conv2dGeometry, x_grad: &mut [f32]) {
        let ((h, w), (kh, kw)) = (g.in_hw, g.kernel);
        let p = h * w;
        if g.stride == (2, 2) && g.kernel == (1, 1) && g.padding == (0, 0) {
            let (oh, ow) = g.out_hw();
            let samples = cols.chunks_exact((g.in_channels * oh * ow).max(1));
            for (cols, xg) in samples.zip(x_grad.chunks_exact_mut(g.in_slab())) {
                xg.fill(0.0);
                for (rows, plane) in cols.chunks_exact(oh * ow).zip(xg.chunks_exact_mut(p)) {
                    for (row, dst) in rows.chunks_exact(ow).zip(plane.chunks_mut(2 * w)) {
                        add_evens(row, &mut dst[..w]);
                    }
                }
            }
            return;
        }
        // Below 8 positions a plane's runs are a lane or two: the copies in
        // and out would cost more than the fold.
        if !keeps_plane(g) || p < 8 {
            return super::fold_portable(cols, g, x_grad);
        }
        let margin = g.padding.0 * w + g.padding.1;
        let samples = cols.chunks_exact((g.patch_len() * p).max(1));
        with_scratch(kw * p, |masks: &mut [f32]| {
            column_masks(g, masks);
            with_scratch(p + 2 * margin, |plane: &mut [f32]| {
                for (cols, xg) in samples.zip(x_grad.chunks_exact_mut(g.in_slab())) {
                    for (cols, xg) in cols.chunks_exact(kh * kw * p).zip(xg.chunks_exact_mut(p)) {
                        plane[margin..][..p].fill(0.0);
                        for (tap, row) in cols.chunks_exact(p).enumerate() {
                            let (ki, kj) = (tap / kw, tap % kw);
                            let dst = &mut plane[ki * w + kj..][..p];
                            masked::<true>(row, &masks[kj * p..][..p], dst);
                        }
                        xg.copy_from_slice(&plane[margin..][..p]);
                    }
                }
            });
        });
    }

    /// `dst[2j] += src[j]`: 8 inputs to 16 lanes by a shuffle (the odd ones
    /// adding `+0.0`, which no sum born at `+0.0` can notice), the rest one
    /// by one.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_evens(src: &[f32], dst: &mut [f32]) {
        let (zero, mut j) = (_mm256_setzero_ps(), 0);
        while j + 8 <= src.len() && 2 * j + 16 <= dst.len() {
            let v = load_f32x8(head(&src[j..]));
            let (lo, hi) = (_mm256_unpacklo_ps(v, zero), _mm256_unpackhi_ps(v, zero));
            let halves =
                [_mm256_permute2f128_ps::<0x20>(lo, hi), _mm256_permute2f128_ps::<0x31>(lo, hi)];
            for (i, v) in halves.into_iter().enumerate() {
                let d = head_mut(&mut dst[2 * j + 8 * i..]);
                store_f32x8(d, _mm256_add_ps(load_f32x8(d), v));
            }
            j += 8;
        }
        for (j, &v) in src.iter().enumerate().skip(j) {
            dst[2 * j] += v;
        }
    }

    /// Copies `rows` rows of `width` elements, row `r` from `src[from(r)..]`
    /// to `dst[to(r)..]`: one fixed-size move per row at widths 2, 4, 8, 16,
    /// 32 (a `memcpy` call per row would cost more than the row).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn copy_rows<T: Copy>(
        (rows, width): (usize, usize),
        (dst, to): (&mut [T], impl Fn(usize) -> usize),
        (src, from): (&[T], impl Fn(usize) -> usize),
    ) {
        #[inline(always)]
        fn fixed<T: Copy, const N: usize>(
            rows: usize,
            (dst, to): (&mut [T], impl Fn(usize) -> usize),
            (src, from): (&[T], impl Fn(usize) -> usize),
        ) {
            for r in 0..rows {
                *head_mut::<T, N>(&mut dst[to(r)..]) = *head::<T, N>(&src[from(r)..]);
            }
        }
        match width {
            2 => fixed::<T, 2>(rows, (dst, to), (src, from)),
            4 => fixed::<T, 4>(rows, (dst, to), (src, from)),
            8 => fixed::<T, 8>(rows, (dst, to), (src, from)),
            16 => fixed::<T, 16>(rows, (dst, to), (src, from)),
            32 => fixed::<T, 32>(rows, (dst, to), (src, from)),
            _ => {
                for r in 0..rows {
                    dst[to(r)..][..width].copy_from_slice(&src[from(r)..][..width]);
                }
            }
        }
    }

    /// `A`'s `m` rows of `k` into `coef`, `k`-major: [`MR`] rows to a tile,
    /// the 1–3 remainder rows as one group.
    #[target_feature(enable = "avx2")]
    pub(super) fn pack(
        a: &[f32],
        a_strides: (usize, usize),
        (m, k): (usize, usize),
        coef: &mut [f32],
    ) {
        let tiled = m - m % MR;
        let (tiles, rest) = coef[..m * k].split_at_mut(tiled * k);
        for (t, tile) in tiles.chunks_exact_mut(MR * k).enumerate() {
            pack_rows::<MR>(a, a_strides, t * MR, tile);
        }
        match m - tiled {
            1 => pack_rows::<1>(a, a_strides, tiled, rest),
            2 => pack_rows::<2>(a, a_strides, tiled, rest),
            3 => pack_rows::<3>(a, a_strides, tiled, rest),
            _ => {}
        }
    }

    /// The f32 tile over a batch: `out_s = A · B_s` for every `(k, n)` block
    /// `B_s` of `b` and `(m, n)` block `out_s` of `rows` (one of each for a
    /// plain product), `A` as [`pack`] lays it out in `coef`, so the loop
    /// over `k` reads its coefficients in order whatever `A`'s layout
    /// ([`row_groups`]). Per sample, output columns go 16 at a
    /// time, then one block of 8, then the last `n mod 8` through masked
    /// loads and stores ([`columns`]). Per column block every row group
    /// keeps its sums in registers over the whole of `k`.
    /// Every element starts at `+0.0` and adds `a · b` in ascending `k`, a
    /// multiply then an add, as the portable tile does.
    ///
    /// `B` is read in place. Packing each 16-column block of it into a
    /// contiguous panel first was measured and left out (time packed / in
    /// place, one thread, 2-vCPU AVX2 host): 0.9–1.6 on the tile shapes the
    /// benchmark's training and serving steps run (≤ 64 rows, `n` ≤ 256;
    /// weighted by calls, a training step's tiles took 6–10 % longer packed),
    /// 0.7–1.0 on the probes' `(32, 288, 256)` conv tile, and 0.4–1.0 only at
    /// 16–64 rows with `n` of 1024 or 2048, shapes no workload runs.
    #[target_feature(enable = "avx2")]
    pub(super) fn f32_rows(
        coef: &[f32],
        b: &[f32],
        rows: &mut [f32],
        (m, k, n): (usize, usize, usize),
    ) {
        let samples = b.len() / (k * n);
        let (bs, os) = (k * n, m * n);
        for s in 0..samples {
            columns(coef, &b[s * bs..][..bs], &mut rows[s * os..][..os], (m, k, n));
        }
    }

    /// Rows `i0..i0 + R` of `A` (element `(i, kk)` at `a[i · row_stride +
    /// kk · k_stride]`) into `dst`, `k`-major: `dst[kk · R + r] = A(i0 + r,
    /// kk)`.
    #[inline]
    fn pack_rows<const R: usize>(
        a: &[f32],
        (row_stride, k_stride): (usize, usize),
        i0: usize,
        dst: &mut [f32],
    ) {
        let dst = dst.as_chunks_mut::<R>().0;
        if k_stride == 1 {
            for r in 0..R {
                let row = &a[(i0 + r) * row_stride..][..dst.len()];
                for (c, &v) in dst.iter_mut().zip(row) {
                    c[r] = v;
                }
            }
        } else {
            for (kk, c) in dst.iter_mut().enumerate() {
                for (r, c) in c.iter_mut().enumerate() {
                    *c = a[(i0 + r) * row_stride + kk * k_stride];
                }
            }
        }
    }

    /// One sample's output `out (m, n)` from its `b (k, n)`: columns 16 at a
    /// time, then a block of 8, then the last `n mod 8` masked.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn columns(coef: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
        let (wide, narrow) = (n - n % 16, n - n % 8);
        for j0 in (0..wide).step_by(16) {
            let load = |kk: usize, h| load_f32x8(head(&b[kk * n + j0 + 8 * h..]));
            let store = |i: usize, h, v| store_f32x8(head_mut(&mut out[i * n + j0 + 8 * h..]), v);
            row_groups::<2>(coef, (m, k), load, store);
        }
        if narrow > wide {
            let load = |kk: usize, _| load_f32x8(head(&b[kk * n + wide..]));
            let store = |i: usize, _, v| store_f32x8(head_mut(&mut out[i * n + wide..]), v);
            row_groups::<1>(coef, (m, k), load, store);
        }
        if n > narrow {
            let load = |kk: usize, _| load_f32x8_partial(&b[kk * n + narrow..(kk + 1) * n]);
            let store =
                |i: usize, _, v| store_f32x8_partial(&mut out[i * n + narrow..][..n - narrow], v);
            row_groups::<1>(coef, (m, k), load, store);
        }
    }

    /// Every row group of the packed `A` (`coef`: [`MR`]-row tiles, then the
    /// 1–3 remainder rows as one group) against one block of `8 · H`
    /// columns: `load(kk, h)` gives 8 columns of `B`'s row `kk`, and
    /// `store(i, h, sums)` takes output row `i`'s.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn row_groups<const H: usize>(
        coef: &[f32],
        (m, k): (usize, usize),
        load: impl Fn(usize, usize) -> __m256 + Copy,
        mut store: impl FnMut(usize, usize, __m256),
    ) {
        let tiled = m - m % MR;
        let (tiles, rest) = coef.split_at(tiled * k);
        for (t, c) in tiles.chunks_exact(MR * k).enumerate() {
            f32_group::<MR, H>(c, load, |r, h, v| store(t * MR + r, h, v));
        }
        match m - tiled {
            1 => f32_group::<1, H>(rest, load, |r, h, v| store(tiled + r, h, v)),
            2 => f32_group::<2, H>(rest, load, |r, h, v| store(tiled + r, h, v)),
            3 => f32_group::<3, H>(rest, load, |r, h, v| store(tiled + r, h, v)),
            _ => {}
        }
    }

    /// One `R`-row group against one column block: `coef` `k`-major, `R` to
    /// a `k`; `R · H` sums that stay in registers over the whole of `k`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn f32_group<const R: usize, const H: usize>(
        coef: &[f32],
        load: impl Fn(usize, usize) -> __m256,
        mut store: impl FnMut(usize, usize, __m256),
    ) {
        let mut acc = [[_mm256_setzero_ps(); H]; R];
        for (kk, c) in coef.as_chunks::<R>().0.iter().enumerate() {
            let bv: [__m256; H] = std::array::from_fn(|h| load(kk, h));
            for (acc, &c) in acc.iter_mut().zip(c) {
                let c = _mm256_set1_ps(c);
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(c, bv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (h, &v) in acc.iter().enumerate() {
                store(r, h, v);
            }
        }
    }

    /// The convolution weight gradient's fold (see
    /// `gemm::weight_grad_portable`): per sample, in order, each element's
    /// partial is summed in registers from `+0.0` and added into `acc`.
    ///
    /// At `O ≥ 8` the partials run as a tile ([`dw_tiles`]), `p` ascending:
    /// lanes over `o` (the sample's `dy` transposed) with [`MR`] rows of
    /// `kk` broadcast from `cols`, or the other way round where
    /// [`lane_cost`] says so — a product is the same either way round. Below 8 every
    /// partial is a [`dot`](super::F32) tree, two to a register: lanes 0–3
    /// hold `kk`'s four dot lanes and 4–7 those of `kk + 1`, so `(l0 + l2) +
    /// (l1 + l3)` of each half, plus the scalar tail, is that dot's sum.
    #[target_feature(enable = "avx2")]
    pub(super) fn f32_weight_grad(
        dy: &[f32],
        (cols, sc): (&[f32], usize),
        acc: &mut [f32],
        (o, p): (usize, usize),
    ) {
        let kr = acc.len() / o.max(1);
        if o * p * kr == 0 {
            return;
        }
        let samples = dy.chunks_exact(o * p).enumerate();
        match o {
            1 => samples.for_each(|(s, d)| dw_dots::<1>(d, &cols[s * sc..], acc, p)),
            2 => samples.for_each(|(s, d)| dw_dots::<2>(d, &cols[s * sc..], acc, p)),
            3 => samples.for_each(|(s, d)| dw_dots::<3>(d, &cols[s * sc..], acc, p)),
            4 => samples.for_each(|(s, d)| dw_dots::<4>(d, &cols[s * sc..], acc, p)),
            5 => samples.for_each(|(s, d)| dw_dots::<5>(d, &cols[s * sc..], acc, p)),
            6 => samples.for_each(|(s, d)| dw_dots::<6>(d, &cols[s * sc..], acc, p)),
            7 => samples.for_each(|(s, d)| dw_dots::<7>(d, &cols[s * sc..], acc, p)),
            // Lanes over `kk` only where they leave fewer lanes empty; on a
            // tie over `o`, which needs no transpose of `acc`.
            _ if lane_cost(kr, o) < lane_cost(o, kr) => {
                with_scratch(o * kr, |acc_t: &mut [f32]| {
                    transpose(acc, (kr, o), acc_t);
                    let rows = |s: usize| &cols[s * sc..][..kr * p];
                    dw_tiles(samples.map(|(s, d)| (rows(s), d)), acc_t, (kr, p));
                    transpose(acc_t, (o, kr), acc);
                })
            }
            _ => dw_tiles(samples.map(|(s, d)| (d, &cols[s * sc..][..kr * p])), acc, (o, p)),
        }
    }

    /// What lanes over `x` cost against `y` broadcast rows: the products
    /// the tile runs, empty lanes included. Per shape (one thread, 2-vCPU
    /// AVX2 host), lanes over `kk` ran 1.14–1.73 × faster where `o` is 10 or
    /// 19 and `kk` fills its lanes better (`10 → 10`, `19 → 19`, `32 → 10`,
    /// `64 → 19`) and 1.5–3.1 × slower where `o` fills them better; with
    /// both multiples of 8, `o` ties or leads (1.0–1.13 ×).
    fn lane_cost(x: usize, y: usize) -> usize {
        x.next_multiple_of(8) * y
    }

    /// The tile form of the partials: per sample `(lanes, rows)`, `lanes`
    /// (`X` rows of `P`) is transposed into 8-lane blocks
    /// ([`transpose_blocks`]) and [`MR`] of `rows` at a time are broadcast
    /// against it, `p` ascending; each sum is added into `acc (rows, X)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dw_tiles<'a>(
        samples: impl Iterator<Item = (&'a [f32], &'a [f32])>,
        acc: &mut [f32],
        (x, p): (usize, usize),
    ) {
        let y = acc.len() / x;
        with_scratch(x.div_ceil(8) * p * 8, |xt: &mut [f32]| {
            let xt = xt.as_chunks_mut::<8>().0;
            for (lanes, rows) in samples {
                transpose_blocks(lanes, (x, p), xt);
                for r0 in (0..y).step_by(MR) {
                    let (c, a) = (&rows[r0 * p..], &mut acc[r0 * x..]);
                    match y - r0 {
                        1 => dw_tile::<1>(xt, c, a, (x, p)),
                        2 => dw_tile::<2>(xt, c, a, (x, p)),
                        3 => dw_tile::<3>(xt, c, a, (x, p)),
                        _ => dw_tile::<MR>(xt, c, a, (x, p)),
                    }
                }
            }
        });
    }

    /// `X` rows of `P` as 8-lane blocks: `dyt[ob · P + pp]` holds row `8 ·
    /// ob + l` at `pp` in lane `l`, zero past `X`. Whole blocks go 8 × 8
    /// through registers ([`transpose8_rows`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose_blocks(dy: &[f32], (o, p): (usize, usize), dyt: &mut [[f32; 8]]) {
        let p8 = p - p % 8;
        for (ob, out) in dyt.chunks_exact_mut(p).take(o.div_ceil(8)).enumerate() {
            let rows = &dy[8 * ob * p..];
            if 8 * ob + 8 <= o && p == 4 {
                // A 2 × 2 plane: rows `j` and `j + 4` to a register, then one
                // in-lane 4 × 4 transpose (1.05–1.33 × the element-by-element
                // edge path on the step's 2 × 2 weight gradients).
                let a: [__m256; 4] = std::array::from_fn(|j| {
                    let (lo, hi) = (head(&rows[4 * j..]), head(&rows[4 * j + 16..]));
                    _mm256_set_m128(load_f32x4(hi), load_f32x4(lo))
                });
                let (t0, t1) = (_mm256_unpacklo_ps(a[0], a[1]), _mm256_unpacklo_ps(a[2], a[3]));
                let (t2, t3) = (_mm256_unpackhi_ps(a[0], a[1]), _mm256_unpackhi_ps(a[2], a[3]));
                store_f32x8(&mut out[0], _mm256_shuffle_ps::<0x44>(t0, t1));
                store_f32x8(&mut out[1], _mm256_shuffle_ps::<0xEE>(t0, t1));
                store_f32x8(&mut out[2], _mm256_shuffle_ps::<0x44>(t2, t3));
                store_f32x8(&mut out[3], _mm256_shuffle_ps::<0xEE>(t2, t3));
                continue;
            }
            if 8 * ob + 8 <= o {
                for q in (0..p8).step_by(8) {
                    let r = std::array::from_fn(|l| head(&rows[l * p + q..]));
                    for (d, v) in out[q..q + 8].iter_mut().zip(transpose8_rows(r)) {
                        store_f32x8(d, v);
                    }
                }
            }
            let full = if 8 * ob + 8 <= o { p8 } else { 0 };
            for (pp, d) in out.iter_mut().enumerate().skip(full) {
                *d = std::array::from_fn(|l| if 8 * ob + l < o { rows[l * p + pp] } else { 0.0 });
            }
        }
    }

    /// `R` broadcast rows (`cols` at stride `p`) against every lane row of
    /// one sample's transposed `dyt` ([`transpose_blocks`]), each partial
    /// added into its `acc` element (rows of `o` lanes): 16 lanes at a time,
    /// then the last 8 or fewer.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dw_tile<const R: usize>(
        dyt: &[[f32; 8]],
        cols: &[f32],
        acc: &mut [f32],
        (o, p): (usize, usize),
    ) {
        let rows: [&[f32]; R] = std::array::from_fn(|r| &cols[r * p..][..p]);
        let block = |ob: usize| &dyt[ob * p..][..p];
        let mut fold = |r: usize, ob: usize, v: __m256| {
            let a = &mut acc[r * o + 8 * ob..(r * o + 8 * ob + 8).min((r + 1) * o)];
            store_f32x8_partial(a, _mm256_add_ps(load_f32x8_partial(a), v));
        };
        let blocks = o.div_ceil(8);
        for ob in (0..blocks - blocks % 2).step_by(2) {
            dw_block::<R, 2>(&rows, [block(ob), block(ob + 1)], |r, h, v| fold(r, ob + h, v));
        }
        if blocks % 2 == 1 {
            dw_block::<R, 1>(&rows, [block(blocks - 1)], |r, _, v| fold(r, blocks - 1, v));
        }
    }

    /// One `R × 8H` block of partials over ascending `p`: `d[h][p]` is `dy`
    /// at `p` for 8 `o`, times the broadcast `rows[r][p]`; 8 `p` a step, so
    /// the step's bounds are checked once.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dw_block<const R: usize, const H: usize>(
        rows: &[&[f32]; R],
        d: [&[[f32; 8]]; H],
        mut fold: impl FnMut(usize, usize, __m256),
    ) {
        let mut part = [[_mm256_setzero_ps(); H]; R];
        let mut step = |c: [f32; R], dv: [__m256; H]| {
            for (part, &c) in part.iter_mut().zip(&c) {
                let c = _mm256_set1_ps(c);
                for (part, &dv) in part.iter_mut().zip(&dv) {
                    *part = _mm256_add_ps(*part, _mm256_mul_ps(dv, c));
                }
            }
        };
        let p = rows[0].len();
        let p8 = p - p % 8;
        for q in (0..p8).step_by(8) {
            let c: [&[f32; 8]; R] = std::array::from_fn(|r| head(&rows[r][q..]));
            let dq: [&[[f32; 8]; 8]; H] = std::array::from_fn(|h| head(&d[h][q..]));
            for i in 0..8 {
                step(
                    std::array::from_fn(|r| c[r][i]),
                    std::array::from_fn(|h| load_f32x8(&dq[h][i])),
                );
            }
        }
        for pp in p8..p {
            step(
                std::array::from_fn(|r| rows[r][pp]),
                std::array::from_fn(|h| load_f32x8(&d[h][pp])),
            );
        }
        for (r, part) in part.iter().enumerate() {
            for (h, &v) in part.iter().enumerate() {
                fold(r, h, v);
            }
        }
    }

    /// One sample's partials at `O < 8`: `kk` in pairs, one register per
    /// `o` holding both dot trees; 8 `p` a step, so the step's bounds are
    /// checked once.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dw_dots<const O: usize>(dy: &[f32], cols: &[f32], acc: &mut [f32], p: usize) {
        let kr = acc.len() / O;
        let (p8, p4) = (p - p % 8, p - p % 4);
        let d: [&[f32]; O] = std::array::from_fn(|oc| &dy[oc * p..][..p]);
        for kk in (0..kr).step_by(2) {
            let pair = kk + 1 < kr;
            let c0 = &cols[kk * p..][..p];
            let c1 = if pair { &cols[(kk + 1) * p..][..p] } else { c0 };
            let mut v = [_mm256_setzero_ps(); O];
            // Four `p` of both rows: each `dy` row broadcast to both halves.
            let mut step = |c0: &[f32; 4], c1: &[f32; 4], d: [&[f32; 4]; O]| {
                let c = _mm256_set_m128(load_f32x4(c1), load_f32x4(c0));
                for (v, d) in v.iter_mut().zip(d) {
                    let x = load_f32x4(d);
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(_mm256_set_m128(x, x), c));
                }
            };
            for q in (0..p8).step_by(8) {
                let (a0, a1) = (head::<f32, 8>(&c0[q..]), head::<f32, 8>(&c1[q..]));
                let dq: [&[f32; 8]; O] = std::array::from_fn(|oc| head(&d[oc][q..]));
                step(head(a0), head(a1), std::array::from_fn(|oc| head(dq[oc])));
                step(head(&a0[4..]), head(&a1[4..]), std::array::from_fn(|oc| head(&dq[oc][4..])));
            }
            if p4 > p8 {
                step(
                    head(&c0[p8..]),
                    head(&c1[p8..]),
                    std::array::from_fn(|oc| head(&d[oc][p8..])),
                );
            }
            for (oc, (&v, d)) in v.iter().zip(&d).enumerate() {
                let tail = |c: &[f32]| (p4..p).fold(0.0f32, |t, i| t + d[i] * c[i]);
                // Per half: lanes (l0 + l2, l1 + l3), then their sum.
                let t = _mm256_add_ps(v, _mm256_permute_ps::<0b01_00_11_10>(v));
                let t = _mm256_add_ps(t, _mm256_permute_ps::<0b01>(t));
                acc[kk * O + oc] += _mm256_cvtss_f32(t) + tail(c0);
                if pair {
                    let hi = _mm_cvtss_f32(_mm256_extractf128_ps::<1>(t));
                    acc[(kk + 1) * O + oc] += hi + tail(c1);
                }
            }
        }
    }

    /// `bt (k, n)` from `b (n, k)`: 8 × 8 blocks through registers
    /// ([`transpose8`]), the edges element by element.
    #[target_feature(enable = "avx2")]
    pub(super) fn transpose(b: &[f32], (n, k): (usize, usize), bt: &mut [f32]) {
        let (n8, k8) = (n - n % 8, k - k % 8);
        for j0 in (0..n8).step_by(8) {
            for k0 in (0..k8).step_by(8) {
                let r = std::array::from_fn(|i| head(&b[(j0 + i) * k + k0..]));
                for (i, v) in transpose8_rows(r).into_iter().enumerate() {
                    store_f32x8(head_mut(&mut bt[(k0 + i) * n + j0..]), v);
                }
            }
        }
        for (j, brow) in b.chunks_exact(k).enumerate() {
            let from = if j < n8 { k8 } else { 0 };
            for (kk, &v) in brow.iter().enumerate().skip(from) {
                bt[kk * n + j] = v;
            }
        }
    }

    /// The `I32` / `Sat16` tile over output rows `rows = A_range · B`.
    ///
    /// Output columns go 16 (`I32`) or 32 (`Sat16`) at a time, and each
    /// [`MR`]-row tile keeps its accumulators in registers over the whole of
    /// `k`, streaming one column block of `B` that stays in L1 across tiles.
    /// A tile reads only the `k` at which one of its rows has a nonzero
    /// coefficient, in ascending order — the terms skipped are exact zeros.
    /// Column tails fold element by element over the same `k`.
    #[target_feature(enable = "avx2")]
    pub(super) fn qgemm_rows<const SAT16: bool>(
        a: &[i8],
        (row_stride, k_stride): (usize, usize),
        b: &[i8],
        rows: &mut [i32],
        (k, n): (usize, usize),
    ) {
        if n == 0 {
            return;
        }
        let m = rows.len() / n;
        let tiles = m.div_ceil(MR);
        // Per tile, its nonzero `k` (`nz[t·k..][..counts[t]]`) and the tile's
        // coefficients at each, `MR` to a `k` (rows past `m` are zero).
        with_scratch(tiles * k, |nz: &mut [u32]| {
            with_scratch(tiles * k * MR, |coef: &mut [i8]| {
                with_scratch(tiles, |counts: &mut [usize]| {
                    for (t, count) in counts.iter_mut().enumerate() {
                        let (nz, coef) = (&mut nz[t * k..][..k], &mut coef[t * k * MR..][..k * MR]);
                        *count = 0;
                        for kk in 0..k {
                            let column = std::array::from_fn::<i8, MR, _>(|r| {
                                let i = t * MR + r;
                                if i < m {
                                    a[i * row_stride + kk * k_stride]
                                } else {
                                    0
                                }
                            });
                            if column != [0; MR] {
                                nz[*count] = kk as u32;
                                coef[*count * MR..][..MR].copy_from_slice(&column);
                                *count += 1;
                            }
                        }
                    }
                    let tile = |t: usize| {
                        let count = counts[t];
                        (&nz[t * k..][..count], &coef[t * k * MR..][..count * MR])
                    };
                    let width = if SAT16 { 32 } else { 16 };
                    let blocked = n - n % width;
                    for j0 in (0..blocked).step_by(width) {
                        for (t, out) in rows.chunks_mut(MR * n).enumerate() {
                            let (nz, coef) = tile(t);
                            if SAT16 {
                                block_sat16(nz, coef, b, n, j0, out);
                            } else {
                                block_i32(nz, coef, b, n, j0, out);
                            }
                        }
                    }
                    for (t, out) in rows.chunks_mut(MR * n).enumerate() {
                        let (nz, coef) = tile(t);
                        for (r, orow) in out.chunks_exact_mut(n).enumerate() {
                            for (j, o) in orow.iter_mut().enumerate().skip(blocked) {
                                *o = fold_column::<SAT16>(nz, coef, r, b, n, j);
                            }
                        }
                    }
                });
            });
        });
    }

    /// Element `(r, j)` of a tile: its terms over `nz` in ascending order.
    #[inline]
    fn fold_column<const SAT16: bool>(
        nz: &[u32],
        coef: &[i8],
        r: usize,
        b: &[i8],
        n: usize,
        j: usize,
    ) -> i32 {
        let terms = nz.iter().zip(coef.chunks_exact(MR));
        terms.fold(0i32, |acc, (&kk, c)| {
            let p = c[r] as i16 * b[kk as usize * n + j] as i16;
            if SAT16 {
                (acc as i16).saturating_add(p) as i32
            } else {
                acc + p as i32
            }
        })
    }

    /// 16 columns from `j0` of one `I32` tile: `k` in pairs, one `vpmaddwd`
    /// per row and 8 columns adding two exact products.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn block_i32(nz: &[u32], coef: &[i8], b: &[i8], n: usize, j0: usize, out: &mut [i32]) {
        let zero = _mm256_setzero_si256();
        let mut acc = [[zero; 2]; MR];
        let row = |kk: u32| load_i8x16(head(&b[kk as usize * n + j0..]));
        let (pairs, odd) = nz.as_chunks::<2>();
        let (cpairs, codd) = coef.as_chunks::<{ 2 * MR }>();
        // `c` holds the tile's coefficients at `k0`, then at `k1`.
        let mut add = |x0: __m128i, x1: __m128i, c: &[i8; 2 * MR]| {
            // Columns interleaved as (k0, k1) pairs of i16.
            let lo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(x0, x1));
            let hi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(x0, x1));
            for (r, acc) in acc.iter_mut().enumerate() {
                let (a0, a1) = (c[r] as i16 as u16 as u32, c[MR + r] as i16 as u16 as u32);
                let pair = _mm256_set1_epi32((a0 | a1 << 16) as i32);
                acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(lo, pair));
                acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(hi, pair));
            }
        };
        for (&[k0, k1], c) in pairs.iter().zip(cpairs) {
            add(row(k0), row(k1), c);
        }
        if let [k0] = *odd {
            let mut c = [0; 2 * MR];
            c[..MR].copy_from_slice(codd);
            add(row(k0), _mm_setzero_si128(), &c);
        }
        for (acc, orow) in acc.iter().zip(out.chunks_exact_mut(n)) {
            store_i32x8(head_mut(&mut orow[j0..]), acc[0]);
            store_i32x8(head_mut(&mut orow[j0 + 8..]), acc[1]);
        }
    }

    /// 32 columns from `j0` of one `Sat16` tile: one `i16` lane per column,
    /// one `k` at a time, each product (exact in `i16`) added saturating.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn block_sat16(nz: &[u32], coef: &[i8], b: &[i8], n: usize, j0: usize, out: &mut [i32]) {
        let zero = _mm256_setzero_si256();
        let mut acc = [[zero; 2]; MR];
        for (&kk, c) in nz.iter().zip(coef.chunks_exact(MR)) {
            let at = kk as usize * n + j0;
            let lo = _mm256_cvtepi8_epi16(load_i8x16(head(&b[at..])));
            let hi = _mm256_cvtepi8_epi16(load_i8x16(head(&b[at + 16..])));
            for (acc, &c) in acc.iter_mut().zip(c) {
                let c = _mm256_set1_epi16(c as i16);
                acc[0] = _mm256_adds_epi16(acc[0], _mm256_mullo_epi16(lo, c));
                acc[1] = _mm256_adds_epi16(acc[1], _mm256_mullo_epi16(hi, c));
            }
        }
        for (acc, orow) in acc.iter().zip(out.chunks_exact_mut(n)) {
            for (h, &v) in acc.iter().enumerate() {
                let at = j0 + 16 * h;
                let (v0, v1) = (_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
                store_i32x8(head_mut(&mut orow[at..]), _mm256_cvtepi16_epi32(v0));
                store_i32x8(head_mut(&mut orow[at + 8..]), _mm256_cvtepi16_epi32(v1));
            }
        }
    }

    /// The exact `I32` dot, 16 elements a step through `vpmaddwd`.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot(x: &[i8], y: &[i8]) -> i32 {
        let (xb, xt) = x.as_chunks::<16>();
        let (yb, yt) = y[..x.len()].as_chunks::<16>();
        let mut acc = _mm256_setzero_si256();
        for (x, y) in xb.iter().zip(yb) {
            let (x, y) = (_mm256_cvtepi8_epi16(load_i8x16(x)), _mm256_cvtepi8_epi16(load_i8x16(y)));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(x, y));
        }
        let mut lanes = [0i32; 8];
        store_i32x8(&mut lanes, acc);
        let tail: i32 = xt.iter().zip(yt).map(|(&x, &y)| x as i32 * y as i32).sum();
        lanes.iter().sum::<i32>() + tail
    }

    /// `out[i] = acc[i] · scale (+ bias)` for channel `oc`, 8 lanes a step.
    #[target_feature(enable = "avx2")]
    pub(super) fn requant_row(out: &mut [f32], acc: &[i32], oc: usize, ep: Requant<'_>) {
        let (scale, bias) = (ep.scale(oc), ep.bias(oc));
        let (vs, vb) = (_mm256_set1_ps(scale), _mm256_set1_ps(bias.unwrap_or(0.0)));
        let (ob, ot) = out.as_chunks_mut::<8>();
        let (ab, at) = acc[..ob.len() * 8 + ot.len()].as_chunks::<8>();
        for (o, a) in ob.iter_mut().zip(ab) {
            let v = _mm256_mul_ps(_mm256_cvtepi32_ps(load_i32x8(a)), vs);
            store_f32x8(o, if bias.is_some() { _mm256_add_ps(v, vb) } else { v });
        }
        for (o, &a) in ot.iter_mut().zip(at) {
            *o = requant(a, scale, bias);
        }
    }

    /// The scalar epilogue, exactly as the portable `finish` writes it.
    #[inline(always)]
    fn requant(a: i32, scale: f32, bias: Option<f32>) -> f32 {
        match bias {
            Some(bias) => a as f32 * scale + bias,
            None => a as f32 * scale,
        }
    }

    /// One sample's int8 event scatter: the shared tap walk ([`walk_taps`])
    /// in `i32` lanes, clamped to the `i16` range after every add for `Sat16`
    /// (`saturating_add` of two in-range values is the clamped exact sum),
    /// then the requantizing transpose into the sample's `(O, Oh·Ow)` output.
    #[target_feature(enable = "avx2")]
    pub(super) fn scatter<const SAT16: bool>(
        taps: Taps<'_>,
        wt: &[i32],
        out_s: &mut [f32],
        o: usize,
        ep: Requant<'_>,
    ) {
        let (lo, hi) = (_mm256_set1_epi32(i16::MIN as i32), _mm256_set1_epi32(i16::MAX as i32));
        let block = |a: &mut [i32; 8], w: &[i32; 8]| {
            let s = _mm256_add_epi32(load_i32x8(a), load_i32x8(w));
            store_i32x8(a, if SAT16 { _mm256_min_epi32(_mm256_max_epi32(s, lo), hi) } else { s });
        };
        let lane = |a: i32, w: i32| {
            if SAT16 {
                (a as i16).saturating_add(w as i16) as i32
            } else {
                a + w
            }
        };
        walk_taps(taps, wt, out_s, o, (block, lane), |out, acc| {
            requant_transposed(out, acc, o, ep)
        });
    }

    /// One sample's f32 event scatter: the shared tap walk ([`walk_taps`])
    /// with one `vaddps` per 8 lanes — each lane the `a + w` of the portable
    /// `F32::add_term`, on a `+0.0`-born sum in the same tap order — then the
    /// sample's `(O, Oh·Ow)` output through the register [`transpose`].
    #[target_feature(enable = "avx2")]
    pub(super) fn f32_scatter(taps: Taps<'_>, wt: &[f32], out_s: &mut [f32], o: usize) {
        let block = |a: &mut [f32; 8], w: &[f32; 8]| {
            store_f32x8(a, _mm256_add_ps(load_f32x8(a), load_f32x8(w)));
        };
        let lane = |a: f32, w: f32| a + w;
        walk_taps(taps, wt, out_s, o, (block, lane), |out, acc| {
            transpose(acc, (out.len() / o, o), out);
        });
    }

    /// The tap walk both scatters share: one sample's taps into its zeroed
    /// `(Oh·Ow, O)` accumulator block, then `epilogue(out_s, block)`. Per tap
    /// ([`Taps::for_each`], so each element meets its events in the portable
    /// order) the `[C·Kh·Kw][O]` weight row of `wt` is added with `add.0`, 8
    /// lanes at a time, and the last `O mod 8` lanes with `add.1`. At `O` = 8,
    /// 16, 32 and 64 a row is a fixed number of 8-lane blocks
    /// ([`add_taps`]), so a tap is that many unrolled adds with no per-tap
    /// slicing; any other `O` goes through [`add_row`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn walk_taps<T: Scratch>(
        taps: Taps<'_>,
        wt: &[T],
        out_s: &mut [f32],
        o: usize,
        add: (impl Fn(&mut [T; 8], &[T; 8]) + Copy, impl Fn(T, T) -> T + Copy),
        epilogue: impl FnOnce(&mut [f32], &[T]),
    ) {
        with_scratch_zeroed(out_s.len(), |acc: &mut [T]| {
            match o {
                8 => add_taps::<T, 1>(taps, wt, acc, add.0),
                16 => add_taps::<T, 2>(taps, wt, acc, add.0),
                32 => add_taps::<T, 4>(taps, wt, acc, add.0),
                64 => add_taps::<T, 8>(taps, wt, acc, add.0),
                _ => taps.for_each(|row, opos| {
                    add_row(&mut acc[opos * o..][..o], &wt[row * o..][..o], add);
                }),
            }
            epilogue(out_s, acc);
        });
    }

    /// The taps at `O = 8 · NB`: `NB` fixed 8-lane blocks a row.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_taps<T: Copy, const NB: usize>(
        taps: Taps<'_>,
        wt: &[T],
        acc: &mut [T],
        block: impl Fn(&mut [T; 8], &[T; 8]),
    ) {
        let acc = acc.as_chunks_mut::<8>().0.as_chunks_mut::<NB>().0;
        let wt = wt.as_chunks::<8>().0.as_chunks::<NB>().0;
        taps.for_each(|row, opos| {
            for (a, w) in acc[opos].iter_mut().zip(&wt[row]) {
                block(a, w);
            }
        });
    }

    /// `acc += w` lane for lane: `add.0` 8 lanes at a time, `add.1` the rest.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_row<T: Copy>(
        acc: &mut [T],
        w: &[T],
        (block, lane): (impl Fn(&mut [T; 8], &[T; 8]), impl Fn(T, T) -> T),
    ) {
        let (ab, at) = acc.as_chunks_mut::<8>();
        let (wb, wt) = w.as_chunks::<8>();
        for (a, w) in ab.iter_mut().zip(wb) {
            block(a, w);
        }
        for (a, &w) in at.iter_mut().zip(wt) {
            *a = lane(*a, w);
        }
    }

    /// `out (O, P)` from `acc (P, O)` through the epilogue: 8 positions × 8
    /// channels are converted, transposed in registers and scaled per
    /// channel; the edges go element by element.
    #[target_feature(enable = "avx2")]
    fn requant_transposed(out: &mut [f32], acc: &[i32], o: usize, ep: Requant<'_>) {
        let p = out.len() / o;
        let (o8, p8) = (o - o % 8, p - p % 8);
        for oc0 in (0..o8).step_by(8) {
            let scale: [f32; 8] = std::array::from_fn(|c| ep.scale(oc0 + c));
            let bias: [Option<f32>; 8] = std::array::from_fn(|c| ep.bias(oc0 + c));
            for p0 in (0..p8).step_by(8) {
                let r: [__m256; 8] = std::array::from_fn(|i| {
                    _mm256_cvtepi32_ps(load_i32x8(head(&acc[(p0 + i) * o + oc0..])))
                });
                for (c, col) in transpose8(r).into_iter().enumerate() {
                    let v = _mm256_mul_ps(col, _mm256_set1_ps(scale[c]));
                    let v = match bias[c] {
                        Some(b) => _mm256_add_ps(v, _mm256_set1_ps(b)),
                        None => v,
                    };
                    store_f32x8(head_mut(&mut out[(oc0 + c) * p + p0..]), v);
                }
            }
            for c in 0..8 {
                for q in p8..p {
                    out[(oc0 + c) * p + q] = requant(acc[q * o + oc0 + c], scale[c], bias[c]);
                }
            }
        }
        for oc in o8..o {
            let (scale, bias) = (ep.scale(oc), ep.bias(oc));
            for (q, v) in out[oc * p..][..p].iter_mut().enumerate() {
                *v = requant(acc[q * o + oc], scale, bias);
            }
        }
    }

    /// Positions `p..p + 8` of a norm lane block's run, position-major:
    /// lane `j` of register `i` is `run[off[j] + p + i]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_rows(run: &[f32], off: &[usize; 8], p: usize) -> [__m256; 8] {
        transpose8(std::array::from_fn(|j| load_f32x8(head(&run[off[j] + p..]))))
    }

    /// Position `p` of a norm lane block's run: lane `j` is `run[off[j] +
    /// p]`, `off` ascending from 0 to `last`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lane_column(run: &[f32], off: __m256i, last: usize, p: usize) -> __m256 {
        assert!(last + p < run.len(), "lane column past its run");
        // SAFETY: lane `j` reads `run[off[j] + p]`, and `off[j] ≤ last` with
        // `last + p` inside `run` (asserted): every element read is in it.
        unsafe { _mm256_i32gather_ps::<4>(run.as_ptr().add(p), off) }
    }

    /// A norm lane block's offsets (`LaneBlock::offsets`), as gather
    /// indices, and the last of them.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gather_offsets(off: &[usize; 8]) -> (__m256i, usize) {
        let idx: [i32; 8] = off.map(|o| i32::try_from(o).expect("norm plane offset fits i32"));
        (load_i32x8(&idx), off[7])
    }

    /// The avx2 norm statistics: each sample's 8 channel planes
    /// position-major through [`transpose8`] (the last `plane mod 8`
    /// positions through a gather), one lane per channel; each lane adds its
    /// values (or with `DEV` their squared deviations from `mean`) to a
    /// `−0.0` in ascending position, and that partial to a `+0.0` fold in
    /// sample order, as the portable body does.
    #[target_feature(enable = "avx2")]
    pub(super) fn plane_sums<const DEV: bool>(
        x: &[f32],
        block: LaneBlock,
        mean: &[f32; 8],
    ) -> [f32; 8] {
        let (off, plane) = (block.offsets(), block.plane);
        let m = load_f32x8(mean);
        let term = |v: __m256| {
            if DEV {
                let d = _mm256_sub_ps(v, m);
                _mm256_mul_ps(d, d)
            } else {
                v
            }
        };
        let p8 = plane - plane % 8;
        let mut acc = _mm256_setzero_ps();
        for s in 0..block.samples {
            let run = block.run(x, s);
            let mut part = _mm256_set1_ps(-0.0);
            for p0 in (0..p8).step_by(8) {
                for v in lane_rows(run, &off, p0) {
                    part = _mm256_add_ps(part, term(v));
                }
            }
            if p8 < plane {
                let (idx, last) = gather_offsets(&off);
                for p in p8..plane {
                    part = _mm256_add_ps(part, term(lane_column(run, idx, last, p)));
                }
            }
            acc = _mm256_add_ps(acc, part);
        }
        let mut sums = [0.0f32; 8];
        store_f32x8(&mut sums, acc);
        sums
    }

    /// The avx2 norm backward: `dy` and `x` position-major as in
    /// [`plane_sums`], the two chains of every lane in registers, a multiply
    /// then an add per term (no fused multiply-add).
    #[target_feature(enable = "avx2")]
    pub(super) fn grad_sums(
        dy: &[f32],
        x: &[f32],
        block: LaneBlock,
        (mean, inv): (&[f32; 8], &[f32; 8]),
    ) -> [[f32; 8]; 2] {
        let (off, plane) = (block.offsets(), block.plane);
        let (idx, last) = gather_offsets(&off);
        let (m, inv) = (load_f32x8(mean), load_f32x8(inv));
        let (mut sdy, mut sdx) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let mut step = |g: __m256, v: __m256| {
            sdy = _mm256_add_ps(sdy, g);
            sdx = _mm256_add_ps(sdx, _mm256_mul_ps(g, _mm256_mul_ps(_mm256_sub_ps(v, m), inv)));
        };
        let p8 = plane - plane % 8;
        for s in 0..block.samples {
            let (gs, xs) = (block.run(dy, s), block.run(x, s));
            for p0 in (0..p8).step_by(8) {
                for (g, v) in lane_rows(gs, &off, p0).into_iter().zip(lane_rows(xs, &off, p0)) {
                    step(g, v);
                }
            }
            for p in p8..plane {
                step(lane_column(gs, idx, last, p), lane_column(xs, idx, last, p));
            }
        }
        let mut sums = [[0.0f32; 8]; 2];
        store_f32x8(&mut sums[0], sdy);
        store_f32x8(&mut sums[1], sdx);
        sums
    }

    /// The 8 × 8 transpose of eight rows in memory: lane `j` of the result's
    /// vector `i` is `rows[j][i]`. Each register is loaded as the matching
    /// halves of rows `r` and `r + 4` (the lane-crossing step, done by the
    /// loads), leaving 16 in-lane shuffles where [`transpose8`] takes 24.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8_rows(rows: [&[f32; 8]; 8]) -> [__m256; 8] {
        let t: [__m256; 8] = std::array::from_fn(|i| {
            let (r, half) = (i % 4, 4 * (i / 4));
            let lo = _mm256_castps128_ps256(load_f32x4(head(&rows[r][half..])));
            _mm256_insertf128_ps::<1>(lo, load_f32x4(head(&rows[r + 4][half..])))
        });
        let u: [__m256; 8] = std::array::from_fn(|i| {
            let (a, b) = (t[i / 2 / 2 * 4 + i / 2 % 2 * 2], t[i / 2 / 2 * 4 + i / 2 % 2 * 2 + 1]);
            if i % 2 == 0 {
                _mm256_unpacklo_ps(a, b)
            } else {
                _mm256_unpackhi_ps(a, b)
            }
        });
        std::array::from_fn(|c| {
            let (g, j) = (c / 4, c % 4);
            let (a, b) = (u[4 * g + j / 2], u[4 * g + 2 + j / 2]);
            if j % 2 == 0 {
                _mm256_shuffle_ps::<0x44>(a, b)
            } else {
                _mm256_shuffle_ps::<0xEE>(a, b)
            }
        })
    }

    /// The 8 × 8 transpose: lane `j` of row `i` becomes lane `i` of row `j`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t: [__m256; 8] = std::array::from_fn(|i| {
            let (x, y) = (r[i / 2 * 2], r[i / 2 * 2 + 1]);
            if i % 2 == 0 {
                _mm256_unpacklo_ps(x, y)
            } else {
                _mm256_unpackhi_ps(x, y)
            }
        });
        // u[4h + 0..4]: rows 4h..4h+4 at lanes {0, 1, 2, 3} (+ 4 in the high half).
        let u: [__m256; 8] = std::array::from_fn(|i| {
            let (h, j) = (i / 4, i % 4);
            let (x, y) = (t[4 * h + j / 2], t[4 * h + 2 + j / 2]);
            if j % 2 == 0 {
                _mm256_shuffle_ps::<0x44>(x, y)
            } else {
                _mm256_shuffle_ps::<0xEE>(x, y)
            }
        });
        std::array::from_fn(|c| {
            let (x, y) = (u[c % 4], u[4 + c % 4]);
            if c < 4 {
                _mm256_permute2f128_ps::<0x20>(x, y)
            } else {
                _mm256_permute2f128_ps::<0x31>(x, y)
            }
        })
    }
}
