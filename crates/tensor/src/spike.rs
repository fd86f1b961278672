//! Bit-packed spike tensors and event-driven sparse kernels for the
//! inference plane.
//!
//! SNN activations are binary spikes, and at serving time most of them are
//! zero: the dense im2col GEMM pays a full multiply-add per zero. This
//! module exploits that sparsity without giving up the workspace's
//! bit-determinism contract:
//!
//! * [`SpikeTensor`] — a bit-packed view of a binary `f32` tensor, 64
//!   lanes per `u64` word. Packing validates binarity and measures spike
//!   density (popcount) in the same single pass, so the dispatcher's
//!   density measurement is a by-product of building the representation.
//! * [`sparse_conv2d`] / [`sparse_qconv2d`] — one event-scatter driver at the
//!   f32 and the integer `Mac` (see `runtime/gemm.rs`): iterate only the
//!   firing positions and scatter weight values for them into the type's
//!   accumulators, then out through its epilogue. [`sparse_linear`] /
//!   [`sparse_qlinear`] are one event-driven linear layer at the same `Mac`s,
//!   on the row driver they share with `qlinear`. The int8 paths skip the
//!   quantize + im2col stages entirely: a spike quantizes to a known
//!   constant, so only the packed bits are consulted.
//! * [`SparseMode`] — the `TTSNN_SPARSE_MODE` dispatch override
//!   (`auto`/`force`/`off`) used by the model-layer dispatcher.
//!
//! # Bit-determinism
//!
//! Sparse results are **bit-identical to the dense kernels**, not merely
//! close, across 1–8 threads and every dispatch mode. The argument:
//!
//! * Dense `conv2d`/`gemm` accumulate each output element with a single
//!   accumulator in ascending patch order `kk = (c·Kh + ki)·Kw + kj`.
//!   Iterating spike events in ascending `(c, ii, jj)` input order
//!   delivers each output element its contributions in exactly that
//!   ascending `kk` order, so the surviving floating-point additions are
//!   the same operations in the same order.
//! * The skipped terms are exact zeros: a spike is exactly `0.0` or
//!   `1.0`, and for finite weights `w · 0.0` is a signed zero that cannot
//!   change an accumulator that starts at `+0.0` (a running sum that
//!   starts at `+0.0` can never become `-0.0` under round-to-nearest),
//!   while `w · 1.0` is bitwise `w`. Skipping zero-spike terms therefore
//!   leaves every intermediate bit pattern unchanged. (Non-finite
//!   *weights* would break this — `0 · NaN` is `NaN` — so the sparse
//!   path is only used for inference weights, which are finite by
//!   construction; the serving engine already rejects non-finite
//!   inputs.)
//! * The dense per-sample linear path computes each output with the f32
//!   `Mac`'s 4-lane dot ([`gemm_a_bt`](crate::runtime::gemm_a_bt) at
//!   `m = 1`); its dot over events replicates the lane structure exactly
//!   (`kk → lane kk mod 4`, remainder into the tail, same final reduction
//!   tree).
//! * Int8: i32 accumulation is exact, and a saturating i16 fold is
//!   unchanged by zero terms (`saturating_add(acc, 0) == acc`) as long
//!   as the nonzero terms keep their order — which the ascending event
//!   order guarantees.
//!
//! As in the rest of the runtime, every output element is produced by
//! exactly one thread (parallelism splits disjoint output ranges), so
//! results are bit-identical across thread counts by construction.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::conv::{check_input, check_weight, Conv2dGeometry};
use crate::error::ShapeError;
use crate::qkernels::{
    by_accum, check_qlinear, check_qweight, linear_rows, QAccum, Requant, Sat16, I32,
};
use crate::runtime::{self, with_scratch, Mac, Runtime, F32};
use crate::shape::num_elements;
use crate::tensor::Tensor;

// ---------------------------------------------------------------------------
// SpikeTensor

/// A bit-packed binary tensor: 64 elements per `u64` word, element `i` at
/// bit `i % 64` of word `i / 64`. Built from an `f32` tensor whose
/// elements are all exactly `0.0` or `1.0` — by [`SpikeTensor::try_pack`],
/// which validates, packs and measures density in one pass, or by the LIF
/// scan that wrote those elements ([`crate::lif::scan`]), which has no need
/// to look at them again. The word buffer is checked out of the thread's
/// arena and goes back to it when the tensor is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeTensor {
    shape: Vec<usize>,
    words: Vec<u64>,
    ones: usize,
}

impl Drop for SpikeTensor {
    fn drop(&mut self) {
        runtime::recycle_buffer(std::mem::take(&mut self.words));
    }
}

thread_local! {
    static PACK_ATTEMPTS: Cell<u64> = const { Cell::new(0) };
}

/// [`SpikeTensor::try_pack`] calls ever made on this thread. Monotonic;
/// tests difference it to show where the float-by-float scan still runs.
pub fn pack_attempts() -> u64 {
    PACK_ATTEMPTS.with(Cell::get)
}

impl SpikeTensor {
    /// A pack of a `shape` tensor whose producer is about to write every
    /// word itself and then [`SpikeTensor::set_ones`].
    pub(crate) fn unfilled(shape: &[usize]) -> Self {
        let words = runtime::take_buffer(num_elements(shape).div_ceil(64));
        Self { shape: shape.to_vec(), words, ones: 0 }
    }

    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    pub(crate) fn set_ones(&mut self, ones: usize) {
        self.ones = ones;
    }

    /// Packs a binary `f32` tensor, or returns `None` if any element is
    /// not exactly `0.0` or `1.0` (so callers fall back to the dense
    /// kernels for non-spike activations). `-0.0` packs as no-spike.
    pub fn try_pack(x: &Tensor) -> Option<Self> {
        PACK_ATTEMPTS.with(|c| c.set(c.get() + 1));
        let data = x.data();
        // Every word is written below; a rejected pack drops `packed`,
        // which hands the buffer straight back.
        let mut packed = Self::unfilled(x.shape());
        for (word, chunk) in packed.words.iter_mut().zip(data.chunks(64)) {
            let mut w = 0u64;
            for (bit, &v) in chunk.iter().enumerate() {
                if v == 1.0 {
                    w |= 1u64 << bit;
                } else if v != 0.0 {
                    return None;
                }
            }
            packed.ones += w.count_ones() as usize;
            *word = w;
        }
        Some(packed)
    }

    /// Logical shape of the packed tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of firing positions (set bits).
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Fraction of elements that are spikes, in `[0, 1]` (`0.0` for an
    /// empty tensor).
    pub fn density(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.ones as f64 / self.len() as f64
        }
    }

    /// Whether element `idx` (row-major) is a spike.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len(), "SpikeTensor::get: index {idx} out of bounds");
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Unpacks back to a dense `f32` tensor of `0.0`/`1.0`.
    pub fn unpack(&self) -> Tensor {
        let mut x = Tensor::scratch(&self.shape);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = if self.words[i / 64] >> (i % 64) & 1 == 1 { 1.0 } else { 0.0 };
        }
        x
    }

    /// Writes the indices of set bits in `start..end`, relative to
    /// `start`, in ascending order, into the front of `out`; returns how
    /// many there were.
    fn write_events(&self, start: usize, end: usize, out: &mut [u32]) -> usize {
        let mut n = 0;
        for wi in start / 64..end.div_ceil(64) {
            let bit_base = wi * 64;
            let mut word = self.words[wi];
            let lo = start.saturating_sub(bit_base);
            if lo > 0 {
                word &= u64::MAX << lo;
            }
            let hi = (bit_base + 64).saturating_sub(end);
            if hi > 0 {
                word &= u64::MAX >> hi;
            }
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                out[n] = (bit_base + b - start) as u32;
                n += 1;
                word &= word - 1;
            }
        }
        n
    }
}

/// Gathers per-sample event lists into arena scratch and runs
/// `f(events, offsets)` on them: sample `s`'s events (indices within the
/// sample slab, ascending) are `events[offsets[s]..offsets[s + 1]]`.
fn with_events<R>(
    spikes: &SpikeTensor,
    slab: usize,
    b: usize,
    f: impl FnOnce(&[u32], &[usize]) -> R,
) -> R {
    with_scratch(spikes.ones(), |events: &mut [u32]| {
        with_scratch(b + 1, |offsets: &mut [usize]| {
            offsets[0] = 0;
            for s in 0..b {
                let at = offsets[s];
                offsets[s + 1] =
                    at + spikes.write_events(s * slab, (s + 1) * slab, &mut events[at..]);
            }
            f(events, offsets)
        })
    })
}

// ---------------------------------------------------------------------------
// Dispatch mode

/// Default spike-density threshold for [`SparseMode::Auto`]: sites at or
/// below this density route to the sparse kernels. Set from the measured
/// crossover of the `spike_sparsity` bench on the dev container (the
/// event-driven kernels win below ~0.3 density; see
/// `BENCH_spike_sparsity.json`).
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.25;

/// What scattering one event through one window tap costs in the f32
/// operations `runtime::fork_grain` counts in — the event-scatter driver's
/// grain for every `Mac`: a tap is an indirect read-modify-write, priced by
/// its indirection rather than its accumulator type, so `Mac::COST` (a
/// *streamed* operation) does not scale it. At density 0.13 the sparse
/// kernels touch 0.13 of the dense kernels' operands and finish in 1 / 1.7
/// (f32) to 1 / 3 (int8, itself 4 × the float cost per operation) of their
/// time (`tensor.sparse_conv_speedup_vs_dense`,
/// `tensor.sparse_qconv_speedup_vs_dense`), i.e. 10–20 float operations per tap.
const TAP_COST: usize = 16;

/// Dispatch policy for the density-adaptive sparse/dense router,
/// overridable with the `TTSNN_SPARSE_MODE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseMode {
    /// Measure density per call; route sparse at or below
    /// [`SPARSE_DENSITY_THRESHOLD`], dense above it.
    #[default]
    Auto,
    /// Always use the sparse kernel when the activation packs (it is
    /// binary); dense only for non-spike activations.
    Force,
    /// Never use the sparse kernels (skips packing entirely).
    Off,
}

impl SparseMode {
    /// Parses `"auto"`/`"force"`/`"off"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SparseMode::Auto),
            "force" => Some(SparseMode::Force),
            "off" => Some(SparseMode::Off),
            _ => None,
        }
    }

    /// Short name (`"auto"`/`"force"`/`"off"`).
    pub fn name(self) -> &'static str {
        match self {
            SparseMode::Auto => "auto",
            SparseMode::Force => "force",
            SparseMode::Off => "off",
        }
    }

    /// Whether a packed activation of the given density routes to the
    /// sparse kernel under this mode.
    pub fn routes_sparse(self, density: f64) -> bool {
        match self {
            SparseMode::Auto => density <= SPARSE_DENSITY_THRESHOLD,
            SparseMode::Force => true,
            SparseMode::Off => false,
        }
    }
}

/// The process-wide dispatch mode: `TTSNN_SPARSE_MODE` if set to a valid
/// mode, otherwise [`SparseMode::Auto`]. Read once and cached.
pub fn sparse_mode() -> SparseMode {
    static MODE: OnceLock<SparseMode> = OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("TTSNN_SPARSE_MODE")
            .ok()
            .and_then(|v| SparseMode::parse(&v))
            .unwrap_or_default()
    })
}

// ---------------------------------------------------------------------------
// The event-scatter driver

/// Valid kernel window positions for one event at input position
/// `(ii, jj)`: every `(kidx, opos)` with `kidx = ki·Kw + kj` and
/// `opos = oi·Ow + oj` such that output `(oi, oj)` reads the event
/// through kernel tap `(ki, kj)`. Written to the front of `wins` (at
/// most `Kh·Kw` of them); returns how many there were.
fn event_windows(ii: usize, jj: usize, g: &Conv2dGeometry, wins: &mut [(u32, u32)]) -> usize {
    let (kh, kw) = g.kernel;
    let (sh, sw) = g.stride;
    let (ph, pw) = g.padding;
    let (ohh, oww) = g.out_hw();
    let mut n = 0;
    for ki in 0..kh {
        if ii + ph < ki {
            break;
        }
        let oi_s = ii + ph - ki;
        if !oi_s.is_multiple_of(sh) {
            continue;
        }
        let oi = oi_s / sh;
        if oi >= ohh {
            continue;
        }
        for kj in 0..kw {
            if jj + pw < kj {
                break;
            }
            let oj_s = jj + pw - kj;
            if !oj_s.is_multiple_of(sw) {
                continue;
            }
            let oj = oj_s / sw;
            if oj >= oww {
                continue;
            }
            wins[n] = ((ki * kw + kj) as u32, (oi * oww + oj) as u32);
            n += 1;
        }
    }
    n
}

/// Expands one sample's events into the flat ascending `(wpos, opos)`
/// scatter list shared by every output channel: `wpos` indexes into a
/// channel's `(C·Kh·Kw)` weight row, `opos` into its `(Oh·Ow)` output
/// slab. Hoisting this out of the channel loop turns the scatter into
/// one tight streaming pass per channel; the list is ordered by event
/// (then tap), and taps of one event touch distinct outputs, so each
/// output element still accumulates its events in ascending order — the
/// dense kernels' order, keeping the bit-identity contract. The list
/// lives in arena scratch for the duration of `f`.
fn with_event_taps<R>(
    evs: &[u32],
    g: &Conv2dGeometry,
    taps: usize,
    f: impl FnOnce(&[(u32, u32)]) -> R,
) -> R {
    let hw = g.in_hw.0 * g.in_hw.1;
    with_scratch(taps, |wins: &mut [(u32, u32)]| {
        with_scratch(evs.len() * taps, |flat: &mut [(u32, u32)]| {
            let mut n = 0;
            for &e in evs {
                let e = e as usize;
                let (c, rem) = (e / hw, e % hw);
                let nwins = event_windows(rem / g.in_hw.1, rem % g.in_hw.1, g, wins);
                let wbase = (c * taps) as u32;
                for &(kidx, opos) in &wins[..nwins] {
                    flat[n] = (wbase + kidx, opos);
                    n += 1;
                }
            }
            f(&flat[..n])
        })
    })
}

/// Walks a `parallel_over_ranges` run of `(sample, channel)` slabs,
/// calling `f(sample, first_channel, channels_slice)` once per contiguous
/// same-sample group.
fn for_each_sample_group(
    run: &mut [f32],
    slab0: usize,
    ospatial: usize,
    out_channels: usize,
    mut f: impl FnMut(usize, usize, &mut [f32]),
) {
    let nslabs = run.len() / ospatial;
    let mut i = 0;
    while i < nslabs {
        let slab = slab0 + i;
        let (s, o_lo) = (slab / out_channels, slab % out_channels);
        let take = (out_channels - o_lo).min(nslabs - i);
        f(s, o_lo, &mut run[i * ospatial..(i + take) * ospatial]);
        i += take;
    }
}

/// The event-scatter convolution for every [`Mac`]: `w` is the kernel as
/// `(O, C·Kh·Kw)` rows, `ep` the type's epilogue. Checks the spikes against
/// `g`, opens the `name` region, gathers the events and forks over `(sample,
/// channel)` output planes at a grain taken from the input (a sample's events
/// × window taps × [`TAP_COST`]); each same-sample run of planes streams the
/// sample's tap list into the type's accumulators and out through `ep`.
fn event_conv<E: Mac>(
    name: &'static str,
    spikes: &SpikeTensor,
    w: &[E::Elem],
    ep: E::Epilogue<'_>,
    g: &Conv2dGeometry,
) -> Result<Tensor, ShapeError> {
    let _region = ttsnn_obs::region(name);
    let (b, oh, ow) = check_input(spikes.shape(), g)?;
    let mut out = Tensor::scratch(&[b, g.out_channels, oh, ow]);
    let (kdim, ospatial, taps) = (g.patch_len(), oh * ow, g.kernel.0 * g.kernel.1);
    let spike = E::spike(ep);
    with_events(spikes, g.in_slab(), b, |events, offsets| {
        let min_slabs = runtime::fork_grain(TAP_COST * events.len().div_ceil(b.max(1)) * taps);
        let rt = Runtime::current();
        rt.parallel_over_ranges(out.data_mut(), ospatial, min_slabs, |slab0, run| {
            for_each_sample_group(run, slab0, ospatial, g.out_channels, |s, o_lo, chans| {
                with_event_taps(&events[offsets[s]..offsets[s + 1]], g, taps, |flat| {
                    E::with_acc(chans, ospatial, o_lo, ep, |acc| {
                        acc.fill(E::ZERO);
                        scatter::<E>(flat, &w[o_lo * kdim..], kdim, spike, acc, ospatial);
                    });
                });
            });
        });
    });
    Ok(out)
}

/// Streams a sample's flat event-tap list into a contiguous run of
/// output-channel accumulator planes (`w` starting at the first one's weight
/// row), four channels per pass: the `(wpos, opos)` decode is amortized and
/// the four accumulation chains are independent, roughly doubling scatter
/// ILP. Channels are disjoint outputs and each channel still sees the list in
/// order, so bit-identity is untouched.
fn scatter<E: Mac>(
    flat: &[(u32, u32)],
    w: &[E::Elem],
    kdim: usize,
    spike: E::Elem,
    acc: &mut [E::Acc],
    ospatial: usize,
) {
    let mut wrows = w.chunks(kdim);
    let mut groups = acc.chunks_exact_mut(4 * ospatial);
    for group in &mut groups {
        let (c0, rest) = group.split_at_mut(ospatial);
        let (c1, rest) = rest.split_at_mut(ospatial);
        let (c2, c3) = rest.split_at_mut(ospatial);
        let mut wrow = || wrows.next().expect("one weight row per channel");
        let (w0, w1, w2, w3) = (wrow(), wrow(), wrow(), wrow());
        for &(wpos, opos) in flat {
            let (wi, o) = (wpos as usize, opos as usize);
            c0[o] = E::add_spike(c0[o], w0[wi], spike);
            c1[o] = E::add_spike(c1[o], w1[wi], spike);
            c2[o] = E::add_spike(c2[o], w2[wi], spike);
            c3[o] = E::add_spike(c3[o], w3[wi], spike);
        }
    }
    for (chan, wrow) in groups.into_remainder().chunks_mut(ospatial).zip(wrows) {
        for &(wpos, opos) in flat {
            let o = opos as usize;
            chan[o] = E::add_spike(chan[o], wrow[wpos as usize], spike);
        }
    }
}

/// The event-driven linear layer for every [`Mac`]: `w` is `(O, F)` rows.
/// One [`Mac::event_dot`] per output through the linear row driver, whose
/// grain is a row's events × outputs.
fn event_linear<E: Mac>(
    name: &'static str,
    spikes: &SpikeTensor,
    w: &[E::Elem],
    ep: E::Epilogue<'_>,
    (b, feat, out_ch): (usize, usize, usize),
) -> Tensor {
    let mut y = Tensor::scratch(&[b, out_ch]);
    let spike = E::spike(ep);
    with_events(spikes, feat, b, |events, offsets| {
        let macs_per_row = events.len().div_ceil(b.max(1)) * out_ch;
        linear_rows::<E>(name, &mut y, macs_per_row, ep, |s, acc| {
            let evs = &events[offsets[s]..offsets[s + 1]];
            for (dv, wrow) in acc.iter_mut().zip(w.chunks(feat)) {
                *dv = E::event_dot(evs, wrow, spike);
            }
        });
    });
    y
}

// ---------------------------------------------------------------------------
// The public kernels: the two drivers at a `Mac`

/// Event-driven f32 convolution over packed spikes — bit-identical to
/// [`crate::conv::conv2d`] on the unpacked tensor (see module docs).
///
/// Spikes `(B, C, H, W)` packed, weight `(O, C, Kh, Kw)` dense f32,
/// output `(B, O, Oh, Ow)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spikes or weight do not match `g`.
pub fn sparse_conv2d(
    spikes: &SpikeTensor,
    weight: &Tensor,
    g: &Conv2dGeometry,
) -> Result<Tensor, ShapeError> {
    check_weight(weight.shape(), g)?;
    event_conv::<F32>("sparse_conv2d", spikes, weight.data(), (), g)
}

/// Event-driven f32 linear layer over packed spikes — bit-identical to
/// the per-sample dense path (`gemm_a_bt` with `m = 1`, i.e. the 4-lane
/// dot) on the unpacked tensor.
///
/// Spikes `(B, F)` packed, weight `(O, F)` dense f32, output `(B, O)`.
/// No bias: callers add bias exactly as the dense path does.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes disagree.
pub fn sparse_linear(spikes: &SpikeTensor, weight: &Tensor) -> Result<Tensor, ShapeError> {
    let (sh, wshape) = (spikes.shape(), weight.shape());
    if sh.len() != 2 || wshape.len() != 2 || wshape[1] != sh[1] {
        return Err(ShapeError::new(format!(
            "sparse_linear: spikes {sh:?} and weight {wshape:?} are not (B, F) and (O, F)"
        )));
    }
    let dims = (sh[0], sh[1], wshape[0]);
    Ok(event_linear::<F32>("sparse_linear", spikes, weight.data(), (), dims))
}

/// Event-driven quantized convolution over packed spikes — bit-identical
/// to [`crate::qkernels::qconv2d`] on the unpacked tensor. The quantize
/// and im2col stages of the dense path are skipped entirely: every spike
/// quantizes to the same constant (`round(1/x_scale)`), so the integer
/// accumulation reads only the packed bits and the weight rows.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes, scales, or geometry disagree.
pub fn sparse_qconv2d(
    spikes: &SpikeTensor,
    x_scale: f32,
    qw: &[i8],
    w_scales: &[f32],
    g: &Conv2dGeometry,
    accum: QAccum,
) -> Result<Tensor, ShapeError> {
    check_qweight(qw, g)?;
    let ep = Requant::new("sparse_qconv2d", x_scale, w_scales, None, g.out_channels)?;
    by_accum!(accum, E => event_conv::<E>("sparse_qconv2d", spikes, qw, ep, g))
}

/// Event-driven quantized linear layer over packed spikes —
/// bit-identical to [`crate::qkernels::qlinear`] on the unpacked tensor.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes or scales disagree.
pub fn sparse_qlinear(
    spikes: &SpikeTensor,
    x_scale: f32,
    qw: &[i8],
    w_scales: &[f32],
    bias: &[f32],
    accum: QAccum,
) -> Result<Tensor, ShapeError> {
    let (dims, ep) =
        check_qlinear("sparse_qlinear", spikes.shape(), x_scale, qw.len(), w_scales, bias)?;
    Ok(by_accum!(accum, E => event_linear::<E>("sparse_qlinear", spikes, qw, ep, dims)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Random binary tensor with roughly `density` ones.
    fn random_spikes(shape: &[usize], density: f64, rng: &mut Rng) -> Tensor {
        let n: usize = shape.iter().product();
        let data: Vec<f32> =
            (0..n).map(|_| if (rng.uniform() as f64) < density { 1.0 } else { 0.0 }).collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn pack_unpack_round_trips() {
        let mut rng = Rng::seed_from(1);
        for &n in &[0usize, 1, 63, 64, 65, 200] {
            let x = random_spikes(&[n.max(1), 1], 0.3, &mut rng);
            let sp = SpikeTensor::try_pack(&x).unwrap();
            assert_eq!(sp.unpack(), x, "n={n}");
            let ones = x.data().iter().filter(|&&v| v == 1.0).count();
            assert_eq!(sp.ones(), ones);
        }
    }

    #[test]
    fn pack_rejects_non_binary() {
        assert!(SpikeTensor::try_pack(&Tensor::from_vec(vec![0.0, 0.5], &[2]).unwrap()).is_none());
        assert!(
            SpikeTensor::try_pack(&Tensor::from_vec(vec![1.0, f32::NAN], &[2]).unwrap()).is_none()
        );
        // -0.0 packs as no-spike.
        let sp = SpikeTensor::try_pack(&Tensor::from_vec(vec![-0.0, 1.0], &[2]).unwrap()).unwrap();
        assert!(!sp.get(0));
        assert!(sp.get(1));
        assert_eq!(sp.density(), 0.5);
    }

    #[test]
    fn events_are_ascending_and_complete() {
        let mut rng = Rng::seed_from(2);
        let x = random_spikes(&[3, 130], 0.4, &mut rng);
        let sp = SpikeTensor::try_pack(&x).unwrap();
        with_events(&sp, 130, 3, |events, offsets| {
            assert_eq!(offsets.len(), 4);
            assert_eq!(events.len(), sp.ones());
            assert_eq!(offsets[3], sp.ones());
            for s in 0..3 {
                let evs = &events[offsets[s]..offsets[s + 1]];
                assert!(evs.windows(2).all(|w| w[0] < w[1]), "sample {s} not ascending");
                for &e in evs {
                    assert_eq!(x.data()[s * 130 + e as usize], 1.0);
                }
            }
        });
    }

    #[test]
    fn mode_parsing_and_routing() {
        assert_eq!(SparseMode::parse(" FORCE "), Some(SparseMode::Force));
        assert_eq!(SparseMode::parse("auto"), Some(SparseMode::Auto));
        assert_eq!(SparseMode::parse("off"), Some(SparseMode::Off));
        assert_eq!(SparseMode::parse("banana"), None);
        assert!(SparseMode::Force.routes_sparse(0.99));
        assert!(!SparseMode::Off.routes_sparse(0.0));
        assert!(SparseMode::Auto.routes_sparse(SPARSE_DENSITY_THRESHOLD));
        assert!(!SparseMode::Auto.routes_sparse(0.9));
    }

    #[test]
    fn sparse_conv_bit_identical_to_dense() {
        let mut rng = Rng::seed_from(3);
        for (g, b) in [
            (Conv2dGeometry::new(3, 5, (7, 6), (3, 3), (1, 1), (1, 1)), 2),
            (Conv2dGeometry::new(2, 4, (9, 9), (3, 3), (2, 2), (1, 1)), 1),
            (Conv2dGeometry::new(4, 3, (6, 5), (3, 1), (1, 1), (1, 0)), 3),
            (Conv2dGeometry::new(4, 3, (6, 5), (1, 1), (1, 1), (0, 0)), 2),
        ] {
            let w =
                Tensor::randn(&[g.out_channels, g.in_channels, g.kernel.0, g.kernel.1], &mut rng);
            for density in [0.0, 0.1, 0.5, 1.0] {
                let x = random_spikes(&[b, g.in_channels, g.in_hw.0, g.in_hw.1], density, &mut rng);
                let sp = SpikeTensor::try_pack(&x).unwrap();
                let dense = crate::conv::conv2d(&x, &w, &g).unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let got = Runtime::new(threads).install(|| sparse_conv2d(&sp, &w, &g)).unwrap();
                    assert_eq!(got, dense, "g={g:?} b={b} density={density} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn sparse_linear_bit_identical_to_per_sample_dense() {
        let mut rng = Rng::seed_from(4);
        let (b, feat, out) = (3, 37, 11);
        let w = Tensor::randn(&[out, feat], &mut rng);
        for density in [0.0, 0.2, 0.9] {
            let x = random_spikes(&[b, feat], density, &mut rng);
            let sp = SpikeTensor::try_pack(&x).unwrap();
            // Dense per-sample path: gemm_a_bt with m = 1 per row.
            let mut want = vec![0.0f32; b * out];
            let serial = Runtime::serial();
            for s in 0..b {
                runtime::gemm_a_bt(
                    serial,
                    &x.data()[s * feat..(s + 1) * feat],
                    w.data(),
                    &mut want[s * out..(s + 1) * out],
                    1,
                    feat,
                    out,
                );
            }
            for threads in [1usize, 2, 8] {
                let got = Runtime::new(threads).install(|| sparse_linear(&sp, &w)).unwrap();
                assert_eq!(got.data(), &want[..], "density={density} threads={threads}");
            }
        }
    }

    #[test]
    fn sparse_qconv_bit_identical_to_dense() {
        let mut rng = Rng::seed_from(5);
        let g = Conv2dGeometry::new(3, 4, (6, 5), (3, 3), (1, 1), (1, 1));
        let kdim = 3 * 3 * 3;
        let qw: Vec<i8> = (0..4 * kdim).map(|_| (rng.below(255) as i32 - 127) as i8).collect();
        let w_scales = [0.02f32, 0.03, 0.01, 0.04];
        for accum in [QAccum::I32, QAccum::Saturate16] {
            for density in [0.0, 0.15, 0.6, 1.0] {
                let x = random_spikes(&[2, 3, 6, 5], density, &mut rng);
                let sp = SpikeTensor::try_pack(&x).unwrap();
                let dense = crate::qkernels::qconv2d(&x, 1.0, &qw, &w_scales, &g, accum).unwrap();
                for threads in [1usize, 2, 8] {
                    let got = Runtime::new(threads)
                        .install(|| sparse_qconv2d(&sp, 1.0, &qw, &w_scales, &g, accum))
                        .unwrap();
                    assert_eq!(got, dense, "{accum:?} density={density} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn sparse_qconv_matches_dense_for_non_unit_scale() {
        // x_scale != 1 still quantizes spikes to a single constant
        // (round(1/scale)); the sparse path must agree with the dense
        // quantize → im2col → GEMM pipeline bit for bit.
        let mut rng = Rng::seed_from(6);
        let g = Conv2dGeometry::new(2, 3, (5, 5), (3, 3), (1, 1), (1, 1));
        let kdim = 2 * 9;
        let qw: Vec<i8> = (0..3 * kdim).map(|_| (rng.below(255) as i32 - 127) as i8).collect();
        let x = random_spikes(&[1, 2, 5, 5], 0.4, &mut rng);
        let sp = SpikeTensor::try_pack(&x).unwrap();
        for x_scale in [1.0f32, 0.5, 0.021] {
            for accum in [QAccum::I32, QAccum::Saturate16] {
                let dense = crate::qkernels::qconv2d(&x, x_scale, &qw, &[0.01], &g, accum).unwrap();
                let got = sparse_qconv2d(&sp, x_scale, &qw, &[0.01], &g, accum).unwrap();
                assert_eq!(got, dense, "x_scale={x_scale} {accum:?}");
            }
        }
    }

    #[test]
    fn sparse_qlinear_bit_identical_to_dense() {
        let mut rng = Rng::seed_from(7);
        let (b, feat, out) = (4, 19, 5);
        let qw: Vec<i8> = (0..out * feat).map(|_| (rng.below(255) as i32 - 127) as i8).collect();
        let scales = [0.01f32, 0.02, 0.015, 0.03, 0.02];
        let bias = [0.5f32, -0.25, 0.0, 1.0, 0.125];
        for accum in [QAccum::I32, QAccum::Saturate16] {
            for density in [0.0, 0.3, 1.0] {
                let x = random_spikes(&[b, feat], density, &mut rng);
                let sp = SpikeTensor::try_pack(&x).unwrap();
                let dense = crate::qkernels::qlinear(&x, 1.0, &qw, &scales, &bias, accum).unwrap();
                for threads in [1usize, 2, 8] {
                    let got = Runtime::new(threads)
                        .install(|| sparse_qlinear(&sp, 1.0, &qw, &scales, &bias, accum))
                        .unwrap();
                    assert_eq!(got, dense, "{accum:?} density={density} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_shapes_and_scales() {
        let g = Conv2dGeometry::new(2, 3, (4, 4), (3, 3), (1, 1), (1, 1));
        let sp = SpikeTensor::try_pack(&Tensor::zeros(&[1, 2, 4, 4])).unwrap();
        let w_bad = Tensor::zeros(&[3, 2, 3, 1]);
        assert!(sparse_conv2d(&sp, &w_bad, &g).is_err());
        let sp_bad = SpikeTensor::try_pack(&Tensor::zeros(&[1, 3, 4, 4])).unwrap();
        assert!(sparse_conv2d(&sp_bad, &Tensor::zeros(&[3, 2, 3, 3]), &g).is_err());
        let qw = vec![0i8; 3 * 2 * 9];
        assert!(sparse_qconv2d(&sp, 0.0, &qw, &[1.0], &g, QAccum::I32).is_err());
        assert!(sparse_qconv2d(&sp, 1.0, &qw[..5], &[1.0], &g, QAccum::I32).is_err());
        let spl = SpikeTensor::try_pack(&Tensor::zeros(&[2, 3])).unwrap();
        assert!(sparse_linear(&spl, &Tensor::zeros(&[4, 5])).is_err());
        assert!(sparse_qlinear(&spl, 1.0, &[0i8; 7], &[1.0], &[0.0], QAccum::I32).is_err());
        assert!(sparse_qlinear(&spl, 1.0, &[0i8; 6], &[1.0], &[0.0], QAccum::I32).is_err());
        assert!(sparse_qlinear(&spl, 1.0, &[0i8; 6], &[1.0], &[0.0, 0.0], QAccum::I32).is_ok());
    }
}
