//! Bit-packed spike tensors and event-driven sparse kernels for the
//! inference plane.
//!
//! SNN activations are binary spikes, and at serving time most of them are
//! zero: the dense im2col GEMM pays a full multiply-add per zero. This
//! module pays only for the spikes, without giving up the workspace's
//! bit-determinism contract:
//!
//! * [`SpikeTensor`] — a bit-packed view of a binary `f32` tensor, 64
//!   lanes per `u64` word. Packing validates binarity and measures spike
//!   density (popcount) in the same single pass, so the dispatcher's
//!   density measurement is a by-product of building the representation.
//! * [`sparse_conv2d`] / [`sparse_qconv2d`] — one event-scatter driver at the
//!   f32 and the integer `Mac` (see `runtime/gemm.rs`). Each firing input
//!   position is looked up in a [`WindowTable`] — for every input position of
//!   the geometry, the `(kernel tap, output position)` windows that read it —
//!   and each window adds one row of an [`EventWeights`] kernel, laid out
//!   `[C·Kh·Kw][O]` and pre-multiplied by the spike value, across the output
//!   channels of an `(Oh·Ow, O)` accumulator block in one contiguous run; the
//!   type's epilogue transposes the block out. So a tap costs its arithmetic
//!   and one table lookup — no window arithmetic, no per-channel pass.
//! * Both layouts depend only on the site: the geometry for the table, the
//!   weights (and, for int8, the activation scale) for the kernel. A frozen
//!   plan builds them once ([`WindowTable::new`], [`EventWeights::new`] /
//!   [`EventWeights::quantized`]) and serves through
//!   [`sparse_conv2d_frozen`] / [`sparse_qconv2d_frozen`]; the plain kernels
//!   lay both out per call in arena scratch. The two are bit-identical.
//! * [`sparse_linear`] / [`sparse_qlinear`] are one event-driven linear
//!   layer at the same `Mac`s, on the row driver they share with `qlinear`.
//!   The int8 paths skip the quantize + im2col stages entirely: a spike
//!   quantizes to a known constant, so only the packed bits are consulted.
//! * [`SparseMode`] — the dispatch policy (`auto`/`force`/`off`) the
//!   model-layer dispatcher routes by; models serve under [`sparse_mode`].
//!
//! # Bit-determinism
//!
//! Sparse results are **bit-identical to the dense kernels**, not merely
//! close, across 1–8 threads and every dispatch mode. The argument:
//!
//! * Dense `conv2d`/`gemm` accumulate each output element with a single
//!   accumulator in ascending patch order `kk = (c·Kh + ki)·Kw + kj`.
//!   Iterating spike events in ascending `(c, ii, jj)` input order, each
//!   event's windows in ascending tap order, delivers each output element
//!   its contributions in exactly that ascending `kk` order, so the
//!   surviving additions are the same operations in the same order.
//! * A pre-multiplied term is the product the dense kernel forms:
//!   `add_spike(ZERO, w, spike)` added by `Mac::add_term` equals
//!   `add_spike(acc, w, spike)` — bitwise for the integers; for f32 it is
//!   `acc + (0.0 + w)`, which differs from `acc + w` only for `w = -0.0`,
//!   and `acc ± 0.0` is `acc` for every accumulator that starts at `+0.0`
//!   (such a sum never becomes `-0.0` under round-to-nearest).
//! * The skipped terms are exact zeros: a spike is exactly `0.0` or
//!   `1.0`, and for finite weights `w · 0.0` is a signed zero that cannot
//!   change such an accumulator, while `w · 1.0` is bitwise `w`. Skipping
//!   zero-spike terms therefore leaves every intermediate bit pattern
//!   unchanged. (Non-finite *weights* would break this — `0 · NaN` is
//!   `NaN` — so the sparse path is only used for inference weights, which
//!   are finite by construction; the serving engine already rejects
//!   non-finite inputs.)
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

use crate::conv::{check_input, check_weight, Conv2dGeometry};
use crate::error::ShapeError;
use crate::qkernels::{
    by_accum, check_qlinear, check_qweight, linear_rows, spike_code, Int, QAccum, Requant, I32,
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
/// below this density route to the sparse kernels. One bound for both element
/// types, held below the density where the f32 event kernel stops paying. On
/// the `spike_sparsity` bench's 32 → 32 3×3 conv at 16×16 (8 samples, 2
/// vCPUs, layouts laid out per call) the f32 event scatter beats the dense
/// conv up to a density of ≈ 0.475–0.525 (`BENCH_spike_sparsity.json`) since it
/// runs on the avx2 tap walk the int8 scatter uses; it crossed at
/// ≈ 0.175–0.225 while it ran on the portable lanes beside the avx2 GEMM tile,
/// and at ≈ 0.57–0.68 before that tile. Served LIF layers fire at 0.13–0.16,
/// so a bound nearer the f32 crossover would route no served site otherwise.
pub const SPARSE_DENSITY_THRESHOLD: f64 = 0.25;

/// What one tap costs per output channel — adding one pre-multiplied weight
/// lane into a sample's accumulator block, its share of the table lookup
/// that found the tap included — in the f32 operations `runtime::fork_grain`
/// counts in: the event-scatter driver's grain for every `Mac`. Measured on
/// the avx2 lanes, where every type's scatter runs one tap walk, as the slope
/// of a frozen call's time over its tap lanes between densities 0.05 and 0.3,
/// against the probe conv's f32 tile (28–32 GFLOP/s) as the unit: one thread
/// on a 2-vCPU AVX2 host, three runs over the served VGG9 ÷ 8's 8 → 8 at
/// 16×16, 16 → 16 at 8×8 and 32 → 32 at 4×4 with 2 samples, the probe's
/// 32 → 32 at 16×16 with 8 and a 16 → 64 at 8×8 with 4. An f32 lane costs
/// 2.2–7.1 operations (median 4.0), an `I32` lane 1.9–10.4 (4.2) and a
/// `Sat16` lane 2.3–11.9 (4.7): the types do not differ beyond the host's
/// spread, so one constant serves them. At this grain every layer of the
/// served VGG9 ÷ 8 forks a stream chunk's 2-sample call across the pool at
/// the served densities (0.13–0.16); at 0.05 the three layers with the fewest
/// taps a sample stay on one thread (`Runtime::stats`). A grain moves no bit.
const TAP_COST: usize = 4;

/// Dispatch policy for the density-adaptive sparse/dense router. Models
/// serve under [`sparse_mode`]; tests pin the others per model to show the
/// two kernel families agree bit for bit.
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

/// The dispatch mode every model serves under: [`SparseMode::Auto`].
pub const fn sparse_mode() -> SparseMode {
    SparseMode::Auto
}

// ---------------------------------------------------------------------------
// Plan-time layouts

/// Fills `g`'s window table: input position `pos = ii·W + jj` gets the
/// windows `wins[starts[pos]..starts[pos + 1]]`, each `(kidx, opos)` with
/// `kidx = ki·Kw + kj` and `opos = oi·Ow + oj`, in ascending `kidx`.
/// `starts` holds `H·W + 1` entries and `wins` room for `H·W·Kh·Kw`. The
/// axis windows are worked out once per row and per column, so the table
/// costs one write per entry.
fn fill_windows(g: &Conv2dGeometry, starts: &mut [u32], wins: &mut [(u32, u32)]) -> usize {
    /// The windows of one axis through which an input at coordinate `i` is
    /// read: every `(k, o)` with `o·stride + k = i + pad` and `o < out_len`, in
    /// ascending `k`, written to the front of `wins` (at most `kernel` of them);
    /// returns how many there were. A 2-D window is a row window times a column
    /// window. Nested here, so the table builder is its one caller.
    fn event_windows(
        i: usize,
        (kernel, stride, pad, out_len): (usize, usize, usize, usize),
        wins: &mut [(u32, u32)],
    ) -> usize {
        let mut n = 0;
        for k in 0..kernel.min(i + pad + 1) {
            let o_s = i + pad - k;
            if o_s.is_multiple_of(stride) && o_s / stride < out_len {
                wins[n] = (k as u32, (o_s / stride) as u32);
                n += 1;
            }
        }
        n
    }

    let ((h, w), (kh, kw), (oh, ow)) = (g.in_hw, g.kernel, g.out_hw());
    let row_axis = (kh, g.stride.0, g.padding.0, oh);
    let col_axis = (kw, g.stride.1, g.padding.1, ow);
    with_scratch(w * (kw + 1), |cols: &mut [(u32, u32)]| {
        // Column `jj`'s windows sit at `cols[jj·(Kw + 1) + 1..]`, their count
        // in front.
        for (jj, slot) in cols.chunks_exact_mut(kw + 1).enumerate() {
            slot[0].0 = event_windows(jj, col_axis, &mut slot[1..]) as u32;
        }
        with_scratch(kh, |rows: &mut [(u32, u32)]| {
            let mut n = 0;
            for ii in 0..h {
                let nrows = event_windows(ii, row_axis, rows);
                for (jj, slot) in cols.chunks_exact(kw + 1).enumerate() {
                    starts[ii * w + jj] = n as u32;
                    for &(ki, oi) in &rows[..nrows] {
                        for &(kj, oj) in &slot[1..=slot[0].0 as usize] {
                            wins[n] = (ki * kw as u32 + kj, oi * ow as u32 + oj);
                            n += 1;
                        }
                    }
                }
            }
            starts[h * w] = n as u32;
            n
        })
    })
}

/// Where an event lands, for every input position of one convolution
/// geometry: the `(kidx, opos)` windows through which output `opos` reads
/// input position `(ii, jj)` with kernel tap `kidx`. Built once, when a plan
/// freezes; the event scatter only looks entries up. Channel counts play no
/// part in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTable {
    geometry: Conv2dGeometry,
    starts: Vec<u32>,
    wins: Vec<(u32, u32)>,
}

impl WindowTable {
    /// The table of `g`'s geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `g` describes no convolution.
    pub fn new(g: &Conv2dGeometry) -> Result<Self, ShapeError> {
        g.check()?;
        let hw = g.in_hw.0 * g.in_hw.1;
        let mut starts = vec![0; hw + 1];
        let mut wins = vec![(0, 0); hw * g.kernel.0 * g.kernel.1];
        let n = fill_windows(g, &mut starts, &mut wins);
        wins.truncate(n);
        Ok(Self { geometry: *g, starts, wins })
    }

    /// Whether this is the table of `g`'s geometry.
    fn fits(&self, g: &Conv2dGeometry) -> bool {
        let t = &self.geometry;
        (t.in_hw, t.kernel, t.stride, t.padding) == (g.in_hw, g.kernel, g.stride, g.padding)
    }

    fn view(&self) -> Windows<'_> {
        Windows { starts: &self.starts, wins: &self.wins }
    }
}

/// A window table as the scatter reads it: a [`WindowTable`]'s storage, or
/// one call's arena scratch.
#[derive(Clone, Copy)]
struct Windows<'a> {
    starts: &'a [u32],
    wins: &'a [(u32, u32)],
}

/// A convolution kernel laid out for the event scatter: `[C·Kh·Kw][O]` — row
/// `kk` holds every output channel's weight for patch element `kk` — with
/// each weight already multiplied by the spike value it will meet
/// (`add_spike(ZERO, w, spike)`), so that a tap is one contiguous add across
/// the output channels. Built once, when a plan loads: [`EventWeights::new`]
/// for an f32 kernel, [`EventWeights::quantized`] for an int8 one.
#[derive(Debug, Clone, PartialEq)]
pub struct EventWeights<A> {
    values: Vec<A>,
    out_channels: usize,
    /// The activation scale whose spike value the rows are multiplied by.
    x_scale: f32,
}

impl EventWeights<f32> {
    /// Lays out an f32 `(O, C, Kh, Kw)` kernel.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the kernel is not 4-D.
    pub fn new(weight: &Tensor) -> Result<Self, ShapeError> {
        if weight.ndim() != 4 {
            return Err(ShapeError::new(format!(
                "EventWeights::new: expected an OIHW kernel, got {:?}",
                weight.shape()
            )));
        }
        Ok(lay_out_owned::<F32>(weight.data(), weight.shape()[0], 1.0, 1.0))
    }
}

impl EventWeights<i32> {
    /// Lays out an int8 `(O, C·Kh·Kw)` kernel for spikes quantized at
    /// `x_scale`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `qw` does not split into `out_channels`
    /// rows or `x_scale` is not positive and finite.
    pub fn quantized(qw: &[i8], out_channels: usize, x_scale: f32) -> Result<Self, ShapeError> {
        if out_channels == 0 || !qw.len().is_multiple_of(out_channels) {
            return Err(ShapeError::new(format!(
                "EventWeights::quantized: {} weights do not split into {out_channels} rows",
                qw.len()
            )));
        }
        if !x_scale.is_finite() || x_scale <= 0.0 {
            return Err(ShapeError::new(format!(
                "EventWeights::quantized: activation scale must be positive and finite, got \
                 {x_scale}"
            )));
        }
        Ok(lay_out_owned::<I32>(qw, out_channels, spike_code(x_scale), x_scale))
    }

    /// The activation scale whose spike value the rows are multiplied by.
    pub fn x_scale(&self) -> f32 {
        self.x_scale
    }
}

/// [`lay_out`] into storage of its own.
fn lay_out_owned<E: Mac>(
    w: &[E::Elem],
    out_channels: usize,
    spike: E::Elem,
    x_scale: f32,
) -> EventWeights<E::Acc> {
    let mut values = vec![E::ZERO; w.len()];
    lay_out::<E>(w, out_channels, spike, &mut values);
    EventWeights { values, out_channels, x_scale }
}

/// Writes the `(O, C·Kh·Kw)` kernel `w` into `dst` as [`EventWeights`] lays
/// it out, an 8 × 8 tile at a time so that reads and writes both stay on a
/// few cache lines.
fn lay_out<E: Mac>(w: &[E::Elem], out_channels: usize, spike: E::Elem, dst: &mut [E::Acc]) {
    const TILE: usize = 8;
    let kdim = w.len() / out_channels.max(1);
    for o0 in (0..out_channels).step_by(TILE) {
        for kk0 in (0..kdim).step_by(TILE) {
            let kk1 = (kk0 + TILE).min(kdim);
            for o in o0..(o0 + TILE).min(out_channels) {
                for (kk, &v) in (kk0..kk1).zip(&w[o * kdim + kk0..o * kdim + kk1]) {
                    dst[kk * out_channels + o] = E::add_spike(E::ZERO, v, spike);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The event-scatter driver

/// Where the event scatter's two layouts come from.
enum Layouts<'a, E: Mac> {
    /// Laid out for this call alone, in arena scratch, from an `(O, C·Kh·Kw)`
    /// kernel.
    PerCall(&'a [E::Elem]),
    /// Laid out when the plan froze.
    Frozen(&'a EventWeights<E::Acc>, &'a WindowTable),
}

/// One sample's events (ascending, within its `(C, H, W)` slab) and the
/// window table of the geometry they are looked up in.
#[derive(Clone, Copy)]
pub(crate) struct Taps<'a> {
    evs: &'a [u32],
    windows: Windows<'a>,
    /// `H·W` and `Kh·Kw`.
    plane: usize,
    taps: usize,
}

impl Taps<'_> {
    /// Calls `f(row, opos)` for every tap, looking each event's windows up in
    /// the table: `row` indexes a `[C·Kh·Kw][O]` weight row, `opos` an output
    /// position. Taps come event by event (ascending), and the taps of one
    /// event touch distinct outputs, so each output element meets its events
    /// in ascending order — the dense kernels' order, keeping the
    /// bit-identity contract.
    #[inline(always)]
    pub(crate) fn for_each(self, mut f: impl FnMut(usize, usize)) {
        let (hw, windows) = (self.plane, self.windows);
        // Events ascend, so the channel only ever steps forward: no division.
        let (mut plane, mut row0) = (0, 0);
        for &e in self.evs {
            let e = e as usize;
            while e >= plane + hw {
                plane += hw;
                row0 += self.taps;
            }
            let pos = e - plane;
            let wins =
                &windows.wins[windows.starts[pos] as usize..windows.starts[pos + 1] as usize];
            for &(kidx, opos) in wins {
                f(row0 + kidx as usize, opos as usize);
            }
        }
    }
}

/// The event-scatter convolution for every [`Mac`], `ep` being the type's
/// epilogue. Checks the spikes (and frozen layouts) against `g`, opens the
/// `name` region, lays the layouts out if the call brings none, gathers the
/// events and forks over samples at a grain taken from the input (a sample's
/// events × window taps × output channels × [`TAP_COST`]). [`Mac::scatter`]
/// takes each sample whole, on one thread: its taps are walked once and each
/// is one `O`-lane add.
fn event_conv<E: Mac>(
    name: &'static str,
    spikes: &SpikeTensor,
    layouts: Layouts<'_, E>,
    ep: E::Epilogue<'_>,
    g: &Conv2dGeometry,
) -> Result<Tensor, ShapeError> {
    let _region = ttsnn_obs::region(name);
    let (b, oh, ow) = check_input(spikes.shape(), g)?;
    let (o, ospatial, taps) = (g.out_channels, oh * ow, g.kernel.0 * g.kernel.1);
    let mut out = Tensor::scratch(&[b, o, oh, ow]);
    let plane = g.in_hw.0 * g.in_hw.1;
    let mut run = |windows: Windows<'_>, wt: &[E::Acc]| {
        with_events(spikes, g.in_slab(), b, |events, offsets| {
            let taps_per_sample = events.len().div_ceil(b.max(1)) * taps;
            let min_samples = runtime::fork_grain(TAP_COST * taps_per_sample * o);
            let rt = Runtime::current();
            rt.parallel_over_slabs(out.data_mut(), o * ospatial, min_samples, |s, out_s| {
                let evs = &events[offsets[s]..offsets[s + 1]];
                E::scatter(Taps { evs, windows, plane, taps }, wt, out_s, o, ep);
            });
        });
    };
    match layouts {
        Layouts::Frozen(weights, table) => {
            if !table.fits(g) || weights.out_channels != o || weights.values.len() != g.params() {
                return Err(ShapeError::new(format!(
                    "{name}: frozen layouts do not match geometry {g:?}"
                )));
            }
            run(table.view(), &weights.values);
        }
        Layouts::PerCall(w) => {
            let hw = g.in_hw.0 * g.in_hw.1;
            with_scratch(hw + 1, |starts: &mut [u32]| {
                with_scratch(hw * taps, |wins: &mut [(u32, u32)]| {
                    fill_windows(g, starts, wins);
                    with_scratch(w.len(), |wt: &mut [E::Acc]| {
                        lay_out::<E>(w, o, E::spike(ep), wt);
                        run(Windows { starts, wins }, wt);
                    });
                });
            });
        }
    }
    Ok(out)
}

/// Scatters one sample's events into its `(Oh·Ow, O)` accumulator block —
/// per tap ([`Taps::for_each`]) one contiguous `O`-lane add of a
/// `[C·Kh·Kw][O]` weight row of `wt` — then writes the sample's `(O, Oh·Ow)`
/// output `out_s` from the block through the epilogue, transposing. A
/// pre-multiplied term `add_spike(ZERO, w, spike)` added with
/// [`Mac::add_term`] is the `add_spike(acc, w, spike)` of the dense order, so
/// bit-identity is untouched. The portable body of [`Mac::scatter`].
pub(crate) fn scatter<E: Mac>(
    taps: Taps<'_>,
    wt: &[E::Acc],
    out_s: &mut [f32],
    o: usize,
    ep: E::Epilogue<'_>,
) {
    let ospatial = out_s.len() / o;
    with_scratch(ospatial * o, |acc: &mut [E::Acc]| {
        acc.fill(E::ZERO);
        taps.for_each(|row, opos| {
            let (a, w) = (&mut acc[opos * o..][..o], &wt[row * o..][..o]);
            for (a, &w) in a.iter_mut().zip(w) {
                *a = E::add_term(*a, w);
            }
        });
        for (oc, plane) in out_s.chunks_exact_mut(ospatial).enumerate() {
            E::finish(plane, acc[oc..].iter().step_by(o).copied(), oc, ep);
        }
    });
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
    event_conv::<F32>("sparse_conv2d", spikes, Layouts::PerCall(weight.data()), (), g)
}

/// [`sparse_conv2d`] on the layouts a frozen plan holds — bit-identical to
/// it: `weights` is the kernel as [`EventWeights::new`] laid it out,
/// `windows` the [`WindowTable`] of `g`'s geometry.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spikes, `weights` or `windows` do not match
/// `g`.
pub fn sparse_conv2d_frozen(
    spikes: &SpikeTensor,
    weights: &EventWeights<f32>,
    windows: &WindowTable,
    g: &Conv2dGeometry,
) -> Result<Tensor, ShapeError> {
    event_conv::<F32>("sparse_conv2d", spikes, Layouts::Frozen(weights, windows), (), g)
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
    by_accum!(accum, E => event_conv::<E>("sparse_qconv2d", spikes, Layouts::PerCall(qw), ep, g))
}

/// [`sparse_qconv2d`] on the layouts a frozen plan holds — bit-identical to
/// it at the activation scale `weights` was laid out for
/// ([`EventWeights::quantized`]); `windows` is the [`WindowTable`] of `g`'s
/// geometry.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes, scales, `weights` or `windows` disagree
/// with `g`.
pub fn sparse_qconv2d_frozen(
    spikes: &SpikeTensor,
    weights: &EventWeights<i32>,
    w_scales: &[f32],
    windows: &WindowTable,
    g: &Conv2dGeometry,
    accum: QAccum,
) -> Result<Tensor, ShapeError> {
    let ep = Requant::new("sparse_qconv2d", weights.x_scale, w_scales, None, g.out_channels)?;
    by_accum!(accum, E => {
        event_conv::<E>("sparse_qconv2d", spikes, Layouts::Frozen(weights, windows), ep, g)
    })
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
    fn mode_routing() {
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
