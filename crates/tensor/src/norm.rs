//! Batch normalization (tdBN, Zheng et al., AAAI 2021) for both execution
//! planes: the per-channel reductions — the statistics `(μ, 1/√(σ² + eps))`
//! of every (group, channel) and the backward's sums `(Σ dy, Σ dy·x̂)` — and
//! the elementwise passes that apply them.
//!
//! An operand is `groups` runs of `b` samples, each sample `(C, H·W)`
//! ([`NormDims`]); a group's statistics are taken over its `b` samples.
//! The training plane (`Var::batch_norm2d`) runs [`batch_norm`] and
//! [`batch_norm_backward`], out of place; the inference plane
//! (`Norm::forward_tensor`) normalizes in place through [`normalize`].
//! Both forwards take their statistics from the same code and apply them
//! with the same elementwise body, so the planes agree bit for bit by
//! construction, not by a mirrored loop.
//!
//! # Reduction order
//!
//! Every channel's sums run in one fixed order, which `train_bits` pins:
//!
//! * **mean** — each of the group's planes of the channel is summed in
//!   ascending position from `−0.0` (what `Iterator::sum` starts from), and
//!   those partials are added to a `+0.0` in sample order; `μ = Σ / n` with
//!   `n = b · H·W`;
//! * **variance** — the same over `(v − μ)²`; the statistic kept is
//!   `1 / √(Σ / n + eps)`;
//! * **backward** — `Σ dy` and `Σ dy · ((v − μ) · inv)` each start at `+0.0`
//!   and run through the samples and positions in order, with no partials.
//!
//! What makes it fast is that 8 channels of a group run side by side, one
//! channel per lane, each lane doing exactly the operations its channel did
//! alone: a chain of dependent adds no longer waits for the one before it
//! with the neighbouring channels idle. A sample's planes of
//! consecutive channels are back to back in memory, so a lane block reads
//! one contiguous run per sample. The lane bodies — portable, and explicit
//! AVX2 where the CPU has it — are in `runtime::lanes`; they compute the same
//! bits. Each (group, channel) belongs to one task, so the result does not
//! depend on the thread count either.

use crate::runtime::{fork_grain, with_scratch, Lanes, Runtime};

/// Channels a lane block runs side by side.
pub(crate) const LANES: usize = 8;

/// What one element of a channel costs either kernel, in the streamed `f32`
/// operations `fork_grain` counts in — the one place the norm's fork is
/// priced. Measured on a 2-vCPU AVX2 host, one thread: the statistics (two
/// passes) take ≈ 0.35–0.6 ns an element on the AVX2 lanes at planes of
/// 16–1024 (≈ 0.8–1 ns at 4), the backward sums ≈ 0.45–0.6 ns, where an
/// elementwise pass spends ≈ 0.1 ns on each of its operations.
const ELEMENT_COST: usize = 4;

/// What one element of the forward's elementwise pass costs, in the same
/// operations: `γk · ((v − μ) · inv) + β` is four of them.
const AFFINE_COST: usize = 4;

/// What one element of the backward's `dx` pass costs, in the same
/// operations: `x̂` and `coeff · (n · dy − Σ dy − x̂ · Σ dy·x̂)` are eight.
const GRAD_COST: usize = 8;

/// Shape of a normalization operand: runs of `b` samples (the statistics
/// groups), each sample `(c, plane)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormDims {
    /// Samples per statistics group.
    pub b: usize,
    /// Channels per sample.
    pub c: usize,
    /// Positions per channel plane (`H·W`).
    pub plane: usize,
}

impl NormDims {
    /// The lane blocks of the (group, channel) pairs `first..first + len`,
    /// at most [`LANES`] channels and never across a group.
    fn blocks(self, first: usize, len: usize) -> impl Iterator<Item = LaneBlock> {
        let (NormDims { b, c, plane }, end) = (self, first + len);
        let mut at = first;
        std::iter::from_fn(move || {
            (at < end).then(|| {
                let (g, ch) = (at / c, at % c);
                let width = LANES.min(c - ch).min(end - at);
                at += width;
                LaneBlock {
                    first: (g * b * c + ch) * plane,
                    width,
                    plane,
                    stride: c * plane,
                    samples: b,
                }
            })
        })
    }

    fn elements(self) -> usize {
        self.b * self.plane
    }
}

/// The channels of one lane block, `width ≤ LANES` of them side by side
/// through the `samples` samples of a group: sample `s`'s planes of those
/// channels are `width` planes of `plane` back to back from
/// `first + s · stride`, and lane `j` reads plane `j` of each. Lanes past
/// `width` read the last plane again; what they compute is dropped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneBlock {
    pub(crate) first: usize,
    pub(crate) width: usize,
    pub(crate) plane: usize,
    pub(crate) stride: usize,
    pub(crate) samples: usize,
}

impl LaneBlock {
    /// Sample `s`'s planes of the block, out of the whole operand `x`.
    pub(crate) fn run(self, x: &[f32], s: usize) -> &[f32] {
        &x[self.first + s * self.stride..][..self.width * self.plane]
    }

    /// Lane `j`'s plane of sample `s`, out of the whole operand `x`.
    pub(crate) fn rows(self, x: &[f32], s: usize) -> [&[f32]; LANES] {
        let run = self.run(x, s);
        self.offsets().map(|o| &run[o..o + self.plane])
    }

    /// Where lane `j`'s plane starts in a [`LaneBlock::run`].
    pub(crate) fn offsets(self) -> [usize; LANES] {
        std::array::from_fn(|j| j.min(self.width - 1) * self.plane)
    }
}

/// Fills `stats`, `[groups · C × 2]`, with `(μ, 1/√(σ² + eps))` of every
/// group and channel of `x` (see the module docs for the order).
///
/// # Panics
///
/// Panics unless `stats` holds two values per (group, channel) of `x`, a
/// whole number of groups of `dims`.
pub fn channel_stats(rt: &Runtime, dims: NormDims, x: &[f32], eps: f32, stats: &mut [f32]) {
    let _region = ttsnn_obs::region("norm_stats");
    check(dims, x.len(), stats.len());
    let lanes = Lanes::current();
    let grain = fork_grain(ELEMENT_COST * dims.elements());
    rt.parallel_over_ranges(stats, 2, grain, |first, run| {
        fill_stats(lanes, dims, x, eps, first, run);
    });
}

/// Normalizes every group of `x` in place by its own statistics — the
/// ones [`channel_stats`] computes, bit for bit — as `v ← (γ[ch] · k · ((v
/// − μ) · inv) + β[ch]) · scale(group)`. A group's statistics and its
/// normalization are one pool task, so the call is one fork however many
/// groups it has.
///
/// # Panics
///
/// Panics unless `x` is a whole number of groups of `dims`, and `γ`, `β`
/// hold a value per channel.
pub fn normalize(
    rt: &Runtime,
    dims: NormDims,
    x: &mut [f32],
    eps: f32,
    (gamma, beta, k): (&[f32], &[f32], f32),
    scale: impl Fn(usize) -> f32 + Sync,
) {
    let _region = ttsnn_obs::region("normalize");
    let NormDims { b, c, plane } = dims;
    let group = b * c * plane;
    if group == 0 || x.is_empty() {
        return;
    }
    check(dims, x.len(), 2 * c * (x.len() / group));
    assert!(gamma.len() == c && beta.len() == c, "norm: γ / β are not one per channel");
    let lanes = Lanes::current();
    // The statistics, then one more streamed pass.
    let grain = fork_grain((ELEMENT_COST + AFFINE_COST) * group);
    rt.parallel_over_slabs(x, group, grain, |g, xs| {
        let sv = scale(g);
        with_scratch(2 * c, |stats: &mut [f32]| {
            fill_stats(lanes, dims, xs, eps, 0, stats);
            for sample in xs.chunks_exact_mut(c * plane) {
                affine_sample(sample, None, plane, stats, (gamma, beta, k), sv);
            }
        });
    });
}

/// The training forward, in two pool phases. Phase 1 fills `stats`, a
/// `[groups · C × 2]` array of `(μ, 1/√(σ² + eps))` per group and channel,
/// through [`channel_stats`]. Phase 2 writes `y = γ·k·(x − μ)/√(σ² + eps) +
/// β`, a sample per slab, with [`normalize`]'s elementwise body. Neither
/// split changes what an element computes, so the result does not depend on
/// the thread count. `affine` is `(γ, β, k)`.
///
/// # Panics
///
/// Panics unless `x` and `y` are a whole number of groups of `dims` and
/// `stats` holds two values per (group, channel) of them.
pub fn batch_norm(
    rt: &Runtime,
    dims: NormDims,
    x: &[f32],
    affine: (&[f32], &[f32], f32),
    eps: f32,
    stats: &mut [f32],
    y: &mut [f32],
) {
    let NormDims { b, c, plane } = dims;
    channel_stats(rt, dims, x, eps, stats);
    assert!(y.len() == x.len(), "norm: y is not shaped like x");
    let stats = &*stats;
    let slab = c * plane;
    rt.parallel_over_slabs(y, slab, fork_grain(AFFINE_COST * slab), |s, y_s| {
        let x_s = &x[s * slab..(s + 1) * slab];
        let group = &stats[s / b * 2 * c..(s / b + 1) * 2 * c];
        affine_sample(y_s, Some(x_s), plane, group, affine, 1.0);
    });
}

/// The training backward, in the same two phases. Phase 1 fills `sums`, a
/// `[groups · C × 2]` array, with the reductions `(Σ dy, Σ dy·x̂)` per group
/// and channel ([`channel_grad_sums`]); phase 2 rewrites `g` from `dy` to
/// `dx` in place, a sample per slab (element `i` needs `dy[i]` and the two
/// sums of its group and channel only). `stats` is what [`batch_norm`]
/// filled, `scale` is `(γ, k)`.
///
/// # Panics
///
/// Panics under [`channel_grad_sums`]'s conditions.
pub fn batch_norm_backward(
    rt: &Runtime,
    dims: NormDims,
    x: &[f32],
    stats: &[f32],
    (gamma, k): (&[f32], f32),
    g: &mut [f32],
    sums: &mut [f32],
) {
    let NormDims { b, c, plane } = dims;
    let n = (b * plane) as f32;
    channel_grad_sums(rt, dims, x, g, stats, sums);
    let slab = c * plane;
    rt.parallel_over_slabs(g, slab, fork_grain(GRAD_COST * slab), |s, g_s| {
        let x_s = &x[s * slab..(s + 1) * slab];
        let group = s / b * 2 * c..(s / b + 1) * 2 * c;
        let per_channel = stats[group.clone()].chunks(2).zip(sums[group].chunks(2));
        for (ch, ((st, su), &gm)) in per_channel.zip(gamma).enumerate() {
            let (m, inv) = (st[0], st[1]);
            let (sum_dy, sum_dy_xhat) = (su[0], su[1]);
            let coeff = gm * k * inv / n;
            let r = ch * plane..(ch + 1) * plane;
            for (dy, &v) in g_s[r.clone()].iter_mut().zip(&x_s[r]) {
                let xh = (v - m) * inv;
                *dy = coeff * (n * *dy - sum_dy - xh * sum_dy_xhat);
            }
        }
    });
}

/// The forward's one elementwise body: every element `v` of one `(C,
/// plane)` sample becomes `(γ[ch] · k · ((v − μ) · inv) + β[ch]) · sv` by
/// its channel's `stats`, read from `src` (or from `dst` itself when `src`
/// is `None`) and written to `dst`.
#[inline(always)]
fn affine_sample(
    dst: &mut [f32],
    src: Option<&[f32]>,
    plane: usize,
    stats: &[f32],
    (gamma, beta, k): (&[f32], &[f32], f32),
    sv: f32,
) {
    let channels = dst.chunks_exact_mut(plane).zip(stats.chunks_exact(2));
    for (ch, (out, st)) in channels.enumerate() {
        let (mean, inv, gk, shift) = (st[0], st[1], gamma[ch] * k, beta[ch]);
        let f = |v: f32| (gk * ((v - mean) * inv) + shift) * sv;
        match src {
            None => out.iter_mut().for_each(|v| *v = f(*v)),
            Some(src) => {
                for (o, &v) in out.iter_mut().zip(&src[ch * plane..(ch + 1) * plane]) {
                    *o = f(v);
                }
            }
        }
    }
}

/// The statistics of the (group, channel) pairs `first..` into `out`, two
/// values a pair, lane block by lane block.
fn fill_stats(lanes: Lanes, dims: NormDims, x: &[f32], eps: f32, first: usize, out: &mut [f32]) {
    let n = dims.elements() as f32;
    let blocks = dims.blocks(first, out.len() / 2);
    let mut out = out.chunks_exact_mut(2);
    for block in blocks {
        let mean = lanes.plane_sums(x, block, None).map(|a| a / n);
        let dev = lanes.plane_sums(x, block, Some(&mean));
        let inv = dev.map(|d| 1.0 / (d / n + eps).sqrt());
        for ((st, m), inv) in out.by_ref().zip(mean).zip(inv).take(block.width) {
            st[0] = m;
            st[1] = inv;
        }
    }
}

/// Fills `sums`, `[groups · C × 2]`, with `(Σ dy, Σ dy·x̂)` of every group
/// and channel, `x̂ = (x − μ) · inv` from the `stats` [`channel_stats`]
/// filled (see the module docs for the order).
///
/// # Panics
///
/// Panics unless `sums` and `stats` hold two values per (group, channel) of
/// `x`, a whole number of groups of `dims`, and `dy` is shaped like `x`.
pub fn channel_grad_sums(
    rt: &Runtime,
    dims: NormDims,
    x: &[f32],
    dy: &[f32],
    stats: &[f32],
    sums: &mut [f32],
) {
    let _region = ttsnn_obs::region("norm_grad_sums");
    check(dims, x.len(), sums.len());
    assert!(dy.len() == x.len() && stats.len() == sums.len(), "norm: dy or stats misshapen");
    let lanes = Lanes::current();
    let grain = fork_grain(ELEMENT_COST * dims.elements());
    rt.parallel_over_ranges(sums, 2, grain, |first, run| {
        let blocks = dims.blocks(first, run.len() / 2);
        let mut out = run.chunks_exact_mut(2);
        let mut pair = first;
        for block in blocks {
            let stat =
                |k: usize| std::array::from_fn(|j| stats[2 * (pair + j.min(block.width - 1)) + k]);
            let [sdy, sdx] = lanes.grad_sums(dy, x, block, (&stat(0), &stat(1)));
            for (j, su) in out.by_ref().take(block.width).enumerate() {
                su[0] = sdy[j];
                su[1] = sdx[j];
            }
            pair += block.width;
        }
    });
}

/// Checks that `out_len` elements hold two values per (group, channel) of
/// an `x_len`-element operand of `dims`.
fn check(dims: NormDims, x_len: usize, out_len: usize) {
    let groups = if dims.c == 0 { 0 } else { out_len / (2 * dims.c) };
    assert!(
        out_len == 2 * groups * dims.c && x_len == groups * dims.b * dims.c * dims.plane,
        "norm: {out_len} values are not two per channel of {x_len} elements of {dims:?}"
    );
}

/// Calls `step` with each position of a lane block's rows in ascending
/// order, lane `j` from `rows[j]`. Eight positions at a time are copied out
/// of the rows first, so the lanes' arithmetic is on plain arrays.
#[inline(always)]
fn each_position(rows: [&[f32]; LANES], plane: usize, mut step: impl FnMut([f32; LANES])) {
    let p8 = plane - plane % 8;
    for p0 in (0..p8).step_by(8) {
        let block: [&[f32; 8]; LANES] = rows.map(|r| r[p0..].first_chunk().expect("8 positions"));
        for i in 0..8 {
            step(block.map(|r| r[i]));
        }
    }
    for p in p8..plane {
        step(rows.map(|r| r[p]));
    }
}

/// The portable statistics body: per lane, the sum of each sample's plane
/// from `−0.0` in ascending position — of the values, or with `mean` of
/// their squared deviations `(v − mean[j])²` — folded into `+0.0` in sample
/// order.
pub(crate) fn plane_sums_portable(
    x: &[f32],
    block: LaneBlock,
    mean: Option<&[f32; LANES]>,
) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    for s in 0..block.samples {
        let row = block.rows(x, s);
        let mut part = [-0.0f32; LANES];
        match mean {
            None => each_position(row, block.plane, |v| {
                for (sum, v) in part.iter_mut().zip(v) {
                    *sum += v;
                }
            }),
            Some(mean) => each_position(row, block.plane, |v| {
                for ((sum, v), &m) in part.iter_mut().zip(v).zip(mean) {
                    // `(v − m)²` as `powi(2)` computes it: one multiply.
                    let d = v - m;
                    *sum += d * d;
                }
            }),
        }
        for (a, p) in acc.iter_mut().zip(part) {
            *a += p;
        }
    }
    acc
}

/// The portable backward body: per lane, `Σ dy` and `Σ dy · ((v − mean[j])
/// · inv[j])`, each from `+0.0` through the samples and positions in order —
/// one channel at a time, a plain chain per sum. Lanes past `width` stay 0.
pub(crate) fn grad_sums_portable(
    dy: &[f32],
    x: &[f32],
    block: LaneBlock,
    (mean, inv): (&[f32; LANES], &[f32; LANES]),
) -> [[f32; LANES]; 2] {
    let [mut sdy, mut sdx] = [[0.0f32; LANES]; 2];
    for j in 0..block.width {
        let plane = j * block.plane..(j + 1) * block.plane;
        for s in 0..block.samples {
            let (g, v) = (&block.run(dy, s)[plane.clone()], &block.run(x, s)[plane.clone()]);
            for (&g, &v) in g.iter().zip(v) {
                sdy[j] += g;
                sdx[j] += g * ((v - mean[j]) * inv[j]);
            }
        }
    }
    [sdy, sdx]
}
