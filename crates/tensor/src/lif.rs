//! The LIF neuron of Eq. (1) as plain-slice kernels: the one place the
//! recurrence is written, for both execution planes.
//!
//! ```text
//! u_t = τ · m_{t−1} + x_t      (u_0 = x_0 + 0.0 from a reset neuron)
//! s_t = H(u_t − V_th)
//! m_t = u_t · (1 − s_t)
//! ```
//!
//! [`scan`] runs it forward over a time-major stack `[steps·B, …]` (row
//! `t·B + s`), on the kernel pool over disjoint ranges of neurons. The
//! training plane (`Var::lif_scan`) asks it to keep every pre-reset `u_t` for
//! [`scan_backward`]; the inference plane keeps only the membrane the
//! sequence ends on, and may ask for the spikes bit-packed as well — the
//! threshold compare has just been made, so the next convolution need not
//! rediscover that its input is binary ([`SpikeTensor::try_pack`]).
//!
//! A neuron's values never depend on how the columns were split, how many
//! threads ran them, or how a sequence was cut into calls.

use crate::runtime::{fork_grain, Runtime};
use crate::spike::SpikeTensor;
use crate::tensor::Tensor;

/// Neurons a scan task steps through time together: their running values
/// stay in a block this long (on the stack, in L1) while the task walks the
/// timesteps, and the loops over a block vectorise.
const SCAN_BLOCK: usize = 256;

/// The threshold compare, `u ≥ V_th`: written here and nowhere else.
#[inline]
fn fires(u: f32, vth: f32) -> bool {
    u >= vth
}

/// `H(u − V_th)` as `0.0` / `1.0`.
#[inline]
fn spike(u: f32, vth: f32) -> f32 {
    if fires(u, vth) {
        1.0
    } else {
        0.0
    }
}

/// The hard-reset gate `1 − H(u − V_th)` as `s · −1 + 1` (the negation is an
/// exact sign flip).
#[inline]
fn reset_gate(u: f32, vth: f32) -> f32 {
    -spike(u, vth) + 1.0
}

/// Packs 64 spikes into a word, lane `i` at bit `i`: a byte per lane (a
/// loop that vectorises), then eight lanes' bytes gathered into eight bits
/// by one multiply — byte `j` of the product's top byte sums `b_i · 2^i`
/// over the lanes with no carries, each `b_i` being 0 or 1.
fn pack_word(lanes: &[f32]) -> u64 {
    let mut bytes = [0u8; 64];
    for (b, &s) in bytes.iter_mut().zip(lanes) {
        *b = u8::from(s != 0.0);
    }
    bytes.chunks_exact(8).enumerate().fold(0u64, |word, (i, eight)| {
        let eight = u64::from_le_bytes(eight.try_into().expect("chunks of 8"));
        word | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
    })
}

/// One task's share of a time-major buffer `[steps, cols]`: the same range
/// of columns, starting at `first`, out of every timestep's row.
struct Columns<'a, T> {
    first: usize,
    rows: Vec<&'a mut [T]>,
}

/// Cuts the `steps` rows of `data` into the same ranges of `chunk` columns.
fn column_tasks<T>(data: &mut [T], steps: usize, chunk: usize) -> Vec<Columns<'_, T>> {
    let cols = data.len() / steps;
    let mut out: Vec<Columns<'_, T>> = (0..cols.div_ceil(chunk))
        .map(|i| Columns { first: i * chunk, rows: Vec::with_capacity(steps) })
        .collect();
    for row in data.chunks_mut(cols.max(1)) {
        for (task, part) in out.iter_mut().zip(row.chunks_mut(chunk)) {
            task.rows.push(part);
        }
    }
    out
}

/// [`column_tasks`] of a buffer only some scans have: `tasks` entries
/// either way.
fn optional_tasks<T>(
    data: Option<&mut [T]>,
    steps: usize,
    chunk: usize,
    tasks: usize,
) -> Vec<Option<Columns<'_, T>>> {
    let mut out: Vec<_> = match data {
        Some(d) => column_tasks(d, steps, chunk).into_iter().map(Some).collect(),
        None => Vec::new(),
    };
    out.resize_with(tasks, || None);
    out
}

/// Columns per task when `cols` neurons are scanned over `steps` timesteps
/// on `rt`, at `work` streamed operations per neuron and timestep. The
/// split never changes what a neuron computes.
fn columns_per_task(rt: &Runtime, cols: usize, steps: usize, work: usize) -> usize {
    let tasks = rt.threads().min(cols.div_ceil(fork_grain(work * steps))).max(1);
    cols.div_ceil(tasks).max(1)
}

/// One pool task of a [`scan`]: a range of neurons through every timestep.
struct ScanTask<'a> {
    s: Columns<'a, f32>,
    u: Option<Columns<'a, f32>>,
    last: Option<Columns<'a, f32>>,
    words: Option<Columns<'a, u64>>,
    fired: u64,
}

/// Which membranes a [`scan`] starts from and keeps.
#[derive(Debug)]
pub enum Keep<'a> {
    /// The training plane: every pre-reset membrane `u_t`, stacked like the
    /// input (what [`scan_backward`] reads), starting from the post-reset
    /// membrane `carry` `[B, …]` of an earlier scan if there was one.
    Every {
        /// Filled with `u_t`; shaped like the input.
        u: &'a mut Tensor,
        /// The membrane the sequence continues from.
        carry: Option<&'a Tensor>,
    },
    /// The inference plane: only the post-reset membrane `[B, …]` the
    /// sequence ends on, written over the one it started from.
    Last {
        /// Read (unless `fresh`) and rewritten.
        membrane: &'a mut Tensor,
        /// The neuron was reset: `membrane` holds nothing yet.
        fresh: bool,
    },
}

/// What a [`scan`] produced.
#[derive(Debug)]
pub struct Scanned {
    /// The binary spikes `s_t`, stacked like the input (an arena buffer).
    pub spikes: Tensor,
    /// How many neurons fired, over all timesteps.
    pub fired: u64,
    /// The same spikes bit-packed, if asked for and one timestep's neurons
    /// fill whole 64-bit words.
    pub packed: Option<SpikeTensor>,
}

/// Runs `steps` timesteps of the LIF recurrence (see the module docs) over
/// the synaptic input `x`, a time-major stack `[steps·B, …]`. `neuron` is
/// `(τ, V_th)`. With `pack`, the spikes also come back as a
/// [`SpikeTensor`] equal to `SpikeTensor::try_pack` of them, built from the
/// compare the scan makes anyway; task ranges are then cut on 64-neuron
/// boundaries, and a timestep that is not a whole number of words gets none.
///
/// # Panics
///
/// Panics if `x` does not hold `steps` timesteps or a [`Keep`] buffer is not
/// sized for it (callers check shapes; see `Lif::scan`, `Var::lif_scan`).
pub fn scan(
    rt: &Runtime,
    steps: usize,
    (tau, vth): (f32, f32),
    x: &Tensor,
    keep: Keep<'_>,
    pack: bool,
) -> Scanned {
    let _region = ttsnn_obs::region("lif_scan");
    assert!(
        steps > 0 && x.len().is_multiple_of(steps),
        "lif scan: input does not hold {steps} steps"
    );
    let cols = x.len() / steps;
    // `u` rows to keep, the read-only membrane to start from, the membrane
    // to start from (if `resume`) and end on.
    let (u, carry, last, resume) = match keep {
        Keep::Every { u, carry } => {
            assert_eq!(u.len(), x.len(), "lif scan: `u` does not match the input");
            assert!(carry.is_none_or(|c| c.len() == cols), "lif scan: carry is not one timestep");
            (Some(u.data_mut()), carry.map(Tensor::data), None, false)
        }
        Keep::Last { membrane, fresh } => {
            assert_eq!(membrane.len(), cols, "lif scan: membrane is not one timestep");
            (None, None, Some(membrane.data_mut()), !fresh)
        }
    };
    let mut spikes = Tensor::scratch(x.shape());
    let mut packed = (pack && cols.is_multiple_of(64)).then(|| SpikeTensor::unfilled(x.shape()));
    let mut chunk = columns_per_task(rt, cols, steps, 6);
    if packed.is_some() {
        chunk = chunk.next_multiple_of(64);
    }
    let x = x.data();
    let mut work: Vec<ScanTask<'_>> = {
        let s = column_tasks(spikes.data_mut(), steps, chunk);
        let tasks = s.len();
        let u = optional_tasks(u, steps, chunk, tasks);
        let last = optional_tasks(last, 1, chunk, tasks);
        let words = packed.as_mut().map(SpikeTensor::words_mut);
        let words = optional_tasks(words, steps, chunk / 64, tasks);
        s.into_iter()
            .zip(u)
            .zip(last)
            .zip(words)
            .map(|(((s, u), last), words)| ScanTask { s, u, last, words, fired: 0 })
            .collect()
    };
    rt.parallel_over_slabs(&mut work, 1, 1, |_, task| {
        let ScanTask { s, u, last, words, fired } = &mut task[0];
        let len = s.rows[0].len();
        let (mut m, mut u_block) = ([0.0f32; SCAN_BLOCK], [0.0f32; SCAN_BLOCK]);
        for b0 in (0..len).step_by(SCAN_BLOCK) {
            let n = SCAN_BLOCK.min(len - b0);
            let m = &mut m[..n];
            let at = s.first + b0;
            // The membrane the block starts from, if the neuron has one.
            let mut charged = true;
            match (carry, last.as_ref()) {
                (Some(carry), _) => m.copy_from_slice(&carry[at..][..n]),
                (None, Some(held)) if resume => m.copy_from_slice(&held.rows[0][b0..b0 + n]),
                _ => charged = false,
            }
            for t in 0..steps {
                let xs = &x[t * cols + at..][..n];
                let us = match u.as_mut() {
                    Some(u) => &mut u.rows[t][b0..b0 + n],
                    None => &mut u_block[..n],
                };
                if charged {
                    us.iter_mut().zip(&*m).zip(xs).for_each(|((u, &m), &x)| *u = m * tau + x);
                } else {
                    us.iter_mut().zip(xs).for_each(|(u, &x)| *u = x + 0.0);
                }
                charged = true;
                let ss = &mut s.rows[t][b0..b0 + n];
                let mut count = 0u32;
                for ((s, m), &uv) in ss.iter_mut().zip(m.iter_mut()).zip(&*us) {
                    *s = spike(uv, vth);
                    *m = uv * reset_gate(uv, vth);
                    count += u32::from(fires(uv, vth));
                }
                *fired += u64::from(count);
                // A second pass over the block the compare just wrote (it is
                // in L1); building the words inside the loop above keeps it
                // from vectorising.
                if let Some(w) = words.as_mut() {
                    let block = w.rows[t][b0 / 64..].iter_mut().zip(ss.chunks_exact(64));
                    block.for_each(|(word, lanes)| *word = pack_word(lanes));
                }
            }
            if let Some(held) = last.as_mut() {
                held.rows[0][b0..b0 + n].copy_from_slice(m);
            }
        }
    });
    let fired = work.iter().map(|task| task.fired).sum();
    drop(work);
    if let Some(p) = packed.as_mut() {
        p.set_ones(fired as usize);
    }
    Scanned { spikes, fired, packed }
}

/// The reverse scan: rewrites `g` from `dS` to `dx` in place, `g_t = dS_t ·
/// σ'(u_t − V_th) + (τ · g_{t+1}) · (1 − s_t)` with the reset gate detached
/// (STBP). `u` is what a [`Keep::Every`] scan filled, `neuron` is `(τ,
/// V_th)`, `sg` the surrogate derivative σ'; `carries` is the gradient
/// reaching the membrane after the last timestep, if a later scan continued
/// this one, and where to write the gradient of the carry this scan started
/// from, if it wants one.
pub fn scan_backward(
    rt: &Runtime,
    steps: usize,
    (tau, vth): (f32, f32),
    sg: impl Fn(f32) -> f32 + Sync,
    u: &[f32],
    g: &mut [f32],
    (carry_out, dcarry): (Option<&[f32]>, Option<&mut Tensor>),
) {
    let cols = u.len() / steps;
    let chunk = columns_per_task(rt, cols, steps, 8);
    let work = column_tasks(g, steps, chunk);
    // A carry's gradient is one more row, cut into the same column ranges.
    let dcarry = optional_tasks(dcarry.map(Tensor::data_mut), 1, chunk, work.len());
    let mut work: Vec<_> = work.into_iter().zip(dcarry).collect();
    rt.parallel_over_slabs(&mut work, 1, 1, |_, task| {
        let (g, dcarry) = &mut task[0];
        let len = g.rows[0].len();
        // gm: the gradient reaching the post-reset membrane m_t.
        let mut gm = [0.0f32; SCAN_BLOCK];
        for b0 in (0..len).step_by(SCAN_BLOCK) {
            let n = SCAN_BLOCK.min(len - b0);
            let gm = &mut gm[..n];
            let at = g.first + b0;
            let mut have_gm = carry_out.is_some();
            if let Some(c) = carry_out {
                gm.copy_from_slice(&c[at..][..n]);
            }
            for t in (0..steps).rev() {
                let us = &u[t * cols + at..][..n];
                let gs = &mut g.rows[t][b0..b0 + n];
                if have_gm {
                    for ((g, gm), &uv) in gs.iter_mut().zip(gm.iter_mut()).zip(us) {
                        *g = *g * sg(uv - vth) + *gm * reset_gate(uv, vth);
                        *gm = *g * tau;
                    }
                } else {
                    for ((g, gm), &uv) in gs.iter_mut().zip(gm.iter_mut()).zip(us) {
                        *g *= sg(uv - vth);
                        *gm = *g * tau;
                    }
                }
                have_gm = true;
            }
            if let Some(d) = dcarry {
                d.rows[0][b0..b0 + n].copy_from_slice(gm);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// Both scans at sizes where the column split forks — one that is a whole
    /// number of words a timestep and packs, one that is not — in both
    /// [`Keep`] modes: the same bits at every thread count.
    #[test]
    fn scans_are_thread_count_invariant() {
        let mut rng = Rng::seed_from(56);
        let steps = 5;
        for cols in [4 * 32 * 8 * 8 + 3, 4 * 32 * 8 * 8] {
            let x = Tensor::randn(&[steps, cols], &mut rng);
            let carry = Tensor::randn(&[1, cols], &mut rng);
            let ds = Tensor::randn(&[steps * cols], &mut rng);
            let carry_grad = Tensor::randn(&[cols], &mut rng);
            let run = |threads: usize| {
                let rt = Runtime::new(threads);
                let mut u = Tensor::full(&[steps, cols], f32::NAN);
                let keep = Keep::Every { u: &mut u, carry: Some(&carry) };
                let every = scan(&rt, steps, (0.25, 0.5), &x, keep, false);
                let mut membrane = carry.clone();
                let keep = Keep::Last { membrane: &mut membrane, fresh: false };
                let last = scan(&rt, steps, (0.25, 0.5), &x, keep, true);
                assert_eq!(last.packed.is_some(), cols % 64 == 0);
                assert_eq!(
                    last.packed,
                    last.packed.as_ref().and(SpikeTensor::try_pack(&last.spikes))
                );
                assert_eq!(
                    (last.fired, bits(last.spikes.data())),
                    (every.fired, bits(every.spikes.data()))
                );
                let mut g = ds.data().to_vec();
                let mut dcarry = Tensor::full(&[cols], f32::NAN);
                let triangle = |x: f32| (1.0 - x.abs()).max(0.0);
                let carries = (Some(carry_grad.data()), Some(&mut dcarry));
                scan_backward(&rt, steps, (0.25, 0.5), triangle, u.data(), &mut g, carries);
                let out =
                    (every.fired, bits(u.data()), bits(every.spikes.data()), bits(membrane.data()));
                (out, bits(&g), bits(dcarry.data()))
            };
            let want = run(1);
            assert!(want.2.iter().all(|&b| !f32::from_bits(b).is_nan()), "a column was skipped");
            assert!(
                want.0 .3.iter().all(|&b| !f32::from_bits(b).is_nan()),
                "a membrane was skipped"
            );
            for threads in [2, 3, 8] {
                assert!(run(threads) == want, "{cols} columns: a bit moved at {threads} threads");
            }
        }
    }

    /// The membrane a [`Keep::Last`] scan ends on is `u · (1 − s)` of the
    /// last `u` a [`Keep::Every`] scan keeps, and a reset neuron needs no
    /// initialised membrane buffer.
    #[test]
    fn last_membrane_is_the_reset_of_the_last_kept_u() {
        let mut rng = Rng::seed_from(57);
        let (steps, cols) = (3, 70);
        let x = Tensor::randn(&[steps, cols], &mut rng);
        let rt = Runtime::new(1);
        let mut u = Tensor::zeros(&[steps, cols]);
        let every =
            scan(&rt, steps, (0.25, 0.5), &x, Keep::Every { u: &mut u, carry: None }, false);
        let mut membrane = Tensor::full(&[1, cols], f32::NAN);
        let keep = Keep::Last { membrane: &mut membrane, fresh: true };
        let last = scan(&rt, steps, (0.25, 0.5), &x, keep, true);
        assert!(last.packed.is_none(), "70 neurons a timestep are not whole words");
        assert_eq!(bits(last.spikes.data()), bits(every.spikes.data()));
        let tail = (steps - 1) * cols;
        let want: Vec<f32> = u.data()[tail..]
            .iter()
            .zip(&every.spikes.data()[tail..])
            .map(|(&u, &s)| u * (-s + 1.0))
            .collect();
        assert_eq!(bits(membrane.data()), bits(&want));
    }
}
