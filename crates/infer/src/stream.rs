//! Stateful streaming sessions: the per-replica session-state machinery
//! behind `ClusterSession::open_stream`.
//!
//! # Why streaming needs state
//!
//! A whole-stream request hands the plan all `T` timesteps at once; the
//! executor resets the LIF membranes, runs them in one layer-major call,
//! and returns the time-summed logits. A **streaming client** — an event camera, a live
//! sensor — produces those timesteps incrementally. The only state the
//! inference plane carries between timesteps is the LIF membrane
//! potential (`ttsnn_snn::InferState`), so a session is exactly: the
//! membrane snapshot, the absolute timestep reached, and the running
//! logit sum. Between chunks the state is **moved** out of the model
//! ([`ttsnn_snn::InferForward::take_infer_state`]) and moved back in
//! before the next chunk — no copies, no rounding — which is what makes
//! the headline guarantee provable:
//!
//! > Feeding a `T`-timestep input in chunks of any sizes yields logits
//! > **bit-identical** to submitting it whole, after every prefix.
//!
//! Normalization layers are stateless but TEBN's learned scales are
//! indexed by **absolute** timestep, so each session tracks its absolute
//! `t` and chunks execute at `t, t+1, …` — never restarting from 0.
//!
//! # Early exit
//!
//! With [`EarlyExit`] configured, the margin `top1 − top2` of the
//! *cumulative* logits is checked after **every executed timestep** (not
//! at chunk ends — the exit point must not depend on how the client
//! chunked the stream). Once the margin clears the threshold at
//! `t ≥ min_timesteps`, the session's readout freezes: remaining
//! timesteps are skipped, accounted as [`StreamUpdate::macs_skipped`]
//! via `SpikingModel::macs_at` — the anytime-inference MAC saving. That
//! check is also what decides how a chunk is executed: a stream with an
//! exit rule calls the model a timestep at a time, a stream without one
//! hands it the whole chunk (the model gives the same bits either way).
//!
//! # Bounded resident state
//!
//! Session state is real memory (one membrane set per session). A
//! [`StreamTable`] enforces an optional byte bound by evicting the
//! least-recently-fed sessions (never the one currently being served);
//! an evicted session's later feeds fail with
//! [`InferError::SessionEvicted`] — and eviction cannot perturb any
//! surviving session's bits, because state is per-session and moved, not
//! shared.

use std::collections::HashMap;

use ttsnn_snn::model::{copy_frame, validate_frames};
use ttsnn_snn::{InferForward, InferState, Network, SpikingModel};
use ttsnn_tensor::Tensor;

use crate::plan::{self, InferError};

/// Spike-count-margin early-exit policy for streaming sessions: stop
/// integrating once the cumulative logit margin `top1 − top2` reaches
/// `margin` at or after `min_timesteps` executed timesteps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyExit {
    /// Required margin between the best and second-best cumulative
    /// logits.
    pub margin: f32,
    /// Never exit before this many timesteps have executed (≥ 1; 0 is
    /// treated as 1).
    pub min_timesteps: usize,
}

impl EarlyExit {
    /// An early-exit policy with the given margin, allowed from the first
    /// timestep on.
    pub fn margin(margin: f32) -> Self {
        Self { margin, min_timesteps: 1 }
    }

    /// Returns this policy with a minimum executed-timestep floor.
    pub fn with_min_timesteps(mut self, min_timesteps: usize) -> Self {
        self.min_timesteps = min_timesteps;
        self
    }
}

/// Per-session knobs fixed at `open_stream` time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamOptions {
    /// Optional early-exit readout. `None` always integrates all
    /// timesteps.
    pub early_exit: Option<EarlyExit>,
}

impl StreamOptions {
    /// Options with the given early-exit policy.
    pub fn early_exit(policy: EarlyExit) -> Self {
        Self { early_exit: Some(policy) }
    }
}

/// The any-time answer after one accepted chunk: cumulative logits plus
/// progress and MAC accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamUpdate {
    /// Cumulative `(K,)` logits over every timestep executed so far — the
    /// exact prefix sum a whole-stream request would have at this point.
    pub logits: Tensor,
    /// Absolute timesteps consumed so far (executed + skipped).
    pub timesteps: usize,
    /// Timesteps actually executed so far (≤ `timesteps`; they diverge
    /// only after an early exit).
    pub executed: usize,
    /// `Some(t)` once the early-exit margin was reached after executing
    /// timestep `t - 1`: the readout is frozen from `t` on.
    pub exited_at: Option<usize>,
    /// MACs spent executing timesteps so far.
    pub macs_executed: u64,
    /// MACs avoided by the early exit so far (what the skipped timesteps
    /// would have cost, per `SpikingModel::macs_at`).
    pub macs_skipped: u64,
}

/// One live session: membrane snapshot, absolute position, running sum.
struct StreamState {
    /// Membranes between chunks; `None` before the first executed
    /// timestep and after an early exit (no more execution → no state).
    state: Option<InferState>,
    /// Absolute timestep reached (frames consumed, executed or skipped).
    t: usize,
    /// Timesteps actually executed.
    executed: usize,
    /// Running `(1, K)` logit sum over executed timesteps.
    summed: Option<Tensor>,
    /// Early-exit point, once reached.
    exited_at: Option<usize>,
    macs_executed: u64,
    macs_skipped: u64,
    early_exit: Option<EarlyExit>,
    /// LRU clock value of the last feed (or open).
    last_touch: u64,
}

impl StreamState {
    /// Resident membrane bytes this session pins.
    fn bytes(&self) -> usize {
        self.state.as_ref().map_or(0, InferState::bytes)
    }

    fn update(&self) -> StreamUpdate {
        let logits = match &self.summed {
            Some(s) => Tensor::from_vec(s.data().to_vec(), &[s.len()]).expect("logit row"),
            None => Tensor::zeros(&[0]),
        };
        StreamUpdate {
            logits,
            timesteps: self.t,
            executed: self.executed,
            exited_at: self.exited_at,
            macs_executed: self.macs_executed,
            macs_skipped: self.macs_skipped,
        }
    }
}

/// What a feed did to the table's accounting (for metrics reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FeedReport {
    /// Timesteps executed by this chunk.
    pub(crate) executed: u64,
    /// Timesteps skipped by this chunk (post-early-exit).
    pub(crate) skipped: u64,
    /// MACs spent by this chunk.
    pub(crate) macs_executed: u64,
    /// MACs avoided by this chunk.
    pub(crate) macs_skipped: u64,
}

/// The replica-side session table: id → state, plus eviction accounting.
/// One per cluster replica; lives on the replica's thread, so no locking.
pub(crate) struct StreamTable {
    sessions: HashMap<u64, StreamState>,
    /// Ids evicted under memory pressure — kept to distinguish
    /// [`InferError::SessionEvicted`] from [`InferError::SessionClosed`].
    evicted: std::collections::HashSet<u64>,
    /// Byte bound on resident membrane state; `None` is unbounded.
    max_bytes: Option<usize>,
    /// Monotonic LRU clock.
    clock: u64,
}

impl StreamTable {
    pub(crate) fn new(max_bytes: Option<usize>) -> Self {
        Self {
            sessions: HashMap::new(),
            evicted: std::collections::HashSet::new(),
            max_bytes,
            clock: 0,
        }
    }

    /// Registers a fresh session. An id is registered at most once (ids
    /// come from a monotonic counter).
    pub(crate) fn open(&mut self, id: u64, opts: StreamOptions) {
        self.clock += 1;
        self.sessions.insert(
            id,
            StreamState {
                state: None,
                t: 0,
                executed: 0,
                summed: None,
                exited_at: None,
                macs_executed: 0,
                macs_skipped: 0,
                early_exit: opts.early_exit,
                last_touch: self.clock,
            },
        );
    }

    /// Drops a session's state. Returns whether it was resident.
    pub(crate) fn close(&mut self, id: u64) -> bool {
        self.evicted.remove(&id);
        if let Some(st) = self.sessions.remove(&id) {
            recycle_state(st);
            true
        } else {
            false
        }
    }

    /// Total resident membrane bytes across all sessions.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.sessions.values().map(StreamState::bytes).sum()
    }

    /// Live session count.
    pub(crate) fn active(&self) -> usize {
        self.sessions.len()
    }

    /// Evicts least-recently-fed sessions until the resident bytes fit
    /// the bound, never touching `protect` (the session just served).
    /// Returns the number of sessions evicted.
    pub(crate) fn evict_to_bound(&mut self, protect: u64) -> usize {
        let Some(bound) = self.max_bytes else { return 0 };
        let mut evicted = 0;
        while self.resident_bytes() > bound {
            let victim = self
                .sessions
                .iter()
                .filter(|(&id, st)| id != protect && st.bytes() > 0)
                .min_by_key(|(_, st)| st.last_touch)
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            if let Some(st) = self.sessions.remove(&id) {
                recycle_state(st);
            }
            self.evicted.insert(id);
            evicted += 1;
        }
        evicted
    }

    /// Feeds one chunk into a session: executes its timesteps on `model`
    /// (or skips them post-early-exit) and returns the any-time update
    /// plus the accounting delta.
    ///
    /// # Errors
    ///
    /// [`InferError::SessionEvicted`] / [`InferError::SessionClosed`] for
    /// dead ids, [`InferError::Shape`] for a malformed chunk or one that
    /// overruns the plan's `timesteps`. The session (and every other
    /// session) is untouched by a rejected chunk.
    pub(crate) fn feed(
        &mut self,
        model: &mut Network,
        timesteps: usize,
        id: u64,
        chunk: &Tensor,
    ) -> Result<(StreamUpdate, FeedReport), InferError> {
        if self.evicted.contains(&id) {
            return Err(InferError::SessionEvicted);
        }
        let Some(st) = self.sessions.get_mut(&id) else {
            return Err(InferError::SessionClosed);
        };
        let n = validate_frames(chunk, model.program().input, None, "stream chunk")
            .map_err(InferError::Shape)?;
        if st.t + n > timesteps {
            return Err(InferError::Shape(format!(
                "stream chunk of {n} timesteps at position {} overruns the plan's {timesteps} \
                 timesteps",
                st.t
            )));
        }
        self.clock += 1;
        st.last_touch = self.clock;
        let mut report = FeedReport::default();
        if st.exited_at.is_some() {
            // Readout frozen: consume the frames, bank the savings.
            for i in 0..n {
                report.macs_skipped += model.macs_at(st.t + i) as u64;
            }
            report.skipped = n as u64;
            st.t += n;
            st.macs_skipped += report.macs_skipped;
            return Ok((st.update(), report));
        }
        run_chunk(model, st, chunk, n, &mut report)?;
        Ok((st.update(), report))
    }
}

/// Hands a closed/evicted session's buffers back to the arena.
fn recycle_state(st: StreamState) {
    if let Some(state) = st.state {
        for m in state.into_membranes().into_iter().flatten() {
            m.recycle();
        }
    }
    if let Some(s) = st.summed {
        s.recycle();
    }
}

/// Executes `n` frames of `chunk` at the session's absolute position. The
/// cut follows from what the stream is: with an exit rule the margin has to
/// be tested after every timestep, so the model is called a timestep at a
/// time; without one nothing happens between timesteps and the whole chunk
/// is one layer-major call.
fn run_chunk(
    model: &mut Network,
    st: &mut StreamState,
    chunk: &Tensor,
    n: usize,
    report: &mut FeedReport,
) -> Result<(), InferError> {
    let [c, h, w] = model.program().input;
    let frame_len = c * h * w;
    // Install this session's membranes (a fresh session starts from the
    // reset state, exactly like a whole-stream request's t = 0).
    model.reset_state();
    if let Some(state) = st.state.take() {
        model
            .restore_infer_state(state)
            .map_err(|e| InferError::Shape(format!("stream state restore: {e}")))?;
    }
    let cut = if st.early_exit.is_some() { 1 } else { n };
    // A session is a batch of one, so `cut` frames are already a stack.
    let mut stack = Tensor::scratch(&[cut, c, h, w]);
    let mut exited_mid_chunk = false;
    for i in (0..n).step_by(cut) {
        let t = st.t + i;
        let macs: u64 = (t..t + cut).map(|t| model.macs_at(t) as u64).sum();
        if exited_mid_chunk {
            report.skipped += 1;
            report.macs_skipped += macs;
            continue;
        }
        for (j, row) in stack.data_mut().chunks_mut(frame_len).enumerate() {
            copy_frame(chunk, i + j, row);
        }
        match plan::forward_steps(model, &stack, (t, cut), macs) {
            Ok(logits) => st.summed = Some(plan::fold_logits(st.summed.take(), logits, 1)),
            Err(e) => {
                // Unreachable for validated chunks; poison the session
                // rather than serve from half-advanced state.
                model.reset_state();
                stack.recycle();
                st.state = None;
                return Err(InferError::Shape(e));
            }
        }
        report.executed += cut as u64;
        report.macs_executed += macs;
        if let Some(ee) = st.early_exit {
            if t + 1 >= ee.min_timesteps.max(1) {
                let summed = st.summed.as_ref().expect("summed after a step");
                if margin(summed.data()) >= ee.margin {
                    st.exited_at = Some(t + 1);
                    exited_mid_chunk = true;
                }
            }
        }
    }
    stack.recycle();
    st.t += n;
    st.executed += report.executed as usize;
    st.macs_executed += report.macs_executed;
    st.macs_skipped += report.macs_skipped;
    if exited_mid_chunk {
        // No further execution: drop the membranes back to the arena.
        model.reset_state();
        st.state = None;
    } else {
        st.state = Some(model.take_infer_state());
    }
    Ok(())
}

/// `top1 − top2` of a logit row (0.0 for fewer than two classes, so a
/// 1-class plan never "exits" on vacuous confidence).
fn margin(logits: &[f32]) -> f32 {
    let (mut top1, mut top2) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
    for &v in logits {
        if v > top1 {
            top2 = top1;
            top1 = v;
        } else if v > top2 {
            top2 = v;
        }
    }
    if top2 == f32::NEG_INFINITY {
        0.0
    } else {
        top1 - top2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_is_top1_minus_top2() {
        assert_eq!(margin(&[1.0, 4.0, 2.5]), 1.5);
        assert_eq!(margin(&[-1.0, -3.0]), 2.0);
        assert_eq!(margin(&[7.0]), 0.0);
        assert_eq!(margin(&[]), 0.0);
    }

    #[test]
    fn table_lifecycle_and_errors() {
        let mut table = StreamTable::new(None);
        table.open(1, StreamOptions::default());
        assert_eq!(table.active(), 1);
        assert_eq!(table.resident_bytes(), 0);
        assert!(table.close(1));
        assert!(!table.close(1));
        assert_eq!(table.active(), 0);
    }

    /// `stream_state_bytes` budgets `len`; the arena bounds what that can
    /// under-count: a pinned membrane's capacity is at most twice its
    /// length, however large the buffers parked on the replica thread.
    #[test]
    fn pinned_membranes_hold_at_most_twice_their_length() {
        use ttsnn_snn::quant::QuantConfig;
        use ttsnn_snn::{ConvPolicy, InferForward, InferStats, VggConfig, VggSnn};
        use ttsnn_tensor::spike::SparseMode;
        use ttsnn_tensor::Rng;

        // An arena full of buffers far larger than any membrane — and just
        // over twice the size of plausible ones.
        for k in 4..=18 {
            for cap in [(2 << k) + 1, 3 << k, 1 << 18] {
                Tensor::zeros(&[cap]).recycle();
            }
        }
        // Int8 on the dense kernels: every membrane is a `qconv2d` output,
        // a buffer that has always come from the arena.
        let cfg = VggConfig::vgg9(2, 5, (8, 8), 16);
        let mut model = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut Rng::seed_from(5));
        let chunk = Tensor::full(&[2, 2, 8, 8], 1.0);
        let calib = model.calibrate(std::slice::from_ref(&chunk), 2).expect("calibrate");
        model.quantize(&calib, &QuantConfig::default()).expect("quantize");
        model.set_sparse_mode(SparseMode::Off);
        model.set_infer_stats(InferStats::PerSample);
        let mut table = StreamTable::new(None);
        table.open(1, StreamOptions::default());
        table.feed(&mut model, 4, 1, &chunk).expect("feed");

        let resident = table.resident_bytes();
        let state = table.sessions.get_mut(&1).unwrap().state.take().expect("pinned state");
        assert_eq!(resident, state.bytes());
        let mut held = 0;
        for m in state.into_membranes().into_iter().flatten() {
            let len = m.len();
            let cap = m.into_vec().capacity();
            assert!(cap <= 2 * len, "membrane of {len} elements holds {cap}");
            held += cap * std::mem::size_of::<f32>();
        }
        assert!(resident > 0 && held <= 2 * resident, "{held} B held for {resident} B budgeted");
    }
}
