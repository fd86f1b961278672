//! `stream_f32_events` — the stateful side of `infer`.
//!
//! An in-process merged f32 cluster; each client opens a streaming
//! session with margin early exit (at least 2 timesteps), feeds T = 8
//! event timesteps as 4 pushes of 2, and drops the session. This
//! exercises stream lanes, membrane take / restore between chunks and the
//! post-exit skip — the "writes beside reads" partner of the stateless
//! serving workloads.
//!
//! **Why the margins are calibrated.** With one fixed margin, how many
//! timesteps a random-init model executes before it is confident swings
//! from 0.3 to 1.0 of the stream between seeds, and throughput with it
//! (590 to 1900 streams/s measured over six seeds) — the benchmark would
//! measure the seed, not the program. So the exit *schedule* is fixed and
//! the margins are generated: preparation feeds each candidate stream one
//! timestep at a time without early exit, reads the margin after every
//! timestep, and gives the stream the margin that makes it exit exactly
//! where [`EXIT_AFTER`] says (mid-chunk after 3 timesteps, on a chunk
//! boundary after 6, or never). Every seed then executes exactly 25 of
//! every 32 timesteps (0.78), and each push does the same work.

use std::time::{Duration, Instant};

use ttsnn_data::{stack_frames, EventStream};
use ttsnn_infer::{Cluster, ClusterSession, EarlyExit, StreamOptions, StreamUpdate};
use ttsnn_tensor::Tensor;

use crate::fixtures::{self, bits, same_bits, Stream, CLASSES, HW};
use crate::trace::Tracer;
use crate::workload::{closed_loop, ms_since, Round, Scenario, Tally};

/// Timesteps per stream.
pub const TIMESTEPS: usize = 8;
/// Timesteps per pushed chunk.
pub const CHUNK: usize = 2;
/// Distinct streams cycled by the clients.
pub const STREAMS: usize = 32;
/// Early exit is allowed from this many executed timesteps on.
const MIN_TIMESTEPS: usize = 2;
/// After how many executed timesteps stream `i` exits
/// (`EXIT_AFTER[i % 4]`); [`TIMESTEPS`] means it never does.
pub const EXIT_AFTER: [usize; 4] = [3, TIMESTEPS, 6, TIMESTEPS];
/// Warm-up streams each client completes before the window opens.
const WARMUP_STREAMS: usize = 8;
/// Candidate streams whose margins preparation always reads.
const POOL: usize = 2 * STREAMS;

/// A candidate stream: what generates it and its margin after every
/// executed timestep.
struct Candidate {
    class: usize,
    stream_seed: u64,
    margins: Vec<f32>,
    used: bool,
}

/// What one push must return: logit bits, executed timesteps, exit point.
type Expected = (Vec<u32>, usize, Option<usize>);

/// The prepared workload.
pub struct Streams {
    clients: usize,
    checkpoint: Vec<u8>,
    /// Per stream, its chunks in feed order.
    pub chunks: Vec<Vec<Tensor>>,
    /// Per stream, the session options carrying its calibrated margin.
    pub options: Vec<StreamOptions>,
    /// Per stream, per push, the reference answer from the solo path.
    pub reference: Vec<Vec<Expected>>,
}

/// Session options that exit once the margin reaches `margin`.
fn exit_at_margin(margin: f32) -> StreamOptions {
    StreamOptions::early_exit(EarlyExit::margin(margin).with_min_timesteps(MIN_TIMESTEPS))
}

/// `top1 - top2` of a logit row, as the engine's exit rule computes it.
fn margin(logits: &[f32]) -> f32 {
    let (mut top1, mut top2) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
    for &v in logits {
        if v > top1 {
            (top1, top2) = (v, top1);
        } else if v > top2 {
            top2 = v;
        }
    }
    top1 - top2
}

/// The margin under which a stream whose margin after `t` executed
/// timesteps is `margins[t - 1]` exits after exactly `exit_after`
/// timesteps; `None` when no margin does that.
fn margin_for_exit(margins: &[f32], exit_after: usize) -> Option<f32> {
    if exit_after >= margins.len() {
        return Some(f32::MAX); // never confident enough
    }
    let reached = margins[exit_after - 1];
    let before = margins[MIN_TIMESTEPS - 1..exit_after - 1].iter().fold(0.0f32, |m, &v| m.max(v));
    let threshold = before + (reached - before) / 2.0;
    (before < threshold && threshold <= reached).then_some(threshold)
}

impl Streams {
    /// Generates checkpoint and streams from `seed`, calibrates each
    /// stream's margin to the fixed exit schedule, then feeds every
    /// stream alone, one at a time, through a separate cluster to record
    /// what each push must return.
    pub fn prepare(seed: u64, clients: usize) -> Self {
        let mut this = Streams {
            clients,
            checkpoint: fixtures::vgg_checkpoint(2, seed),
            chunks: Vec::new(),
            options: Vec::new(),
            reference: Vec::new(),
        };
        let gen = EventStream::ncaltech_like(HW.0, HW.1, CLASSES, TIMESTEPS);
        let base = fixtures::sub_seed(seed, Stream::Data as u64 + 1);
        let solo = this.load();
        let session = solo.session();

        // A fixed pool of candidates is fed through first, so preparation
        // costs the same for every seed; more are drawn only if the pool
        // cannot fill the schedule. The most constrained slots choose
        // first, each taking the first unused candidate whose margins can
        // produce its exit point.
        let mut pool: Vec<Candidate> = Vec::new();
        let draw = |pool: &mut Vec<Candidate>| {
            let lane = pool.len() as u64;
            assert!(lane < 16 * POOL as u64, "no stream fits the exit schedule");
            let (class, stream_seed) = (lane as usize % CLASSES, fixtures::sub_seed(base, lane));
            let probe = session.open_stream(StreamOptions::default()).expect("open a stream");
            let margins = gen
                .slice(class, stream_seed, 0, TIMESTEPS)
                .into_iter()
                .map(|frame| margin(probe.push(frame).expect("calibration push").logits.data()))
                .collect();
            pool.push(Candidate { class, stream_seed, margins, used: false });
        };
        for _ in 0..POOL {
            draw(&mut pool);
        }
        let mut slots: Vec<usize> = (0..STREAMS).collect();
        slots.sort_by_key(|&slot| {
            let exit = EXIT_AFTER[slot % EXIT_AFTER.len()];
            if exit < TIMESTEPS {
                TIMESTEPS - exit
            } else {
                TIMESTEPS
            }
        });
        let mut chosen: Vec<Option<(usize, f32)>> = vec![None; STREAMS];
        for slot in slots {
            let exit_after = EXIT_AFTER[slot % EXIT_AFTER.len()];
            let mut next = 0;
            chosen[slot] = loop {
                if next == pool.len() {
                    draw(&mut pool);
                }
                let fit = margin_for_exit(&pool[next].margins, exit_after);
                if let (false, Some(threshold)) = (pool[next].used, fit) {
                    pool[next].used = true;
                    break Some((next, threshold));
                }
                next += 1;
            };
        }
        for (index, threshold) in chosen.into_iter().flatten() {
            let Candidate { class, stream_seed, .. } = pool[index];
            this.options.push(exit_at_margin(threshold));
            this.chunks.push(
                (0..TIMESTEPS / CHUNK)
                    .map(|k| {
                        let frames = gen.slice(class, stream_seed, k * CHUNK, (k + 1) * CHUNK);
                        stack_frames(&frames).expect("event frames share a shape")
                    })
                    .collect(),
            );
        }

        this.reference = this
            .chunks
            .iter()
            .zip(&this.options)
            .map(|(chunks, &options)| {
                let stream = session.open_stream(options).expect("open the reference stream");
                chunks
                    .iter()
                    .map(|c| {
                        let u = stream.push(c.clone()).expect("reference push");
                        (bits(u.logits.data()), u.executed, u.exited_at)
                    })
                    .collect()
            })
            .collect();
        this
    }

    /// Loads a fresh merged f32 plan.
    pub fn load(&self) -> Cluster {
        Cluster::load(fixtures::cluster_cfg(2, TIMESTEPS, 8), self.checkpoint.as_slice())
            .expect("load the streaming plan")
    }

    /// One whole stream: open, push every chunk, drop. Counts one
    /// operation per push and one unit of goodput per fully verified
    /// stream.
    pub fn one_stream(
        &self,
        session: &ClusterSession,
        index: usize,
        tracer: &mut Tracer,
        tally: &mut Tally,
        op_id: u64,
    ) {
        let index = index % self.chunks.len();
        let began = Instant::now();
        let opened = tracer.span("open_stream", op_id, Some("stream"), || {
            session.open_stream(self.options[index])
        });
        let mut all_ok = opened.is_ok();
        for (chunk, expected) in self.chunks[index].iter().zip(&self.reference[index]) {
            let pushed = Instant::now();
            let ok = tracer.span("push", op_id, Some("stream"), || {
                opened
                    .as_ref()
                    .is_ok_and(|s| s.push(chunk.clone()).is_ok_and(|u| matches(&u, expected)))
            });
            tally.op(ms_since(pushed), ok);
            all_ok &= ok;
        }
        tracer.span("close_stream", op_id, Some("stream"), || drop(opened));
        tracer.root("stream", op_id, began);
        tally.good += u64::from(all_ok);
    }
}

/// Whether an update equals the reference: logits bit for bit, plus the
/// executed-timestep count and the exit point.
pub fn matches(update: &StreamUpdate, expected: &Expected) -> bool {
    same_bits(update.logits.data(), &expected.0)
        && update.executed == expected.1
        && update.exited_at == expected.2
}

impl Scenario for Streams {
    fn round(&self, window: Duration, trace_epoch: Option<Instant>) -> Round {
        let began = Instant::now();
        let cluster = self.load();
        closed_loop(
            began,
            self.clients,
            window,
            trace_epoch,
            |c| {
                let session = cluster.session();
                let (mut off, mut discard) = (Tracer::off(), Tally::default());
                for s in 0..WARMUP_STREAMS {
                    self.one_stream(&session, c * 11 + s, &mut off, &mut discard, 0);
                }
                (session, c * 11 + WARMUP_STREAMS)
            },
            |(session, cursor), tracer, tally, op_id| {
                self.one_stream(session, *cursor, tracer, tally, op_id);
                *cursor += 1;
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_are_placed_between_the_exit_point_and_everything_before_it() {
        // Margins after 1..=8 executed timesteps; exits are allowed from 2.
        let margins = [9.0, 0.5, 1.0, 0.75, 2.0, 2.0, 3.0, 4.0];
        assert_eq!(margin_for_exit(&margins, 2), Some(0.25));
        assert_eq!(margin_for_exit(&margins, 3), Some(0.75));
        assert_eq!(margin_for_exit(&margins, 4), None, "an earlier timestep was more confident");
        assert_eq!(margin_for_exit(&margins, 5), Some(1.5));
        assert_eq!(margin_for_exit(&margins, 6), None, "a tie exits at the earlier timestep");
        assert_eq!(margin_for_exit(&margins, TIMESTEPS), Some(f32::MAX));
        assert_eq!(margin(&[1.0, 4.0, 2.5]), 1.5);
    }

    /// Every seed executes the same share of timesteps, and an update that
    /// differs in bits, executed count or exit point fails the gate.
    #[test]
    fn the_exit_schedule_is_the_same_for_every_seed() {
        for seed in [1, 2] {
            let prepared = Streams::prepare(seed, 1);
            let executed: usize = prepared.reference.iter().map(|r| r.last().unwrap().1).sum();
            assert_eq!(executed, STREAMS / 4 * (3 + 8 + 6 + 8), "seed {seed}");
            for (i, reference) in prepared.reference.iter().enumerate() {
                let exit = EXIT_AFTER[i % 4];
                assert_eq!(reference.last().unwrap().2, (exit < TIMESTEPS).then_some(exit));
            }
        }
        let expected: Expected = (vec![1.0f32.to_bits(), 2.0f32.to_bits()], 3, Some(3));
        let update = |logits: Vec<f32>, executed, exited_at| StreamUpdate {
            logits: Tensor::from_vec(logits, &[2]).unwrap(),
            timesteps: 4,
            executed,
            exited_at,
            macs_executed: 0,
            macs_skipped: 0,
        };
        assert!(matches(&update(vec![1.0, 2.0], 3, Some(3)), &expected));
        assert!(!matches(
            &update(vec![1.0, f32::from_bits(2.0f32.to_bits() ^ 1)], 3, Some(3)),
            &expected
        ));
        assert!(!matches(&update(vec![1.0, 2.0], 4, Some(3)), &expected));
        assert!(!matches(&update(vec![1.0, 2.0], 3, None), &expected));
    }
}
