//! Streaming-session contract: the PR's headline property suite.
//!
//! The guarantee under test, on both the f32 and int8 planes:
//!
//! > Feeding a `T`-timestep input through a stream in chunks of **any**
//! > sizes yields cumulative logits **bit-identical, after every
//! > prefix,** to an uninterrupted inference-plane pass over the same
//! > prefix — and the final update equals a whole-stream request.
//!
//! Plus the hazard properties: early exit fires at a chunk-invariant
//! timestep and freezes the readout; LRU eviction under a resident-state
//! bound kills only the victim (`SessionEvicted`) and never perturbs a
//! surviving session's bits; per-chunk deadline expiry consumes no
//! timestep; `try_feed` reports saturation without corrupting live
//! sessions; malformed chunks fail their own feed only. Chunked ≡ whole
//! across kernel threads × 1 and 3 replicas × both planes is the serving
//! matrix's (`crates/serve/tests/matrix.rs`); membrane take/restore under
//! every sparse-dispatch mode and thread count is `ttsnn-snn`'s
//! `stream_state`.

use std::time::Duration;

use proptest::prelude::*;
use ttsnn_core::TtMode;
use ttsnn_data::stack_frames;
use ttsnn_infer::{
    Cluster, ClusterConfig, EarlyExit, InferError, ManualClock, QuantSpec, StreamOptions,
    SubmitError,
};
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{ConvPolicy, InferForward, InferStats, SpikingModel, VggSnn};
use ttsnn_tensor::Tensor;
use ttsnn_testutil::{
    assert_bits_eq, drained_metrics, infer_plane_reference, samples, vgg_checkpoint,
    vgg_cluster_config,
};

const T: usize = 4;

/// Every composition of `T` — all 2^(T-1) ways to cut the stream into
/// contiguous chunks.
fn all_chunk_plans() -> Vec<Vec<usize>> {
    let mut plans = Vec::new();
    for mask in 0u32..(1 << (T - 1)) {
        let mut plan = Vec::new();
        let mut run = 1usize;
        for cut in 0..T - 1 {
            if mask & (1 << cut) != 0 {
                plan.push(run);
                run = 1;
            } else {
                run += 1;
            }
        }
        plan.push(run);
        plans.push(plan);
    }
    plans
}

/// The suite's plan on two replicas, so sessions land on different ones.
fn cluster_config(policy: ConvPolicy) -> ClusterConfig {
    vgg_cluster_config(policy, T, 2, 4, Duration::from_millis(1))
}

/// Per-timestep `(C, H, W)` frames for one client stream.
fn stream_frames(seed: u64) -> Vec<Tensor> {
    samples(seed ^ 0x57EA, T)
}

/// Cumulative reference logits after every prefix `1..=T`, from an
/// uninterrupted inference-plane pass (the serving reference).
fn prefix_references(model: &mut VggSnn, frames: &[Tensor]) -> Vec<Tensor> {
    (1..=T).map(|p| infer_plane_reference(model, &stack_frames(&frames[..p]).unwrap(), p)).collect()
}

/// Feeds `frames` through `feed_chunk` according to `plan`, asserting the
/// update at every chunk boundary against the prefix references.
fn assert_plan_matches_prefixes(
    frames: &[Tensor],
    plan: &[usize],
    refs: &[Tensor],
    context: &str,
    mut feed_chunk: impl FnMut(Tensor) -> ttsnn_infer::StreamUpdate,
) -> ttsnn_infer::StreamUpdate {
    let mut at = 0usize;
    let mut last = None;
    for &n in plan {
        let update = feed_chunk(stack_frames(&frames[at..at + n]).unwrap());
        at += n;
        assert_eq!(update.timesteps, at, "{context}: position after chunk");
        assert_eq!(update.executed, at, "{context}: executed count");
        assert_eq!(update.exited_at, None, "{context}: no early exit configured");
        assert_eq!(update.macs_skipped, 0, "{context}");
        assert_bits_eq(
            &update.logits,
            &refs[at - 1],
            &format!("{context}: prefix t={at} under plan {plan:?}"),
        );
        last = Some(update);
    }
    last.expect("non-empty plan")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline property on the f32 plane: every chunking of the
    /// stream reproduces the uninterrupted pass bit for bit after every
    /// prefix, and the final update equals a whole-stream request.
    #[test]
    fn chunked_equals_whole_after_every_prefix_f32(seed in 0u64..500) {
        let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), seed);
        reference.set_infer_stats(InferStats::PerSample);
        let frames = stream_frames(seed);
        let refs = prefix_references(&mut reference, &frames);
        let engine = Cluster::load(
            cluster_config(ConvPolicy::tt(TtMode::Ptt)),
            ckpt.as_slice(),
        )
        .unwrap();
        let session = engine.session();
        let whole = session.infer(stack_frames(&frames).unwrap()).unwrap();
        prop_assert_eq!(&whole, &refs[T - 1], "whole-stream request is the T-prefix");
        for plan in all_chunk_plans() {
            let stream = session.open_stream(StreamOptions::default()).unwrap();
            let last = assert_plan_matches_prefixes(&frames, &plan, &refs, "f32", |chunk| {
                stream.push(chunk).unwrap()
            });
            prop_assert_eq!(&last.logits, &whole, "final update must equal the whole request");
        }
    }
}

/// The same property on the int8 plane: integer accumulation is exact,
/// so streamed chunks reproduce the in-process quantized model bit for
/// bit after every prefix, whatever the chunking.
#[test]
fn chunked_equals_whole_after_every_prefix_int8() {
    let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::Baseline, 43);
    let calibration = samples(44, 3);
    let calib = reference.calibrate(&calibration, T).unwrap();
    reference.quantize(&calib, &QuantConfig::default()).unwrap();
    reference.set_infer_stats(InferStats::PerSample);
    let frames = stream_frames(43);
    let refs = prefix_references(&mut reference, &frames);

    let engine = Cluster::load_quantized(
        cluster_config(ConvPolicy::Baseline),
        QuantSpec::new(calibration),
        ckpt.as_slice(),
    )
    .unwrap();
    assert!(engine.info().quant.is_some());
    let session = engine.session();
    let whole = session.infer(stack_frames(&frames).unwrap()).unwrap();
    assert_bits_eq(&whole, &refs[T - 1], "int8 whole-stream request");
    for plan in all_chunk_plans() {
        let stream = session.open_stream(StreamOptions::default()).unwrap();
        let last = assert_plan_matches_prefixes(&frames, &plan, &refs, "int8", |chunk| {
            stream.push(chunk).unwrap()
        });
        assert_bits_eq(&last.logits, &whole, "int8 final update");
    }
}

/// Cluster streams: one session per chunk plan, fed round-robin so the
/// replicas constantly swap session state in and out — every boundary
/// still lands on the exact prefix bits, whatever replica the session
/// pinned. Then the session accounting drains to zero.
#[test]
fn cluster_streams_interleaved_across_sessions_match_prefixes() {
    let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), 59);
    reference.set_infer_stats(InferStats::PerSample);
    let frames = stream_frames(59);
    let refs = prefix_references(&mut reference, &frames);
    let cluster = Cluster::load(
        vgg_cluster_config(ConvPolicy::tt(TtMode::Ptt), T, 2, 4, Duration::from_millis(1)),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let plans = all_chunk_plans();
    let streams: Vec<_> =
        plans.iter().map(|_| session.open_stream(StreamOptions::default()).unwrap()).collect();
    // Round-robin: one chunk per session per round, so a replica never
    // serves the same session twice in a row.
    let mut positions = vec![0usize; plans.len()]; // next chunk index per plan
    let mut at = vec![0usize; plans.len()]; // timesteps consumed per plan
    loop {
        let mut progressed = false;
        for (i, plan) in plans.iter().enumerate() {
            if positions[i] >= plan.len() {
                continue;
            }
            progressed = true;
            let n = plan[positions[i]];
            let chunk = stack_frames(&frames[at[i]..at[i] + n]).unwrap();
            let update = streams[i].push(chunk).unwrap();
            positions[i] += 1;
            at[i] += n;
            assert_eq!(update.timesteps, at[i]);
            assert_bits_eq(
                &update.logits,
                &refs[at[i] - 1],
                &format!("cluster plan {plan:?} prefix t={}", at[i]),
            );
        }
        if !progressed {
            break;
        }
    }
    let total_chunks: u64 = plans.iter().map(|p| p.len() as u64).sum();
    let m = drained_metrics(&cluster);
    assert_eq!(m.sessions.opened, plans.len() as u64);
    assert_eq!(m.sessions.chunks_submitted, total_chunks);
    assert_eq!(m.sessions.chunks_served, total_chunks);
    assert_eq!(m.sessions.timesteps_executed, (plans.len() * T) as u64);
    assert_eq!(m.sessions.timesteps_skipped, 0);
    assert!(m.sessions.macs_executed > 0);
    assert!(m.sessions.active_total() > 0, "state resident while sessions live");
    assert!(m.sessions.resident_bytes_total() > 0);
    drop(streams);
    // Close commands land asynchronously on the replicas, in each replica's
    // FIFO lane: a fence session per replica (round-robin pinning), fed a
    // malformed chunk that leaves no state, is answered after every close
    // queued before it.
    let fences: Vec<_> = (0..2)
        .map(|_| {
            let fence = session.open_stream(StreamOptions::default()).unwrap();
            assert!(matches!(fence.push(Tensor::zeros(&[2, 8, 8])), Err(InferError::Shape(_))));
            fence
        })
        .collect();
    assert_eq!(fences.iter().map(|f| f.replica()).collect::<Vec<_>>(), vec![0, 1]);
    let s = cluster.metrics().sessions;
    assert_eq!((s.closed, s.active_total()), (plans.len() as u64, 2), "only the fences are live");
    assert_eq!(s.resident_bytes_total(), 0, "closing must release resident state");
}

/// Early exit fires at a timestep determined only by the cumulative
/// logit trajectory — never by the chunking — and freezes the readout:
/// every plan reports the same `exited_at`, the same frozen logits (the
/// exit-prefix bits), and the same MAC savings, priced by `macs_at`.
#[test]
fn early_exit_is_invariant_to_chunk_boundaries() {
    let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::Baseline, 67);
    reference.set_infer_stats(InferStats::PerSample);
    let frames = stream_frames(67);
    let refs = prefix_references(&mut reference, &frames);
    // Pick a threshold from the margin trajectory so the exit lands at a
    // seed-dependent (but deterministic) timestep, then derive the
    // expected exit point the same way the executor must.
    let margin_at = |logits: &Tensor| {
        let mut v: Vec<f32> = logits.data().to_vec();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        v[0] - v[1]
    };
    let margins: Vec<f32> = refs.iter().map(margin_at).collect();
    let threshold = 0.5 * margins.iter().cloned().fold(f32::MIN, f32::max);
    let expected_exit = margins.iter().position(|&m| m >= threshold).unwrap() + 1;
    let expected_skipped_macs: u64 = (expected_exit..T).map(|t| reference.macs_at(t) as u64).sum();

    let engine = Cluster::load(cluster_config(ConvPolicy::Baseline), ckpt.as_slice()).unwrap();
    let session = engine.session();
    for plan in all_chunk_plans() {
        let stream =
            session.open_stream(StreamOptions::early_exit(EarlyExit::margin(threshold))).unwrap();
        let mut at = 0usize;
        let mut last = None;
        for &n in &plan {
            last = Some(stream.push(stack_frames(&frames[at..at + n]).unwrap()).unwrap());
            at += n;
        }
        let last = last.unwrap();
        assert_eq!(
            last.exited_at,
            Some(expected_exit),
            "plan {plan:?}: exit point must not depend on chunk boundaries"
        );
        assert_eq!(last.timesteps, T, "all frames consumed");
        assert_eq!(last.executed, expected_exit, "execution stops at the exit");
        assert_eq!(last.macs_skipped, expected_skipped_macs, "plan {plan:?}: banked savings");
        assert_bits_eq(
            &last.logits,
            &refs[expected_exit - 1],
            &format!("plan {plan:?}: readout frozen at the exit prefix"),
        );
    }

    // An unreachable margin never exits; a co-resident plain stream is
    // never perturbed by its early-exiting neighbours.
    let never =
        session.open_stream(StreamOptions::early_exit(EarlyExit::margin(f32::MAX))).unwrap();
    let plain = session.open_stream(StreamOptions::default()).unwrap();
    for (t, frame) in frames.iter().enumerate() {
        let n = never.push(frame.clone()).unwrap();
        assert_eq!(n.exited_at, None);
        assert_eq!(n.executed, t + 1);
        let p = plain.push(frame.clone()).unwrap();
        assert_bits_eq(&p.logits, &refs[t], "plain stream beside early-exit streams");
    }
}

/// A minimum-timestep floor delays the exit even for an always-true
/// margin, and post-exit chunks are consumed without execution.
#[test]
fn early_exit_honours_min_timesteps_and_skips_remaining_chunks() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 71);
    let frames = stream_frames(71);
    let engine = Cluster::load(cluster_config(ConvPolicy::Baseline), ckpt.as_slice()).unwrap();
    let session = engine.session();
    // margin 0.0 is satisfied after any step: the floor decides the exit.
    let stream = session
        .open_stream(StreamOptions::early_exit(EarlyExit::margin(0.0).with_min_timesteps(2)))
        .unwrap();
    let u1 = stream.push(frames[0].clone()).unwrap();
    assert_eq!(u1.exited_at, None, "floor not reached yet");
    let u2 = stream.push(frames[1].clone()).unwrap();
    assert_eq!(u2.exited_at, Some(2));
    let frozen = u2.logits.clone();
    // The remaining frames are skipped wholesale, banking MACs.
    let u3 = stream.push(stack_frames(&frames[2..]).unwrap()).unwrap();
    assert_eq!(u3.timesteps, T);
    assert_eq!(u3.executed, 2);
    assert!(u3.macs_skipped > u2.macs_skipped, "skipped chunk must bank savings");
    assert_bits_eq(&u3.logits, &frozen, "readout frozen after exit");
    // Every chunk is accounted served, the skipped one included.
    let s = drained_metrics(&engine).sessions;
    assert_eq!((s.chunks_submitted, s.chunks_served), (3, 3));
}

/// LRU eviction under the resident-state byte bound: the victim's next
/// feed fails with `SessionEvicted`, while the surviving session streams
/// on with bit-identical prefixes — eviction reclaims memory, never
/// correctness. The accounting shows up in `SessionMetrics`.
#[test]
fn eviction_reclaims_memory_without_perturbing_survivors() {
    let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::Baseline, 83);
    reference.set_infer_stats(InferStats::PerSample);
    let frames = stream_frames(83);
    let refs = prefix_references(&mut reference, &frames);
    // A 1-byte bound: any two resident sessions exceed it, so every feed
    // evicts the colder one (the bound never evicts the session it just
    // served).
    let cluster = Cluster::load(
        cluster_config(ConvPolicy::Baseline).with_replicas(1).with_stream_state_bytes(Some(1)),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let victim = session.open_stream(StreamOptions::default()).unwrap();
    let survivor = session.open_stream(StreamOptions::default()).unwrap();
    let v1 = victim.push(frames[0].clone()).unwrap();
    assert_bits_eq(&v1.logits, &refs[0], "victim's first chunk served normally");
    // The survivor's feed pushes resident bytes over the bound: the
    // victim (least recently fed, unprotected) is evicted.
    let s1 = survivor.push(frames[0].clone()).unwrap();
    assert_bits_eq(&s1.logits, &refs[0], "survivor t=1");
    assert_eq!(victim.push(frames[1].clone()), Err(InferError::SessionEvicted));
    // The survivor keeps streaming to the end, bit-exact.
    for (t, frame) in frames.iter().enumerate().skip(1) {
        let u = survivor.push(frame.clone()).unwrap();
        assert_bits_eq(&u.logits, &refs[t], "survivor after the eviction");
    }
    let m = drained_metrics(&cluster);
    assert_eq!(m.sessions.evicted, 1);
    assert_eq!(m.sessions.chunks_failed, 1, "the evicted feed is a failed chunk");
    assert_eq!(m.sessions.chunks_served, 1 + T as u64);
    assert_eq!(m.sessions.active_total(), 1, "only the survivor stays resident");
}

/// A chunk whose deadline expires in the queue is dropped with
/// `DeadlineExpired` and consumes **no** timestep: the session's position
/// is unchanged and the same frames can be re-fed, landing on the exact
/// prefix bits. The clock stands still, so a chunk is popped at the time it
/// was fed: it expires at exactly its deadline, not a tick before, and a
/// deadline the clock cannot represent (`Duration::MAX`) never expires.
#[test]
fn chunk_deadline_expiry_leaves_the_session_feedable() {
    let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::Baseline, 97);
    reference.set_infer_stats(InferStats::PerSample);
    let frames = stream_frames(97);
    let refs = prefix_references(&mut reference, &frames);
    let cluster = Cluster::load_with_clock(
        vgg_cluster_config(ConvPolicy::Baseline, T, 1, 4, Duration::from_millis(1)),
        ManualClock::new(),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let stream = session.open_stream(StreamOptions::default()).unwrap();
    let u1 = stream.push(frames[0].clone()).unwrap();
    assert_bits_eq(&u1.logits, &refs[0], "t=1 before the expiry");
    // A zero deadline has come when the replica pops the chunk.
    let doomed = stream.feed_with(frames[1].clone(), Some(Duration::ZERO)).unwrap();
    assert_eq!(doomed.wait(), Err(InferError::DeadlineExpired));
    // Same frame again, one tick before its deadline: the session never
    // advanced.
    let u2 = stream.feed_with(frames[1].clone(), Some(Duration::from_nanos(1))).unwrap();
    let u2 = u2.wait().unwrap();
    assert_eq!(u2.timesteps, 2, "the expired chunk consumed no timestep");
    assert_bits_eq(&u2.logits, &refs[1], "t=2 after re-feeding the expired frame");
    let u3 = stream.feed_with(frames[2].clone(), Some(Duration::MAX)).unwrap().wait().unwrap();
    assert_bits_eq(&u3.logits, &refs[2], "t=3 under a deadline that never comes");
    let m = drained_metrics(&cluster);
    assert_eq!(m.sessions.chunks_expired, 1);
    assert_eq!(m.sessions.chunks_served, 3);
}

/// Backpressure counts stream chunks and batch requests against the same
/// bounded queue: with the queue full of parked batch work, `try_feed`
/// and `try_submit` both report `Saturated` — and the live session's
/// accounting stays consistent.
#[test]
fn try_feed_reports_saturation_with_live_sessions() {
    let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::Baseline, 103);
    reference.set_infer_stats(InferStats::PerSample);
    let frames = stream_frames(103);
    let refs = prefix_references(&mut reference, &frames);
    // max_batch 3 + infinite wait: two batch requests park forever in the
    // collection window, pinning `outstanding` at the queue capacity.
    let cluster = Cluster::load(
        vgg_cluster_config(ConvPolicy::Baseline, T, 1, 3, Duration::MAX).with_queue_capacity(2),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let stream = session.open_stream(StreamOptions::default()).unwrap();
    // The stream serves normally while there is capacity.
    let u1 = stream.push(frames[0].clone()).unwrap();
    assert_bits_eq(&u1.logits, &refs[0], "pre-saturation chunk");
    // A chunk's slot is free before its reply is sent.
    assert_eq!(cluster.metrics().outstanding, 0);
    let _parked0 = session.try_submit(samples(104, 1).remove(0)).unwrap();
    let _parked1 = session.try_submit(samples(105, 1).remove(0)).unwrap();
    match stream.try_feed(frames[1].clone()) {
        Err(SubmitError::Saturated(_)) => {}
        other => panic!("expected Saturated, got {:?}", other.map(|_| ())),
    }
    match session.try_submit(samples(106, 1).remove(0)) {
        Err(SubmitError::Saturated(_)) => {}
        other => panic!("expected Saturated, got {:?}", other.map(|_| ())),
    }
    let s = cluster.metrics().sessions;
    assert_eq!(s.opened, 1);
    assert_eq!(s.chunks_submitted, 1, "a rejected feed is never counted submitted");
    assert_eq!(s.chunks_served, 1);
}

/// Malformed chunks fail their own feed with a clear error and leave the
/// session exactly where it was: the stream then completes bit-exact.
#[test]
fn malformed_chunks_fail_without_perturbing_the_session() {
    let (ckpt, mut reference) = vgg_checkpoint(&ConvPolicy::Baseline, 113);
    reference.set_infer_stats(InferStats::PerSample);
    let frames = stream_frames(113);
    let refs = prefix_references(&mut reference, &frames);
    let engine = Cluster::load(cluster_config(ConvPolicy::Baseline), ckpt.as_slice()).unwrap();
    let session = engine.session();
    let stream = session.open_stream(StreamOptions::default()).unwrap();
    stream.push(frames[0].clone()).unwrap();

    // Wrong shape.
    match stream.push(Tensor::zeros(&[2, 8, 8])) {
        Err(InferError::Shape(msg)) => assert!(msg.contains("does not match"), "{msg}"),
        other => panic!("expected shape error, got {other:?}"),
    }
    // Non-finite values.
    let mut nan = frames[1].clone();
    nan.data_mut()[3] = f32::NAN;
    match stream.push(nan) {
        Err(InferError::Shape(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
        other => panic!("expected non-finite error, got {other:?}"),
    }
    // Overrunning the plan's timesteps.
    let too_long: Vec<Tensor> = (0..T).map(|_| frames[1].clone()).collect();
    match stream.push(stack_frames(&too_long).unwrap()) {
        Err(InferError::Shape(msg)) => assert!(msg.contains("overruns"), "{msg}"),
        other => panic!("expected overrun error, got {other:?}"),
    }
    // The session never moved: the remaining frames land exactly.
    for (t, frame) in frames.iter().enumerate().skip(1) {
        let u = stream.push(frame.clone()).unwrap();
        assert_eq!(u.timesteps, t + 1);
        assert_bits_eq(&u.logits, &refs[t], "after rejected chunks");
    }
}

/// Streams outliving their cluster report closure.
#[test]
fn feeds_after_shutdown_report_closed() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 127);
    let frame = stream_frames(127).remove(0);
    let cstream = {
        let cluster = Cluster::load(
            vgg_cluster_config(ConvPolicy::Baseline, T, 1, 4, Duration::from_millis(1)),
            ckpt.as_slice(),
        )
        .unwrap();
        cluster.session().open_stream(StreamOptions::default()).unwrap()
    };
    assert_eq!(cstream.feed(frame.clone()).map(|_| ()), Err(SubmitError::Closed));
    assert_eq!(cstream.push(frame), Err(InferError::EngineClosed));
}

/// Cluster-side early exit shows up in the session metrics: skipped
/// timesteps and banked MACs are the serving fleet's anytime-inference
/// savings ledger.
#[test]
fn session_metrics_account_early_exit_savings() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 131);
    let frames = stream_frames(131);
    let cluster = Cluster::load(
        vgg_cluster_config(ConvPolicy::Baseline, T, 1, 4, Duration::from_millis(1)),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let stream = session.open_stream(StreamOptions::early_exit(EarlyExit::margin(0.0))).unwrap();
    let update = stream.push(stack_frames(&frames).unwrap()).unwrap();
    assert_eq!(update.exited_at, Some(1), "margin 0 exits after the first step");
    assert_eq!(update.executed, 1);
    assert!(update.macs_skipped > 0);
    let m = drained_metrics(&cluster);
    assert_eq!(m.sessions.timesteps_executed, 1);
    assert_eq!(m.sessions.timesteps_skipped, (T - 1) as u64);
    assert_eq!(m.sessions.macs_skipped, update.macs_skipped);
    assert_eq!(m.sessions.macs_executed, update.macs_executed);
}
