//! Serving-cluster determinism, cancellation, deadline and backpressure
//! tests.
//!
//! The headline property: a request's logits are **bit-identical**
//! whatever batch the dynamic micro-batcher coalesced it into, whatever
//! the replica count, the scheduling order, the priority mix, or which
//! other requests were cancelled mid-flight — and equal to a batch-of-1
//! pass through the *training* plane of the same checkpoint. The headline
//! property loads 1–3 replicas under each kernel thread count of
//! [`THREADS`]; every cluster here names its replica count, so nothing
//! depends on the host's cores or the environment.

use std::time::Duration;

use proptest::prelude::*;
use ttsnn_core::TtMode;
use ttsnn_infer::{
    ArchSpec, BatchPolicy, Cluster, ClusterConfig, EngineConfig, InferError, Priority, SubmitError,
    SubmitOptions,
};
use ttsnn_snn::{
    checkpoint, ConvPolicy, ResNetConfig, ResNetSnn, SpikingModel, TrainForward, VggConfig, VggSnn,
};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{drained_metrics, vgg9_tiny as vgg_cfg, vgg_checkpoint, THREADS};

const T: usize = 2;

fn resnet_cfg() -> ResNetConfig {
    ttsnn_testutil::resnet20_tiny(4)
}

fn samples(seed: u64, n: usize) -> Vec<Tensor> {
    ttsnn_testutil::samples(seed ^ 0x5A5A, n)
}

/// Reference: the training plane on a batch of one — per-sample summed
/// logits under direct coding.
fn train_plane_reference(model: &mut impl TrainForward, sample: &Tensor) -> Tensor {
    ttsnn_testutil::train_plane_reference(model, sample, T)
}

fn cluster_config(
    policy: ConvPolicy,
    replicas: usize,
    max_batch: usize,
    max_wait: Duration,
) -> ClusterConfig {
    ttsnn_testutil::vgg_cluster_config(policy, T, replicas, max_batch, max_wait)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The acceptance property: per-sample outputs are bit-identical
    /// across 1..=3 replicas × kernel thread counts × random priority
    /// assignment × random cancellation interleavings, and every request
    /// is accounted for.
    #[test]
    fn replica_priority_and_cancellation_invariance(seed in 0u64..500) {
        let (ckpt, mut reference_model) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), seed);
        let inputs = samples(seed, 8);
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|s| train_plane_reference(&mut reference_model, s))
            .collect();
        let mut mix = Rng::seed_from(seed ^ 0xC0FFEE);
        let grid = THREADS.into_iter().flat_map(|n| (1..=3usize).map(move |r| (n, r)));
        for (threads, replicas) in grid {
            let config =
                cluster_config(ConvPolicy::tt(TtMode::Ptt), replicas, 3, Duration::from_millis(10));
            let cluster =
                Runtime::new(threads).install(|| Cluster::load(config, ckpt.as_slice())).unwrap();
            prop_assert_eq!(cluster.replicas(), replicas);
            let session = cluster.session();
            // Random priorities and (generous, never-expiring) deadlines.
            let tickets: Vec<_> = inputs
                .iter()
                .map(|s| {
                    let prio = Priority::ALL[mix.uniform_in(0.0, 3.0) as usize % 3];
                    let opts = if mix.uniform_in(0.0, 1.0) < 0.5 {
                        SubmitOptions::priority(prio)
                            .with_deadline(Duration::from_secs(120))
                    } else {
                        SubmitOptions::priority(prio)
                    };
                    session.submit_with(s.clone(), opts).unwrap()
                })
                .collect();
            // Cancel a random subset mid-flight: some will be reaped
            // queued (counted cancelled), some already executed (counted
            // served) — the interleaving is the test.
            let mut survivors = Vec::new();
            for (i, ticket) in tickets.into_iter().enumerate() {
                if mix.uniform_in(0.0, 1.0) < 0.3 {
                    drop(ticket); // cancel
                } else {
                    survivors.push((i, ticket));
                }
            }
            for (i, ticket) in survivors {
                let got = ticket.wait().unwrap();
                prop_assert_eq!(
                    &got, &expected[i],
                    "sample {} diverged under {} replicas on {} threads (scheduling must be \
                     invisible)",
                    i, replicas, threads
                );
            }
            let m = drained_metrics(&cluster);
            let t = m.totals();
            prop_assert_eq!(t.submitted, inputs.len() as u64);
            prop_assert_eq!(t.expired + t.failed, 0);
            // Executor time is only spent on served requests.
            let batched: u64 = m.batch_sizes.buckets().iter().map(|(_, c)| c).sum();
            prop_assert_eq!(batched, m.batches_executed);
            prop_assert!(m.latency.count() == t.served);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Coalescing policy cannot change a single output bit, and serving
    /// equals the training plane at batch size 1.
    #[test]
    fn batching_invariance_and_train_plane_parity(seed in 0u64..500) {
        let (ckpt, mut reference_model) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), seed);
        let inputs = samples(seed, 6);
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|s| train_plane_reference(&mut reference_model, s))
            .collect();
        for (max_batch, max_wait_ms) in [(1usize, 0u64), (3, 40), (6, 40)] {
            let cluster = Cluster::load(
                cluster_config(
                    ConvPolicy::tt(TtMode::Ptt),
                    1,
                    max_batch,
                    Duration::from_millis(max_wait_ms),
                ),
                ckpt.as_slice(),
            )
            .unwrap();
            let session = cluster.session();
            // Submit everything first so the batcher actually coalesces.
            let tickets: Vec<_> =
                inputs.iter().map(|s| session.submit(s.clone()).unwrap()).collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let got = ticket.wait().unwrap();
                prop_assert_eq!(
                    &got, &expected[i],
                    "sample {} diverged under max_batch={} (batching must be invisible)",
                    i, max_batch
                );
            }
        }
    }
}

#[test]
fn merged_plan_approximates_tt_plan_and_reports_merge() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), 5);
    let base = EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::tt(TtMode::Ptt), T);
    let config = |engine| ClusterConfig::new(engine).with_replicas(1);
    let tt_engine = Cluster::load(config(base.clone()), ckpt.as_slice()).unwrap();
    let merged_engine = Cluster::load(config(base.merged()), ckpt.as_slice()).unwrap();
    assert_eq!(tt_engine.info().merged_layers, 0);
    assert_eq!(merged_engine.info().merged_layers, 5); // VGG9: stem stays dense
    assert!(merged_engine.info().model.contains("merged-dense"));
    let x = samples(5, 1).remove(0);
    let tt = tt_engine.session().infer(x.clone()).unwrap();
    let merged = merged_engine.session().infer(x).unwrap();
    assert!(
        tt.max_abs_diff(&merged).unwrap() < 1e-2,
        "merged-dense serving must reproduce the TT plan"
    );
}

#[test]
fn resnet_event_style_requests_with_per_timestep_frames() {
    let mut rng = Rng::seed_from(9);
    let model = ResNetSnn::new(resnet_cfg(), &ConvPolicy::tt(TtMode::Stt), &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&model.params(), &mut ckpt).unwrap();
    let engine = Cluster::load(
        ClusterConfig::new(EngineConfig::new(
            ArchSpec::ResNet(resnet_cfg()),
            ConvPolicy::tt(TtMode::Stt),
            T,
        ))
        .with_replicas(2),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = engine.session();
    // (T, C, H, W): explicit per-timestep frames.
    let x = Tensor::rand_uniform(&[T, 3, 8, 8], 0.0, 1.0, &mut rng);
    let logits = session.infer(x).unwrap();
    assert_eq!(logits.shape(), &[4]);
    assert_eq!(engine.info().num_classes, 4);
}

#[test]
fn duration_max_means_wait_until_full() {
    // `max_wait: Duration::MAX` is a natural "hold until max_batch"
    // sentinel; it must not overflow Instant arithmetic and panic the
    // executor.
    let (ckpt, mut reference_model) = vgg_checkpoint(&ConvPolicy::Baseline, 8);
    // One replica: with more, two replicas could each open a batch on one
    // of the two requests and both wait forever for a second.
    let engine =
        Cluster::load(cluster_config(ConvPolicy::Baseline, 1, 2, Duration::MAX), ckpt.as_slice())
            .unwrap();
    let session = engine.session();
    let inputs = samples(8, 2);
    // Submit exactly max_batch requests; the batch fills and executes.
    let t0 = session.submit(inputs[0].clone()).unwrap();
    let t1 = session.submit(inputs[1].clone()).unwrap();
    assert_eq!(t0.wait().unwrap(), train_plane_reference(&mut reference_model, &inputs[0]));
    assert_eq!(t1.wait().unwrap(), train_plane_reference(&mut reference_model, &inputs[1]));
}

/// The acceptance guarantee for cancellation, constructed deterministically:
/// the batch cannot start executing before `max_batch` admissions or the
/// (generous) collection window closes, and the cancel lands milliseconds
/// into that window — so whether the scheduler reaps the dropped request
/// at pop time or at the pre-execution re-check, it is counted cancelled,
/// never executed, and the three survivors ride **one** batch.
#[test]
fn dropped_queued_ticket_is_cancelled_and_never_executed() {
    let (ckpt, mut reference_model) = vgg_checkpoint(&ConvPolicy::Baseline, 31);
    let inputs = samples(31, 4);
    let cluster = Cluster::load(
        cluster_config(ConvPolicy::Baseline, 1, 4, Duration::from_millis(500)),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let t0 = session.submit(inputs[0].clone()).unwrap();
    let t1 = session.submit(inputs[1].clone()).unwrap();
    let t2 = session.submit(inputs[2].clone()).unwrap();
    // Cancel #1 while the batch is provably still collecting (it needs a
    // 4th live request or the 500 ms window to close), then submit the
    // last request: the cancel happened-before any possible execution.
    drop(t1);
    let t3 = session.submit(inputs[3].clone()).unwrap();
    for (i, ticket) in [(0usize, t0), (2, t2), (3, t3)] {
        assert_eq!(
            ticket.wait().unwrap(),
            train_plane_reference(&mut reference_model, &inputs[i]),
            "survivor {i} diverged after a co-traveller was cancelled"
        );
    }
    let m = drained_metrics(&cluster);
    let t = m.totals();
    assert_eq!(t.cancelled, 1, "the dropped queued ticket must be counted cancelled");
    assert_eq!(t.served, 3);
    assert_eq!(m.batches_executed, 1, "cancellation must not fragment the batch");
    assert_eq!(
        m.batch_sizes.buckets().iter().map(|(_, c)| c).sum::<u64>(),
        1,
        "exactly one forward pass — the cancelled request consumed no executor time"
    );
    // That single executed batch held exactly the three survivors.
    assert_eq!(m.batch_sizes.quantile(1.0), 4.0, "batch of 3 lands in the (2,4] bucket");
}

/// A deadline bounds queueing delay: a request still waiting in an open
/// batch when its deadline passes is dropped with `DeadlineExpired` and
/// never executed; its co-travellers are unaffected.
#[test]
fn queued_deadline_expiry_is_observable_and_skips_execution() {
    let (ckpt, mut reference_model) = vgg_checkpoint(&ConvPolicy::Baseline, 41);
    let inputs = samples(41, 3);
    let cluster = Cluster::load(
        cluster_config(ConvPolicy::Baseline, 1, 3, Duration::from_millis(500)),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let t0 = session.submit(inputs[0].clone()).unwrap();
    let doomed = session
        .submit_with(
            inputs[1].clone(),
            SubmitOptions::priority(Priority::High).with_deadline(Duration::from_millis(15)),
        )
        .unwrap();
    // Hold the batch open past the deadline, then close it.
    std::thread::sleep(Duration::from_millis(30));
    let t2 = session.submit(inputs[2].clone()).unwrap();
    assert_eq!(doomed.wait(), Err(InferError::DeadlineExpired));
    for (i, ticket) in [(0usize, t0), (2, t2)] {
        assert_eq!(
            ticket.wait().unwrap(),
            train_plane_reference(&mut reference_model, &inputs[i]),
            "survivor {i} diverged after a co-traveller expired"
        );
    }
    let m = drained_metrics(&cluster);
    assert_eq!(m.priority(Priority::High).expired, 1);
    assert_eq!(m.totals().served, 2);
    assert_eq!(m.batches_executed, 1);
}

/// The bounded queue pushes back: outstanding (not-yet-finished) requests
/// saturate `try_submit` deterministically — the two parked requests
/// cannot finish while their batch waits for a third that never arrives.
#[test]
fn try_submit_reports_saturation_and_shutdown_serves_admitted_work() {
    let (ckpt, mut reference_model) = vgg_checkpoint(&ConvPolicy::Baseline, 51);
    let inputs = samples(51, 3);
    let cluster = Cluster::load(
        cluster_config(ConvPolicy::Baseline, 1, 3, Duration::MAX).with_queue_capacity(2),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let t0 = session.try_submit(inputs[0].clone()).unwrap();
    let t1 = session.try_submit(inputs[1].clone()).unwrap();
    match session.try_submit(inputs[2].clone()) {
        Err(SubmitError::Saturated(_)) => {}
        other => panic!("expected Saturated, got {:?}", other.map(|_| ())),
    }
    assert_eq!(cluster.metrics().outstanding, 2);
    // Shutdown semantics: a batch the replica already *admitted* is still
    // served; requests still sitting in the queue are
    // dropped and their tickets hang up. Which side of that line the two
    // requests land on is a race with the replica's pop — but there is no
    // third outcome: a ticket either resolves with the exact training-plane
    // bits or reports EngineClosed.
    drop(cluster);
    for (i, ticket) in [t0, t1].into_iter().enumerate() {
        match ticket.wait() {
            Ok(got) => assert_eq!(
                got,
                train_plane_reference(&mut reference_model, &inputs[i]),
                "request {i} served through shutdown must not diverge"
            ),
            Err(e) => assert_eq!(e, InferError::EngineClosed),
        }
    }
}

#[test]
fn sessions_outliving_the_cluster_report_closed() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 61);
    let session = {
        let cluster = Cluster::load(
            cluster_config(ConvPolicy::Baseline, 2, 4, Duration::from_millis(5)),
            ckpt.as_slice(),
        )
        .unwrap();
        cluster.session()
    };
    assert_eq!(
        session.submit(samples(61, 1).remove(0)).map(|_| ()).unwrap_err(),
        SubmitError::Closed
    );
    assert_eq!(session.infer(samples(61, 1).remove(0)), Err(InferError::EngineClosed));
}

#[test]
fn bad_inputs_fail_their_own_ticket_only() {
    let (ckpt, mut reference_model) = vgg_checkpoint(&ConvPolicy::Baseline, 71);
    let cluster = Cluster::load(
        cluster_config(ConvPolicy::Baseline, 2, 4, Duration::from_millis(20)),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    let good_input = samples(71, 1).remove(0);
    let good = session.submit(good_input.clone()).unwrap();
    let bad = session.submit(Tensor::zeros(&[2, 8, 8])).unwrap(); // wrong channels
    assert_eq!(
        good.wait().unwrap(),
        train_plane_reference(&mut reference_model, &good_input),
        "good request must survive a bad co-traveller"
    );
    match bad.wait() {
        Err(InferError::Shape(msg)) => assert!(msg.contains("does not match the plan"), "{msg}"),
        other => panic!("expected shape error, got {other:?}"),
    }
    assert_eq!(drained_metrics(&cluster).totals().failed, 1);
}

/// The merged-dense deployment pipeline works replicated: replicas must
/// rebuild the *merged* structure before aliasing the shared weights.
#[test]
fn merged_plans_serve_identically_across_replicas() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::tt(TtMode::Ptt), 81);
    let base = EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::tt(TtMode::Ptt), T)
        .merged()
        .with_batching(BatchPolicy { max_batch: 2, max_wait: Duration::from_millis(5) });
    let x = samples(81, 1).remove(0);
    let solo =
        Cluster::load(ClusterConfig::new(base.clone()).with_replicas(1), ckpt.as_slice()).unwrap();
    assert_eq!(solo.info().merged_layers, 5);
    let expected = solo.session().infer(x.clone()).unwrap();
    drop(solo);
    let trio = Cluster::load(ClusterConfig::new(base).with_replicas(3), ckpt.as_slice()).unwrap();
    let session = trio.session();
    let tickets: Vec<_> = (0..6).map(|_| session.submit(x.clone()).unwrap()).collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap(), expected, "merged plan diverged across replicas");
    }
}

#[test]
fn load_rejects_invalid_configs() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 91);
    let engine_cfg = EngineConfig::new(ArchSpec::Vgg(vgg_cfg()), ConvPolicy::Baseline, T);

    // max_batch == 0 would admit no request into any batch; it must be
    // rejected up front.
    let zero_batch =
        engine_cfg.clone().with_batching(BatchPolicy { max_batch: 0, max_wait: Duration::ZERO });
    let err = Cluster::load(ClusterConfig::new(zero_batch).with_replicas(1), ckpt.as_slice())
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("max_batch"), "{err}");

    for bad in [
        ClusterConfig::new(engine_cfg.clone()).with_replicas(0),
        ClusterConfig::new(engine_cfg).with_replicas(1).with_queue_capacity(0),
    ] {
        let err = Cluster::load(bad, ckpt.as_slice()).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}

#[test]
fn load_rejects_mismatched_checkpoint_on_any_replica_path() {
    let mut rng = Rng::seed_from(5);
    let wrong = VggSnn::new(VggConfig::vgg9(3, 7, (8, 8), 8), &ConvPolicy::Baseline, &mut rng);
    let mut ckpt = Vec::new();
    checkpoint::save_params(&wrong.params(), &mut ckpt).unwrap();
    let err =
        Cluster::load(cluster_config(ConvPolicy::Baseline, 2, 2, Duration::ZERO), ckpt.as_slice())
            .map(|_| ())
            .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// A geometry the architecture cannot realise is the caller's mistake, not
/// a replica crash: the layer program is shape-checked once at build, the
/// failure travels back as `InvalidInput` (a panic while freezing would
/// read `Other`), and a failed load leaves no thread behind.
#[test]
fn load_rejects_unrealisable_architectures_without_panicking() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 91);
    // 12 -> 6 -> 3, then a 2x2 pool on a 3x3 map.
    let odd_pool = ArchSpec::Vgg(VggConfig::vgg9(2, 10, (12, 12), 8));
    let mut misaligned = resnet_cfg();
    misaligned.widths.pop();
    let mut zero_width = vgg_cfg();
    zero_width.conv_widths[2] = 0;
    let cases = [
        (odd_pool, "AvgPool2"),
        (ArchSpec::ResNet(misaligned), "stage/width"),
        (ArchSpec::Vgg(zero_width), "Conv {"),
    ];
    let threads = || std::fs::read_dir("/proc/self/task").map(Iterator::count).ok();
    let before = threads();
    const ROUNDS: usize = 24;
    for _ in 0..ROUNDS {
        for (arch, needle) in &cases {
            for policy in [ConvPolicy::Baseline, ConvPolicy::tt(TtMode::Ptt)] {
                let cfg =
                    ClusterConfig::new(EngineConfig::new(arch.clone(), policy, T)).with_replicas(2);
                let err = Cluster::load(cfg, ckpt.as_slice()).map(|_| ()).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
                assert!(err.to_string().contains(needle), "error must name the op: {err}");
            }
        }
    }
    // 144 failed loads: a leaked replica per load would dwarf whatever the
    // suite's other tests have running beside this one.
    if let (Some(before), Some(after)) = (before, threads()) {
        assert!(after < before + ROUNDS, "threads grew {before} -> {after}");
    }
}

#[test]
fn cluster_metrics_surface_spike_density_after_traffic() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 91);
    let cluster = Cluster::load(
        cluster_config(ConvPolicy::Baseline, 2, 2, Duration::from_millis(5)),
        ckpt.as_slice(),
    )
    .unwrap();
    // The frozen plan reports the dispatch mode its model serves under.
    assert_eq!(cluster.info().sparse_mode, "auto");
    assert!(
        cluster.metrics().spike_density.is_empty(),
        "no traffic yet: density summary must be empty"
    );
    assert_eq!(cluster.metrics().mean_spike_density, None);
    let session = cluster.session();
    for input in samples(91, 6) {
        session.infer(input).unwrap();
    }
    let m = drained_metrics(&cluster);
    assert_eq!(m.spike_density.len(), 6, "one density per VGG9 LIF layer");
    assert!(m.spike_density.iter().all(|&d| (0.0..=1.0).contains(&d)));
    assert!(m.spike_density.iter().any(|&d| d > 0.0), "traffic must register spike activity");
    let mean = m.mean_spike_density.expect("mean density tracked after traffic");
    assert!((0.0..=1.0).contains(&mean));
}

/// A request's backpressure slot is released before its reply is sent, so
/// a caller that holds a reply holds no slot: on a queue of capacity 1, one
/// closed-loop `try_submit` caller is never refused by its own previous
/// request. (When the reply went out first, the next `try_submit` raced
/// the replica's bookkeeping and lost within the first few iterations.)
#[test]
fn a_reply_in_hand_never_saturates_the_next_try_submit() {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 61);
    let input = samples(61, 1).remove(0);
    let cluster = Cluster::load(
        cluster_config(ConvPolicy::Baseline, 1, 1, Duration::ZERO).with_queue_capacity(1),
        ckpt.as_slice(),
    )
    .unwrap();
    let session = cluster.session();
    for i in 0..2000 {
        match session.try_submit(input.clone()) {
            Ok(ticket) => drop(ticket.wait().unwrap()),
            Err(e) => panic!("request {i} refused with its predecessor's reply in hand: {e}"),
        }
    }
    // The same for chunks of one stream — served ones (the plan's `T`
    // timesteps) and failed ones (every chunk past them) alike.
    let stream = session.open_stream(Default::default()).unwrap();
    for i in 0..2000 {
        match stream.try_feed(input.clone()) {
            Ok(ticket) => assert_eq!(ticket.wait().is_ok(), i < T, "chunk {i}"),
            Err(e) => panic!("chunk {i} refused with its predecessor's reply in hand: {e}"),
        }
    }
    let m = cluster.metrics();
    assert_eq!(m.tenant(0).rejected_saturated, 0);
    assert_eq!((m.totals().served, m.sessions.chunks_served), (2000, T as u64));
    assert_eq!(m.sessions.chunks_failed, 2000 - T as u64);
}
