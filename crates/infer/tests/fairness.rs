//! Starvation-freedom properties of the fair-queueing overload layer.
//!
//! Two guarantees under sustained overload, both with deliberately loose
//! bounds so a 1-core CI container passes comfortably:
//!
//! * a flood of High-priority traffic cannot starve Low — under a
//!   [`FairPolicy`] the Low flow's weighted share bounds its wait at a
//!   few round-trips, not the length of the flood;
//! * a hot tenant cannot starve the others — two tenants driving the
//!   same cluster closed-loop see goodput in proportion to their
//!   configured weights (within a wide tolerance).
//!
//! And the contract that makes fairness safe to enable: scheduling
//! policy changes wall-clock only — logits served under a fair policy
//! are bit-identical to the strict-priority cluster's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ttsnn_core::TtMode;
use ttsnn_infer::{Cluster, FairPolicy, Priority, SubmitOptions, TenantPolicy};
use ttsnn_snn::ConvPolicy;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;

fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::Ptt)
}

/// One replica, batch-of-1, so the scheduler's pop order is the service
/// order and the fairness discipline is fully observable.
fn fair_cluster(ckpt: &[u8], fair: FairPolicy) -> Cluster {
    let config = vgg_cluster_config(policy(), T, 1, 1, Duration::ZERO).with_fair(fair);
    Cluster::load(config, ckpt).expect("load fair cluster")
}

/// A sustained High flood cannot starve a Low trickle: every Low
/// request completes within a bounded wait (its weighted share is 1/9
/// of the slots — a few service times — while the flood alone would
/// hold it for the whole flood duration).
#[test]
fn high_flood_cannot_starve_low_trickle() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 71);
    let cluster = fair_cluster(&ckpt, FairPolicy::default());
    let inputs = samples(72, 8);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // The flood: keep ~8 High requests outstanding until told to stop.
        let flood_session = cluster.session();
        let flood_inputs = inputs.clone();
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut pending = std::collections::VecDeque::new();
            let mut i = 0usize;
            while !stop_ref.load(Ordering::Relaxed) {
                while pending.len() < 8 {
                    let input = flood_inputs[i % flood_inputs.len()].clone();
                    i += 1;
                    match flood_session.submit_with(input, SubmitOptions::priority(Priority::High))
                    {
                        Ok(t) => pending.push_back(t),
                        Err(_) => return,
                    }
                }
                if let Some(t) = pending.pop_front() {
                    let _ = t.wait();
                }
            }
            for t in pending {
                let _ = t.wait();
            }
        });

        // The trickle: five sequential Low requests, each timed.
        let session = cluster.session();
        std::thread::sleep(Duration::from_millis(20)); // let the flood build
        for k in 0..5 {
            let t0 = Instant::now();
            let ticket = session
                .submit_with(
                    inputs[k % inputs.len()].clone(),
                    SubmitOptions::priority(Priority::Low),
                )
                .expect("submit low");
            ticket.wait().expect("low request served");
            let waited = t0.elapsed();
            assert!(
                waited < Duration::from_millis(500),
                "low request {k} starved for {waited:?} under a High flood"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    let m = ttsnn_testutil::drained_metrics(&cluster);
    assert_eq!(m.priority(Priority::Low).served, 5, "every Low request was served");
    assert!(m.priority(Priority::High).served > 0, "the flood actually ran");
}

/// Two tenants driving the same cluster closed-loop at weights 3:1 see
/// goodput in (loose) proportion — the hot tenant cannot crowd the
/// other out, and the light tenant cannot invert the ratio.
#[test]
fn tenant_goodput_tracks_weights_under_contention() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 81);
    let fair = FairPolicy::default()
        .with_tenant(1, TenantPolicy::weighted(3.0))
        .with_tenant(2, TenantPolicy::weighted(1.0));
    let cluster = fair_cluster(&ckpt, fair);
    let inputs = samples(82, 8);
    let deadline = Instant::now() + Duration::from_millis(600);

    let mut served = [0u64; 2];
    std::thread::scope(|scope| {
        let handles: Vec<_> = [1u32, 2u32]
            .into_iter()
            .map(|tenant| {
                let session = cluster.session();
                let inputs = inputs.clone();
                scope.spawn(move || {
                    // Closed loop: keep 6 outstanding so the tenant's flow
                    // stays backlogged the whole window.
                    let mut pending = std::collections::VecDeque::new();
                    let mut count = 0u64;
                    let mut i = 0usize;
                    let opts = SubmitOptions::default().with_tenant(tenant);
                    while Instant::now() < deadline {
                        while pending.len() < 6 {
                            let input = inputs[i % inputs.len()].clone();
                            i += 1;
                            pending.push_back(session.submit_with(input, opts).expect("submit"));
                        }
                        if let Some(t) = pending.pop_front() {
                            if t.wait().is_ok() {
                                count += 1;
                            }
                        }
                    }
                    for t in pending {
                        if t.wait().is_ok() {
                            count += 1;
                        }
                    }
                    count
                })
            })
            .collect();
        for (k, h) in handles.into_iter().enumerate() {
            served[k] = h.join().expect("tenant client");
        }
    });

    let (hot, light) = (served[0] as f64, served[1] as f64);
    assert!(light > 0.0, "the light tenant must not be starved (hot={hot})");
    let ratio = hot / light;
    assert!(
        (1.5..=6.0).contains(&ratio),
        "goodput ratio {ratio:.2} strayed from the 3:1 weights (hot={hot}, light={light})"
    );

    let m = ttsnn_testutil::drained_metrics(&cluster);
    assert_eq!(m.tenant(1).served + m.tenant(2).served, served[0] + served[1]);
}

/// Enabling a fair policy never moves a logit bit: the same checkpoint
/// served strict and fair answers bit-identically.
#[test]
fn fair_scheduling_is_bit_transparent() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 91);
    let inputs = samples(92, 4);
    let strict = Cluster::load(
        vgg_cluster_config(policy(), T, 1, 2, Duration::from_millis(1)),
        ckpt.as_slice(),
    )
    .unwrap();
    let fair =
        fair_cluster(&ckpt, FairPolicy::default().with_tenant(3, TenantPolicy::weighted(2.0)));
    let strict_session = strict.session();
    let fair_session = fair.session();
    for (i, input) in inputs.iter().enumerate() {
        let a = strict_session.infer(input.clone()).unwrap();
        let ticket = fair_session
            .try_submit_with(
                input.clone(),
                SubmitOptions::priority(Priority::ALL[i % 3]).with_tenant(3),
            )
            .unwrap();
        let b = ticket.wait().unwrap();
        ttsnn_testutil::assert_bits_eq(&a, &b, "fair vs strict logits");
    }
}

/// A live cluster that refuses a request at admission says so: a blocking
/// `infer()` over a spent rate limit fails fast with `Rejected` and a
/// retry-after, not with `EngineClosed`.
#[test]
fn rate_limited_infer_is_rejected_not_closed() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 101);
    let limit = ttsnn_infer::RateLimit::new(0.001, 1.0);
    let fair = FairPolicy::default().with_tenant(0, TenantPolicy::weighted(1.0).with_rate(limit));
    let cluster = fair_cluster(&ckpt, fair);
    let session = cluster.session();
    let input = samples(102, 1).remove(0);
    session.infer(input.clone()).expect("the first request spends the one token");
    match session.infer(input) {
        Err(ttsnn_infer::InferError::Rejected(info)) => {
            assert_eq!(info.tenant, 0);
            assert!(info.retry_after > Duration::ZERO, "{info:?}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
}
