//! The batch-close rule, from outside: a batch closes when everyone who
//! could join it already has.
//!
//! Every cluster here runs with `max_wait` = 1 s — far longer than a
//! forward of the tiny VGG9 — so a test that waits a window out where it
//! should not fails by arithmetic (its time budget is a fraction of one
//! window), not by luck, and `batches_closed{window}` says how often the
//! window was what closed a batch. The rule itself is the pure function
//! [`ttsnn_infer::sched::batch_close`]; the last test replays random
//! arrival scripts through it against a transcription of the loop it
//! replaced.
//!
//! What stays pinned elsewhere, unchanged: cancellation, expiry and
//! saturation while a batch is held open
//! (`dropped_queued_ticket_is_cancelled_and_never_executed`,
//! `queued_deadline_expiry_is_observable_and_skips_execution`,
//! `try_submit_reports_saturation_and_shutdown_serves_admitted_work` in
//! `cluster.rs` — all three act on a scheduler's first batch, where the
//! window applies as it always did), and that batching never moves a bit
//! (`batching_invariance_and_train_plane_parity`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use ttsnn_infer::sched::{batch_close, BatchClose};
use ttsnn_infer::{CloseReason, Cluster, ClusterMetrics, ClusterSession};
use ttsnn_snn::ConvPolicy;
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::Tensor;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config};

const T: usize = 2;
const WINDOW: Duration = Duration::from_secs(1);

/// A cluster whose replicas run on a two-thread kernel pool whatever the
/// host, so under `taskset -c 0` callers, replicas and pool workers all
/// share one core.
fn cluster(replicas: usize, max_batch: usize, max_wait: Duration) -> Cluster {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 24);
    let config = vgg_cluster_config(ConvPolicy::Baseline, T, replicas, max_batch, max_wait);
    Runtime::new(2).install(|| Cluster::load(config, ckpt.as_slice())).unwrap()
}

fn input() -> Tensor {
    samples(24, 1).remove(0)
}

/// Batches of exactly one request executed so far.
fn batches_of_one(m: &ClusterMetrics) -> u64 {
    m.batch_sizes.buckets()[0].1
}

/// Spins until `done` callers have reported in (they keep calling
/// meanwhile, so nobody's absence is mistaken for a smaller population).
fn wait_for(done: &AtomicUsize, callers: usize) {
    while done.load(Ordering::SeqCst) < callers {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Warm-up done: everyone meets, the test's own thread reads the metrics
/// its deltas start from, everyone meets again and goes.
fn rendezvous(start: &Barrier) {
    start.wait();
    start.wait();
}

/// [`rendezvous`] from the test's own thread.
fn snapshot_at_rendezvous(start: &Barrier, cluster: &Cluster) -> ClusterMetrics {
    start.wait();
    let m = cluster.metrics();
    start.wait();
    m
}

/// One closed-loop caller: two warm-up requests, a rendezvous, then
/// `requests` timed requests — and more after those until `stop`, so every
/// caller's timed stretch runs against the full population. Returns how
/// long the timed requests took.
fn closed_loop_caller(
    session: &ClusterSession,
    x: &Tensor,
    requests: usize,
    start: &Barrier,
    done: &AtomicUsize,
    stop: &AtomicBool,
) -> Duration {
    for _ in 0..2 {
        session.infer(x.clone()).unwrap();
    }
    rendezvous(start);
    let t = Instant::now();
    for _ in 0..requests {
        session.infer(x.clone()).unwrap();
    }
    let took = t.elapsed();
    done.fetch_add(1, Ordering::SeqCst);
    // The cluster is dropped under the stragglers: a hang-up ends them.
    while !stop.load(Ordering::SeqCst) && session.infer(x.clone()).is_ok() {}
    took
}

/// (a) One to three closed-loop callers can never fill a batch of 8. Once
/// the scheduler has closed its first batches it knows how many callers
/// there are and stops waiting for more: 200 requests per caller take a
/// fraction of one window, and the window closes no further batch.
#[test]
fn closed_loop_callers_stop_paying_the_window() {
    const REQUESTS: usize = 200;
    let x = input();
    for replicas in [1, 2] {
        for callers in 1..=3 {
            let cluster = cluster(replicas, 8, WINDOW);
            let session = cluster.session();
            let (start, done, stop) =
                (Barrier::new(callers + 1), AtomicUsize::new(0), AtomicBool::new(false));
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..callers)
                    .map(|_| {
                        scope.spawn(|| {
                            closed_loop_caller(&session, &x, REQUESTS, &start, &done, &stop)
                        })
                    })
                    .collect();
                let warm = snapshot_at_rendezvous(&start, &cluster);
                wait_for(&done, callers);
                let end = cluster.metrics();
                stop.store(true, Ordering::SeqCst);
                drop(cluster);
                let context = format!("{callers} callers on {replicas} replicas");
                for handle in handles {
                    let took = handle.join().unwrap();
                    assert!(
                        took < WINDOW / 2,
                        "{context}: {REQUESTS} requests took {took:?}, the window is {WINDOW:?}"
                    );
                }
                assert_eq!(
                    end.closed(CloseReason::Window),
                    warm.closed(CloseReason::Window),
                    "{context}: the window closed batches after the warm-up: {:?} -> {:?}",
                    warm.batches_closed,
                    end.batches_closed
                );
                let accounted =
                    end.closed(CloseReason::Accounted) - warm.closed(CloseReason::Accounted);
                assert!(
                    accounted >= REQUESTS as u64,
                    "{context}: {:?} -> {:?}",
                    warm.batches_closed,
                    end.batches_closed
                );
            });
        }
    }
}

/// (b) The rule must not trade full batches for early ones. Two callers
/// submit bursts of 8 tickets against `max_batch` 8: a batch that opens on
/// the first ticket of a burst waits for the other seven (closing the
/// moment the queue runs dry — what `max_wait = 0` does — would run every
/// burst as `[1, 7]`).
#[test]
fn bursts_still_fill_their_batches() {
    const BURSTS: usize = 30;
    let cluster = cluster(1, 8, WINDOW);
    let session = cluster.session();
    let x = input();
    let start = Barrier::new(3);
    let burst = || {
        let tickets: Vec<_> = (0..8).map(|_| session.submit(x.clone()).unwrap()).collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    };
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    burst();
                    rendezvous(&start);
                    let t = Instant::now();
                    for _ in 0..BURSTS {
                        burst();
                    }
                    t.elapsed()
                })
            })
            .collect();
        let first = snapshot_at_rendezvous(&start, &cluster);
        let took: Vec<Duration> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        let end = cluster.metrics();
        assert!(took.iter().all(|&t| t < WINDOW), "a burst waited a window out: {took:?}");
        let batches = end.batch_sizes.count() - first.batch_sizes.count();
        let requests = end.batch_sizes.sum() - first.batch_sizes.sum();
        assert_eq!(requests, (2 * 8 * BURSTS) as f64);
        let mean = requests / batches as f64;
        assert!(mean >= 7.5, "mean batch size {mean} over {batches} batches");
        assert_eq!(
            batches_of_one(&end),
            batches_of_one(&first),
            "a burst was split into a batch of one and the rest: {:?}",
            end.batch_sizes.buckets()
        );
    });
}

/// Two closed-loop callers run in step; one of them then sleeps about a
/// forward's length, once. Returns how many batches of one and how many
/// batches in all the next 100 requests per caller took, and how long.
fn out_of_step_once(max_wait: Duration) -> (u64, u64, Duration) {
    const REQUESTS: usize = 100;
    let cluster = cluster(1, 8, max_wait);
    let session = cluster.session();
    let x = input();
    let start = Barrier::new(3);
    std::thread::scope(|scope| {
        let callers: Vec<_> = [false, true]
            .into_iter()
            .map(|sleeper| {
                let (session, x, start) = (&session, &x, &start);
                scope.spawn(move || {
                    let mut forward = Duration::ZERO;
                    for _ in 0..20 {
                        let t = Instant::now();
                        session.infer(x.clone()).unwrap();
                        forward = t.elapsed();
                    }
                    rendezvous(start);
                    let t = Instant::now();
                    if sleeper {
                        std::thread::sleep(forward);
                    }
                    for _ in 0..REQUESTS {
                        session.infer(x.clone()).unwrap();
                    }
                    t.elapsed()
                })
            })
            .collect();
        let before = snapshot_at_rendezvous(&start, &cluster);
        let took = callers.into_iter().map(|c| c.join().unwrap()).max().unwrap();
        let after = cluster.metrics();
        (
            batches_of_one(&after) - batches_of_one(&before),
            after.batch_sizes.count() - before.batch_sizes.count(),
            took,
        )
    })
}

/// (c) Out of step is not a resting point. The caller left alone is
/// waited for (it is expected), so the two are back in one batch within
/// two cycles — under the long window, and under the 1 ms window that had
/// two stable phases when a batch always waited its window out and no
/// longer. The lone tail of whichever caller finishes last may add two.
#[test]
fn out_of_step_callers_rejoin_within_two_cycles() {
    let (ones, batches, took) = out_of_step_once(WINDOW);
    assert!(ones <= 4, "{ones} batches of one in {batches} under a {WINDOW:?} window");
    assert!(took < WINDOW * 3, "rejoining took {took:?}");
    let (ones, batches, _) = out_of_step_once(Duration::from_millis(1));
    assert!(ones <= 4, "{ones} batches of one in {batches} under a 1 ms window");
}

/// (d) A population that shrinks is forgotten after two batch cycles: the
/// caller left over from three waits the window at most twice, then every
/// batch of one closes at once.
#[test]
fn a_shrunken_population_is_forgotten_after_two_cycles() {
    const ALONE: usize = 50;
    let cluster = cluster(1, 8, WINDOW);
    let session = cluster.session();
    let x = input();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    session.infer(x.clone()).unwrap();
                }
            });
        }
        // The third caller is this thread, and it is the one that stays.
        for _ in 0..40 {
            session.infer(x.clone()).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        let three = cluster.metrics();
        let t = Instant::now();
        for _ in 0..ALONE {
            session.infer(x.clone()).unwrap();
        }
        let took = t.elapsed();
        let one = cluster.metrics();
        let waited = one.closed(CloseReason::Window) - three.closed(CloseReason::Window);
        assert!(waited <= 2, "the window closed {waited} batches after the population shrank");
        assert!(took < WINDOW * 2 + WINDOW / 2, "{ALONE} requests alone took {took:?}");
        let at_once = one.closed(CloseReason::Accounted) - three.closed(CloseReason::Accounted);
        assert!(
            at_once >= (ALONE - 2) as u64,
            "{:?} -> {:?}",
            three.batches_closed,
            one.batches_closed
        );
    });
}

/// A batch's bookkeeping — served counts, the batch, its density, the
/// slot release — is done before its replies are sent: a caller holding
/// its reply reads its own request in `Cluster::metrics()`, without
/// polling for the ledger to catch up.
#[test]
fn a_reply_in_hand_is_already_in_the_metrics() {
    let cluster = cluster(2, 1, Duration::ZERO);
    let session = cluster.session();
    let x = input();
    for served in 1..=100u64 {
        session.infer(x.clone()).unwrap();
        let m = cluster.metrics();
        assert_eq!(m.totals().served, served);
        assert_eq!(m.batches_executed, served);
        assert_eq!(m.batches_closed.iter().sum::<u64>(), served);
        assert_eq!(m.latency.count(), served);
        assert_eq!((m.outstanding, m.queue_depth), (0, 0), "request {served} still holds a slot");
        assert!(m.mean_spike_density.is_some(), "request {served}: density not recorded yet");
    }
    // Stream chunks too.
    let stream = session.open_stream(Default::default()).unwrap();
    for chunk in 1..=T as u64 {
        stream.push(x.clone()).unwrap();
        let m = cluster.metrics();
        assert_eq!((m.sessions.chunks_served, m.outstanding), (chunk, 0));
        assert_eq!(m.sessions.timesteps_executed, chunk);
    }
}

/// What an arrival script does to the scheduler's state while a batch is
/// open. Only the first three wake the replica that holds the batch.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A request is admitted: one more outstanding, one more queued.
    Arrival,
    /// A stream command arrives for the forming replica.
    Stream,
    /// The cluster shuts down.
    Shutdown,
    /// Another replica finishes a request: one fewer outstanding.
    Departure,
}

/// What a rule sees of an open batch besides the script's constants:
/// `(batch_len, queue_empty, outstanding, now, stream_pending, shutdown)`.
type Look = (usize, bool, usize, u64, bool, bool);

/// The loop `Scheduler::next_work` ran before the rule, transcribed:
/// `while len < max_batch && !shutdown && no stream { pop, or wait for
/// the window }` (it gave no reasons; the ones here name the condition
/// that ended it).
fn window_only(max_batch: usize, close_at: Option<u64>, look: Look) -> BatchClose<u64> {
    let (batch_len, queue_empty, _, now, stream_pending, shutdown) = look;
    if batch_len >= max_batch {
        BatchClose::Close(CloseReason::Full)
    } else if shutdown {
        BatchClose::Close(CloseReason::Shutdown)
    } else if stream_pending {
        BatchClose::Close(CloseReason::Stream)
    } else if !queue_empty {
        BatchClose::Wait(Some(now))
    } else {
        match close_at {
            Some(close) if now >= close => BatchClose::Close(CloseReason::Window),
            _ => BatchClose::Wait(close_at),
        }
    }
}

/// Replays `script` (times in µs after the batch opened with one request
/// in it) under `rule` and returns when the batch closes, with how many
/// requests and why — `None` if it never does.
fn replay(
    script: &[(u64, Event)],
    outstanding_at_open: usize,
    rule: impl Fn(Look) -> BatchClose<u64>,
) -> Option<(u64, usize, CloseReason)> {
    let (mut now, mut next) = (0u64, 0usize);
    let (mut batch_len, mut queued, mut outstanding) = (1usize, 0usize, outstanding_at_open);
    let (mut stream_pending, mut shutdown) = (false, false);
    loop {
        while next < script.len() && script[next].0 <= now {
            match script[next].1 {
                Event::Arrival => (queued, outstanding) = (queued + 1, outstanding + 1),
                Event::Stream => stream_pending = true,
                Event::Shutdown => shutdown = true,
                Event::Departure => outstanding = (outstanding - 1).max(batch_len + queued),
            }
            next += 1;
        }
        let wait = match rule((batch_len, queued == 0, outstanding, now, stream_pending, shutdown))
        {
            BatchClose::Close(reason) => return Some((now, batch_len, reason)),
            BatchClose::Wait(until) => until,
        };
        if queued > 0 {
            assert_eq!(wait, Some(now), "a non-empty queue is taken from, not slept on");
            (queued, batch_len) = (queued - 1, batch_len + 1);
            continue;
        }
        let woken =
            script[next..].iter().find(|(_, e)| !matches!(e, Event::Departure)).map(|&(at, _)| at);
        now = match (woken, wait) {
            (Some(at), Some(until)) => at.min(until),
            (Some(at), None) => at,
            (None, Some(until)) => until,
            (None, None) => return None,
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// (e) Never later. Whatever the arrivals, whatever `expected` says, the
    /// rule closes a batch no later than the window-only loop did — with
    /// the same members whenever it closes at the same time — and with
    /// `expected` unknown it *is* that loop.
    #[test]
    fn the_rule_never_closes_a_batch_later_than_the_window_alone(
        shape in (1usize..=8, 0u64..=4000, 0usize..=12, 0usize..=14),
        gaps in collection::vec((0u64..=900, 0u8..=9), 0..14),
    ) {
        let (max_batch, window, elsewhere, expected) = shape;
        // One script in eight has no window (`Duration::MAX`); `expected`
        // 13 and 14 stand for "unknown".
        let close_at = (window % 8 != 0).then_some(window);
        let expected = (expected <= 12).then_some(expected);
        let mut at = 0;
        let script: Vec<(u64, Event)> = gaps
            .iter()
            .map(|&(gap, kind)| {
                at += gap;
                let event = match kind {
                    0 => Event::Stream,
                    1 => Event::Shutdown,
                    2 | 3 => Event::Departure,
                    _ => Event::Arrival,
                };
                (at, event)
            })
            .collect();
        let open = 1 + elsewhere;
        let rule = |expected: Option<usize>| {
            move |(len, empty, outstanding, now, stream, shutdown): Look| {
                batch_close(len, max_batch, empty, outstanding, expected, now, close_at, stream, shutdown)
            }
        };
        let old = replay(&script, open, |look| window_only(max_batch, close_at, look));
        prop_assert_eq!(
            replay(&script, open, rule(None)),
            old,
            "with nothing known the rule is the old loop"
        );
        match (replay(&script, open, rule(expected)), old) {
            (None, None) | (Some(_), None) => {}
            (None, Some(_)) => prop_assert!(false, "the rule never closes a batch the window did"),
            (Some((at, len, reason)), Some((old_at, old_len, _))) => {
                prop_assert!(at <= old_at, "closed at {} us, the window alone at {} us", at, old_at);
                if reason != CloseReason::Accounted {
                    prop_assert_eq!((at, len), (old_at, old_len));
                }
            }
        }
    }
}
