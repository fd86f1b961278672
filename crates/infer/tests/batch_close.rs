//! The batch-close rule, from outside: a batch closes when everyone who
//! could join it already has.
//!
//! Every cluster here runs on a [`ManualClock`]: time moves only when a
//! test advances it, so the `max_wait` window closes a batch only where a
//! test says so, at exactly `max_wait`, and `batches_closed{window}` counts
//! those closes exactly. The scripted tests let the replicas settle after
//! every admission (`ManualClock::wait_parked`) and then assert what they
//! did; a batch held open that should have closed fails an assertion
//! instead of waiting. In the closed-loop tests, whose callers are threads,
//! time stands still after the window the test runs out, so a caller slow
//! to resubmit is waited for, as the rule says, however the host schedules
//! it. The rule itself is the pure function
//! [`ttsnn_infer::sched::batch_close`]; the last test replays random
//! arrival scripts through it against a transcription of the loop it
//! replaced.
//!
//! What stays pinned elsewhere, unchanged: cancellation, expiry and
//! saturation while a batch is held open
//! (`dropped_queued_ticket_is_cancelled_and_never_executed`,
//! `queued_deadline_expiry_is_observable_and_skips_execution`,
//! `try_submit_reports_saturation_and_shutdown_serves_admitted_work` in
//! `cluster.rs`), and that batching never moves a bit
//! (`batching_invariance_and_train_plane_parity`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use ttsnn_infer::sched::{batch_close, BatchClose};
use ttsnn_infer::{
    CloseReason, Cluster, ClusterMetrics, ClusterSession, ClusterTicket, InferError,
};
use ttsnn_snn::ConvPolicy;
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::Tensor;
use ttsnn_testutil::{samples, vgg_checkpoint, vgg_cluster_config, ManualClock};

const T: usize = 2;
const WINDOW: Duration = Duration::from_secs(1);
const TICK: Duration = Duration::from_nanos(1);

/// A cluster on a fresh [`ManualClock`], its replicas on a two-thread
/// kernel pool whatever the host.
fn cluster(replicas: usize, max_batch: usize, max_wait: Duration) -> (Cluster, Arc<ManualClock>) {
    let (ckpt, _) = vgg_checkpoint(&ConvPolicy::Baseline, 24);
    let config = vgg_cluster_config(ConvPolicy::Baseline, T, replicas, max_batch, max_wait);
    let clock = ManualClock::new();
    let cluster = Runtime::new(2)
        .install(|| Cluster::load_with_clock(config, clock.clone(), ckpt.as_slice()))
        .unwrap();
    (cluster, clock)
}

fn input() -> Tensor {
    samples(24, 1).remove(0)
}

/// Batches of exactly one request executed so far.
fn batches_of_one(m: &ClusterMetrics) -> u64 {
    m.batch_sizes.buckets()[0].1
}

/// Requests served so far.
fn served(cluster: &Cluster) -> u64 {
    cluster.metrics().totals().served
}

/// Submits one request and lets every replica look at it: on return, a
/// replica has taken it, and the replicas have closed and executed
/// whatever batch the admission let them close, and hold open the rest.
fn admit(cluster: &Cluster, clock: &ManualClock) -> ClusterTicket {
    let ticket = cluster.session().submit(input()).unwrap();
    clock.wait_parked(cluster.replicas());
    assert_eq!(cluster.metrics().queue_depth, 0, "no replica looked at the admission");
    ticket
}

/// A scheduler's first batch waits its window out (no population is known
/// yet): `callers` requests ride it (on one replica; more replicas may each
/// open one), closed by the window at exactly `max_wait`, which makes
/// `callers` the population the next batches expect.
fn first_batch(cluster: &Cluster, clock: &ManualClock, callers: usize, max_wait: Duration) {
    let replicas = cluster.replicas();
    let tickets: Vec<_> = (0..callers).map(|_| admit(cluster, clock)).collect();
    clock.advance(max_wait - TICK);
    clock.wait_parked(replicas);
    assert_eq!(served(cluster), 0, "the first batch closed before its window");
    clock.advance(TICK);
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let m = cluster.metrics();
    assert_eq!(m.totals().served, callers as u64);
    // Once one of them has closed, the population is known to the rest.
    let (window, accounted) = (m.closed(CloseReason::Window), m.closed(CloseReason::Accounted));
    assert!(window >= 1 && window + accounted == m.batches_closed.iter().sum::<u64>());
}

/// One closed-loop caller: `requests` requests, then more until `stop`, so
/// every caller's counted stretch runs against the full population. Reports
/// on `done` when the counted requests are served.
fn closed_loop_caller(
    session: &ClusterSession,
    requests: usize,
    done: &Sender<()>,
    stop: &AtomicBool,
) {
    let x = input();
    for _ in 0..requests {
        session.infer(x.clone()).unwrap();
    }
    done.send(()).unwrap();
    // The cluster is dropped under the stragglers: a hang-up ends them.
    while !stop.load(Ordering::SeqCst) && session.infer(x.clone()).is_ok() {}
}

/// (a) One to three closed-loop callers can never fill a batch of 8. Once
/// the scheduler has closed its first batch it knows how many callers there
/// are and stops waiting for more: with the clock standing still after
/// that first window, 200 requests per caller are served by batches that
/// close by accounting. (A rule that waited for a caller who never comes
/// would hang here, not fail: the clock never runs that window out.)
#[test]
fn closed_loop_callers_stop_paying_the_window() {
    const REQUESTS: usize = 200;
    for replicas in [1, 2] {
        for callers in 1..=3 {
            let (cluster, clock) = cluster(replicas, 8, WINDOW);
            first_batch(&cluster, &clock, callers, WINDOW);
            let warm = cluster.metrics();
            let session = cluster.session();
            let (done_tx, done) = channel();
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..callers {
                    let (session, done_tx, stop) = (&session, done_tx.clone(), &stop);
                    scope.spawn(move || closed_loop_caller(session, REQUESTS, &done_tx, stop));
                }
                for _ in 0..callers {
                    done.recv().unwrap();
                }
                let end = cluster.metrics();
                stop.store(true, Ordering::SeqCst);
                drop(cluster);
                let context = format!("{callers} callers on {replicas} replicas");
                assert_eq!(
                    end.closed(CloseReason::Window),
                    warm.closed(CloseReason::Window),
                    "{context}: {:?} -> {:?}",
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
/// take turns submitting bursts of 8 tickets against `max_batch` 8: a
/// batch that opens on the first ticket of a burst, seen alone, waits for
/// the other seven (closing the moment the queue runs dry — what
/// `max_wait = 0` does — would run every burst as `[1, 7]`). The clock
/// never moves, so no batch closes by the window.
#[test]
fn bursts_still_fill_their_batches() {
    const BURSTS: usize = 30;
    let (cluster, clock) = cluster(1, 8, WINDOW);
    let burst = |b: usize| {
        let before = served(&cluster);
        let lone = admit(&cluster, &clock);
        assert_eq!(served(&cluster), before, "burst {b}: its first ticket ran alone");
        let rest: Vec<_> = (1..8).map(|_| admit(&cluster, &clock)).collect();
        for ticket in std::iter::once(lone).chain(rest) {
            ticket.wait().unwrap();
        }
    };
    // One warm-up burst per caller.
    (0..2).for_each(burst);
    let first = cluster.metrics();
    (0..2 * BURSTS).for_each(burst);
    let end = cluster.metrics();
    let batches = end.batch_sizes.count() - first.batch_sizes.count();
    let requests = end.batch_sizes.sum() - first.batch_sizes.sum();
    assert_eq!((batches, requests), ((2 * BURSTS) as u64, (2 * 8 * BURSTS) as f64));
    let full = end.closed(CloseReason::Full) - first.closed(CloseReason::Full);
    assert_eq!(full, (2 * BURSTS) as u64, "{:?}", end.batches_closed);
    assert_eq!(end.closed(CloseReason::Window), 0, "{:?}", end.batches_closed);
}

/// Two closed-loop callers start in step, their first requests in one
/// batch; then one falls out of step once: its request is held for the
/// other's until the clock runs the window out — the batch closes alone, at
/// exactly `max_wait` — and the other's request comes only after that batch
/// ran. The first caller's next request, seen alone, closes at once; the
/// late one, admitted right behind it, finds it executing, so both are
/// expected again, and from there the two run closed-loop. Returns how many
/// batches of one, and how many batches in all, the next 100 requests per
/// caller took.
fn out_of_step_once(max_wait: Duration) -> (u64, u64) {
    const REQUESTS: usize = 100;
    let (cluster, clock) = cluster(1, 8, max_wait);
    first_batch(&cluster, &clock, 2, max_wait);
    let before = cluster.metrics();
    let session = cluster.session();
    let lone = session.submit(input()).unwrap();
    clock.wait_parked(1);
    clock.advance(max_wait - TICK);
    clock.wait_parked(1);
    assert_eq!(served(&cluster), before.totals().served, "closed before its window");
    clock.advance(TICK);
    lone.wait().unwrap();
    let (first, late) = (input(), input());
    let tickets = [session.submit(first).unwrap(), session.submit(late).unwrap()];
    let (done_tx, done) = channel();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for ticket in tickets {
            let (session, done_tx, stop) = (&session, done_tx.clone(), &stop);
            scope.spawn(move || {
                ticket.wait().unwrap();
                closed_loop_caller(session, REQUESTS, &done_tx, stop);
            });
        }
        done.recv().unwrap();
        done.recv().unwrap();
        let after = cluster.metrics();
        stop.store(true, Ordering::SeqCst);
        drop(cluster);
        assert_eq!(after.closed(CloseReason::Window) - before.closed(CloseReason::Window), 1);
        (
            batches_of_one(&after) - batches_of_one(&before),
            after.batch_sizes.count() - before.batch_sizes.count(),
        )
    })
}

/// (c) Out of step is not a resting point. The caller left alone is
/// waited for (it is expected), so the two are back in one batch within
/// two cycles — under the long window, and under the 1 ms window that had
/// two stable phases when a batch always waited its window out and no
/// longer.
#[test]
fn out_of_step_callers_rejoin_within_two_cycles() {
    let (ones, batches) = out_of_step_once(WINDOW);
    assert!(ones <= 4, "{ones} batches of one in {batches} under a {WINDOW:?} window");
    let (ones, batches) = out_of_step_once(Duration::from_millis(1));
    assert!(ones <= 4, "{ones} batches of one in {batches} under a 1 ms window");
}

/// (d) A population that shrinks is forgotten after two batch cycles:
/// three callers run in step, then one carries on alone. Its first batch
/// waits for the other two until the window runs out — at exactly the
/// window — and every later one closes at once.
#[test]
fn a_shrunken_population_is_forgotten_after_two_cycles() {
    const ALONE: usize = 50;
    let (cluster, clock) = cluster(1, 8, WINDOW);
    first_batch(&cluster, &clock, 3, WINDOW);
    for _ in 0..40 {
        let tickets: Vec<_> = (0..3).map(|_| admit(&cluster, &clock)).collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    }
    let three = cluster.metrics();
    let mut waited = 0;
    for _ in 0..ALONE {
        let before = served(&cluster);
        let ticket = admit(&cluster, &clock);
        if served(&cluster) == before {
            clock.advance(WINDOW - TICK);
            clock.wait_parked(1);
            assert_eq!(served(&cluster), before, "closed before its window");
            clock.advance(TICK);
            waited += 1;
        }
        ticket.wait().unwrap();
    }
    let one = cluster.metrics();
    assert_eq!(one.closed(CloseReason::Window) - three.closed(CloseReason::Window), waited);
    assert_eq!(waited, 1, "the window closed {waited} batches after the population shrank");
    let at_once = one.closed(CloseReason::Accounted) - three.closed(CloseReason::Accounted);
    assert_eq!(
        at_once,
        (ALONE - 1) as u64,
        "{:?} -> {:?}",
        three.batches_closed,
        one.batches_closed
    );
}

/// A batch's bookkeeping — served counts, the batch, its density, the
/// slot release — is done before its replies are sent: a caller holding
/// its reply reads its own request in `Cluster::metrics()`, without
/// polling for the ledger to catch up.
#[test]
fn a_reply_in_hand_is_already_in_the_metrics() {
    let (cluster, _clock) = cluster(2, 1, Duration::ZERO);
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

/// The same for a request the replica refuses (its input is not the
/// plan's frame): it is counted failed, and its slot released, before its
/// error is sent.
#[test]
fn a_failed_reply_in_hand_is_already_in_the_metrics() {
    let (cluster, _clock) = cluster(1, 1, Duration::ZERO);
    let session = cluster.session();
    let misshapen = Tensor::zeros(&[1, 2, 3]);
    for failed in 1..=100u64 {
        assert!(matches!(session.infer(misshapen.clone()), Err(InferError::Shape(_))));
        let m = cluster.metrics();
        assert_eq!((m.totals().failed, m.totals().served), (failed, 0));
        assert_eq!((m.outstanding, m.queue_depth), (0, 0), "request {failed} still holds a slot");
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
