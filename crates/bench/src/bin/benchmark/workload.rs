//! The four workloads' common shape: a one-off preparation, then
//! independent rounds of *fresh state → warm-up → measured window*, each
//! round a closed loop of callers that wait for their replies.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::mem;
use crate::trace::{Span, Tracer};
use crate::{batch_int8, serve_tcp, stream, train};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Classic BPTT training of an HTT MS-ResNet18 on event data.
    TrainHttEvents,
    /// Small analog requests over loopback TCP to a merged f32 plan.
    ServeTcpF32,
    /// Bursts of sparse event samples into an in-process int8 plan.
    BatchInt8Events,
    /// Chunked early-exit streams into an in-process f32 plan.
    StreamF32Events,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainHttEvents,
        Workload::ServeTcpF32,
        Workload::BatchInt8Events,
        Workload::StreamF32Events,
    ];

    /// The name used on the command line and in every record.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainHttEvents => "train_htt_events",
            Workload::ServeTcpF32 => "serve_tcp_f32",
            Workload::BatchInt8Events => "batch_int8_events",
            Workload::StreamF32Events => "stream_f32_events",
        }
    }

    /// The workload of that name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of goodput is.
    pub fn goodput_unit(self) -> &'static str {
        match self {
            Workload::TrainHttEvents => "samples",
            Workload::ServeTcpF32 | Workload::BatchInt8Events => "replies",
            Workload::StreamF32Events => "streams",
        }
    }

    /// One-off preparation from the seed: inputs, checkpoint, reference
    /// outputs.
    pub fn prepare(self, seed: u64, clients: usize) -> Box<dyn Scenario> {
        match self {
            Workload::TrainHttEvents => Box::new(train::Train::prepare(seed)),
            Workload::ServeTcpF32 => Box::new(serve_tcp::ServeTcp::prepare(seed, clients)),
            Workload::BatchInt8Events => Box::new(batch_int8::BatchInt8::prepare(seed, clients)),
            Workload::StreamF32Events => Box::new(stream::Streams::prepare(seed, clients)),
        }
    }
}

/// A prepared workload: runs any number of independent rounds.
pub trait Scenario {
    /// One round: build fresh state (model / plan / server), warm it up,
    /// then measure a closed loop for `window`. With `trace_epoch` set the
    /// benchmark's span recorder is on and the round's spans come back in
    /// [`Round::spans`].
    fn round(&self, window: Duration, trace_epoch: Option<Instant>) -> Round;
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-round preparation in seconds: fresh state plus warm-up.
    pub prep_s: f64,
    /// Wall-clock length of the measured window in seconds.
    pub window_s: f64,
    /// Counts and per-operation latencies from the window.
    pub tally: Tally,
    /// Resident memory gained across the window, KiB (Linux only).
    pub rss_gain_kb: Option<f64>,
    /// Spans of a traced round.
    pub spans: Vec<Span>,
}

/// Operation counts and latencies of one caller or one round.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Latency of every attempted operation, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Units of goodput completed *and verified correct* (samples /
    /// replies / streams).
    pub good: u64,
    /// Operations attempted (steps / requests / chunk pushes).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bits.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation that took `ms` and was `ok` or not.
    pub fn op(&mut self, ms: f64, ok: bool) {
        self.lat_ms.push(ms);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Folds another caller's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.lat_ms.extend(other.lat_ms);
        self.good += other.good;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A closed loop of `clients` callers measured for `window`; `began` is
/// when the round's preparation started.
///
/// Each caller first runs `connect` (its connection or session plus its
/// warm-up operations — all part of the round's preparation), then all
/// wait on a barrier so the window opens for everyone at once, then each
/// repeats `op` until the window closes. `op` issues one operation (or
/// one burst), waits for the replies, verifies them and counts them.
pub fn closed_loop<S>(
    began: Instant,
    clients: usize,
    window: Duration,
    trace_epoch: Option<Instant>,
    connect: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, &mut Tracer, &mut Tally, u64) + Sync,
) -> Round {
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, connect, op) = (&barrier, &connect, &op);
                scope.spawn(move || {
                    let mut state = connect(c);
                    let mut tracer = trace_epoch.map_or_else(Tracer::off, |e| Tracer::on(e, c));
                    let mut tally = Tally::default();
                    barrier.wait();
                    let deadline = Instant::now() + window;
                    let mut op_id = (c as u64) << 32;
                    while Instant::now() < deadline {
                        op(&mut state, &mut tracer, &mut tally, op_id);
                        op_id += 1;
                    }
                    (tally, tracer.into_spans())
                })
            })
            .collect();
        barrier.wait();
        let opened = Instant::now();
        let rss_before = mem::rss_kb();
        let mut round =
            Round { prep_s: opened.duration_since(began).as_secs_f64(), ..Round::default() };
        for h in handles {
            let (tally, spans) = h.join().expect("load-generating thread panicked");
            round.tally.merge(tally);
            round.spans.extend(spans);
        }
        round.window_s = opened.elapsed().as_secs_f64();
        round.rss_gain_kb = rss_before.zip(mem::rss_kb()).map(|(a, b)| b - a);
        round
    })
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn closed_loop_runs_every_client_for_the_window() {
        let m = closed_loop(
            Instant::now(),
            2,
            Duration::from_millis(30),
            Some(Instant::now()),
            |c| c,
            |c, tracer, tally, op_id| {
                let t = Instant::now();
                tracer.span("nap", op_id, None, || std::thread::sleep(Duration::from_millis(1)));
                assert_eq!(op_id >> 32, *c as u64);
                tally.op(ms_since(t), true);
                tally.good += 1;
            },
        );
        assert!(m.window_s >= 0.03);
        assert!(m.tally.attempted >= 4 && m.tally.good == m.tally.attempted);
        assert_eq!(m.tally.failed, 0);
        assert_eq!(m.spans.len() as u64, m.tally.attempted);
        assert!(m.spans.iter().any(|s| s.thread == 0) && m.spans.iter().any(|s| s.thread == 1));
    }
}
