//! The serving core's one time source.
//!
//! The scheduler reads every timestamp — admission, deadlines, the batch
//! window, token refills, replica heartbeats, the trace spans it records —
//! from one [`Clock`] handed to it at construction, and parks every wait
//! through it. Replicas read the same clock through the scheduler.
//!
//! [`RealClock`] is exactly [`ttsnn_obs::now_ns`] plus
//! `Condvar::wait_timeout`, so scheduler timestamps share the timebase of
//! every trace span; it is what [`Cluster::load`](crate::Cluster::load)
//! serves on. [`ManualClock`] moves only when a test advances it and counts
//! the waiters parked on it, so timing behaviour (the `max_wait` close,
//! deadline expiry, token refill, heartbeat age) is asserted exactly,
//! without a sleep: [`Cluster::load_with_clock`](crate::Cluster::load_with_clock).

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Wakes one scheduler's parked waiters: takes the scheduler's lock, then
/// notifies its condvar, so a wake that races a waiter about to park is
/// never lost. Only a clock that moves by command ([`ManualClock`]) calls
/// it.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// Where the serving core reads the time and parks its timed waits.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's epoch; never decreases.
    fn now_ns(&self) -> u64;

    /// Parks a scheduler waiter until the clock reads `until_ns` (`None`:
    /// no deadline) or the scheduler wakes it. `park(timeout)` releases the
    /// scheduler's lock and blocks on its condvar until a notification or
    /// for at most `timeout` (`None`: no limit); `wake` notifies that
    /// condvar. Returns without parking when `until_ns` has passed; a
    /// spurious return is allowed — the caller looks at the time again.
    fn park_until(
        &self,
        until_ns: Option<u64>,
        wake: &Wake,
        park: &mut dyn FnMut(Option<Duration>),
    );

    /// Told by the scheduler just before it wakes its parked waiters (an
    /// admission, a stream command, shutdown), under the scheduler's lock.
    /// A clock that counts parked waiters stops counting the ones parked
    /// before it. The default does nothing.
    fn waking(&self) {}
}

/// The production clock: [`ttsnn_obs::now_ns`] and
/// `Condvar::wait_timeout`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        ttsnn_obs::now_ns()
    }

    fn park_until(
        &self,
        until_ns: Option<u64>,
        _wake: &Wake,
        park: &mut dyn FnMut(Option<Duration>),
    ) {
        match until_ns {
            None => park(None),
            Some(until) => {
                let left = until.saturating_sub(self.now_ns());
                if left > 0 {
                    park(Some(Duration::from_nanos(left)));
                }
            }
        }
    }
}

/// A clock for tests: it reads 0 ns until [`ManualClock::advance`] moves
/// it, and never by itself. A waiter whose deadline has not come parks
/// until an advance or a scheduler wake-up; [`ManualClock::wait_parked`]
/// blocks until the scheduler's replicas have looked at everything that
/// happened before it and parked again — the point where a test asserts
/// what they did, instead of sleeping and hoping they did it.
///
/// Time stands still while a replica executes, so a served request's
/// latency is exactly the time the test advanced while it was queued.
#[derive(Default)]
pub struct ManualClock {
    state: Mutex<Manual>,
    /// Signalled whenever a waiter parks.
    parked: Condvar,
}

#[derive(Default)]
struct Manual {
    now: u64,
    /// Bumped by every advance and every scheduler wake-up: a waiter parked
    /// in the current epoch has seen both.
    epoch: u64,
    next_id: u64,
    waiters: Vec<Waiter>,
}

struct Waiter {
    id: u64,
    epoch: u64,
    wake: Wake,
}

impl ManualClock {
    /// A clock reading 0 ns.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    fn lock(&self) -> MutexGuard<'_, Manual> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves the clock forward by `by` and wakes every parked waiter so it
    /// looks at the new time.
    ///
    /// # Panics
    ///
    /// Panics if the clock would pass `u64::MAX` ns (≈ 584 years).
    pub fn advance(&self, by: Duration) {
        let wakes: Vec<Wake> = {
            let mut m = self.lock();
            let by = u64::try_from(by.as_nanos()).ok();
            m.now = by.and_then(|by| m.now.checked_add(by)).expect("ManualClock overflow");
            m.epoch += 1;
            m.waiters.iter().map(|w| Arc::clone(&w.wake)).collect()
        };
        for wake in wakes {
            wake();
        }
    }

    /// Blocks until `n` waiters are parked that parked after the last
    /// advance and the last scheduler wake-up: every replica has seen the
    /// current time and every admission so far, finished whatever batch
    /// they closed, and has nothing left to do until the next event.
    pub fn wait_parked(&self, n: usize) {
        let mut m = self.lock();
        while m.waiters.iter().filter(|w| w.epoch == m.epoch).count() < n {
            m = self.parked.wait(m).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.lock().now
    }

    fn park_until(
        &self,
        until_ns: Option<u64>,
        wake: &Wake,
        park: &mut dyn FnMut(Option<Duration>),
    ) {
        let id = {
            let mut m = self.lock();
            if until_ns.is_some_and(|until| m.now >= until) {
                return;
            }
            let (id, epoch) = (m.next_id, m.epoch);
            m.next_id += 1;
            m.waiters.push(Waiter { id, epoch, wake: Arc::clone(wake) });
            id
        };
        self.parked.notify_all();
        park(None);
        self.lock().waiters.retain(|w| w.id != id);
    }

    fn waking(&self) {
        self.lock().epoch += 1;
    }
}
