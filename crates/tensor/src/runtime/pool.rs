//! Persistent channel-fed worker pool.
//!
//! [`Runtime`] owns a set of long-lived worker threads fed from a shared
//! injector queue. A parallel region enqueues one task per index range,
//! runs the first range on the calling thread, then *helps* — executing
//! queued tasks (its own or other regions') while it waits — so nested
//! regions can never deadlock.
//!
//! # Worker states: running → spinning → parked
//!
//! A worker that finds the queue empty does not go to sleep at once. It
//! *spins*: it polls a lock-free count of queued tasks, giving the CPU away
//! with [`std::thread::yield_now`] after every miss, and parks on the
//! condvar only after [`SPIN_BUDGET`] without work. A region owner waits
//! for its latch the same way. Kernels open regions back to back — a
//! training step opens one every ≈ 20 µs — so the next region almost always
//! finds its worker still awake, and then a handoff costs a mutex-guarded
//! queue push on one side and a poll on the other, ≈ 0.8 µs on the region's
//! critical path (`pool_dispatch`'s `pool_region_handoff_us`), and no
//! futex call: a push skips the condvar `notify` when no worker sleeps. A
//! worker that *has* parked costs a futex wake-up each way, ≈ 28–45 µs on a
//! 2-vCPU container (`pool_region_parked_us`) — what every fork of a
//! training step paid when workers parked the moment the queue ran dry.
//! [`fork_grain`] sizes the smallest forked range from the hot handoff.
//!
//! The spin **yields** on every poll because a core is not always free:
//! with more runnable threads than cores (serving's connection threads, an
//! oversubscribed `TTSNN_NUM_THREADS`, a process pinned to one CPU) a
//! busy-waiting worker would hold a core for a whole scheduler slice while
//! the thread that is about to push the next region waits for it. A
//! yielding spinner only ever runs on a core nobody else wants.
//!
//! Workers are spawned lazily on the first region that wants more than one
//! thread, so a one-thread runtime ([`Runtime::serial`]) never starts a
//! thread. Dropping the last clone of a [`Runtime`] shuts its pool down and
//! joins the workers — spinning or parked; the process-wide
//! [`Runtime::global`] pool lives for the lifetime of the process.
//!
//! # Panic propagation
//!
//! A panic inside a work closure is caught on the worker that ran it,
//! carried back through the region's completion latch, and re-raised on
//! the thread that opened the region once every other task of the region
//! has finished. The pool itself survives: subsequent regions run normally.
//!
//! # Safety
//!
//! One of the two modules of the workspace the compiler lets use `unsafe`
//! (every other crate root forbids it, `ttsnn-tensor` denies it, and only
//! this module and `runtime::lanes` — the SIMD kernels — are allowed
//! it): a region's closure is lent to the queue as a type-erased pointer.
//! This is sound
//! because [`Runtime::run_region`] does not return until the region's
//! latch counts every enqueued task as finished, so the closure (and the
//! latch, which lives in the same stack frame) strictly outlive every
//! dereference — including panic unwinding, which also waits on the latch
//! before resuming.

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::lanes::{pinned, with_pinned, Lanes};

/// Work, in scalar `f32` operations, above which a region is worth
/// splitting between two threads (so the smallest forked range carries half
/// of it). Sized from the **hot** handoff, which is the one kernels see now
/// that idle workers spin (see [`SPIN_BUDGET`]): `pool_dispatch`'s
/// `pool_region_handoff_us` opens two-range regions of real, equal work
/// back to back on the 2-vCPU reference container and finds a 2 × 12 µs
/// region done in 12.8 µs (0.53 of its 24.0 µs serial time) and a
/// 2 × 2.5 µs one in 3.3 µs (0.66 of 5.0), the second range on the worker
/// every time — a handoff adds ≈ 0.8 µs to the critical path, so a fork
/// pays once a range is longer than that. 32 Ki operations are ≈ 1 µs of
/// the AVX2 f32 tile at the ≈ 30–36 GFLOP/s it reaches on one thread
/// (≈ 2.5 µs of the portable kernels' 12–15): the smallest fork finishes in
/// ≈ 0.9 of its serial time, anything larger tends to 0.5, and every
/// per-sample convolution kernel of a training step (0.1–3 MFLOP a region)
/// forks. Re-measured once the f32 tile ran on AVX2 (4 alternated rounds of
/// 25 s `train_htt_events` runs, 2 vCPUs): 16 Ki, 32 Ki and 64 Ki read a
/// median 681, 606 and 632 samples/s, a step of 20–28 ms at each; per
/// round 16 Ki led 32 Ki by 1–3 % three times and by 35 % once, on a host
/// that drifted by 35 % between rounds. That is no measured win, so the
/// value stays. Before the AVX2 tile the step was flat from 8 Ki to 32 Ki
/// (27.8–28.3 ms) and cost 0.7 ms more at 64 Ki and 4.4 ms at 128 Ki; the
/// value before that, 2 Mi, was sized from the parked round trip and kept
/// all ≈ 1 950 kernel calls of a step on one core (40.6 ms).
const FORK_WORK: usize = 32 << 10;

/// How long an idle worker — and a region owner waiting for its latch —
/// keeps polling before it parks on its condvar. The ski-rental rule gives
/// the floor: parking costs the next region a wake-up on its critical path,
/// ≈ 28–45 µs (`pool_region_parked_us`), so never spin for less than that.
/// It is not the ceiling, because the two costs are in different
/// currencies: a spin that yields burns time on a core nobody asked for,
/// a wake-up delays the step. What sets the value is how long the serial
/// stretches between two forks of a training step are (LIF and other
/// elementwise ops, tape bookkeeping). Measured on the `train_htt_events`
/// step, as budget → parks per step → step time: 25 µs → 220 → 32.6 ms,
/// 50 µs → 116 → 30.7 ms, 100 µs → 23 → 28.7 ms, **200 µs → 3.4 →
/// 28.1 ms**, 400 µs → 0.3 → 28.0 ms. Past 200 µs there is nothing left to
/// win, and an idle pool should not poll for longer than it has to.
const SPIN_BUDGET: Duration = Duration::from_micros(200);

/// The `min_chunk` / `min_slabs` every kernel passes to the `parallel_*`
/// methods: how many items of `work_per_item` operations make a range worth
/// forking. The unit is one streamed `f32` multiply or add; a kernel whose
/// operations cost more (integer MACs, event scatters) scales its count by
/// that cost where it calls this. The one place the fork policy lives — it
/// depends on the call's shape only, never on the thread count, so it
/// cannot move a result bit.
pub(crate) fn fork_grain(work_per_item: usize) -> usize {
    (FORK_WORK / work_per_item.max(1)).max(1)
}

/// What a pool has done since it started: [`Runtime::stats`]. The counters
/// live beside the queue and move under its lock, which every event they
/// count already holds, so a snapshot is exact and counting costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions opened with more than one range.
    pub regions: u64,
    /// Ranges pushed onto the queue (every range but a region's first).
    pub forked_tasks: u64,
    /// Queued ranges a pool worker ran. The rest were popped back by a
    /// caller helping while it waited.
    pub handoffs: u64,
    /// Times a worker or a waiting region owner exhausted its spin budget
    /// and blocked on a condvar. Each one costs a later region a wake-up.
    pub parks: u64,
}

impl PoolStats {
    /// The activity between `earlier` and this snapshot.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            regions: self.regions - earlier.regions,
            forked_tasks: self.forked_tasks - earlier.forked_tasks,
            handoffs: self.handoffs - earlier.handoffs,
            parks: self.parks - earlier.parks,
        }
    }
}

/// The injector queue and what must change together with it.
struct Injector {
    /// Workers pop from the front (oldest region first); helping callers
    /// pop from the back (their own tasks first).
    tasks: VecDeque<Task>,
    /// Workers blocked on `Shared::work_cv`. A push notifies only when
    /// this is non-zero.
    parked_workers: usize,
    stats: PoolStats,
}

/// State shared between the pool's workers and region callers.
struct Shared {
    injector: Mutex<Injector>,
    /// `injector.tasks.len()`, stored under the lock after every push and
    /// pop so spinning threads can poll it without taking the lock. Only a
    /// hint — tasks are published by the mutex — hence `Relaxed`.
    pending: AtomicUsize,
    /// Parked workers wait here for a push or shutdown.
    work_cv: Condvar,
    /// Parked region owners wait here for their latch.
    done_cv: Condvar,
    /// Region owners blocked (or about to block) on `done_cv`. `SeqCst`
    /// against `Latch::remaining`: an owner announces itself here and then
    /// re-reads its latch, a finishing task decrements the latch and then
    /// reads this, so one of the two always sees the other.
    parked_owners: AtomicUsize,
    /// Set once by [`Pool::drop`]; idle workers exit when they see it.
    shutdown: AtomicBool,
}

/// Which end of the injector queue to pop: workers take the front, callers
/// helping while they wait take the back.
#[derive(Clone, Copy)]
enum End {
    Front,
    Back,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Injector> {
        self.injector.lock().expect("pool queue lock: tasks run outside it and cannot poison it")
    }

    fn pop(&self, end: End) -> Option<Task> {
        let mut injector = self.lock();
        let task = match end {
            End::Front => injector.tasks.pop_front(),
            End::Back => injector.tasks.pop_back(),
        };
        if matches!(end, End::Front) && task.is_some() {
            injector.stats.handoffs += 1;
        }
        self.pending.store(injector.tasks.len(), Ordering::Relaxed);
        task
    }
}

/// Polls `ready`, yielding the CPU after every miss, until it holds or
/// [`SPIN_BUDGET`] has passed. Returns whether it held.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= SPIN_BUDGET {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Countdown latch for one parallel region, living on the region caller's
/// stack. Carries the first panic payload from any task of the region.
struct Latch {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A pre-split output run handed to one task of `parallel_over_ranges`:
/// `(first_slab_index, run)`, taken through the mutex exactly once.
type SliceRun<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// One enqueued index of a region's closure, type-erased so tasks from
/// closures of different regions share a queue.
struct Task {
    /// Thin pointer to the region's `&(dyn Fn(usize) + Sync)` reference.
    data: *const (),
    /// Thunk that re-fattens `data` and calls the closure with `index`.
    run: unsafe fn(*const (), usize),
    index: usize,
    /// The region's latch (valid until the region returns — see module
    /// safety notes).
    latch: *const Latch,
    /// The lane set the region's caller pinned ([`super::with_lanes`]),
    /// pinned on whichever thread runs the task.
    lanes: Option<Lanes>,
}

// SAFETY: `data` and `latch` point into the stack frame of a caller that
// blocks until `latch.remaining` reaches zero, and the pointee closure is
// `Sync`, so sending the pointers to a worker thread is sound.
unsafe impl Send for Task {}

impl Task {
    /// Runs the task, records any panic in the latch, and counts it done
    /// (waking the region owner if it was the last task and the owner has
    /// parked).
    fn execute(self, shared: &Shared) {
        // SAFETY: the region caller waits on the latch before returning,
        // so both pointers are live for the duration of this call.
        let latch = unsafe { &*self.latch };
        let run = self.run;
        let data = self.data;
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pinned(self.lanes, || {
                // SAFETY: `run` is the thunk enqueued with `data`, which
                // points at the region's closure reference and lives as long
                // as the latch does.
                unsafe { run(data, self.index) }
            })
        }));
        if let Err(payload) = result {
            latch.record_panic(payload);
        }
        // The latch may be gone the moment this lands: only `shared` below.
        if latch.remaining.fetch_sub(1, Ordering::SeqCst) == 1
            && shared.parked_owners.load(Ordering::SeqCst) > 0
        {
            // Taking the queue lock orders this notify after the owner's
            // announce-check-wait, which it does under the same lock.
            let _guard = shared.lock();
            shared.done_cv.notify_all();
        }
    }
}

/// The persistent workers behind a [`Runtime`] with more than one thread.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` threads polling the injector queue.
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector {
                tasks: VecDeque::new(),
                parked_workers: 0,
                stats: PoolStats::default(),
            }),
            pending: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            parked_owners: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ttsnn-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers: handles }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // No region can be active here: regions borrow the Runtime that
        // (transitively) owns this pool, so the queue is already empty.
        // Spinning workers see the flag on their next poll; parked ones
        // need the notify.
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Poisoned or not, the guard is held across the notify.
            let _guard = self.shared.injector.lock();
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker main loop. *Running*: pop the oldest task and run it until the
/// queue is empty. *Spinning*: poll for a push. *Parked*: sleep until one.
fn worker_loop(shared: &Shared) {
    loop {
        while let Some(task) = shared.pop(End::Front) {
            task.execute(shared);
        }
        let woken = spin_until(|| {
            shared.pending.load(Ordering::Relaxed) > 0 || shared.shutdown.load(Ordering::Acquire)
        });
        if !woken {
            let mut injector = shared.lock();
            while injector.tasks.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
                injector.stats.parks += 1;
                injector.parked_workers += 1;
                injector = shared.work_cv.wait(injector).expect("pool queue lock");
                injector.parked_workers -= 1;
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Thread-count policy plus the (lazily spawned) persistent worker pool
/// behind every parallel kernel.
///
/// The global instance ([`Runtime::global`]) is sized from
/// `TTSNN_NUM_THREADS` if set (clamped to ≥ 1), otherwise from
/// [`std::thread::available_parallelism`]. Kernels run on
/// [`Runtime::current`] — the global one unless the caller scoped another
/// with [`Runtime::install`], which is how tests pin thread counts:
/// `Runtime::new(n).install(|| conv2d(..))`. Clones share one pool, and
/// dropping the last clone joins its workers.
#[derive(Clone)]
pub struct Runtime {
    threads: usize,
    pool: Arc<OnceLock<Pool>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads)
            .field("pool_started", &self.pool.get().is_some())
            .finish()
    }
}

static GLOBAL: OnceLock<Runtime> = OnceLock::new();
static SERIAL: OnceLock<Runtime> = OnceLock::new();

thread_local! {
    /// The runtime [`Runtime::install`] scoped on this thread, if any.
    static INSTALLED: RefCell<Option<Runtime>> = const { RefCell::new(None) };
}

impl Runtime {
    /// A runtime that uses exactly `threads` workers (clamped to ≥ 1).
    /// Worker threads are spawned lazily on the first parallel region; a
    /// one-thread runtime never spawns.
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1), pool: Arc::new(OnceLock::new()) }
    }

    /// The process-wide runtime, sized once from `TTSNN_NUM_THREADS` or the
    /// machine's available parallelism.
    pub fn global() -> &'static Runtime {
        GLOBAL.get_or_init(|| {
            let from_env = std::env::var("TTSNN_NUM_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0);
            let threads = from_env.unwrap_or_else(|| {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
            });
            Runtime::new(threads)
        })
    }

    /// The runtime the kernels called from this thread run on: the one an
    /// enclosing [`Runtime::install`] scoped, else [`Runtime::global`]. Every
    /// kernel entry point that takes no `&Runtime` reads this once per call.
    pub fn current() -> Runtime {
        INSTALLED.with(|slot| slot.borrow().clone()).unwrap_or_else(|| Runtime::global().clone())
    }

    /// Runs `f` with this runtime as the calling thread's
    /// [`Runtime::current`], so a whole forward / backward written against
    /// the plain kernel entry points runs at this thread count. Scopes nest;
    /// the previous runtime comes back when `f` returns or unwinds. Only the
    /// calling thread is scoped: a thread spawned inside `f` that installs
    /// nothing sees the global runtime.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Runtime>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|slot| *slot.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(INSTALLED.with(|slot| slot.borrow_mut().replace(self.clone())));
        f()
    }

    /// The process-wide one-thread runtime: what a kernel that has already
    /// forked over samples hands to the kernels it calls per sample.
    /// Shared, because a [`Runtime`] owns a heap allocation and those
    /// kernels run a thousand times a training step.
    pub fn serial() -> &'static Runtime {
        SERIAL.get_or_init(|| Runtime::new(1))
    }

    /// Number of worker threads parallel regions may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// What this runtime's pool has done so far (all zero until its first
    /// forked region starts the pool).
    pub fn stats(&self) -> PoolStats {
        self.pool.get().map_or_else(PoolStats::default, |pool| pool.shared.lock().stats)
    }

    /// The pool, spawning its `threads - 1` workers on first use (the
    /// calling thread is the remaining worker of every region).
    fn pool(&self) -> &Pool {
        self.pool.get_or_init(|| Pool::new(self.threads - 1))
    }

    /// Executes `f(0)`, `f(1)`, …, `f(tasks - 1)` across the pool, each
    /// index exactly once, returning when all are done. Index 0 runs on the
    /// calling thread, which then executes further queued tasks while it
    /// waits. Panics from any index are re-raised here after the region
    /// drains.
    fn run_region(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks <= 1 {
            if tasks == 1 {
                f(0);
            }
            return;
        }
        let shared = Arc::clone(&self.pool().shared);
        let (forked, lanes) = (tasks - 1, pinned());
        let latch = Latch { remaining: AtomicUsize::new(forked), panic: Mutex::new(None) };
        // Thin pointer to the fat `&dyn` reference on this stack frame.
        let fref: &(dyn Fn(usize) + Sync) = f;
        let data = std::ptr::addr_of!(fref) as *const ();
        unsafe fn thunk(data: *const (), index: usize) {
            // SAFETY: `data` was produced from `&fref` above and `fref`
            // outlives the region (the caller waits on the latch).
            let fref: &(dyn Fn(usize) + Sync) =
                unsafe { *(data as *const &(dyn Fn(usize) + Sync)) };
            fref(index);
        }
        {
            let mut injector = shared.lock();
            injector.stats.regions += 1;
            injector.stats.forked_tasks += forked as u64;
            for index in 1..tasks {
                injector.tasks.push_back(Task { data, run: thunk, index, latch: &latch, lanes });
            }
            shared.pending.store(injector.tasks.len(), Ordering::Relaxed);
            // Spinning workers find the tasks by polling; only sleepers
            // need the futex, and no more of them than there are tasks.
            if injector.parked_workers > forked {
                (0..forked).for_each(|_| shared.work_cv.notify_one());
            } else if injector.parked_workers > 0 {
                shared.work_cv.notify_all();
            }
        }
        // The caller is worker 0. Catch its panic so the region still
        // drains before unwinding past the borrowed closure.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(0))) {
            latch.record_panic(payload);
        }
        // Help until every enqueued task has finished: prefer our own most
        // recently pushed work (back of the queue); with the queue empty,
        // spin on the latch, then park. Executing other regions' tasks here
        // is what makes nested regions deadlock-free.
        let done = || latch.remaining.load(Ordering::Acquire) == 0;
        while !done() {
            if let Some(task) = shared.pop(End::Back) {
                task.execute(&shared);
            } else if !spin_until(|| done() || shared.pending.load(Ordering::Relaxed) > 0) {
                let mut injector = shared.lock();
                shared.parked_owners.fetch_add(1, Ordering::SeqCst);
                while latch.remaining.load(Ordering::SeqCst) != 0 && injector.tasks.is_empty() {
                    injector.stats.parks += 1;
                    injector = shared.done_cv.wait(injector).expect("pool queue lock");
                }
                shared.parked_owners.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let payload = latch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Runs `f(start, end)` over a partition of `0..n` into at most
    /// `threads` contiguous ranges. `min_chunk` is the smallest range worth
    /// forking for: with `n <= min_chunk` (or one thread) everything runs
    /// inline on the caller's thread.
    ///
    /// The partition never affects *what* each index computes, so callers
    /// that keep per-index work self-contained get thread-count-independent
    /// results for free.
    pub fn parallel_for(&self, n: usize, min_chunk: usize, f: impl Fn(usize, usize) + Sync) {
        if n == 0 {
            return;
        }
        let workers = self.threads.min(n.div_ceil(min_chunk.max(1))).max(1);
        if workers == 1 {
            f(0, n);
            return;
        }
        let chunk = n.div_ceil(workers);
        let tasks = n.div_ceil(chunk);
        self.run_region(tasks, &|w| {
            let start = w * chunk;
            let end = ((w + 1) * chunk).min(n);
            if start < end {
                f(start, end);
            }
        });
    }

    /// Splits `data` into `n = data.len() / slab` equal slabs and hands each
    /// worker one disjoint contiguous **run** of slabs:
    /// `f(first_slab_index, run)` with `run.len()` a multiple of `slab`.
    /// This is the mutable-output counterpart of [`Runtime::parallel_for`] —
    /// kernels tile freely within their run.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `slab` (with `slab > 0`).
    pub fn parallel_over_ranges<T: Send>(
        &self,
        data: &mut [T],
        slab: usize,
        min_slabs: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        if data.is_empty() {
            return;
        }
        assert!(slab > 0 && data.len().is_multiple_of(slab), "parallel_over_ranges: uneven slabs");
        let n = data.len() / slab;
        let workers = self.threads.min(n.div_ceil(min_slabs.max(1))).max(1);
        if workers == 1 {
            f(0, data);
            return;
        }
        // Pre-split the output into one disjoint run per task; each task
        // takes its run through the (uncontended) mutex exactly once.
        let chunk = n.div_ceil(workers);
        let mut runs: Vec<SliceRun<'_, T>> = Vec::with_capacity(workers);
        let mut rest = data;
        let mut next = 0usize;
        while next < n {
            let take = chunk.min(n - next);
            let (head, tail) = rest.split_at_mut(take * slab);
            rest = tail;
            runs.push(Mutex::new(Some((next, head))));
            next += take;
        }
        let fref = &f;
        let runs_ref = &runs;
        self.run_region(runs.len(), &|i| {
            let (base, run) =
                runs_ref[i].lock().unwrap().take().expect("pool ran a region task twice");
            fref(base, run);
        });
    }

    /// Per-slab convenience over [`Runtime::parallel_over_ranges`]:
    /// `f(slab_index, slab)` for every slab, parallel across workers.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `slab` (with `slab > 0`).
    pub fn parallel_over_slabs<T: Send>(
        &self,
        data: &mut [T],
        slab: usize,
        min_slabs: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        self.parallel_over_ranges(data, slab, min_slabs, |base, run| {
            for (i, s) in run.chunks_mut(slab).enumerate() {
                f(base + i, s);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn new_clamps_to_one() {
        assert_eq!(Runtime::new(0).threads(), 1);
        assert_eq!(Runtime::new(3).threads(), 3);
    }

    #[test]
    fn global_is_positive_and_stable() {
        let a = Runtime::global().threads();
        assert!(a >= 1);
        assert_eq!(Runtime::global().threads(), a);
    }

    /// Whether two handles share one pool.
    fn same(a: &Runtime, b: &Runtime) -> bool {
        Arc::ptr_eq(&a.pool, &b.pool)
    }

    #[test]
    fn install_scopes_nest_and_restore_the_outer_runtime() {
        let (outer, inner) = (Runtime::new(3), Runtime::new(5));
        assert!(same(&Runtime::current(), Runtime::global()));
        let got = outer.install(|| {
            assert!(same(&Runtime::current(), &outer));
            inner.install(|| assert!(same(&Runtime::current(), &inner)));
            assert!(same(&Runtime::current(), &outer), "the inner scope restores the outer");
            7
        });
        assert_eq!(got, 7);
        assert!(same(&Runtime::current(), Runtime::global()));
    }

    #[test]
    fn install_restores_the_previous_runtime_when_the_scope_panics() {
        let (outer, inner) = (Runtime::new(3), Runtime::new(5));
        outer.install(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| inner.install(|| panic!("inside"))));
            assert!(caught.is_err());
            assert!(same(&Runtime::current(), &outer));
        });
        assert!(same(&Runtime::current(), Runtime::global()));
    }

    #[test]
    fn a_thread_spawned_inside_a_scope_sees_the_global_runtime() {
        let scoped = Runtime::new(3);
        scoped.install(|| {
            let seen = std::thread::scope(|s| s.spawn(Runtime::current).join().expect("join"));
            assert!(same(&seen, Runtime::global()));
            assert!(same(&Runtime::current(), &scoped));
        });
    }

    #[test]
    fn parallel_for_covers_range_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 7, 64, 65] {
                let rt = Runtime::new(threads);
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                rt.parallel_for(n, 1, |start, end| {
                    for h in &hits[start..end] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn parallel_for_respects_min_chunk_inline() {
        // n <= min_chunk must run inline: observable as exactly one range.
        let ranges = std::sync::Mutex::new(Vec::new());
        Runtime::new(8).parallel_for(10, 16, |s, e| ranges.lock().unwrap().push((s, e)));
        assert_eq!(*ranges.lock().unwrap(), vec![(0, 10)]);
    }

    #[test]
    fn parallel_over_slabs_writes_disjoint() {
        for threads in [1usize, 2, 5] {
            let mut data = vec![0u32; 12 * 4];
            Runtime::new(threads).parallel_over_slabs(&mut data, 4, 1, |i, slab| {
                for v in slab.iter_mut() {
                    *v = i as u32 + 1;
                }
            });
            for (i, chunk) in data.chunks(4).enumerate() {
                assert!(chunk.iter().all(|&v| v == i as u32 + 1), "threads={threads} slab={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "uneven")]
    fn parallel_over_slabs_rejects_uneven() {
        let mut data = vec![0u32; 10];
        Runtime::new(2).parallel_over_slabs(&mut data, 4, 1, |_, _| {});
    }

    #[test]
    fn workers_persist_across_regions() {
        // The same pool (hence the same worker threads) serves every region
        // of a runtime: run many tiny regions and record which threads
        // participated — the set must stay bounded by the pool size, not
        // grow per region the way spawn-per-region would.
        let rt = Runtime::new(3);
        let names = std::sync::Mutex::new(std::collections::HashSet::new());
        for _ in 0..50 {
            rt.parallel_for(3, 1, |_, _| {
                names.lock().unwrap().insert(format!("{:?}", std::thread::current().id()));
            });
        }
        let seen = names.lock().unwrap().len();
        assert!(seen <= 3, "50 regions used {seen} distinct threads; workers are not persistent");
    }

    #[test]
    fn panic_in_region_propagates_and_pool_survives() {
        // (threads, ranges): every worker busy, then one worker taking the
        // panicking range while its sibling has nothing to do but spin.
        for (threads, ranges) in [(4usize, 8usize), (3, 2)] {
            let rt = Runtime::new(threads);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                rt.parallel_for(ranges, 1, |start, _| {
                    if start >= ranges / 2 {
                        panic!("worker range {start} exploded");
                    }
                });
            }));
            let payload = result.expect_err("panic must cross the region boundary");
            let msg = payload.downcast_ref::<String>().expect("panic payload");
            assert!(msg.contains("exploded"), "unexpected payload: {msg}");
            // The pool is intact: the next region completes normally.
            let hits = AtomicUsize::new(0);
            rt.parallel_for(16, 1, |start, end| {
                hits.fetch_add(end - start, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 16, "threads={threads}");
        }
    }

    #[test]
    fn panic_on_caller_range_still_drains_region() {
        // Range 0 runs on the caller; its panic must not unwind before the
        // spawned tasks finish (they borrow the closure), and must still
        // reach the caller afterwards.
        let rt = Runtime::new(2);
        let others = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.parallel_for(2, 1, |start, end| {
                if start == 0 {
                    panic!("caller range exploded");
                }
                others.fetch_add(end - start, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        assert_eq!(others.load(Ordering::Relaxed), 1, "sibling task must have completed");
    }

    #[test]
    fn nested_regions_complete() {
        // A worker that opens a region of its own helps from the shared
        // queue while waiting, so nesting cannot deadlock even when the
        // outer region occupies every worker.
        let rt = Runtime::new(4);
        let total = AtomicUsize::new(0);
        rt.parallel_for(4, 1, |outer_start, outer_end| {
            for _ in outer_start..outer_end {
                rt.parallel_for(8, 1, |s, e| {
                    total.fetch_add(e - s, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned after a minute: a lost wake-up shows as a hang, not as a
    /// wrong answer.
    fn within_a_minute(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        if finished.recv_timeout(Duration::from_secs(60)).is_err() && !runner.is_finished() {
            panic!("{what}: still running after 60 s (lost wake-up?)");
        }
        runner.join().expect("watched closure panicked");
    }

    fn busy_wait(gap: Duration) {
        let start = Instant::now();
        while start.elapsed() < gap {
            std::thread::yield_now();
        }
    }

    /// Blocks until some thread of `rt`'s pool has parked since `before` —
    /// a snapshot from before the region whose workers are to park: one
    /// taken after it can already include that park (a descheduled caller is
    /// enough), and then waits for one that never comes.
    fn wait_for_park(rt: &Runtime, before: &PoolStats) {
        while rt.stats().since(before).parks == 0 {
            std::thread::sleep(SPIN_BUDGET);
        }
    }

    /// One region of `n` single-index ranges on `rt`, asserting every
    /// index ran exactly once.
    fn exactly_once(rt: &Runtime, n: usize, what: &str) {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(n, 1, |start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{what}");
    }

    /// One two-task region on `rt` whose second task must run on the pool
    /// worker (the caller holds the first until it has): the lane set that
    /// task saw pinned.
    fn pinned_on_the_worker(rt: &Runtime) -> Option<Lanes> {
        let (ran, seen) = (AtomicBool::new(false), Mutex::new(None));
        rt.run_region(2, &|index| {
            if index == 0 {
                while !ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            } else {
                *seen.lock().unwrap() = Some(pinned());
                ran.store(true, Ordering::Release);
            }
        });
        seen.into_inner().unwrap().expect("the second task ran")
    }

    #[test]
    fn region_tasks_run_on_their_callers_pinned_lanes() {
        within_a_minute("pinned lanes on a worker", || {
            let rt = Runtime::new(2);
            let portable = Lanes::portable();
            let pinned = crate::runtime::with_lanes(portable, || pinned_on_the_worker(&rt));
            assert_eq!(pinned, Some(portable), "the caller's pin reaches the worker");
            assert_eq!(pinned_on_the_worker(&rt), None, "and is gone after its task");
        });
    }

    #[test]
    fn every_index_runs_once_from_running_spinning_and_parked_workers() {
        within_a_minute("regions at 0 / 50 us / parked spacing", || {
            for threads in [2usize, 3] {
                let rt = Runtime::new(threads);
                // Back to back: workers are still running the last region
                // or have only just gone back to polling.
                for _ in 0..500 {
                    exactly_once(&rt, 2 * threads, "running");
                }
                // Well inside the budget: workers are spinning.
                for _ in 0..200 {
                    busy_wait(SPIN_BUDGET / 4);
                    exactly_once(&rt, 2 * threads, "spinning");
                }
                // Past the budget: the region has to wake a parked worker.
                let mut before = rt.stats();
                exactly_once(&rt, 2 * threads, "spinning");
                for _ in 0..20 {
                    wait_for_park(&rt, &before);
                    before = rt.stats();
                    exactly_once(&rt, 2 * threads, "parked");
                }
                let stats = rt.stats();
                assert_eq!(stats.regions, 721, "threads={threads}");
                // `threads` ranges a region, the first on the caller.
                assert_eq!(stats.forked_tasks, 721 * (threads as u64 - 1));
                assert!(stats.handoffs <= stats.forked_tasks);
            }
        });
    }

    #[test]
    fn two_callers_and_nested_regions_share_one_pool() {
        within_a_minute("concurrent callers with nested regions", || {
            let rt = Runtime::new(3);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..300 {
                            let total = AtomicUsize::new(0);
                            rt.parallel_for(3, 1, |outer_start, outer_end| {
                                for _ in outer_start..outer_end {
                                    rt.parallel_for(4, 1, |s, e| {
                                        total.fetch_add(e - s, Ordering::Relaxed);
                                    });
                                }
                            });
                            assert_eq!(total.load(Ordering::Relaxed), 12);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn no_wakeup_is_lost_across_1e5_regions() {
        // Most regions arrive back to back; every 64th arrives after a
        // pause that sweeps across the spin budget, so pushes land while a
        // worker is spinning, deciding to park, parked, and waking.
        within_a_minute("1e5 regions", || {
            let rt = Runtime::new(3);
            let ran = AtomicUsize::new(0);
            for i in 0..100_000usize {
                if i % 64 == 0 {
                    busy_wait(SPIN_BUDGET * (3 + (i / 64 % 5) as u32) / 4);
                }
                rt.parallel_for(3, 1, |s, e| {
                    ran.fetch_add(e - s, Ordering::Relaxed);
                });
            }
            assert_eq!(ran.load(Ordering::Relaxed), 300_000);
            assert_eq!(rt.stats().regions, 100_000);
        });
    }

    #[test]
    fn drop_joins_workers() {
        // Dropping the last clone of a runtime shuts the pool down; the
        // worker threads exit rather than leak. Observable as: the drop
        // returns, and a fresh runtime after it still works (no poisoned
        // global state).
        within_a_minute("drop with workers spinning, then parked", || {
            let rt = Runtime::new(4);
            rt.parallel_for(8, 1, |_, _| {});
            let clone = rt.clone();
            drop(rt);
            // The clone still owns the pool.
            exactly_once(&clone, 8, "clone after drop");
            drop(clone); // joins here, microseconds after a region: mid-spin
            let parked = Runtime::new(4);
            let before = parked.stats();
            parked.parallel_for(8, 1, |_, _| {});
            wait_for_park(&parked, &before);
            drop(parked);
            let fresh = Runtime::new(2);
            fresh.parallel_for(4, 1, |_, _| {});
        });
    }

    #[test]
    fn serial_runtime_is_shared_and_never_starts_a_pool() {
        assert_eq!(Runtime::serial().threads(), 1);
        Runtime::serial().parallel_for(64, 1, |_, _| {});
        assert_eq!(Runtime::serial().stats(), PoolStats::default());
        assert!(std::ptr::eq(Runtime::serial(), Runtime::serial()));
    }
}
