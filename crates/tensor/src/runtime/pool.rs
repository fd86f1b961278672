//! Persistent channel-fed worker pool.
//!
//! [`Runtime`] owns a set of long-lived worker threads fed from a shared
//! injector queue. A parallel region enqueues one task per index range,
//! runs the first range on the calling thread, then *helps* — executing
//! queued tasks (its own or other regions') while it waits — so nested
//! regions can never deadlock. Dispatching a region costs one mutex-guarded
//! queue push and a condvar wake: hundreds of nanoseconds while the worker
//! is still hot (the caller usually pops its own task back before the
//! worker gets to it), but a futex wake-up each way — tens of microseconds
//! on a virtual CPU — once the worker has parked, which it has whenever
//! the caller ran serial code for longer than a scheduler tick. That is
//! still far below the `std::thread::spawn` per region of the previous
//! scoped fork/join design, and it is the cost [`fork_grain`] sizes the
//! smallest forked range from.
//!
//! Workers are spawned lazily on the first region that wants more than one
//! thread, so `Runtime::new(1)` (the serial runtimes the conv gradients
//! construct per call) never starts a thread. Dropping the last clone of a
//! [`Runtime`] shuts its pool down and joins the workers; the process-wide
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
//! The single `unsafe` surface of the workspace lives here: a region's
//! closure is lent to the queue as a type-erased pointer. This is sound
//! because [`Runtime::run_region`] does not return until the region's
//! latch counts every enqueued task as finished, so the closure (and the
//! latch, which lives in the same stack frame) strictly outlive every
//! dereference — including panic unwinding, which also waits on the latch
//! before resuming.

#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Work, in scalar `f32` operations, below which a range is not worth
/// handing to another thread. A region whose worker has
/// parked costs two wake-ups on its critical path — the worker's, then the
/// caller's once its own half is done — measured at ≈ 45 µs on the 2-vCPU
/// reference container (`train_sharded`'s `pool_region_parked_us`; the hot
/// case its `pool_region_us` reports is under 1 µs and is not what kernels
/// inside a training step or a request see). Two megaflops are ≈ 100 µs of
/// this crate's kernels at ≈ 20 GFLOP/s: a two-way fork then finishes in
/// about 0.7 of the serial time instead of losing to it.
const FORK_WORK: usize = 2 << 20;

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

/// State shared between the pool's workers and region callers.
struct Shared {
    /// Injector queue. Workers pop from the front (oldest region first);
    /// helping callers pop from the back (their own tasks first).
    queue: Mutex<VecDeque<Task>>,
    /// Signalled on task push, region completion, and shutdown.
    work_cv: Condvar,
    /// Set once by [`Pool::drop`]; workers exit when the queue is empty.
    shutdown: AtomicBool,
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
}

// SAFETY: `data` and `latch` point into the stack frame of a caller that
// blocks until `latch.remaining` reaches zero, and the pointee closure is
// `Sync`, so sending the pointers to a worker thread is sound.
unsafe impl Send for Task {}

impl Task {
    /// Runs the task, records any panic in the latch, and counts it done
    /// (waking waiters if it was the region's last task).
    fn execute(self, shared: &Shared) {
        // SAFETY: the region caller waits on the latch before returning,
        // so both pointers are live for the duration of this call.
        let latch = unsafe { &*self.latch };
        let run = self.run;
        let data = self.data;
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { run(data, self.index) }));
        if let Err(payload) = result {
            latch.record_panic(payload);
        }
        if latch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task of the region: wake the region owner. Taking the
            // queue lock orders this notify against the owner's
            // check-then-wait, so the wakeup cannot be lost.
            let _guard = shared.queue.lock().unwrap();
            shared.work_cv.notify_all();
        }
    }
}

/// The persistent workers behind a [`Runtime`] with more than one thread.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` threads parked on the injector queue.
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
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
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.queue.lock().unwrap();
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker main loop: pop oldest task, run it, sleep when idle.
fn worker_loop(shared: &Shared) {
    let mut guard = shared.queue.lock().unwrap();
    loop {
        if let Some(task) = guard.pop_front() {
            drop(guard);
            task.execute(shared);
            guard = shared.queue.lock().unwrap();
        } else if shared.shutdown.load(Ordering::Acquire) {
            return;
        } else {
            guard = shared.work_cv.wait(guard).unwrap();
        }
    }
}

/// Thread-count policy plus the (lazily spawned) persistent worker pool
/// behind every parallel kernel.
///
/// The global instance ([`Runtime::global`]) is sized from
/// `TTSNN_NUM_THREADS` if set (clamped to ≥ 1), otherwise from
/// [`std::thread::available_parallelism`]. Tests construct explicit
/// runtimes with [`Runtime::new`] to pin thread counts; clones share one
/// pool, and dropping the last clone joins its workers.
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

    /// Number of worker threads parallel regions may use.
    pub fn threads(&self) -> usize {
        self.threads
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
        let latch = Latch { remaining: AtomicUsize::new(tasks - 1), panic: Mutex::new(None) };
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
            let mut queue = shared.queue.lock().unwrap();
            for index in 1..tasks {
                queue.push_back(Task { data, run: thunk, index, latch: &latch });
            }
            shared.work_cv.notify_all();
        }
        // The caller is worker 0. Catch its panic so the region still
        // drains before unwinding past the borrowed closure.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(0))) {
            latch.record_panic(payload);
        }
        // Help until every enqueued task has finished: prefer our own most
        // recently pushed work (back of the queue), sleep only when the
        // queue is empty. Executing other regions' tasks here is what makes
        // nested regions deadlock-free.
        let mut queue = shared.queue.lock().unwrap();
        while latch.remaining.load(Ordering::Acquire) != 0 {
            if let Some(task) = queue.pop_back() {
                drop(queue);
                task.execute(&shared);
                queue = shared.queue.lock().unwrap();
            } else {
                queue = shared.work_cv.wait(queue).unwrap();
            }
        }
        drop(queue);
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
        let rt = Runtime::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.parallel_for(8, 1, |start, _| {
                if start >= 4 {
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
        assert_eq!(hits.load(Ordering::Relaxed), 16);
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

    #[test]
    fn drop_joins_workers() {
        // Dropping the last clone of a runtime shuts the pool down; the
        // worker threads exit rather than leak. Observable as: a fresh
        // runtime after the drop still works (no poisoned global state).
        let rt = Runtime::new(4);
        rt.parallel_for(8, 1, |_, _| {});
        let clone = rt.clone();
        drop(rt);
        // The clone still owns the pool.
        let hits = AtomicUsize::new(0);
        clone.parallel_for(8, 1, |s, e| {
            hits.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        drop(clone); // joins here
        let fresh = Runtime::new(2);
        fresh.parallel_for(4, 1, |_, _| {});
    }
}
