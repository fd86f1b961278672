//! Per-thread scratch arenas: one closed loop for every temporary buffer
//! of the kernels, the inference plane and the training tape.
//!
//! Two kinds of buffer live here, per thread and per element type, and
//! they never draw on each other:
//!
//! * **Borrowed** scratch — [`with_scratch`] lends a buffer for the
//!   duration of a closure (im2col / col2im unfoldings, the GEMM's
//!   transpose staging, the integer and event-list scratch of the int8 and
//!   sparse kernels). Each element type keeps one LIFO stack: nesting
//!   level *d* always gets the *d*-th buffer back, which grows to the
//!   largest request that level has seen and then stops allocating. A
//!   request whose size depends on the data (an event count) therefore
//!   never adds a buffer.
//! * **Checked-out** buffers — `take_buffer` / `recycle_buffer`, reached
//!   through `Tensor::scratch` / `Tensor::recycle` — escape the call and
//!   back long-lived values (activations, LIF membranes, packed spike
//!   words). They park in **size-classed free lists**: class `k` holds
//!   capacities in `[2^k, 2^(k+1))`, and a request for `len` elements is
//!   served best-fit from the two classes a capacity in `len..=2·len` can
//!   sit in. Whatever is handed out therefore satisfies
//!   `len ≤ capacity ≤ 2 × len`; a miss allocates exactly `len`. A 40-byte
//!   logits request can no longer walk off with the largest activation
//!   buffer of the net.
//!
//! Keeping the kinds apart is what lets the training tape — which holds
//! every op output of a step checked out until the step's graph is
//! dropped, and only then hands them back — run beside the im2col scratch
//! without draining it.
//!
//! # Budget
//!
//! Everything parked on a thread, all kinds and element types together,
//! is capped at [`MAX_KEEP`] bytes. A buffer that would exceed the cap is
//! dropped instead of parked, so a caller that recycles more than it takes
//! costs allocations, never memory. The cap is a constant, not a knob: it
//! bounds *idle* memory only, a serving replica's working set is a few
//! megabytes, and two callers that need different values do not exist.
//!
//! Once every buffer a loop needs is parked, the loop stops allocating;
//! the first pass through a new shape (or a new nesting level) still pays
//! for its buffers. Buffers come back **uninitialized** (contents are
//! whatever the previous user left); callers that need zeros use
//! [`with_scratch_zeroed`] / `Tensor::scratch_zeroed`.

use std::any::Any;
use std::cell::RefCell;

/// Per-thread budget, in bytes, for buffers parked in the arena (borrowed
/// stacks and checked-out free lists of every element type together). A
/// buffer that would push the parked total past it is dropped.
const MAX_KEEP: usize = 64 * 1024 * 1024;

/// Element types the arena can hand out: plain values with a default to
/// fill fresh memory with.
pub trait Scratch: Copy + Default + 'static {}

impl<T: Copy + Default + 'static> Scratch for T {}

/// One element type's parked buffers on one thread.
struct Pool<T> {
    /// [`with_scratch`]'s LIFO stack (top = next nesting level).
    borrowed: Vec<Vec<T>>,
    /// Checked-out buffers' free lists; index = `⌊log2 capacity⌋`.
    classes: Vec<Vec<Vec<T>>>,
}

/// One thread's arena: a pool per element type seen so far, found by
/// downcast, plus the totals the budget and the diagnostics read.
#[derive(Default)]
struct Arena {
    pools: Vec<Box<dyn Any>>,
    parked: usize,
    parked_bytes: usize,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

fn bytes_of<T>(buf: &Vec<T>) -> usize {
    buf.capacity().saturating_mul(std::mem::size_of::<T>())
}

impl Arena {
    fn pool<T: Scratch>(&mut self) -> &mut Pool<T> {
        let at = match self.pools.iter().position(|p| p.is::<Pool<T>>()) {
            Some(at) => at,
            None => {
                self.pools.push(Box::new(Pool::<T> { borrowed: Vec::new(), classes: Vec::new() }));
                self.pools.len() - 1
            }
        };
        self.pools[at].downcast_mut().expect("pool found by its own type")
    }

    fn unpark<T>(&mut self, buf: Vec<T>) -> Vec<T> {
        self.parked -= 1;
        self.parked_bytes -= bytes_of(&buf);
        buf
    }

    /// Reserves room for `buf` under the budget; `false` means drop it.
    fn admit<T>(&mut self, buf: &Vec<T>) -> bool {
        let bytes = bytes_of(buf);
        if buf.capacity() == 0 || self.parked_bytes.saturating_add(bytes) > MAX_KEEP {
            return false;
        }
        self.parked += 1;
        self.parked_bytes += bytes;
        true
    }

    fn pop_borrowed<T: Scratch>(&mut self) -> Option<Vec<T>> {
        let buf = self.pool::<T>().borrowed.pop()?;
        Some(self.unpark(buf))
    }

    fn push_borrowed<T: Scratch>(&mut self, buf: Vec<T>) {
        if self.admit(&buf) {
            self.pool::<T>().borrowed.push(buf);
        }
    }

    /// Best fit for `len`: the smallest parked capacity in `len..=2 * len`
    /// (its own size class, then the next one up).
    fn pop_class<T: Scratch>(&mut self, len: usize) -> Option<Vec<T>> {
        let class = len.checked_ilog2()? as usize;
        let classes = &mut self.pool::<T>().classes;
        let (list, at) = (class..=class + 1).find_map(|c| {
            let caps = classes.get(c)?.iter().map(Vec::capacity).enumerate();
            let fit =
                caps.filter(|(_, cap)| (len..=2 * len).contains(cap)).min_by_key(|&(_, cap)| cap);
            Some((c, fit?.0))
        })?;
        let buf = classes[list].swap_remove(at);
        Some(self.unpark(buf))
    }

    fn push_class<T: Scratch>(&mut self, buf: Vec<T>) {
        if self.admit(&buf) {
            let class = buf.capacity().ilog2() as usize;
            let classes = &mut self.pool::<T>().classes;
            if classes.len() <= class {
                classes.resize_with(class + 1, Vec::new);
            }
            classes[class].push(buf);
        }
    }
}

/// Runs `f` on this thread's arena; `None` once the thread is tearing its
/// locals down (a recycle from a destructor then just drops the buffer).
fn arena<R>(f: impl FnOnce(&mut Arena) -> R) -> Option<R> {
    ARENA.try_with(|a| f(&mut a.borrow_mut())).ok()
}

/// Runs `f` with a recycled thread-local buffer of exactly `len` elements
/// of any [`Scratch`] type. Contents are **unspecified** on entry. Calls
/// nest: each nested call gets a buffer of its own.
pub fn with_scratch<T: Scratch, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    let mut buf = arena(|a| a.pop_borrowed::<T>()).flatten().unwrap_or_default();
    if buf.capacity() < len {
        // Too small: a fresh buffer, not a `resize` that would copy the
        // stale contents across the reallocation.
        buf = vec![T::default(); len];
    } else if buf.len() < len {
        buf.resize(len, T::default());
    }
    let result = f(&mut buf[..len]);
    arena(|a| a.push_borrowed(buf));
    result
}

/// Like [`with_scratch`] but the buffer is zero-filled (`T::default()`)
/// on entry.
pub fn with_scratch_zeroed<T: Scratch, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    with_scratch(len, |buf: &mut [T]| {
        buf.fill(T::default());
        f(buf)
    })
}

/// Checks a buffer of exactly `len` elements **out** of this thread's
/// arena, with `len ≤ capacity ≤ 2 × len` (a miss allocates exactly
/// `len`). Contents are **unspecified**.
///
/// Unlike [`with_scratch`] the buffer escapes the call. Hand it back with
/// [`recycle_buffer`] — on any thread — when its owner is done; a buffer
/// that is simply dropped costs the next request an allocation, nothing
/// more.
pub(crate) fn take_buffer<T: Scratch>(len: usize) -> Vec<T> {
    match arena(|a| a.pop_class::<T>(len)).flatten() {
        Some(mut buf) => {
            buf.resize(len, T::default());
            buf
        }
        None => vec![T::default(); len],
    }
}

/// Checks a buffer **in** to the calling thread's arena for a later
/// [`take_buffer`] of its size class. Dropped instead when parking it
/// would exceed the per-thread byte budget.
pub(crate) fn recycle_buffer<T: Scratch>(buf: Vec<T>) {
    arena(|a| a.push_class(buf));
}

/// Number of idle buffers currently parked in this thread's arena, all
/// kinds and element types (diagnostics / tests).
pub fn scratch_depth() -> usize {
    arena(|a| a.parked).unwrap_or(0)
}

/// Bytes of capacity currently parked in this thread's arena — what the
/// thread holds on to between requests, never more than the 64 MiB
/// budget. Serving replicas publish it as `ttsnn_replica_arena_bytes`.
pub fn scratch_bytes() -> usize {
    arena(|a| a.parked_bytes).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scratch_has_requested_length() {
        with_scratch(100, |b: &mut [f32]| assert_eq!(b.len(), 100));
        with_scratch(10, |b: &mut [f32]| assert_eq!(b.len(), 10));
        with_scratch(7, |b: &mut [(u32, u32)]| assert_eq!(b.len(), 7));
    }

    #[test]
    fn zeroed_scratch_is_zero_even_after_reuse() {
        with_scratch(64, |b: &mut [f32]| b.fill(3.5));
        with_scratch_zeroed(64, |b: &mut [f32]| assert!(b.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn borrowed_scratch_keeps_one_buffer_per_nesting_level() {
        // Data-dependent sizes at one nesting level reuse (and grow) that
        // level's buffer; they never add one.
        with_scratch(256, |_: &mut [u32]| {});
        let depth = scratch_depth();
        for len in [10, 5000, 256, 70_000, 1] {
            with_scratch(len, |b: &mut [u32]| assert_eq!(b.len(), len));
            assert_eq!(scratch_depth(), depth);
        }
    }

    #[test]
    fn take_recycle_roundtrip_reuses_buffer() {
        let mut buf = take_buffer::<f32>(128);
        assert_eq!(buf.len(), 128);
        buf.fill(9.0);
        recycle_buffer(buf);
        let depth = scratch_depth();
        // Within a factor of two: popped and cut down, not allocated.
        let again = take_buffer::<f32>(64);
        assert_eq!((again.len(), again.capacity()), (64, 128));
        assert_eq!(scratch_depth(), depth - 1, "take_buffer must pop, not allocate");
        recycle_buffer(again);
        // Anything smaller leaves it parked: capacity never exceeds 2 × len.
        let small = take_buffer::<f32>(63);
        assert_eq!((small.len(), small.capacity()), (63, 63));
        assert_eq!(scratch_depth(), depth);
    }

    #[test]
    fn take_prefers_the_tightest_fit() {
        for cap in [200usize, 130, 255, 300] {
            recycle_buffer(Vec::<f32>::with_capacity(cap));
        }
        assert_eq!(take_buffer::<f32>(129).capacity(), 130);
        assert_eq!(take_buffer::<f32>(129).capacity(), 200);
        assert_eq!(take_buffer::<f32>(201).capacity(), 255);
        assert_eq!(take_buffer::<f32>(140).capacity(), 140, "300 > 2 × 140: allocate");
        assert_eq!(take_buffer::<f32>(150).capacity(), 300, "next class up, within 2 ×");
    }

    #[test]
    fn borrowed_and_checked_out_buffers_do_not_mix() {
        // What the training tape does while a step's graph is alive: take
        // and hold. The borrowed stack must survive it.
        with_scratch(512, |_: &mut [f32]| {});
        let depth = scratch_depth();
        let kept: Vec<Vec<f32>> = (0..4).map(|_| take_buffer(512)).collect();
        assert_eq!(scratch_depth(), depth, "take_buffer drained the borrowed stack");
        drop(kept);
    }

    #[test]
    fn nested_calls_get_distinct_buffers() {
        with_scratch(32, |outer: &mut [f32]| {
            outer.fill(1.0);
            with_scratch(32, |inner: &mut [f32]| {
                inner.fill(2.0);
            });
            assert!(outer.iter().all(|&v| v == 1.0), "nested call clobbered outer buffer");
        });
    }

    #[test]
    fn recycle_over_budget_drops() {
        std::thread::spawn(|| {
            let big = MAX_KEEP / 4 / 2 + 1; // two of these exceed the budget
            recycle_buffer(vec![0.0f32; big]);
            assert_eq!((scratch_depth(), scratch_bytes()), (1, big * 4));
            recycle_buffer(vec![0.0f32; big]);
            assert_eq!((scratch_depth(), scratch_bytes()), (1, big * 4), "second must drop");
            with_scratch(big, |_: &mut [i32]| {});
            assert_eq!(scratch_depth(), 1, "borrowed scratch shares the budget");
            recycle_buffer(vec![0u64; 16]);
            assert_eq!((scratch_depth(), scratch_bytes()), (2, big * 4 + 128));
        })
        .join()
        .unwrap();
    }

    /// One step of a random arena workout.
    #[derive(Debug, Clone)]
    enum Op {
        /// `take_buffer(len)` and keep it.
        Take(usize),
        /// Recycle the held buffer at this index (modulo the count) here.
        Recycle(usize),
        /// Recycle a held buffer on another thread; it must not come back.
        RecycleElsewhere(usize),
        /// Recycle a foreign buffer of this capacity (never from the arena).
        Foreign(usize),
        /// `with_scratch` nested this deep, of these lengths.
        Borrow(Vec<usize>),
    }

    /// Lengths that land in small, mid and large size classes (and 0).
    fn len() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..40, 0usize..5000, 60_000usize..70_000]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            len().prop_map(Op::Take),
            (0usize..64).prop_map(Op::Recycle),
            (0usize..64).prop_map(Op::RecycleElsewhere),
            len().prop_map(Op::Foreign),
            proptest::collection::vec(len(), 1..4).prop_map(Op::Borrow),
        ]
    }

    fn borrow_nested(lens: &[usize]) {
        if let Some((&len, rest)) = lens.split_first() {
            with_scratch(len, |b: &mut [f32]| {
                assert_eq!(b.len(), len);
                b.fill(f32::NAN);
                borrow_nested(rest);
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Length, capacity bound, depth and byte accounting hold over
        /// arbitrary sequences, including buffers that change threads.
        #[test]
        fn arena_invariants_hold(ops in proptest::collection::vec(op(), 1..60)) {
            // A thread of its own: a fresh arena whose contents the test
            // can mirror exactly.
            std::thread::spawn(move || {
                let mut held: Vec<Vec<f32>> = Vec::new();
                let mut borrowed_levels = 0usize;
                let mut parked_owned: Vec<usize> = Vec::new(); // capacities
                for op in ops {
                    match op {
                        Op::Take(len) => {
                            let depth = scratch_depth();
                            let buf = take_buffer::<f32>(len);
                            assert_eq!(buf.len(), len);
                            assert!(buf.capacity() <= 2 * len, "cap {} for len {len}", buf.capacity());
                            if scratch_depth() < depth {
                                let at = parked_owned.iter().position(|&c| c == buf.capacity());
                                parked_owned.swap_remove(at.expect("popped a buffer that was parked"));
                            } else {
                                assert_eq!(buf.capacity(), len, "a miss allocates exactly");
                            }
                            held.push(buf);
                        }
                        Op::Recycle(i) if !held.is_empty() => {
                            let buf = held.swap_remove(i % held.len());
                            if buf.capacity() > 0 {
                                parked_owned.push(buf.capacity());
                            }
                            recycle_buffer(buf);
                        }
                        Op::RecycleElsewhere(i) if !held.is_empty() => {
                            let buf = held.swap_remove(i % held.len());
                            std::thread::spawn(move || {
                                let parks = usize::from(buf.capacity() > 0);
                                recycle_buffer(buf);
                                assert_eq!(scratch_depth(), parks);
                            })
                            .join()
                            .unwrap();
                        }
                        Op::Recycle(_) | Op::RecycleElsewhere(_) => {}
                        Op::Foreign(cap) => {
                            let buf = Vec::<f32>::with_capacity(cap);
                            if buf.capacity() > 0 {
                                parked_owned.push(buf.capacity());
                            }
                            recycle_buffer(buf);
                        }
                        Op::Borrow(lens) => {
                            borrow_nested(&lens);
                            borrowed_levels = borrowed_levels.max(lens.len());
                        }
                    }
                    assert!(scratch_depth() >= parked_owned.len());
                    assert!(scratch_depth() <= parked_owned.len() + borrowed_levels);
                    assert!(scratch_bytes() <= MAX_KEEP);
                    assert!(scratch_bytes() >= parked_owned.iter().sum::<usize>() * 4);
                }
            })
            .join()
            .unwrap();
        }
    }
}
