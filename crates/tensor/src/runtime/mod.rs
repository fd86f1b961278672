//! The parallel kernel runtime: a persistent channel-fed worker pool, a
//! blocked multi-threaded GEMM family, and per-thread scratch arenas.
//!
//! Every matmul/conv hot path in the workspace routes through this module.
//! Three pieces compose:
//!
//! * [`Runtime`] — a std-only fork/join helper over long-lived
//!   worker threads, sized from
//!   [`std::thread::available_parallelism`], overridable with the
//!   `TTSNN_NUM_THREADS` environment variable. Work is split into
//!   contiguous index ranges and pushed onto a shared injector queue;
//!   workers are spawned once per runtime (lazily) and between regions
//!   spin — yielding — for a moment before they park, so dispatching a
//!   region costs a queue push instead of a thread spawn or a wake-up.
//!   Closures still borrow from the caller's stack: the region does not
//!   return until every task has completed. Kernels that take no
//!   `&Runtime` run on [`Runtime::current`]: the global runtime, or the
//!   one the caller scoped with [`Runtime::install`].
//! * [`gemm`](self::gemm())/[`gemm_at_b`]/[`gemm_a_bt`]
//!   — register-tiled, cache-blocked matrix kernels parallelized over
//!   disjoint output row ranges, written once over the crate's
//!   (element, accumulator) trait so the int8 products
//!   ([`crate::qkernels`]) are the same bodies. The transpose variants take
//!   `A`ᵀ or `B`ᵀ as stored, eliminating the explicit `.transpose()`
//!   copies the autograd backward passes used to make (any transpose
//!   staging a kernel still wants internally lives in arena scratch). Their
//!   tile runs on the [`Lanes`] the process resolved once ([`lanes()`]:
//!   explicit AVX2 where the CPU has it), as the int8 kernels do.
//! * [`with_scratch`] and `Tensor::scratch` / `Tensor::recycle` — the
//!   per-thread arena every temporary comes from and goes back to:
//!   borrowed scratch of any element type (im2col / col2im, integer and
//!   event-list scratch) on LIFO stacks, checked-out activation buffers
//!   in size-classed free lists, one 64 MiB parked-bytes budget over
//!   both ([`scratch_bytes`] reads it).
//!
//! # Determinism
//!
//! Each output element is computed entirely by one task, with a summation
//! order that does not depend on how the index space was split. Results are
//! therefore **bit-identical across thread counts** — a property the
//! tensor crate's tests assert for 1–8 threads.
//!
//! ```
//! use ttsnn_tensor::runtime::{self, Runtime};
//!
//! let a = vec![1.0f32; 6]; // 2x3
//! let b = vec![2.0f32; 12]; // 3x4
//! let mut out = vec![0.0f32; 8]; // 2x4
//! runtime::gemm(Runtime::global(), &a, &b, &mut out, 2, 3, 4);
//! assert_eq!(out, vec![6.0f32; 8]);
//! ```
//!
//! # What stays inside the crate
//!
//! How big a forked range is (`fork_grain`) is decided by this crate's
//! kernels, and the arena's escaping buffers (`take_buffer` /
//! `recycle_buffer`) are paired by `Tensor::scratch` / `Tensor::recycle`
//! alone: none of the three is public. A caller outside the crate sizes
//! nothing and borrows its scratch:
//!
//! ```
//! use ttsnn_tensor::runtime;
//! let _ = runtime::scratch_bytes();
//! let _ = runtime::with_scratch(4, |b: &mut [f32]| b.len());
//! ```
//!
//! ```compile_fail,E0603
//! use ttsnn_tensor::runtime;
//! let _ = runtime::fork_grain(4);
//! let _ = runtime::with_scratch(4, |b: &mut [f32]| b.len());
//! ```
//!
//! ```compile_fail,E0603
//! use ttsnn_tensor::runtime;
//! let _ = runtime::scratch_bytes();
//! runtime::recycle_buffer(runtime::take_buffer::<f32>(4));
//! ```

mod arena;
mod gemm;
#[allow(unsafe_code)]
mod lanes;
#[allow(unsafe_code)]
mod pool;

pub(crate) use arena::{recycle_buffer, take_buffer};
pub use arena::{scratch_bytes, scratch_depth, with_scratch, with_scratch_zeroed, Scratch};
pub(crate) use gemm::{dot_gemm, dot_row, saxpy_gemm, with_gemm_samples, Mac, F32};
pub use gemm::{gemm, gemm_a_bt, gemm_at_b, reference_gemm};
pub use lanes::{lanes, with_lanes, Lanes};
pub(crate) use pool::fork_grain;
pub use pool::{PoolStats, Runtime};
