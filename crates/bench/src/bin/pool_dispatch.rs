//! What the persistent pool's region handoff costs: the two measurements
//! `runtime`'s `FORK_WORK` and `SPIN_BUDGET` are sized from.
//!
//! Criterion-free. Microseconds per two-thread parallel region on a
//! two-thread [`Runtime`], recorded as `pool_dispatch` into
//! `BENCH_pool_dispatch.json` in the working directory: ranges of real work
//! handed to a worker that is still spinning (`pool_region_handoff_*`, what
//! the fork grain is sized from), and the same with the worker parked
//! (`pool_region_parked_us`, what its spin budget is sized from). The
//! empty-range region is the benchmark's `tensor.pool_region_us`.
//!
//! ```sh
//! cargo run -p ttsnn-bench --release --bin pool_dispatch
//! ```

use std::time::Instant;

use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_tensor::runtime::Runtime;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn timed_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// `spin` additions per index of `start..end`: the unit of work of the two
/// probes below.
fn spin_work(spin: usize, start: usize, end: usize) {
    let mut acc = 0usize;
    for i in start * spin..end * spin {
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(acc);
}

/// What [`handoff_region`] measured.
struct Handoff {
    /// Median microseconds of the two-range region.
    region_us: f64,
    /// Median microseconds of the same two ranges run inline.
    serial_us: f64,
    /// Share of second ranges a pool worker ran (the rest the caller
    /// popped back itself).
    on_worker_share: f64,
}

/// Opens two-range regions on `rt` until its worker takes at least nine in
/// ten of a block's second ranges (or three seconds pass). A freshly
/// spawned worker starts on its spawner's core and this kernel's load
/// balancer takes up to a second to move it; until then the caller pops
/// nearly every range back itself and a region costs its serial time, which
/// is a property of thread start-up, not of the handoff the probes below
/// are after.
fn settle(rt: &Runtime) {
    let body = |start: usize, end: usize| spin_work(5_000, start, end);
    let begin = Instant::now();
    while begin.elapsed() < std::time::Duration::from_secs(3) {
        let before = rt.stats();
        (0..1000).for_each(|_| rt.parallel_for(2, 1, body));
        let pool = rt.stats().since(&before);
        if pool.handoffs * 10 >= pool.forked_tasks * 9 {
            return;
        }
    }
}

/// A two-range region of real, equal work — `half_us` microseconds a range —
/// opened back to back, the way kernels inside a training step open them:
/// the worker is still spinning from the last region when the next arrives,
/// so this is the **hot handoff** `runtime`'s fork grain is sized from.
/// (Empty ranges measure something else: the caller pops most of them back
/// before any worker sees them.)
fn handoff_region(rt: &Runtime, half_us: f64) -> Handoff {
    const REGIONS: usize = 2000;
    // Calibrate on the loop that is timed below: two ranges, run inline.
    let trial = std::hint::black_box(10_000);
    let per_add_us = median((0..200).map(|_| timed_us(|| spin_work(trial, 0, 2))).collect())
        / (2 * trial) as f64;
    let spin = (half_us / per_add_us) as usize;
    let body = |start: usize, end: usize| spin_work(spin, start, end);
    let serial_us = median((0..REGIONS).map(|_| timed_us(|| body(0, 2))).collect());
    // The worker parked during the serial pass: wake it before timing.
    (0..100).for_each(|_| rt.parallel_for(2, 1, body));
    let before = rt.stats();
    let region_us =
        median((0..REGIONS).map(|_| timed_us(|| rt.parallel_for(2, 1, body))).collect());
    let pool = rt.stats().since(&before);
    Handoff {
        region_us,
        serial_us,
        on_worker_share: pool.handoffs as f64 / pool.forked_tasks as f64,
    }
}

/// Microseconds a two-worker region costs over its ideal when the worker
/// has **parked** between regions — what a kernel pays when the caller ran
/// serial code for longer than the pool's spin budget since its last fork.
/// Each half of the region is a fixed spin of a few tens of microseconds
/// (longer than the wake-up, so the caller cannot finish and take the
/// worker's half back before it arrives); between timed regions the caller
/// spins, well past the budget, until the worker has blocked on the pool's
/// condvar. Reported: median region time minus one half's inline time, i.e.
/// what the fork added to the critical path. `runtime`'s spin budget is
/// sized from this number.
fn parked_region_us(rt: &Runtime) -> f64 {
    const SPIN: usize = 40_000;
    let body = |start: usize, end: usize| spin_work(SPIN, start, end);
    rt.parallel_for(2, 1, body);
    let half = median((0..200).map(|_| timed_us(|| body(0, 1))).collect());
    let region = median(
        (0..200)
            .map(|_| {
                // Spin, not sleep: only the worker may go idle.
                let idle = Instant::now();
                while idle.elapsed() < std::time::Duration::from_micros(1000) {
                    std::hint::spin_loop();
                }
                timed_us(|| rt.parallel_for(2, 1, body))
            })
            .collect(),
    );
    region - half
}

fn main() {
    let rt = Runtime::new(2);
    settle(&rt);
    let handoff = handoff_region(&rt, 12.0);
    let small = handoff_region(&rt, 2.5);
    let parked_us = parked_region_us(&rt);
    println!("persistent pool, two-range regions");
    for (label, h) in [("  2 x 12 us, worker hot", &handoff), ("  2 x 2.5 us, worker hot", &small)]
    {
        println!(
            "{:<24} {:>12.2} us/region vs {:.2} serial ({:.2}x), {:.2} of second ranges on the worker",
            label,
            h.region_us,
            h.serial_us,
            h.region_us / h.serial_us,
            h.on_worker_share
        );
    }
    println!("{:<24} {:>12.2} us/region over its ideal", "  worker parked", parked_us);

    let records = vec![BenchRecord {
        name: "pool_dispatch".into(),
        metrics: vec![
            ("pool_region_handoff_us".into(), handoff.region_us),
            ("pool_region_handoff_serial_us".into(), handoff.serial_us),
            ("pool_region_handoff_on_worker_share".into(), handoff.on_worker_share),
            ("pool_region_handoff_small_us".into(), small.region_us),
            ("pool_region_handoff_small_serial_us".into(), small.serial_us),
            ("pool_region_parked_us".into(), parked_us),
        ],
    }];
    let path = "BENCH_pool_dispatch.json";
    write_json(path, &records).expect("write bench json");
    println!("\nwrote {path}");
}
