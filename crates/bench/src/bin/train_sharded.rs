//! Data-parallel training throughput: sharded vs single-shard, plus the
//! persistent pool's region-dispatch cost vs the old scoped-spawn design.
//!
//! Criterion-free. Two experiments, both recorded into
//! `BENCH_train_sharded.json` in the working directory:
//!
//! 1. **`train_sharded`** — optimizer steps/second of a
//!    [`ShardedTrainer`] at 1 shard vs `SHARDS` (2) shards, identical
//!    micro-batch size (so the two runs produce bit-identical weights —
//!    only wall-clock differs).
//! 2. **`pool_dispatch`** — microseconds per two-thread parallel region
//!    for the persistent channel-fed pool: empty ranges against an inline
//!    scoped-spawn-per-region baseline (the PR 1 design), ranges of real
//!    work handed to a worker that is still spinning
//!    (`pool_region_handoff_*`, what `runtime`'s fork grain is sized
//!    from), and the same with the worker parked (`pool_region_parked_us`,
//!    what its spin budget is sized from).
//!
//! ```sh
//! TTSNN_NUM_THREADS=1 cargo run -p ttsnn-bench --release --bin train_sharded
//! ```

use std::time::Instant;

use ttsnn_autograd::SgdConfig;
use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_data::{Batch, StaticImages};
use ttsnn_snn::conv_unit::ConvPolicy;
use ttsnn_snn::{LossKind, ResNetConfig, ResNetSnn, ShardConfig, ShardedTrainer, StepTiming};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::Rng;

const BATCH: usize = 16;
const MICRO: usize = 4;
const TIMESTEPS: usize = 2;
const STEPS: usize = 4;
/// Shard count compared against one shard.
const SHARDS: usize = 2;

fn factory() -> impl Fn() -> ResNetSnn + Send + Sync + Clone + 'static {
    || {
        let mut rng = Rng::seed_from(42);
        ResNetSnn::new(ResNetConfig::resnet18(4, (8, 8), 8), &ConvPolicy::Baseline, &mut rng)
    }
}

fn data() -> Vec<Batch> {
    let mut rng = Rng::seed_from(1);
    StaticImages::new(3, 8, 8, 4, 0.15, 9)
        .dataset(BATCH * 2, &mut rng)
        .batches(BATCH, TIMESTEPS, &mut rng)
        .expect("bench batches")
}

/// Optimizer steps per second at the given shard count, and the mean
/// per-step phase split the trainer reports.
fn steps_per_sec(shards: usize, batches: &[Batch]) -> (f64, StepTiming) {
    let mut trainer = ShardedTrainer::new(ShardConfig::new(shards, MICRO), factory());
    let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };
    // Warmup (first step pays model/arena setup).
    trainer.step(&batches[0], LossKind::SumCe, sgd).expect("warmup step");
    let start = Instant::now();
    let mut sum = StepTiming::default();
    for s in 0..STEPS {
        sum +=
            trainer.step(&batches[s % batches.len()], LossKind::SumCe, sgd).expect("bench step").1;
    }
    (STEPS as f64 / start.elapsed().as_secs_f64(), sum / STEPS as f64)
}

/// One `forward / backward / all-reduce / optimizer` line, in ms, with the
/// tape's nodes and the pool's handoffs / parks per step beside it: parks
/// above zero mean kernels inside the step paid worker wake-ups.
fn phases(label: &str, t: &StepTiming) {
    println!(
        "{:<24} fwd {:.2} / bwd {:.2} / all-reduce {:.3} / opt {:.3} ms of {:.2} ms per step; \
         {:.0} tape nodes, pool {:.0} handoffs / {:.1} parks per step",
        label,
        t.forward * 1e3,
        t.backward * 1e3,
        t.all_reduce * 1e3,
        t.optimizer * 1e3,
        t.total * 1e3,
        t.tape_nodes,
        t.pool_handoffs,
        t.pool_parks
    );
}

/// Scoped fork/join region over two ranges — the per-region thread-spawn
/// design this pool replaced, reproduced inline as the baseline.
fn scoped_region(n: usize, f: impl Fn(usize, usize) + Sync) {
    let mid = n / 2;
    std::thread::scope(|s| {
        let fref = &f;
        s.spawn(move || fref(mid, n));
        fref(0, mid);
    });
}

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
/// ([`dispatch_cost`]'s empty ranges measure something else: the caller
/// pops most of them back before any worker sees them.)
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

/// Microseconds per two-worker region, persistent pool vs scoped spawn,
/// on a deliberately tiny region (the dispatch overhead dominates).
fn dispatch_cost(rt: &Runtime) -> (f64, f64) {
    let sink = std::sync::atomic::AtomicUsize::new(0);
    let body = |start: usize, end: usize| {
        sink.fetch_add(end - start, std::sync::atomic::Ordering::Relaxed);
    };
    let iters = 2000u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        rt.parallel_for(2, 1, body);
    }
    let pool_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    scoped_region(2, body);
    let t1 = Instant::now();
    for _ in 0..iters {
        scoped_region(2, body);
    }
    let scoped_us = t1.elapsed().as_secs_f64() * 1e6 / iters as f64;
    (pool_us, scoped_us)
}

fn main() {
    let threads = Runtime::global().threads();
    println!(
        "train_sharded: {threads} kernel thread(s) (TTSNN_NUM_THREADS overrides), comparing 1 vs \
         {SHARDS} shards\n"
    );
    let batches = data();

    let (single, single_phases) = steps_per_sec(1, &batches);
    let (sharded, sharded_phases) = steps_per_sec(SHARDS, &batches);
    println!("{:<24} {:>12.2} steps/s", "1 shard", single);
    println!("{:<24} {:>12.2} steps/s", format!("{SHARDS} shards"), sharded);
    println!("{:<24} {:>12.2}x", "speedup", sharded / single);
    phases("1 shard", &single_phases);
    phases(&format!("{SHARDS} shards"), &sharded_phases);

    let rt = Runtime::new(2);
    settle(&rt);
    let (pool_us, scoped_us) = dispatch_cost(&rt);
    let handoff = handoff_region(&rt, 12.0);
    let small = handoff_region(&rt, 2.5);
    let parked_us = parked_region_us(&rt);
    println!("\n{:<24} {:>12.2} us/region (empty ranges)", "persistent pool", pool_us);
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
    println!("{:<24} {:>12.2} us/region", "scoped spawn (PR 1)", scoped_us);
    println!("{:<24} {:>12.2}x", "spawn amortization", scoped_us / pool_us);

    let records = vec![
        BenchRecord {
            name: "train_sharded".into(),
            metrics: vec![
                ("steps_per_sec_1_shard".into(), single),
                ("steps_per_sec_n_shards".into(), sharded),
                ("speedup".into(), sharded / single),
                ("shards".into(), SHARDS as f64),
                ("micro_batch".into(), MICRO as f64),
                ("batch".into(), BATCH as f64),
                ("threads".into(), threads as f64),
                ("forward_ms_n_shards".into(), sharded_phases.forward * 1e3),
                ("backward_ms_n_shards".into(), sharded_phases.backward * 1e3),
                ("all_reduce_ms_n_shards".into(), sharded_phases.all_reduce * 1e3),
                ("optimizer_ms_n_shards".into(), sharded_phases.optimizer * 1e3),
                ("tape_nodes_per_step_1_shard".into(), single_phases.tape_nodes),
                ("pool_handoffs_per_step_1_shard".into(), single_phases.pool_handoffs),
                ("pool_parks_per_step_1_shard".into(), single_phases.pool_parks),
            ],
        },
        BenchRecord {
            name: "pool_dispatch".into(),
            metrics: vec![
                ("pool_region_us".into(), pool_us),
                ("pool_region_handoff_us".into(), handoff.region_us),
                ("pool_region_handoff_serial_us".into(), handoff.serial_us),
                ("pool_region_handoff_on_worker_share".into(), handoff.on_worker_share),
                ("pool_region_handoff_small_us".into(), small.region_us),
                ("pool_region_handoff_small_serial_us".into(), small.serial_us),
                ("pool_region_parked_us".into(), parked_us),
                ("scoped_region_us".into(), scoped_us),
                ("amortization_x".into(), scoped_us / pool_us),
            ],
        },
    ];
    let path = "BENCH_train_sharded.json";
    write_json(path, &records).expect("write bench json");
    println!("\nwrote {path}");
}
