//! Spike-sparsity execution: event-driven kernels vs dense, and the
//! density-adaptive dispatcher's overhead.
//!
//! Criterion-free. Recorded into `BENCH_spike_sparsity.json` in the
//! working directory:
//!
//! 1. **`kernel_zeros_*`** — samples/second of [`spike::sparse_conv2d`]
//!    vs the dense [`conv::conv2d`] it bit-matches, on a representative
//!    VGG-interior geometry at ~50/75/90/99 % zeros (the acceptance band:
//!    ≥ 2× at ≥ 90 % zeros).
//! 2. **`sparse_linear_zeros_90`** — the same comparison for the
//!    classifier-shaped [`spike::sparse_linear`].
//! 3. **`crossover`** — the measured density at which sparse and dense
//!    conv throughput cross, next to the static
//!    [`spike::SPARSE_DENSITY_THRESHOLD`] the Auto dispatcher uses.
//! 4. **`dispatcher_low_sparsity` / `dispatcher_high_sparsity`** — whole
//!    VGG9 inference-plane throughput with the dispatcher in `Auto` vs
//!    pinned `Off`, on dense-ish (60 % ones) and sparse (5 % ones) spike
//!    frames from `StaticImages::with_spike_density`. Auto must lose
//!    ≤ ~5 % when traffic is dense (its packing probe is the only cost)
//!    and win when traffic is sparse.
//!
//! ```sh
//! cargo run -p ttsnn-bench --release --bin spike_sparsity
//! ```

use std::time::Instant;

use ttsnn_bench::harness::micro::{write_json, BenchRecord};
use ttsnn_data::StaticImages;
use ttsnn_snn::{ConvPolicy, InferForward, InferStats, SpikingModel, VggConfig, VggSnn};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::{self, SparseMode, SpikeTensor};
use ttsnn_tensor::{conv, Conv2dGeometry, Rng, Tensor};

const BATCH: usize = 8;
const KERNEL_ITERS: usize = 20;
const MODEL_ITERS: usize = 4;
const TIMESTEPS: usize = 4;

/// A VGG-interior conv: 32→32 channels at 16×16, 3×3, pad 1.
fn geometry() -> Conv2dGeometry {
    Conv2dGeometry::new(32, 32, (16, 16), (3, 3), (1, 1), (1, 1))
}

/// Random exactly-0.0/1.0 tensor with roughly `density` ones.
fn random_spikes(shape: &[usize], density: f64, rng: &mut Rng) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| if (rng.uniform() as f64) < density { 1.0 } else { 0.0 }).collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// Samples/second of `f`, where one call processes `BATCH` samples.
fn samples_per_sec(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (iters * BATCH) as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-3 samples/second of two alternating measurements — the
/// interleaving equalizes CPU frequency/warmup drift between them.
fn interleaved(iters: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        best_a = best_a.max(samples_per_sec(iters, &mut a));
        best_b = best_b.max(samples_per_sec(iters, &mut b));
    }
    (best_a, best_b)
}

/// (dense, sparse) conv samples/second at the given spike density.
fn conv_pair(density: f64, w: &Tensor, rng: &mut Rng) -> (f64, f64) {
    let g = geometry();
    let x = random_spikes(&[BATCH, g.in_channels, g.in_hw.0, g.in_hw.1], density, rng);
    let sp = SpikeTensor::try_pack(&x).expect("binary input");
    interleaved(
        KERNEL_ITERS,
        || {
            conv::conv2d(&x, w, &g).expect("dense conv");
        },
        || {
            spike::sparse_conv2d(&sp, w, &g).expect("sparse conv");
        },
    )
}

/// Whole-model samples/second of a VGG9 inference plane over spike
/// frames at the given density, under the given dispatch mode.
fn model_sps(net: &mut VggSnn, mode: SparseMode, density: f32, seed: u64) -> f64 {
    let gen = StaticImages::cifar10_like(16, 16).with_spike_density(density);
    let mut rng = Rng::seed_from(seed);
    let mut data = Vec::new();
    for i in 0..BATCH {
        data.extend_from_slice(gen.sample(i % gen.num_classes(), &mut rng).frames[0].data());
    }
    let input = Tensor::from_vec(data, &[BATCH, 3, 16, 16]).unwrap();
    net.set_sparse_mode(mode);
    samples_per_sec(MODEL_ITERS, || {
        net.reset_state();
        for t in 0..TIMESTEPS {
            net.forward_timestep_tensor(&input, t).expect("forward");
        }
    })
}

fn main() {
    let threads = Runtime::global().threads();
    let g = geometry();
    println!(
        "spike_sparsity: {threads} kernel thread(s), conv {}ch {}x{} k{}x{}, batch {BATCH}\n",
        g.in_channels, g.in_hw.0, g.in_hw.1, g.kernel.0, g.kernel.1
    );

    let mut rng = Rng::seed_from(42);
    let w = Tensor::randn(&[g.out_channels, g.in_channels, g.kernel.0, g.kernel.1], &mut rng);
    let mut records = Vec::new();

    // 1. Kernel sweep across the acceptance densities.
    for zeros in [0.50f64, 0.75, 0.90, 0.99] {
        let (dense, sparse) = conv_pair(1.0 - zeros, &w, &mut rng);
        println!(
            "conv {:>2.0}% zeros: {:>10.1} dense vs {:>10.1} sparse samples/s ({:.2}x)",
            zeros * 100.0,
            dense,
            sparse,
            sparse / dense
        );
        records.push(BenchRecord {
            name: format!("kernel_zeros_{:.0}", zeros * 100.0),
            metrics: vec![
                ("zeros_fraction".into(), zeros),
                ("dense_samples_per_sec".into(), dense),
                ("sparse_samples_per_sec".into(), sparse),
                ("sparse_speedup".into(), sparse / dense),
                ("threads".into(), threads as f64),
            ],
        });
    }

    // 2. The classifier-shaped linear at 90% zeros.
    let (feat, out) = (512usize, 10usize);
    let x = random_spikes(&[BATCH, feat], 0.10, &mut rng);
    let sp = SpikeTensor::try_pack(&x).expect("binary input");
    let lw = Tensor::randn(&[out, feat], &mut rng);
    let (dense_lin, sparse_lin) = interleaved(
        KERNEL_ITERS * 10,
        || {
            let mut y = Tensor::zeros(&[BATCH, out]);
            for s in 0..BATCH {
                ttsnn_tensor::runtime::gemm_a_bt(
                    Runtime::global(),
                    &x.data()[s * feat..(s + 1) * feat],
                    lw.data(),
                    &mut y.data_mut()[s * out..(s + 1) * out],
                    1,
                    feat,
                    out,
                );
            }
        },
        || {
            spike::sparse_linear(&sp, &lw).expect("sparse linear");
        },
    );
    println!(
        "linear 90% zeros: {:>10.1} dense vs {:>10.1} sparse samples/s ({:.2}x)",
        dense_lin,
        sparse_lin,
        sparse_lin / dense_lin
    );
    records.push(BenchRecord {
        name: "sparse_linear_zeros_90".into(),
        metrics: vec![
            ("dense_samples_per_sec".into(), dense_lin),
            ("sparse_samples_per_sec".into(), sparse_lin),
            ("sparse_speedup".into(), sparse_lin / dense_lin),
        ],
    });

    // 3. Measured crossover: scan density upward until dense wins.
    let mut crossover = 1.0f64;
    let mut prev = 0.05f64;
    for step in 1..=14 {
        let density = step as f64 * 0.05;
        let (dense, sparse) = conv_pair(density, &w, &mut rng);
        if sparse < dense {
            crossover = (prev + density) / 2.0;
            break;
        }
        prev = density;
    }
    println!(
        "\nmeasured conv crossover density ~{crossover:.3} (dispatch threshold {})",
        spike::SPARSE_DENSITY_THRESHOLD
    );
    records.push(BenchRecord {
        name: "crossover".into(),
        metrics: vec![
            ("measured_crossover_density".into(), crossover),
            ("dispatch_threshold".into(), spike::SPARSE_DENSITY_THRESHOLD),
        ],
    });

    // 4. Dispatcher overhead/gain on a whole VGG9 inference plane.
    let mut net = VggSnn::new(VggConfig::vgg9(3, 10, (16, 16), 8), &ConvPolicy::Baseline, &mut rng);
    net.set_infer_stats(InferStats::PerSample);
    for (label, density, seed) in
        [("dispatcher_low_sparsity", 0.60f32, 7u64), ("dispatcher_high_sparsity", 0.05, 8)]
    {
        let (mut off, mut auto) = (0.0f64, 0.0f64);
        for _ in 0..3 {
            off = off.max(model_sps(&mut net, SparseMode::Off, density, seed));
            auto = auto.max(model_sps(&mut net, SparseMode::Auto, density, seed));
        }
        println!(
            "{label} ({:.0}% ones): {off:>8.1} off vs {auto:>8.1} auto samples/s ({:+.1}%)",
            density * 100.0,
            (auto / off - 1.0) * 100.0
        );
        records.push(BenchRecord {
            name: label.into(),
            metrics: vec![
                ("input_density".into(), f64::from(density)),
                ("off_samples_per_sec".into(), off),
                ("auto_samples_per_sec".into(), auto),
                ("auto_over_off".into(), auto / off),
            ],
        });
    }

    let path = "BENCH_spike_sparsity.json";
    write_json(path, &records).expect("write bench json");
    println!("\nwrote {path}");
}
