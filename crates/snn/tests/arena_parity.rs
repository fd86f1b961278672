//! Poisoned-arena parity: stale buffer contents never reach an answer.
//!
//! The arena hands buffers out **uninitialized** and the producers that
//! overwrite every element (`conv2d`, the pooling kernels, the int8 and
//! sparse kernels, LIF spikes, packed spike words, event lists) skip the
//! zero-fill. Each skipped fill is a place where a missed element would
//! leak whatever the buffer's last user left. This suite makes that loud:
//! it parks NaN-filled `f32` buffers in every size class — and garbage in
//! every typed scratch stack — on the calling thread **and on every
//! kernel-pool worker**, then serves the `infer_parity` inputs and demands
//! logits bit-identical to a run on a clean arena. The training plane takes
//! the same test: the layer-major ops fill arena buffers they do not zero
//! first (the LIF scan's spikes and membranes, the grouped batch norm's
//! output and statistics, the copies behind `rows` / `concat_rows`), so a
//! forward and backward pass must give the same logits, loss and parameter
//! gradients over poison.
//!
//! Every poisoned run happens under an installed pool of each size in
//! [`THREADS`], so the workers' arenas are exercised, not just the
//! caller's, and every size must reproduce the clean one-thread bits.

use std::sync::Barrier;

use ttsnn_autograd::Var;
use ttsnn_core::{TtConv, TtMode};
use ttsnn_data::Batch;
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::trainer::forward_batch;
use ttsnn_snn::{
    ConvPolicy, InferForward, InferStats, LossKind, Network, NormKind, ResNetConfig, ResNetSnn,
    SpikingModel, VggSnn,
};
use ttsnn_tensor::runtime::{with_scratch, Runtime};
use ttsnn_tensor::spike::{SparseMode, SpikeTensor};
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{vgg9_tiny, THREADS};

const T: usize = 3;
const BATCH: usize = 4;

/// Fills this thread's arena with poison: NaN `f32` buffers at two
/// capacities of every size class up to 2^16 elements, all-ones spike
/// words, and nested typed scratch left full of NaN / out-of-range
/// garbage. Anything read before it is written now shows.
fn poison_this_thread() {
    for class in 0..=16 {
        for len in [1usize << class, (1 << class) + (1 << class) / 2] {
            for _ in 0..3 {
                Tensor::full(&[len], f32::NAN).recycle();
            }
            // Dropping a packed tensor parks its word buffer, every bit set.
            drop(SpikeTensor::try_pack(&Tensor::ones(&[64 * len.min(1 << 10)])));
        }
    }
    let n = 1 << 16;
    with_scratch(n, |a: &mut [f32]| {
        a.fill(f32::NAN);
        with_scratch(n, |b: &mut [f32]| {
            b.fill(f32::NAN);
            with_scratch(n, |c: &mut [f32]| c.fill(f32::NAN));
        });
    });
    with_scratch(n, |a: &mut [i8]| {
        a.fill(0x55);
        with_scratch(n, |b: &mut [i8]| b.fill(-0x55));
    });
    with_scratch(n, |a: &mut [i32]| a.fill(i32::MIN / 2));
    with_scratch(n, |a: &mut [u32]| a.fill(u32::MAX));
    with_scratch(n, |a: &mut [usize]| a.fill(usize::MAX));
    with_scratch(n, |a: &mut [(u32, u32)]| {
        a.fill((u32::MAX, u32::MAX));
        with_scratch(n, |b: &mut [(u32, u32)]| b.fill((u32::MAX, u32::MAX)));
    });
}

/// Poisons the calling thread and every worker of the current kernel
/// pool: one task per pool thread, held at a barrier until all have
/// started, so each runs on a thread of its own.
fn poison_all_threads() {
    let runtime = Runtime::current();
    let threads = runtime.threads();
    let barrier = Barrier::new(threads);
    runtime.parallel_for(threads, 1, |_, _| {
        barrier.wait();
        poison_this_thread();
    });
}

/// The `infer_parity` inputs: `T` uniform `(B, 3, 8, 8)` frames.
fn analog_frames(seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed ^ 0xF00D);
    (0..T).map(|_| Tensor::rand_uniform(&[BATCH, 3, 8, 8], 0.0, 1.0, &mut rng)).collect()
}

/// The same frames thresholded to events (about 15 % ones).
fn event_frames(seed: u64) -> Vec<Tensor> {
    analog_frames(seed).iter().map(|f| f.map(|v| f32::from(v < 0.15))).collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `frames` as one time-major `(T·B, C, H, W)` stack.
fn time_major(frames: &[Tensor]) -> Tensor {
    let [b, c, h, w] = frames[0].shape() else { panic!("frames are (B, C, H, W)") };
    Tensor::stack(frames).unwrap().into_reshaped(&[frames.len() * b, *c, *h, *w]).unwrap()
}

/// Per-timestep logit bits of one model over `frames`, a call per timestep —
/// checked against the same sequence in one layer-major call, whose stacked
/// activations, carried membranes and spike words are arena buffers of their
/// own sizes.
fn logits(model: &mut dyn InferForward, frames: &[Tensor], stats: InferStats) -> Vec<Vec<u32>> {
    model.set_infer_stats(stats);
    model.reset_state();
    let out: Vec<Vec<u32>> = frames
        .iter()
        .enumerate()
        .map(|(t, f)| {
            let y = model.forward_timestep_tensor(f, t).expect("forward");
            let b = bits(&y);
            y.recycle();
            b
        })
        .collect();
    model.reset_state();
    let whole = model.forward_steps_tensor(&time_major(frames), 0, frames.len()).expect("forward");
    assert_eq!(bits(&whole), out.concat(), "one call over the sequence moved a bit");
    whole.recycle();
    model.reset_state();
    out
}

/// One training pass over `frames`: the bits of every timestep's logits,
/// then of the loss, then of every parameter's gradient.
fn training_pass(model: &mut Network, frames: &[Tensor]) -> Vec<Vec<u32>> {
    let batch = Batch { frames: frames.to_vec(), labels: (0..BATCH).collect() };
    model.params().iter().for_each(Var::zero_grad);
    let logits = forward_batch(model, &batch).expect("forward");
    let loss = LossKind::SumCe.compute(&logits, &batch.labels).expect("loss");
    loss.backward();
    let mut out: Vec<Vec<u32>> = logits.iter().map(|l| bits(&l.value())).collect();
    out.push(bits(&loss.value()));
    out.extend(model.params().iter().map(|p| p.grad().map_or_else(Vec::new, |g| bits(&g))));
    model.reset_state();
    out
}

/// Every case's output bits, computed on a **fresh thread** (a fresh
/// calling-thread arena) under a fresh `threads`-thread pool, after
/// poisoning all their arenas if asked to. Models are rebuilt from the seed
/// each time, so two calls differ only in what the arenas held and how
/// many threads ran the kernels.
fn run_all(seed: u64, threads: usize, poison: bool) -> Vec<(String, Vec<Vec<u32>>)> {
    std::thread::spawn(move || Runtime::new(threads).install(|| cases(seed, poison)))
        .join()
        .expect("parity thread panicked")
}

/// [`run_all`]'s body, on the thread and pool it set up.
fn cases(seed: u64, poison: bool) -> Vec<(String, Vec<Vec<u32>>)> {
    if poison {
        poison_all_threads();
    }
    let mut out = Vec::new();
    let analog = analog_frames(seed);
    let events = event_frames(seed);

    let mut rng = Rng::seed_from(seed);
    let resnet18 = || ResNetConfig::resnet18(5, (8, 8), 16);
    let mut vgg = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut rng);
    let mut res = ResNetSnn::new(resnet18(), &ConvPolicy::Baseline, &mut rng);
    let mut vgg_q = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut rng);
    let mut res_q = ResNetSnn::new(resnet18(), &ConvPolicy::Baseline, &mut rng);
    // Calibration wants (T, C, H, W) samples: sample 0 of each frame.
    let calib_frames =
        vec![Tensor::stack(&events.iter().map(|f| f.index_axis0(0).unwrap()).collect::<Vec<_>>())
            .unwrap()];
    let calib = vgg_q.calibrate(&calib_frames, T).unwrap();
    vgg_q.quantize(&calib, &QuantConfig::default()).unwrap();
    let calib = res_q.calibrate(&calib_frames, T).unwrap();
    res_q.quantize(&calib, &QuantConfig::default()).unwrap();

    for stats in [InferStats::PerSample, InferStats::Batch] {
        for (plane, mode, frames) in [
            ("analog f32 dense", SparseMode::Off, &analog),
            ("event f32 sparse", SparseMode::Force, &events),
        ] {
            vgg.set_sparse_mode(mode);
            out.push((format!("VGG9 {plane} {stats:?}"), logits(&mut vgg, frames, stats)));
            res.set_sparse_mode(mode);
            out.push((format!("MS-ResNet18 {plane} {stats:?}"), logits(&mut res, frames, stats)));
        }
        for mode in [SparseMode::Off, SparseMode::Force] {
            vgg_q.set_sparse_mode(mode);
            out.push((format!("VGG9 int8 {mode:?} {stats:?}"), logits(&mut vgg_q, &events, stats)));
            res_q.set_sparse_mode(mode);
            out.push((
                format!("MS-ResNet18 int8 {mode:?} {stats:?}"),
                logits(&mut res_q, &events, stats),
            ));
        }
    }

    // The training plane, layer-major: HTT's row cuts and joins under
    // tdBN, TEBN's per-timestep scales and 2 × 2 pooling under PTT.
    let mut htt = ResNetSnn::new(resnet18(), &ConvPolicy::tt(TtMode::htt_default(T)), &mut rng);
    out.push(("MS-ResNet18 HTT training".to_string(), training_pass(&mut htt, &events)));
    let mut tebn = vgg9_tiny();
    tebn.norm = NormKind::Tebn { timesteps: T };
    let mut tebn = VggSnn::new(tebn, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    out.push(("VGG9 PTT TEBN training".to_string(), training_pass(&mut tebn, &analog)));

    // Un-merged TT convolutions: every intermediate between cores is
    // an arena buffer. HTT runs its full path at t = 0 and its half
    // path at t = T - 1, and over the whole sequence at once cuts the
    // stack in two and joins the halves.
    for (mode, stride) in
        [(TtMode::Stt, (1, 1)), (TtMode::Ptt, (2, 2)), (TtMode::htt_default(T), (1, 1))]
    {
        let name = format!("TtConv {}", mode.name());
        let tt = TtConv::randn_strided(3, 8, 2, mode, stride, &mut rng);
        let ys: Vec<Vec<u32>> = (0..T)
            .map(|t| {
                let y = tt.forward_tensor(&analog[t], t).expect("tt forward");
                let b = bits(&y);
                y.recycle();
                b
            })
            .collect();
        let whole = tt.forward_steps_tensor(&time_major(&analog), 0, T).expect("tt forward");
        assert_eq!(bits(&whole), ys.concat(), "{name}: one call over the sequence");
        whole.recycle();
        out.push((name, ys));
    }
    out
}

#[test]
fn poisoned_arenas_do_not_move_a_bit() {
    for seed in [3u64, 41] {
        let clean = run_all(seed, 1, false);
        for (name, want) in &clean {
            assert!(
                want.iter().flatten().all(|&b| !f32::from_bits(b).is_nan()),
                "{name}: clean run produced NaN"
            );
        }
        for threads in THREADS {
            let poisoned = run_all(seed, threads, true);
            assert_eq!(clean.len(), poisoned.len());
            for ((name, want), (_, got)) in clean.iter().zip(&poisoned) {
                assert_eq!(
                    want, got,
                    "{name} (seed {seed}, {threads} threads): stale arena contents reached the \
                     output"
                );
            }
        }
    }
}
