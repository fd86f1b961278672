//! Train/infer execution-plane parity and serving-determinism properties.
//!
//! Four contracts, over VGG9 and ResNet20 under dense and TT policies:
//!
//! 1. **Batch-mode parity** — [`InferForward::forward_timestep_tensor`] in
//!    the default [`InferStats::Batch`] mode is **bit-identical** to the
//!    autograd plane's [`Network::forward_timestep`] on the same
//!    batch, timestep by timestep.
//! 2. **Per-sample invariance** — in [`InferStats::PerSample`] mode every
//!    sample's logits are independent of the batch it rode in, and equal
//!    to a batch-of-1 training-plane pass bit for bit (the `ttsnn_infer`
//!    serving contract).
//!
//!    Both hold at every kernel thread count in [`THREADS`] and under
//!    every sparse-dispatch mode.
//! 3. **Graph-free evaluation** — `evaluate_counts` allocates **zero**
//!    autograd nodes (`ttsnn_autograd::nodes_created` does not move) and
//!    counts what the tape-building evaluation counted, at every kernel
//!    thread count in [`THREADS`].
//! 4. **Cut invariance** — [`InferForward::forward_steps_tensor`] over a
//!    whole sequence in one call equals any cut of it into shorter calls
//!    (down to a timestep at a time, with the membranes taken out and put
//!    back between calls), logits and spike counters bit for bit, on f32 and
//!    int8, merged and un-merged HTT, under every sparse-dispatch mode; and
//!    the spike words a LIF scan hands the next convolution are the ones
//!    `SpikeTensor::try_pack` would have found. Each cut runs at a
//!    different thread count of [`THREADS`].

use proptest::prelude::*;
use ttsnn_autograd::{nodes_created, Var};
use ttsnn_core::TtMode;
use ttsnn_data::StaticImages;
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::trainer::{evaluate, evaluate_counts, forward_batch};
use ttsnn_snn::{
    ConvPolicy, InferForward, InferStats, Lif, LifConfig, Network, ResNetSnn, SpikingModel, VggSnn,
};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::{self, SparseMode, SpikeTensor};
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{resnet20_tiny, vgg9_tiny, THREADS};

const TIMESTEPS: usize = 3;

const MODES: [SparseMode; 3] = [SparseMode::Auto, SparseMode::Force, SparseMode::Off];

/// The two architectures × two policies the acceptance criteria name.
fn builds(seed: u64) -> Vec<(String, Network)> {
    let mut rng = Rng::seed_from(seed);
    let mut out = Vec::new();
    for policy in [ConvPolicy::Baseline, ConvPolicy::tt(TtMode::Ptt)] {
        let vgg = VggSnn::new(vgg9_tiny(), &policy, &mut rng);
        out.push((vgg.name(), vgg));
        let res = ResNetSnn::new(resnet20_tiny(5), &policy, &mut rng);
        out.push((res.name(), res));
    }
    out
}

fn frames(seed: u64, batch: usize) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed ^ 0xF00D);
    (0..TIMESTEPS).map(|_| Tensor::rand_uniform(&[batch, 3, 8, 8], 0.0, 1.0, &mut rng)).collect()
}

/// Per-timestep logits on the training (Var) plane.
fn var_logits(model: &mut Network, frames: &[Tensor]) -> Vec<Tensor> {
    model.reset_state();
    frames
        .iter()
        .enumerate()
        .map(|(t, f)| {
            model.forward_timestep(&Var::constant(f.clone()), t).expect("var forward").to_tensor()
        })
        .collect()
}

/// Per-timestep logits on the inference (tensor) plane.
fn tensor_logits(model: &mut Network, frames: &[Tensor], stats: InferStats) -> Vec<Tensor> {
    model.set_infer_stats(stats);
    model.reset_state();
    frames
        .iter()
        .enumerate()
        .map(|(t, f)| model.forward_timestep_tensor(f, t).expect("tensor forward"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contract 1: Batch mode is bit-identical to the Var plane.
    #[test]
    fn infer_plane_bit_identical_to_train_plane(seed in 0u64..1000) {
        let input = frames(seed, 4);
        for (name, mut model) in builds(seed) {
            let via_var = var_logits(&mut model, &input);
            for (threads, mode) in THREADS.into_iter().flat_map(|n| MODES.map(|m| (n, m))) {
                model.set_sparse_mode(mode);
                let via_tensor = Runtime::new(threads)
                    .install(|| tensor_logits(&mut model, &input, InferStats::Batch));
                for (t, (a, b)) in via_var.iter().zip(&via_tensor).enumerate() {
                    prop_assert_eq!(
                        a, b,
                        "{} t={} diverged between planes ({} threads, {:?})",
                        &name, t, threads, mode
                    );
                }
            }
        }
    }

    /// Contract 2: PerSample logits are invariant to batch composition and
    /// equal to a batch-of-1 Var-plane pass.
    #[test]
    fn per_sample_mode_invariant_to_batch_composition(seed in 0u64..1000) {
        let batch = 5usize;
        let input = frames(seed, batch);
        for (name, mut model) in builds(seed) {
            // Each sample alone, through the training plane.
            let solo_var: Vec<Vec<Tensor>> = (0..batch)
                .map(|s| {
                    let solo: Vec<Tensor> = input
                        .iter()
                        .map(|f| {
                            let slab = f.len() / batch;
                            Tensor::from_vec(
                                f.data()[s * slab..(s + 1) * slab].to_vec(),
                                &[1, 3, 8, 8],
                            )
                            .unwrap()
                        })
                        .collect();
                    var_logits(&mut model, &solo)
                })
                .collect();
            for (threads, mode) in THREADS.into_iter().flat_map(|n| MODES.map(|m| (n, m))) {
                model.set_sparse_mode(mode);
                let batched = Runtime::new(threads)
                    .install(|| tensor_logits(&mut model, &input, InferStats::PerSample));
                let k = batched[0].shape()[1];
                for (s, solo) in solo_var.iter().enumerate() {
                    for t in 0..TIMESTEPS {
                        prop_assert_eq!(
                            &batched[t].data()[s * k..(s + 1) * k],
                            solo[t].data(),
                            "{} sample {} t={} ({} threads, {:?}): serving logits must equal \
                             a B=1 train pass",
                            &name, s, t, threads, mode
                        );
                    }
                }
            }
        }
    }
}

/// Contract 3: evaluation is graph-free — not a single autograd node.
#[test]
fn evaluate_allocates_zero_autograd_nodes() {
    let mut rng = Rng::seed_from(11);
    let data = StaticImages::new(3, 8, 8, 4, 0.15, 9)
        .dataset(24, &mut rng)
        .batches(12, 2, &mut rng)
        .unwrap();
    for threads in THREADS {
        Runtime::new(threads).install(|| {
            for (name, mut model) in builds(11) {
                // Warm up once (first call may intern nothing, but keep it honest).
                evaluate_counts(&mut model, &data).unwrap();
                let before = nodes_created();
                let (correct, total) = evaluate_counts(&mut model, &data).unwrap();
                let built = nodes_created() - before;
                assert_eq!(built, 0, "{name}, {threads} threads: evaluation built {built} nodes");
                assert_eq!(total, 24);
                assert!(correct <= total);
            }
        });
    }
}

/// The rerouted `evaluate` reports byte-for-byte the accuracy the old
/// tape-building implementation (Var forward + tensor logit sum) reported.
#[test]
fn evaluate_matches_tape_building_reference() {
    let mut rng = Rng::seed_from(12);
    let data = StaticImages::new(3, 8, 8, 5, 0.15, 21)
        .dataset(24, &mut rng)
        .batches(12, 2, &mut rng)
        .unwrap();
    let runs = THREADS.into_iter().flat_map(|n| builds(12).into_iter().map(move |b| (n, b)));
    for (threads, (name, mut model)) in runs {
        Runtime::new(threads).install(|| {
            // Reference: the seed implementation of evaluate_counts.
            let mut correct = 0usize;
            let mut total = 0usize;
            for batch in &data {
                let logits = forward_batch(&mut model, batch).unwrap();
                let mut preds = logits[0].to_tensor();
                for l in &logits[1..] {
                    preds.add_scaled(&l.value(), 1.0).unwrap();
                }
                let k = preds.shape()[1];
                for (i, &label) in batch.labels.iter().enumerate() {
                    let row = &preds.data()[i * k..(i + 1) * k];
                    let argmax = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .map(|(j, _)| j)
                        .unwrap_or(0);
                    if argmax == label {
                        correct += 1;
                    }
                    total += 1;
                }
            }
            let via_infer = evaluate_counts(&mut model, &data).unwrap();
            let tag = format!("{name}, {threads} threads");
            assert_eq!(via_infer, (correct, total), "{tag}: rerouted evaluate changed counts");
            let acc = evaluate(&mut model, &data).unwrap();
            assert_eq!(acc, correct as f32 / total as f32, "{tag}");
        });
    }
}

/// `evaluate` must report training-plane numbers even for a model that
/// was switched to serving (`PerSample`) mode — it pins `Batch` for the
/// call and restores the caller's mode afterwards.
#[test]
fn evaluate_pins_batch_stats_and_restores_mode() {
    let mut rng = Rng::seed_from(14);
    let data = StaticImages::new(3, 8, 8, 4, 0.15, 33)
        .dataset(24, &mut rng)
        .batches(12, 2, &mut rng)
        .unwrap();
    let runs = THREADS.into_iter().flat_map(|n| builds(14).into_iter().map(move |b| (n, b)));
    for (threads, (name, mut model)) in runs {
        Runtime::new(threads).install(|| {
            let reference = evaluate_counts(&mut model, &data).unwrap();
            model.set_infer_stats(InferStats::PerSample);
            let serving_mode = evaluate_counts(&mut model, &data).unwrap();
            let tag = format!("{name}, {threads} threads");
            assert_eq!(serving_mode, reference, "{tag}: evaluate must pin Batch statistics");
            assert_eq!(
                model.infer_stats(),
                InferStats::PerSample,
                "{tag}: evaluate must restore the caller's InferStats"
            );
        });
    }
}

/// Merged-dense serving: after `merge_into_dense` the inference plane
/// still mirrors the training plane bit for bit (the merged kernels are
/// shared parameters, not copies).
#[test]
fn merged_dense_models_keep_plane_parity() {
    let mut rng = Rng::seed_from(13);
    let input = frames(13, 3);
    let mut vgg = VggSnn::new(vgg9_tiny(), &ConvPolicy::tt(TtMode::Ptt), &mut rng);
    vgg.merge_into_dense().unwrap();
    let mut res = ResNetSnn::new(resnet20_tiny(5), &ConvPolicy::tt(TtMode::Stt), &mut rng);
    res.merge_into_dense().unwrap();
    let mut models: Vec<(String, Network)> = vec![(vgg.name(), vgg), (res.name(), res)];
    for (name, model) in &mut models {
        for threads in THREADS {
            let (via_var, via_tensor) = Runtime::new(threads).install(|| {
                let via_var = var_logits(model, &input);
                (via_var, tensor_logits(model, &input, InferStats::Batch))
            });
            for (t, (a, b)) in via_var.iter().zip(&via_tensor).enumerate() {
                assert_eq!(a, b, "{name} t={t} diverged after merge ({threads} threads)");
            }
        }
    }
}

/// The LIF activity counters count spikes as integers on both planes. The
/// numbers they report did not move when they stopped summing the spike
/// tensors in `f32`: on a fixed input, `mean_spike_activity` and
/// `layer_spike_densities` are what the commit before recorded, whichever
/// plane ran — the inference plane, the training plane a timestep at a
/// time, or the training plane over the whole sequence — and whichever
/// count in [`THREADS`] ran it.
#[test]
fn spike_activity_counters_report_what_they_always_did() {
    // (mean activity bits, FNV-1a of the per-layer density bits), in
    // `builds` order, recorded on the parent commit.
    let recorded: [(u64, u64); 4] = [
        (0x3fc3986186186186, 0x591b8b6a0ab58c4e), // VGG9 [baseline]
        (0x3fcd590b21642c86, 0xe03c50e0e3e3f105), // ResNet20 [baseline]
        (0x3fc24f3cf3cf3cf4, 0x305b131f621adac1), // VGG9 [PTT]
        (0x3fcccb21642c8591, 0x95d262da429d1c1b), // ResNet20 [PTT]
    ];
    let input = frames(21, 4);
    let batch = ttsnn_data::Batch { frames: input.clone(), labels: vec![0; 4] };
    type Plane<'a> = (&'a str, &'a dyn Fn(&mut Network));
    let planes: [Plane<'_>; 3] = [
        ("inference plane", &|m| drop(tensor_logits(m, &input, InferStats::Batch))),
        ("training plane, timestep calls", &|m| drop(var_logits(m, &input))),
        ("training plane, one sequence", &|m| drop(forward_batch(m, &batch).unwrap())),
    ];
    for (threads, (plane, run)) in THREADS.into_iter().flat_map(|n| planes.map(|p| (n, p))) {
        for ((name, mut model), want) in builds(21).into_iter().zip(recorded) {
            Runtime::new(threads).install(|| run(&mut model));
            let mean = model.mean_spike_activity().expect("the model ran").to_bits();
            let layers =
                model.layer_spike_densities().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
                    d.to_bits().to_le_bytes().iter().fold(h, |h, &byte| {
                        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                });
            let tag = format!("{name}, {plane}, {threads} threads");
            assert!((mean, layers) == want, "{tag}: ({mean:#018x}, {layers:#018x})");
        }
    }
}

/// Timesteps of the cut-invariance sequences: long enough for three
/// different cuts and for HTT's default schedule to change path mid-way.
const CUT_T: usize = 4;
const CUT_BATCH: usize = 3;

/// Rows `first..first + rows` of a stack's leading axis.
fn row_range(x: &Tensor, first: usize, rows: usize) -> Tensor {
    let row = x.len() / x.shape()[0];
    let mut shape = x.shape().to_vec();
    shape[0] = rows;
    Tensor::from_vec(x.data()[first * row..(first + rows) * row].to_vec(), &shape).unwrap()
}

/// What a sequence leaves behind: logit bits (time-major), per-layer spike
/// density bits, mean activity bits.
type Outcome = (Vec<u32>, Vec<u64>, Option<u64>);

/// Serves the time-major stack `x` in calls of `cuts` timesteps each,
/// parking the membranes outside the model between calls as a stream does.
fn serve_in_cuts(net: &mut Network, x: &Tensor, cuts: &[usize]) -> Outcome {
    net.reset_state();
    let mut logits = Vec::new();
    let mut t0 = 0;
    for &steps in cuts {
        let state = net.take_infer_state();
        net.restore_infer_state(state).unwrap();
        let frames = row_range(x, t0 * CUT_BATCH, steps * CUT_BATCH);
        let y = net.forward_steps_tensor(&frames, t0, steps).unwrap();
        assert_eq!(y.shape()[0], steps * CUT_BATCH, "one logit row per sample and timestep");
        logits.extend(y.data().iter().map(|v| v.to_bits()));
        t0 += steps;
    }
    net.reset_state();
    let densities = net.layer_spike_densities().iter().map(|d| d.to_bits()).collect();
    (logits, densities, net.mean_spike_activity().map(f64::to_bits))
}

/// Contract 4: one `steps = T` call equals every cut of the sequence.
#[test]
fn one_call_over_the_sequence_equals_every_cut_of_it() {
    let mut rng = Rng::seed_from(31);
    let events = Tensor::rand_uniform(&[CUT_T * CUT_BATCH, 3, 8, 8], 0.0, 1.0, &mut rng)
        .map(|v| f32::from(v < 0.15));
    // Calibration wants (T, C, H, W) samples: sample 0 of every timestep.
    let frame = 3 * 8 * 8;
    let sample0: Vec<f32> =
        (0..CUT_T).flat_map(|t| events.data()[t * CUT_BATCH * frame..][..frame].to_vec()).collect();
    let calibration = [Tensor::from_vec(sample0, &[CUT_T, 3, 8, 8]).unwrap()];

    #[derive(Clone, Copy, Debug)]
    enum Plane {
        MergedF32,
        HttF32,
        Int8,
    }
    let htt = ConvPolicy::tt(TtMode::htt_default(CUT_T));
    let build = |vgg: bool, plane: Plane| -> Network {
        let mut rng = Rng::seed_from(32);
        let mut net = if vgg {
            VggSnn::new(vgg9_tiny(), &htt, &mut rng)
        } else {
            ResNetSnn::new(resnet20_tiny(5), &htt, &mut rng)
        };
        if !matches!(plane, Plane::HttF32) {
            net.merge_into_dense().unwrap();
        }
        if matches!(plane, Plane::Int8) {
            let calib = net.calibrate(&calibration, CUT_T).unwrap();
            net.quantize(&calib, &QuantConfig::default()).unwrap();
        }
        net
    };
    // Sites whose input no LIF scan produced, i.e. where a pack attempt is
    // the only way to learn the input is binary: the first conv and the
    // classifier, plus VGG9's two convs behind a pool.
    let unscanned_sites = |vgg: bool| if vgg { 4 } else { 2 };
    for vgg in [true, false] {
        for plane in [Plane::MergedF32, Plane::HttF32, Plane::Int8] {
            for mode in MODES {
                for stats in [InferStats::PerSample, InferStats::Batch] {
                    let label = format!("vgg={vgg} {plane:?} {mode:?} {stats:?}");
                    let fresh = || {
                        let mut net = build(vgg, plane);
                        net.set_sparse_mode(mode);
                        net.set_infer_stats(stats);
                        net.clear_dispatch_counts();
                        net
                    };
                    let mut whole = fresh();
                    let packs = spike::pack_attempts();
                    let want = serve_in_cuts(&mut whole, &events, &[CUT_T]);
                    let packs = spike::pack_attempts() - packs;
                    let calls = whole.conv_dispatch_counts();
                    assert!(calls.iter().all(|&(s, d)| s + d == 1), "{label}: {calls:?}");
                    if !matches!(plane, Plane::HttF32) && stats == InferStats::PerSample {
                        let expected =
                            if mode == SparseMode::Off { 0 } else { unscanned_sites(vgg) };
                        assert_eq!(packs, expected, "{label}: try_pack ran behind a LIF scan");
                    }
                    let cuts = [&[1; CUT_T][..], &[2, CUT_T - 2], &[CUT_T - 1, 1]];
                    for (cuts, threads) in cuts.into_iter().zip(THREADS) {
                        let mut net = fresh();
                        let got = Runtime::new(threads)
                            .install(|| serve_in_cuts(&mut net, &events, cuts));
                        assert!(
                            got == want,
                            "{label}: cuts {cuts:?} at {threads} threads moved a bit"
                        );
                        let calls = net.conv_dispatch_counts();
                        let n = cuts.len() as u64;
                        assert!(calls.iter().all(|&(s, d)| s + d == n), "{label}: {calls:?}");
                    }
                }
            }
        }
    }
}

/// The spike words a scan hands over are `try_pack` of the spikes it wrote,
/// whenever a timestep's neurons fill whole words — and absent otherwise
/// (63 and 65 neurons), however the sequence is cut, at every count in
/// [`THREADS`].
#[test]
fn scan_words_equal_try_pack_of_the_spikes() {
    let steps = 3;
    let cases = [(1, 63), (1, 64), (1, 65), (2, 32), (2, 96), (3, 64), (4, 4 * 8 * 8)];
    for threads in THREADS {
        let mut rng = Rng::seed_from(33);
        Runtime::new(threads).install(|| {
            for (batch, neurons) in cases {
                let tag = format!("{batch} x {neurons} neurons, {threads} threads");
                let x = Tensor::randn(&[steps * batch, neurons], &mut rng);
                let whole_words = (batch * neurons) % 64 == 0;
                let mut lif = Lif::new(LifConfig::default());
                let (spikes, packed) = lif.scan_tensor(x.clone(), steps, true).unwrap();
                assert_eq!(packed.is_some(), whole_words, "{tag}");
                assert_eq!(packed, SpikeTensor::try_pack(&spikes).filter(|_| whole_words), "{tag}");
                let mut lif = Lif::new(LifConfig::default());
                for t in 0..steps {
                    let (s, p) = lif.scan_tensor(row_range(&x, t * batch, batch), 1, true).unwrap();
                    assert_eq!(s.data(), &spikes.data()[t * batch * neurons..][..batch * neurons]);
                    assert_eq!(p, SpikeTensor::try_pack(&s).filter(|_| whole_words), "{tag} t={t}");
                }
                let (_, unasked) =
                    Lif::new(LifConfig::default()).scan_tensor(x, steps, false).unwrap();
                assert!(unasked.is_none(), "{tag}: no words unless asked for");
            }
        });
    }
}
