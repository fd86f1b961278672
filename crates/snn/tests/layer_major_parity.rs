//! Layer-major training against its timestep-major oracle.
//!
//! The training plane runs every layer once over all `T` timesteps
//! ([`Network::forward_sequence`]). The same models can still be fed a
//! timestep at a time ([`Network::forward_timestep`], a sequence of
//! one, the LIF layers carrying their membranes from call to call), which
//! is how they were trained before and is the oracle here: one call over
//! `T` timesteps against `T` calls must give
//!
//! * the same logits, loss and input-frame gradient, **bit for bit** (every
//!   activation and activation gradient is computed by the same float
//!   operations in the same order), and
//! * the same parameter gradients to rounding (1e-6 of the model's largest
//!   gradient entry): a weight's gradient adds its timesteps' contributions
//!   in one order in one call and in another over `T` calls.
//!
//! Over MS-ResNet18 {dense, STT, PTT, HTT} and VGG9, tdBN and TEBN,
//! `B ∈ {1, 3, 8, 16}`, `T ∈ {1, 4, 6}`, HTT schedules with one, two and
//! four runs. Every oracle test runs under kernel thread counts from
//! [`THREADS`], each installed with `Runtime::new(n).install`, and the
//! sequence path's own bits are pinned at every one of them (CI also runs
//! this suite on one CPU).

use ttsnn_autograd::Var;
use ttsnn_core::{HttSchedule, TtMode};
use ttsnn_data::Batch;
use ttsnn_snn::trainer::forward_batch;
use ttsnn_snn::{
    ConvPolicy, LossKind, Network, NormKind, ResNetConfig, ResNetSnn, SpikingModel, VggConfig,
    VggSnn,
};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::THREADS;

const CLASSES: usize = 5;
const HW: usize = 8;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// What one pass over a batch leaves behind.
struct Pass {
    logits: Vec<Vec<u32>>,
    loss: u32,
    input_grad: Vec<u32>,
    param_grads: Vec<Option<Tensor>>,
}

/// Runs `forward` (which returns the per-timestep logits and the input
/// leaves, in time order), the loss and the backward sweep on a freshly
/// reset model with zeroed gradients.
fn pass(
    model: &mut Network,
    labels: &[usize],
    loss: LossKind,
    forward: impl FnOnce(&mut Network) -> (Vec<Var>, Vec<Var>),
) -> Pass {
    model.params().iter().for_each(Var::zero_grad);
    model.reset_state();
    let (logits, inputs) = forward(model);
    let loss = loss.compute(&logits, labels).expect("loss");
    loss.backward();
    let loss_bits = loss.value().data()[0].to_bits();
    Pass {
        logits: logits.iter().map(|l| bits(&l.value())).collect(),
        loss: loss_bits,
        input_grad: inputs
            .iter()
            .flat_map(|x| bits(&x.grad().expect("gradient reaches the input")))
            .collect(),
        param_grads: model.params().iter().map(Var::grad).collect(),
    }
}

/// One `forward_sequence` over the stacked frames.
fn layer_major(model: &mut Network, frames: &[Tensor], labels: &[usize]) -> Pass {
    let stacked = Var::param(stack(frames));
    pass(model, labels, LossKind::SumCe, |m| {
        let logits = m.forward_sequence(&stacked, 0, frames.len()).expect("sequence forward");
        (logits, vec![stacked.clone()])
    })
}

/// `T` `forward_timestep` calls.
fn timestep_major(model: &mut Network, frames: &[Tensor], labels: &[usize]) -> Pass {
    pass(model, labels, LossKind::SumCe, |m| {
        let inputs: Vec<Var> = frames.iter().map(|f| Var::param(f.clone())).collect();
        let logits = inputs
            .iter()
            .enumerate()
            .map(|(t, x)| m.forward_timestep(x, t).expect("timestep forward"))
            .collect();
        (logits, inputs)
    })
}

fn stack(frames: &[Tensor]) -> Tensor {
    let mut shape = frames[0].shape().to_vec();
    shape[0] *= frames.len();
    let data: Vec<f32> = frames.iter().flat_map(|f| f.data().iter().copied()).collect();
    Tensor::from_vec(data, &shape).unwrap()
}

/// `T` frames `(B, C, H, W)`: binary events for 2 channels, analog
/// intensities otherwise.
fn frames(channels: usize, batch: usize, t: usize, rng: &mut Rng) -> Vec<Tensor> {
    (0..t)
        .map(|_| {
            let x = Tensor::rand_uniform(&[batch, channels, HW, HW], 0.0, 1.0, rng);
            if channels == 2 {
                x.map(|v| f32::from(v < 0.2))
            } else {
                x
            }
        })
        .collect()
}

fn assert_same(tag: &str, seq: &Pass, steps: &Pass) {
    assert_eq!(seq.logits, steps.logits, "{tag}: logits");
    assert_eq!(seq.loss, steps.loss, "{tag}: loss");
    assert_eq!(seq.input_grad, steps.input_grad, "{tag}: input-frame gradient");
    assert_eq!(seq.param_grads.len(), steps.param_grads.len());
    // The two paths add the same per-sample terms in different orders, so
    // they differ by rounding at the scale of the terms, not of the sum:
    // behind a batch norm the terms cancel (its backward makes them sum to
    // zero against constants and against x̂), by three orders of magnitude
    // in places. The model's largest gradient entry stands in for that
    // scale; the worst case measured over this suite is 2.1e-7 of it.
    let largest = |grads: &[Option<Tensor>]| {
        grads.iter().flatten().flat_map(|g| g.data()).fold(0.0f32, |m, v| m.max(v.abs()))
    };
    let scale = largest(&seq.param_grads).max(largest(&steps.param_grads));
    for (i, pair) in seq.param_grads.iter().zip(&steps.param_grads).enumerate() {
        match pair {
            (Some(a), Some(b)) => {
                let err = a.max_abs_diff(b).unwrap();
                assert!(err <= 1e-6 * scale, "{tag}: parameter {i} differs by {err} of {scale}");
            }
            (None, None) => {}
            _ => panic!("{tag}: parameter {i} got a gradient on one path only"),
        }
    }
}

fn htt(pattern: &str) -> ConvPolicy {
    ConvPolicy::tt(TtMode::Htt(HttSchedule::from_pattern(pattern).unwrap()))
}

fn resnet18(norm: NormKind, policy: &ConvPolicy, rng: &mut Rng) -> ResNetSnn {
    let mut cfg = ResNetConfig::resnet18_events(CLASSES, (HW, HW), 16);
    cfg.norm = norm;
    ResNetSnn::new(cfg, policy, rng)
}

fn vgg9(norm: NormKind, policy: &ConvPolicy, rng: &mut Rng) -> VggSnn {
    let mut cfg = VggConfig::vgg9(3, CLASSES, (HW, HW), 16);
    cfg.norm = norm;
    VggSnn::new(cfg, policy, rng)
}

fn norms(t: usize) -> [(&'static str, NormKind); 2] {
    [("tdBN", NormKind::TdBn { alpha: 1.0, vth: 0.5 }), ("TEBN", NormKind::Tebn { timesteps: t })]
}

/// The `(T, B)` grid runs each cell at one kernel thread count, cycling
/// through [`THREADS`] so that every `T` and every `B` meets every count.
#[test]
fn one_sequence_call_equals_t_timestep_calls() {
    let mut rng = Rng::seed_from(2024);
    let mut cell = 0;
    for t in [1usize, 4, 6] {
        let policies = [
            ("dense", ConvPolicy::Baseline),
            ("STT", ConvPolicy::tt(TtMode::Stt)),
            ("PTT", ConvPolicy::tt(TtMode::Ptt)),
            ("HTT", ConvPolicy::tt(TtMode::htt_default(t))),
        ];
        for batch in [1usize, 3, 8, 16] {
            let threads = THREADS[cell % THREADS.len()];
            cell += 1;
            let labels: Vec<usize> = (0..batch).map(|s| s % CLASSES).collect();
            Runtime::new(threads).install(|| {
                for (norm_name, norm) in norms(t) {
                    for (policy_name, policy) in &policies {
                        let tag = format!(
                            "ResNet18 {policy_name} {norm_name} B={batch} T={t} ({threads} threads)"
                        );
                        let mut model = resnet18(norm, policy, &mut rng);
                        let x = frames(2, batch, t, &mut rng);
                        let seq = layer_major(&mut model, &x, &labels);
                        assert_same(&tag, &seq, &timestep_major(&mut model, &x, &labels));
                    }
                    let tag = format!("VGG9 PTT {norm_name} B={batch} T={t} ({threads} threads)");
                    let mut model = vgg9(norm, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
                    let x = frames(3, batch, t, &mut rng);
                    let seq = layer_major(&mut model, &x, &labels);
                    assert_same(&tag, &seq, &timestep_major(&mut model, &x, &labels));
                }
            });
        }
    }
}

/// HTT schedules whose full and half timesteps come in one, two and four
/// runs; a schedule shorter than the sequence repeats its last entry. The
/// same models at every count in [`THREADS`].
#[test]
fn htt_schedules_of_any_shape_match_their_oracle() {
    let labels = [0usize, 1, 2];
    for threads in THREADS {
        let mut rng = Rng::seed_from(2025);
        Runtime::new(threads).install(|| {
            for pattern in ["FFHH", "FHFH", "HHHH", "HFFH", "FH"] {
                for (norm_name, norm) in norms(4) {
                    let mut model = resnet18(norm, &htt(pattern), &mut rng);
                    let x = frames(2, 3, 4, &mut rng);
                    let seq = layer_major(&mut model, &x, &labels);
                    let tag = format!("ResNet18 HTT[{pattern}] {norm_name} ({threads} threads)");
                    assert_same(&tag, &seq, &timestep_major(&mut model, &x, &labels));
                }
            }
        });
    }
}

/// A sequence fed in calls of uneven length: the same logits, loss and
/// input gradients as one call; the same model at every count in
/// [`THREADS`].
#[test]
fn a_sequence_cut_into_uneven_calls_gives_the_same_logits() {
    let labels = [3usize, 1, 4, 0];
    for threads in THREADS {
        let mut rng = Rng::seed_from(2026);
        Runtime::new(threads).install(|| {
            let mut model = resnet18(NormKind::Tebn { timesteps: 6 }, &htt("FFHHFH"), &mut rng);
            let x = frames(2, 4, 6, &mut rng);
            let whole = layer_major(&mut model, &x, &labels);
            let cut = pass(&mut model, &labels, LossKind::SumCe, |m| {
                let head = Var::param(stack(&x[..4]));
                let tail = Var::param(stack(&x[4..]));
                let mut logits = m.forward_sequence(&head, 0, 4).unwrap();
                logits.extend(m.forward_sequence(&tail, 4, 2).unwrap());
                (logits, vec![head, tail])
            });
            assert_eq!(whole.logits, cut.logits, "{threads} threads");
            assert_eq!(whole.loss, cut.loss, "{threads} threads");
            assert_eq!(whole.input_grad, cut.input_grad, "{threads} threads");
        });
    }
}

/// `forward_batch` is the sequence path: stacking the frames itself changes
/// nothing, on any count in [`THREADS`], and what it rejects it rejects by
/// timestep.
#[test]
fn forward_batch_stacks_and_validates() {
    let mut rng = Rng::seed_from(2027);
    let mut model = resnet18(NormKind::TdBn { alpha: 1.0, vth: 0.5 }, &htt("FFHH"), &mut rng);
    let batch = Batch { frames: frames(2, 3, 4, &mut rng), labels: vec![0, 1, 2] };
    let want = layer_major(&mut model, &batch.frames, &batch.labels).logits;
    for threads in THREADS {
        let via_batch: Vec<Vec<u32>> = Runtime::new(threads).install(|| {
            forward_batch(&mut model, &batch).unwrap().iter().map(|l| bits(&l.value())).collect()
        });
        assert_eq!(via_batch, want, "{threads} threads");
    }

    let error = |batch: &Batch, model: &mut ResNetSnn| {
        forward_batch(model, batch).expect_err("a malformed batch").to_string()
    };
    let empty = Batch { frames: Vec::new(), labels: vec![0, 1, 2] };
    assert!(error(&empty, &mut model).contains("no timesteps"));
    let mut ragged = batch.clone();
    ragged.frames[2] = Tensor::zeros(&[3, 2, HW, HW / 2]);
    assert!(error(&ragged, &mut model).contains("timestep 2"), "{}", error(&ragged, &mut model));
    let mut short = batch.clone();
    short.labels.pop();
    assert!(error(&short, &mut model).contains("timestep 0"), "{}", error(&short, &mut model));
    // A rejected batch leaves the model as it was: the next one trains.
    assert!(forward_batch(&mut model, &batch).is_ok());
}

/// FNV-1a over a pass: logits, loss, input gradient, parameter gradients.
fn checksum(p: &Pass) -> u64 {
    let grads = p.param_grads.iter().flatten().flat_map(bits);
    let words =
        p.logits.iter().flatten().copied().chain([p.loss]).chain(p.input_grad.iter().copied());
    words.chain(grads).flat_map(u32::to_le_bytes).fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The sequence path's own bits — parameter gradients included, whose
/// summation order is this path's — recorded once at one kernel thread.
/// The kernels, the grouped tdBN and the LIF scan split their work without
/// changing what an element computes, so the same constants hold under
/// every installed thread count.
#[test]
fn sequence_path_bits_do_not_depend_on_the_thread_count() {
    let labels: Vec<usize> = (0..16).map(|s| s % CLASSES).collect();
    let want = [0xfc49b0c464f96afe, 0x25a096976e1b5ca7, 0xc5bba640e211b47b, 0xd53f22d3374f6b1d_u64];
    for threads in THREADS {
        let mut rng = Rng::seed_from(2028);
        let mut got = Vec::new();
        Runtime::new(threads).install(|| {
            for (_, norm) in norms(6) {
                let mut resnet = resnet18(norm, &ConvPolicy::tt(TtMode::htt_default(6)), &mut rng);
                got.push(checksum(&layer_major(&mut resnet, &frames(2, 16, 6, &mut rng), &labels)));
                let mut vgg = vgg9(norm, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
                got.push(checksum(&layer_major(&mut vgg, &frames(3, 16, 6, &mut rng), &labels)));
            }
        });
        assert!(got == want, "sequence-path bits moved at {threads} threads: {got:#018x?}");
    }
}
