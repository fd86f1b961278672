//! Inference-plane state snapshot/restore: the `ttsnn_snn` half of the
//! streaming-session contract.
//!
//! [`InferForward::take_infer_state`] moves the LIF membranes out of a
//! model and [`InferForward::restore_infer_state`] moves them back in —
//! no copies, no rounding — so an unrolling interrupted at any timestep
//! and resumed later is **bit-identical** to an uninterrupted one. These
//! tests pin that over VGG9 and ResNet20 under dense and TT policies, on
//! analog and binary event frames, under every sparse-dispatch mode and
//! kernel thread count in [`THREADS`] (the resumed run against a dense
//! one-thread reference), plus the structural guarantees (taking leaves
//! the model stateless, wrong-architecture snapshots are rejected, byte
//! accounting is real).

use proptest::prelude::*;
use ttsnn_core::TtMode;
use ttsnn_snn::{ConvPolicy, InferForward, InferState, Network, ResNetSnn, SpikingModel, VggSnn};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::SparseMode;
use ttsnn_tensor::Tensor;
use ttsnn_testutil::{assert_bits_eq, resnet20_tiny, samples, vgg9_tiny, THREADS};

const TIMESTEPS: usize = 4;

const MODES: [SparseMode; 3] = [SparseMode::Off, SparseMode::Auto, SparseMode::Force];

/// The architectures × policies the streaming plane serves.
fn builds(seed: u64) -> Vec<(String, Network)> {
    let mut rng = ttsnn_tensor::Rng::seed_from(seed);
    let mut out = Vec::new();
    for policy in [ConvPolicy::Baseline, ConvPolicy::tt(TtMode::Ptt)] {
        let vgg = VggSnn::new(vgg9_tiny(), &policy, &mut rng);
        out.push((vgg.name(), vgg));
        let res = ResNetSnn::new(resnet20_tiny(5), &policy, &mut rng);
        out.push((res.name(), res));
    }
    out
}

/// B=1 analog frames, one per timestep.
fn frames(seed: u64) -> Vec<Tensor> {
    samples(seed ^ 0xBEEF, TIMESTEPS)
        .into_iter()
        .map(|f| {
            let mut shape = vec![1usize];
            shape.extend_from_slice(f.shape());
            Tensor::from_vec(f.data().to_vec(), &shape).unwrap()
        })
        .collect()
}

/// The same frames thresholded to binary events (about 15 % ones), which
/// the first convolution can serve from the event-driven kernels.
fn event_frames(seed: u64) -> Vec<Tensor> {
    frames(seed).iter().map(|f| f.map(|v| f32::from(v < 0.15))).collect()
}

/// Runs `t0..t1` on the inference plane, summing logits into `sum`.
fn run_span(
    model: &mut Network,
    frames: &[Tensor],
    t0: usize,
    t1: usize,
    sum: &mut Option<Tensor>,
) {
    for (t, frame) in frames.iter().enumerate().take(t1).skip(t0) {
        let logits = model.forward_timestep_tensor(frame, t).unwrap();
        match sum.as_mut() {
            Some(s) => s.add_scaled(&logits, 1.0).unwrap(),
            None => *sum = Some(logits),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: snapshot/restore at an arbitrary cut point
    /// resumes the unrolling bit-identically — per-timestep logits and
    /// the time-summed readout both match the uninterrupted dense
    /// one-thread run exactly, whatever mode and thread count resumed it.
    #[test]
    fn interrupted_unrolling_is_bit_identical(
        seed in 0u64..500,
        cut in 1usize..TIMESTEPS,
        mode in 0usize..MODES.len(),
        threads in 0usize..THREADS.len(),
    ) {
        let (mode, threads) = (MODES[mode], THREADS[threads]);
        for (kind, input) in [("analog", frames(seed)), ("events", event_frames(seed))] {
            for (name, mut model) in builds(seed) {
                // Uninterrupted reference.
                model.set_sparse_mode(SparseMode::Off);
                model.reset_state();
                let mut whole: Option<Tensor> = None;
                Runtime::new(1)
                    .install(|| run_span(&mut model, &input, 0, TIMESTEPS, &mut whole));

                // Interrupted at `cut`: move the state out, pretend the model
                // served something else, move it back, resume.
                model.set_sparse_mode(mode);
                model.reset_state();
                let mut resumed: Option<Tensor> = None;
                Runtime::new(threads).install(|| {
                    run_span(&mut model, &input, 0, cut, &mut resumed);
                    let snapshot = model.take_infer_state();
                    assert!(
                        snapshot.bytes() > 0,
                        "{name}: membranes must be resident after a step"
                    );
                    // The model is stateless now; run unrelated traffic over it.
                    model.reset_state();
                    let decoy = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0,
                        &mut ttsnn_tensor::Rng::seed_from(seed ^ 0xD0));
                    model.forward_timestep_tensor(&decoy, 0).unwrap();
                    model.reset_state();
                    model.restore_infer_state(snapshot).unwrap();
                    run_span(&mut model, &input, cut, TIMESTEPS, &mut resumed);
                });

                assert_bits_eq(
                    &whole.unwrap(),
                    &resumed.unwrap(),
                    &format!("{name} {kind}: resume at t={cut} ({mode:?}, {threads} threads)"),
                );
            }
        }
    }
}

/// Taking the state leaves the model stateless on the inference plane: a
/// second take is empty, and forwarding again behaves exactly like a
/// fresh reset.
#[test]
fn take_leaves_the_model_stateless() {
    let input = frames(17);
    for (name, mut model) in builds(17) {
        model.reset_state();
        run_span(&mut model, &input, 0, 2, &mut None);
        let first = model.take_infer_state();
        assert!(first.layers() > 0 && first.bytes() > 0, "{name}");
        let second = model.take_infer_state();
        assert_eq!(second.bytes(), 0, "{name}: second take must find no membranes");

        // Post-take forward == fresh-reset forward, bit for bit.
        let mut after_take: Option<Tensor> = None;
        run_span(&mut model, &input, 0, 1, &mut after_take);
        model.reset_state();
        let mut fresh: Option<Tensor> = None;
        run_span(&mut model, &input, 0, 1, &mut fresh);
        assert_bits_eq(&after_take.unwrap(), &fresh.unwrap(), &format!("{name}: post-take"));
    }
}

/// A snapshot from a different architecture is rejected up front (layer
/// count mismatch), and the rejected model still serves correctly.
#[test]
fn restore_rejects_foreign_snapshots() {
    let mut rng = ttsnn_tensor::Rng::seed_from(23);
    let mut vgg = VggSnn::new(vgg9_tiny(), &ConvPolicy::Baseline, &mut rng);
    let mut res = ResNetSnn::new(resnet20_tiny(5), &ConvPolicy::Baseline, &mut rng);
    let input = frames(23);
    vgg.reset_state();
    run_span(&mut vgg, &input, 0, 1, &mut None);
    let vgg_state = vgg.take_infer_state();
    let err = res.restore_infer_state(vgg_state).unwrap_err();
    assert!(err.to_string().contains("layers"), "unclear error: {err}");
    // The ResNet is untouched: it still runs from reset.
    res.reset_state();
    let mut sum: Option<Tensor> = None;
    run_span(&mut res, &input, 0, TIMESTEPS, &mut sum);
    assert!(sum.unwrap().data().iter().all(|v| v.is_finite()));
}

/// Round-tripping a snapshot through its raw membranes preserves every
/// tensor (the `InferState` container adds nothing and loses nothing).
#[test]
fn snapshot_membranes_round_trip() {
    let input = frames(29);
    let (_, mut model) = ttsnn_testutil::vgg_checkpoint(&ConvPolicy::Baseline, 29);
    model.reset_state();
    run_span(&mut model, &input, 0, 2, &mut None);
    let snapshot = model.take_infer_state();
    let layers = snapshot.layers();
    let bytes = snapshot.bytes();
    let membranes = snapshot.into_membranes();
    assert_eq!(membranes.len(), layers);
    let rebuilt = InferState::from_membranes(membranes);
    assert_eq!(rebuilt.layers(), layers);
    assert_eq!(rebuilt.bytes(), bytes);
    model.restore_infer_state(rebuilt).unwrap();
    // And the restored model resumes: one more step runs clean.
    run_span(&mut model, &input, 2, 3, &mut None);
}
