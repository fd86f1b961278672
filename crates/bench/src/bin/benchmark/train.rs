//! `train_htt_events` — the paper's headline path.
//!
//! Classic BPTT steps (`forward_batch` → `LossKind::SumCe.compute` →
//! `backward` → `Sgd::step`) on an MS-ResNet18 at width ÷ 8 with the HTT
//! policy, on N-Caltech101-like event data, B = 16, T = 6. The only
//! workload where `core` (TT forward), `autograd` and the backward
//! kernels work; it bypasses `infer`, `serve`, `qkernels` and `spike`.
//!
//! Training runs on the calling thread (the autograd graph is `Rc`-based);
//! the kernels fan out over the runtime pool as they do for any user.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use ttsnn_autograd::{Sgd, SgdConfig};
use ttsnn_core::TtMode;
use ttsnn_data::{Batch, EventStream};
use ttsnn_snn::trainer::forward_batch;
use ttsnn_snn::{ConvPolicy, LossKind, ResNetSnn, SpikingModel};

use crate::fixtures::{self, Stream, CLASSES, HW};
use crate::mem;
use crate::trace::Tracer;
use crate::workload::{ms_since, Round, Scenario, Tally};

/// Samples per step.
pub const BATCH: usize = 16;
/// Timesteps of the BPTT unrolling.
pub const TIMESTEPS: usize = 6;
/// Distinct batches cycled by the steps.
const BATCHES: usize = 4;
/// Untimed steps at the start of every round (arena and pool warm-up).
const WARMUP_STEPS: usize = 2;
/// Steps the loss-must-fall check looks at: four cycles of the batches. A
/// round that gets this far is checked, and always on these same steps, so
/// the verdict depends on the seed alone and not on where a window closed.
const LOSS_CHECK_STEPS: usize = 4 * BATCHES;

/// The optimiser settings of every step (the repo's short-run defaults).
pub const SGD: SgdConfig = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };

/// The prepared workload.
pub struct Train {
    seed: u64,
    /// The training batches.
    pub batches: Vec<Batch>,
    /// Loss bits of the longest round so far, warm-up steps included.
    /// Every round re-initialises the model from the seed, so each round's
    /// losses must equal this sequence bit for bit for as far as it goes.
    losses: RefCell<Vec<u32>>,
}

/// The HTT policy of the workload.
pub fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::htt_default(TIMESTEPS))
}

/// A freshly initialised model under `policy`, and its optimiser.
pub fn fresh(seed: u64, policy: &ConvPolicy) -> (ResNetSnn, Sgd) {
    let model =
        ResNetSnn::new(fixtures::resnet_cfg(), policy, &mut fixtures::rng(seed, Stream::Init));
    let opt = Sgd::new(model.params(), SGD);
    (model, opt)
}

/// Whether `losses` — [`LOSS_CHECK_STEPS`] of them, from step 0 — show a
/// model that trains: the mean loss over the fourth cycle of the batches is
/// below the mean over an earlier cycle. Cycle means compare like with like
/// (the same batches); a model that is not updated repeats its cycle mean
/// exactly and one that diverges ends on its highest, so both fail. A single
/// step's loss against step 0's is no such test: on four of the first forty
/// seeds some step past the sixteenth still sits above step 0.
fn trains(losses: &[f32]) -> bool {
    let means: Vec<f32> =
        losses.chunks(BATCHES).map(|c| c.iter().sum::<f32>() / c.len() as f32).collect();
    means.split_last().is_some_and(|(last, earlier)| earlier.iter().any(|m| last < m))
}

/// One optimisation step, every public call wrapped in a span. Returns
/// the loss.
pub fn step(
    model: &mut ResNetSnn,
    opt: &mut Sgd,
    batch: &Batch,
    tracer: &mut Tracer,
    op_id: u64,
) -> f32 {
    let parent = Some("step");
    tracer.span("zero_grad", op_id, parent, || opt.zero_grad());
    let logits = tracer
        .span("forward_batch", op_id, parent, || forward_batch(model, batch))
        .expect("batch matches the model");
    let loss = tracer
        .span("compute", op_id, parent, || LossKind::SumCe.compute(&logits, &batch.labels))
        .expect("labels match the logits");
    let value = loss.to_tensor().data()[0];
    tracer.span("backward", op_id, parent, || loss.backward());
    tracer.span("step", op_id, parent, || opt.step());
    value
}

impl Train {
    /// Generates the event dataset and its batches from `seed`.
    pub fn prepare(seed: u64) -> Self {
        let mut rng = fixtures::rng(seed, Stream::Data);
        let batches = EventStream::ncaltech_like(HW.0, HW.1, CLASSES, TIMESTEPS)
            .dataset(BATCH * BATCHES, &mut rng)
            .batches(BATCH, TIMESTEPS, &mut rng)
            .expect("batch the event dataset");
        Train { seed, batches, losses: RefCell::new(Vec::new()) }
    }

    /// Whether the loss of step `index` is finite and equals every
    /// earlier round's loss at that step.
    fn check(&self, index: usize, loss: f32) -> bool {
        let mut reference = self.losses.borrow_mut();
        match reference.get(index) {
            Some(&bits) => loss.is_finite() && loss.to_bits() == bits,
            None => {
                reference.push(loss.to_bits());
                loss.is_finite()
            }
        }
    }
}

impl Scenario for Train {
    fn round(&self, window: Duration, trace_epoch: Option<Instant>) -> Round {
        let began = Instant::now();
        let (mut model, mut opt) = fresh(self.seed, &policy());
        let mut tracer = trace_epoch.map_or_else(Tracer::off, |e| Tracer::on(e, 0));
        let mut off = Tracer::off();
        let mut tally = Tally::default();
        let mut warm_ok = true;
        for i in 0..WARMUP_STEPS {
            let loss = step(&mut model, &mut opt, &self.batches[i % BATCHES], &mut off, 0);
            warm_ok &= self.check(i, loss);
        }

        let opened = Instant::now();
        let rss_before = mem::rss_kb();
        let deadline = opened + window;
        let mut index = WARMUP_STEPS;
        while Instant::now() < deadline {
            let t = Instant::now();
            let loss = step(
                &mut model,
                &mut opt,
                &self.batches[index % BATCHES],
                &mut tracer,
                index as u64,
            );
            let ok = self.check(index, loss) && warm_ok;
            tally.op(ms_since(t), ok);
            tracer.root("step", index as u64, t);
            tally.good += if ok { BATCH as u64 } else { 0 };
            index += 1;
        }
        if index >= LOSS_CHECK_STEPS && tally.failed < tally.attempted {
            let reference = self.losses.borrow();
            let losses: Vec<f32> =
                reference[..LOSS_CHECK_STEPS].iter().map(|&b| f32::from_bits(b)).collect();
            if !trains(&losses) {
                // Training that does not train is a failed round, however fast.
                tally.failed = tally.attempted;
                tally.good = 0;
            }
        }
        Round {
            prep_s: opened.duration_since(began).as_secs_f64(),
            window_s: opened.elapsed().as_secs_f64(),
            tally,
            rss_gain_kb: rss_before.zip(mem::rss_kb()).map(|(a, b)| b - a),
            spans: tracer.into_spans(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds re-initialise from the seed, so their losses must repeat bit
    /// for bit; a single differing bit fails that step and every later one
    /// of the round it is in.
    #[test]
    fn rounds_repeat_their_losses_and_a_flipped_bit_fails_the_steps() {
        let train = Train::prepare(5);
        let window = Duration::from_millis(250);
        let (a, b) = (train.round(window, None), train.round(window, None));
        assert!(a.tally.attempted > 0 && b.tally.attempted > 0);
        assert_eq!(a.tally.failed + b.tally.failed, 0);
        assert_eq!(a.tally.good, a.tally.attempted * BATCH as u64);

        train.losses.borrow_mut()[WARMUP_STEPS] ^= 1;
        let c = train.round(window, None);
        assert!(c.tally.failed >= 1 && c.tally.good < c.tally.attempted * BATCH as u64);
    }

    #[test]
    fn a_model_that_stalls_or_diverges_does_not_train() {
        let cycles = |means: [f32; 4]| -> Vec<f32> {
            means.iter().flat_map(|&m| [m - 0.5, m + 0.5, m - 0.25, m + 0.25]).collect()
        };
        // Noisy steps, a bump on the way: the fourth cycle is below the second.
        assert!(trains(&cycles([3.5, 5.0, 3.6, 3.4])));
        assert!(trains(&cycles([3.0, 4.5, 3.5, 3.2])));
        // No update: every cycle repeats. Divergence: the last is the highest.
        assert!(!trains(&cycles([3.5, 3.5, 3.5, 3.5])));
        assert!(!trains(&cycles([3.5, 4.0, 5.0, 6.0])));
        assert!(!trains(&[]));
    }
}
