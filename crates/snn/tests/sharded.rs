//! Determinism and compatibility tests for the data-parallel trainer.
//!
//! The headline property: with a fixed micro-batch size, training through
//! [`ShardedTrainer`] produces **bit-identical weights for every shard
//! count** (1–4 replicas here), because micro-batch gradients are reduced
//! in fixed global order regardless of which worker computed them. The
//! kernel runtime underneath is itself bit-identical across thread counts
//! (asserted in `crates/tensor/tests/runtime_kernels.rs`), and the shards
//! run on the runtime installed where the trainer was built, so the
//! property test sweeps the full shards × [`THREADS`] matrix.

use proptest::prelude::*;
use ttsnn_autograd::{Sgd, SgdConfig, Var};
use ttsnn_data::{Batch, StaticImages};
use ttsnn_snn::checkpoint;
use ttsnn_snn::conv_unit::ConvPolicy;
use ttsnn_snn::trainer::{evaluate, train_step, TrainConfig};
use ttsnn_snn::{LossKind, ResNetConfig, ResNetSnn, ShardConfig, ShardedTrainer, SpikingModel};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::THREADS;

/// A deterministic tiny-model factory: same seed → bit-identical replicas.
fn factory(seed: u64) -> impl Fn() -> ResNetSnn + Send + Sync + Clone + 'static {
    move || {
        let mut rng = Rng::seed_from(seed);
        let cfg = ResNetConfig::resnet18(4, (8, 8), 16);
        ResNetSnn::new(cfg, &ConvPolicy::Baseline, &mut rng)
    }
}

/// Small synthetic batches: `n` batches of 12 samples, 2 timesteps.
fn batches(seed: u64, n: usize) -> Vec<Batch> {
    let mut rng = Rng::seed_from(seed.wrapping_add(1000));
    let gen = StaticImages::new(3, 8, 8, 4, 0.15, 99);
    let ds = gen.dataset(12 * n, &mut rng);
    ds.batches(12, 2, &mut rng).unwrap()
}

const SGD: SgdConfig = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };

/// Weights after `steps` sharded optimizer steps with the given replica
/// count (micro-batch fixed at 3 → 4 micro-batches per 12-sample batch).
fn weights_after(seed: u64, shards: usize, steps: usize) -> Vec<Tensor> {
    let data = batches(seed, 2);
    let mut trainer = ShardedTrainer::new(ShardConfig::new(shards, 3), factory(seed));
    for s in 0..steps {
        let (loss, _) = trainer.step(&data[s % data.len()], LossKind::SumCe, SGD).unwrap();
        assert!(loss.is_finite(), "seed {seed} shards {shards} step {s}: loss {loss}");
    }
    assert!(trainer.replicas_in_sync(), "seed {seed} shards {shards}: replicas diverged");
    trainer.params()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// ≥3 optimizer steps, 1–4 shards, every kernel thread count:
    /// identical bits, whatever the seed.
    #[test]
    fn sharded_training_is_bit_identical_across_shard_counts(seed in 0u64..100) {
        let reference = Runtime::new(1).install(|| weights_after(seed, 1, 3));
        for threads in THREADS {
            for shards in 1..=4usize {
                let got = Runtime::new(threads).install(|| weights_after(seed, shards, 3));
                prop_assert_eq!(reference.len(), got.len());
                for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                    prop_assert!(
                        a == b,
                        "param {i} differs between 1 shard on 1 thread and {} shards on {} \
                         threads (seed {})", shards, threads, seed
                    );
                }
            }
        }
    }
}

/// One shard with `micro_batch == batch_size` is the classic trainer, bit
/// for bit: same forward, same backward, same SGD arithmetic.
#[test]
fn single_shard_full_micro_batch_matches_classic_train_step() {
    let seed = 7u64;
    let data = batches(seed, 2);

    // Classic: model + Sgd on this thread.
    let mut model = factory(seed)();
    let mut opt = Sgd::new(model.params(), SGD);
    for batch in data.iter().cycle().take(4) {
        train_step(&mut model, batch, &mut opt, LossKind::SumCe).unwrap();
    }

    // Sharded: one replica, micro-batch = full batch.
    let mut trainer = ShardedTrainer::new(ShardConfig::new(1, 12), factory(seed));
    for batch in data.iter().cycle().take(4) {
        trainer.step(batch, LossKind::SumCe, SGD).unwrap();
    }

    let classic: Vec<Tensor> = model.params().iter().map(Var::to_tensor).collect();
    let sharded = trainer.params();
    assert_eq!(classic.len(), sharded.len());
    for (i, (a, b)) in classic.iter().zip(&sharded).enumerate() {
        assert!(a == b, "param {i}: sharded(1, micro=B) must equal classic training bitwise");
    }

    // Evaluation agrees too (integer-count reduction, order-free).
    let expected = evaluate(&mut model, &data).unwrap();
    assert_eq!(trainer.evaluate(&data).unwrap(), expected);
}

/// The epoch-level driver mirrors `trainer::train` semantics and reports
/// the shard count; losses stay finite and the run completes.
#[test]
fn sharded_train_runs_epochs_and_reports() {
    let seed = 11u64;
    let data = batches(seed, 3);
    let (train_b, test_b) = data.split_at(2);
    let mut trainer = ShardedTrainer::new(ShardConfig::new(2, 4), factory(seed));
    let cfg = TrainConfig { epochs: 2, lr: 0.05, ..TrainConfig::default() };
    let report = trainer.train(train_b, test_b, &cfg).unwrap();
    assert_eq!(report.epochs.len(), 2);
    assert_eq!(report.shards, 2);
    assert!(report.final_loss().is_finite());
    assert!(report.mean_step_timing.total > 0.0);
    assert!(trainer.replicas_in_sync());
}

/// Checkpoints written by the sharded trainer load into a classic model
/// (and vice versa), and a checkpoint broadcast resynchronizes every
/// replica of another trainer with a different shard count.
#[test]
fn sharded_checkpoints_interop_with_classic_models() {
    let seed = 3u64;
    let data = batches(seed, 1);
    let mut trainer = ShardedTrainer::new(ShardConfig::new(2, 6), factory(seed));
    trainer.step(&data[0], LossKind::SumCe, SGD).unwrap();

    // Sharded → classic.
    let mut buf = Vec::new();
    trainer.save_checkpoint(&mut buf).unwrap();
    let classic = factory(seed)();
    checkpoint::load_params(&classic.params(), buf.as_slice()).unwrap();
    let classic_params: Vec<Tensor> = classic.params().iter().map(Var::to_tensor).collect();
    assert_eq!(classic_params, trainer.params());

    // Sharded → sharded with a different shard count: all replicas match.
    let mut other = ShardedTrainer::new(ShardConfig::new(3, 6), factory(seed + 1));
    other.load_checkpoint(buf.as_slice()).unwrap();
    assert_eq!(other.params(), trainer.params());
    assert!(other.replicas_in_sync());

    // Classic → sharded.
    let mut buf2 = Vec::new();
    checkpoint::save_params(&classic.params(), &mut buf2).unwrap();
    let mut third = ShardedTrainer::new(ShardConfig::new(2, 6), factory(seed + 2));
    third.load_checkpoint(buf2.as_slice()).unwrap();
    assert_eq!(third.params(), trainer.params());
}

/// Misconfigured batches are rejected without touching replica state.
#[test]
fn sharded_step_rejects_indivisible_batches() {
    let seed = 5u64;
    let data = batches(seed, 1);
    let mut trainer = ShardedTrainer::new(ShardConfig::new(2, 5), factory(seed));
    let before = trainer.params();
    assert!(trainer.step(&data[0], LossKind::SumCe, SGD).is_err(), "12 % 5 != 0 must fail");
    assert_eq!(trainer.params(), before, "failed step must not move weights");
    assert!(trainer.replicas_in_sync());
}
