//! End-to-end training integration tests across crates: synthetic data →
//! spiking ResNet with TT convolutions → BPTT → metrics.

use tt_snn::core::TtMode;
use tt_snn::data::{EventStream, StaticImages};
use tt_snn::snn::{train, ConvPolicy, ResNetConfig, ResNetSnn, SpikingModel, TrainConfig};
use tt_snn::tensor::Rng;

fn static_batches(
    seed: u64,
    timesteps: usize,
) -> (Vec<tt_snn::data::Batch>, Vec<tt_snn::data::Batch>) {
    let mut rng = Rng::seed_from(seed);
    let ds = StaticImages::new(3, 8, 8, 4, 0.15, 5).dataset(64, &mut rng);
    let (tr, te) = ds.split(0.75, &mut rng);
    (tr.batches(12, timesteps, &mut rng).unwrap(), te.batches(12, timesteps, &mut rng).unwrap())
}

#[test]
fn all_four_methods_train_and_loss_decreases() {
    let timesteps = 2;
    let (train_b, test_b) = static_batches(1, timesteps);
    let cfg = TrainConfig { epochs: 3, lr: 0.05, ..TrainConfig::default() };
    for policy in [
        ConvPolicy::Baseline,
        ConvPolicy::tt(TtMode::Stt),
        ConvPolicy::tt(TtMode::Ptt),
        ConvPolicy::tt(TtMode::htt_default(timesteps)),
    ] {
        let mut rng = Rng::seed_from(2);
        let mut model = ResNetSnn::new(ResNetConfig::resnet18(4, (8, 8), 16), &policy, &mut rng);
        let report = train(&mut model, &train_b, &test_b, &cfg).unwrap();
        assert!(
            report.final_loss() < report.first_loss(),
            "{}: loss {} -> {}",
            model.name(),
            report.first_loss(),
            report.final_loss()
        );
    }
}

#[test]
fn tt_methods_train_faster_per_batch_than_baseline() {
    // The Table II "training time" shape: TT methods beat the baseline on
    // per-batch wall clock once the model is wide enough for the
    // compression to dominate per-layer overheads.
    let timesteps = 2;
    let (train_b, test_b) = static_batches(3, timesteps);
    let cfg = TrainConfig { epochs: 2, lr: 0.05, ..TrainConfig::default() };
    let time_of = |policy: &ConvPolicy| {
        let mut rng = Rng::seed_from(4);
        let mut model = ResNetSnn::new(ResNetConfig::resnet18(4, (8, 8), 4), policy, &mut rng);
        train(&mut model, &train_b, &test_b, &cfg).unwrap().mean_step_timing.total
    };
    let t_base = time_of(&ConvPolicy::Baseline);
    let t_ptt = time_of(&ConvPolicy::tt(TtMode::Ptt));
    assert!(t_ptt < t_base, "PTT per-batch time {t_ptt:.4}s should beat baseline {t_base:.4}s");
}

#[test]
fn dynamic_data_trains_with_distinct_frames() {
    let timesteps = 4;
    let mut rng = Rng::seed_from(5);
    let ds = EventStream::ncaltech_like(12, 12, 4, timesteps).dataset(48, &mut rng);
    let (tr, te) = ds.split(0.75, &mut rng);
    let train_b = tr.batches(12, timesteps, &mut rng).unwrap();
    let test_b = te.batches(12, timesteps, &mut rng).unwrap();
    let mut model = ResNetSnn::new(
        ResNetConfig::resnet34_events(4, (12, 12), 32),
        &ConvPolicy::tt(TtMode::Ptt),
        &mut rng,
    );
    let cfg = TrainConfig { epochs: 2, lr: 0.05, ..TrainConfig::default() };
    let report = train(&mut model, &train_b, &test_b, &cfg).unwrap();
    assert!(report.final_loss().is_finite());
    assert!(report.final_loss() < report.first_loss() * 1.2, "training must not diverge");
}

#[test]
fn htt_macs_strictly_below_ptt_in_model() {
    let mut rng = Rng::seed_from(6);
    let t = 4;
    let ptt = ResNetSnn::new(
        ResNetConfig::resnet18(4, (8, 8), 8),
        &ConvPolicy::tt(TtMode::Ptt),
        &mut rng,
    );
    let htt = ResNetSnn::new(
        ResNetConfig::resnet18(4, (8, 8), 8),
        &ConvPolicy::tt(TtMode::htt_default(t)),
        &mut rng,
    );
    let ptt_total: usize = (0..t).map(|s| ptt.macs_at(s)).sum();
    let htt_total: usize = (0..t).map(|s| htt.macs_at(s)).sum();
    assert!(htt_total < ptt_total);
    assert_eq!(ptt.num_params(), htt.num_params(), "HTT shares weights (Table II)");
}
