//! Integration tests of the deployment path: train a TT network, merge it
//! back to dense kernels (Algorithm 1, lines 20–22), and verify the dense
//! model behaves like the TT model — plus the measured-sparsity bridge
//! into the accelerator energy model.

use tt_snn::accel::{simulate, AcceleratorConfig, EnergyModel, Method, Target};
use tt_snn::core::TtMode;
use tt_snn::data::StaticImages;
use tt_snn::snn::{
    evaluate, resnet18_cifar, train, ConvPolicy, ResNetConfig, ResNetSnn, SpikingModel, TrainConfig,
};
use tt_snn::tensor::Rng;

#[test]
fn trained_ptt_network_survives_merge_back() {
    let timesteps = 2;
    let mut rng = Rng::seed_from(1);
    let ds = StaticImages::new(3, 8, 8, 3, 0.15, 77).dataset(48, &mut rng);
    let (tr, te) = ds.split(0.75, &mut rng);
    let train_b = tr.batches(12, timesteps, &mut rng).unwrap();
    let test_b = te.batches(12, timesteps, &mut rng).unwrap();

    let mut model = ResNetSnn::new(
        ResNetConfig::resnet18(3, (8, 8), 16),
        &ConvPolicy::tt(TtMode::Ptt),
        &mut rng,
    );
    let cfg = TrainConfig { epochs: 3, lr: 0.05, ..TrainConfig::default() };
    train(&mut model, &train_b, &test_b, &cfg).unwrap();

    let acc_tt = evaluate(&mut model, &test_b).unwrap();
    let merged = model.merge_into_dense().unwrap();
    assert_eq!(merged, 16);
    let acc_dense = evaluate(&mut model, &test_b).unwrap();
    assert!(
        (acc_tt - acc_dense).abs() < 1e-6,
        "merged-dense accuracy {acc_dense} must equal TT accuracy {acc_tt}"
    );
}

#[test]
fn measured_spike_activity_feeds_energy_model() {
    let timesteps = 2;
    let mut rng = Rng::seed_from(2);
    let ds = StaticImages::new(3, 8, 8, 3, 0.15, 78).dataset(24, &mut rng);
    let batches = ds.batches(12, timesteps, &mut rng).unwrap();
    let mut model = ResNetSnn::new(
        ResNetConfig::resnet18(3, (8, 8), 16),
        &ConvPolicy::tt(TtMode::Ptt),
        &mut rng,
    );
    assert!(model.mean_spike_activity().is_none(), "no activity before any forward");
    evaluate(&mut model, &batches).unwrap();
    let activity =
        model.mean_spike_activity().expect("activity must be recorded after a forward pass");
    assert!((0.0..=1.0).contains(&activity), "activity {activity} must be a firing rate");

    // Bridge: price the training energy with the measured sparsity rather
    // than the default constant. Lower activity => lower spike-driven
    // compute energy, monotonic by construction.
    let spec = resnet18_cifar(10);
    let cfg = AcceleratorConfig::paper();
    let mut em = EnergyModel::nm28();
    em.spike_activity = activity.clamp(0.01, 1.0);
    let with_measured = simulate(&spec, Method::Ptt, Target::SingleEngine, &cfg, &em);
    em.spike_activity = 1.0;
    let dense_activity = simulate(&spec, Method::Ptt, Target::SingleEngine, &cfg, &em);
    assert!(with_measured.total_pj() <= dense_activity.total_pj());
}
