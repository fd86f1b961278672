//! Integration test of Algorithm 1 end to end on a single layer:
//! VBMF rank → TT-SVD init → gradient training of the cores → merge-back →
//! spike-compatible dense inference.

use tt_snn::autograd::{Sgd, SgdConfig, Var};
use tt_snn::core::vbmf::estimate_conv_rank;
use tt_snn::core::{merge, ttsvd, TtConv, TtMode};
use tt_snn::tensor::{conv, Conv2dGeometry, Rng, Tensor};

#[test]
fn decompose_train_merge_pipeline() {
    let mut rng = Rng::seed_from(1);
    // Ground-truth target function: a fixed dense convolution.
    let target_w = Tensor::kaiming(&[8, 8, 3, 3], &mut rng);
    let geom = Conv2dGeometry::new(8, 8, (8, 8), (3, 3), (1, 1), (1, 1));

    // Start from a *different* low-rank weight and train the PTT cores to
    // mimic the target on random inputs.
    let start = merge::merge_stt(&ttsvd::TtCores::randn(8, 8, 4, &mut rng)).unwrap();
    let layer = TtConv::from_dense(&start, 6, TtMode::Ptt).unwrap();
    let mut opt =
        Sgd::new(layer.params(), SgdConfig { lr: 0.002, momentum: 0.8, weight_decay: 0.0 });

    let mut first_loss = None;
    let mut last_loss = 0.0f32;
    for _ in 0..80 {
        opt.zero_grad();
        let x = Var::constant(Tensor::randn(&[4, 8, 8, 8], &mut rng));
        let want = Var::constant(conv::conv2d(&x.value(), &target_w, &geom).unwrap());
        let got = layer.forward_sequence(&x, 0, 1).unwrap();
        let err = got.sub(&want).unwrap();
        let loss = err.mul(&err).unwrap().mean_to_scalar();
        last_loss = loss.to_tensor().data()[0];
        first_loss.get_or_insert(last_loss);
        loss.backward();
        opt.step();
    }
    assert!(
        last_loss < first_loss.unwrap() * 0.5,
        "core training should fit the target: {} -> {last_loss}",
        first_loss.unwrap()
    );

    // Merge-back: the dense kernel must reproduce the trained TT forward.
    let merged = layer.merge().unwrap();
    let x = Tensor::randn(&[2, 8, 8, 8], &mut rng);
    let via_tt = layer.forward_tensor(&x, 0).unwrap();
    let via_dense = conv::conv2d(&x, &merged, &geom).unwrap();
    assert!(
        via_tt.max_abs_diff(&via_dense).unwrap() < 1e-3,
        "Eq. (6) merge must match the trained TT pipeline"
    );
}

#[test]
fn vbmf_guides_rank_selection_on_structured_weight() {
    let mut rng = Rng::seed_from(2);
    let truth = ttsvd::TtCores::randn(24, 24, 5, &mut rng);
    let dense = merge::merge_stt(&truth)
        .unwrap()
        .add(&Tensor::randn(&[24, 24, 3, 3], &mut rng).scale(2e-3))
        .unwrap();
    let rank = estimate_conv_rank(&dense).unwrap();
    assert!((3..=8).contains(&rank), "VBMF should land near the true TT-rank 5, got {rank}");
    // The selected rank must reconstruct well.
    let layer = TtConv::from_dense(&dense, rank, TtMode::Stt).unwrap();
    let rel = layer.merge().unwrap().sub(&dense).unwrap().norm() / dense.norm();
    assert!(rel < 0.25, "reconstruction at VBMF rank too lossy: {rel}");
}

#[test]
fn htt_layer_behaves_differently_by_timestep_until_merged() {
    let mut rng = Rng::seed_from(3);
    let layer = TtConv::randn(6, 6, 3, TtMode::htt_default(4), &mut rng);
    let x = Tensor::rand_uniform(&[1, 6, 6, 6], 0.0, 1.0, &mut rng);
    let early = layer.forward_tensor(&x, 0).unwrap();
    let late = layer.forward_tensor(&x, 3).unwrap();
    assert!(early.max_abs_diff(&late).unwrap() > 1e-6);
    // After merge-back, inference is timestep-uniform by construction.
    let merged = layer.merge().unwrap();
    assert_eq!(merged.shape(), &[6, 6, 3, 3]);
}
