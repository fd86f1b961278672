//! The order contract of the layer program (`ttsnn_snn::network`), pinned as
//! literals taken from the hand-written models this program replaced.
//!
//! Five things follow program order and have to stay in step with each
//! other and with every file already on disk: RNG draws (seeded
//! initialisation), `params()` (the checkpoint layout), conv sites
//! (calibration indices, `QuantPlanWeights::convs`), LIF layers
//! (`InferState` snapshots, spike densities) and MAC accounting. The bits
//! that depend on them are pinned elsewhere (`train_bits`, `infer_parity`,
//! `quantize`, `stream_state`); this suite pins the *orders* themselves, so
//! a builder edit that moves one fails with a readable diff.
//!
//! The second half ties each realised network to its description: the
//! full-size MS-ResNet18 behind Table II is pinned conv by conv as a literal,
//! and for four architectures × three policies the built network has the
//! convs, parameters and MACs that `Program::spec` counts without weights.

use ttsnn_core::flops::LayerKind;
use ttsnn_core::paper_ranks::{RESNET18_RANKS, RESNET34_RANKS};
use ttsnn_core::TtMode;
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{
    checkpoint, resnet18_cifar, Architecture, ConvPolicy, InferForward, InferStats, Network,
    ResNetConfig, SpikingModel,
};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{
    assert_bits_eq, checkpoint_bytes, resnet20_tiny, samples, vgg9_tiny, THREADS,
};

/// What one architecture × policy must look like.
struct Expected {
    /// `params()` shapes in order, `x`-joined dims, space separated.
    params: &'static str,
    /// Conv sites in calibration order: `in>out k<kernel> s<stride>`.
    sites: &'static str,
    /// LIF layers (= `InferState::layers()`).
    lifs: usize,
}

fn shapes(net: &Network) -> String {
    let dims = |shape: Vec<usize>| shape.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
    net.params().iter().map(|p| dims(p.shape())).collect::<Vec<_>>().join(" ")
}

/// Merges, calibrates and freezes `net`, returning its conv sites in the
/// order the calibration hooks numbered them.
fn calibrated_sites(net: &mut Network) -> String {
    net.merge_into_dense().unwrap();
    let calib = net.calibrate(&samples(3, 2), 2).unwrap();
    net.quantize(&calib, &QuantConfig::default()).unwrap();
    let plan = net.quant_plan().unwrap();
    assert_eq!(calib.sites.len(), plan.convs.len() + 1, "every conv plus the classifier");
    plan.convs
        .iter()
        .map(|(w, _)| {
            format!("{}>{} k{} s{}", w.in_channels, w.out_channels, w.kernel.0, w.stride.0)
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn check(label: &str, build: impl Fn(u64) -> Network, expected: &Expected) {
    let mut net = build(7);
    assert_eq!(shapes(&net), expected.params, "{label}: params() order");
    assert_eq!(net.layer_spike_densities().len(), expected.lifs, "{label}: LIF count");
    assert_eq!(net.take_infer_state().layers(), expected.lifs, "{label}: InferState layers");

    // A checkpoint written by one seeded instance loads into another and
    // reproduces its inference plane bit for bit, at every kernel thread
    // count: params() order is the checkpoint layout on both sides.
    let mut twin = build(8);
    checkpoint::load_params(&twin.params(), &checkpoint_bytes(&net)[..]).unwrap();
    let frame = &samples(11, 1)[0];
    let batch = Tensor::from_vec(frame.data().to_vec(), &[1, 3, 8, 8]).unwrap();
    for model in [&mut net, &mut twin] {
        model.set_infer_stats(InferStats::PerSample);
    }
    let want: Vec<Tensor> =
        (0..3).map(|t| net.forward_timestep_tensor(&batch, t).unwrap()).collect();
    net.reset_state();
    for threads in THREADS {
        Runtime::new(threads).install(|| {
            for (t, a) in want.iter().enumerate() {
                let b = twin.forward_timestep_tensor(&batch, t).unwrap();
                assert_bits_eq(
                    a,
                    &b,
                    &format!("{label}: checkpointed twin at t={t}, {threads} threads"),
                );
            }
        });
        twin.reset_state();
    }

    assert_eq!(calibrated_sites(&mut net), expected.sites, "{label}: conv-site order");
}

const RESNET20_SITES: &str = "3>4 k3 s1, 4>4 k3 s1, 4>4 k3 s1, 4>4 k3 s1, 4>4 k3 s1, 4>4 k3 s1, \
     4>4 k3 s1, 4>8 k3 s2, 8>8 k3 s1, 4>8 k1 s2, 8>8 k3 s1, 8>8 k3 s1, 8>8 k3 s1, 8>8 k3 s1, \
     8>16 k3 s2, 16>16 k3 s1, 8>16 k1 s2, 16>16 k3 s1, 16>16 k3 s1, 16>16 k3 s1, 16>16 k3 s1";

const RESNET18_SITES: &str = "3>4 k3 s1, 4>4 k3 s1, 4>4 k3 s1, 4>4 k3 s1, 4>4 k3 s1, 4>8 k3 s2, \
     8>8 k3 s1, 4>8 k1 s2, 8>8 k3 s1, 8>8 k3 s1, 8>16 k3 s2, 16>16 k3 s1, 8>16 k1 s2, \
     16>16 k3 s1, 16>16 k3 s1, 16>32 k3 s2, 32>32 k3 s1, 16>32 k1 s2, 32>32 k3 s1, 32>32 k3 s1";

const VGG9_SITES: &str = "3>4 k3 s1, 4>4 k3 s1, 4>8 k3 s1, 8>8 k3 s1, 8>16 k3 s1, 16>16 k3 s1";

#[test]
fn resnet20_tiny_orders() {
    let build = |policy: ConvPolicy| {
        move |seed| Network::new(resnet20_tiny(5), &policy, &mut Rng::seed_from(seed))
    };
    check(
        "ResNet20 baseline",
        build(ConvPolicy::Baseline),
        &Expected {
            params: "4x3x3x3 4 4 4x4x3x3 4 4 4x4x3x3 4 4 4x4x3x3 4 4 4x4x3x3 4 4 4x4x3x3 4 4 \
                     4x4x3x3 4 4 8x4x3x3 8 8 8x8x3x3 8 8 8x4x1x1 8 8 8x8x3x3 8 8 8x8x3x3 8 8 \
                     8x8x3x3 8 8 8x8x3x3 8 8 16x8x3x3 16 16 16x16x3x3 16 16 16x8x1x1 16 16 \
                     16x16x3x3 16 16 16x16x3x3 16 16 16x16x3x3 16 16 16x16x3x3 16 16 5x16 5",
            sites: RESNET20_SITES,
            lifs: 19,
        },
    );
    check(
        "ResNet20 PTT",
        build(ConvPolicy::tt(TtMode::Ptt)),
        &Expected {
            params: "4x3x3x3 4 4 1x4x1x1 1x1x3x1 1x1x1x3 4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 \
                     4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 \
                     4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 \
                     4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 8x1x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 \
                     8x2x1x1 8 8 8x4x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 8x2x1x1 8 8 2x8x1x1 \
                     2x2x3x1 2x2x1x3 8x2x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 8x2x1x1 8 8 2x8x1x1 \
                     2x2x3x1 2x2x1x3 8x2x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 16x2x1x1 16 16 \
                     5x16x1x1 5x5x3x1 5x5x1x3 16x5x1x1 16 16 16x8x1x1 16 16 5x16x1x1 5x5x3x1 \
                     5x5x1x3 16x5x1x1 16 16 5x16x1x1 5x5x3x1 5x5x1x3 16x5x1x1 16 16 5x16x1x1 \
                     5x5x3x1 5x5x1x3 16x5x1x1 16 16 5x16x1x1 5x5x3x1 5x5x1x3 16x5x1x1 16 16 \
                     5x16 5",
            sites: RESNET20_SITES,
            lifs: 19,
        },
    );
}

#[test]
fn resnet18_tiny_orders() {
    let build = |policy: ConvPolicy| {
        move |seed| {
            let cfg = ResNetConfig::resnet18(5, (8, 8), 16);
            Network::new(cfg, &policy, &mut Rng::seed_from(seed))
        }
    };
    check(
        "MS-ResNet18 baseline",
        build(ConvPolicy::Baseline),
        &Expected {
            params: "4x3x3x3 4 4 4x4x3x3 4 4 4x4x3x3 4 4 4x4x3x3 4 4 4x4x3x3 4 4 8x4x3x3 8 8 \
                     8x8x3x3 8 8 8x4x1x1 8 8 8x8x3x3 8 8 8x8x3x3 8 8 16x8x3x3 16 16 \
                     16x16x3x3 16 16 16x8x1x1 16 16 16x16x3x3 16 16 16x16x3x3 16 16 \
                     32x16x3x3 32 32 32x32x3x3 32 32 32x16x1x1 32 32 32x32x3x3 32 32 \
                     32x32x3x3 32 32 5x32 5",
            sites: RESNET18_SITES,
            lifs: 17,
        },
    );
    check(
        "MS-ResNet18 PTT",
        build(ConvPolicy::tt(TtMode::Ptt)),
        &Expected {
            params: "4x3x3x3 4 4 1x4x1x1 1x1x3x1 1x1x1x3 4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 \
                     4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 \
                     4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 8x1x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 \
                     8x2x1x1 8 8 8x4x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 8x2x1x1 8 8 2x8x1x1 \
                     2x2x3x1 2x2x1x3 8x2x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 16x2x1x1 16 16 \
                     5x16x1x1 5x5x3x1 5x5x1x3 16x5x1x1 16 16 16x8x1x1 16 16 5x16x1x1 5x5x3x1 \
                     5x5x1x3 16x5x1x1 16 16 5x16x1x1 5x5x3x1 5x5x1x3 16x5x1x1 16 16 5x16x1x1 \
                     5x5x3x1 5x5x1x3 32x5x1x1 32 32 10x32x1x1 10x10x3x1 10x10x1x3 32x10x1x1 \
                     32 32 32x16x1x1 32 32 10x32x1x1 10x10x3x1 10x10x1x3 32x10x1x1 32 32 \
                     10x32x1x1 10x10x3x1 10x10x1x3 32x10x1x1 32 32 5x32 5",
            sites: RESNET18_SITES,
            lifs: 17,
        },
    );
}

#[test]
fn vgg9_tiny_orders() {
    let build = |policy: ConvPolicy| {
        move |seed| Network::new(vgg9_tiny(), &policy, &mut Rng::seed_from(seed))
    };
    check(
        "VGG9 baseline",
        build(ConvPolicy::Baseline),
        &Expected {
            params: "4x3x3x3 4 4 4x4x3x3 4 4 8x4x3x3 8 8 8x8x3x3 8 8 16x8x3x3 16 16 \
                     16x16x3x3 16 16 5x16 5",
            sites: VGG9_SITES,
            lifs: 6,
        },
    );
    check(
        "VGG9 PTT",
        build(ConvPolicy::tt(TtMode::Ptt)),
        &Expected {
            params: "4x3x3x3 4 4 1x4x1x1 1x1x3x1 1x1x1x3 4x1x1x1 4 4 1x4x1x1 1x1x3x1 1x1x1x3 \
                     8x1x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 8x2x1x1 8 8 2x8x1x1 2x2x3x1 2x2x1x3 \
                     16x2x1x1 16 16 5x16x1x1 5x5x3x1 5x5x1x3 16x5x1x1 16 16 5x16 5",
            sites: VGG9_SITES,
            lifs: 6,
        },
    );
}

/// The full-size MS-ResNet18 of Table II (32×32 input, the paper's VBMF
/// ranks), conv by conv: `in>out k<kernel> s<stride> @<H>x<W>`, then
/// `r<rank>` where decomposed.
const RESNET18_FULL: &str = "3>64 k3 s1 @32x32, 64>64 k3 s1 @32x32 r24, \
     64>64 k3 s1 @32x32 r27, 64>64 k3 s1 @32x32 r25, 64>64 k3 s1 @32x32 r29, \
     64>128 k3 s2 @32x32 r37, 128>128 k3 s1 @16x16 r45, 64>128 k1 s2 @32x32, \
     128>128 k3 s1 @16x16 r43, 128>128 k3 s1 @16x16 r41, 128>256 k3 s2 @16x16 r65, \
     256>256 k3 s1 @8x8 r74, 128>256 k1 s2 @16x16, 256>256 k3 s1 @8x8 r70, \
     256>256 k3 s1 @8x8 r63, 256>512 k3 s2 @8x8 r104, 512>512 k3 s1 @4x4 r153, \
     256>512 k1 s2 @8x8, 512>512 k3 s1 @4x4 r186, 512>512 k3 s1 @4x4 r145";

#[test]
fn full_size_resnet18_convs() {
    let convs: Vec<String> = resnet18_cifar(10)
        .conv_layers
        .iter()
        .map(|l| {
            let g = &l.geom;
            let (k, s, (h, w)) = (g.kernel.0, g.stride.0, g.in_hw);
            let rank = match l.kind {
                LayerKind::Dense => String::new(),
                LayerKind::Decomposed { rank } => format!(" r{rank}"),
            };
            format!("{}>{} k{k} s{s} @{h}x{w}{rank}", g.in_channels, g.out_channels)
        })
        .collect();
    assert_eq!(convs.join(", "), RESNET18_FULL);
}

/// Realised network ≡ its description, under baseline, PTT and HTT: the
/// network built from `arch` has the convs `Program::spec` lists, the
/// parameters it counts and — minus the classifier — the MACs it sums over
/// `timesteps`. TT policies take `ranks` when given, the default rank
/// fraction otherwise.
fn realised_matches_description(
    arch: &impl Architecture,
    ranks: Option<&[usize]>,
    timesteps: usize,
) {
    let program = arch.program().unwrap();
    let tt = |mode| match ranks {
        Some(ranks) => ConvPolicy::TtWithRanks { mode, ranks: ranks.to_vec() },
        None => ConvPolicy::tt(mode),
    };
    for policy in [ConvPolicy::Baseline, tt(TtMode::Ptt), tt(TtMode::htt_default(timesteps))] {
        let label = format!("{} {}", program.name, policy.name());
        let spec = program.spec(&policy, timesteps).unwrap();
        let net = Network::try_new(arch, &policy, &mut Rng::seed_from(1)).unwrap();
        assert_eq!(net.conv_layer_specs(), spec.conv_layers, "{label}: convs");
        let (params, macs) = match policy.mode() {
            None => (spec.baseline_params(), spec.baseline_macs()),
            Some(mode) => (spec.tt_params(), spec.mode_macs(mode)),
        };
        assert_eq!(net.num_params(), params, "{label}: parameters");
        let classifier = spec.fc_params - program.num_classes;
        let walked: usize = (0..timesteps).map(|t| net.macs_at(t) - classifier).sum();
        assert_eq!(walked, macs, "{label}: MACs over T={timesteps}");
    }
}

#[test]
fn realised_networks_match_their_description() {
    realised_matches_description(
        &ResNetConfig::resnet18(10, (32, 32), 1),
        Some(&RESNET18_RANKS),
        4,
    );
    let rn34 = ResNetConfig::resnet34_events(101, (48, 48), 8);
    realised_matches_description(&rn34, Some(&RESNET34_RANKS), 6);
    realised_matches_description(&vgg9_tiny(), None, 4);
    realised_matches_description(&resnet20_tiny(5), None, 4);
}
