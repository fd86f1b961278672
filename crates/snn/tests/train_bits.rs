//! Golden bits of the training plane.
//!
//! Eight optimizer steps per case: the loss of every step and a checksum
//! of every parameter after the last one, compared bit for bit against
//! recorded values. The kernels are bit-identical across thread counts, so
//! every case runs under each installed pool of [`THREADS`] against the
//! same constants (CI also runs this suite on one CPU).
//!
//! A change that reorders one float operation anywhere in forward,
//! backward or the optimizer fails here, and says in which case and at
//! which step.
//!
//! The values were first recorded on the commit before the autograd tape
//! went copy-free, and recorded again **once**, when training went
//! layer-major: a weight's (and γ's, β's) gradient now adds its `T·B`
//! per-sample terms in one pass in row order, where the timestep-major tape
//! added `T` per-timestep sums in the order the backward sweep met them. No
//! forward value moved with it — the loss of step 0 is the same in every
//! case, and all but two of the 56 losses are — so what changed below is
//! the parameter checksums and the last two losses of the TEBN / triangle
//! case. They are not to be regenerated to make a change pass.

use ttsnn_autograd::{Sgd, SgdConfig, Surrogate};
use ttsnn_core::TtMode;
use ttsnn_data::{Batch, EventStream, StaticImages};
use ttsnn_snn::trainer::train_step;
use ttsnn_snn::{
    ConvPolicy, LifConfig, LossKind, Network, NormKind, ResNetConfig, ResNetSnn, ShardConfig,
    ShardedTrainer, SpikingModel, VggConfig, VggSnn,
};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::THREADS;

const STEPS: usize = 8;
const SGD: SgdConfig = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };

/// FNV-1a over the bits of every parameter, in `params()` order.
fn checksum<'a>(params: impl Iterator<Item = &'a Tensor>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in params {
        for v in p.data() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn event_batches(t: usize, batch: usize, rng: &mut Rng) -> Vec<Batch> {
    EventStream::ncaltech_like(16, 16, 10, t)
        .dataset(batch * 2, rng)
        .batches(batch, t, rng)
        .unwrap()
}

fn image_batches(t: usize, batch: usize, rng: &mut Rng) -> Vec<Batch> {
    StaticImages::cifar10_like(16, 16).dataset(batch * 2, rng).batches(batch, t, rng).unwrap()
}

/// `STEPS` classic steps; the loss bits and the final parameter checksum.
fn run(mut model: Network, batches: &[Batch], loss: LossKind) -> ([u32; STEPS], u64) {
    let mut opt = Sgd::new(model.params(), SGD);
    let mut losses = [0u32; STEPS];
    for (s, slot) in losses.iter_mut().enumerate() {
        let (value, _) = train_step(&mut model, &batches[s % batches.len()], &mut opt, loss)
            .expect("batch matches the model");
        *slot = value.to_bits();
    }
    let params: Vec<Tensor> = model.params().iter().map(|p| p.to_tensor()).collect();
    (losses, checksum(params.iter()))
}

fn lif(surrogate: Surrogate) -> LifConfig {
    LifConfig { surrogate, ..LifConfig::default() }
}

/// Runs `case` under every thread count in [`THREADS`]; each run must
/// reproduce `want`.
#[track_caller]
fn check(name: &str, case: impl Fn() -> ([u32; STEPS], u64), want: ([u32; STEPS], u64)) {
    for threads in THREADS {
        let got = Runtime::new(threads).install(&case);
        let hex: Vec<String> = got.0.iter().map(|b| format!("{b:#010x}")).collect();
        assert!(
            got == want,
            "{name} at {threads} threads: training bits moved, got ([{}], {:#018x})",
            hex.join(", "),
            got.1
        );
    }
}

#[test]
fn resnet18_htt_tdbn_rectangle_sum_ce() {
    check(
        "resnet18 htt tdbn rectangle sum-ce",
        || {
            let mut rng = Rng::seed_from(101);
            let t = 4;
            let cfg = ResNetConfig::resnet18_events(10, (16, 16), 8);
            let model = ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::htt_default(t)), &mut rng);
            let batches = event_batches(t, 8, &mut rng);
            run(model, &batches, LossKind::SumCe)
        },
        (
            [
                0x406ac977, 0x4049c598, 0x401a6265, 0x406eb7bb, 0x4017dafd, 0x4064d9c7, 0x400bc7d8,
                0x40454df1,
            ],
            0x3c364d89dae5cef6,
        ),
    );
}

#[test]
fn resnet18_htt_tebn_triangle_tet() {
    check(
        "resnet18 htt tebn triangle tet",
        || {
            let mut rng = Rng::seed_from(102);
            let t = 4;
            let mut cfg = ResNetConfig::resnet18_events(10, (16, 16), 8);
            cfg.norm = NormKind::Tebn { timesteps: t };
            cfg.lif = lif(Surrogate::Triangle { width: 1.0 });
            let model = ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::htt_default(t)), &mut rng);
            let batches = event_batches(t, 8, &mut rng);
            run(model, &batches, LossKind::Tet)
        },
        (
            [
                0x40157bfb, 0x40227c38, 0x4016d2c8, 0x4022c9eb, 0x400da2f5, 0x401aaa42, 0x4016deee,
                0x4012846f,
            ],
            0xdc91acb235b14544,
        ),
    );
}

#[test]
fn vgg9_ptt_tebn_atan_tet() {
    check(
        "vgg9 ptt tebn atan tet",
        || {
            let mut rng = Rng::seed_from(103);
            let t = 3;
            let mut cfg = VggConfig::vgg9(3, 10, (16, 16), 8);
            cfg.norm = NormKind::Tebn { timesteps: t };
            cfg.lif = lif(Surrogate::Atan { alpha: 2.0 });
            let model = VggSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
            let batches = image_batches(t, 8, &mut rng);
            run(model, &batches, LossKind::Tet)
        },
        (
            [
                0x4014234e, 0x40100454, 0x40107406, 0x4012d3dc, 0x400db2eb, 0x40115a3d, 0x4008b229,
                0x400f865a,
            ],
            0x76e9ce3151b79160,
        ),
    );
}

#[test]
fn vgg9_ptt_tdbn_rectangle_sum_ce() {
    check(
        "vgg9 ptt tdbn rectangle sum-ce",
        || {
            let mut rng = Rng::seed_from(104);
            let t = 3;
            let cfg = VggConfig::vgg9(3, 10, (16, 16), 8);
            let model = VggSnn::new(cfg, &ConvPolicy::tt(TtMode::Ptt), &mut rng);
            let batches = image_batches(t, 8, &mut rng);
            run(model, &batches, LossKind::SumCe)
        },
        (
            [
                0x401a1f1b, 0x4039399a, 0x4001ec6d, 0x4023596a, 0x400e078f, 0x40083eb4, 0x4014d27a,
                0x40060096,
            ],
            0x44cd7635551468c7,
        ),
    );
}

#[test]
fn resnet20_dense_tdbn_atan_sum_ce() {
    check(
        "resnet20 dense tdbn atan sum-ce",
        || {
            let mut rng = Rng::seed_from(105);
            let t = 3;
            let mut cfg = ResNetConfig::resnet20(10, (16, 16), 4);
            cfg.lif = lif(Surrogate::Atan { alpha: 2.0 });
            let model = ResNetSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
            let batches = image_batches(t, 8, &mut rng);
            run(model, &batches, LossKind::SumCe)
        },
        (
            [
                0x4080caa9, 0x404301bd, 0x402b2168, 0x402dfea2, 0x40216832, 0x402484c8, 0x401eef35,
                0x402f8a51,
            ],
            0xbae1ddfe5550ddff,
        ),
    );
}

#[test]
fn vgg9_dense_tebn_triangle_sum_ce() {
    check(
        "vgg9 dense tebn triangle sum-ce",
        || {
            let mut rng = Rng::seed_from(106);
            let t = 3;
            let mut cfg = VggConfig::vgg9(3, 10, (16, 16), 8);
            cfg.norm = NormKind::Tebn { timesteps: t };
            cfg.lif = lif(Surrogate::Triangle { width: 1.0 });
            let model = VggSnn::new(cfg, &ConvPolicy::Baseline, &mut rng);
            let batches = image_batches(t, 8, &mut rng);
            run(model, &batches, LossKind::SumCe)
        },
        (
            [
                0x404be24b, 0x4012dc05, 0x400bf4c6, 0x3ffb00ac, 0x3f952c8f, 0x3fde25b7, 0x3f4f0406,
                0x3fcd31d2,
            ],
            0x4b579f81796a840c,
        ),
    );
}

/// Two replicas, micro-batches of 4: the all-reduce and the replicated
/// optimizers sit on the same bits as the classic step.
#[test]
fn sharded_two_shards_resnet18_htt() {
    let t = 4;
    let mut rng = Rng::seed_from(107);
    let batches = event_batches(t, 8, &mut rng);
    let factory = move || {
        let cfg = ResNetConfig::resnet18_events(10, (16, 16), 8);
        ResNetSnn::new(cfg, &ConvPolicy::tt(TtMode::htt_default(t)), &mut Rng::seed_from(7))
    };
    check(
        "sharded x2 resnet18 htt",
        || {
            let mut trainer = ShardedTrainer::new(ShardConfig::new(2, 4), factory);
            let mut losses = [0u32; STEPS];
            for (s, slot) in losses.iter_mut().enumerate() {
                let batch = &batches[s % batches.len()];
                let (value, _) = trainer.step(batch, LossKind::SumCe, SGD).unwrap();
                *slot = value.to_bits();
            }
            assert!(trainer.replicas_in_sync());
            (losses, checksum(trainer.params().iter()))
        },
        (
            [
                0x405911cd, 0x40567608, 0x402307f0, 0x404c68e1, 0x403ea180, 0x4015e7ea, 0x403d80f2,
                0x402c85c8,
            ],
            0x5e86bb71e3c35098,
        ),
    );
}
