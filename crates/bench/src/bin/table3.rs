//! Regenerates **Table III**: training performance before/after plugging
//! the PTT module into previous SNN methods — tdBN (ResNet20/CIFAR10),
//! TEBN (VGG9/CIFAR10), TET (VGG9/DVS-Gesture), NDA (VGG11/DVS-Gesture).
//!
//! Width-scaled architectures on the synthetic datasets (DESIGN.md §3);
//! the reproduction target is the *shape*: PTT cuts per-batch training
//! time on every method with only a small accuracy cost.

use ttsnn_bench::{train_and_measure, ExperimentConfig, MeasuredRow};
use ttsnn_core::TtMode;
use ttsnn_data::{Dataset, GestureStream, StaticImages};
use ttsnn_snn::augment::nda_augment;
use ttsnn_snn::{ConvPolicy, LossKind, Network, ResNetConfig, VggConfig};
use ttsnn_tensor::Rng;

enum Arch {
    ResNet20,
    Vgg9Tebn,
    Vgg9,
    Vgg11,
}

fn build(arch: &Arch, policy: &ConvPolicy, t: usize, rng: &mut Rng) -> Network {
    match arch {
        Arch::ResNet20 => Network::new(ResNetConfig::resnet20(10, (16, 16), 2), policy, rng),
        Arch::Vgg9Tebn => {
            Network::new(VggConfig::vgg9(3, 10, (16, 16), 8).with_tebn(t), policy, rng)
        }
        Arch::Vgg9 => Network::new(VggConfig::vgg9(2, 6, (16, 16), 8), policy, rng),
        // VGG11 pools five times, so it needs a 32x32 input.
        Arch::Vgg11 => Network::new(VggConfig::vgg11(2, 6, (32, 32), 16), policy, rng),
    }
}

fn augmented(ds: &Dataset, rng: &mut Rng) -> Dataset {
    let samples = ds
        .samples()
        .iter()
        .map(|s| ttsnn_data::Sample { frames: nda_augment(&s.frames, rng), label: s.label })
        .collect();
    Dataset::new(samples, ds.num_classes())
}

fn main() {
    println!("TABLE III reproduction: base vs PTT plug-in");
    println!("============================================");
    let mut rng = Rng::seed_from(31);
    let t_static = 4usize;
    let t_dvs = 4usize;

    let cifar = StaticImages::cifar10_like(16, 16).dataset(160, &mut rng);
    let gesture = GestureStream::dvs_gesture_like(16, 16, 6, t_dvs).dataset(120, &mut rng);
    // VGG11 (five 2x2 pools) needs 32x32 frames.
    let gesture32 = GestureStream::dvs_gesture_like(32, 32, 6, t_dvs).dataset(120, &mut rng);
    let gesture_nda = augmented(&gesture32, &mut rng);

    let rows: Vec<(&str, Arch, &Dataset, usize, LossKind)> = vec![
        ("tdBN  / ResNet20 / CIFAR10-like", Arch::ResNet20, &cifar, t_static, LossKind::SumCe),
        ("TEBN  / VGG9     / CIFAR10-like", Arch::Vgg9Tebn, &cifar, t_static, LossKind::SumCe),
        ("TET   / VGG9     / DVS-Gesture-like", Arch::Vgg9, &gesture, t_dvs, LossKind::Tet),
        ("NDA   / VGG11    / DVS-Gesture-like", Arch::Vgg11, &gesture_nda, t_dvs, LossKind::SumCe),
    ];

    println!(
        "\n{:<38} {:>18} {:>22} {:>10}",
        "method/model/dataset", "acc base/PTT (%)", "time base/PTT (s)", "Δtime"
    );
    for (label, arch, ds, t, loss) in rows {
        let cfg = ExperimentConfig { timesteps: t, epochs: 4, loss, ..ExperimentConfig::quick(t) };
        let mut measured: Vec<MeasuredRow> = Vec::new();
        for (name, policy) in [("base", ConvPolicy::Baseline), ("PTT", ConvPolicy::tt(TtMode::Ptt))]
        {
            let mut rng = Rng::seed_from(cfg.seed);
            let mut model = build(&arch, &policy, t, &mut rng);
            measured.push(train_and_measure(&mut model, name, ds, &cfg));
        }
        let (b, p) = (&measured[0], &measured[1]);
        println!(
            "{:<38} {:>8.2} /{:>8.2} {:>10.4} /{:>10.4} {:>8.2}%",
            label,
            b.test_accuracy,
            p.test_accuracy,
            b.step_seconds,
            p.step_seconds,
            p.time_reduction_vs(b)
        );
    }
    println!("\npaper reference: time reductions 25.0% (tdBN), 15.2% (TEBN),");
    println!("9.1% (TET), 19.7% (NDA), all with small accuracy drops.");
}
