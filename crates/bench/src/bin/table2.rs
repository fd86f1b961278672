//! Regenerates **Table II**: accuracy, training time, trainable parameters
//! and FLOPs for baseline / STT / PTT / HTT.
//!
//! Two complementary parts (see DESIGN.md §3):
//!
//! * **Analytic columns** — params and FLOPs of the *full-size*
//!   MS-ResNet18 (CIFAR, T=4) and MS-ResNet34 (N-Caltech101, T=6) with the
//!   paper's published VBMF ranks. These should land on the paper's
//!   numbers (11.20M / 2.221G, 7.98× / 9.25×, …).
//! * **Measured columns** — accuracy and per-batch training time from
//!   actually training width-scaled models on the synthetic datasets.
//!   Absolute values differ from an RTX 3090ti; the *ordering and relative
//!   reductions* are the reproduction target.
//!
//! Run with `--release`; the measured part trains 4 methods × 3 datasets
//! (several minutes). Set `TTSNN_SKIP_MEASURED=1` for the analytic part
//! only.

use ttsnn_bench::harness::average_rows;
use ttsnn_bench::{measured_policies, print_measured_table, train_and_measure, ExperimentConfig};
use ttsnn_core::flops::NetworkSpec;
use ttsnn_core::TtMode;
use ttsnn_data::{EventStream, StaticImages};
use ttsnn_snn::{resnet18_cifar, resnet34_ncaltech, ResNetConfig, ResNetSnn};
use ttsnn_tensor::Rng;

fn analytic_block(spec: &NetworkSpec) {
    println!("\n--- analytic (full-size {} at T={}) ---", spec.name, spec.timesteps);
    let bp = spec.baseline_params() as f64 / 1e6;
    let bf = spec.baseline_macs() as f64 / 1e9;
    println!("{:<10} params {:>7.2} M            FLOPs {:>7.3} G", "baseline", bp, bf);
    let tp = spec.tt_params() as f64 / 1e6;
    for (name, mode) in
        [("STT", TtMode::Stt), ("PTT", TtMode::Ptt), ("HTT", TtMode::htt_default(spec.timesteps))]
    {
        let f = spec.mode_macs(&mode) as f64 / 1e9;
        println!(
            "{:<10} params {:>7.2} M ({:>5.2}x)   FLOPs {:>7.3} G ({:>5.2}x)",
            name,
            tp,
            bp / tp,
            f,
            bf / f
        );
    }
}

fn measured_block(
    title: &str,
    dataset: &ttsnn_data::Dataset,
    arch: impl Fn() -> ResNetConfig,
    cfg: &ExperimentConfig,
) {
    let seeds = [7u64, 13, 21];
    let mut rows = Vec::new();
    for (name, policy) in measured_policies(cfg.timesteps) {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let mut rng = Rng::seed_from(seed);
                let mut model = ResNetSnn::new(arch(), &policy, &mut rng);
                let run_cfg = ExperimentConfig { seed, ..*cfg };
                train_and_measure(&mut model, name, dataset, &run_cfg)
            })
            .collect();
        rows.push(average_rows(&runs));
    }
    print_measured_table(&format!("{title}, mean of {} seeds", seeds.len()), &rows);
}

fn main() {
    println!("TABLE II reproduction");
    println!("=====================");
    analytic_block(&resnet18_cifar(10));
    analytic_block(&resnet18_cifar(100));
    analytic_block(&resnet34_ncaltech());

    if std::env::var("TTSNN_SKIP_MEASURED").is_ok() {
        println!("\n(measured part skipped: TTSNN_SKIP_MEASURED set)");
        return;
    }

    let mut rng = Rng::seed_from(42);

    // CIFAR10-like: MS-ResNet18 (width / 8) at 16x16, T=4.
    let cfg4 = ExperimentConfig { epochs: 10, ..ExperimentConfig::quick(4) };
    let ds = StaticImages::cifar10_like(16, 16).dataset(cfg4.samples, &mut rng);
    measured_block(
        "CIFAR10-like (MS-ResNet18 w/8, T=4, measured)",
        &ds,
        || ResNetConfig::resnet18(10, (16, 16), 8),
        &cfg4,
    );

    // CIFAR100-like: 20 of the 100 classes keep the run short while staying
    // harder than CIFAR10-like.
    let gen100 = StaticImages::new(3, 16, 16, 20, 0.25, 0xC1FA_05EE ^ 0x100);
    let ds100 = gen100.dataset(cfg4.samples * 2, &mut rng);
    let cfg100 = ExperimentConfig { samples: cfg4.samples * 2, ..cfg4 };
    measured_block(
        "CIFAR100-like (MS-ResNet18 w/8, 20 classes, T=4, measured)",
        &ds100,
        || ResNetConfig::resnet18(20, (16, 16), 8),
        &cfg100,
    );

    // N-Caltech101-like: event streams at T=6. Measured runs use the
    // ResNet18 topology with event input: at CPU-feasible widths the
    // 16-block ResNet34 suffers spike death (see EXPERIMENTS.md); the
    // analytic block above covers the full-size ResNet34.
    let cfg6 = ExperimentConfig { timesteps: 6, epochs: 8, ..ExperimentConfig::quick(6) };
    let gen_ev = EventStream::ncaltech_like(16, 16, 10, 6);
    let ds_ev = gen_ev.dataset(cfg6.samples, &mut rng);
    measured_block(
        "N-Caltech101-like (MS-ResNet18-events w/8, T=6, measured)",
        &ds_ev,
        || ResNetConfig::resnet18_events(10, (16, 16), 8),
        &cfg6,
    );

    println!("\npaper reference (Table II): CIFAR10 acc 93.41/90.91/91.65/91.19,");
    println!("time -11.2/-17.8/-22.4%; N-Caltech101 params 7.98x, FLOPs 9.25x (PTT).");
}
