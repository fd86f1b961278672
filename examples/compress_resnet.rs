//! Table II's compression story on the full-size architectures: builds the
//! analytic MS-ResNet18/34 specs with the paper's published VBMF ranks and
//! prints the parameter/FLOP compression each TT mode achieves.
//!
//! ```sh
//! cargo run --release --example compress_resnet
//! ```

use tt_snn::core::TtMode;
use tt_snn::snn::{resnet18_cifar, resnet34_ncaltech};

fn main() {
    for spec in [resnet18_cifar(10), resnet18_cifar(100), resnet34_ncaltech()] {
        println!("\n## {} (T = {})", spec.name, spec.timesteps);
        println!(
            "baseline: {:.2} M params, {:.3} G FLOPs (MACs x T)",
            spec.baseline_params() as f64 / 1e6,
            spec.baseline_macs() as f64 / 1e9
        );
        println!(
            "TT:       {:.2} M params ({:.2}x compression), {} decomposed layers",
            spec.tt_params() as f64 / 1e6,
            spec.param_compression(),
            spec.num_decomposed()
        );
        for (name, mode) in [
            ("STT", TtMode::Stt),
            ("PTT", TtMode::Ptt),
            ("HTT", TtMode::htt_default(spec.timesteps)),
        ] {
            println!(
                "  {name}: {:.3} G FLOPs ({:.2}x)",
                spec.mode_macs(&mode) as f64 / 1e9,
                spec.flop_compression(&mode)
            );
        }
    }
    println!("\npaper reference (Table II): ResNet18 6.13x params / 5.97x FLOPs,");
    println!("HTT 7.88x; ResNet34 7.98x params / 9.25x FLOPs, HTT 10.75x.");
}
