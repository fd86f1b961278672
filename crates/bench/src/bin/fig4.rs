//! Regenerates **Fig. 4**: training energy of baseline/STT/PTT/HTT on
//! (a) the existing single-engine SNN training accelerator and (b) the
//! proposed multi-cluster design.

use ttsnn_accel::{simulate, AcceleratorConfig, Method, Target};
use ttsnn_snn::{resnet18_cifar, resnet34_ncaltech};

fn main() {
    let cfg = AcceleratorConfig::paper();
    let em = ttsnn_accel::EnergyModel::nm28();
    println!("FIG. 4 reproduction: training energy per image (nJ)");
    println!("====================================================");
    for spec in [resnet18_cifar(10), resnet34_ncaltech()] {
        println!("\n## {}", spec.name);
        for (label, target) in [
            ("(a) existing single-engine accelerator", Target::SingleEngine),
            ("(b) proposed multi-cluster accelerator", Target::MultiCluster),
        ] {
            println!("{label}:");
            let stt = simulate(&spec, Method::Stt, target, &cfg, &em);
            let base = simulate(&spec, Method::Baseline, target, &cfg, &em);
            for method in Method::ALL {
                let e = simulate(&spec, method, target, &cfg, &em);
                println!(
                    "  {:<9} {:>12.3e} nJ   vs baseline {:>+7.1}%   vs STT {:>+7.1}%",
                    method.name(),
                    e.total_nj(),
                    e.relative_to(&base) * 100.0,
                    e.relative_to(&stt) * 100.0
                );
            }
        }
    }
    println!("\npaper reference: (a) STT -68.1% vs baseline, PTT +10.9% vs STT,");
    println!("HTT ~ STT; (b) PTT -28.3% and HTT -43.5% vs STT.");
}
