//! Walkthrough of the training-accelerator energy model (§IV / Fig. 4):
//! prices one MS-ResNet18 training pass under every method on both
//! hardware targets and prints the component breakdown.
//!
//! ```sh
//! cargo run --release --example accelerator_energy
//! ```

use tt_snn::accel::{simulate, AcceleratorConfig, EnergyModel, Method, Target};
use tt_snn::snn::resnet18_cifar;

fn main() {
    let spec = resnet18_cifar(10);
    let cfg = AcceleratorConfig::paper();
    let em = EnergyModel::nm28();
    println!("training energy per image, MS-ResNet18 / CIFAR10, T=4 (pJ)\n");
    for (label, target) in [
        ("existing single-engine (SATA-like)", Target::SingleEngine),
        ("proposed multi-cluster (Fig. 3)", Target::MultiCluster),
    ] {
        println!("== {label} ==");
        println!(
            "{:<9} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "method", "compute", "sram", "dram", "static", "total nJ"
        );
        for method in Method::ALL {
            let e = simulate(&spec, method, target, &cfg, &em);
            println!(
                "{:<9} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
                method.name(),
                e.compute_pj,
                e.sram_pj,
                e.dram_pj,
                e.static_pj,
                e.total_nj()
            );
        }
        println!();
    }
    println!("note how PTT's DRAM column inflates on the single engine (the");
    println!("branch spill of §V-B) and how the multi-cluster design slashes");
    println!("STT's static energy by pipelining the sub-convolutions.");
}
