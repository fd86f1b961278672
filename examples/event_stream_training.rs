//! Trains PTT and HTT spiking networks on a *dynamic* (N-Caltech101-like)
//! event-stream dataset — the experiment behind the paper's §V-B finding
//! that HTT loses accuracy on dynamic data because later timesteps carry
//! novel information that the half sub-convolutions miss.
//!
//! ```sh
//! cargo run --release --example event_stream_training
//! ```

use tt_snn::core::TtMode;
use tt_snn::data::EventStream;
use tt_snn::snn::{train, ConvPolicy, ResNetConfig, ResNetSnn, TrainConfig};
use tt_snn::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let timesteps = 6;
    let mut rng = Rng::seed_from(9);
    let gen = EventStream::ncaltech_like(16, 16, 6, timesteps);
    let ds = gen.dataset(144, &mut rng);
    let (train_ds, test_ds) = ds.split(0.8, &mut rng);
    let train_b = train_ds.batches(12, timesteps, &mut rng)?;
    let test_b = test_ds.batches(12, timesteps, &mut rng)?;

    let cfg = TrainConfig { epochs: 5, lr: 0.08, ..TrainConfig::default() };
    println!(
        "dynamic event data: {} train / {} test batches, T={timesteps}",
        train_b.len(),
        test_b.len()
    );

    for (name, mode) in [("PTT", TtMode::Ptt), ("HTT", TtMode::htt_default(timesteps))] {
        let mut rng = Rng::seed_from(10);
        let mut model = ResNetSnn::new(
            ResNetConfig::resnet34_events(6, (16, 16), 32),
            &ConvPolicy::tt(mode),
            &mut rng,
        );
        let report = train(&mut model, &train_b, &test_b, &cfg)?;
        println!(
            "{name}: loss {:.3} -> {:.3}, test acc {:.1}%, {:.3} s/batch \
             (fwd {:.1} / bwd {:.1} / opt {:.2} ms; {:.0} tape nodes, pool {:.0} handoffs / \
             {:.1} parks per step)",
            report.first_loss(),
            report.final_loss(),
            report.test_accuracy * 100.0,
            report.mean_step_seconds,
            report.mean_step_timing.forward * 1e3,
            report.mean_step_timing.backward * 1e3,
            report.mean_step_timing.optimizer * 1e3,
            report.mean_step_timing.tape_nodes,
            report.mean_step_timing.pool_handoffs,
            report.mean_step_timing.pool_parks
        );
    }
    println!("\npaper finding: on dynamic datasets HTT trails PTT (information");
    println!("in later timesteps is lost to the half sub-convolutions).");
    Ok(())
}
