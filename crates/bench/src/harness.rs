//! Shared experiment plumbing for the table/figure binaries.
//!
//! The *measured* experiments (accuracy, wall-clock training time) run
//! width-scaled architectures on the synthetic datasets — the substitution
//! documented in DESIGN.md §3 — while the *analytic* columns (params,
//! FLOPs) always come from the full-size specs in `ttsnn_core::flops`.

use ttsnn_core::TtMode;
use ttsnn_data::Dataset;
use ttsnn_snn::{evaluate, train, ConvPolicy, LossKind, Network, SpikingModel, TrainConfig};
use ttsnn_tensor::Rng;

/// One measured row of a results table.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRow {
    /// Method name ("baseline", "STT", "PTT", "HTT").
    pub method: String,
    /// Test accuracy in percent.
    pub test_accuracy: f32,
    /// Final-epoch train accuracy in percent.
    pub train_accuracy: f32,
    /// Mean wall-clock seconds per optimization step (fwd+bwd on one
    /// batch) — the paper's "training time" metric.
    pub step_seconds: f64,
    /// Trainable parameters of the *measured* (scaled) model.
    pub params: usize,
    /// Forward MACs of the measured model summed over all timesteps.
    pub macs: usize,
}

impl MeasuredRow {
    /// `Δt` versus a baseline row, as the percentage reduction the paper
    /// quotes ("17.76 %↓").
    pub fn time_reduction_vs(&self, baseline: &MeasuredRow) -> f64 {
        (1.0 - self.step_seconds / baseline.step_seconds) * 100.0
    }

    /// Parameter compression versus a baseline row ("6.13×").
    pub fn param_compression_vs(&self, baseline: &MeasuredRow) -> f64 {
        baseline.params as f64 / self.params as f64
    }

    /// MAC compression versus a baseline row.
    pub fn mac_compression_vs(&self, baseline: &MeasuredRow) -> f64 {
        baseline.macs as f64 / self.macs as f64
    }
}

/// Sizing knobs for one measured experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// BPTT timesteps.
    pub timesteps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Total samples generated (split 80/20 train/test).
    pub samples: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Loss function.
    pub loss: LossKind,
    /// RNG seed (data + init).
    pub seed: u64,
}

impl ExperimentConfig {
    /// A quick configuration sized so that one method trains in tens of
    /// seconds in release mode.
    pub fn quick(timesteps: usize) -> Self {
        Self {
            timesteps,
            batch_size: 16,
            epochs: 7,
            samples: 240,
            lr: 0.05,
            loss: LossKind::SumCe,
            seed: 7,
        }
    }
}

/// Averages measured rows (same method) over repeated runs — the measured
/// tables use 3 seeds to tame small-test-set noise.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn average_rows(rows: &[MeasuredRow]) -> MeasuredRow {
    assert!(!rows.is_empty(), "average_rows: empty input");
    let n = rows.len() as f64;
    MeasuredRow {
        method: rows[0].method.clone(),
        test_accuracy: rows.iter().map(|r| r.test_accuracy).sum::<f32>() / n as f32,
        train_accuracy: rows.iter().map(|r| r.train_accuracy).sum::<f32>() / n as f32,
        step_seconds: rows.iter().map(|r| r.step_seconds).sum::<f64>() / n,
        params: rows[0].params,
        macs: rows[0].macs,
    }
}

/// The four method policies of Table II, in paper order.
pub fn measured_policies(timesteps: usize) -> Vec<(&'static str, ConvPolicy)> {
    vec![
        ("baseline", ConvPolicy::Baseline),
        ("STT", ConvPolicy::tt(TtMode::Stt)),
        ("PTT", ConvPolicy::tt(TtMode::Ptt)),
        ("HTT", ConvPolicy::tt(TtMode::htt_default(timesteps))),
    ]
}

/// Trains `model` on `dataset` under `cfg` and returns the measured row.
///
/// # Panics
///
/// Panics if the dataset is too small to form a single batch, or on
/// internal shape errors (which indicate a bug, not bad input).
pub fn train_and_measure(
    model: &mut Network,
    method: &str,
    dataset: &Dataset,
    cfg: &ExperimentConfig,
) -> MeasuredRow {
    let mut rng = Rng::seed_from(cfg.seed ^ 0xBEEF);
    let (train_ds, test_ds) = dataset.clone().split(0.8, &mut rng);
    let train_batches =
        train_ds.batches(cfg.batch_size, cfg.timesteps, &mut rng).expect("train batching failed");
    let test_batches = test_ds
        .batches(cfg.batch_size.min(test_ds.len().max(1)), cfg.timesteps, &mut rng)
        .expect("test batching failed");
    assert!(!train_batches.is_empty(), "dataset too small for one batch");
    let tc = TrainConfig {
        epochs: cfg.epochs,
        lr: cfg.lr,
        momentum: 0.9,
        weight_decay: 1e-4,
        loss: cfg.loss,
    };
    let report = train(&mut *model, &train_batches, &test_batches, &tc).expect("training failed");
    let test_accuracy = if test_batches.is_empty() {
        evaluate(&mut *model, &train_batches).expect("evaluation failed")
    } else {
        report.test_accuracy
    };
    let macs: usize = (0..cfg.timesteps).map(|t| model.macs_at(t)).sum();
    MeasuredRow {
        method: method.to_string(),
        test_accuracy: test_accuracy * 100.0,
        train_accuracy: report.epochs.last().map(|e| e.accuracy * 100.0).unwrap_or(0.0),
        step_seconds: report.mean_step_timing.total,
        params: model.num_params(),
        macs,
    }
}

/// Formats a measured table in the paper's Table II style.
pub fn print_measured_table(title: &str, rows: &[MeasuredRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<10} {:>9} {:>10} {:>12} {:>14} {:>14}",
        "method", "acc (%)", "train-acc", "time (s)", "params", "MACs/sample"
    );
    let baseline = rows.first();
    for row in rows {
        let (dt, px, fx) = match baseline {
            Some(b) if b.method != row.method => (
                format!("({:+.1}%)", -row.time_reduction_vs(b)),
                format!("({:.2}x)", row.param_compression_vs(b)),
                format!("({:.2}x)", row.mac_compression_vs(b)),
            ),
            _ => (String::new(), String::new(), String::new()),
        };
        println!(
            "{:<10} {:>9.2} {:>10.2} {:>9.4} {:<7} {:>9} {:<8} {:>9} {:<8}",
            row.method,
            row.test_accuracy,
            row.train_accuracy,
            row.step_seconds,
            dt,
            row.params,
            px,
            row.macs,
            fx
        );
    }
}

/// Criterion-free micro-bench plumbing: named metric records and the
/// hand-rolled JSON writer behind the `BENCH_*.json` artifacts (no serde
/// backend ships in this environment).
pub mod micro {
    use std::io::Write;

    /// One benchmark's named scalar metrics.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchRecord {
        /// Benchmark identifier (e.g. `gemm_256x256x256`).
        pub name: String,
        /// `(metric name, value)` pairs.
        pub metrics: Vec<(String, f64)>,
    }

    /// Writes records as a stable, diff-friendly JSON array:
    /// `[{"name": ..., "metric": value, ...}, ...]`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing `path`.
    pub fn write_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "[")?;
        for (i, rec) in records.iter().enumerate() {
            let comma = if i + 1 < records.len() { "," } else { "" };
            let metrics: Vec<String> =
                rec.metrics.iter().map(|(k, v)| format!("\"{k}\": {v:.4}")).collect();
            writeln!(f, "  {{\"name\": \"{}\", {}}}{comma}", rec.name, metrics.join(", "))?;
        }
        writeln!(f, "]")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsnn_data::StaticImages;
    use ttsnn_snn::{ResNetConfig, ResNetSnn};

    #[test]
    fn measured_policies_match_table2_order() {
        let ps = measured_policies(4);
        let names: Vec<&str> = ps.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["baseline", "STT", "PTT", "HTT"]);
    }

    #[test]
    fn row_ratio_helpers() {
        let base = MeasuredRow {
            method: "baseline".into(),
            test_accuracy: 90.0,
            train_accuracy: 95.0,
            step_seconds: 0.2,
            params: 1000,
            macs: 10_000,
        };
        let tt = MeasuredRow {
            method: "PTT".into(),
            test_accuracy: 89.0,
            train_accuracy: 94.0,
            step_seconds: 0.16,
            params: 200,
            macs: 2_000,
        };
        assert!((tt.time_reduction_vs(&base) - 20.0).abs() < 1e-9);
        assert!((tt.param_compression_vs(&base) - 5.0).abs() < 1e-9);
        assert!((tt.mac_compression_vs(&base) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn train_and_measure_smoke() {
        let mut rng = Rng::seed_from(1);
        let gen = StaticImages::new(3, 8, 8, 3, 0.15, 11);
        let ds = gen.dataset(60, &mut rng);
        let cfg = ExperimentConfig {
            timesteps: 2,
            batch_size: 8,
            epochs: 1,
            samples: 60,
            lr: 0.05,
            loss: LossKind::SumCe,
            seed: 1,
        };
        let mut model =
            ResNetSnn::new(ResNetConfig::resnet18(3, (8, 8), 16), &ConvPolicy::Baseline, &mut rng);
        let row = train_and_measure(&mut model, "baseline", &ds, &cfg);
        assert!(row.step_seconds > 0.0);
        assert!(row.params > 0);
        assert!(row.macs > 0);
        assert!((0.0..=100.0).contains(&row.test_accuracy));
    }
}
