//! # ttsnn-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! TT-SNN paper. Each experiment is a binary (`cargo run -p ttsnn-bench
//! --release --bin <name>`):
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `table1` | Table I — hardware implementation parameters |
//! | `table2` | Table II — accuracy / training time / params / FLOPs for baseline, STT, PTT, HTT on CIFAR10-like, CIFAR100-like and N-Caltech101-like workloads |
//! | `table3` | Table III — PTT plugged into tdBN / TEBN / TET / NDA baselines |
//! | `table4` | Table IV — HTT full/half placement ablation |
//! | `fig4`   | Fig. 4 — training energy on the existing vs proposed accelerator |
//! | `fig5`   | Fig. 5 — accuracy and training time vs timestep |
//!
//! Every other number comes from `benchmark` (`BENCHMARK.json`: four
//! workloads, end-to-end metrics, per-layer probes; see its README), except
//! three probes it does not carry yet, each a binary that writes its own
//! `BENCH_<name>.json`:
//!
//! | binary           | measures |
//! |------------------|----------|
//! | `train_sharded`  | shards × kernel threads table, pool handoff / parked-region cost |
//! | `obs_overhead`   | telemetry-sampler and tracing overhead on one cluster |
//! | `spike_sparsity` | sparse-vs-dense density crossover behind `SPARSE_DENSITY_THRESHOLD` |
//!
//! The [`harness`] module holds the shared measured-experiment plumbing;
//! binaries are thin wrappers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;

pub use harness::{
    measured_policies, print_measured_table, train_and_measure, ExperimentConfig, MeasuredRow,
};
