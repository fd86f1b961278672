//! # ttsnn-accel
//!
//! Analytical energy/latency model of SNN *training* accelerators,
//! reproducing §IV and Fig. 4 of the TT-SNN paper.
//!
//! The paper evaluates training energy on two hardware targets:
//!
//! 1. an **existing single-engine accelerator** (SATA, Yin et al. TCAD'22) —
//!    all processing elements form one computation engine, layers (and TT
//!    sub-convolutions) are mapped one at a time; and
//! 2. the **proposed multi-cluster systolic-array design** (Fig. 3):
//!    four clusters mapped to the four TT sub-convolutions, with clusters
//!    2 and 3 running the PTT branches in parallel, adder arrays merging
//!    their outputs, and deep pipelining between clusters.
//!
//! The paper's toolchain (Synopsys DC at 28 nm, CACTI, the SATASim
//! cycle-accurate simulator) is unavailable here; this crate substitutes an
//! **event-count analytical model**: energy = Σ (op counts × per-op energy
//! at 28 nm) + static power × cycles, with the memory hierarchy of Table I.
//! The *mechanics* that produce the paper's percentages are modeled
//! explicitly:
//!
//! * model-size-driven weight traffic (why STT saves ~68% over baseline,
//!   Fig. 4(a));
//! * the PTT branch intermediate that a single-engine design must spill to
//!   DRAM and re-fetch (why PTT costs ~11% *more* than STT there);
//! * cluster parallelism + pipelining that shortens runtime and removes
//!   buffer round-trips (why PTT/HTT save ~28%/~44% vs STT on the proposed
//!   design, Fig. 4(b)).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod energy;
pub mod mapping;
pub mod workload;

pub use config::AcceleratorConfig;
pub use energy::{serving_energy, EnergyBreakdown, EnergyModel, ServingPrecision};
pub use mapping::{simulate, Target};
pub use workload::{Method, NetworkWorkload};
