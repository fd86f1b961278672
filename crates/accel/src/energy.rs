//! Per-operation energies at 28 nm and the energy breakdown container.
//!
//! Dynamic energies follow the usual published scalings (Horowitz ISSCC'14
//! numbers shrunk from 45 nm to 28 nm; CACTI-style SRAM access costs by
//! array size; LPDDR access ~100 pJ/B). The absolute values matter less
//! than their *ratios* — multiplier vs accumulate-only PEs, SRAM vs DRAM —
//! which drive every effect in Fig. 4. All values are picojoules.

use serde::{Deserialize, Serialize};

/// Per-op energy constants (pJ) and modeling factors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// One 8-bit multiply + 16-bit accumulate (the MAC of clusters 2–4,
    /// which process non-spike activations).
    pub mac_pj: f64,
    /// One 16-bit accumulate only (the simplified spike-input PEs of
    /// cluster 1 / the SATA baseline — "since the input is in the form of
    /// spikes, we simplified the arithmetic units").
    pub accumulate_pj: f64,
    /// Global-buffer SRAM access per byte.
    pub sram_pj_per_byte: f64,
    /// Register-file / scratch-pad access per byte (the third level of the
    /// memory hierarchy).
    pub rf_pj_per_byte: f64,
    /// Off-chip DRAM access per byte.
    pub dram_pj_per_byte: f64,
    /// Static (leakage) energy per cycle for the whole chip.
    pub static_pj_per_cycle: f64,
    /// Average spike activity (fraction of binary activations that are 1);
    /// spike-driven compute and spike traffic scale with it.
    pub spike_activity: f64,
    /// Backward-pass cost multiplier: BPTT's backward phase performs the
    /// transposed convolutions plus weight-gradient accumulation, ~2× the
    /// forward op count.
    pub backward_factor: f64,
    /// Bytes per non-spike activation (16-bit).
    pub activation_bytes: f64,
    /// Bytes per weight (8-bit, Table I multiplier precision).
    pub weight_bytes: f64,
    /// One fp32 multiply + accumulate — what a CPU/GPU float serving plan
    /// pays per MAC, for pricing f32 plans against the accelerator's
    /// int8 datapath (Horowitz ISSCC'14 fp32 numbers shrunk to 28 nm).
    pub f32_mac_pj: f64,
}

impl EnergyModel {
    /// The default 28 nm calibration used for Fig. 4.
    pub fn nm28() -> Self {
        Self {
            mac_pj: 0.22,
            accumulate_pj: 0.03,
            sram_pj_per_byte: 1.2,
            rf_pj_per_byte: 0.08,
            dram_pj_per_byte: 100.0,
            static_pj_per_cycle: 45.0,
            spike_activity: 0.25,
            backward_factor: 2.0,
            activation_bytes: 2.0,
            weight_bytes: 1.0,
            f32_mac_pj: 1.8,
        }
    }
}

/// Numeric precision of a frozen serving plan, for [`serving_energy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServingPrecision {
    /// Float plan: fp32 MACs, 4-byte weights and activations.
    F32,
    /// Quantized plan: the accelerator's 8-bit multiplier / 16-bit
    /// accumulator datapath (Table I), 1-byte weights, 1-byte quantized
    /// activations.
    Int8,
}

impl ServingPrecision {
    /// Bytes per weight at this precision.
    pub fn weight_bytes(&self) -> f64 {
        match self {
            ServingPrecision::F32 => 4.0,
            ServingPrecision::Int8 => 1.0,
        }
    }

    /// Bytes per (non-spike) activation at this precision.
    pub fn activation_bytes(&self) -> f64 {
        match self {
            ServingPrecision::F32 => 4.0,
            ServingPrecision::Int8 => 1.0,
        }
    }
}

/// Energy of serving **one sample** through a frozen inference plan
/// (forward only — no BPTT terms), at the given precision:
///
/// * compute — `macs_per_timestep × timesteps` at the precision's MAC
///   cost ([`EnergyModel::mac_pj`] is exactly the accelerator's 8-bit
///   multiply + 16-bit accumulate, so the int8 plan prices its MACs at
///   the Table I datapath);
/// * SRAM — weights streamed from the global buffer once per timestep
///   plus activation traffic, both at the precision's byte widths;
/// * DRAM — the plan's weights fetched once per sample (frozen plans
///   share weights across timesteps).
///
/// The repo benchmark quotes this accounting for the f32 serving plan
/// (`accel.modeled_energy_nj_per_op`) next to the measured CPU numbers: the
/// *measured* time is a CPU artifact, the *modeled* energy is what the
/// paper's accelerator would pay.
pub fn serving_energy(
    macs_per_timestep: f64,
    weight_params: f64,
    activation_elems_per_timestep: f64,
    timesteps: f64,
    precision: ServingPrecision,
    m: &EnergyModel,
) -> EnergyBreakdown {
    let mac_pj = match precision {
        ServingPrecision::F32 => m.f32_mac_pj,
        ServingPrecision::Int8 => m.mac_pj,
    };
    let weight_bytes = weight_params * precision.weight_bytes();
    // Activations are written by one layer and read by the next: 2 trips.
    let activation_bytes =
        activation_elems_per_timestep * timesteps * 2.0 * precision.activation_bytes();
    EnergyBreakdown {
        compute_pj: macs_per_timestep * timesteps * mac_pj,
        sram_pj: (weight_bytes * timesteps + activation_bytes) * m.sram_pj_per_byte,
        dram_pj: weight_bytes * m.dram_pj_per_byte,
        ..EnergyBreakdown::default()
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::nm28()
    }
}

/// Energy report for one training pass of one image (forward + backward
/// across all timesteps), in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Arithmetic (MAC/accumulate) energy.
    pub compute_pj: f64,
    /// Global-buffer + scratch-pad traffic energy.
    pub sram_pj: f64,
    /// Off-chip DRAM traffic energy.
    pub dram_pj: f64,
    /// Leakage energy (static power × runtime).
    pub static_pj: f64,
    /// Total runtime in cycles.
    pub cycles: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.sram_pj + self.dram_pj + self.static_pj
    }

    /// Total energy in nanojoules (the unit of Fig. 4's y-axis).
    pub fn total_nj(&self) -> f64 {
        self.total_pj() / 1e3
    }

    /// Accumulates another breakdown (e.g. per-layer into per-network).
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.compute_pj += other.compute_pj;
        self.sram_pj += other.sram_pj;
        self.dram_pj += other.dram_pj;
        self.static_pj += other.static_pj;
        self.cycles += other.cycles;
    }

    /// Relative change versus a reference total: `(self - ref) / ref`.
    pub fn relative_to(&self, reference: &EnergyBreakdown) -> f64 {
        (self.total_pj() - reference.total_pj()) / reference.total_pj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_have_sane_ratios() {
        let m = EnergyModel::nm28();
        assert!(m.mac_pj > m.accumulate_pj, "multiplier must cost more than accumulate");
        assert!(m.dram_pj_per_byte > 10.0 * m.sram_pj_per_byte, "DRAM ≫ SRAM");
        assert!(m.sram_pj_per_byte > m.rf_pj_per_byte, "SRAM > scratch-pad");
        assert!((0.0..=1.0).contains(&m.spike_activity));
        assert!(m.f32_mac_pj > 4.0 * m.mac_pj, "fp32 MAC must dwarf the int8 datapath");
    }

    #[test]
    fn int8_serving_beats_f32_on_every_term() {
        let m = EnergyModel::nm28();
        // VGG9-ish inference: 40M MACs/timestep, 5M weights, 1M
        // activations, T = 4.
        let f32 = serving_energy(40e6, 5e6, 1e6, 4.0, ServingPrecision::F32, &m);
        let int8 = serving_energy(40e6, 5e6, 1e6, 4.0, ServingPrecision::Int8, &m);
        assert!(int8.compute_pj < f32.compute_pj / 4.0, "int8 compute must be ≥4x cheaper");
        assert!(int8.sram_pj * 3.0 < f32.sram_pj, "1-byte traffic must be ~4x cheaper");
        assert!(int8.dram_pj * 3.0 < f32.dram_pj, "1-byte weight fetch must be ~4x cheaper");
        assert!(int8.total_pj() < f32.total_pj() / 3.0);
        // Both scale linearly in timesteps.
        let int8_t8 = serving_energy(40e6, 5e6, 1e6, 8.0, ServingPrecision::Int8, &m);
        assert!((int8_t8.compute_pj - 2.0 * int8.compute_pj).abs() < 1e-3);
    }

    #[test]
    fn serving_precision_byte_widths() {
        assert_eq!(ServingPrecision::Int8.weight_bytes(), 1.0);
        assert_eq!(ServingPrecision::F32.weight_bytes(), 4.0);
        assert_eq!(ServingPrecision::Int8.activation_bytes(), 1.0);
        assert_eq!(ServingPrecision::F32.activation_bytes(), 4.0);
    }

    #[test]
    fn breakdown_totals_and_add() {
        let mut a = EnergyBreakdown {
            compute_pj: 1.0,
            sram_pj: 2.0,
            dram_pj: 3.0,
            static_pj: 4.0,
            cycles: 10.0,
        };
        assert_eq!(a.total_pj(), 10.0);
        assert_eq!(a.total_nj(), 0.01);
        let b = a;
        a.add(&b);
        assert_eq!(a.total_pj(), 20.0);
        assert_eq!(a.cycles, 20.0);
    }

    #[test]
    fn relative_to_signs() {
        let base = EnergyBreakdown { compute_pj: 100.0, ..Default::default() };
        let less = EnergyBreakdown { compute_pj: 40.0, ..Default::default() };
        assert!((less.relative_to(&base) + 0.6).abs() < 1e-12);
        assert!(base.relative_to(&less) > 0.0);
    }
}
