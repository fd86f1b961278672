//! Hardware implementation parameters (Table I of the paper).

/// The accelerator configuration of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceleratorConfig {
    /// Process technology in nanometres (paper: 28 nm CMOS).
    pub technology_nm: u32,
    /// Number of computation clusters (paper: 4).
    pub num_clusters: usize,
    /// Processing elements per cluster (paper: 32).
    pub pes_per_cluster: usize,
    /// Scratch-pad bytes per PE (paper: 32 B).
    pub scratchpad_bytes_per_pe: usize,
    /// Filter (weight) global buffer in bytes (paper: 144 KB).
    pub filter_buffer_bytes: usize,
    /// Output global buffer in bytes (paper: 32 KB).
    pub output_buffer_bytes: usize,
    /// Membrane-potential buffer in bytes (paper: 32 KB).
    pub membrane_buffer_bytes: usize,
    /// Input spike buffer in bytes (paper: 32 KB).
    pub input_spike_buffer_bytes: usize,
    /// Output spike buffer in bytes (paper: 32 KB).
    pub output_spike_buffer_bytes: usize,
    /// Accumulator precision in bits (paper: 16).
    pub accumulator_bits: u32,
    /// Multiplier precision in bits (paper: 8).
    pub multiplier_bits: u32,
    /// Clock frequency in MHz (paper: 400).
    pub clock_mhz: u32,
}

impl AcceleratorConfig {
    /// The exact configuration of Table I.
    pub fn paper() -> Self {
        Self {
            technology_nm: 28,
            num_clusters: 4,
            pes_per_cluster: 32,
            scratchpad_bytes_per_pe: 32,
            filter_buffer_bytes: 144 * 1024,
            output_buffer_bytes: 32 * 1024,
            membrane_buffer_bytes: 32 * 1024,
            input_spike_buffer_bytes: 32 * 1024,
            output_spike_buffer_bytes: 32 * 1024,
            accumulator_bits: 16,
            multiplier_bits: 8,
            clock_mhz: 400,
        }
    }

    /// Total global buffer size (paper: 272 KB = 144 + 4×32).
    pub fn total_global_buffer_bytes(&self) -> usize {
        self.filter_buffer_bytes
            + self.output_buffer_bytes
            + self.membrane_buffer_bytes
            + self.input_spike_buffer_bytes
            + self.output_spike_buffer_bytes
    }

    /// Total PE count across all clusters.
    pub fn total_pes(&self) -> usize {
        self.num_clusters * self.pes_per_cluster
    }
}

impl Default for AcceleratorConfig {
    /// Defaults to the paper's Table I.
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals() {
        let c = AcceleratorConfig::paper();
        assert_eq!(c.total_global_buffer_bytes(), 272 * 1024);
        assert_eq!(c.total_pes(), 128);
        assert_eq!(c.technology_nm, 28);
        assert_eq!(c.accumulator_bits, 16);
        assert_eq!(c.multiplier_bits, 8);
        assert_eq!(c.clock_mhz, 400);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(AcceleratorConfig::default(), AcceleratorConfig::paper());
    }
}
