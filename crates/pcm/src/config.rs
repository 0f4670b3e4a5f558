//! System configuration (Table II of the paper).

use crate::disturb::DisturbanceModel;
use crate::energy::EnergyModel;
use crate::state::CellState;
use serde::{Deserialize, Serialize};

/// The most banks [`PcmConfig::validate`] accepts: 64× Table II's 64. A
/// simulation allocates per bank, so the bound caps what one configuration
/// from outside the program can make it allocate.
const MAX_BANKS: usize = 4096;

/// Configuration of the simulated machine and PCM main memory.
///
/// The timing-related parameters (write pausing, queue depth) are carried for
/// completeness but do not influence the per-write energy/endurance metrics
/// the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcmConfig {
    /// Number of CPU cores generating traffic.
    pub cores: usize,
    /// Core clock frequency in GHz.
    pub core_ghz: f64,
    /// Private L2 cache size per core, in MiB.
    pub l2_mib: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Cache/memory line size in bytes.
    pub line_bytes: usize,
    /// Total main-memory capacity in GiB.
    pub capacity_gib: usize,
    /// Number of memory channels.
    pub channels: usize,
    /// DIMMs per channel.
    pub dimms_per_channel: usize,
    /// Banks per DIMM.
    pub banks_per_dimm: usize,
    /// Write-queue entries per bank.
    pub write_queue_entries: usize,
    /// Fraction of write-queue occupancy above which writes are prioritised
    /// over reads (the paper uses 80 %).
    pub write_drain_threshold: f64,
    /// Cell programming-energy model.
    pub energy: EnergyModel,
    /// Write-disturbance model.
    pub disturbance: DisturbanceModel,
}

impl PcmConfig {
    /// The configuration of Table II: 8-core 4 GHz CMP, 2 MB private L2 per
    /// core, 32 GB MLC PCM with 2 channels × 2 DIMMs × 16 banks, 64 B lines.
    pub fn table_ii() -> PcmConfig {
        PcmConfig {
            cores: 8,
            core_ghz: 4.0,
            l2_mib: 2,
            l2_ways: 8,
            line_bytes: 64,
            capacity_gib: 32,
            channels: 2,
            dimms_per_channel: 2,
            banks_per_dimm: 16,
            write_queue_entries: 32,
            write_drain_threshold: 0.8,
            energy: EnergyModel::paper_default(),
            disturbance: DisturbanceModel::paper_default(),
        }
    }

    /// Total number of banks across the whole memory system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.dimms_per_channel * self.banks_per_dimm
    }

    /// Total number of 64-byte lines in main memory.
    pub fn total_lines(&self) -> u64 {
        (self.capacity_gib as u64) * 1024 * 1024 * 1024 / self.line_bytes as u64
    }

    /// Checks that the simulator can run this configuration: between one
    /// and 4,096 banks, a non-empty line, finite non-negative RESET
    /// and SET energies, and disturbance rates in `[0, 1]`. The constructors
    /// of [`EnergyModel`] and [`DisturbanceModel`] enforce the latter two,
    /// but a deserialized configuration bypasses them.
    pub fn validate(&self) -> Result<(), String> {
        let sizes = [
            ("channels", self.channels),
            ("dimms_per_channel", self.dimms_per_channel),
            ("banks_per_dimm", self.banks_per_dimm),
            ("line_bytes", self.line_bytes),
        ];
        if let Some((name, _)) = sizes.iter().find(|(_, size)| *size == 0) {
            return Err(format!("{name} must be non-zero"));
        }
        let banks = sizes[..3].iter().try_fold(1usize, |banks, (_, size)| banks.checked_mul(*size));
        if banks.is_none_or(|banks| banks > MAX_BANKS) {
            return Err(format!("the total bank count must be at most {MAX_BANKS}"));
        }
        let set_pj = CellState::ALL.map(|state| self.energy.set_pj(state));
        if !std::iter::once(self.energy.reset_pj())
            .chain(set_pj)
            .all(|pj| pj.is_finite() && pj >= 0.0)
        {
            return Err("RESET and SET energies must be finite non-negative numbers".to_string());
        }
        if !CellState::ALL.iter().all(|&state| (0.0..=1.0).contains(&self.disturbance.rate(state)))
        {
            return Err("disturbance rates must be probabilities in [0, 1]".to_string());
        }
        Ok(())
    }
}

impl Default for PcmConfig {
    fn default() -> PcmConfig {
        PcmConfig::table_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let c = PcmConfig::table_ii();
        assert_eq!(c.cores, 8);
        assert_eq!(c.line_bytes, 64);
        assert_eq!(c.capacity_gib, 32);
        assert_eq!(c.total_banks(), 2 * 2 * 16);
    }

    #[test]
    fn total_lines_matches_capacity() {
        let c = PcmConfig::table_ii();
        assert_eq!(c.total_lines(), 32u64 * 1024 * 1024 * 1024 / 64);
    }

    #[test]
    fn default_is_table_ii() {
        assert_eq!(PcmConfig::default(), PcmConfig::table_ii());
    }
}
