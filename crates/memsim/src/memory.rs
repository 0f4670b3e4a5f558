//! Memory organisation and address mapping (Table II).

use serde::{Deserialize, Serialize};
use wlcrc_pcm::config::PcmConfig;

/// Location of a line within the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankAddress {
    /// Channel index.
    pub channel: usize,
    /// DIMM index within the channel.
    pub dimm: usize,
    /// Bank index within the DIMM.
    pub bank: usize,
    /// Row (line) index within the bank.
    pub row: u64,
}

/// The channel/DIMM/bank organisation of the PCM main memory.
///
/// Lines are interleaved across channels, then DIMMs, then banks, which is
/// the standard mapping for spreading consecutive lines over all banks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryOrganization {
    channels: usize,
    dimms_per_channel: usize,
    banks_per_dimm: usize,
    line_bytes: usize,
}

impl MemoryOrganization {
    /// Creates the organisation described by `config`.
    pub fn new(config: &PcmConfig) -> MemoryOrganization {
        MemoryOrganization {
            channels: config.channels,
            dimms_per_channel: config.dimms_per_channel,
            banks_per_dimm: config.banks_per_dimm,
            line_bytes: config.line_bytes,
        }
    }

    /// Total number of banks.
    pub fn total_banks(&self) -> usize {
        self.channels * self.dimms_per_channel * self.banks_per_dimm
    }

    /// Maps a byte address to its bank location.
    pub fn locate(&self, address: u64) -> BankAddress {
        let line = address / self.line_bytes as u64;
        let channel = (line as usize) % self.channels;
        let dimm = (line as usize / self.channels) % self.dimms_per_channel;
        let bank = (line as usize / (self.channels * self.dimms_per_channel)) % self.banks_per_dimm;
        let row = line / (self.total_banks() as u64);
        BankAddress { channel, dimm, bank, row }
    }

    /// Flat index of the bank holding `address`.
    pub fn bank_index(&self, address: u64) -> usize {
        let loc = self.locate(address);
        (loc.channel * self.dimms_per_channel + loc.dimm) * self.banks_per_dimm + loc.bank
    }
}

/// Max/min ratio of a per-bank write-count vector: 1.0 means perfectly
/// balanced, infinity means at least one bank saw writes while another saw
/// none. Behind the per-cell
/// [`SchemeStats::write_imbalance`](crate::stats::SchemeStats::write_imbalance)
/// the experiment engine surfaces for shard-count tuning.
pub fn imbalance_of(writes_per_bank: &[u64]) -> f64 {
    let max = writes_per_bank.iter().copied().max().unwrap_or(0);
    let min = writes_per_bank.iter().copied().min().unwrap_or(0);
    if min == 0 {
        if max == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max as f64 / min as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_64_banks() {
        let org = MemoryOrganization::new(&PcmConfig::table_ii());
        assert_eq!(org.total_banks(), 64);
    }

    #[test]
    fn consecutive_lines_interleave_across_channels() {
        let org = MemoryOrganization::new(&PcmConfig::table_ii());
        let a = org.locate(0);
        let b = org.locate(64);
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn bank_index_is_stable_and_bounded() {
        let org = MemoryOrganization::new(&PcmConfig::table_ii());
        for line in 0..1000u64 {
            let idx = org.bank_index(line * 64);
            assert!(idx < org.total_banks());
            assert_eq!(idx, org.bank_index(line * 64));
        }
    }

    #[test]
    fn sequential_writes_balance_across_banks() {
        let org = MemoryOrganization::new(&PcmConfig::table_ii());
        let mut writes_per_bank = vec![0u64; org.total_banks()];
        for line in 0..6400u64 {
            writes_per_bank[org.bank_index(line * 64)] += 1;
        }
        assert!(imbalance_of(&writes_per_bank) <= 1.01);
    }

    #[test]
    fn same_bank_rows_differ() {
        let org = MemoryOrganization::new(&PcmConfig::table_ii());
        let banks = org.total_banks() as u64;
        let a = org.locate(0);
        let b = org.locate(banks * 64);
        assert_eq!(org.bank_index(0), org.bank_index(banks * 64));
        assert_ne!(a.row, b.row);
    }
}
