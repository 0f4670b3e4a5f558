//! Per-word bit layout of the WLC-integrated codecs.
//!
//! When Word-Level Compression reclaims the top `r` bits of every 64-bit
//! word, those bit positions hold the auxiliary encoding information and the
//! remaining `64 − r` bits hold (encoded) data. Because MLC cells store two
//! bits each, the cell at the reclaimed/data boundary may be *mixed* when `r`
//! is odd: its high bit is auxiliary, its low bit is a pass-through data bit
//! that is stored unencoded.
//!
//! [`WordLayout`] captures this geometry for a given granularity and reclaim
//! count and is shared by the restricted (WLCRC) and unrestricted
//! (WLC+4cosets / WLC+3cosets) codecs.

use wlcrc_pcm::WORD_CELLS;

/// The geometry of one 64-bit word under a WLC-integrated encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordLayout {
    /// Data-block granularity in bits (8, 16, 32 or 64).
    pub granularity_bits: usize,
    /// Number of reclaimed (auxiliary) bits at the top of the word.
    pub reclaimed_bits: usize,
}

impl WordLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is not one of 8/16/32/64 or the reclaim
    /// count does not leave at least one whole data cell.
    pub fn new(granularity_bits: usize, reclaimed_bits: usize) -> WordLayout {
        assert!(
            matches!(granularity_bits, 8 | 16 | 32 | 64),
            "WLC-integrated encodings support 8/16/32/64-bit granularities"
        );
        assert!((1..=32).contains(&reclaimed_bits), "reclaimed bits must be in 1..=32");
        WordLayout { granularity_bits, reclaimed_bits }
    }

    /// Number of most-significant bits that must be identical for WLC to
    /// compress the word (one more than the reclaimed bits, so the dropped
    /// bits can be rebuilt by sign extension).
    pub fn wlc_k(&self) -> usize {
        self.reclaimed_bits + 1
    }

    /// Number of data bits kept in the word (`64 − reclaimed`).
    pub fn data_bits(&self) -> usize {
        64 - self.reclaimed_bits
    }

    /// Number of word cells that hold only (coset-encoded) data bits.
    pub fn full_data_cells(&self) -> usize {
        self.data_bits() / 2
    }

    /// `true` when one data bit shares the boundary cell with an auxiliary
    /// bit and is therefore stored unencoded (pass-through).
    pub fn has_pass_through_bit(&self) -> bool {
        self.data_bits() % 2 == 1
    }

    /// The word-relative bit index of the pass-through bit, if any.
    pub fn pass_through_bit(&self) -> Option<usize> {
        if self.has_pass_through_bit() {
            Some(self.data_bits() - 1)
        } else {
            None
        }
    }

    /// Number of word cells that contain at least one auxiliary bit.
    pub fn aux_cells(&self) -> usize {
        WORD_CELLS - self.full_data_cells()
    }

    /// Number of independently encoded data blocks in the word.
    pub fn blocks(&self) -> usize {
        self.full_data_cells().div_ceil(self.granularity_bits / 2)
    }

    /// The word-relative cell range of data block `block`; the last block may
    /// be shorter than the nominal granularity.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.blocks()`.
    pub fn block_cells(&self, block: usize) -> std::ops::Range<usize> {
        assert!(block < self.blocks(), "block index out of range");
        let cells_per_block = self.granularity_bits / 2;
        let start = block * cells_per_block;
        let end = (start + cells_per_block).min(self.full_data_cells());
        start..end
    }

    /// Layout used by the paper's restricted coset coding (WLCRC) at the
    /// given granularity: one group bit plus one bit per block.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is not 8, 16, 32 or 64 bits.
    pub fn restricted(granularity_bits: usize) -> WordLayout {
        let reclaimed = match granularity_bits {
            8 => 8,  // 1 group bit + 7 block bits
            16 => 5, // 1 group bit + 4 block bits
            32 => 3, // 1 group bit + 2 block bits
            64 => 2, // 2-bit candidate selector (identical to 3cosets)
            other => panic!("unsupported WLCRC granularity: {other}"),
        };
        WordLayout::new(granularity_bits, reclaimed)
    }

    /// Layout used by the unrestricted WLC+cosets schemes (two selector bits
    /// per block).
    ///
    /// # Panics
    ///
    /// Panics if the granularity is not 8, 16, 32 or 64 bits.
    pub fn unrestricted(granularity_bits: usize) -> WordLayout {
        let reclaimed = match granularity_bits {
            8 => 16,
            16 => 8,
            32 => 4,
            64 => 2,
            other => panic!("unsupported WLC+cosets granularity: {other}"),
        };
        WordLayout::new(granularity_bits, reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WordLayout {
        /// The oracle for "the aux bits fit the reclaimed space": the number
        /// of auxiliary bits the encoding needs (group/selector bits).
        fn aux_bits_needed(&self, restricted: bool) -> usize {
            if restricted {
                if self.granularity_bits == 64 {
                    2
                } else {
                    1 + self.blocks()
                }
            } else {
                2 * self.blocks()
            }
        }
    }

    #[test]
    fn wlcrc16_layout_matches_paper() {
        let layout = WordLayout::restricted(16);
        assert_eq!(layout.reclaimed_bits, 5);
        assert_eq!(layout.wlc_k(), 6);
        assert_eq!(layout.data_bits(), 59);
        assert_eq!(layout.full_data_cells(), 29);
        assert!(layout.has_pass_through_bit());
        assert_eq!(layout.pass_through_bit(), Some(58));
        assert_eq!(layout.blocks(), 4);
        assert_eq!(layout.aux_cells(), 3);
        assert_eq!(layout.aux_bits_needed(true), 5);
        // The most-significant block is the short one (bits 48..57).
        assert_eq!(layout.block_cells(3), 24..29);
        assert_eq!(layout.block_cells(0), 0..8);
    }

    #[test]
    fn wlcrc_other_granularities() {
        let g8 = WordLayout::restricted(8);
        assert_eq!(g8.reclaimed_bits, 8);
        assert_eq!(g8.blocks(), 7);
        assert_eq!(g8.aux_bits_needed(true), 8);
        assert!(!g8.has_pass_through_bit());

        let g32 = WordLayout::restricted(32);
        assert_eq!(g32.reclaimed_bits, 3);
        assert_eq!(g32.blocks(), 2);
        assert_eq!(g32.aux_bits_needed(true), 3);
        assert!(g32.has_pass_through_bit());

        let g64 = WordLayout::restricted(64);
        assert_eq!(g64.reclaimed_bits, 2);
        assert_eq!(g64.blocks(), 1);
        assert_eq!(g64.aux_bits_needed(true), 2);
    }

    #[test]
    fn unrestricted_layouts_match_paper_reclaim_counts() {
        // "to use WLC with 4cosets at data block granularities of 8, 16, 32
        //  or 64 bits, WLC has to reclaim 16, 8, 4 and 2 bits per word"
        assert_eq!(WordLayout::unrestricted(8).reclaimed_bits, 16);
        assert_eq!(WordLayout::unrestricted(16).reclaimed_bits, 8);
        assert_eq!(WordLayout::unrestricted(32).reclaimed_bits, 4);
        assert_eq!(WordLayout::unrestricted(64).reclaimed_bits, 2);
    }

    #[test]
    fn aux_bits_fit_in_reclaimed_space() {
        for g in [8usize, 16, 32, 64] {
            let r = WordLayout::restricted(g);
            assert!(r.aux_bits_needed(true) <= r.reclaimed_bits, "restricted g={g}");
            let u = WordLayout::unrestricted(g);
            assert!(u.aux_bits_needed(false) <= u.reclaimed_bits, "unrestricted g={g}");
        }
    }

    #[test]
    fn block_cells_cover_all_full_data_cells() {
        for g in [8usize, 16, 32, 64] {
            for layout in [WordLayout::restricted(g), WordLayout::unrestricted(g)] {
                let mut covered = 0;
                for b in 0..layout.blocks() {
                    covered += layout.block_cells(b).len();
                }
                assert_eq!(covered, layout.full_data_cells());
            }
        }
    }

    #[test]
    #[should_panic]
    fn unsupported_granularity_is_rejected() {
        let _ = WordLayout::restricted(128);
    }
}
