//! Flip-N-Write (FNW) adapted to MLC PCM.
//!
//! FNW stores either a data block or its bitwise complement, whichever incurs
//! the smaller differential-write cost, and records the choice in a single
//! auxiliary bit per block. Following the paper's ISO-overhead comparison,
//! the line is partitioned into 128-bit blocks (four per line), so the scheme
//! uses four auxiliary bits — two auxiliary symbols — per 512-bit line, the
//! same overhead as FlipMin and 6cosets.

use crate::granularity::Granularity;
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::{CellState, Symbol};
use wlcrc_pcm::LINE_CELLS;

/// The Flip-N-Write codec.
#[derive(Debug, Clone)]
pub struct FnwCodec {
    granularity: Granularity,
    mapping: SymbolMapping,
    name: String,
}

impl FnwCodec {
    /// Creates an FNW codec flipping blocks of the given granularity.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is finer than 8 bits: the per-write flip
    /// decisions are kept in a `u64` mask (one bit per block), which covers
    /// the paper's whole 8..512-bit sweep but not more than 64 blocks.
    pub fn new(granularity: Granularity) -> FnwCodec {
        assert!(
            granularity.blocks_per_line() <= 64,
            "FnwCodec supports at most 64 blocks per line (granularity >= 8 bits)"
        );
        FnwCodec {
            granularity,
            mapping: SymbolMapping::default_mapping(),
            name: format!("FNW-{}", granularity.bits()),
        }
    }

    /// The configuration used in the paper's evaluation: 128-bit blocks.
    pub fn paper_default() -> FnwCodec {
        FnwCodec::new(Granularity::new(128))
    }

    /// The block granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of auxiliary cells appended to the line.
    pub fn aux_cells(&self) -> usize {
        self.granularity.blocks_per_line().div_ceil(2)
    }

    fn flip_cost(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        cells: std::ops::Range<usize>,
        flipped: bool,
        energy: &EnergyModel,
    ) -> f64 {
        let mut cost = 0.0;
        for cell in cells {
            let mut symbol = data.symbol(cell);
            if flipped {
                symbol = Symbol::new(!symbol.value() & 0b11);
            }
            let target = self.mapping.state_of(symbol);
            cost += energy.transition_energy_pj(old.state(cell), target);
        }
        cost
    }

    /// Packs the per-block flip decisions into the auxiliary cells, two
    /// flip bits per aux symbol through the default mapping.
    fn write_aux(&self, out: &mut PhysicalLine, flips: u64, blocks: usize) {
        for i in 0..self.aux_cells() {
            let msb = (flips >> (2 * i)) & 1 == 1;
            let lsb = 2 * i + 1 < blocks && (flips >> (2 * i + 1)) & 1 == 1;
            out.set_state(LINE_CELLS + i, self.mapping.state_of(Symbol::from_bits(msb, lsb)));
        }
    }

    /// The scalar reference encoder (see [`crate::cost`]); kept callable for
    /// the equivalence tests and the perf snapshot.
    #[doc(hidden)]
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let blocks = self.granularity.blocks_per_line();
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        for cell in LINE_CELLS..self.encoded_cells() {
            out.set_class(cell, CellClass::Aux);
        }
        let tables = self.tables(energy);
        let mut flips = 0u64;
        for block in 0..blocks {
            let cells = self.granularity.block_cells(block);
            let keep = self.flip_cost(data, old, cells.clone(), false, energy);
            let inverted = self.flip_cost(data, old, cells.clone(), true, energy);
            let flip = inverted < keep;
            if flip {
                flips |= 1 << block;
            }
            kernel::write_block(data, &mut out, cells, &tables[usize::from(flip)]);
        }
        self.write_aux(&mut out, flips, blocks);
        out
    }
}

/// Sets one bit per cell of `cells` in a per-cell plane-word mask.
fn set_cell_range(mask: &mut [u64; PLANE_WORDS], cells: std::ops::Range<usize>) {
    let (mut c, end) = (cells.start, cells.end);
    while c < end {
        let (w, off) = (c / 64, c % 64);
        let n = (64 - off).min(end - c);
        mask[w] |= (u64::MAX >> (64 - n)) << off;
        c += n;
    }
}

/// Sets line bits `start..end` in a fixed word buffer.
fn set_bit_range(words: &mut [u64; wlcrc_pcm::LINE_WORDS], start: usize, end: usize) {
    let mut b = start;
    while b < end {
        let (w, off) = (b / 64, b % 64);
        let n = (64 - off).min(end - b);
        words[w] |= (u64::MAX >> (64 - n)) << off;
        b += n;
    }
}

impl LineCodec for FnwCodec {
    fn name(&self) -> &str {
        &self.name
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS + self.aux_cells()
    }

    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        self.encode_with(&self.tables(energy), data, old)
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        codec::prepare(self, energy)
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        let blocks = self.granularity.blocks_per_line();
        // Bit-parallel inverse mapping of the data cells: a handful of word
        // shuffles on the stored planes.
        let states = stored.state_planes();
        let (p0, p1) = kernel::symbol_planes_from_states(&states, self.mapping.symbols_per_state());
        let encoded = kernel::line_from_planes(&p0, &p1);
        // A flipped block stores the symbol complement, so un-flipping is an
        // XOR with all-ones over the block's bits.
        let mut flip_bits = [0u64; wlcrc_pcm::LINE_WORDS];
        for i in 0..self.aux_cells() {
            let symbol = self.mapping.symbol_of(stored.state(LINE_CELLS + i));
            for (bit, flagged) in [(2 * i, symbol.msb()), (2 * i + 1, symbol.lsb())] {
                if flagged && bit < blocks {
                    let cells = self.granularity.block_cells(bit);
                    set_bit_range(&mut flip_bits, 2 * cells.start, 2 * cells.end);
                }
            }
        }
        encoded.xor(&MemoryLine::from_words(flip_bits))
    }
}

impl TableCodec for FnwCodec {
    type Tables = [TransitionTable; 2];

    /// The two transition tables of the scheme: the plain mapping, and the
    /// mapping composed with the symbol complement (what a flipped block
    /// stores).
    fn tables(&self, energy: &EnergyModel) -> [TransitionTable; 2] {
        let keep = TransitionTable::new(&self.mapping, energy);
        let mut flipped_states = [CellState::S1; 4];
        for (v, slot) in flipped_states.iter_mut().enumerate() {
            *slot = self.mapping.state_of(Symbol::new(!(v as u8) & 0b11));
        }
        [keep, TransitionTable::from_states(flipped_states, energy)]
    }

    /// Bit-parallel encode: each block's keep and flip costs come from the
    /// kernel, and the chosen target planes are selected per word.
    fn encode_with(
        &self,
        tables: &[TransitionTable; 2],
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let (planes, stored) = (data.symbol_planes(), old.state_planes());
        let blocks = self.granularity.blocks_per_line();
        debug_assert!(blocks <= 64, "flip mask is a u64");
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        for cell in LINE_CELLS..self.encoded_cells() {
            out.set_class(cell, CellClass::Aux);
        }
        let mut flips = 0u64;
        // Per-cell select mask of the flipped blocks, one bit per cell.
        let mut flip_mask = [0u64; PLANE_WORDS];
        for block in 0..blocks {
            let cells = self.granularity.block_cells(block);
            let keep = kernel::block_cost(&planes, &stored, cells.clone(), &tables[0]);
            let inverted = kernel::block_cost(&planes, &stored, cells.clone(), &tables[1]);
            if inverted < keep {
                flips |= 1 << block;
                set_cell_range(&mut flip_mask, cells);
            }
        }
        // Plane-assembled write: select each word's target planes between
        // the keep and the flipped table, then store them at once.
        let mut out0 = [0u64; PLANE_WORDS];
        let mut out1 = [0u64; PLANE_WORDS];
        for w in 0..PLANE_WORDS {
            let (k0, k1) = tables[0].target_planes(&planes, w);
            let (f0, f1) = tables[1].target_planes(&planes, w);
            let fm = flip_mask[w];
            out0[w] = (k0 & !fm) | (f0 & fm);
            out1[w] = (k1 & !fm) | (f1 & fm);
        }
        out.set_data_planes(&out0, &out1);
        self.write_aux(&mut out, flips, blocks);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wlcrc_pcm::codec::RawCodec;
    use wlcrc_pcm::write::differential_write;

    fn random_line(rng: &mut StdRng) -> MemoryLine {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.gen();
        }
        MemoryLine::from_words(words)
    }

    #[test]
    fn paper_configuration_uses_two_aux_symbols() {
        let codec = FnwCodec::paper_default();
        assert_eq!(codec.aux_cells(), 2);
        assert_eq!(codec.encoded_cells(), 258);
    }

    #[test]
    fn round_trip() {
        let energy = EnergyModel::paper_default();
        let codec = FnwCodec::paper_default();
        let mut rng = StdRng::seed_from_u64(8);
        let mut old = codec.initial_line();
        for _ in 0..50 {
            let data = random_line(&mut rng);
            let enc = codec.encode(&data, &old, &energy);
            assert_eq!(codec.decode(&enc), data);
            old = enc;
        }
    }

    #[test]
    fn flipping_helps_on_inverted_rewrites() {
        // Rewriting a line with its own complement is the best case for FNW:
        // the flipped encoding leaves every data cell untouched.
        let energy = EnergyModel::paper_default();
        let codec = FnwCodec::paper_default();
        let raw = RawCodec::new();
        let mut rng = StdRng::seed_from_u64(15);
        let original = random_line(&mut rng);
        let complemented = original.complement();

        let old_fnw = codec.encode(&original, &codec.initial_line(), &energy);
        let new_fnw = codec.encode(&complemented, &old_fnw, &energy);
        let fnw_cost = differential_write(&old_fnw, &new_fnw, &energy).data_energy_pj;

        let old_raw = raw.encode(&original, &raw.initial_line(), &energy);
        let new_raw = raw.encode(&complemented, &old_raw, &energy);
        let raw_cost = differential_write(&old_raw, &new_raw, &energy).data_energy_pj;

        assert_eq!(fnw_cost, 0.0);
        assert!(raw_cost > 0.0);
    }

    #[test]
    fn kernel_encode_matches_scalar_encode() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(51);
        for g in [16usize, 64, 128, 512] {
            let codec = FnwCodec::new(Granularity::new(g));
            let mut old = codec.initial_line();
            for _ in 0..10 {
                let data = random_line(&mut rng);
                let kernel = codec.encode(&data, &old, &energy);
                assert_eq!(kernel, codec.encode_scalar(&data, &old, &energy), "g={g}");
                old = kernel;
            }
        }
    }

    #[test]
    fn fnw_never_worse_than_not_flipping() {
        // Against the same stored content, the flip decision can only lower
        // the data-cell write energy compared to writing the data unflipped.
        let energy = EnergyModel::paper_default();
        let codec = FnwCodec::paper_default();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..30 {
            let a = random_line(&mut rng);
            let b = random_line(&mut rng);
            let old = codec.encode(&a, &codec.initial_line(), &energy);
            let new = codec.encode(&b, &old, &energy);
            let chosen = differential_write(&old, &new, &energy).data_energy_pj;
            let unflipped: f64 = (0..4)
                .map(|blk| {
                    codec.flip_cost(&b, &old, codec.granularity().block_cells(blk), false, &energy)
                })
                .sum();
            assert!(chosen <= unflipped + 1e-9);
        }
    }
}
