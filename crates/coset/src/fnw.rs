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
use wlcrc_pcm::kernel::{self, Selectors, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::{CellState, Symbol};
use wlcrc_pcm::LINE_CELLS;

/// Most blocks any granularity produces (8-bit blocks → 64 per line).
const MAX_BLOCKS: usize = 64;

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
    /// decisions are kept in a fixed array of 64, which covers the paper's
    /// whole 8..512-bit sweep but not more blocks.
    pub fn new(granularity: Granularity) -> FnwCodec {
        assert!(
            granularity.blocks_per_line() <= MAX_BLOCKS,
            "FnwCodec supports at most {MAX_BLOCKS} blocks per line (granularity >= 8 bits)"
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

    /// The state storing `symbol` in a block that is, or is not, flipped: a
    /// flipped block stores the symbol complement.
    fn target(&self, symbol: Symbol, flipped: bool) -> CellState {
        let stored = if flipped { Symbol::new(!symbol.value() & 0b11) } else { symbol };
        self.mapping.state_of(stored)
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
            let target = self.target(data.symbol(cell), flipped);
            cost += energy.transition_energy_pj(old.state(cell), target);
        }
        cost
    }

    /// The line every encode fills in: all cells RESET, the flip-bit cells
    /// after the 256 data cells marked auxiliary.
    fn blank_line(&self) -> PhysicalLine {
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        for cell in LINE_CELLS..self.encoded_cells() {
            out.set_class(cell, CellClass::Aux);
        }
        out
    }

    /// Packs the per-block flip decisions (`flips[b]` is 1 when block `b`
    /// is flipped) into the auxiliary cells, two flip bits per aux symbol
    /// through the default mapping.
    fn write_aux(&self, out: &mut PhysicalLine, flips: &[u8]) {
        let flipped = |block: usize| flips.get(block) == Some(&1);
        for i in 0..self.aux_cells() {
            let symbol = Symbol::from_bits(flipped(2 * i), flipped(2 * i + 1));
            out.set_state(LINE_CELLS + i, self.mapping.state_of(symbol));
        }
    }

    /// The scalar reference encoder (see [`crate::cost`]): per block, the
    /// keep and flip costs cell by cell, then the block written through the
    /// mapping. Kept callable for the equivalence tests and the perf
    /// snapshot.
    #[doc(hidden)]
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let blocks = self.granularity.blocks_per_line();
        let mut out = self.blank_line();
        let mut flips = [0u8; MAX_BLOCKS];
        for (block, flip) in flips[..blocks].iter_mut().enumerate() {
            let cells = self.granularity.block_cells(block);
            let keep = self.flip_cost(data, old, cells.clone(), false, energy);
            let flipped = self.flip_cost(data, old, cells.clone(), true, energy) < keep;
            *flip = u8::from(flipped);
            for cell in cells {
                out.set_state(cell, self.target(data.symbol(cell), flipped));
            }
        }
        self.write_aux(&mut out, &flips[..blocks]);
        out
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
        let (mut p0, mut p1) =
            kernel::symbol_planes_from_states(&states, self.mapping.symbols_per_state());
        // A flipped block stores the symbol complement, so un-flipping
        // inverts both symbol planes over the block's cells.
        for i in 0..self.aux_cells() {
            let symbol = self.mapping.symbol_of(stored.state(LINE_CELLS + i));
            for (bit, flagged) in [(2 * i, symbol.msb()), (2 * i + 1, symbol.lsb())] {
                if flagged && bit < blocks {
                    for (w, mask) in kernel::plane_words(self.granularity.block_cells(bit)) {
                        p0[w] ^= mask;
                        p1[w] ^= mask;
                    }
                }
            }
        }
        kernel::line_from_planes(&p0, &p1)
    }
}

impl TableCodec for FnwCodec {
    type Tables = [TransitionTable; 2];

    /// The two transition tables of the scheme: the plain mapping, and the
    /// mapping composed with the symbol complement (what a flipped block
    /// stores).
    fn tables(&self, energy: &EnergyModel) -> [TransitionTable; 2] {
        [false, true].map(|flipped| {
            let states = core::array::from_fn(|v| self.target(Symbol::new(v as u8), flipped));
            TransitionTable::from_states(states, energy)
        })
    }

    /// One [`kernel::select_blocks_uniform`] call at every granularity, over
    /// the tables `[keep, flipped]` with unpriced selectors: a block flips
    /// only when flipping is strictly cheaper, the winners are the flip bits,
    /// and the kernel hands back the chosen target planes.
    fn encode_with(
        &self,
        tables: &[TransitionTable; 2],
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let blocks = self.granularity.blocks_per_line();
        let mut flips = [0u8; MAX_BLOCKS];
        let mut out0 = [0u64; PLANE_WORDS];
        let mut out1 = [0u64; PLANE_WORDS];
        kernel::select_blocks_uniform(
            &data.symbol_planes(),
            &old.state_planes(),
            self.granularity.cells(),
            blocks,
            tables,
            Selectors::Unpriced,
            &mut flips,
            &mut out0,
            &mut out1,
        );
        let mut out = self.blank_line();
        out.set_data_planes(&out0, &out1);
        self.write_aux(&mut out, &flips[..blocks]);
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
        for granularity in Granularity::SWEEP {
            let codec = FnwCodec::new(granularity);
            let mut old = codec.initial_line();
            for _ in 0..10 {
                let data = random_line(&mut rng);
                let kernel = codec.encode(&data, &old, &energy);
                assert_eq!(kernel, codec.encode_scalar(&data, &old, &energy), "{granularity}");
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
