//! FlipMin: coset coding with XOR-mask candidates derived from the dual of a
//! (72, 64) Hamming code.
//!
//! FlipMin maps the data line one-to-one into a coset of candidate code words
//! (here: the line XORed with one of sixteen fixed 512-bit masks) and writes
//! the candidate that minimises the differential-write cost. The index of the
//! chosen candidate is stored in two auxiliary symbols (four bits), matching
//! the overhead used by the paper's ISO-overhead comparison. Because the
//! masks are essentially random vectors, FlipMin is most effective on random
//! data and much less so on biased, real-workload data.

use wlcrc_ecc::coset_masks;
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, SymbolPlanes, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::Symbol;
use wlcrc_pcm::LINE_CELLS;

/// Number of coset candidates (XOR masks).
const CANDIDATES: usize = 16;
/// Auxiliary cells used to record the chosen candidate (4 bits).
const AUX_CELLS: usize = 2;

/// The FlipMin codec.
#[derive(Debug, Clone)]
pub struct FlipMinCodec {
    masks: Vec<MemoryLine>,
    /// The plane view of every mask, precomputed once: a candidate's symbol
    /// planes are `data_planes XOR mask_planes`, so the per-write search
    /// never materialises the XORed lines.
    mask_planes: Vec<SymbolPlanes>,
    mapping: SymbolMapping,
}

impl FlipMinCodec {
    /// Creates a FlipMin codec with the default deterministic mask set.
    pub fn new() -> FlipMinCodec {
        FlipMinCodec::with_seed(0x0F1B_A5ED)
    }

    /// Creates a FlipMin codec whose masks are generated from `seed`.
    pub fn with_seed(seed: u64) -> FlipMinCodec {
        let masks: Vec<MemoryLine> =
            coset_masks(CANDIDATES, seed).into_iter().map(MemoryLine::from_words).collect();
        let mask_planes = masks.iter().map(SymbolPlanes::new).collect();
        FlipMinCodec { masks, mask_planes, mapping: SymbolMapping::default_mapping() }
    }

    /// The sixteen XOR-mask candidates.
    pub fn masks(&self) -> &[MemoryLine] {
        &self.masks
    }

    fn cost_of(&self, candidate: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> f64 {
        let mut cost = 0.0;
        for cell in 0..LINE_CELLS {
            let target = self.mapping.state_of(candidate.symbol(cell));
            cost += energy.transition_energy_pj(old.state(cell), target);
        }
        cost
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
        let mut best_index = 0usize;
        let mut best_cost = f64::INFINITY;
        for (i, mask) in self.masks.iter().enumerate() {
            let candidate = data.xor(mask);
            let cost = self.cost_of(&candidate, old, energy);
            if cost < best_cost {
                best_cost = cost;
                best_index = i;
            }
        }
        let best_line = data.xor(&self.masks[best_index]);
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        for cell in 0..LINE_CELLS {
            out.set_state(cell, self.mapping.state_of(best_line.symbol(cell)));
        }
        for (i, shift) in [(0usize, 0u32), (1, 2)] {
            let bits = ((best_index >> shift) & 0b11) as u8;
            out.set_state(LINE_CELLS + i, self.mapping.state_of(Symbol::new(bits)));
            out.set_class(LINE_CELLS + i, CellClass::Aux);
        }
        out
    }
}

impl Default for FlipMinCodec {
    fn default() -> FlipMinCodec {
        FlipMinCodec::new()
    }
}

impl LineCodec for FlipMinCodec {
    fn name(&self) -> &str {
        "FlipMin"
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS + AUX_CELLS
    }

    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        self.encode_with(&self.tables(energy), data, old)
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        codec::prepare(self, energy)
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        let lo = self.mapping.symbol_of(stored.state(LINE_CELLS)).value() as usize;
        let hi = self.mapping.symbol_of(stored.state(LINE_CELLS + 1)).value() as usize;
        let index = (lo | (hi << 2)).min(CANDIDATES - 1);
        // Bit-parallel inverse mapping of the data cells (warm on lines the
        // plane-assembled encode produced), then one XOR to strip the mask.
        let states = stored.state_planes();
        let (p0, p1) = kernel::symbol_planes_from_states(&states, self.mapping.symbols_per_state());
        kernel::line_from_planes(&p0, &p1).xor(&self.masks[index])
    }
}

impl TableCodec for FlipMinCodec {
    type Tables = TransitionTable;

    fn tables(&self, energy: &EnergyModel) -> TransitionTable {
        TransitionTable::new(&self.mapping, energy)
    }

    /// Bit-parallel encode: each mask's candidate planes are the data planes
    /// XORed with the mask's, priced with branch-and-bound against the
    /// incumbent.
    fn encode_with(
        &self,
        table: &TransitionTable,
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let (planes, stored) = (data.symbol_planes(), old.state_planes());
        let mut best_index = 0usize;
        let mut best_cost = f64::INFINITY;
        for (i, mask_planes) in self.mask_planes.iter().enumerate() {
            let candidate = planes.xor(mask_planes);
            if let Some(cost) =
                kernel::block_cost_bounded(&candidate, &stored, 0..LINE_CELLS, table, best_cost)
            {
                best_cost = cost;
                best_index = i;
            }
        }
        // Plane-assembled write of the winner: its target planes are the
        // new line's data planes.
        let candidate = planes.xor(&self.mask_planes[best_index]);
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        let mut out0 = [0u64; PLANE_WORDS];
        let mut out1 = [0u64; PLANE_WORDS];
        for w in 0..PLANE_WORDS {
            (out0[w], out1[w]) = table.target_planes(&candidate, w);
        }
        out.set_data_planes(&out0, &out1);
        // The 4-bit candidate index is stored in two auxiliary cells.
        for (i, shift) in [(0usize, 0u32), (1, 2)] {
            let bits = ((best_index >> shift) & 0b11) as u8;
            out.set_state(LINE_CELLS + i, self.mapping.state_of(Symbol::new(bits)));
            out.set_class(LINE_CELLS + i, CellClass::Aux);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wlcrc_pcm::write::differential_write;

    fn random_line(rng: &mut StdRng) -> MemoryLine {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.gen();
        }
        MemoryLine::from_words(words)
    }

    #[test]
    fn sixteen_distinct_masks_with_identity_first() {
        let codec = FlipMinCodec::new();
        assert_eq!(codec.masks().len(), 16);
        assert_eq!(codec.masks()[0], MemoryLine::ZERO);
    }

    #[test]
    fn round_trip() {
        let codec = FlipMinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut old = codec.initial_line();
        for _ in 0..50 {
            let data = random_line(&mut rng);
            let enc = codec.encode(&data, &old, &energy);
            assert_eq!(codec.decode(&enc), data);
            old = enc;
        }
    }

    #[test]
    fn never_worse_than_identity_candidate() {
        // The identity mask is always a candidate, so against the same stored
        // content the chosen encoding's data-cell energy can never exceed
        // writing the data unmasked.
        let codec = FlipMinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let a = random_line(&mut rng);
            let b = random_line(&mut rng);
            let old = codec.encode(&a, &codec.initial_line(), &energy);
            let new = codec.encode(&b, &old, &energy);
            let chosen = differential_write(&old, &new, &energy).data_energy_pj;
            let identity = codec.cost_of(&b, &old, &energy);
            assert!(chosen <= identity + 1e-9);
        }
    }

    #[test]
    fn kernel_encode_matches_scalar_encode() {
        let codec = FlipMinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(61);
        let mut old = codec.initial_line();
        for _ in 0..30 {
            let data = random_line(&mut rng);
            let kernel = codec.encode(&data, &old, &energy);
            assert_eq!(kernel, codec.encode_scalar(&data, &old, &energy));
            old = kernel;
        }
    }

    #[test]
    fn aux_overhead_is_two_symbols() {
        let codec = FlipMinCodec::new();
        let energy = EnergyModel::paper_default();
        let enc = codec.encode(&MemoryLine::ZERO, &codec.initial_line(), &energy);
        assert_eq!(enc.len(), 258);
        assert_eq!(enc.aux_cells(), 2);
    }

    #[test]
    fn different_seeds_give_different_masks() {
        let a = FlipMinCodec::with_seed(1);
        let b = FlipMinCodec::with_seed(2);
        assert_ne!(a.masks()[1], b.masks()[1]);
    }
}
