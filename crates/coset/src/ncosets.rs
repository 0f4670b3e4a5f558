//! The generic "n cosets" codec: each data block is independently encoded
//! with the cheapest candidate of a [`CandidateSet`], and the chosen candidate
//! is recorded in auxiliary cells appended to the line.
//!
//! Instantiated with the right candidate set and granularity this yields the
//! paper's `3cosets`, `4cosets` and `6cosets` schemes at any block size from
//! 8 to 512 bits.

use crate::candidate::CandidateSet;
use crate::cost::{block_cost, write_block};
use crate::granularity::Granularity;
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, Selectors, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::CellState;
use wlcrc_pcm::LINE_CELLS;

/// The six cheapest two-cell state combinations, used by candidate sets that
/// need more than four selector values per block (i.e. 6cosets). Ordered by
/// total programming energy so that low indices are cheap to store.
const AUX_COMBOS: [(CellState, CellState); 6] = [
    (CellState::S1, CellState::S1),
    (CellState::S1, CellState::S2),
    (CellState::S2, CellState::S1),
    (CellState::S2, CellState::S2),
    (CellState::S1, CellState::S3),
    (CellState::S3, CellState::S1),
];

/// Largest candidate set a codec can hold (bounded by [`AUX_COMBOS`]).
const MAX_CANDIDATES: usize = AUX_COMBOS.len();

/// Most blocks any granularity produces (8-bit blocks → 64 per line).
const MAX_LINE_BLOCKS: usize = 64;

/// Precomputed inverse of [`AUX_COMBOS`], indexed by
/// `first.index() * 4 + second.index()`; `NO_COMBO` marks state pairs that
/// are not a valid selector encoding (the decode path treats them as
/// candidate 0, like the old linear `iter().position()` scan did).
const NO_COMBO: u8 = u8::MAX;
const AUX_COMBO_INDEX: [u8; 16] = {
    let mut table = [NO_COMBO; 16];
    let mut i = 0;
    while i < AUX_COMBOS.len() {
        let (a, b) = AUX_COMBOS[i];
        table[a.index() * 4 + b.index()] = i as u8;
        i += 1;
    }
    table
};

/// A coset codec that picks, for every data block, the candidate with the
/// minimum differential-write energy.
#[derive(Debug, Clone)]
pub struct NCosetsCodec {
    set: CandidateSet,
    granularity: Granularity,
    name: String,
}

impl NCosetsCodec {
    /// Creates a codec from a candidate set and block granularity.
    ///
    /// # Panics
    ///
    /// Panics if the candidate set needs more than two auxiliary cells per
    /// block (more than 16 candidates), or if the granularity is finer than
    /// 8 bits: the block selection keeps its winners in a fixed array of 64,
    /// and 6cosets at 2 bits would need 768 cells, past
    /// [`wlcrc_pcm::MAX_LINE_CELLS`].
    pub fn new(set: CandidateSet, granularity: Granularity) -> NCosetsCodec {
        assert!(set.len() <= 16, "NCosetsCodec supports at most 16 candidates per block");
        assert!(
            granularity.blocks_per_line() <= MAX_LINE_BLOCKS,
            "NCosetsCodec supports at most {MAX_LINE_BLOCKS} blocks per line (granularity >= 8 bits)"
        );
        if set.len() > 4 {
            assert!(
                set.len() <= AUX_COMBOS.len(),
                "candidate sets with more than 4 entries are limited to {} (the cheap aux combos)",
                AUX_COMBOS.len()
            );
        }
        let name = format!("{}-{}", set.name(), granularity.bits());
        NCosetsCodec { set, granularity, name }
    }

    /// The paper's `4cosets` scheme at the given granularity.
    pub fn four_cosets(granularity: Granularity) -> NCosetsCodec {
        NCosetsCodec::new(CandidateSet::four_cosets(), granularity)
    }

    /// The paper's `3cosets` scheme at the given granularity.
    pub fn three_cosets(granularity: Granularity) -> NCosetsCodec {
        NCosetsCodec::new(CandidateSet::three_cosets(), granularity)
    }

    /// The prior `6cosets` scheme at the given granularity.
    pub fn six_cosets(granularity: Granularity) -> NCosetsCodec {
        NCosetsCodec::new(CandidateSet::six_cosets(), granularity)
    }

    /// The block granularity of this codec.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of auxiliary cells used per block.
    pub fn aux_cells_per_block(&self) -> usize {
        if self.set.len() <= 4 {
            1
        } else {
            2
        }
    }

    fn aux_cell_base(&self) -> usize {
        LINE_CELLS
    }

    fn write_selector(&self, out: &mut PhysicalLine, block: usize, index: usize) {
        let base = self.aux_cell_base() + block * self.aux_cells_per_block();
        if self.aux_cells_per_block() == 1 {
            out.set_state(base, CellState::from_index(index));
        } else {
            let (a, b) = AUX_COMBOS[index];
            out.set_state(base, a);
            out.set_state(base + 1, b);
        }
    }

    /// Differential-write cost of recording candidate `index` for `block`,
    /// given the currently stored auxiliary cells.
    fn selector_cost(
        &self,
        old: &PhysicalLine,
        block: usize,
        index: usize,
        energy: &EnergyModel,
    ) -> f64 {
        let base = self.aux_cell_base() + block * self.aux_cells_per_block();
        if self.aux_cells_per_block() == 1 {
            energy.transition_energy_pj(old.state(base), CellState::from_index(index))
        } else {
            let (a, b) = AUX_COMBOS[index];
            energy.transition_energy_pj(old.state(base), a)
                + energy.transition_energy_pj(old.state(base + 1), b)
        }
    }

    fn read_selector(&self, stored: &PhysicalLine, block: usize) -> usize {
        let base = self.aux_cell_base() + block * self.aux_cells_per_block();
        if self.aux_cells_per_block() == 1 {
            stored.state(base).index().min(self.set.len() - 1)
        } else {
            let key = stored.state(base).index() * 4 + stored.state(base + 1).index();
            let index = AUX_COMBO_INDEX[key];
            let index = if index == NO_COMBO { 0 } else { index as usize };
            index.min(self.set.len() - 1)
        }
    }

    /// The line every encode fills in: all cells RESET, the selector cells
    /// after the 256 data cells marked auxiliary.
    fn blank_line(&self) -> PhysicalLine {
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        for cell in LINE_CELLS..self.encoded_cells() {
            out.set_class(cell, CellClass::Aux);
        }
        out
    }

    /// The scalar reference encoder: per block, the candidate with the
    /// smallest differential-write cost of the data block plus the selector
    /// cells that record it, priced and written cell by cell through
    /// [`crate::cost`]. Kept callable so the equivalence tests and the perf
    /// snapshot can compare the kernel encode against it.
    #[doc(hidden)]
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = self.blank_line();
        for block in 0..self.granularity.blocks_per_line() {
            let cells = self.granularity.block_cells(block);
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (idx, candidate) in self.set.candidates().iter().enumerate() {
                let cost = block_cost(data, old, cells.clone(), candidate, energy)
                    + self.selector_cost(old, block, idx, energy);
                if cost < best_cost {
                    best_cost = cost;
                    best = idx;
                }
            }
            write_block(data, &mut out, cells, self.set.candidate(best));
            self.write_selector(&mut out, block, best);
        }
        out
    }
}

impl LineCodec for NCosetsCodec {
    fn name(&self) -> &str {
        &self.name
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS + self.granularity.blocks_per_line() * self.aux_cells_per_block()
    }

    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        self.encode_with(&self.tables(energy), data, old)
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        codec::prepare(self, energy)
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        // Bit-parallel inverse mapping: one plane transform per candidate
        // (at most six), then a per-block select of whichever candidate the
        // stored selector names. Byte-identical to the per-cell
        // [`read_block`] reference, which remains the oracle in tests.
        let states = stored.state_planes();
        let mut inverses = [([0u64; PLANE_WORDS], [0u64; PLANE_WORDS]); MAX_CANDIDATES];
        for (slot, candidate) in inverses.iter_mut().zip(self.set.candidates()) {
            *slot =
                kernel::symbol_planes_from_states(&states, candidate.mapping().symbols_per_state());
        }
        let mut p0 = [0u64; PLANE_WORDS];
        let mut p1 = [0u64; PLANE_WORDS];
        for block in 0..self.granularity.blocks_per_line() {
            let index = self.read_selector(stored, block);
            let (c0, c1) = &inverses[index];
            for (w, mask) in kernel::plane_words(self.granularity.block_cells(block)) {
                p0[w] |= c0[w] & mask;
                p1[w] |= c1[w] & mask;
            }
        }
        kernel::line_from_planes(&p0, &p1)
    }
}

impl TableCodec for NCosetsCodec {
    /// One transition table per candidate, on the stack.
    type Tables = [TransitionTable; MAX_CANDIDATES];

    fn tables(&self, energy: &EnergyModel) -> Self::Tables {
        let mut tables = [TransitionTable::placeholder(); MAX_CANDIDATES];
        for (table, candidate) in tables.iter_mut().zip(self.set.candidates()) {
            *table = TransitionTable::new(&candidate.mapping(), energy);
        }
        tables
    }

    /// One [`kernel::select_blocks_uniform`] call at every granularity: the
    /// kernel totals each block's data cost and the cost of the selector
    /// cells that would record the candidate, which follow the 256 data
    /// cells where it reads them, and hands back the winners and their
    /// target planes. The choices are the scalar loop's of
    /// [`NCosetsCodec::encode_scalar`] whenever the energy table is integer.
    fn encode_with(
        &self,
        tables: &Self::Tables,
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let blocks = self.granularity.blocks_per_line();
        let selectors = if self.aux_cells_per_block() == 1 {
            Selectors::OneCell(old)
        } else {
            Selectors::TwoCells { stored: old, codes: &AUX_COMBOS }
        };
        let mut winners = [0u8; MAX_LINE_BLOCKS];
        let mut out0 = [0u64; PLANE_WORDS];
        let mut out1 = [0u64; PLANE_WORDS];
        kernel::select_blocks_uniform(
            &data.symbol_planes(),
            &old.state_planes(),
            self.granularity.cells(),
            blocks,
            &tables[..self.set.len()],
            selectors,
            &mut winners,
            &mut out0,
            &mut out1,
        );
        let mut out = self.blank_line();
        for (block, &winner) in winners[..blocks].iter().enumerate() {
            self.write_selector(&mut out, block, usize::from(winner));
        }
        out.set_data_planes(&out0, &out1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::read_block;
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
    fn round_trip_all_sets_and_granularities() {
        let mut rng = StdRng::seed_from_u64(1);
        for set in
            [CandidateSet::three_cosets(), CandidateSet::four_cosets(), CandidateSet::six_cosets()]
        {
            for g in [8usize, 16, 32, 64, 128, 256, 512] {
                let codec = NCosetsCodec::new(set.clone(), Granularity::new(g));
                let old = codec.initial_line();
                for _ in 0..10 {
                    let data = random_line(&mut rng);
                    let enc = codec.encode(&data, &old, &EnergyModel::paper_default());
                    assert_eq!(enc.len(), codec.encoded_cells());
                    assert_eq!(codec.decode(&enc), data, "{} g={}", set.name(), g);
                }
            }
        }
    }

    #[test]
    fn aux_cell_counts_match_paper() {
        // 6cosets at 512-bit granularity: 2 aux symbols per line.
        let six = NCosetsCodec::six_cosets(Granularity::new(512));
        assert_eq!(six.encoded_cells() - 256, 2);
        // 4cosets at 512-bit: 1 aux symbol.
        let four = NCosetsCodec::four_cosets(Granularity::new(512));
        assert_eq!(four.encoded_cells() - 256, 1);
        // 16-bit granularity: 32 blocks -> 32 aux symbols for 4cosets,
        // 64 for 6cosets.
        assert_eq!(NCosetsCodec::four_cosets(Granularity::new(16)).encoded_cells() - 256, 32);
        assert_eq!(NCosetsCodec::six_cosets(Granularity::new(16)).encoded_cells() - 256, 64);
    }

    #[test]
    fn encoding_never_costs_more_than_default_mapping() {
        // The candidate sets all contain C1 (the default mapping) or an
        // equivalent low state assignment, so the chosen encoding's data cost
        // can never exceed encoding with C1 alone.
        let mut rng = StdRng::seed_from_u64(3);
        let energy = EnergyModel::paper_default();
        let codec = NCosetsCodec::four_cosets(Granularity::new(16));
        let raw = wlcrc_pcm::codec::RawCodec::new();
        for _ in 0..30 {
            let data = random_line(&mut rng);
            let old_data = random_line(&mut rng);
            // Build consistent "old" content for both codecs from old_data.
            let old_coset = codec.encode(&old_data, &codec.initial_line(), &energy);
            let old_raw = raw.encode(&old_data, &raw.initial_line(), &energy);
            let new_coset = codec.encode(&data, &old_coset, &energy);
            let new_raw = raw.encode(&data, &old_raw, &energy);
            let coset_cost = differential_write(&old_coset, &new_coset, &energy).data_energy_pj;
            let raw_cost = differential_write(&old_raw, &new_raw, &energy).data_energy_pj;
            assert!(
                coset_cost <= raw_cost + 1e-9,
                "coset data energy {coset_cost} should not exceed baseline {raw_cost}"
            );
        }
    }

    #[test]
    fn biased_data_prefers_low_energy_states() {
        // An all-ones line (symbol 11 everywhere) must end up mostly in the
        // low-energy states thanks to C2.
        let codec = NCosetsCodec::four_cosets(Granularity::new(32));
        let energy = EnergyModel::paper_default();
        let data = MemoryLine::ZERO.complement();
        let enc = codec.encode(&data, &codec.initial_line(), &energy);
        let low = enc.iter().take(LINE_CELLS).filter(|(_, s, _)| s.is_low_energy()).count();
        assert_eq!(low, LINE_CELLS);
    }

    #[test]
    fn aux_combo_inverse_table_matches_linear_scan() {
        for a in CellState::ALL {
            for b in CellState::ALL {
                let linear = AUX_COMBOS.iter().position(|c| *c == (a, b));
                let table = AUX_COMBO_INDEX[a.index() * 4 + b.index()];
                match linear {
                    Some(i) => assert_eq!(table as usize, i),
                    None => assert_eq!(table, NO_COMBO),
                }
            }
        }
    }

    #[test]
    fn kernel_encode_matches_scalar_encode() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(91);
        for set in
            [CandidateSet::three_cosets(), CandidateSet::four_cosets(), CandidateSet::six_cosets()]
        {
            for g in [8usize, 16, 64, 512] {
                let codec = NCosetsCodec::new(set.clone(), Granularity::new(g));
                let mut old = codec.initial_line();
                for _ in 0..8 {
                    let data = random_line(&mut rng);
                    let kernel = codec.encode(&data, &old, &energy);
                    let scalar = codec.encode_scalar(&data, &old, &energy);
                    assert_eq!(kernel, scalar, "{} g={}", set.name(), g);
                    old = kernel;
                }
            }
        }
    }

    #[test]
    fn kernel_decode_matches_scalar_read_blocks() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(93);
        for set in
            [CandidateSet::three_cosets(), CandidateSet::four_cosets(), CandidateSet::six_cosets()]
        {
            for g in [8usize, 16, 64, 512] {
                let codec = NCosetsCodec::new(set.clone(), Granularity::new(g));
                let mut old = codec.initial_line();
                for _ in 0..5 {
                    let data = random_line(&mut rng);
                    let enc = codec.encode(&data, &old, &energy);
                    let mut expected = MemoryLine::ZERO;
                    for block in 0..codec.granularity().blocks_per_line() {
                        let index = codec.read_selector(&enc, block);
                        let cells = codec.granularity().block_cells(block);
                        read_block(&enc, &mut expected, cells, set.candidate(index));
                    }
                    assert_eq!(codec.decode(&enc), expected, "{} g={}", set.name(), g);
                    old = enc;
                }
            }
        }
    }

    #[test]
    fn finer_granularity_reduces_data_energy_on_random_data() {
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        let coarse = NCosetsCodec::six_cosets(Granularity::new(512));
        let fine = NCosetsCodec::six_cosets(Granularity::new(16));
        let mut coarse_cost = 0.0;
        let mut fine_cost = 0.0;
        for _ in 0..50 {
            let old = random_line(&mut rng);
            let new = random_line(&mut rng);
            let old_c = coarse.encode(&old, &coarse.initial_line(), &energy);
            let old_f = fine.encode(&old, &fine.initial_line(), &energy);
            let new_c = coarse.encode(&new, &old_c, &energy);
            let new_f = fine.encode(&new, &old_f, &energy);
            coarse_cost += differential_write(&old_c, &new_c, &energy).data_energy_pj;
            fine_cost += differential_write(&old_f, &new_f, &energy).data_energy_pj;
        }
        assert!(
            fine_cost < coarse_cost,
            "fine granularity should reduce data energy ({fine_cost} vs {coarse_cost})"
        );
    }
}
