//! The COC+4cosets comparison scheme.
//!
//! Instead of Word-Level Compression, this scheme uses a coverage-oriented
//! compressor (COC) to make room for the auxiliary bits. COC covers most
//! lines, but its variable-length repacking moves bits away from their
//! original positions, so consecutive writes of similar data no longer align
//! and differential write loses much of its benefit — which is exactly the
//! behaviour the paper observes for this scheme.
//!
//! Layout of a 512-bit line (plus one auxiliary flag cell):
//!
//! * flag `S1` — the COC payload fits in 448 bits: the packed payload occupies
//!   cells 0..223 and is 4cosets-encoded at 16-bit granularity, with the
//!   2-bit candidate selectors of the 28 blocks stored in cells 224..255.
//! * flag `S3` — the payload fits in 480 bits only: cells 0..239 are encoded
//!   at 32-bit granularity, selectors for the 15 blocks live in cells 240..255.
//! * flag `S2` — the line is stored unencoded.

use wlcrc_compress::Coc;
use wlcrc_coset::candidate::{CandidateSet, CosetCandidate};
use wlcrc_ecc::BitBuf;
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, Selectors, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::CellState;
use wlcrc_pcm::{LINE_CELLS, LINE_WORDS};

/// Most payload blocks of an encoded format (28 16-bit blocks).
const MAX_BLOCKS: usize = 28;

/// The two encoded formats (besides the raw fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// 448-bit payload region, 16-bit blocks.
    Fine16,
    /// 480-bit payload region, 32-bit blocks.
    Coarse32,
    /// Uncompressed.
    Raw,
}

impl Format {
    fn payload_cells(self) -> usize {
        match self {
            Format::Fine16 => 224,
            Format::Coarse32 => 240,
            Format::Raw => LINE_CELLS,
        }
    }

    fn block_cells(self) -> usize {
        match self {
            Format::Fine16 => 8,
            Format::Coarse32 => 16,
            Format::Raw => LINE_CELLS,
        }
    }

    fn blocks(self) -> usize {
        self.payload_cells() / self.block_cells()
    }

    /// The format a repacked payload of `bits` bits takes.
    fn of_packed_len(bits: usize) -> Format {
        match bits {
            0..=448 => Format::Fine16,
            449..=480 => Format::Coarse32,
            _ => Format::Raw,
        }
    }

    fn flag_state(self) -> CellState {
        match self {
            Format::Fine16 => CellState::S1,
            Format::Coarse32 => CellState::S3,
            Format::Raw => CellState::S2,
        }
    }
}

/// The transition tables of every line format, built once for a prepared
/// encoder.
pub struct Tables {
    /// The fixed mapping's table, which stores a line that does not compress
    /// enough.
    plain: TransitionTable,
    /// The 4cosets candidates' tables, which price the repacked payload.
    candidates: [TransitionTable; 4],
}

/// The COC+4cosets codec.
#[derive(Debug, Clone)]
pub struct CocCosetCodec {
    candidates: Vec<CosetCandidate>,
    mapping: SymbolMapping,
}

impl CocCosetCodec {
    /// Creates the codec with the Table I 4cosets candidates.
    pub fn new() -> CocCosetCodec {
        CocCosetCodec {
            candidates: CandidateSet::four_cosets().candidates().to_vec(),
            mapping: SymbolMapping::default_mapping(),
        }
    }

    fn flag_cell(&self) -> usize {
        LINE_CELLS
    }

    /// A fresh encoded line in `format`, with the format flag set.
    fn new_line(&self, old: &PhysicalLine, format: Format) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        out.set_class(self.flag_cell(), CellClass::Aux);
        out.set_state(self.flag_cell(), format.flag_state());
        out
    }

    /// Repacks `data` once: the format its packed length allows and the
    /// packed payload as a zero-padded memory line (bit `i` of the repacked
    /// stream becomes line bit `i`).
    fn repack(data: &MemoryLine) -> (Format, MemoryLine) {
        let packed = Coc::repack_words(data);
        (Format::of_packed_len(packed.len()), MemoryLine::from_words(*packed.words()))
    }

    /// [`Self::repack`] through the [`BitBuf`] oracle [`Coc::repack`].
    fn repack_scalar(data: &MemoryLine) -> (Format, MemoryLine) {
        let packed = Coc::repack(data);
        let mut payload = MemoryLine::ZERO;
        for (i, &w) in packed.words().iter().enumerate().take(LINE_WORDS) {
            payload.set_word(i, w);
        }
        (Format::of_packed_len(packed.len()), payload)
    }

    fn candidate_tables(&self, energy: &EnergyModel) -> [TransitionTable; 4] {
        let mut tables = [TransitionTable::placeholder(); 4];
        for (table, candidate) in tables.iter_mut().zip(&self.candidates) {
            *table = TransitionTable::new(&candidate.mapping(), energy);
        }
        tables
    }

    /// Stores a line that does not compress enough unencoded through
    /// `plain`, the fixed mapping's table.
    fn encode_raw(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        plain: &TransitionTable,
    ) -> PhysicalLine {
        let mut out = self.new_line(old, Format::Raw);
        kernel::store_mapped(data, plain, &mut out);
        out
    }

    /// Encodes a repacked `payload` in an encoded `format` on the kernel:
    /// one fused sweep picks every payload block's candidate (the first
    /// strict minimum of its data cost; selectors are not priced), and the
    /// payload and selector cells are written as planes in one pass.
    fn encode_payload(
        &self,
        format: Format,
        payload: &MemoryLine,
        old: &PhysicalLine,
        tables: &[TransitionTable; 4],
    ) -> PhysicalLine {
        let mut out = self.new_line(old, format);
        let (blocks, block_cells) = (format.blocks(), format.block_cells());
        let planes = payload.symbol_planes();
        let stored = old.state_planes();
        let mut winners = [0u8; MAX_BLOCKS];
        let mut out0 = [0u64; PLANE_WORDS];
        let mut out1 = [0u64; PLANE_WORDS];
        kernel::select_blocks_uniform(
            &planes,
            &stored,
            block_cells,
            blocks,
            &tables[..self.candidates.len()],
            Selectors::Unpriced,
            &mut winners,
            &mut out0,
            &mut out1,
        );
        // Selector cells occupy the freed space after the payload region;
        // any remaining freed cells stay in the RESET state. All count as
        // aux.
        for (block, &winner) in winners.iter().enumerate().take(blocks) {
            let cell = format.payload_cells() + block;
            out0[cell / 64] |= u64::from(winner & 1) << (cell % 64);
            out1[cell / 64] |= u64::from(winner >> 1) << (cell % 64);
        }
        out.set_data_planes(&out0, &out1);
        let mut aux = [0u64; PLANE_WORDS];
        for (w, mask) in kernel::plane_words(format.payload_cells()..LINE_CELLS) {
            aux[w] = mask;
        }
        out.set_data_classes(&aux);
        out
    }

    /// The scalar reference encoder (per-cell candidate costs and writes);
    /// kept callable for the equivalence tests and the perf snapshot.
    #[doc(hidden)]
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        energy: &EnergyModel,
    ) -> PhysicalLine {
        let (format, payload) = Self::repack_scalar(data);
        if format == Format::Raw {
            return self.encode_raw(data, old, &TransitionTable::new(&self.mapping, energy));
        }
        let mut out = self.new_line(old, format);
        let blocks = format.blocks();
        let block_cells = format.block_cells();
        for block in 0..blocks {
            let range = block * block_cells..(block + 1) * block_cells;
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (idx, candidate) in self.candidates.iter().enumerate() {
                let mut cost = 0.0;
                for cell in range.clone() {
                    let target = candidate.state_of(payload.symbol(cell));
                    cost += energy.transition_energy_pj(old.state(cell), target);
                }
                if cost < best_cost {
                    best_cost = cost;
                    best = idx;
                }
            }
            for cell in range {
                out.set_state(cell, self.candidates[best].state_of(payload.symbol(cell)));
            }
            // Selector cells occupy the freed space after the payload region.
            let cell = format.payload_cells() + block;
            out.set_state(cell, CellState::from_index(best));
            out.set_class(cell, CellClass::Aux);
        }
        // Any remaining freed cells stay in the RESET state and count as aux.
        for cell in (format.payload_cells() + blocks)..LINE_CELLS {
            out.set_class(cell, CellClass::Aux);
        }
        out
    }

    fn format_of(&self, stored: &PhysicalLine) -> Format {
        match stored.state(self.flag_cell()) {
            CellState::S1 => Format::Fine16,
            CellState::S3 => Format::Coarse32,
            _ => Format::Raw,
        }
    }

    /// The scalar reference decoder (per-cell reads into a bit stream, then
    /// a per-bit unpack); kept callable for the equivalence tests.
    #[doc(hidden)]
    pub fn decode_scalar(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        let format = self.format_of(stored);
        if format == Format::Raw {
            return kernel::load_mapped(stored, &self.mapping);
        }
        let blocks = format.blocks();
        let block_cells = format.block_cells();
        let payload_bits = format.payload_cells() * 2;
        let mut words = vec![0u64; payload_bits.div_ceil(64)];
        for block in 0..blocks {
            let selector_cell = format.payload_cells() + block;
            let selector = stored.state(selector_cell).index().min(self.candidates.len() - 1);
            let candidate = &self.candidates[selector];
            for cell in block * block_cells..(block + 1) * block_cells {
                let symbol = candidate.symbol_of(stored.state(cell));
                let bit = 2 * cell;
                words[bit / 64] |=
                    (u64::from(symbol.lsb()) | (u64::from(symbol.msb()) << 1)) << (bit % 64);
            }
        }
        Coc::unpack(&BitBuf::from_words(words, payload_bits))
    }
}

impl Default for CocCosetCodec {
    fn default() -> CocCosetCodec {
        CocCosetCodec::new()
    }
}

impl LineCodec for CocCosetCodec {
    fn name(&self) -> &str {
        "COC+4cosets"
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS + 1
    }

    /// Builds only the tables of the line's format, then runs the same
    /// format bodies as [`TableCodec::encode_with`].
    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        let (format, payload) = Self::repack(data);
        if format == Format::Raw {
            return self.encode_raw(data, old, &TransitionTable::new(&self.mapping, energy));
        }
        self.encode_payload(format, &payload, old, &self.candidate_tables(energy))
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        codec::prepare(self, energy)
    }

    /// Decodes on bit planes: every candidate's inverse mapping is applied
    /// to the whole line at once, each payload block takes the planes of the
    /// candidate its selector cell names, and the payload is unpacked a word
    /// at a time.
    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        let format = self.format_of(stored);
        if format == Format::Raw {
            return kernel::load_mapped(stored, &self.mapping);
        }
        let states = stored.state_planes();
        let mut inverses = [([0u64; PLANE_WORDS], [0u64; PLANE_WORDS]); 4];
        for (slot, candidate) in inverses.iter_mut().zip(&self.candidates) {
            *slot =
                kernel::symbol_planes_from_states(&states, candidate.mapping().symbols_per_state());
        }
        let block_cells = format.block_cells();
        let block_mask = (1u64 << block_cells) - 1;
        let mut p0 = [0u64; PLANE_WORDS];
        let mut p1 = [0u64; PLANE_WORDS];
        for block in 0..format.blocks() {
            let selector = states.state(format.payload_cells() + block).index();
            let (c0, c1) = &inverses[selector.min(self.candidates.len() - 1)];
            let (w, mask) = (block * block_cells / 64, block_mask << (block * block_cells % 64));
            p0[w] |= c0[w] & mask;
            p1[w] |= c1[w] & mask;
        }
        Coc::unpack_words(kernel::line_from_planes(&p0, &p1).words())
    }
}

impl TableCodec for CocCosetCodec {
    type Tables = Tables;

    fn tables(&self, energy: &EnergyModel) -> Tables {
        let plain = TransitionTable::new(&self.mapping, energy);
        Tables { plain, candidates: self.candidate_tables(energy) }
    }

    fn encode_with(&self, tables: &Tables, data: &MemoryLine, old: &PhysicalLine) -> PhysicalLine {
        let (format, payload) = Self::repack(data);
        if format == Format::Raw {
            return self.encode_raw(data, old, &tables.plain);
        }
        self.encode_payload(format, &payload, old, &tables.candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wlcrc_pcm::write::differential_write;

    fn structured_line(rng: &mut StdRng) -> MemoryLine {
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            let w: u64 = match rng.gen_range(0..4) {
                0 => 0,
                1 => u64::from(rng.gen::<u16>()),
                2 => (-(i64::from(rng.gen::<u16>()))) as u64,
                _ => u64::from(rng.gen::<u32>()),
            };
            line.set_word(i, w);
        }
        line
    }

    #[test]
    fn compressible_lines_round_trip() {
        let codec = CocCosetCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut old = codec.initial_line();
        for _ in 0..100 {
            let data = structured_line(&mut rng);
            let enc = codec.encode(&data, &old, &energy);
            assert_eq!(codec.decode(&enc), data);
            old = enc;
        }
    }

    #[test]
    fn incompressible_lines_round_trip_raw() {
        let codec = CocCosetCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let mut words = [0u64; 8];
            for w in &mut words {
                *w = rng.gen::<u64>() | 0x8000_0000_0000_0000;
            }
            // Ensure at least some words are truly incompressible by the
            // byte-truncation packer.
            let data = MemoryLine::from_words(words);
            let enc = codec.encode(&data, &codec.initial_line(), &energy);
            assert_eq!(codec.decode(&enc), data);
        }
    }

    #[test]
    fn kernel_encode_matches_scalar_encode() {
        let codec = CocCosetCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(31);
        let mut old = codec.initial_line();
        for _ in 0..50 {
            let data = structured_line(&mut rng);
            let kernel = codec.encode(&data, &old, &energy);
            assert_eq!(kernel, codec.encode_scalar(&data, &old, &energy));
            old = kernel;
        }
    }

    #[test]
    fn structured_lines_use_the_fine_format() {
        let codec = CocCosetCodec::new();
        let energy = EnergyModel::paper_default();
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, i as u64 + 1);
        }
        let enc = codec.encode(&line, &codec.initial_line(), &energy);
        assert_eq!(enc.state(256), CellState::S1, "small data should use 16-bit blocks");
    }

    #[test]
    fn repacking_hurts_differential_locality_vs_wlcrc() {
        // Two similar consecutive writes where one value grows enough to
        // change its packed length: COC shifts every later bit, WLCRC keeps
        // bit positions stable, so WLCRC should update fewer cells.
        let coc = CocCosetCodec::new();
        let wlcrc = crate::WlcCosetCodec::wlcrc16();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut coc_updates = 0usize;
        let mut wlcrc_updates = 0usize;
        for _ in 0..100 {
            let old_data = structured_line(&mut rng);
            let mut new_data = old_data;
            // The updated value grows by a few bytes, changing its packed
            // length and shifting the COC layout of all following words.
            let idx = rng.gen_range(0..4);
            new_data.set_word(idx, old_data.word(idx).wrapping_add(0x0012_3456));
            let old_c = coc.encode(&old_data, &coc.initial_line(), &energy);
            let new_c = coc.encode(&new_data, &old_c, &energy);
            let old_w = wlcrc.encode(&old_data, &wlcrc.initial_line(), &energy);
            let new_w = wlcrc.encode(&new_data, &old_w, &energy);
            coc_updates += differential_write(&old_c, &new_c, &energy).total_cells_updated();
            wlcrc_updates += differential_write(&old_w, &new_w, &energy).total_cells_updated();
        }
        assert!(
            wlcrc_updates < coc_updates,
            "WLCRC should preserve locality better than COC ({wlcrc_updates} vs {coc_updates})"
        );
    }

    #[test]
    fn unpack_inverts_repack() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let line = structured_line(&mut rng);
            assert_eq!(Coc::unpack(&Coc::repack(&line)), line);
            assert_eq!(Coc::unpack_words(Coc::repack_words(&line).words()), line);
        }
    }
}
