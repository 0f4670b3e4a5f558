//! The DIN comparison scheme: compression + 3-to-4-bit expansion + BCH.
//!
//! DIN (originally proposed to mitigate write disturbance) compresses a
//! 512-bit line with FPC/BDI; when the compressed payload fits in 369 bits it
//! expands every 3 data bits into a 4-bit code word chosen to avoid the
//! high-energy (disturbance-prone) states, and protects the result with a
//! 20-bit BCH code that can correct two write-disturbance errors. Lines that
//! do not compress far enough are written unencoded. One auxiliary flag
//! symbol per line distinguishes the two formats.

use std::sync::OnceLock;
use wlcrc_compress::{Bdi, Fpc, LineStream};
use wlcrc_ecc::{Bch, BitBuf, PackedBch};
use wlcrc_pcm::codec::{self, LineCodec, LineEncoder, TableCodec};
use wlcrc_pcm::energy::EnergyModel;
use wlcrc_pcm::kernel::{self, TransitionTable, PLANE_WORDS};
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::mapping::SymbolMapping;
use wlcrc_pcm::physical::{CellClass, PhysicalLine};
use wlcrc_pcm::state::CellState;
use wlcrc_pcm::{LINE_BITS, LINE_CELLS, LINE_WORDS};

/// Maximum compressed payload (including the compressor-select bit) that can
/// be expanded 3-to-4 and still fit, with the BCH parity, in a 512-bit line.
pub const COMPRESSION_THRESHOLD_BITS: usize = 369;

/// Bits available for the expanded payload: 512 − 20 BCH parity bits.
const EXPANDED_BITS: usize = LINE_BITS - 20;

/// DIN's BCH code and its word-parallel parity/syndrome tables for the fixed
/// 492-bit payload, built on first use and shared by every [`DinCodec`] of
/// the process.
fn bch_tables() -> &'static (Bch, PackedBch) {
    static TABLES: OnceLock<(Bch, PackedBch)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let bch = Bch::din_default();
        let packed = bch.packed(EXPANDED_BITS);
        (bch, packed)
    })
}

/// The DIN codec.
#[derive(Debug, Clone)]
pub struct DinCodec {
    fpc: Fpc,
    bdi: Bdi,
    /// The shared BCH code ([`bch_tables`]).
    bch: &'static Bch,
    /// The shared word-parallel tables of [`Self::bch`].
    packed: &'static PackedBch,
    mapping: SymbolMapping,
    /// Target-plane select masks of the fixed mapping. DIN's encoding never
    /// depends on the energy model (it picks code words by content, not
    /// cost), so the table is built once at construction; only its
    /// mapping-derived masks are consumed.
    table: TransitionTable,
}

impl DinCodec {
    /// Creates a DIN codec with the paper's parameters (FPC+BDI, 369-bit
    /// threshold, BCH with 20 parity bits). The BCH tables are built by the
    /// process's first call and shared, so later calls build nothing.
    pub fn new() -> DinCodec {
        let (bch, packed) = bch_tables();
        let mapping = SymbolMapping::default_mapping();
        let table = TransitionTable::new(&mapping, &EnergyModel::paper_default());
        DinCodec { fpc: Fpc::new(), bdi: Bdi::new(), bch, packed, mapping, table }
    }

    /// The raw compressed stream (without the compressor-select bit) and
    /// which compressor produced it (`true` = BDI), if the line compresses
    /// to the 369-bit threshold.
    fn compressed_payload(&self, line: &MemoryLine) -> Option<(bool, LineStream)> {
        // Prefer FPC (self-terminating, always decodable), fall back to BDI.
        let fpc_stream = self.fpc.encode_words(line);
        if fpc_stream.len() < COMPRESSION_THRESHOLD_BITS {
            return Some((false, fpc_stream));
        }
        let bdi_stream = self.bdi.encode_words(line)?;
        (bdi_stream.len() < COMPRESSION_THRESHOLD_BITS).then_some((true, bdi_stream))
    }

    /// The compressed bit stream (with a leading compressor-select bit), if
    /// the line compresses to the 369-bit threshold, built from the
    /// compressors' [`BitBuf`] streams. Used by the scalar oracle path.
    fn compressed_stream(&self, line: &MemoryLine) -> Option<BitBuf> {
        let fpc_stream = self.fpc.encode_stream(line);
        let (bdi, payload) = if fpc_stream.len() < COMPRESSION_THRESHOLD_BITS {
            (false, fpc_stream)
        } else {
            let bdi_stream = self.bdi.encode_stream(line)?;
            if bdi_stream.len() >= COMPRESSION_THRESHOLD_BITS {
                return None;
            }
            (true, bdi_stream)
        };
        let mut out = BitBuf::with_capacity(payload.len() + 1);
        out.push(bdi);
        out.extend_from(&payload);
        Some(out)
    }

    /// The eight 4-bit code words of the 3-to-4 expansion: pairs of symbols
    /// drawn from {00, 10, 11} with at most one 11, listed from cheapest to
    /// most expensive.
    const CODEWORDS: [u8; 8] = [
        0b0000, // 00 00
        0b0010, // 00 10
        0b1000, // 10 00
        0b1010, // 10 10
        0b0011, // 00 11
        0b1100, // 11 00
        0b1011, // 10 11
        0b1110, // 11 10
    ];

    /// Precomputed inverse of [`Self::CODEWORDS`], indexed by the 4-bit code
    /// word: the decode hot path does one table load instead of a linear
    /// `iter().position()` scan. Unknown code words decode to 0, like the
    /// scan's `unwrap_or(0)` did.
    const CODEWORD_INDEX: [u8; 16] = {
        let mut table = [0u8; 16];
        let mut i = 0;
        while i < DinCodec::CODEWORDS.len() {
            table[DinCodec::CODEWORDS[i] as usize] = i as u8;
            i += 1;
        }
        table
    };

    /// Table-driven 3-to-4 expansion of a whole 12-bit chunk: four input
    /// groups expand to four code-word nibbles in one load. Group `g` (bits
    /// `3g..3g+3` of the index) lands in output bits `4g..4g+4`, matching
    /// the LSB-first order of the scalar expansion loop.
    const EXPAND12: [u16; 4096] = {
        let mut table = [0u16; 4096];
        let mut v = 0;
        while v < 4096 {
            let mut out = 0u16;
            let mut g = 0;
            while g < 4 {
                out |= (DinCodec::CODEWORDS[(v >> (3 * g)) & 0b111] as u16) << (4 * g);
                g += 1;
            }
            table[v] = out;
            v += 1;
        }
        table
    };

    /// Table-driven 4-to-3 contraction of a whole byte (two code words): the
    /// low nibble's 3 data bits land in output bits `0..3`, the high
    /// nibble's in bits `3..6`.
    const CONTRACT8: [u8; 256] = {
        let mut table = [0u8; 256];
        let mut b = 0;
        while b < 256 {
            table[b] =
                DinCodec::CODEWORD_INDEX[b & 0b1111] | (DinCodec::CODEWORD_INDEX[b >> 4] << 3);
            b += 1;
        }
        table
    };

    /// Expands 3 data bits into a 4-bit code word that avoids the
    /// highest-energy symbol (`01` → S4) entirely and uses at most one `11`
    /// (S3) symbol per pair of cells.
    fn expand3to4(bits3: u8) -> u8 {
        DinCodec::CODEWORDS[(bits3 & 0b111) as usize]
    }

    /// Inverse of [`DinCodec::expand3to4`]. Unknown code words decode to 0.
    fn contract4to3(bits4: u8) -> u8 {
        DinCodec::CODEWORD_INDEX[(bits4 & 0b1111) as usize]
    }

    fn flag_cell(&self) -> usize {
        LINE_CELLS
    }

    /// Bit-parallel encode of a compressed payload: prepends the
    /// compressor-select bit, runs the 3-to-4 expansion a u64 chunk at a
    /// time through [`Self::EXPAND12`], and folds in the word-parallel BCH
    /// parity. Returns the full 512-bit stored content as a line.
    fn expand_words(&self, bdi: bool, payload: &LineStream) -> MemoryLine {
        // Selector-prepended stream, assembled in fixed words: the payload
        // words shifted left one bit with carry, the selector at bit 0. The
        // payload is at most 368 bits (6 words), so its last two words are
        // zero and the carries stay in bounds.
        let mut stream = [0u64; LINE_WORDS];
        stream[0] = u64::from(bdi);
        for (i, &w) in payload.words()[..LINE_WORDS - 1].iter().enumerate() {
            stream[i] |= w << 1;
            stream[i + 1] |= w >> 63;
        }
        let stream_len = payload.len() + 1;

        let mut full = [0u64; LINE_WORDS];
        let mut pos = 0usize;
        let mut opos = 0usize;
        while pos + 12 <= stream_len {
            let v = read_bits(&stream, pos, 12) as usize;
            push_bits(&mut full, opos, u64::from(DinCodec::EXPAND12[v]), 16);
            pos += 12;
            opos += 16;
        }
        // Tail: the same take-up-to-3 loop as the scalar path, so partial
        // final groups expand identically.
        while pos < stream_len {
            let take = (stream_len - pos).min(3);
            let v = read_bits(&stream, pos, take) as u8;
            pos += take;
            push_bits(&mut full, opos, u64::from(DinCodec::expand3to4(v)), 4);
            opos += 4;
        }
        debug_assert!(opos <= EXPANDED_BITS);
        // The expanded payload is 492 bits: the 20 parity bits occupy
        // exactly the top 20 bits of word 7.
        let parity = self.packed.parity_words(&full);
        full[EXPANDED_BITS / 64] |= u64::from(parity) << (EXPANDED_BITS % 64);
        MemoryLine::from_words(full)
    }

    /// Scalar reference encoder: the original per-bit implementation, kept
    /// callable as the oracle the `kernel_equivalence` proptests pin the
    /// bit-parallel [`LineCodec::encode`] against.
    pub fn encode_scalar(
        &self,
        data: &MemoryLine,
        old: &PhysicalLine,
        _energy: &EnergyModel,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        out.set_class(self.flag_cell(), CellClass::Aux);

        if let Some(stream) = self.compressed_stream(data) {
            // 3-to-4 expansion of the compressed payload.
            let mut expanded = BitBuf::with_capacity(EXPANDED_BITS);
            let mut pos = 0usize;
            while pos < stream.len() {
                let take = (stream.len() - pos).min(3);
                let v = stream.read_u64(pos, take) as u8;
                pos += take;
                expanded.push_u64(u64::from(DinCodec::expand3to4(v)), 4);
            }
            // Pad the expanded payload to its fixed length, then add BCH parity.
            while expanded.len() < EXPANDED_BITS {
                expanded.push(false);
            }
            let parity = self.bch.parity(&expanded);
            let mut full = expanded;
            full.extend_from(&parity);
            debug_assert_eq!(full.len(), LINE_BITS);
            let mut stored_bits = MemoryLine::ZERO;
            for i in 0..LINE_BITS {
                stored_bits.set_bit(i, full.get(i));
            }
            for cell in 0..LINE_CELLS {
                out.set_state(cell, self.mapping.state_of(stored_bits.symbol(cell)));
            }
            // Compressed lines are flagged with the lowest-energy state.
            out.set_state(self.flag_cell(), CellState::S1);
        } else {
            for cell in 0..LINE_CELLS {
                out.set_state(cell, self.mapping.state_of(data.symbol(cell)));
            }
            out.set_state(self.flag_cell(), CellState::S2);
        }
        out
    }

    /// Scalar reference decoder matching [`DinCodec::encode_scalar`], kept
    /// as the oracle for the bit-parallel [`LineCodec::decode`].
    pub fn decode_scalar(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        let mut bits = MemoryLine::ZERO;
        for cell in 0..LINE_CELLS {
            bits.set_symbol(cell, self.mapping.symbol_of(stored.state(cell)));
        }
        if stored.state(self.flag_cell()) != CellState::S1 {
            return bits;
        }
        // BCH-correct the expanded payload, then contract 4-to-3 and
        // decompress.
        let mut received = BitBuf::with_capacity(LINE_BITS);
        for i in 0..LINE_BITS {
            received.push(bits.bit(i));
        }
        let corrected = self.bch.decode(&received).unwrap_or_else(|_| {
            // Uncorrectable: fall back to the raw payload bits.
            received.iter().take(EXPANDED_BITS).collect()
        });
        let mut stream = BitBuf::with_capacity(COMPRESSION_THRESHOLD_BITS + 3);
        let mut i = 0usize;
        while i + 4 <= corrected.len() {
            let code = corrected.read_u64(i, 4) as u8;
            stream.push_u64(u64::from(DinCodec::contract4to3(code)), 3);
            i += 4;
        }
        if stream.is_empty() {
            return MemoryLine::ZERO;
        }
        let selector_bdi = stream.get(0);
        let payload = stream.slice_from(1);
        if selector_bdi {
            self.bdi.decode_stream(&payload)
        } else {
            self.fpc.decode_stream(&payload)
        }
    }
}

/// Reads `nbits` (≤ 12) bits starting at bit `pos` from a fixed word buffer,
/// LSB-first like [`BitBuf::read_u64`].
#[inline]
fn read_bits(words: &[u64; LINE_WORDS], pos: usize, nbits: usize) -> u64 {
    let (w, off) = (pos / 64, pos % 64);
    let mut v = words[w] >> off;
    if off + nbits > 64 {
        v |= words[w + 1] << (64 - off);
    }
    v & ((1u64 << nbits) - 1)
}

/// ORs `nbits` (≤ 16) bits of `value` into a fixed word buffer starting at
/// bit `pos`; the destination bits must currently be zero.
#[inline]
fn push_bits(words: &mut [u64; LINE_WORDS], pos: usize, value: u64, nbits: usize) {
    let (w, off) = (pos / 64, pos % 64);
    words[w] |= value << off;
    if off + nbits > 64 {
        words[w + 1] |= value >> (64 - off);
    }
}

impl Default for DinCodec {
    fn default() -> DinCodec {
        DinCodec::new()
    }
}

impl LineCodec for DinCodec {
    fn name(&self) -> &str {
        "DIN"
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS + 1
    }

    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, _energy: &EnergyModel) -> PhysicalLine {
        self.encode_with(&(), data, old)
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        codec::prepare(self, energy)
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        let states = stored.state_planes();
        let (p0, p1) = kernel::symbol_planes_from_states(&states, self.mapping.symbols_per_state());
        let bits = kernel::line_from_planes(&p0, &p1);
        if stored.state(self.flag_cell()) != CellState::S1 {
            return bits;
        }
        // BCH-check the expanded payload word-parallel; only lines with
        // non-zero syndromes (disturbed cells) pay the scalar corrector.
        let recv = *bits.words();
        let corrected: [u64; LINE_WORDS] = if self.packed.syndromes(&recv) == [0; 4] {
            // Already a codeword: the message is its first 492 bits.
            let mut msg = recv;
            msg[EXPANDED_BITS / 64] &= (1u64 << (EXPANDED_BITS % 64)) - 1;
            msg
        } else {
            let received = BitBuf::from_words(recv.to_vec(), LINE_BITS);
            let corrected_buf = self.bch.decode(&received).unwrap_or_else(|_| {
                // Uncorrectable: fall back to the raw payload bits.
                received.iter().take(EXPANDED_BITS).collect()
            });
            let mut msg = [0u64; LINE_WORDS];
            for (slot, &w) in msg.iter_mut().zip(corrected_buf.words()) {
                *slot = w;
            }
            msg
        };
        // 4-to-3 contraction, a byte (two code words) per load; 492 bits
        // leave one final lone code word after the byte loop.
        let mut stream = [0u64; LINE_WORDS];
        let mut opos = 0usize;
        let mut i = 0usize;
        while i + 8 <= EXPANDED_BITS {
            let b = read_bits(&corrected, i, 8) as usize;
            push_bits(&mut stream, opos, u64::from(DinCodec::CONTRACT8[b]), 6);
            i += 8;
            opos += 6;
        }
        while i + 4 <= EXPANDED_BITS {
            let code = read_bits(&corrected, i, 4) as u8;
            push_bits(&mut stream, opos, u64::from(DinCodec::contract4to3(code)), 3);
            i += 4;
            opos += 3;
        }
        let selector_bdi = stream[0] & 1 == 1;
        let payload = LineStream::from_words(
            core::array::from_fn(|w| (stream[w] >> 1) | stream.get(w + 1).map_or(0, |&n| n << 63)),
            opos - 1,
        );
        if selector_bdi {
            self.bdi.decode_words(&payload)
        } else {
            self.fpc.decode_words(&payload)
        }
    }
}

impl TableCodec for DinCodec {
    /// DIN picks code words by content, not by cost: nothing depends on the
    /// energy model.
    type Tables = ();

    fn tables(&self, _energy: &EnergyModel) {}

    fn encode_with(&self, _tables: &(), data: &MemoryLine, old: &PhysicalLine) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = PhysicalLine::all_reset(self.encoded_cells());
        out.set_class(self.flag_cell(), CellClass::Aux);

        // Compressed lines are flagged with the lowest-energy state.
        let (stored_bits, flag) = match self.compressed_payload(data) {
            Some((bdi, payload)) => (self.expand_words(bdi, &payload), CellState::S1),
            None => (*data, CellState::S2),
        };
        let planes = stored_bits.symbol_planes();
        let mut plane0 = [0u64; PLANE_WORDS];
        let mut plane1 = [0u64; PLANE_WORDS];
        for w in 0..PLANE_WORDS {
            let (t0, t1) = self.table.target_planes(&planes, w);
            plane0[w] = t0;
            plane1[w] = t1;
        }
        out.set_data_planes(&plane0, &plane1);
        out.set_state(self.flag_cell(), flag);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wlcrc_pcm::state::Symbol;

    fn compressible_line(rng: &mut StdRng) -> MemoryLine {
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, u64::from(rng.gen::<u16>()));
        }
        line
    }

    #[test]
    fn expansion_is_invertible() {
        for v in 0..8u8 {
            assert_eq!(DinCodec::contract4to3(DinCodec::expand3to4(v)), v);
        }
    }

    #[test]
    fn expansion_avoids_high_energy_symbols() {
        let default = SymbolMapping::default_mapping();
        for v in 0..8u8 {
            let code = DinCodec::expand3to4(v);
            let sym_lo = Symbol::new(code & 0b11);
            let sym_hi = Symbol::new((code >> 2) & 0b11);
            for s in [sym_lo, sym_hi] {
                assert_ne!(default.state_of(s), CellState::S4, "codeword {code:04b}");
            }
            let s3_count =
                [sym_lo, sym_hi].iter().filter(|s| default.state_of(**s) == CellState::S3).count();
            assert!(s3_count <= 1, "codeword {code:04b}");
        }
    }

    #[test]
    fn compressible_lines_round_trip() {
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let data = compressible_line(&mut rng);
            let enc = codec.encode(&data, &codec.initial_line(), &energy);
            assert_eq!(enc.state(256), CellState::S1, "compressed flag");
            assert_eq!(codec.decode(&enc), data);
        }
    }

    #[test]
    fn incompressible_lines_round_trip_unencoded() {
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut words = [0u64; 8];
            for w in &mut words {
                *w = rng.gen();
            }
            let data = MemoryLine::from_words(words);
            let enc = codec.encode(&data, &codec.initial_line(), &energy);
            assert_eq!(enc.state(256), CellState::S2, "uncompressed flag");
            assert_eq!(codec.decode(&enc), data);
        }
    }

    #[test]
    fn bch_protects_against_two_flipped_cells() {
        // Flip two stored bits of a compressed line; decode must still
        // recover the original data thanks to the BCH code.
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(9);
        let data = compressible_line(&mut rng);
        let mut enc = codec.encode(&data, &codec.initial_line(), &energy);
        // Corrupt two data cells by toggling their stored bit content.
        for cell in [10usize, 200] {
            let sym = SymbolMapping::default_mapping().symbol_of(enc.state(cell));
            let flipped = Symbol::new(sym.value() ^ 0b01);
            enc.set_state(cell, SymbolMapping::default_mapping().state_of(flipped));
        }
        assert_eq!(codec.decode(&enc), data);
    }

    #[test]
    fn kernel_encode_matches_scalar_encode() {
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..60 {
            // Alternate compressible and incompressible content so both the
            // expanded and the passthrough paths are pinned.
            let data = if round % 3 == 0 {
                let mut words = [0u64; 8];
                for w in &mut words {
                    *w = rng.gen::<u64>() | 0x8000_0000_0000_0000;
                }
                MemoryLine::from_words(words)
            } else {
                compressible_line(&mut rng)
            };
            let old = codec.initial_line();
            let kernel_enc = codec.encode(&data, &old, &energy);
            let scalar_enc = codec.encode_scalar(&data, &old, &energy);
            assert_eq!(kernel_enc, scalar_enc, "round {round}");
            assert_eq!(codec.decode(&kernel_enc), codec.decode_scalar(&scalar_enc));
            assert_eq!(codec.decode(&kernel_enc), data);
        }
    }

    #[test]
    fn bdi_compressed_lines_match_the_scalar_oracle() {
        // Arrays of nearby pointers: FPC misses the threshold, BDI's 8-byte
        // base with 2-byte deltas fits it.
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(27);
        let mut old = codec.initial_line();
        for _ in 0..40 {
            let base = 0x7FFF_0000_0000 | rng.gen::<u64>() >> 24;
            let data =
                MemoryLine::from_words(std::array::from_fn(|_| base + rng.gen_range(0..4096)));
            assert!(codec.fpc.encode_words(&data).len() >= COMPRESSION_THRESHOLD_BITS);
            let enc = codec.encode(&data, &old, &energy);
            assert_eq!(enc, codec.encode_scalar(&data, &old, &energy));
            assert_eq!(enc.state(256), CellState::S1, "compressed flag");
            assert_eq!(codec.decode(&enc), codec.decode_scalar(&enc));
            assert_eq!(codec.decode(&enc), data);
            old = enc;
        }
    }

    #[test]
    fn kernel_decode_matches_scalar_decode_on_disturbed_lines() {
        // Flip stored bits (0, 1, 2 and 3 cells) so the zero-syndrome fast
        // path, the corrector and the uncorrectable fallback all stay
        // byte-identical to the scalar decoder.
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(23);
        for flips in 0..4usize {
            for _ in 0..20 {
                let data = compressible_line(&mut rng);
                let mut enc = codec.encode(&data, &codec.initial_line(), &energy);
                for _ in 0..flips {
                    let cell = rng.gen_range(0..LINE_CELLS);
                    let sym = SymbolMapping::default_mapping().symbol_of(enc.state(cell));
                    let flipped = Symbol::new(sym.value() ^ 0b01);
                    enc.set_state(cell, SymbolMapping::default_mapping().state_of(flipped));
                }
                assert_eq!(codec.decode(&enc), codec.decode_scalar(&enc), "flips {flips}");
            }
        }
    }

    #[test]
    fn coverage_is_partial_like_the_paper() {
        // Roughly 30% of real-workload-like lines should be encodable; here we
        // just check that neither everything nor nothing is covered when the
        // content mixes compressible and incompressible lines. A line is
        // DIN-encoded when its stored format flag (cell 256) reads S1.
        let codec = DinCodec::new();
        let energy = EnergyModel::paper_default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut covered = 0;
        let total = 100;
        for i in 0..total {
            let line = if i % 2 == 0 {
                compressible_line(&mut rng)
            } else {
                let mut words = [0u64; 8];
                for w in &mut words {
                    *w = rng.gen::<u64>() | 0x8000_0000_0000_0000;
                }
                MemoryLine::from_words(words)
            };
            if codec.encode(&line, &codec.initial_line(), &energy).state(256) == CellState::S1 {
                covered += 1;
            }
        }
        assert!(covered > 25 && covered < 75, "covered = {covered}");
    }
}
