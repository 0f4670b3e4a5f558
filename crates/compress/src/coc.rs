//! A coverage-oriented compressor (COC) modelled after Frugal-ECC.
//!
//! COC's defining property for this study is *coverage*: by trying many
//! light-weight variable-length compressors it manages to shave a few bits
//! off most lines, at the cost of repacking the line so that bit positions no
//! longer align with the original data — which hurts differential writes.
//!
//! We model COC as the best of a family of sub-compressors (FPC and BDI at
//! 32/64-bit element sizes plus per-byte and per-halfword significance
//! truncation variants), and expose [`Coc::repack_words`], which produces the
//! bit-packed layout a COC-compressed line would occupy, so that the
//! `COC+4cosets` scheme can evaluate differential-write costs on the packed
//! representation just like the hardware would. [`Coc::repack`] builds the
//! same layout as a [`BitBuf`], its scalar oracle.

use crate::{Bdi, Compressor, Fpc, LineStream};
use wlcrc_ecc::BitBuf;
use wlcrc_pcm::line::{word as wordutil, MemoryLine};
use wlcrc_pcm::{LINE_BITS, LINE_WORDS};

/// The coverage-oriented compressor.
#[derive(Debug, Clone, Default)]
pub struct Coc {
    fpc: Fpc,
    bdi: Bdi,
}

impl Coc {
    /// Creates a COC compressor.
    pub fn new() -> Coc {
        Coc { fpc: Fpc::new(), bdi: Bdi::new() }
    }

    /// Compressed size of the best byte-significance truncation variant:
    /// each 64-bit word keeps only its significant low-order bytes (the
    /// dropped high-order bytes must all be 0x00 or 0xFF), at the cost of a
    /// 4-bit length tag per word.
    fn byte_truncation_bits(line: &MemoryLine) -> usize {
        let mut total = 0usize;
        for &w in line.words() {
            let bytes = w.to_le_bytes();
            let mut keep = 8usize;
            while keep > 1 {
                let top = bytes[keep - 1];
                let sign_ok = top == 0x00 || top == 0xFF;
                if !sign_ok {
                    break;
                }
                // The dropped byte must be pure sign extension of the byte below.
                let below_msb = bytes[keep - 2] & 0x80 != 0;
                if (top == 0xFF) != below_msb {
                    break;
                }
                keep -= 1;
            }
            total += 4 + keep * 8;
        }
        total
    }

    /// Compressed size of the best halfword-dictionary variant: words whose
    /// upper 48 bits match one of the two most frequent upper-48 patterns in
    /// the line are stored as a 2-bit dictionary reference plus the low 16 bits.
    fn dictionary_bits(line: &MemoryLine) -> usize {
        use std::collections::HashMap;
        let mut freq: HashMap<u64, usize> = HashMap::new();
        for &w in line.words() {
            *freq.entry(w >> 16).or_insert(0) += 1;
        }
        let mut tops: Vec<(u64, usize)> = freq.into_iter().collect();
        tops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let dict: Vec<u64> = tops.iter().take(2).map(|(v, _)| *v).collect();
        let mut total = dict.len() * 48;
        for &w in line.words() {
            if dict.contains(&(w >> 16)) {
                total += 2 + 16;
            } else {
                total += 2 + 64;
            }
        }
        total
    }

    /// The compressed bit layout COC would store for this line. The packing
    /// simply concatenates the significant bytes of every word (using the
    /// byte-truncation variant), which is enough to model how compression
    /// destroys bit-position alignment for differential writes: per word, a
    /// 4-bit kept-byte count, then the kept bytes. A line of eight full
    /// words packs to 544 bits, past the 512 the stream holds; its length
    /// still counts them all.
    pub fn repack_words(line: &MemoryLine) -> LineStream {
        let mut stream = LineStream::EMPTY;
        for &w in line.words() {
            // The fewest bytes `w` sign-extends from: one for the sign bit
            // and every bit below the redundant copies of it.
            let sign_copies = if (w as i64) < 0 { w.leading_ones() } else { w.leading_zeros() };
            let keep = (65 - sign_copies as usize).div_ceil(8);
            stream.push(keep as u64, 4);
            stream.push(w, keep * 8);
        }
        stream
    }

    /// The [`BitBuf`] builder of [`Coc::repack_words`]' layout, kept as its
    /// scalar oracle.
    pub fn repack(line: &MemoryLine) -> BitBuf {
        let mut bits = BitBuf::with_capacity(LINE_BITS);
        for &w in line.words() {
            let bytes = w.to_le_bytes();
            let mut keep = 8usize;
            while keep > 1 {
                let top = bytes[keep - 1];
                if !(top == 0x00 || top == 0xFF) {
                    break;
                }
                let below_msb = bytes[keep - 2] & 0x80 != 0;
                if (top == 0xFF) != below_msb {
                    break;
                }
                keep -= 1;
            }
            // 4-bit length tag followed by the kept bytes.
            bits.push_u64(keep as u64, 4);
            bits.push_u64(w & if keep == 8 { u64::MAX } else { (1 << (keep * 8)) - 1 }, keep * 8);
        }
        bits
    }

    /// Unpacks a [`Coc::repack_words`] layout held in line words: a 4-bit
    /// kept-byte count per word (clamped to 1..=8) followed by the kept
    /// bytes, with the dropped bytes rebuilt by sign extension. Bits past
    /// the line read as zero, so any 512 bits unpack.
    pub fn unpack_words(words: &[u64; LINE_WORDS]) -> MemoryLine {
        let mut line = MemoryLine::ZERO;
        let mut pos = 0usize;
        for word in 0..LINE_WORDS {
            let keep = (stream_bits(words, pos, 4) as usize).clamp(1, 8);
            let value = stream_bits(words, pos + 4, 8 * keep);
            pos += 4 + 8 * keep;
            line.set_word(word, wordutil::sign_extend_from(value, 8 * keep - 1));
        }
        line
    }

    /// Parses the byte-truncation packing produced by [`Coc::repack`] back
    /// into a memory line, bit by bit: the scalar oracle of
    /// [`Coc::unpack_words`]. Bits past the stream read as zero.
    pub fn unpack(bits: &BitBuf) -> MemoryLine {
        let mut line = MemoryLine::ZERO;
        let mut pos = 0usize;
        for word in 0..8 {
            let mut keep = 0usize;
            for b in 0..4 {
                if bits.get_opt(pos + b).unwrap_or(false) {
                    keep |= 1 << b;
                }
            }
            pos += 4;
            let keep = keep.clamp(1, 8);
            let mut bytes = [0u8; 8];
            for byte in bytes.iter_mut().take(keep) {
                let mut v = 0u8;
                for b in 0..8 {
                    if bits.get_opt(pos + b).unwrap_or(false) {
                        v |= 1 << b;
                    }
                }
                pos += 8;
                *byte = v;
            }
            // Sign-extend the dropped high-order bytes.
            let fill = if bytes[keep - 1] & 0x80 != 0 { 0xFF } else { 0x00 };
            for byte in bytes.iter_mut().skip(keep) {
                *byte = fill;
            }
            line.set_word(word, u64::from_le_bytes(bytes));
        }
        line
    }
}

/// Reads `len` (at most 64) bits starting at bit `pos` of a zero-padded
/// 512-bit stream; bits past the end read as zero.
fn stream_bits(words: &[u64; LINE_WORDS], pos: usize, len: usize) -> u64 {
    let (w, offset) = (pos / 64, pos % 64);
    let lo = words.get(w).map_or(0, |&word| word >> offset);
    let hi = match (offset, words.get(w + 1)) {
        (1.., Some(&word)) => word << (64 - offset),
        _ => 0,
    };
    let value = lo | hi;
    if len == 64 {
        value
    } else {
        value & ((1u64 << len) - 1)
    }
}

impl Compressor for Coc {
    fn name(&self) -> &str {
        "COC"
    }

    fn compressed_bits(&self, line: &MemoryLine) -> Option<usize> {
        let candidates = [
            self.fpc.compressed_bits(line),
            self.bdi.compressed_bits(line),
            Some(Coc::byte_truncation_bits(line)),
            Some(Coc::dictionary_bits(line)),
        ];
        let best = candidates.into_iter().flatten().min()?;
        if best < LINE_BITS {
            Some(best)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn coc_is_at_least_as_good_as_fpc_and_bdi() {
        let coc = Coc::new();
        let fpc = Fpc::new();
        let bdi = Bdi::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            let mut line = MemoryLine::ZERO;
            for i in 0..8 {
                // A mix of small values and pointers, the common case.
                if rng.gen::<bool>() {
                    line.set_word(i, rng.gen::<u16>() as u64);
                } else {
                    line.set_word(i, 0x0000_7F00_0000_0000 | rng.gen::<u32>() as u64);
                }
            }
            let c = coc.compressed_bits(&line).unwrap_or(LINE_BITS);
            if let Some(f) = fpc.compressed_bits(&line) {
                assert!(c <= f);
            }
            if let Some(b) = bdi.compressed_bits(&line) {
                assert!(c <= b);
            }
        }
    }

    #[test]
    fn coc_covers_lines_fpc_bdi_misses() {
        // Words sharing a common upper part but with random low halves:
        // FPC/BDI struggle, the dictionary variant compresses it.
        let mut rng = StdRng::seed_from_u64(3);
        let upper = 0x1234_5678_9ABCu64 << 16;
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, upper | rng.gen::<u16>() as u64);
        }
        let coc = Coc::new().compressed_bits(&line);
        assert!(coc.is_some());
        assert!(coc.unwrap() <= 48 * 2 + 8 * 18);
    }

    #[test]
    fn truly_random_lines_do_not_compress() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut uncovered = 0;
        for _ in 0..100 {
            let mut line = MemoryLine::ZERO;
            for i in 0..8 {
                line.set_word(i, rng.gen());
            }
            if Coc::new().compresses_to(&line, 448) {
                continue;
            }
            uncovered += 1;
        }
        assert!(uncovered > 80, "random lines should rarely compress to 448 bits");
    }

    #[test]
    fn repack_length_matches_byte_truncation_size() {
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, (i as u64 + 1) * 255);
        }
        let bits = Coc::repack(&line);
        assert_eq!(bits.len(), Coc::byte_truncation_bits(&line));
        assert!(bits.len() < LINE_BITS);
    }

    #[test]
    fn repack_of_similar_lines_differs_when_lengths_shift() {
        // Changing one word's significance shifts all following bits,
        // the property that hurts differential writes.
        let mut a = MemoryLine::ZERO;
        let mut b = MemoryLine::ZERO;
        for i in 0..8 {
            a.set_word(i, 100 + i as u64);
            b.set_word(i, 100 + i as u64);
        }
        b.set_word(0, 0x12_3456); // now word 0 needs more bytes
        let pa = Coc::repack(&a);
        let pb = Coc::repack(&b);
        assert_ne!(pa.len(), pb.len());
    }
}
