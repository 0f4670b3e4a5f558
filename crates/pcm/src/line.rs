//! 512-bit memory lines and bit/symbol manipulation utilities.

use crate::state::Symbol;
use crate::{LINE_BITS, LINE_BYTES, LINE_CELLS, LINE_WORDS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 512-bit memory line, the unit written to PCM main memory.
///
/// The line consists of eight 64-bit words `w0..w7`; word `i` occupies bits
/// `64*i .. 64*i+63` of the line. Within a word, bit 0 is the least-significant
/// bit. Every two consecutive bits of the line are stored in one MLC cell:
/// cell `c` holds bits `(2c+1, 2c)` where bit `2c+1` is the most-significant
/// bit of the cell's [`Symbol`].
///
/// ```
/// use wlcrc_pcm::line::MemoryLine;
/// use wlcrc_pcm::state::Symbol;
///
/// let line = MemoryLine::from_words([0b1101, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(line.symbol(0), Symbol::new(0b01)); // bits 1..0
/// assert_eq!(line.symbol(1), Symbol::new(0b11)); // bits 3..2
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct MemoryLine {
    words: [u64; LINE_WORDS],
}

impl MemoryLine {
    /// A line with every bit cleared.
    pub const ZERO: MemoryLine = MemoryLine { words: [0; LINE_WORDS] };

    /// Creates a new all-zero memory line.
    pub fn new() -> MemoryLine {
        MemoryLine::ZERO
    }

    /// Creates a line from its eight 64-bit words.
    pub fn from_words(words: [u64; LINE_WORDS]) -> MemoryLine {
        MemoryLine { words }
    }

    /// Creates a line from 64 bytes in little-endian word order.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != 64`.
    pub fn from_bytes(bytes: &[u8]) -> MemoryLine {
        assert_eq!(bytes.len(), LINE_BYTES, "a memory line is exactly 64 bytes");
        let mut words = [0u64; LINE_WORDS];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            words[i] = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        }
        MemoryLine { words }
    }

    /// Returns the line content as 64 bytes in little-endian word order.
    pub fn to_bytes(self) -> [u8; LINE_BYTES] {
        let mut out = [0u8; LINE_BYTES];
        for (i, w) in self.words.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// The eight 64-bit words of the line.
    #[inline]
    pub fn words(&self) -> &[u64; LINE_WORDS] {
        &self.words
    }

    /// Mutable access to the eight 64-bit words of the line.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64; LINE_WORDS] {
        &mut self.words
    }

    /// Returns word `index` (0..8).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    #[inline]
    pub fn word(&self, index: usize) -> u64 {
        self.words[index]
    }

    /// Sets word `index` (0..8).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    #[inline]
    pub fn set_word(&mut self, index: usize, value: u64) {
        self.words[index] = value;
    }

    /// Returns bit `bit` of the line (0..512), bit 0 being the LSB of word 0.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    #[inline]
    pub fn bit(&self, bit: usize) -> bool {
        assert!(bit < LINE_BITS);
        (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Sets bit `bit` of the line to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    #[inline]
    pub fn set_bit(&mut self, bit: usize, value: bool) {
        assert!(bit < LINE_BITS);
        let mask = 1u64 << (bit % 64);
        if value {
            self.words[bit / 64] |= mask;
        } else {
            self.words[bit / 64] &= !mask;
        }
    }

    /// Returns the 2-bit symbol stored in cell `cell` (0..256).
    ///
    /// Cell `c` holds line bits `(2c+1, 2c)`, the odd bit being the symbol MSB.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 256`.
    #[inline]
    pub fn symbol(&self, cell: usize) -> Symbol {
        assert!(cell < LINE_CELLS);
        let word = self.words[cell / 32];
        let shift = (cell % 32) * 2;
        Symbol::new(((word >> shift) & 0b11) as u8)
    }

    /// Stores `symbol` into cell `cell` (0..256).
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 256`.
    #[inline]
    pub fn set_symbol(&mut self, cell: usize, symbol: Symbol) {
        assert!(cell < LINE_CELLS);
        let shift = (cell % 32) * 2;
        let word = &mut self.words[cell / 32];
        *word = (*word & !(0b11u64 << shift)) | (u64::from(symbol.value()) << shift);
    }

    /// Iterates over the 256 symbols of the line, cell 0 first.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..LINE_CELLS).map(move |c| self.symbol(c))
    }

    /// The de-interleaved bit-plane view of the line's 256 symbols, consumed
    /// by the bit-parallel evaluation kernel ([`crate::kernel`]).
    pub fn symbol_planes(&self) -> crate::kernel::SymbolPlanes {
        crate::kernel::SymbolPlanes::new(self)
    }

    /// Counts occurrences of each of the four symbols across the line,
    /// indexed by symbol value.
    pub fn symbol_histogram(&self) -> [usize; 4] {
        let mut hist = [0usize; 4];
        for s in self.symbols() {
            hist[s.value() as usize] += 1;
        }
        hist
    }

    /// Number of bits that differ between `self` and `other`.
    pub fn hamming_distance(&self, other: &MemoryLine) -> u32 {
        self.words.iter().zip(other.words.iter()).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Returns a line with every bit complemented.
    pub fn complement(&self) -> MemoryLine {
        let mut words = self.words;
        for w in &mut words {
            *w = !*w;
        }
        MemoryLine { words }
    }

    /// XORs `mask` into the line and returns the result.
    pub fn xor(&self, mask: &MemoryLine) -> MemoryLine {
        let mut words = self.words;
        for (w, m) in words.iter_mut().zip(mask.words.iter()) {
            *w ^= m;
        }
        MemoryLine { words }
    }
}

impl fmt::Debug for MemoryLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemoryLine[")?;
        for (i, w) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{:016x}", w)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for MemoryLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<[u64; LINE_WORDS]> for MemoryLine {
    fn from(words: [u64; LINE_WORDS]) -> MemoryLine {
        MemoryLine::from_words(words)
    }
}

impl From<MemoryLine> for [u64; LINE_WORDS] {
    fn from(line: MemoryLine) -> [u64; LINE_WORDS] {
        line.words
    }
}

/// Helpers for manipulating a single 64-bit word at cell granularity.
pub mod word {
    use crate::state::Symbol;
    use crate::WORD_CELLS;

    /// Returns the 2-bit symbol in cell `cell` (0..32) of `word`.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 32`.
    #[inline]
    pub fn symbol(word: u64, cell: usize) -> Symbol {
        assert!(cell < WORD_CELLS);
        Symbol::new(((word >> (cell * 2)) & 0b11) as u8)
    }

    /// `true` if the `k` most-significant bits of `word` are all equal
    /// (all zeros or all ones). This is the Word-Level Compression test.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 64`.
    #[inline]
    pub fn msbs_identical(word: u64, k: usize) -> bool {
        assert!((1..=64).contains(&k), "k must be in 1..=64");
        if k == 1 {
            return true;
        }
        let top = word >> (64 - k);
        let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        top == 0 || top == mask
    }

    /// Sign-extends bit `from_bit` of `word` into all higher bit positions.
    ///
    /// # Panics
    ///
    /// Panics if `from_bit >= 64`.
    #[inline]
    pub fn sign_extend_from(word: u64, from_bit: usize) -> u64 {
        assert!(from_bit < 64);
        let sign = (word >> from_bit) & 1 == 1;
        let kept_mask = if from_bit == 63 { u64::MAX } else { (1u64 << (from_bit + 1)) - 1 };
        let kept = word & kept_mask;
        if sign {
            kept | !kept_mask
        } else {
            kept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let mut bytes = [0u8; LINE_BYTES];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let line = MemoryLine::from_bytes(&bytes);
        assert_eq!(line.to_bytes(), bytes);
    }

    #[test]
    fn symbol_get_set_round_trip() {
        let mut line = MemoryLine::new();
        line.set_symbol(0, Symbol::new(0b11));
        line.set_symbol(255, Symbol::new(0b10));
        line.set_symbol(37, Symbol::new(0b01));
        assert_eq!(line.symbol(0), Symbol::new(0b11));
        assert_eq!(line.symbol(255), Symbol::new(0b10));
        assert_eq!(line.symbol(37), Symbol::new(0b01));
        assert_eq!(line.symbol(1), Symbol::new(0b00));
    }

    #[test]
    fn symbol_msb_is_odd_bit() {
        let mut line = MemoryLine::new();
        line.set_bit(1, true); // bit 1 is the MSB of cell 0
        assert_eq!(line.symbol(0), Symbol::new(0b10));
    }

    #[test]
    fn histogram_counts_all_cells() {
        let line = MemoryLine::from_words([u64::MAX, 0, 0, 0, 0, 0, 0, 0]);
        let hist = line.symbol_histogram();
        assert_eq!(hist[0b11], 32);
        assert_eq!(hist[0b00], 224);
        assert_eq!(hist.iter().sum::<usize>(), LINE_CELLS);
    }

    #[test]
    fn hamming_distance_and_complement() {
        let a = MemoryLine::ZERO;
        let b = a.complement();
        assert_eq!(a.hamming_distance(&b), 512);
        assert_eq!(a.hamming_distance(&a), 0);
        assert_eq!(b.complement(), a);
    }

    #[test]
    fn msbs_identical_detects_sign_extension() {
        assert!(word::msbs_identical(0x0000_0000_0000_1234, 6));
        assert!(word::msbs_identical(0xFFFF_FFFF_FFFF_F234, 6));
        assert!(!word::msbs_identical(0x8000_0000_0000_0000, 2));
        assert!(word::msbs_identical(u64::MAX, 64));
        assert!(word::msbs_identical(0, 64));
        assert!(!word::msbs_identical(1, 64));
    }

    #[test]
    fn sign_extend_round_trip() {
        assert_eq!(word::sign_extend_from(0x07FF_FFFF_FFFF_FFFF, 58), u64::MAX);
        assert_eq!(word::sign_extend_from(0x0000_0000_0000_1234, 58), 0x1234);
        assert_eq!(word::sign_extend_from(0xFFu64, 63), 0xFF);
    }

    #[test]
    fn xor_is_involutive() {
        let a = MemoryLine::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        let m = MemoryLine::from_words([0xFF; 8]);
        assert_eq!(a.xor(&m).xor(&m), a);
    }

    #[test]
    #[should_panic]
    fn from_bytes_rejects_wrong_length() {
        let _ = MemoryLine::from_bytes(&[0u8; 32]);
    }
}
