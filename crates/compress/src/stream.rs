//! Compressed bit streams held in a memory line's eight words.
//!
//! The hot paths of DIN (FPC/BDI) and COC+4cosets (the byte-truncation
//! repack) build their compressed streams here instead of in a heap
//! [`wlcrc_ecc::BitBuf`]; the `BitBuf` builders stay as the scalar oracles
//! these streams are checked against.

use wlcrc_pcm::{LINE_BITS, LINE_WORDS};

/// A bit stream in fixed line words: bit `i` of the stream is bit `i % 64`
/// of word `i / 64`, least significant first, like [`wlcrc_ecc::BitBuf`].
///
/// A stream counts every bit pushed onto it but holds only the first 512: a
/// stream that outgrows the line (an incompressible line's FPC stream is up
/// to 560 bits, its COC repack up to 544) keeps its full length, which is
/// what the size decisions read, and drops the bits it cannot hold. Every
/// held bit at or past the length is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineStream {
    words: [u64; LINE_WORDS],
    len: usize,
}

impl LineStream {
    /// The stream of no bits.
    pub const EMPTY: LineStream = LineStream { words: [0; LINE_WORDS], len: 0 };

    /// A stream of the first `len` bits of `words` (at most 512); the bits
    /// past `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds 512.
    pub fn from_words(mut words: [u64; LINE_WORDS], len: usize) -> LineStream {
        assert!(len <= LINE_BITS, "a line stream holds at most {LINE_BITS} bits");
        for (w, word) in words.iter_mut().enumerate() {
            let held = len.saturating_sub(64 * w);
            if held < 64 {
                *word &= (1u64 << held) - 1;
            }
        }
        LineStream { words, len }
    }

    /// Number of bits pushed, including any past the 512 held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bit was pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The held words.
    #[inline]
    pub fn words(&self) -> &[u64; LINE_WORDS] {
        &self.words
    }

    /// Appends the low `nbits` bits of `value`, least significant first;
    /// bits that land past the 512th are counted and dropped.
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 64`.
    #[inline]
    pub fn push(&mut self, value: u64, nbits: usize) {
        assert!(nbits <= 64, "at most 64 bits per push");
        let value = if nbits == 64 { value } else { value & ((1u64 << nbits) - 1) };
        let (w, off) = (self.len / 64, self.len % 64);
        if let Some(word) = self.words.get_mut(w) {
            *word |= value << off;
        }
        if off + nbits > 64 {
            if let Some(word) = self.words.get_mut(w + 1) {
                *word |= value >> (64 - off);
            }
        }
        self.len += nbits;
    }

    /// Reads `nbits` bits starting at bit `pos` into the low bits of a
    /// `u64`, least significant first.
    ///
    /// # Panics
    ///
    /// Panics if the range is not held (past the length or the 512th bit)
    /// or `nbits > 64`.
    #[inline]
    pub fn read(&self, pos: usize, nbits: usize) -> u64 {
        assert!(nbits <= 64, "at most 64 bits per read");
        assert!(pos + nbits <= self.len.min(LINE_BITS), "bit range out of bounds");
        if nbits == 0 {
            return 0;
        }
        let (w, off) = (pos / 64, pos % 64);
        let mut value = self.words[w] >> off;
        if off + nbits > 64 {
            value |= self.words[w + 1] << (64 - off);
        }
        if nbits == 64 {
            value
        } else {
            value & ((1u64 << nbits) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlcrc_ecc::BitBuf;

    #[test]
    fn pushes_and_reads_match_a_bitbuf() {
        let mut stream = LineStream::EMPTY;
        let mut oracle = BitBuf::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        while stream.len() < LINE_BITS - 64 {
            state = state.rotate_left(23).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let nbits = (state % 65) as usize;
            stream.push(state, nbits);
            oracle.push_u64(state, nbits);
        }
        assert_eq!(stream.len(), oracle.len());
        assert_eq!(&stream.words()[..oracle.words().len()], oracle.words());
        for pos in (0..oracle.len() - 64).step_by(7) {
            for nbits in [0usize, 1, 13, 63, 64] {
                assert_eq!(stream.read(pos, nbits), oracle.read_u64(pos, nbits), "{pos} {nbits}");
            }
        }
        let rebuilt = LineStream::from_words(*stream.words(), stream.len());
        assert_eq!(rebuilt, stream);
    }

    #[test]
    fn bits_past_the_line_are_counted_and_dropped() {
        let mut stream = LineStream::EMPTY;
        for _ in 0..16 {
            stream.push(u64::MAX, 35);
        }
        assert_eq!(stream.len(), 560);
        assert_eq!(stream.words(), &[u64::MAX; LINE_WORDS]);
        assert_eq!(stream.read(LINE_BITS - 64, 64), u64::MAX);
        assert_eq!(LineStream::from_words([u64::MAX; LINE_WORDS], 70).words()[1], 0x3F);
    }

    #[test]
    #[should_panic(expected = "bit range out of bounds")]
    fn reads_past_the_length_panic() {
        let mut stream = LineStream::EMPTY;
        stream.push(5, 3);
        stream.read(1, 3);
    }
}
