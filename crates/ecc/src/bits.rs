//! A dense, u64-word-packed bit buffer shared by the block codes and the
//! compression layers.

use std::fmt;

/// A growable, dense vector of bits backed by packed 64-bit words.
///
/// Bit 0 is the first bit pushed; bit `i` lives in word `i / 64` at position
/// `i % 64`. Used to carry code words and compressed payloads of arbitrary
/// length (e.g. 369-bit compressed streams, 512-bit lines, 20-bit BCH
/// remainders) between the compression and coding layers without paying one
/// byte per bit the way a `Vec<bool>` does.
///
/// Invariant: every bit at position `>= len` inside the backing words is
/// zero, so word-level operations (`count_ones`, equality, hashing,
/// `words()`) never see garbage.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

/// Historical name of [`BitBuf`], kept so existing call sites and the public
/// API remain stable while everything shares the packed representation.
pub type BitVec = BitBuf;

impl BitBuf {
    /// Creates an empty bit buffer.
    pub fn new() -> BitBuf {
        BitBuf { words: Vec::new(), len: 0 }
    }

    /// Creates an empty bit buffer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> BitBuf {
        BitBuf { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// Creates a bit buffer of `len` zero bits.
    pub fn zeros(len: usize) -> BitBuf {
        BitBuf { words: vec![0; len.div_ceil(64)], len }
    }

    /// Creates a bit buffer from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> BitBuf {
        let mut out = BitBuf::with_capacity(bits.len());
        for &b in bits {
            out.push(b);
        }
        out
    }

    /// Creates a bit buffer from the low `len` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> BitBuf {
        assert!(len <= 64);
        let mut out = BitBuf::new();
        out.push_u64(value, len);
        out
    }

    /// Creates a bit buffer of `len` bits from packed words (bit `i` of the
    /// buffer is bit `i % 64` of `words[i / 64]`); bits past `len` in the
    /// final word are cleared to uphold the invariant.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than `len` requires.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> BitBuf {
        assert!(words.len() >= len.div_ceil(64), "not enough words for {len} bits");
        words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        BitBuf { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of bounds (len {})", self.len);
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Bit at `index`, or `None` when out of bounds.
    #[inline]
    pub fn get_opt(&self, index: usize) -> Option<bool> {
        if index < self.len {
            Some((self.words[index / 64] >> (index % 64)) & 1 == 1)
        } else {
            None
        }
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "bit index {index} out of bounds (len {})", self.len);
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if value {
            *self.words.last_mut().expect("word just ensured") |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends the low `len` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn push_u64(&mut self, value: u64, len: usize) {
        assert!(len <= 64);
        if len == 0 {
            return;
        }
        let value = if len == 64 { value } else { value & ((1u64 << len) - 1) };
        let offset = self.len % 64;
        if offset == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("non-empty by offset") |= value << offset;
            if offset + len > 64 {
                self.words.push(value >> (64 - offset));
            }
        }
        self.len += len;
    }

    /// Appends all bits of `other`.
    pub fn extend_from(&mut self, other: &BitBuf) {
        let mut remaining = other.len;
        let mut start = 0usize;
        while remaining > 0 {
            let take = remaining.min(64);
            self.push_u64(other.read_u64(start, take), take);
            start += take;
            remaining -= take;
        }
    }

    /// Reads `len` bits starting at `start` into the low bits of a `u64`,
    /// LSB first.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `len > 64`.
    pub fn read_u64(&self, start: usize, len: usize) -> u64 {
        assert!(len <= 64);
        assert!(start + len <= self.len, "bit range out of bounds");
        if len == 0 {
            return 0;
        }
        let word = start / 64;
        let offset = start % 64;
        let mut out = self.words[word] >> offset;
        if offset + len > 64 {
            out |= self.words[word + 1] << (64 - offset);
        }
        if len < 64 {
            out &= (1u64 << len) - 1;
        }
        out
    }

    /// Returns a new buffer holding bits `start..self.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `start > self.len()`.
    pub fn slice_from(&self, start: usize) -> BitBuf {
        assert!(start <= self.len, "slice start out of bounds");
        let mut out = BitBuf::with_capacity(self.len - start);
        let mut pos = start;
        while pos < self.len {
            let take = (self.len - pos).min(64);
            out.push_u64(self.read_u64(pos, take), take);
            pos += take;
        }
        out
    }

    /// Truncates the buffer to at most `len` bits.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(len.div_ceil(64));
        if !len.is_multiple_of(64) {
            let last = self.words.last_mut().expect("non-empty by len");
            *last &= (1u64 << (len % 64)) - 1;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the bits, first bit first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| (self.words[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// The bits as a vector of booleans (first bit first).
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// The packed backing words; bits at positions `>= len()` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BitBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitBuf[{}; ", self.len())?;
        for b in self.iter().take(64) {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        if self.len() > 64 {
            write!(f, "...")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitBuf {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> BitBuf {
        let mut out = BitBuf::new();
        out.extend(iter);
        out
    }
}

impl Extend<bool> for BitBuf {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        let v = BitBuf::from_u64(0xDEAD_BEEF, 32);
        assert_eq!(v.len(), 32);
        assert_eq!(v.read_u64(0, 32), 0xDEAD_BEEF);
    }

    #[test]
    fn push_and_read_across_boundaries() {
        let mut v = BitBuf::new();
        v.push_u64(0b101, 3);
        v.push_u64(0xFF, 8);
        assert_eq!(v.len(), 11);
        assert_eq!(v.read_u64(0, 3), 0b101);
        assert_eq!(v.read_u64(3, 8), 0xFF);
    }

    #[test]
    fn push_u64_spanning_words_matches_bitwise_push() {
        let mut packed = BitBuf::new();
        let mut reference = BitBuf::new();
        let values = [(0x0123_4567_89AB_CDEFu64, 64), (0b1_0110u64, 5), (u64::MAX, 64), (0, 7)];
        for (value, len) in values {
            packed.push_u64(value, len);
            for i in 0..len {
                reference.push((value >> i) & 1 == 1);
            }
        }
        assert_eq!(packed, reference);
        assert_eq!(packed.words(), reference.words());
    }

    #[test]
    fn read_u64_spans_word_boundaries() {
        let mut v = BitBuf::zeros(60);
        v.push_u64(0xBEEF, 16);
        assert_eq!(v.read_u64(60, 16), 0xBEEF);
    }

    #[test]
    fn count_ones_counts() {
        assert_eq!(BitBuf::from_u64(0b1011, 4).count_ones(), 3);
        assert_eq!(BitBuf::zeros(100).count_ones(), 0);
    }

    #[test]
    fn from_iter_and_extend() {
        let v: BitBuf = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        let mut w = BitBuf::new();
        w.extend(v.iter());
        assert_eq!(w, v);
    }

    #[test]
    fn bools_round_trip() {
        let bools = [true, false, false, true, true, false, true];
        let v = BitBuf::from_bools(&bools);
        assert_eq!(v.to_bools(), bools);
        assert_eq!(v.len(), bools.len());
    }

    #[test]
    fn set_clears_and_sets_packed_bits() {
        let mut v = BitBuf::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn truncate_zeroes_the_tail() {
        let mut v = BitBuf::new();
        v.push_u64(u64::MAX, 64);
        v.push_u64(u64::MAX, 64);
        v.truncate(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.count_ones(), 70);
        // The invariant must hold so equality keeps working.
        assert_eq!(v.words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn slice_from_drops_the_prefix() {
        let mut v = BitBuf::new();
        v.push_u64(0b1_0110, 5);
        v.push_u64(0xABCD, 16);
        let tail = v.slice_from(5);
        assert_eq!(tail.len(), 16);
        assert_eq!(tail.read_u64(0, 16), 0xABCD);
        assert!(v.slice_from(v.len()).is_empty());
    }

    #[test]
    fn extend_from_matches_bit_by_bit() {
        let mut a = BitBuf::from_u64(0b101, 3);
        let b = BitBuf::from_u64(0xF0F0_F0F0_F0F0_F0F0, 64);
        let mut reference = a.clone();
        for bit in b.iter() {
            reference.push(bit);
        }
        a.extend_from(&b);
        assert_eq!(a, reference);
    }

    #[test]
    fn from_words_masks_the_tail() {
        let v = BitBuf::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v, {
            let mut w = BitBuf::new();
            w.push_u64(u64::MAX, 64);
            w.push_u64(u64::MAX, 6);
            w
        });
    }

    #[test]
    fn get_opt_is_none_out_of_bounds() {
        let v = BitBuf::from_u64(0b1, 1);
        assert_eq!(v.get_opt(0), Some(true));
        assert_eq!(v.get_opt(1), None);
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        let _ = BitBuf::zeros(3).get(3);
    }
}
