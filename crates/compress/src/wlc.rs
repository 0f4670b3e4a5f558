//! Word-Level Compression (WLC), Section IV of the paper.
//!
//! A 512-bit line is WLC-compressible with parameter `k` when, for every one
//! of its eight 64-bit words, the `k` most-significant bits are identical
//! (all zeros or all ones). The top `k − 1` bits of each word can then be
//! dropped and reconstructed on decompression by sign-extending bit
//! `63 − (k − 1)`, reclaiming `k − 1` bit positions per word for auxiliary
//! encoding information.

use crate::Compressor;
use wlcrc_pcm::line::{word, MemoryLine};
use wlcrc_pcm::{LINE_BITS, LINE_WORDS};

/// Word-Level Compression with a fixed `k` (number of MSBs that must match).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wlc {
    k: usize,
    name: String,
}

impl Wlc {
    /// Creates a WLC compressor checking the `k` most-significant bits of
    /// every word (`k ≥ 2`; `k − 1` bits per word are reclaimed).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > 63`.
    pub fn new(k: usize) -> Wlc {
        assert!((2..=63).contains(&k), "WLC requires 2 <= k <= 63");
        Wlc { k, name: format!("WLC-{k}MSB") }
    }

    /// The number of most-significant bits that must be identical.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of bits reclaimed per 64-bit word when the line is compressible.
    pub fn reclaimed_bits_per_word(&self) -> usize {
        self.k - 1
    }

    /// `true` when every word of `line` has its `k` MSBs identical.
    pub fn is_compressible(&self, line: &MemoryLine) -> bool {
        line.words().iter().all(|&w| word::msbs_identical(w, self.k))
    }

    /// Compresses the line, returning the per-word payloads (the low
    /// `64 − (k − 1)` bits of each word, whose top bit carries the sign used
    /// for reconstruction), or `None` if the line is not compressible.
    pub fn compress(&self, line: &MemoryLine) -> Option<WlcCompressed> {
        if !self.is_compressible(line) {
            return None;
        }
        let payload_bits = 64 - self.reclaimed_bits_per_word();
        let mask = if payload_bits == 64 { u64::MAX } else { (1u64 << payload_bits) - 1 };
        let mut payloads = [0u64; LINE_WORDS];
        for (i, &w) in line.words().iter().enumerate() {
            payloads[i] = w & mask;
        }
        Some(WlcCompressed { payloads, payload_bits })
    }

    /// Decompresses per-word payloads back into the original line by
    /// sign-extending the top payload bit of each word.
    pub fn decompress(&self, compressed: &WlcCompressed) -> MemoryLine {
        let mut words = [0u64; LINE_WORDS];
        let sign_bit = compressed.payload_bits - 1;
        for (i, &p) in compressed.payloads.iter().enumerate() {
            words[i] = word::sign_extend_from(p, sign_bit);
        }
        MemoryLine::from_words(words)
    }
}

impl Compressor for Wlc {
    fn name(&self) -> &str {
        &self.name
    }

    fn compressed_bits(&self, line: &MemoryLine) -> Option<usize> {
        if self.is_compressible(line) {
            Some(LINE_BITS - LINE_WORDS * self.reclaimed_bits_per_word())
        } else {
            None
        }
    }
}

/// The result of WLC compression: one truncated payload per 64-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WlcCompressed {
    /// The low `payload_bits` bits of each word (upper bits zero).
    pub payloads: [u64; LINE_WORDS],
    /// Number of valid bits in each payload.
    pub payload_bits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sign_extended_line(rng: &mut StdRng, payload_bits: usize) -> MemoryLine {
        let mut words = [0u64; LINE_WORDS];
        for w in &mut words {
            let raw: u64 = rng.gen();
            *w = word::sign_extend_from(raw & ((1 << payload_bits) - 1), payload_bits - 1);
        }
        MemoryLine::from_words(words)
    }

    #[test]
    fn zero_line_is_always_compressible() {
        for k in 2..=9 {
            assert!(Wlc::new(k).is_compressible(&MemoryLine::ZERO));
        }
    }

    #[test]
    fn all_ones_line_is_always_compressible() {
        let line = MemoryLine::ZERO.complement();
        for k in 2..=9 {
            assert!(Wlc::new(k).is_compressible(&line));
        }
    }

    #[test]
    fn one_bad_word_breaks_compressibility() {
        let mut line = MemoryLine::ZERO;
        line.set_word(3, 0x4000_0000_0000_0000); // bit 62 set, bit 63 clear
        assert!(!Wlc::new(6).is_compressible(&line));
        assert!(Wlc::new(2).is_compressible(&MemoryLine::ZERO));
    }

    #[test]
    fn round_trip_for_compressible_lines() {
        let mut rng = StdRng::seed_from_u64(99);
        for k in [4usize, 6, 9] {
            let wlc = Wlc::new(k);
            for _ in 0..50 {
                let line = sign_extended_line(&mut rng, 64 - (k - 1));
                let compressed = wlc.compress(&line).expect("line built to be compressible");
                assert_eq!(compressed.payload_bits, 64 - (k - 1));
                assert_eq!(wlc.decompress(&compressed), line);
            }
        }
    }

    #[test]
    fn compressed_bits_accounts_for_reclaimed_space() {
        let wlc = Wlc::new(6);
        assert_eq!(wlc.compressed_bits(&MemoryLine::ZERO), Some(512 - 8 * 5));
        let mut noisy = MemoryLine::ZERO;
        noisy.set_word(0, 0x2000_0000_0000_0000);
        assert_eq!(wlc.compressed_bits(&noisy), None);
    }

    #[test]
    fn wlcrc16_configuration() {
        // WLCRC-16 runs k = 6, reclaiming 5 bits per word: one
        // restricted-group bit plus four per-block candidate bits.
        let wlc = Wlc::new(6);
        assert_eq!(wlc.k(), 6);
        assert_eq!(wlc.reclaimed_bits_per_word(), 5);
    }

    #[test]
    fn incompressible_line_returns_none() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut line = MemoryLine::ZERO;
        for i in 0..LINE_WORDS {
            line.set_word(i, rng.gen::<u64>() | 0x4000_0000_0000_0000);
        }
        line.set_word(0, 0x4123_4567_89AB_CDEF); // 01... in the top bits
        assert!(Wlc::new(3).compress(&line).is_none());
    }

    #[test]
    #[should_panic]
    fn k_of_one_is_rejected() {
        let _ = Wlc::new(1);
    }
}
