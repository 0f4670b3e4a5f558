//! Frequent Pattern Compression (FPC) for 512-bit memory lines.
//!
//! FPC compresses each 32-bit word of a line with one of a small set of
//! patterns (zero run, sign-extended small values, repeated bytes, halfword
//! patterns), attaching a 3-bit prefix per word. Words that match no pattern
//! are stored verbatim. This is a faithful reimplementation of the classic
//! significance-based scheme at the level of detail needed to decide whether
//! a line fits a target size (DIN requires ≤ 369 bits with FPC+BDI).

use crate::{Compressor, LineStream};
use wlcrc_ecc::BitBuf;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::LINE_BITS;

/// Number of 32-bit words in a memory line.
const WORDS32: usize = LINE_BITS / 32;
/// Prefix bits attached to every 32-bit word.
const PREFIX_BITS: usize = 3;

/// The FPC pattern matched by a 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpcPattern {
    /// Run of zero words (encoded once per word here; 3-bit payload).
    ZeroRun,
    /// 4-bit sign-extended value.
    SignExtended4,
    /// 8-bit sign-extended value.
    SignExtended8,
    /// 16-bit sign-extended value.
    SignExtended16,
    /// Upper halfword is zero.
    ZeroUpperHalf,
    /// Both halfwords are independently 8-bit sign-extended.
    HalfwordSignExtended,
    /// All four bytes of the word are equal.
    RepeatedBytes,
    /// No pattern matched; the word is stored verbatim.
    Uncompressed,
}

impl FpcPattern {
    /// Payload size, in bits, for a word compressed with this pattern.
    pub fn payload_bits(self) -> usize {
        match self {
            FpcPattern::ZeroRun => 3,
            FpcPattern::SignExtended4 => 4,
            FpcPattern::SignExtended8 => 8,
            FpcPattern::SignExtended16 => 16,
            FpcPattern::ZeroUpperHalf => 16,
            FpcPattern::HalfwordSignExtended => 16,
            FpcPattern::RepeatedBytes => 8,
            FpcPattern::Uncompressed => 32,
        }
    }
}

/// Frequent Pattern Compression.
#[derive(Debug, Clone, Default)]
pub struct Fpc;

impl Fpc {
    /// Creates an FPC compressor.
    pub fn new() -> Fpc {
        Fpc
    }

    /// Classifies one 32-bit word.
    pub fn classify(word: u32) -> FpcPattern {
        fn sign_extends(word: u32, bits: u32) -> bool {
            let shifted = (word as i32) << (32 - bits) >> (32 - bits);
            shifted as u32 == word
        }
        if word == 0 {
            FpcPattern::ZeroRun
        } else if sign_extends(word, 4) {
            FpcPattern::SignExtended4
        } else if sign_extends(word, 8) {
            FpcPattern::SignExtended8
        } else if sign_extends(word, 16) {
            FpcPattern::SignExtended16
        } else if word >> 16 == 0 {
            FpcPattern::ZeroUpperHalf
        } else {
            let hi = (word >> 16) as u16;
            let lo = (word & 0xFFFF) as u16;
            let half_se = |h: u16| {
                let x = (h as i16) << 8 >> 8;
                x as u16 == h
            };
            let bytes = word.to_le_bytes();
            if half_se(hi) && half_se(lo) {
                FpcPattern::HalfwordSignExtended
            } else if bytes.iter().all(|b| *b == bytes[0]) {
                FpcPattern::RepeatedBytes
            } else {
                FpcPattern::Uncompressed
            }
        }
    }

    /// Classifies every 32-bit word of the line.
    pub fn classify_line(line: &MemoryLine) -> [FpcPattern; WORDS32] {
        let mut out = [FpcPattern::Uncompressed; WORDS32];
        for (i, slot) in out.iter_mut().enumerate() {
            let w64 = line.word(i / 2);
            let w32 = if i % 2 == 0 { (w64 & 0xFFFF_FFFF) as u32 } else { (w64 >> 32) as u32 };
            *slot = Fpc::classify(w32);
        }
        out
    }
}

impl Fpc {
    /// Encodes the line into an FPC bit stream: for each of the sixteen 32-bit
    /// words, a 3-bit pattern prefix followed by the pattern payload. An
    /// incompressible line's stream runs to 560 bits, past the 512 a
    /// [`LineStream`] holds; its length still counts them all.
    pub fn encode_words(&self, line: &MemoryLine) -> LineStream {
        let mut stream = LineStream::EMPTY;
        for i in 0..WORDS32 {
            let w32 = (line.word(i / 2) >> (32 * (i % 2))) as u32;
            let pattern = Fpc::classify(w32);
            let code = u64::from(pattern_code(pattern)) | payload_of(w32, pattern) << PREFIX_BITS;
            stream.push(code, PREFIX_BITS + pattern.payload_bits());
        }
        stream
    }

    /// Decodes a stream produced by [`Fpc::encode_words`] back into the
    /// original line. Trailing padding bits are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the stream is truncated.
    pub fn decode_words(&self, stream: &LineStream) -> MemoryLine {
        let mut line = MemoryLine::ZERO;
        let mut pos = 0usize;
        for i in 0..WORDS32 {
            let pattern = pattern_from_code(stream.read(pos, PREFIX_BITS) as u8);
            let payload = stream.read(pos + PREFIX_BITS, pattern.payload_bits());
            pos += PREFIX_BITS + pattern.payload_bits();
            let w32 = u64::from(word_from_payload(payload, pattern));
            line.words_mut()[i / 2] |= w32 << (32 * (i % 2));
        }
        line
    }

    /// The [`BitBuf`] builder of [`Fpc::encode_words`]' stream, kept as its
    /// scalar oracle.
    pub fn encode_stream(&self, line: &MemoryLine) -> BitBuf {
        let mut bits = BitBuf::with_capacity(LINE_BITS);
        for i in 0..WORDS32 {
            let w64 = line.word(i / 2);
            let w32 = if i % 2 == 0 { (w64 & 0xFFFF_FFFF) as u32 } else { (w64 >> 32) as u32 };
            let pattern = Fpc::classify(w32);
            bits.push_u64(u64::from(pattern_code(pattern)), PREFIX_BITS);
            bits.push_u64(payload_of(w32, pattern), pattern.payload_bits());
        }
        bits
    }

    /// Decodes a bit stream produced by [`Fpc::encode_stream`] back into the
    /// original line. Trailing padding bits are ignored. The scalar oracle
    /// of [`Fpc::decode_words`].
    ///
    /// # Panics
    ///
    /// Panics if the stream is truncated.
    pub fn decode_stream(&self, bits: &BitBuf) -> MemoryLine {
        let mut line = MemoryLine::ZERO;
        let mut pos = 0usize;
        let read = |bits: &BitBuf, pos: &mut usize, n: usize| -> u64 {
            let v = bits.read_u64(*pos, n);
            *pos += n;
            v
        };
        for i in 0..WORDS32 {
            let prefix = read(bits, &mut pos, PREFIX_BITS) as u8;
            let pattern = pattern_from_code(prefix);
            let payload = read(bits, &mut pos, pattern.payload_bits());
            let w32 = word_from_payload(payload, pattern);
            let w64 = line.word(i / 2);
            let updated = if i % 2 == 0 {
                (w64 & 0xFFFF_FFFF_0000_0000) | u64::from(w32)
            } else {
                (w64 & 0x0000_0000_FFFF_FFFF) | (u64::from(w32) << 32)
            };
            line.set_word(i / 2, updated);
        }
        line
    }
}

/// The 3-bit prefix assigned to each pattern.
fn pattern_code(pattern: FpcPattern) -> u8 {
    match pattern {
        FpcPattern::ZeroRun => 0,
        FpcPattern::SignExtended4 => 1,
        FpcPattern::SignExtended8 => 2,
        FpcPattern::SignExtended16 => 3,
        FpcPattern::ZeroUpperHalf => 4,
        FpcPattern::HalfwordSignExtended => 5,
        FpcPattern::RepeatedBytes => 6,
        FpcPattern::Uncompressed => 7,
    }
}

fn pattern_from_code(code: u8) -> FpcPattern {
    match code {
        0 => FpcPattern::ZeroRun,
        1 => FpcPattern::SignExtended4,
        2 => FpcPattern::SignExtended8,
        3 => FpcPattern::SignExtended16,
        4 => FpcPattern::ZeroUpperHalf,
        5 => FpcPattern::HalfwordSignExtended,
        6 => FpcPattern::RepeatedBytes,
        _ => FpcPattern::Uncompressed,
    }
}

/// The payload stored for a word compressed with the given pattern.
fn payload_of(word: u32, pattern: FpcPattern) -> u64 {
    match pattern {
        FpcPattern::ZeroRun => 0,
        FpcPattern::SignExtended4 => u64::from(word & 0xF),
        FpcPattern::SignExtended8 => u64::from(word & 0xFF),
        FpcPattern::SignExtended16 | FpcPattern::ZeroUpperHalf => u64::from(word & 0xFFFF),
        FpcPattern::HalfwordSignExtended => {
            u64::from(word & 0xFF) | (u64::from((word >> 16) & 0xFF) << 8)
        }
        FpcPattern::RepeatedBytes => u64::from(word & 0xFF),
        FpcPattern::Uncompressed => u64::from(word),
    }
}

/// Reconstructs a 32-bit word from its pattern payload.
fn word_from_payload(payload: u64, pattern: FpcPattern) -> u32 {
    let se = |v: u32, bits: u32| -> u32 { (((v as i32) << (32 - bits)) >> (32 - bits)) as u32 };
    match pattern {
        FpcPattern::ZeroRun => 0,
        FpcPattern::SignExtended4 => se(payload as u32, 4),
        FpcPattern::SignExtended8 => se(payload as u32, 8),
        FpcPattern::SignExtended16 => se(payload as u32, 16),
        FpcPattern::ZeroUpperHalf => payload as u32 & 0xFFFF,
        FpcPattern::HalfwordSignExtended => {
            let lo = se(payload as u32 & 0xFF, 8) & 0xFFFF;
            let hi = se((payload >> 8) as u32 & 0xFF, 8) & 0xFFFF;
            (hi << 16) | lo
        }
        FpcPattern::RepeatedBytes => {
            let b = payload as u32 & 0xFF;
            b | (b << 8) | (b << 16) | (b << 24)
        }
        FpcPattern::Uncompressed => payload as u32,
    }
}

impl Compressor for Fpc {
    fn name(&self) -> &str {
        "FPC"
    }

    fn compressed_bits(&self, line: &MemoryLine) -> Option<usize> {
        let total: usize =
            Fpc::classify_line(line).iter().map(|p| PREFIX_BITS + p.payload_bits()).sum();
        if total < LINE_BITS {
            Some(total)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_patterns() {
        assert_eq!(Fpc::classify(0), FpcPattern::ZeroRun);
        assert_eq!(Fpc::classify(0x7), FpcPattern::SignExtended4);
        assert_eq!(Fpc::classify(0xFFFF_FFF9), FpcPattern::SignExtended4);
        assert_eq!(Fpc::classify(0x75), FpcPattern::SignExtended8);
        assert_eq!(Fpc::classify(0xFFFF_F123), FpcPattern::SignExtended16);
        assert_eq!(Fpc::classify(0x0000_F123), FpcPattern::ZeroUpperHalf);
        assert_eq!(Fpc::classify(0x007F_0012), FpcPattern::HalfwordSignExtended);
        assert_eq!(Fpc::classify(0xABAB_ABAB), FpcPattern::RepeatedBytes);
        assert_eq!(Fpc::classify(0x1234_5678), FpcPattern::Uncompressed);
    }

    #[test]
    fn zero_line_compresses_very_well() {
        let fpc = Fpc::new();
        let bits = fpc.compressed_bits(&MemoryLine::ZERO).unwrap();
        assert_eq!(bits, WORDS32 * (3 + 3));
    }

    #[test]
    fn random_looking_line_does_not_compress() {
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(
                i,
                0x9234_5678_DEAD_BEEF ^ (i as u64).rotate_left(17).wrapping_mul(0x9E37),
            );
        }
        assert_eq!(Fpc::new().compressed_bits(&line), None);
    }

    #[test]
    fn payload_bits_bounded_by_32() {
        for p in [
            FpcPattern::ZeroRun,
            FpcPattern::SignExtended4,
            FpcPattern::SignExtended8,
            FpcPattern::SignExtended16,
            FpcPattern::ZeroUpperHalf,
            FpcPattern::HalfwordSignExtended,
            FpcPattern::RepeatedBytes,
            FpcPattern::Uncompressed,
        ] {
            assert!(p.payload_bits() <= 32);
        }
    }

    #[test]
    fn stream_round_trip_on_varied_lines() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let fpc = Fpc::new();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..200 {
            let mut line = MemoryLine::ZERO;
            for i in 0..8 {
                let w: u64 = match rng.gen_range(0..5) {
                    0 => 0,
                    1 => u64::from(rng.gen::<u8>()),
                    2 => (rng.gen::<i16>() as i64) as u64,
                    3 => u64::from(rng.gen::<u32>()),
                    _ => rng.gen(),
                };
                line.set_word(i, w);
            }
            let stream = fpc.encode_stream(&line);
            assert_eq!(fpc.decode_stream(&stream), line);
            // Reported size must match the stream length.
            let expected: usize =
                Fpc::classify_line(&line).iter().map(|p| PREFIX_BITS + p.payload_bits()).sum();
            assert_eq!(stream.len(), expected);
        }
    }

    #[test]
    fn stream_ignores_trailing_padding() {
        let fpc = Fpc::new();
        let mut line = MemoryLine::ZERO;
        line.set_word(2, 42);
        let mut stream = fpc.encode_stream(&line);
        stream.extend([false; 37]);
        assert_eq!(fpc.decode_stream(&stream), line);
    }

    #[test]
    fn small_integer_line_hits_din_threshold() {
        // A line of small 64-bit integers (each 32-bit half either zero or a
        // small value) compresses far below 369 bits.
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, (i as u64) + 1);
        }
        let bits = Fpc::new().compressed_bits(&line).unwrap();
        assert!(bits <= 369, "bits = {bits}");
    }
}
