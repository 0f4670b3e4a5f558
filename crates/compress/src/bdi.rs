//! Base-Delta-Immediate (BDI) compression for 512-bit memory lines.
//!
//! BDI represents a line as one (or two) base values plus small per-element
//! deltas. We implement the standard configurations (base of 8/4/2 bytes with
//! delta sizes 1/2/4 bytes, plus the all-zero and repeated-value cases) and
//! report the best compressed size, which is what the DIN scheme needs to
//! decide whether a line can be encoded.

use crate::{Compressor, LineStream};
use wlcrc_ecc::BitBuf;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_pcm::{LINE_BITS, LINE_BYTES};

/// One base+delta configuration: element size and delta size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BdiConfig {
    /// Size of each element (and of the base), in bytes.
    pub base_bytes: usize,
    /// Size of each stored delta, in bytes.
    pub delta_bytes: usize,
}

impl BdiConfig {
    /// The six standard base-delta configurations: 8-byte bases with 1-,
    /// 2- and 4-byte deltas, 4-byte bases with 1- and 2-byte deltas, and
    /// 2-byte bases with 1-byte deltas.
    pub const ALL: [BdiConfig; 6] = [
        BdiConfig { base_bytes: 8, delta_bytes: 1 },
        BdiConfig { base_bytes: 8, delta_bytes: 2 },
        BdiConfig { base_bytes: 8, delta_bytes: 4 },
        BdiConfig { base_bytes: 4, delta_bytes: 1 },
        BdiConfig { base_bytes: 4, delta_bytes: 2 },
        BdiConfig { base_bytes: 2, delta_bytes: 1 },
    ];

    /// Compressed size in bits for a 64-byte line under this configuration
    /// (base + second base (zero) mask + deltas), excluding the encoding tag.
    pub fn compressed_bits(&self) -> usize {
        let elements = LINE_BYTES / self.base_bytes;
        // one base + per-element "is it from the zero base" flag + deltas
        (self.base_bytes * 8) + elements + elements * self.delta_bytes * 8
    }
}

/// Base-Delta-Immediate compression.
#[derive(Debug, Clone, Default)]
pub struct Bdi;

/// Encoding tag bits attached to a BDI-compressed line.
const TAG_BITS: usize = 4;

impl Bdi {
    /// Creates a BDI compressor.
    pub fn new() -> Bdi {
        Bdi
    }

    /// Returns `true` if the line compresses under the given configuration
    /// (every element is within the delta range of either the first non-zero
    /// element or zero — the standard "base + zero base" formulation).
    pub fn fits(line: &MemoryLine, config: BdiConfig) -> bool {
        let bytes = line.to_bytes();
        let elements = LINE_BYTES / config.base_bytes;
        let read = |idx: usize| -> i128 {
            let mut v: u128 = 0;
            for b in 0..config.base_bytes {
                v |= u128::from(bytes[idx * config.base_bytes + b]) << (8 * b);
            }
            // sign-extend
            let shift = 128 - config.base_bytes * 8;
            ((v << shift) as i128) >> shift
        };
        let limit: i128 = 1i128 << (config.delta_bytes * 8 - 1);
        let mut base: Option<i128> = None;
        for i in 0..elements {
            let v = read(i);
            let near_zero = v >= -limit && v < limit;
            if near_zero {
                continue;
            }
            match base {
                None => base = Some(v),
                Some(b) => {
                    let d = v - b;
                    if d < -limit || d >= limit {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The best (smallest) compressed size over all configurations, if any.
    pub fn best_fit(line: &MemoryLine) -> Option<(BdiConfig, usize)> {
        // Special cases: all-zero line, repeated 8-byte value.
        let bytes = line.to_bytes();
        if bytes.iter().all(|b| *b == 0) {
            return Some((BdiConfig { base_bytes: 8, delta_bytes: 1 }, TAG_BITS + 64));
        }
        if line.words().iter().all(|w| *w == line.word(0)) {
            return Some((BdiConfig { base_bytes: 8, delta_bytes: 1 }, TAG_BITS + 64));
        }
        BdiConfig::ALL
            .iter()
            .filter(|cfg| Bdi::fits(line, **cfg))
            .map(|cfg| (*cfg, TAG_BITS + cfg.compressed_bits()))
            .min_by_key(|(_, bits)| *bits)
    }
}

impl Bdi {
    /// Encodes the line into an explicit BDI stream, or `None` when no
    /// configuration fits. The layout is [`Bdi::encode_stream`]'s, at most
    /// 331 bits (an 8-byte base with 4-byte deltas).
    pub fn encode_words(&self, line: &MemoryLine) -> Option<LineStream> {
        let mut stream = LineStream::EMPTY;
        let words = line.words();
        if words.iter().all(|&w| w == words[0]) {
            // Tag 0 (all-zero line) or 1 (a repeated 64-bit value).
            if words[0] == 0 {
                stream.push(0, 3);
            } else {
                stream.push(1, 3);
                stream.push(words[0], 64);
            }
            return Some(stream);
        }
        // The first of the smallest fitting configurations, as
        // `min_by_key` over `ALL` picks it.
        let mut best: Option<(usize, usize, i64)> = None;
        for (idx, cfg) in BdiConfig::ALL.iter().enumerate() {
            let bits = cfg.compressed_bits();
            if best.is_none_or(|(_, fewest, _)| bits < fewest) {
                if let Some(base) = base_of(line, *cfg) {
                    best = Some((idx, bits, base));
                }
            }
        }
        let (idx, _, base) = best?;
        let cfg = BdiConfig::ALL[idx];
        let limit = 1i64 << (cfg.delta_bytes * 8 - 1);
        stream.push(2 + idx as u64, 3);
        stream.push(base as u64, cfg.base_bytes * 8);
        for i in 0..LINE_BYTES / cfg.base_bytes {
            let v = element(line, cfg, i);
            let near_zero = v >= -limit && v < limit;
            let delta = if near_zero { v } else { v.wrapping_sub(base) };
            stream.push(u64::from(near_zero) | (delta as u64) << 1, 1 + cfg.delta_bytes * 8);
        }
        Some(stream)
    }

    /// Decodes a stream produced by [`Bdi::encode_words`]. Trailing padding
    /// bits are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the stream is truncated.
    pub fn decode_words(&self, stream: &LineStream) -> MemoryLine {
        let tag = stream.read(0, 3) as usize;
        if tag == 0 {
            return MemoryLine::ZERO;
        }
        if tag == 1 {
            return MemoryLine::from_words([stream.read(3, 64); 8]);
        }
        let cfg = BdiConfig::ALL[tag - 2];
        let (base_bits, delta_bits) = (cfg.base_bytes * 8, cfg.delta_bytes * 8);
        let base = sign_extend(stream.read(3, base_bits), base_bits);
        let mut pos = 3 + base_bits;
        let mut line = MemoryLine::ZERO;
        for i in 0..LINE_BYTES / cfg.base_bytes {
            let near_zero = stream.read(pos, 1) == 1;
            let delta = sign_extend(stream.read(pos + 1, delta_bits), delta_bits);
            pos += 1 + delta_bits;
            let value = if near_zero { delta } else { base.wrapping_add(delta) };
            let bit = i * base_bits;
            line.words_mut()[bit / 64] |= (value as u64 & low_mask(base_bits)) << (bit % 64);
        }
        line
    }

    /// Encodes the line into an explicit BDI bit stream, or `None` when no
    /// configuration fits: the [`BitBuf`] builder of [`Bdi::encode_words`]'
    /// stream, kept as its scalar oracle.
    ///
    /// Layout: a 3-bit tag (0 = all-zero line, 1 = repeated 64-bit value,
    /// 2 + i = configuration `BdiConfig::ALL[i]`), followed by the base value
    /// and, for each element, a flag bit selecting the zero base plus the
    /// signed delta.
    pub fn encode_stream(&self, line: &MemoryLine) -> Option<BitBuf> {
        let bytes = line.to_bytes();
        let mut bits = BitBuf::new();
        let push_u = |bits: &mut BitBuf, v: u128, n: usize| {
            // Values are at most 64 bits wide (the largest base is 8 bytes).
            debug_assert!(n <= 64);
            bits.push_u64(v as u64, n);
        };
        if bytes.iter().all(|b| *b == 0) {
            push_u(&mut bits, 0, 3);
            return Some(bits);
        }
        if line.words().iter().all(|w| *w == line.word(0)) {
            push_u(&mut bits, 1, 3);
            push_u(&mut bits, u128::from(line.word(0)), 64);
            return Some(bits);
        }
        let (idx, cfg) = BdiConfig::ALL
            .iter()
            .enumerate()
            .filter(|(_, cfg)| Bdi::fits(line, **cfg))
            .min_by_key(|(_, cfg)| cfg.compressed_bits())?;
        push_u(&mut bits, 2 + idx as u128, 3);
        let elements = LINE_BYTES / cfg.base_bytes;
        let read = |i: usize| -> i128 {
            let mut v: u128 = 0;
            for b in 0..cfg.base_bytes {
                v |= u128::from(bytes[i * cfg.base_bytes + b]) << (8 * b);
            }
            let shift = 128 - cfg.base_bytes * 8;
            ((v << shift) as i128) >> shift
        };
        let limit: i128 = 1i128 << (cfg.delta_bytes * 8 - 1);
        let base = (0..elements).map(read).find(|v| !(*v >= -limit && *v < limit)).unwrap_or(0);
        push_u(&mut bits, base as u128, cfg.base_bytes * 8);
        for i in 0..elements {
            let v = read(i);
            let near_zero = v >= -limit && v < limit;
            bits.push(near_zero);
            let delta = if near_zero { v } else { v - base };
            push_u(&mut bits, delta as u128, cfg.delta_bytes * 8);
        }
        Some(bits)
    }

    /// Decodes a bit stream produced by [`Bdi::encode_stream`]. Trailing
    /// padding bits are ignored. The scalar oracle of [`Bdi::decode_words`].
    ///
    /// # Panics
    ///
    /// Panics if the stream is truncated or carries an unknown tag.
    pub fn decode_stream(&self, bits: &BitBuf) -> MemoryLine {
        let mut pos = 0usize;
        let read_u = |bits: &BitBuf, pos: &mut usize, n: usize| -> u128 {
            debug_assert!(n <= 64);
            let v = u128::from(bits.read_u64(*pos, n));
            *pos += n;
            v
        };
        let tag = read_u(bits, &mut pos, 3) as usize;
        if tag == 0 {
            return MemoryLine::ZERO;
        }
        if tag == 1 {
            let w = read_u(bits, &mut pos, 64) as u64;
            return MemoryLine::from_words([w; 8]);
        }
        let cfg = BdiConfig::ALL[tag - 2];
        let sign_extend = |v: u128, bytes: usize| -> i128 {
            let shift = 128 - bytes * 8;
            ((v << shift) as i128) >> shift
        };
        let base = sign_extend(read_u(bits, &mut pos, cfg.base_bytes * 8), cfg.base_bytes);
        let elements = LINE_BYTES / cfg.base_bytes;
        let mut out = [0u8; LINE_BYTES];
        for i in 0..elements {
            let near_zero = bits.get(pos);
            pos += 1;
            let delta = sign_extend(read_u(bits, &mut pos, cfg.delta_bytes * 8), cfg.delta_bytes);
            let value = if near_zero { delta } else { base + delta };
            for b in 0..cfg.base_bytes {
                out[i * cfg.base_bytes + b] = ((value as u128) >> (8 * b)) as u8;
            }
        }
        MemoryLine::from_bytes(&out)
    }
}

/// The low `bits` bits set.
#[inline]
fn low_mask(bits: usize) -> u64 {
    u64::MAX >> (64 - bits)
}

/// `value`'s low `bits` bits, sign-extended.
#[inline]
fn sign_extend(value: u64, bits: usize) -> i64 {
    ((value << (64 - bits)) as i64) >> (64 - bits)
}

/// Element `i` of the line under `cfg`: bytes `i·base..(i + 1)·base`,
/// little-endian and sign-extended.
#[inline]
fn element(line: &MemoryLine, cfg: BdiConfig, i: usize) -> i64 {
    let bits = cfg.base_bytes * 8;
    let bit = i * bits;
    sign_extend(line.word(bit / 64) >> (bit % 64), bits)
}

/// The base of the line under `cfg` (its first element outside the zero
/// base's delta range, or 0), if every element is within the delta range of
/// that base or of zero: [`Bdi::fits`] on line words.
fn base_of(line: &MemoryLine, cfg: BdiConfig) -> Option<i64> {
    let limit = 1i128 << (cfg.delta_bytes * 8 - 1);
    let mut base: Option<i64> = None;
    for i in 0..LINE_BYTES / cfg.base_bytes {
        let v = element(line, cfg, i);
        if (-limit..limit).contains(&i128::from(v)) {
            continue;
        }
        match base {
            None => base = Some(v),
            Some(b) if (-limit..limit).contains(&(i128::from(v) - i128::from(b))) => {}
            Some(_) => return None,
        }
    }
    Some(base.unwrap_or(0))
}

impl Compressor for Bdi {
    fn name(&self) -> &str {
        "BDI"
    }

    fn compressed_bits(&self, line: &MemoryLine) -> Option<usize> {
        Bdi::best_fit(line).map(|(_, bits)| bits).filter(|b| *b < LINE_BITS)
    }
}

/// The FPC+BDI composite used by DIN: the smaller of the two compressed sizes.
#[derive(Debug, Clone, Default)]
pub struct FpcBdi {
    fpc: crate::Fpc,
    bdi: Bdi,
}

impl FpcBdi {
    /// Creates the composite compressor.
    pub fn new() -> FpcBdi {
        FpcBdi { fpc: crate::Fpc::new(), bdi: Bdi::new() }
    }
}

impl Compressor for FpcBdi {
    fn name(&self) -> &str {
        "FPC+BDI"
    }

    fn compressed_bits(&self, line: &MemoryLine) -> Option<usize> {
        match (self.fpc.compressed_bits(line), self.bdi.compressed_bits(line)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_line_compresses_to_base_only() {
        let (cfg, bits) = Bdi::best_fit(&MemoryLine::ZERO).unwrap();
        assert_eq!(cfg.base_bytes, 8);
        assert!(bits <= 68);
    }

    #[test]
    fn pointer_array_fits_delta8() {
        // Array of nearby 64-bit pointers.
        let base = 0x0000_7FFF_A000_0000u64;
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, base + (i as u64) * 64);
        }
        assert!(Bdi::fits(&line, BdiConfig { base_bytes: 8, delta_bytes: 2 }));
        let bits = Bdi::new().compressed_bits(&line).unwrap();
        assert!(bits < 300, "bits = {bits}");
    }

    #[test]
    fn unrelated_values_do_not_fit_small_deltas() {
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, (i as u64 + 1).wrapping_mul(0x0123_4567_89AB_CDEF));
        }
        assert!(!Bdi::fits(&line, BdiConfig { base_bytes: 8, delta_bytes: 1 }));
        assert!(!Bdi::fits(&line, BdiConfig { base_bytes: 8, delta_bytes: 2 }));
    }

    #[test]
    fn small_int_array_uses_zero_base() {
        // 16-bit values near zero: every element is near the zero base.
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            let mut w = 0u64;
            for j in 0..4 {
                w |= ((i * 4 + j + 1) as u64 & 0x7F) << (16 * j);
            }
            line.set_word(i, w);
        }
        assert!(Bdi::fits(&line, BdiConfig { base_bytes: 2, delta_bytes: 1 }));
    }

    #[test]
    fn fpc_bdi_takes_the_better_of_the_two() {
        let composite = FpcBdi::new();
        let fpc = crate::Fpc::new();
        let bdi = Bdi::new();
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, 0x0000_7FFF_A000_0000 + (i as u64) * 8);
        }
        let best = composite.compressed_bits(&line).unwrap();
        let a = fpc.compressed_bits(&line);
        let b = bdi.compressed_bits(&line);
        assert_eq!(best, a.unwrap_or(usize::MAX).min(b.unwrap_or(usize::MAX)));
    }

    #[test]
    fn stream_round_trip_on_compressible_lines() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let bdi = Bdi::new();
        let mut rng = StdRng::seed_from_u64(41);
        let mut encoded = 0;
        for _ in 0..200 {
            let mut line = MemoryLine::ZERO;
            match rng.gen_range(0..4) {
                0 => {}
                1 => {
                    let v = rng.gen::<u64>();
                    for i in 0..8 {
                        line.set_word(i, v);
                    }
                }
                2 => {
                    let base = 0x0000_7FFF_0000_0000u64 | u64::from(rng.gen::<u16>()) << 12;
                    for i in 0..8 {
                        line.set_word(i, base + u64::from(rng.gen::<u8>()));
                    }
                }
                _ => {
                    for i in 0..8 {
                        line.set_word(i, u64::from(rng.gen::<u16>() & 0x7F));
                    }
                }
            }
            if let Some(stream) = bdi.encode_stream(&line) {
                encoded += 1;
                let mut padded = stream.clone();
                padded.extend([false; 11]);
                assert_eq!(bdi.decode_stream(&padded), line);
            }
        }
        assert!(encoded > 150, "most of these structured lines should encode");
    }

    #[test]
    fn incompressible_line_has_no_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let mut line = MemoryLine::ZERO;
        for i in 0..8 {
            line.set_word(i, rng.gen());
        }
        assert!(Bdi::new().encode_stream(&line).is_none());
    }

    #[test]
    fn config_sizes_are_sensible() {
        for cfg in BdiConfig::ALL {
            assert!(cfg.compressed_bits() < LINE_BITS);
        }
    }
}
