//! Stable content fingerprints.
//!
//! A [`Fingerprint`] is a 128-bit FNV-1a hash of a value's wire encoding —
//! stable across processes, platforms and releases (it depends only on the
//! [`wire`] byte layout, never on `std`'s randomized hashers).
//! The store addresses entries by the fingerprint of their *key*: anything
//! that should invalidate a cached result (config, scheme, workload, seed,
//! simulator version salt) must be part of the key value, so a change in any
//! of it lands on a different address and stale results are simply never
//! found.

use crate::wire;
use serde::Value;
use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// A streaming 128-bit FNV-1a hasher.
///
/// Unlike `std::hash::Hasher` implementations, the output is a documented,
/// stable function of the input bytes — safe to persist in filenames.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl StableHasher {
    /// Creates a hasher in the standard FNV offset state.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV128_OFFSET }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) -> &mut StableHasher {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
        self
    }

    /// Absorbs a value through its wire encoding.
    pub fn update_value(&mut self, value: &Value) -> &mut StableHasher {
        self.update(&wire::encode(value))
    }

    /// Finishes the hash.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

/// A 128-bit content fingerprint, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The fingerprint of a value's wire encoding.
    pub fn of_value(value: &Value) -> Fingerprint {
        StableHasher::new().update_value(value).finish()
    }

    /// The fingerprint of raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        StableHasher::new().update(bytes).finish()
    }

    /// The 32-hex-digit rendering used in entry filenames.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a full 32-digit hex rendering.
    pub fn from_hex(hex: &str) -> Option<Fingerprint> {
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_across_calls() {
        let value = Value::record("K", vec![("a", Value::U64(7))]);
        assert_eq!(Fingerprint::of_value(&value), Fingerprint::of_value(&value));
    }

    #[test]
    fn any_field_change_moves_the_fingerprint() {
        let base = Value::record("K", vec![("a", Value::U64(7)), ("b", Value::F64(1.0))]);
        let variations = [
            Value::record("K2", vec![("a", Value::U64(7)), ("b", Value::F64(1.0))]),
            Value::record("K", vec![("a", Value::U64(8)), ("b", Value::F64(1.0))]),
            Value::record("K", vec![("a", Value::U64(7)), ("b", Value::F64(-1.0))]),
            Value::record("K", vec![("x", Value::U64(7)), ("b", Value::F64(1.0))]),
            Value::record("K", vec![("a", Value::U64(7))]),
        ];
        for variation in variations {
            assert_ne!(Fingerprint::of_value(&base), Fingerprint::of_value(&variation));
        }
    }

    #[test]
    fn hex_round_trips() {
        let fp = Fingerprint::of_bytes(b"wlcrc");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(&hex[..30]), None);
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(Fingerprint::of_bytes(b"").0, 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = StableHasher::new();
        h.update(b"ab").update(b"cd");
        assert_eq!(h.finish(), Fingerprint::of_bytes(b"abcd"));
    }
}
