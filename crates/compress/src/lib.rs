//! Memory-line compressors used by the WLCRC reproduction.
//!
//! Three families of compressors appear in the paper:
//!
//! * [`wlc::Wlc`] — the paper's own **Word-Level Compression**: a line is
//!   compressible when the `k` most-significant bits of all eight 64-bit
//!   words are identical, in which case `k − 1` bits per word are reclaimed
//!   in place to store auxiliary encoding bits.
//! * [`fpc::Fpc`] and [`bdi::Bdi`] — the classic FPC and Base-Delta-Immediate
//!   cache compressors; their combination (`FPC+BDI`) is the compressor DIN
//!   relies on (a line must shrink to ≤ 369 bits before DIN can encode it).
//! * [`coc::Coc`] — a coverage-oriented compressor modelled after Frugal-ECC's
//!   COC: many light-weight compressors are tried and the best one is kept,
//!   which compresses most lines a little but *repacks* bits and therefore
//!   destroys the bit-position locality that differential writes exploit.
//!
//! All compressors implement the [`Compressor`] trait, reporting whether a
//! line is compressible to a requested target size and producing the
//! compressed payload as an explicit bit layout so downstream codecs can
//! store it. The codecs' hot paths build those layouts as [`LineStream`]s,
//! fixed line words plus a bit length.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdi;
pub mod coc;
pub mod fpc;
pub mod stream;
pub mod wlc;

pub use bdi::Bdi;
pub use coc::Coc;
pub use fpc::Fpc;
pub use stream::LineStream;
pub use wlc::{Wlc, WlcCompressed};

use wlcrc_pcm::line::MemoryLine;

/// A memory-line compressor.
///
/// Compressors in this crate are *size oracles with witnesses*: they report
/// the compressed size of a line in bits and can produce the compressed bit
/// stream (together with enough information to decompress it).
pub trait Compressor {
    /// Human-readable compressor name used in reports.
    fn name(&self) -> &str;

    /// The size, in bits, of the compressed representation of `line`
    /// (including any metadata the decompressor needs), or `None` when the
    /// compressor cannot represent the line more compactly than 512 bits.
    fn compressed_bits(&self, line: &MemoryLine) -> Option<usize>;

    /// `true` when the line can be compressed to at most `target_bits` bits.
    fn compresses_to(&self, line: &MemoryLine, target_bits: usize) -> bool {
        self.compressed_bits(line).is_some_and(|b| b <= target_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Option<usize>);
    impl Compressor for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn compressed_bits(&self, _line: &MemoryLine) -> Option<usize> {
            self.0
        }
    }

    #[test]
    fn compresses_to_uses_reported_size() {
        let line = MemoryLine::ZERO;
        assert!(Fixed(Some(100)).compresses_to(&line, 100));
        assert!(!Fixed(Some(101)).compresses_to(&line, 100));
        assert!(!Fixed(None).compresses_to(&line, 512));
    }
}
