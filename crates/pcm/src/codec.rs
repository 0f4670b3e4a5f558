//! The [`LineCodec`] trait implemented by every encoding scheme, plus the
//! baseline codec (differential write with the default symbol mapping and no
//! auxiliary information).

use crate::energy::EnergyModel;
use crate::kernel::{self, TransitionTable};
use crate::line::MemoryLine;
use crate::mapping::SymbolMapping;
use crate::physical::PhysicalLine;
use crate::LINE_CELLS;
use std::fmt;

/// Error type returned by codecs that can fail to decode malformed content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    message: String,
}

impl CodecError {
    /// Creates a codec error with a descriptive message.
    pub fn new(message: impl Into<String>) -> CodecError {
        CodecError { message: message.into() }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// A memory-line encoding scheme.
///
/// Every scheme in this workspace (baseline, Flip-N-Write, FlipMin, DIN,
/// n-cosets, WLC-based schemes, WLCRC) implements this trait. An encoder is
/// given the data to store and the currently stored physical content of the
/// line (so that it can minimise the differential-write cost), and produces
/// the new physical content, including any auxiliary cells.
///
/// Invariants every implementation must uphold:
///
/// * `encode` always returns a line of exactly [`LineCodec::encoded_cells`] cells;
/// * `decode(encode(data, old)) == data` for every `data` and every well-formed
///   `old` produced by the same codec (lossless round trip);
/// * the codec never relies on the *data* content of `old`, only on its cell
///   states (it is what is physically stored, possibly from a different write).
///
/// Codecs are `Send + Sync`: `encode`/`decode` take `&self` and must not rely
/// on interior mutability, so one codec instance can be shared by the
/// parallel experiment engine's worker threads (`wlcrc_memsim`'s
/// `ExperimentPlan`) or rebuilt cheaply per worker.
pub trait LineCodec: Send + Sync {
    /// Human-readable scheme name used in reports ("WLCRC-16", "6cosets", ...).
    fn name(&self) -> &str;

    /// Number of cells (data + auxiliary) occupied by an encoded line.
    fn encoded_cells(&self) -> usize;

    /// Encodes `data`, choosing the encoding that minimises the differential
    /// write cost with respect to the stored content `old`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `old.len() != self.encoded_cells()`.
    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine;

    /// Decodes a stored physical line back into the data it represents.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `stored.len() != self.encoded_cells()`.
    fn decode(&self, stored: &PhysicalLine) -> MemoryLine;

    /// A line of `encoded_cells` cells representing a freshly initialised
    /// (all-RESET) line; used by simulators for the first write to an address.
    fn initial_line(&self) -> PhysicalLine {
        PhysicalLine::all_reset(self.encoded_cells())
    }

    /// Encodes a batch of independent `(data, old)` jobs, returning one
    /// encoded line per job in order.
    ///
    /// The default simply calls [`LineCodec::encode`] per job, so every codec
    /// gets the API for free and batching is always byte-identical to
    /// one-at-a-time encoding. Kernelised codecs override this to build their
    /// per-energy transition tables once per batch instead of once per line,
    /// which is where the amortisation the batched write paths
    /// (`SimulatorSession::write_batch`, the serve lanes) rely on comes from.
    fn encode_batch(
        &self,
        jobs: &[(&MemoryLine, &PhysicalLine)],
        energy: &EnergyModel,
    ) -> Vec<PhysicalLine> {
        jobs.iter().map(|&(data, old)| self.encode(data, old, energy)).collect()
    }
}

/// The baseline scheme: the 512 data bits are stored through the default
/// symbol-to-state mapping with differential write and no auxiliary cells.
#[derive(Debug, Clone)]
pub struct RawCodec {
    mapping: SymbolMapping,
    name: String,
}

impl RawCodec {
    /// Creates the baseline codec with the paper's default mapping.
    pub fn new() -> RawCodec {
        RawCodec::with_mapping(SymbolMapping::default_mapping())
    }

    /// Creates a baseline codec that uses a custom fixed symbol mapping.
    pub fn with_mapping(mapping: SymbolMapping) -> RawCodec {
        RawCodec { mapping, name: "Baseline".to_string() }
    }

    /// The fixed mapping used by this codec.
    pub fn mapping(&self) -> SymbolMapping {
        self.mapping
    }
}

impl Default for RawCodec {
    fn default() -> RawCodec {
        RawCodec::new()
    }
}

impl LineCodec for RawCodec {
    fn name(&self) -> &str {
        &self.name
    }

    fn encoded_cells(&self) -> usize {
        LINE_CELLS
    }

    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = PhysicalLine::all_reset(LINE_CELLS);
        kernel::store_mapped(data, &TransitionTable::new(&self.mapping, energy), &mut out);
        out
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        kernel::load_mapped(stored, &self.mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::CellClass;
    use crate::state::CellState;

    #[test]
    fn raw_codec_round_trips() {
        let codec = RawCodec::new();
        let e = EnergyModel::paper_default();
        let old = codec.initial_line();
        let data = MemoryLine::from_words([0xDEAD_BEEF_0123_4567; 8]);
        let enc = codec.encode(&data, &old, &e);
        assert_eq!(enc.len(), LINE_CELLS);
        assert_eq!(codec.decode(&enc), data);
    }

    #[test]
    fn raw_codec_has_no_aux_cells() {
        let codec = RawCodec::new();
        let e = EnergyModel::paper_default();
        let enc = codec.encode(&MemoryLine::ZERO, &codec.initial_line(), &e);
        assert_eq!(enc.aux_cells(), 0);
    }

    #[test]
    fn zero_line_maps_to_all_s1() {
        let codec = RawCodec::new();
        let e = EnergyModel::paper_default();
        let enc = codec.encode(&MemoryLine::ZERO, &codec.initial_line(), &e);
        assert!(enc.states().iter().all(|s| *s == CellState::S1));
    }

    #[test]
    fn all_ones_line_maps_to_all_s3() {
        let codec = RawCodec::new();
        let e = EnergyModel::paper_default();
        let enc = codec.encode(&MemoryLine::ZERO.complement(), &codec.initial_line(), &e);
        assert!(enc.states().iter().all(|s| *s == CellState::S3));
    }

    #[test]
    fn map_line_matches_raw_encode() {
        let codec = RawCodec::new();
        let e = EnergyModel::paper_default();
        let data = MemoryLine::from_words([0x0123_4567_89AB_CDEF; 8]);
        let enc = codec.encode(&data, &codec.initial_line(), &e);
        let mapping = SymbolMapping::default_mapping();
        for cell in 0..LINE_CELLS {
            assert_eq!(enc.state(cell), mapping.state_of(data.symbol(cell)), "cell {cell}");
            assert_eq!(enc.class(cell), CellClass::Data);
        }
    }

    #[test]
    fn codec_error_display() {
        let err = CodecError::new("bad flag symbol");
        assert!(err.to_string().contains("bad flag symbol"));
    }
}
