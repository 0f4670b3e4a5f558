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
///
/// A codec's transition tables depend only on the energy model, so code
/// that encodes many lines under one model — the simulator's lanes, a
/// served session — asks for a prepared [`LineEncoder`] once through
/// [`LineCodec::encoder`] instead of calling [`LineCodec::encode`] per line.
/// Both run the codec's one encode body (see [`TableCodec`]), so they
/// produce the same bytes.
pub trait LineCodec: Send + Sync {
    /// Human-readable scheme name used in reports ("WLCRC-16", "6cosets", ...).
    fn name(&self) -> &str;

    /// Number of cells (data + auxiliary) occupied by an encoded line.
    fn encoded_cells(&self) -> usize;

    /// Encodes `data`, choosing the encoding that minimises the differential
    /// write cost with respect to the stored content `old`. Builds the
    /// codec's transition tables for `energy` on every call.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `old.len() != self.encoded_cells()`.
    fn encode(&self, data: &MemoryLine, old: &PhysicalLine, energy: &EnergyModel) -> PhysicalLine;

    /// This codec prepared for `energy`: its transition tables built once.
    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder>;

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
}

/// A codec prepared for one energy model by [`LineCodec::encoder`].
///
/// `Send`, so a session holding one can be drained on any thread.
pub trait LineEncoder: Send {
    /// Encodes `data` over the stored `old`: the same line
    /// [`LineCodec::encode`] returns under the encoder's energy model.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `old` does not have the codec's
    /// [`LineCodec::encoded_cells`] cells.
    fn encode(&self, data: &MemoryLine, old: &PhysicalLine) -> PhysicalLine;
}

/// A codec whose encode splits into what it derives from the energy model
/// alone ([`TableCodec::tables`]) and its one encode body
/// ([`TableCodec::encode_with`]); [`prepare`] builds its [`LineEncoder`].
/// Its [`LineCodec::encode`] runs the same body with tables built for the
/// call. A codec with several line formats may pick the format first and
/// build only that format's tables, as long as it then runs the same
/// per-format code.
pub trait TableCodec: LineCodec + Clone + 'static {
    /// The transition tables (and whatever else) an encode derives from the
    /// energy model.
    type Tables: Send + 'static;

    /// Builds the tables for `energy`.
    fn tables(&self, energy: &EnergyModel) -> Self::Tables;

    /// The encode body: encodes `data` over `old` with prebuilt `tables`.
    fn encode_with(
        &self,
        tables: &Self::Tables,
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine;
}

/// The [`LineEncoder`] of a [`TableCodec`]: its own copy of the codec and
/// the tables for one energy model.
struct Prepared<C: TableCodec> {
    codec: C,
    tables: C::Tables,
}

impl<C: TableCodec> LineEncoder for Prepared<C> {
    fn encode(&self, data: &MemoryLine, old: &PhysicalLine) -> PhysicalLine {
        self.codec.encode_with(&self.tables, data, old)
    }
}

/// Builds the [`LineEncoder`] of `codec` under `energy`: what every
/// [`LineCodec::encoder`] returns. The encoder owns a copy of the codec, so
/// it outlives the borrow it was built from.
pub fn prepare<C: TableCodec>(codec: &C, energy: &EnergyModel) -> Box<dyn LineEncoder> {
    Box::new(Prepared { codec: codec.clone(), tables: codec.tables(energy) })
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
        self.encode_with(&self.tables(energy), data, old)
    }

    fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
        prepare(self, energy)
    }

    fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
        assert_eq!(stored.len(), self.encoded_cells());
        kernel::load_mapped(stored, &self.mapping)
    }
}

impl TableCodec for RawCodec {
    type Tables = TransitionTable;

    fn tables(&self, energy: &EnergyModel) -> TransitionTable {
        TransitionTable::new(&self.mapping, energy)
    }

    fn encode_with(
        &self,
        table: &TransitionTable,
        data: &MemoryLine,
        old: &PhysicalLine,
    ) -> PhysicalLine {
        assert_eq!(old.len(), self.encoded_cells());
        let mut out = PhysicalLine::all_reset(LINE_CELLS);
        kernel::store_mapped(data, table, &mut out);
        out
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
        assert!(enc.iter().all(|(_, s, _)| s == CellState::S1));
    }

    #[test]
    fn all_ones_line_maps_to_all_s3() {
        let codec = RawCodec::new();
        let e = EnergyModel::paper_default();
        let enc = codec.encode(&MemoryLine::ZERO.complement(), &codec.initial_line(), &e);
        assert!(enc.iter().all(|(_, s, _)| s == CellState::S3));
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
