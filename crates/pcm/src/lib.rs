//! MLC PCM device model used throughout the WLCRC reproduction.
//!
//! This crate models a 4-level-cell (MLC) phase-change memory at the level of
//! abstraction used by the paper *"Enabling Fine-Grain Restricted Coset Coding
//! Through Word-Level Compression for PCM"* (HPCA 2018):
//!
//! * [`state::CellState`] — the four programmable resistance states `S1..S4`,
//!   ordered by the energy required to program them.
//! * [`state::Symbol`] — a 2-bit data symbol (`00`, `01`, `10`, `11`).
//! * [`mapping::SymbolMapping`] — a bijection between symbols and states; the
//!   coset candidates of the paper are particular mappings.
//! * [`line::MemoryLine`] — a 512-bit memory line (eight 64-bit words).
//! * [`physical::PhysicalLine`] — the cell states actually stored in the
//!   array, including auxiliary cells, with a per-cell data/aux
//!   classification, held as bit planes.
//! * [`energy::EnergyModel`] — RESET + iterative-SET programming energy
//!   (Table II of the paper), configurable for the Figure 14 sensitivity study.
//! * [`kernel`] — the bit-parallel candidate-evaluation kernel: transition
//!   LUTs and plane-popcount block costs shared by every coset-style scheme.
//! * [`mod@write`] — differential write: only changed cells are programmed.
//! * [`disturb`] — the write-disturbance error model (per-state disturbance
//!   rates from Table II).
//! * [`codec::LineCodec`] — the interface every encoding scheme implements
//!   (baseline, FNW, FlipMin, DIN, n-cosets, WLCRC, ...).
//!
//! # Quick example
//!
//! ```
//! use wlcrc_pcm::prelude::*;
//!
//! let energy = EnergyModel::paper_default();
//! let old = PhysicalLine::all_reset(LINE_CELLS);
//! let line = MemoryLine::from_words([0xFFFF_0000_1234_5678; 8]);
//!
//! // Encode with the baseline codec (default mapping, differential write).
//! let codec = RawCodec::new();
//! let encoded = codec.encode(&line, &old, &energy);
//! let outcome = differential_write(&old, &encoded, &energy);
//! assert!(outcome.total_energy_pj() > 0.0);
//! assert_eq!(codec.decode(&encoded), line);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod disturb;
pub mod energy;
pub mod kernel;
pub mod line;
pub mod mapping;
pub mod physical;
pub mod state;
pub mod write;

/// Number of bits in a memory line.
pub const LINE_BITS: usize = 512;
/// Number of bytes in a memory line.
pub const LINE_BYTES: usize = LINE_BITS / 8;
/// Number of 64-bit words in a memory line.
pub const LINE_WORDS: usize = LINE_BITS / 64;
/// Number of 2-bit MLC cells needed to store the data bits of a memory line.
pub const LINE_CELLS: usize = LINE_BITS / 2;
/// Most cells a stored line may hold (data plus auxiliary cells). The
/// longest line any codec here stores is 6cosets at 8-bit granularity,
/// 384 cells.
pub const MAX_LINE_CELLS: usize = 512;
/// Number of cells used by one 64-bit word.
pub const WORD_CELLS: usize = 64 / 2;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::codec::{CodecError, LineCodec, RawCodec};
    pub use crate::config::PcmConfig;
    pub use crate::disturb::{DisturbanceModel, DisturbanceOutcome};
    pub use crate::energy::EnergyModel;
    pub use crate::kernel::{StatePlanes, SymbolPlanes, TransitionTable};
    pub use crate::line::MemoryLine;
    pub use crate::mapping::SymbolMapping;
    pub use crate::physical::{CellClass, PhysicalLine};
    pub use crate::state::{CellState, Symbol};
    pub use crate::write::{differential_write, WriteOutcome};
    pub use crate::{LINE_BITS, LINE_BYTES, LINE_CELLS, LINE_WORDS, MAX_LINE_CELLS, WORD_CELLS};
}
