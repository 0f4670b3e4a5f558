//! Umbrella crate of the WLCRC reproduction workspace.
//!
//! This crate is the single public entry point: it re-exports the member
//! crates under stable module names **and** flattens the user-facing surface
//! into the root, so that `use wlcrc_repro::{...}` alone is enough for every
//! example and downstream user. (The ROADMAP refers to this facade as
//! `wlcrc::Error` etc.; the *package* published from this repo is
//! `wlcrc_repro` — the bare `wlcrc` name is taken by the inner crate holding
//! the paper's codec.)
//!
//! * [`pcm`] — MLC PCM device model (cells, energy, differential write,
//!   disturbance).
//! * [`ecc`] — BCH / Hamming substrates.
//! * [`compress`] — WLC, FPC, BDI and COC compressors.
//! * [`coset`] — coset-coding schemes (3/4/6cosets, restricted, FNW, FlipMin,
//!   DIN).
//! * [`wlcrc`] — the paper's contribution: WLC-integrated restricted coset
//!   coding, plus the scheme registry and the hardware-overhead model.
//! * [`trace`] — synthetic SPEC/PARSEC-like write-trace generation.
//! * [`store`] — the persistent content-addressed result store.
//! * [`memsim`] — the trace-driven simulator and statistics.
//! * [`obs`] — env-gated tracing spans and the lock-free metrics registry
//!   (`WLCRC_TRACE=<file>` records a Chrome trace of any run).
//! * [`serve`] — the long-lived memory-service front-end (sessions over a
//!   framed wire protocol, with backpressure and live metrics).
//!
//! ```
//! use wlcrc_repro::{EnergyModel, LineCodec, MemoryLine, WlcCosetCodec};
//!
//! let codec = WlcCosetCodec::wlcrc16();
//! let energy = EnergyModel::paper_default();
//! let data = MemoryLine::from_words([42; 8]);
//! let encoded = codec.encode(&data, &codec.initial_line(), &energy);
//! assert_eq!(codec.decode(&encoded), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wlcrc;
pub use wlcrc_compress as compress;
pub use wlcrc_coset as coset;
pub use wlcrc_ecc as ecc;
pub use wlcrc_memsim as memsim;
pub use wlcrc_obs as obs;
pub use wlcrc_pcm as pcm;
pub use wlcrc_serve as serve;
pub use wlcrc_store as store;
pub use wlcrc_trace as trace;

// ---------------------------------------------------------------------------
// Flat re-exports: the user-facing surface of the workspace.
//
// Everything an example or downstream binary needs is importable from the
// root; the module aliases above remain for the long tail (ECC substrates,
// kernel internals, wire primitives).
// ---------------------------------------------------------------------------

pub use wlcrc::schemes::{standard_factories, standard_schemes, CodecFactory, SchemeId};
pub use wlcrc::{CocCosetCodec, CosetPolicy, MultiObjectiveConfig, WlcCosetCodec, WordLayout};
pub use wlcrc_compress::{Bdi, Coc, Compressor, Fpc, Wlc};
pub use wlcrc_memsim::{
    cell_seed, merge_bank_stats, scaled_workload_lines, workload_stream_seed, BankStats,
    ExperimentPlan, ExperimentResult, MemoryOrganization, RunMetadata, SchemeStats,
    SimulationOptions, Simulator, SimulatorSession,
};
pub use wlcrc_pcm::codec::{CodecError, LineCodec, RawCodec};
pub use wlcrc_pcm::config::PcmConfig;
pub use wlcrc_pcm::disturb::{evaluate_disturbance, DisturbanceModel, DisturbanceOutcome};
pub use wlcrc_pcm::energy::EnergyModel;
pub use wlcrc_pcm::line::MemoryLine;
pub use wlcrc_pcm::physical::PhysicalLine;
pub use wlcrc_pcm::state::{CellState, Symbol};
pub use wlcrc_pcm::write::{differential_write, WriteOutcome};
pub use wlcrc_serve::{
    scrape_value, RunningServer, ServeClient, ServeError, Server, ServerConfig, WriteReport,
};
pub use wlcrc_store::{Fingerprint, ResultStore, StableHasher, StoreError, WireError};
pub use wlcrc_trace::{
    Benchmark, IntensityClass, Trace, TraceGenerator, TraceSource, TraceStream, WorkloadProfile,
    WriteRecord,
};

/// Unified error type for the whole workspace.
///
/// Each member crate keeps its own narrow error type (codec validation,
/// store I/O, wire framing, serving); this type wraps them all with `From`
/// conversions so that application code can use a single
/// `Result<_, wlcrc_repro::Error>` and `?` across crate boundaries.
#[derive(Debug)]
pub enum Error {
    /// A codec rejected its input (line-size mismatch, undecodable line…).
    Codec(CodecError),
    /// The persistent result store failed (I/O, corruption, format drift).
    Store(StoreError),
    /// A serialized value could not be encoded or decoded.
    Wire(WireError),
    /// The memory service failed (connection, protocol, remote error).
    Serve(ServeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Codec(e) => write!(f, "codec error: {e}"),
            Error::Store(e) => write!(f, "store error: {e}"),
            Error::Wire(e) => write!(f, "wire error: {e}"),
            Error::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Codec(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::Serve(e) => Some(e),
        }
    }
}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Self {
        Error::Codec(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        Error::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_error_wraps_every_member_error() {
        let errors: Vec<Error> = vec![
            CodecError::new("bad flag symbol").into(),
            StoreError::ChecksumMismatch.into(),
            WireError::Truncated.into(),
            ServeError::UnknownSession(7).into(),
        ];
        for error in errors {
            // Display is non-empty and source() chains to the wrapped error.
            assert!(!error.to_string().is_empty());
            assert!(std::error::Error::source(&error).is_some());
        }
    }

    #[test]
    fn question_mark_converts_across_crates() {
        fn codec_path() -> Result<(), Error> {
            Err(CodecError::new("line size"))?
        }
        fn serve_path() -> Result<(), Error> {
            Err(ServeError::ShuttingDown)?
        }
        assert!(matches!(codec_path(), Err(Error::Codec(_))));
        assert!(matches!(serve_path(), Err(Error::Serve(_))));
    }
}
