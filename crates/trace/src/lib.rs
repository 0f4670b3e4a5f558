//! Synthetic write traces for the WLCRC reproduction.
//!
//! The paper evaluates on memory write traces collected with Simics while
//! running twelve write-intensive SPEC CPU2006 benchmarks plus `canneal` from
//! PARSEC. Those traces are not redistributable, so this crate substitutes
//! *synthetic trace generators*: each benchmark is described by a
//! [`profile::WorkloadProfile`] that captures the statistics the encoding
//! schemes are sensitive to —
//!
//! * the mix of line content classes (zero lines, small signed integers,
//!   pointer arrays, doubles, ASCII text, random payloads), which determines
//!   symbol-frequency bias and Word-Level-Compression coverage;
//! * temporal locality (how similar a rewritten line is to the value it
//!   overwrites), which determines how effective differential writes are;
//! * memory intensity (relative number of line writes), which separates the
//!   high-memory-intensity (HMI) and low-memory-intensity (LMI) groups.
//!
//! [`generator::TraceGenerator`] turns a profile into a stream of
//! [`record::WriteRecord`]s carrying both the value to be written and the
//! value being overwritten, exactly the information the paper's traces store.
//!
//! Traces are consumed through the [`source::TraceSource`] streaming
//! abstraction: a bounded iterator of records labelled with its workload.
//! [`source::TraceStream`] generates records lazily in O(working-set) memory;
//! [`record::Trace`] is the materialised form ([`record::Trace::source`]),
//! which the experiment engine builds once per (workload, seed) and shares
//! across schemes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod generator;
pub mod profile;
pub mod record;
pub mod source;

pub use generator::{RandomTraceGenerator, TraceGenerator};
pub use profile::{Benchmark, IntensityClass, WorkloadProfile};
pub use record::{Trace, WriteRecord};
pub use source::{IntoTraceSource, TraceRecords, TraceSource, TraceStream};
