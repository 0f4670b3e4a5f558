//! Unified observability for the WLCRC stack: tracing + metrics.
//!
//! This crate is deliberately zero-dependency and follows the
//! `wlcrc_faults` discipline: with no configuration the whole layer is
//! inert, and every instrumentation site costs a single relaxed atomic
//! load that the branch predictor learns immediately. Nothing here may
//! perturb simulated results or the codec hot path.
//!
//! Two halves:
//!
//! * [`trace`] — RAII spans and instant events, written as Chrome
//!   trace-event JSONL when the [`trace::TRACE_ENV`] (`WLCRC_TRACE`)
//!   environment variable names an output file. The file loads directly
//!   in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), so a
//!   whole `ExperimentPlan` run or gridrun worker becomes a flame chart.
//! * [`metrics`] + [`mod@registry`] — lock-free [`Counter`] / [`Gauge`] /
//!   [`Histogram`] primitives (fixed log-spaced buckets, p50/p90/p99
//!   extraction) and a process-global named registry that renders in
//!   Prometheus text format. The serve scrape endpoint, the store's
//!   read/write latency accounting, and the fault injector's fired
//!   counters all publish through it.
//!
//! [`check`] holds a minimal JSON parser and a trace-file validator used
//! by the `tracecheck` binary and CI's `obs-smoke` job; it lives here so
//! the trace *writer* and *checker* can never drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{registry, Registry};
pub use trace::{enabled, instant, span, span_with, Span, TRACE_ENV};
