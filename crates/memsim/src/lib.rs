//! Trace-driven MLC PCM main-memory simulator.
//!
//! This crate ties the device model (`wlcrc-pcm`), the encoding schemes
//! (`wlcrc-coset`, `wlcrc`) and the synthetic workloads (`wlcrc-trace`)
//! together, replicating the methodology of the paper's evaluation:
//!
//! * every write transaction carries both the new value and the overwritten
//!   value; the simulator additionally tracks the *physically stored* cell
//!   states per line so that differential writes see exactly what a real
//!   array would contain;
//! * per write it accounts the programming energy (split into data and
//!   auxiliary cells), the number of updated cells (the endurance metric) and
//!   the expected/sampled write-disturbance errors;
//! * results are aggregated per scheme and per workload into
//!   [`stats::SchemeStats`], the structure every figure of the paper is
//!   derived from.
//!
//! The memory organisation of Table II (channels, DIMMs, banks) is modelled
//! in [`memory::MemoryOrganization`], which maps each address to the bank
//! lane that simulates it; it does not affect the energy metrics, matching
//! the paper.
//!
//! Simulation is *streaming*: the simulator consumes any
//! [`wlcrc_trace::TraceSource`] one record at a time and routes each write to
//! a per-bank lane (own stored state, statistics and RNG stream), so peak
//! memory is O(working-set) — never O(trace-length) — and the per-bank lanes
//! merge in a canonical bank order whatever the parallelism.
//!
//! Experiment grids (workload × scheme, under one config and one base seed)
//! are executed by the parallel sharded engine in [`engine`]: declare the
//! grid with [`engine::ExperimentPlan`], and the cells — and, within each
//! cell, the per-bank partitions of its trace — are spread over a scoped
//! worker pool (`WLCRC_THREADS`, `WLCRC_INTRA_SHARDS`) with bit-identical
//! results for any worker or shard count.
//!
//! Cell results can additionally be cached **across processes** in a
//! persistent content-addressed store (`WLCRC_STORE`, or
//! [`engine::ExperimentPlan::store`]): repeated figure/CI/bench runs of
//! identical cells are served from disk instead of re-simulated, with
//! byte-identical results for any hit/miss mix. The cache-key rules live in
//! [`cache`]; the generic store machinery in the `wlcrc_store` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod experiment;
pub mod memory;
pub mod simulator;
pub mod stats;

pub use cache::{CellKey, PlanKey, SIMULATOR_VERSION_SALT, STORE_SALT_ENV};
pub use engine::{
    cell_seed, grid_metrics, resolve_worker_count, scaled_workload_lines, workload_stream_seed,
    ClaimedRunReport, ExperimentPlan, GridMetrics, CLAIM_CRASH_EXIT_CODE, FAULT_CLAIM_CRASH,
    INTRA_SHARDS_ENV, STORE_ENV, STORE_READONLY_ENV, THREADS_ENV,
};
pub use experiment::{ExperimentResult, RunMetadata};
pub use memory::MemoryOrganization;
pub use simulator::{merge_bank_stats, BankStats, SimulationOptions, Simulator, SimulatorSession};
pub use stats::SchemeStats;
