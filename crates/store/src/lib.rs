//! `wlcrc_store` — a persistent, content-addressed result store.
//!
//! The experiment engine (`wlcrc_memsim::ExperimentPlan`) simulates grids of
//! (scheme × workload × config × seed) cells whose results are pure
//! functions of their inputs. This crate caches those results *across
//! processes*: a cell's inputs are serialized into a self-describing key
//! [`Value`](serde::Value), hashed to a stable 128-bit [`Fingerprint`], and
//! the cell's result is stored in a file addressed by that fingerprint. Any
//! later run — another figure binary, a CI job, a perfsnap — that derives
//! the same key is served the recorded result instead of re-simulating.
//!
//! The crate is deliberately generic: it stores [`Value`](serde::Value)
//! trees, not simulator types, so it sits below `wlcrc_trace`/`wlcrc_memsim`
//! in the dependency graph and `storectl` can inspect any entry without the
//! producing code. The typed layer (cell keys, `SchemeStats` payloads) lives
//! in `wlcrc_memsim::cache`.
//!
//! Module map:
//!
//! * [`wire`] — the versioned, self-describing byte format (bit-exact f64s,
//!   corruption-tolerant decoding);
//! * [`fingerprint`] — stable FNV-1a-128 content hashing;
//! * [`store`] — the on-disk store: atomic writes, validated reads, hit
//!   journal (timestamped + self-compacting), list/evict/verify, LRU
//!   eviction, corrupt-entry quarantine + `fsck` repair, and the locked
//!   claim files multi-process grid runners coordinate through. Fault sites
//!   ([`store::FAULT_TORN_WRITE`], [`store::FAULT_READ_CORRUPT`]) let chaos
//!   tests inject torn writes and media corruption deterministically via
//!   `wlcrc_faults`;
//! * [`mod@metrics`] — read/write/hit/miss/evict/quarantine counters and
//!   read/write latency histograms, published through the process-global
//!   `wlcrc_obs` registry (scraped by serve, printed by
//!   `storectl stats --latency`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod metrics;
pub mod store;
pub mod wire;

pub use fingerprint::{Fingerprint, StableHasher};
pub use metrics::{metrics, StoreMetrics};
pub use store::{
    parse_byte_size, readonly_from_env, Claim, Entry, EntryInfo, FsckReport, ResultStore,
    StoreError, VerifyReport, FAULT_READ_CORRUPT, FAULT_TORN_WRITE, FORMAT_VERSION,
    HITS_COMPACT_THRESHOLD, STORE_ENV, STORE_READONLY_ENV,
};
pub use wire::{WireError, WIRE_VERSION};
