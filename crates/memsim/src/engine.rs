//! The parallel sharded experiment engine.
//!
//! [`ExperimentPlan`] declares a grid of experiment cells — every
//! *workload × scheme* pair under one [`PcmConfig`] and one base seed — and
//! executes them on a pool of scoped worker threads. The paper's evaluation
//! (and every figure binary in this workspace) is exactly this shape: a
//! large set of mutually independent simulations whose results land in grid
//! order. A study that varies the configuration (Figure 14's energy models)
//! runs one plan per configuration.
//!
//! # One cell pipeline
//!
//! [`ExperimentPlan::run`] and [`ExperimentPlan::run_grid_claimed`] are
//! thin wrappers over one pipeline. A preamble resolves the store, derives
//! the cell keys and probes the plan-level cache. Then a pool of workers
//! takes each cell through the same steps: serve it from the store;
//! otherwise claim it (claimed runs with a writable store only), simulate
//! its intra-trace shards, and save it, which releases the claim. Finally
//! the cells move into the result in grid order.
//!
//! A workload is either a profile ([`ExperimentPlan::workload`]) or a
//! trace ([`ExperimentPlan::trace`]). Each profile's trace is built once
//! per run, on first use, by draining a [`TraceStream`]; given traces are
//! used as they are. Every scheme and shard that needs a trace replays that
//! one [`Trace`], so a run holds its traces in memory; [`Simulator::run`]
//! and [`SimulatorSession`](crate::simulator::SimulatorSession) still
//! stream.
//!
//! # Intra-trace (per-bank) sharding
//!
//! Besides sharding the grid across cells, the engine shards *within* each
//! trace: records partition by [`MemoryOrganization::bank_index`] (writes to
//! different banks are independent in the cost model), each bank-partition
//! shard replays the cell's trace and simulates only the banks with
//! `bank % shards == shard`, and the per-bank statistics merge in ascending
//! bank order. The shard count comes from
//! [`ExperimentPlan::intra_trace_shards`], the `WLCRC_INTRA_SHARDS`
//! environment variable, or a policy that uses spare workers when the grid
//! has fewer cells than the pool — and never affects any result, so a single
//! huge workload can use the whole machine.
//!
//! [`MemoryOrganization::bank_index`]: crate::memory::MemoryOrganization::bank_index
//!
//! # Persistent result store (cross-run caching)
//!
//! When a store is configured — [`ExperimentPlan::store`], or the
//! `WLCRC_STORE` environment variable — every cell first consults an
//! on-disk content-addressed cache (`wlcrc_store`): the cell's full identity
//! (simulator version salt, scheme label + behavioral codec fingerprint,
//! workload identity, config + geometry, seeds, simulation options; see
//! [`crate::cache`]) is hashed into the entry address, hits skip simulation
//! entirely, and misses are written back atomically as soon as they are
//! simulated. `WLCRC_STORE_READONLY` serves hits without writing. Results
//! are **byte-identical with the store disabled, cold, warm, or partially
//! warm** — worker count and shard count are excluded from the key for the
//! same reason they cannot affect results. Bumping the version salt
//! ([`crate::cache::SIMULATOR_VERSION_SALT`]) makes every old entry
//! unreachable, forcing recomputation after simulator-behaviour changes. A
//! profile workload is keyed by its profile, stream seed and scaled length,
//! a given trace by its content digest.
//!
//! # Determinism guarantee
//!
//! Results are **bit-identical for any worker count and shard count**.
//! Three rules make that hold:
//!
//! 1. every cell derives its disturbance-sampling seed purely from
//!    `(base seed, scheme label, workload name)`, and every bank lane
//!    derives its RNG stream from `(cell seed, bank index)` — never from
//!    thread identity, scheduling order or shard count;
//! 2. traces are deterministic: a cell's trace derives only from the base
//!    seed and the workload, and every scheme and every shard replays that
//!    one trace (comparisons stay paired, exactly as in the paper);
//! 3. per-bank partials merge in ascending bank order, and each cell result
//!    lands in the slot of its grid position, so no floating-point sum ever
//!    depends on which worker finished first. Cells are never merged with
//!    each other.
//!
//! # Worker count
//!
//! The pool size is taken from, in order: an explicit
//! [`ExperimentPlan::threads`] override, the `WLCRC_THREADS` environment
//! variable, and finally [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use wlcrc_memsim::ExperimentPlan;
//! use wlcrc_pcm::codec::RawCodec;
//! use wlcrc_trace::Benchmark;
//!
//! let result = ExperimentPlan::new()
//!     .seed(7)
//!     .lines_per_workload(50)
//!     .workload(Benchmark::Gcc.profile())
//!     .workload(Benchmark::Mcf.profile())
//!     .scheme("Baseline", || Box::new(RawCodec::new()))
//!     .run();
//! assert_eq!(result.cells.len(), 2);
//! ```

use crate::cache::{self, CellKey, PlanKey, WorkloadIdentity};
use crate::experiment::{ExperimentResult, RunMetadata};
use crate::simulator::{merge_bank_stats, SimulationOptions, Simulator};
use crate::stats::SchemeStats;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use wlcrc_pcm::codec::LineCodec;
use wlcrc_pcm::config::PcmConfig;
use wlcrc_store::{Claim, Fingerprint, ResultStore, StoreError};
use wlcrc_trace::{Trace, TraceSource, TraceStream, WorkloadProfile};

/// Environment variable overriding the worker-pool size (a positive integer).
pub const THREADS_ENV: &str = "WLCRC_THREADS";

/// Environment variable naming the persistent result-store directory
/// (re-exported from `wlcrc_store`); when set, every plan caches cell
/// results there unless it opts out.
pub const STORE_ENV: &str = wlcrc_store::STORE_ENV;

/// Environment variable marking the result store read-only (re-exported from
/// `wlcrc_store`).
pub const STORE_READONLY_ENV: &str = wlcrc_store::STORE_READONLY_ENV;

/// Environment variable overriding the intra-trace (per-bank) shard count
/// per cell (a positive integer). Results are byte-identical for any value.
pub const INTRA_SHARDS_ENV: &str = "WLCRC_INTRA_SHARDS";

type CodecFactoryFn = Arc<dyn Fn() -> Box<dyn LineCodec> + Send + Sync>;

/// A workload axis entry: a profile the plan generates a trace from (scaled
/// by write intensity, like the paper's `Ave.` weighting), or a
/// caller-provided trace replayed verbatim.
enum WorkloadSource {
    Profile(WorkloadProfile),
    Trace(Arc<Trace>),
}

impl WorkloadSource {
    /// The workload name used for result labels and cell-seed derivation.
    fn name(&self) -> &str {
        match self {
            WorkloadSource::Profile(profile) => &profile.name,
            WorkloadSource::Trace(trace) => &trace.workload,
        }
    }
}

/// Declarative description of an experiment grid, executed by a worker pool.
///
/// See the [module documentation](self) for the determinism rules. Build a
/// plan with the chained setters, then call [`ExperimentPlan::run`].
pub struct ExperimentPlan {
    schemes: Vec<(String, CodecFactoryFn)>,
    workloads: Vec<WorkloadSource>,
    config: PcmConfig,
    seed: u64,
    lines_per_workload: usize,
    verify_integrity: bool,
    isolated: bool,
    threads: Option<usize>,
    intra_shards: Option<usize>,
    store_path: Option<PathBuf>,
    store_enabled: bool,
    store_readonly: Option<bool>,
    store_salt: Option<String>,
    plan_cache: bool,
    /// Traces built by [`ExperimentPlan::build_trace`], counted for tests.
    #[cfg(test)]
    trace_builds: AtomicUsize,
}

impl Default for ExperimentPlan {
    fn default() -> ExperimentPlan {
        ExperimentPlan::new()
    }
}

impl ExperimentPlan {
    /// Creates an empty plan: Table II config, seed 0, 1000 lines per
    /// workload, integrity verification on.
    pub fn new() -> ExperimentPlan {
        ExperimentPlan {
            schemes: Vec::new(),
            workloads: Vec::new(),
            config: PcmConfig::table_ii(),
            seed: 0,
            lines_per_workload: 1000,
            verify_integrity: true,
            isolated: false,
            threads: None,
            intra_shards: None,
            store_path: None,
            store_enabled: true,
            store_readonly: None,
            store_salt: None,
            plan_cache: true,
            #[cfg(test)]
            trace_builds: AtomicUsize::new(0),
        }
    }

    /// Adds a scheme built per worker by `factory` (each worker owns its
    /// codec; construction must be cheap and deterministic).
    pub fn scheme<F>(mut self, label: impl Into<String>, factory: F) -> ExperimentPlan
    where
        F: Fn() -> Box<dyn LineCodec> + Send + Sync + 'static,
    {
        self.schemes.push((label.into(), Arc::new(factory)));
        self
    }

    /// Adds a scheme built per worker by an already-shared factory, e.g. a
    /// `CodecFactory` from `wlcrc::schemes::standard_factories` — no
    /// re-wrapping closure needed.
    pub fn scheme_factory(
        mut self,
        label: impl Into<String>,
        factory: Arc<dyn Fn() -> Box<dyn LineCodec> + Send + Sync>,
    ) -> ExperimentPlan {
        self.schemes.push((label.into(), factory));
        self
    }

    /// Adds a workload profile; the plan generates its trace (scaled by
    /// relative write intensity like the paper's grids).
    pub fn workload(mut self, profile: WorkloadProfile) -> ExperimentPlan {
        self.workloads.push(WorkloadSource::Profile(profile));
        self
    }

    /// Adds several workload profiles.
    pub fn workloads(
        mut self,
        profiles: impl IntoIterator<Item = WorkloadProfile>,
    ) -> ExperimentPlan {
        for profile in profiles {
            self.workloads.push(WorkloadSource::Profile(profile));
        }
        self
    }

    /// Adds a pre-generated trace, replayed verbatim (no intensity scaling).
    pub fn trace(mut self, trace: Arc<Trace>) -> ExperimentPlan {
        self.workloads.push(WorkloadSource::Trace(trace));
        self
    }

    /// Adds several pre-generated traces.
    pub fn traces(mut self, traces: impl IntoIterator<Item = Arc<Trace>>) -> ExperimentPlan {
        for trace in traces {
            self.workloads.push(WorkloadSource::Trace(trace));
        }
        self
    }

    /// Sets the PCM configuration every cell of the grid runs under.
    pub fn config(mut self, config: PcmConfig) -> ExperimentPlan {
        self.config = config;
        self
    }

    /// Sets the base seed every cell's trace and disturbance seed derive
    /// from.
    pub fn seed(mut self, seed: u64) -> ExperimentPlan {
        self.seed = seed;
        self
    }

    /// Sets the unscaled trace length per profile workload.
    pub fn lines_per_workload(mut self, lines: usize) -> ExperimentPlan {
        self.lines_per_workload = lines;
        self
    }

    /// Enables or disables decode-vs-original integrity verification.
    pub fn verify_integrity(mut self, verify: bool) -> ExperimentPlan {
        self.verify_integrity = verify;
        self
    }

    /// When `true`, records are simulated without address tracking (each
    /// write is differenced against its record's encoded old value), like the
    /// random-data studies of Figures 1 and 2.
    pub fn isolated(mut self, isolated: bool) -> ExperimentPlan {
        self.isolated = isolated;
        self
    }

    /// Overrides the worker count (otherwise `WLCRC_THREADS`, otherwise
    /// [`std::thread::available_parallelism`]).
    pub fn threads(mut self, workers: usize) -> ExperimentPlan {
        self.threads = Some(workers);
        self
    }

    /// Overrides the intra-trace (per-bank) shard count per cell (otherwise
    /// `WLCRC_INTRA_SHARDS`, otherwise spare-worker policy). Results are
    /// byte-identical for any value; more shards let one huge trace use more
    /// cores at the cost of replaying it once per shard.
    pub fn intra_trace_shards(mut self, shards: usize) -> ExperimentPlan {
        self.intra_shards = Some(shards);
        self
    }

    /// Caches cell results in the persistent store at `path` (see
    /// [`crate::cache`] for what addresses a cell), and turns the store on.
    /// Without this call the plan still honours the `WLCRC_STORE`
    /// environment variable; use [`ExperimentPlan::store_enabled`]`(false)`
    /// to opt out entirely.
    ///
    /// The cache never changes results: hits are byte-identical to
    /// recomputation for any worker count, shard count and hit/miss mix.
    pub fn store(mut self, path: impl Into<PathBuf>) -> ExperimentPlan {
        self.store_path = Some(path.into());
        self.store_enabled = true;
        self
    }

    /// Enables or disables the persistent result store, uniformly with the
    /// plan's other boolean knobs ([`ExperimentPlan::verify_integrity`],
    /// [`ExperimentPlan::isolated`]).
    ///
    /// `store_enabled(false)` never consults a store, even when `WLCRC_STORE`
    /// is set; `store_enabled(true)` restores the default behaviour (an
    /// explicit [`ExperimentPlan::store`] path, otherwise the `WLCRC_STORE`
    /// environment variable, otherwise no store).
    pub fn store_enabled(mut self, enabled: bool) -> ExperimentPlan {
        self.store_enabled = enabled;
        self
    }

    /// Forces the store read-only (hits are served, misses are not written
    /// back); otherwise `WLCRC_STORE_READONLY` decides.
    pub fn store_readonly(mut self, readonly: bool) -> ExperimentPlan {
        self.store_readonly = Some(readonly);
        self
    }

    /// Enables or disables plan-level result caching (default on). When on
    /// and a store is configured, the whole [`ExperimentResult`] is cached
    /// under a [`PlanKey`] on top of the per-cell entries, so a fully warm
    /// rerun is one store read — no per-cell lookups. Like the cell cache,
    /// the plan cache can never change a result: its key covers every cell
    /// fingerprint in the grid.
    pub fn plan_cache(mut self, enabled: bool) -> ExperimentPlan {
        self.plan_cache = enabled;
        self
    }

    /// Overrides the simulator version salt baked into every cache key
    /// (default [`cache::SIMULATOR_VERSION_SALT`]).
    /// Bumping the salt makes every previously cached cell unreachable, so
    /// results are recomputed — the invalidation path for simulator
    /// behaviour changes.
    pub fn store_version_salt(mut self, salt: impl Into<String>) -> ExperimentPlan {
        self.store_salt = Some(salt.into());
        self
    }

    /// Resolves the plan's result store: none when switched off, otherwise
    /// the explicit path, then the `WLCRC_STORE` environment; read-only from
    /// the explicit override, then `WLCRC_STORE_READONLY`. A store directory
    /// that cannot be created degrades to read-only (the cache is an
    /// accelerator, not a dependency).
    fn resolve_store(&self) -> Option<ResultStore> {
        if !self.store_enabled {
            return None;
        }
        let path = match &self.store_path {
            Some(path) => path.clone(),
            None => PathBuf::from(std::env::var_os(STORE_ENV).filter(|root| !root.is_empty())?),
        };
        let readonly = self.store_readonly.unwrap_or_else(wlcrc_store::readonly_from_env);
        Some(ResultStore::open_or_read_only(path, readonly))
    }

    /// The worker count this plan will run with.
    pub fn worker_count(&self) -> usize {
        resolve_worker_count(self.threads)
    }

    /// The intra-trace shard count this plan will run with: explicit
    /// override, then `WLCRC_INTRA_SHARDS`, then spare-worker policy (idle
    /// workers divided over the grid's cells, 1 when the grid alone fills
    /// the pool). Always clamped to the config's bank count — a shard that
    /// owns no bank would replay its trace only to discard every record.
    pub fn intra_shard_count(&self) -> usize {
        let banks = self.config.total_banks().max(1);
        if let Some(shards) = self.intra_shards {
            return shards.clamp(1, banks);
        }
        if let Some(shards) =
            std::env::var(INTRA_SHARDS_ENV).ok().as_deref().and_then(parse_thread_count)
        {
            return shards.min(banks);
        }
        match self.cell_count() {
            0 => 1,
            cells => (self.worker_count() / cells).clamp(1, banks),
        }
    }

    /// Executes the grid and returns one cell per (workload, scheme) pair in
    /// declaration order (workload-major).
    ///
    /// # Panics
    ///
    /// Panics if the plan has no schemes or workloads.
    pub fn run(&self) -> ExperimentResult {
        self.run_cells(false).0
    }

    /// Executes the grid cooperatively with other processes sharing the
    /// plan's store: every cell is *claimed* through the store before being
    /// simulated, so independent workers — on this machine or any machine
    /// sharing the directory — divide the grid between them instead of each
    /// computing all of it. The returned result is byte-identical to
    /// [`ExperimentPlan::run`] for any process count, worker count and
    /// interleaving.
    ///
    /// The loop per cell: serve it from the store if present; otherwise
    /// claim it (a locked claim file — exactly one live worker holds it),
    /// simulate, and write the entry back through the claim file, whose
    /// rename into place releases the claim (so no crash leaves a saved cell
    /// claimed). A cell whose claim a live worker holds is requeued and
    /// retried until its entry appears. A claim whose holder exited or died
    /// is free at once: the kernel dropped its lock, and the next worker
    /// takes it over and computes the cell. Claims divide work; they never
    /// gate correctness — entry writes stay atomic and deterministic, so the
    /// worst case of any race is a duplicated computation of identical
    /// bytes.
    ///
    /// Claim races back off instead of spinning: a cell whose claim is held
    /// by a live worker is requeued with a bounded exponential delay
    /// (`claim_backoff`), and transient claim-machinery errors are retried
    /// a few times before coordination degrades to duplicate work. Chaos
    /// tests can kill a worker *while it holds a claim* through the
    /// [`FAULT_CLAIM_CRASH`] fault site, which is exactly the `kill -9` the
    /// takeover exists for.
    ///
    /// Without a writable store there is nothing to coordinate through:
    /// the run is a plain [`ExperimentPlan::run`], and the report counts
    /// what it computed, loaded and served from the plan entry.
    pub fn run_grid_claimed(&self) -> (ExperimentResult, ClaimedRunReport) {
        self.run_cells(true)
    }

    /// The one cell pipeline behind [`ExperimentPlan::run`] and
    /// [`ExperimentPlan::run_grid_claimed`] (`claimed` for the latter).
    fn run_cells(&self, claimed: bool) -> (ExperimentResult, ClaimedRunReport) {
        assert!(!self.schemes.is_empty(), "plan declares no schemes");
        assert!(!self.workloads.is_empty(), "plan declares no workloads");
        let cell_count = self.cell_count();

        // Preamble: every cell derives a content-addressed key, and the
        // whole result is cached under a key covering every cell
        // fingerprint. A fully warm rerun is one store read and returns
        // here. The cache can never change a result — a hit is the
        // byte-identical record of an identical grid.
        let store = self.resolve_store();
        let keys: Vec<CellKey> = if store.is_some() { self.cell_keys() } else { Vec::new() };
        let plan_key = (store.is_some() && self.plan_cache).then(|| self.plan_key(&keys));
        let plan_hit = {
            let _span = wlcrc_obs::span("engine.plan_cache_probe");
            store.as_ref().zip(plan_key.as_ref()).and_then(|(s, key)| cache::load_plan(s, key))
        };
        if let Some(hit) = plan_hit {
            return (hit, ClaimedRunReport { plan_hits: 1, ..ClaimedRunReport::default() });
        }

        // The cell loop. Claims coordinate through a writable store only.
        let claimed = claimed && store.as_ref().is_some_and(|s| !s.is_read_only());
        // Each loop worker owns one cell at a time; spare workers go to its
        // intra-trace shards.
        let pool = self.worker_count();
        let workers = pool.min(cell_count);
        let shard_workers = (pool / workers).max(1);
        let shards = self.intra_shard_count();
        let pending: Mutex<VecDeque<(usize, u32)>> =
            Mutex::new((0..cell_count).map(|cell| (cell, 0)).collect());
        let traces: Vec<OnceLock<Arc<Trace>>> =
            self.workloads.iter().map(|_| OnceLock::new()).collect();
        let done = Mutex::new((
            (0..cell_count).map(|_| None).collect::<Vec<_>>(),
            ClaimedRunReport::default(),
        ));
        let metrics = grid_metrics();
        let worker = || {
            let _span = wlcrc_obs::span("engine.worker");
            loop {
                let Some((cell, attempts)) =
                    pending.lock().expect("queue mutex poisoned").pop_front()
                else {
                    break;
                };
                let coord = CellCoord::of(self, cell);
                let key = store.as_ref().map(|store| (store, &keys[cell]));
                // Serve-first: a finished cell always wins over any claim
                // state (a claimant's entry lands as its claim is released).
                let mut hit = key.and_then(|(store, key)| cache::load_cell(store, key));
                let mut claim = None;
                if let (None, true, Some((store, key))) = (&hit, claimed, key) {
                    let fp = Fingerprint::of_value(&key.to_value());
                    let held = claim_cell(store, fp);
                    if matches!(held, Ok(None)) {
                        // Someone live is computing this cell: requeue it
                        // with a progressively longer backoff, and serve it
                        // from the store once the holder's entry lands.
                        pending
                            .lock()
                            .expect("queue mutex poisoned")
                            .push_back((cell, attempts.saturating_add(1)));
                        std::thread::sleep(claim_backoff(attempts));
                        continue;
                    }
                    // Chaos hook: die *while holding the claim* — the
                    // injected equivalent of `kill -9` mid-compute. The
                    // claim file stays behind, unlocked, for surviving or
                    // later workers to take over. Inert without an
                    // explicit WLCRC_FAULTS plan.
                    if wlcrc_faults::should_fire(FAULT_CLAIM_CRASH) {
                        eprintln!(
                            "wlcrc_faults: injected worker crash holding claim {} (cell {cell})",
                            fp.to_hex()
                        );
                        std::process::exit(CLAIM_CRASH_EXIT_CODE);
                    }
                    // Double-check under the claim: the previous holder may
                    // have finished between the lookup above and the claim,
                    // and its entry must win. If the claim machinery stayed
                    // unavailable, the cell is computed unclaimed: duplicate
                    // work at worst, never a missing result.
                    hit = cache::load_cell(store, key);
                    claim = held.ok().flatten();
                }
                let served = hit.is_some();
                let taken_over = claim.as_ref().is_some_and(Claim::taken_over);
                // Saving the entry releases the claim with it; a served
                // cell's claim is released at the end of this iteration.
                let stats = hit.unwrap_or_else(|| {
                    let trace = traces[coord.workload].get_or_init(|| self.build_trace(coord));
                    let stats = self.simulate_cell(coord, trace, shards, shard_workers);
                    if let Some((store, key)) = key {
                        cache::save_cell(store, key, &stats, claim.take());
                    }
                    stats
                });
                let mut done = done.lock().expect("cell mutex poisoned");
                let (cells, report) = &mut *done;
                cells[cell] = Some(stats);
                if served {
                    report.loaded += 1;
                    metrics.served.inc();
                } else {
                    report.computed += 1;
                    metrics.computed.inc();
                    if taken_over {
                        report.taken_over += 1;
                        metrics.stolen.inc();
                    }
                }
            }
        };
        {
            let _span = wlcrc_obs::span("engine.simulate");
            parallel_tasks(workers, workers, |_| worker());
        }

        // Each cell sits in the slot of its grid position, so the result's
        // order is fixed by the plan, not by scheduling. The plan entry
        // makes the next identical run one read.
        let (cells, report) = done.into_inner().expect("cell mutex poisoned");
        let result = ExperimentResult {
            cells: cells.into_iter().map(|cell| cell.expect("every cell is built")).collect(),
            meta: RunMetadata {
                seeds: vec![self.seed],
                lines_per_workload: self.lines_per_workload,
                config_index: 0,
                grid_cells: cell_count,
            },
        };
        if let (Some(store), Some(key)) = (&store, &plan_key) {
            cache::save_plan(store, key, &result);
        }
        (result, report)
    }

    /// Number of cells in the grid (workload × scheme).
    fn cell_count(&self) -> usize {
        self.workloads.len() * self.schemes.len()
    }

    /// Highest write intensity among the profile workloads (1.0 minimum,
    /// matching the sequential harness's scaling rule).
    fn max_intensity(&self) -> f64 {
        self.workloads
            .iter()
            .filter_map(|w| match w {
                WorkloadSource::Profile(profile) => Some(profile.write_intensity),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    /// Builds the trace that every cell of `coord`'s workload replays.
    /// Deterministic: it derives only from the plan and the base seed.
    /// Traces added with [`ExperimentPlan::trace`] are used as given.
    fn build_trace(&self, coord: CellCoord) -> Arc<Trace> {
        match &self.workloads[coord.workload] {
            WorkloadSource::Trace(trace) => Arc::clone(trace),
            WorkloadSource::Profile(profile) => {
                #[cfg(test)]
                self.trace_builds.fetch_add(1, Ordering::Relaxed);
                let seed = workload_stream_seed(self.seed, &profile.name);
                Arc::new(
                    TraceStream::new(profile.clone(), seed, self.scaled_lines(profile))
                        .collect_trace(),
                )
            }
        }
    }

    /// The scaled trace length of a profile workload (relative write
    /// intensity, like the paper's grids). Shared between trace
    /// construction and cache-key derivation so the key always describes
    /// exactly the trace a cell replays.
    fn scaled_lines(&self, profile: &WorkloadProfile) -> usize {
        scaled_workload_lines(self.lines_per_workload, profile, self.max_intensity())
    }

    /// The version salt of every key this plan derives.
    fn salt(&self) -> String {
        self.store_salt.clone().unwrap_or_else(|| cache::SIMULATOR_VERSION_SALT.to_string())
    }

    /// Derives the store key of every cell. Codec fingerprints are probed
    /// once per scheme — under the config's energy model, which candidate
    /// selection depends on — and workload identities (profile values,
    /// trace digests) computed once per workload, not once per cell.
    fn cell_keys(&self) -> Vec<CellKey> {
        let salt = self.salt();
        let codec_fps: Vec<Fingerprint> = self
            .schemes
            .iter()
            .map(|(_, factory)| cache::codec_fingerprint(factory().as_ref(), &self.config.energy))
            .collect();
        let identities: Vec<WorkloadIdentity> = self
            .workloads
            .iter()
            .map(|workload| match workload {
                WorkloadSource::Profile(profile) => WorkloadIdentity::Profile {
                    profile: profile.identity_value(),
                    stream_seed: workload_stream_seed(self.seed, &profile.name),
                    scaled_lines: self.scaled_lines(profile) as u64,
                },
                WorkloadSource::Trace(trace) => WorkloadIdentity::Trace {
                    name: trace.workload.clone(),
                    digest: trace.content_fingerprint(),
                },
            })
            .collect();
        (0..self.cell_count())
            .map(|cell| {
                let coord = CellCoord::of(self, cell);
                let label = &self.schemes[coord.scheme].0;
                CellKey {
                    salt: salt.clone(),
                    scheme: label.clone(),
                    codec: codec_fps[coord.scheme],
                    workload: identities[coord.workload].clone(),
                    config: self.config.clone(),
                    base_seed: self.seed,
                    cell_seed: cell_seed(self.seed, label, self.workloads[coord.workload].name()),
                    verify_integrity: self.verify_integrity,
                    isolated: self.isolated,
                }
            })
            .collect()
    }

    /// Derives the plan key from the grid's cell keys.
    fn plan_key(&self, keys: &[CellKey]) -> PlanKey {
        PlanKey {
            salt: self.salt(),
            seed: self.seed,
            lines_per_workload: self.lines_per_workload as u64,
            workloads: self.workloads.len() as u64,
            schemes: self.schemes.len() as u64,
            cells: keys.iter().map(|key| Fingerprint::of_value(&key.to_value())).collect(),
        }
    }

    /// The plan-level store fingerprint. Exposed so tests — and operators
    /// debugging cache behaviour — can check two plans will share a plan
    /// entry without running either: worker and shard knobs must never move
    /// it, while salt, scheme, workload, seed and config edits must.
    pub fn plan_fingerprint(&self) -> Fingerprint {
        self.plan_key(&self.cell_keys()).fingerprint()
    }

    /// The per-cell store fingerprints behind the plan key, in recorded
    /// order. This is the list a plan *entry* records under its `cells`
    /// field, so diffing it against a stored entry names exactly which cells
    /// moved — the `storectl why` plan-cache-miss post-mortem.
    pub fn plan_cell_fingerprints(&self) -> Vec<Fingerprint> {
        self.plan_key(&self.cell_keys()).cells
    }

    /// Human-readable labels for the grid's cell positions, in the same
    /// order as a plan key's recorded `cells` list (workload-major, then
    /// scheme — the grid order everywhere in the engine).
    pub fn cell_labels(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.cell_count());
        for workload in &self.workloads {
            for (label, _) in &self.schemes {
                out.push(format!("{} / {} / seed {}", workload.name(), label, self.seed));
            }
        }
        out
    }

    /// Simulates one cell: its intra-trace shards replay `trace` on up to
    /// `workers` threads, each simulating only the banks it owns, and the
    /// per-bank partials merge in ascending bank order — the one canonical
    /// order, whatever the shard count.
    fn simulate_cell(
        &self,
        coord: CellCoord,
        trace: &Trace,
        shards: usize,
        workers: usize,
    ) -> SchemeStats {
        let (label, factory) = &self.schemes[coord.scheme];
        let workload = self.workloads[coord.workload].name();
        let simulator =
            Simulator::with_config(self.config.clone()).with_options(SimulationOptions {
                seed: cell_seed(self.seed, label, workload),
                verify_integrity: self.verify_integrity,
                sample_disturbance: true,
            });
        let partials = parallel_tasks(shards, workers, |shard| {
            let _span = wlcrc_obs::span_with("engine.cell", || {
                let mut cell_label = format!("{label}×{workload}×seed{}", self.seed);
                if shards > 1 {
                    cell_label.push_str(&format!("×shard{shard}/{shards}"));
                }
                cell_label
            });
            let codec = factory();
            if self.isolated {
                simulator.run_isolated_shard(codec.as_ref(), trace, shard, shards)
            } else {
                simulator.run_shard(codec.as_ref(), trace, shard, shards)
            }
        });
        let _span = wlcrc_obs::span("engine.merge");
        merge_bank_stats(label, workload, self.config.total_banks(), partials.into_iter().flatten())
    }
}

/// A grid cell's coordinates. Cells are numbered workload-major, then by
/// scheme: the order of the result's cells and of a plan key's recorded
/// cells.
#[derive(Debug, Clone, Copy)]
struct CellCoord {
    workload: usize,
    scheme: usize,
}

impl CellCoord {
    /// The coordinates of cell index `cell` in `plan`'s grid.
    fn of(plan: &ExperimentPlan, cell: usize) -> CellCoord {
        let schemes = plan.schemes.len();
        CellCoord { workload: cell / schemes, scheme: cell % schemes }
    }
}

/// What a [`ExperimentPlan::run_grid_claimed`] worker process ended up
/// doing: its share of the division of labour, for logs and tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClaimedRunReport {
    /// Cells this process simulated (claimed, taken over, or run without a
    /// writable store).
    pub computed: usize,
    /// Cells served from the store — computed in an earlier run or by
    /// another worker process.
    pub loaded: usize,
    /// Of the computed cells, how many had abandoned claims taken over.
    pub taken_over: usize,
    /// 1 when the whole grid was served from its plan-level entry, else 0.
    pub plan_hits: usize,
}

/// Grid-runner counters, published through the process-global
/// `wlcrc_obs` registry as the `wlcrc_grid_*` families.
///
/// Every grid run — [`ExperimentPlan::run`] and
/// [`ExperimentPlan::run_grid_claimed`] alike — bumps these as its workers
/// make progress, so a long run can be watched live — `wlcrc-gridrun`
/// prints a periodic stderr progress report from them — and a scrape in the
/// same process sees the totals.
pub struct GridMetrics {
    /// Cells this process simulated.
    pub computed: &'static wlcrc_obs::Counter,
    /// Cells served from the store (computed earlier or by another worker).
    pub served: &'static wlcrc_obs::Counter,
    /// Claims taken over from workers that exited or died ("stolen" cells).
    pub stolen: &'static wlcrc_obs::Counter,
}

/// The grid runner's metric handles (find-or-create on first call).
pub fn grid_metrics() -> &'static GridMetrics {
    static METRICS: std::sync::LazyLock<GridMetrics> = std::sync::LazyLock::new(|| {
        let registry = wlcrc_obs::registry();
        GridMetrics {
            computed: registry.counter("wlcrc_grid_cells_computed_total"),
            served: registry.counter("wlcrc_grid_cells_served_total"),
            stolen: registry.counter("wlcrc_grid_claims_stolen_total"),
        }
    });
    &METRICS
}

/// Fault site: a claimed-grid worker dies while still holding a claim —
/// the injected equivalent of `kill -9` mid-compute. Exercises the takeover
/// of an abandoned claim in [`ExperimentPlan::run_grid_claimed`]. See
/// [`wlcrc_faults`] for how sites are toggled.
pub const FAULT_CLAIM_CRASH: &str = "grid.claim.crash";

/// Exit code of a worker killed through [`FAULT_CLAIM_CRASH`], so chaos
/// harnesses can tell an injected crash from a genuine failure.
pub const CLAIM_CRASH_EXIT_CODE: i32 = 86;

/// How many times the claim-create call itself is retried on I/O errors
/// before coordination degrades to duplicate work.
const CLAIM_RETRY_ATTEMPTS: u32 = 3;

/// Bounded exponential claim backoff: 2 ms doubling per attempt, capped at
/// 128 ms. The cap keeps a worker responsive to the holder's entry landing;
/// the growth keeps a long wait from spinning the filesystem.
fn claim_backoff(attempt: u32) -> Duration {
    Duration::from_millis((2u64 << attempt.min(6)).min(128))
}

/// Claims the cell whose key fingerprint is `fp`. `Ok(None)` means a live
/// worker holds the claim; an error means the claim machinery stayed
/// unavailable after retries.
fn claim_cell(store: &ResultStore, fp: Fingerprint) -> Result<Option<Claim>, StoreError> {
    let _span = wlcrc_obs::span_with("engine.claim", || fp.to_hex());
    // Transient claim-machinery errors get a short bounded retry before
    // coordination degrades to duplicate work — an NFS hiccup should not
    // turn a fleet into N full runs.
    let mut claim = store.try_claim(fp);
    for retry in 0..CLAIM_RETRY_ATTEMPTS {
        if claim.is_ok() {
            break;
        }
        std::thread::sleep(claim_backoff(retry));
        claim = store.try_claim(fp);
    }
    claim
}

/// Resolves the worker count: explicit override, then `WLCRC_THREADS`, then
/// the machine's available parallelism (1 if unknown).
pub fn resolve_worker_count(explicit: Option<usize>) -> usize {
    if let Some(workers) = explicit {
        return workers.max(1);
    }
    if let Some(workers) = std::env::var(THREADS_ENV).ok().as_deref().and_then(parse_thread_count) {
        return workers;
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Parses a `WLCRC_THREADS`-style value; zero, empty and garbage are rejected
/// so the caller falls back to auto-detection.
fn parse_thread_count(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|workers| *workers >= 1)
}

/// Runs `count` independent tasks on `workers` scoped threads and returns the
/// results in task order. Workers claim task indices from a shared atomic
/// counter (work stealing), but each result lands in its own slot, so output
/// order — and therefore any later floating-point merge — is deterministic.
fn parallel_tasks<T, F>(count: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, count);
    if workers == 1 {
        return (0..count).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(count).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let value = task(index);
                slots.lock().expect("result mutex poisoned")[index] = Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("result mutex poisoned")
        .into_iter()
        .map(|slot| slot.expect("every claimed task stores a result"))
        .collect()
}

/// FNV-style hash of a workload name, used to give every workload its own
/// trace-generation seed. (Kept identical to the historical sequential
/// harness so migrated callers reproduce the same traces.)
pub(crate) fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The stream seed a profile workload generates its trace from, given the
/// plan's base seed — `base ^ FNV(workload name)`, the derivation every grid
/// cell uses. Public so external replayers (the serve layer's `serve-replay`,
/// soak harnesses) can reproduce a plan's exact record streams.
pub fn workload_stream_seed(base_seed: u64, workload: &str) -> u64 {
    base_seed ^ hash_name(workload)
}

/// The scaled trace length of a profile workload within a grid whose highest
/// profile write intensity is `max_intensity` (1.0 minimum) — the paper's
/// relative-intensity scaling, shared with external replayers.
pub fn scaled_workload_lines(
    lines_per_workload: usize,
    profile: &WorkloadProfile,
    max_intensity: f64,
) -> usize {
    let max_intensity = max_intensity.max(1.0);
    ((lines_per_workload as f64) * profile.write_intensity / max_intensity).ceil().max(1.0) as usize
}

/// Derives a cell's disturbance-sampling seed from the grid coordinates only
/// — never from worker identity — so parallelism cannot change any figure.
/// Public so a long-lived session replaying one grid cell (the serve layer)
/// can be seeded byte-identically to the batch engine.
pub fn cell_seed(base: u64, scheme: &str, workload: &str) -> u64 {
    let mut h = 0x517c_c1b7_2722_0a95u64 ^ base.rotate_left(17);
    for b in scheme.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    h = h.rotate_left(29) ^ 0xff;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    // SplitMix64 finaliser for avalanche.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlcrc_pcm::codec::{LineEncoder, RawCodec};
    use wlcrc_pcm::energy::EnergyModel;
    use wlcrc_pcm::line::MemoryLine;
    use wlcrc_pcm::physical::PhysicalLine;
    use wlcrc_trace::{Benchmark, TraceGenerator, WriteRecord};

    /// The shared test grid. `store_enabled(false)` keeps every non-store
    /// test hermetic: a developer's `WLCRC_STORE` must neither serve these
    /// cells nor be polluted by them. Store tests override with
    /// `.store(path)`.
    fn small_plan() -> ExperimentPlan {
        ExperimentPlan::new()
            .store_enabled(false)
            .seed(3)
            .lines_per_workload(40)
            .workload(Benchmark::Gcc.profile())
            .workload(Benchmark::Mcf.profile())
            .workload(Benchmark::Omnetpp.profile())
            .scheme("Baseline", || Box::new(RawCodec::new()))
            .scheme("Shared", || Box::new(RawCodec::new()))
    }

    #[test]
    fn results_are_identical_for_one_and_four_workers() {
        let sequential = small_plan().threads(1).run();
        let parallel = small_plan().threads(4).run();
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.cells.len(), 6);
    }

    #[test]
    fn results_are_identical_for_one_and_four_intra_trace_shards() {
        let unsharded = small_plan().threads(2).intra_trace_shards(1).run();
        let sharded = small_plan().threads(2).intra_trace_shards(4).run();
        assert_eq!(unsharded, sharded);
    }

    #[test]
    fn streamed_and_materialised_pipelines_are_byte_identical() {
        // All twelve standard workloads: the engine, which builds each trace
        // once and shares it, sharded and not, against a plain streamed
        // `Simulator::run` of every cell.
        let plan = || {
            ExperimentPlan::new()
                .store_enabled(false)
                .seed(5)
                .lines_per_workload(30)
                .workloads(Benchmark::ALL.iter().map(|b| b.profile()))
                .scheme("Baseline", || Box::new(RawCodec::new()))
        };
        let materialised = plan().intra_trace_shards(1).run();
        assert_eq!(materialised, plan().intra_trace_shards(4).run());
        assert_eq!(materialised.cells.len(), 12);
        let max_intensity = plan().max_intensity();
        for (benchmark, cell) in Benchmark::ALL.iter().zip(&materialised.cells) {
            let profile = benchmark.profile();
            let stream = TraceStream::new(
                profile.clone(),
                workload_stream_seed(5, &profile.name),
                scaled_workload_lines(30, &profile, max_intensity),
            );
            let options = SimulationOptions {
                seed: cell_seed(5, "Baseline", &profile.name),
                ..SimulationOptions::default()
            };
            let mut streamed = Simulator::new().with_options(options).run(&RawCodec::new(), stream);
            streamed.scheme = "Baseline".to_string();
            assert_eq!(&streamed, cell, "{benchmark:?}");
        }
    }

    #[test]
    fn long_custom_sources_replay_across_shards() {
        // A custom trace whose records are computed from their index; every
        // shard replays it. (At 64 lines the working set spans every bank of
        // the Table II organisation.)
        let count = 20_000u64;
        let records = (0..count).map(|i| {
            let address = (i % 64) * 64;
            let old = MemoryLine::from_words([i ^ 9; 8]);
            let new = MemoryLine::from_words([(i + 1) ^ 9; 8]);
            WriteRecord::new(address, old, new)
        });
        let trace = Arc::new(Trace::from_records("endless", records.collect()));
        let plan = || {
            ExperimentPlan::new()
                .store_enabled(false)
                .seed(1)
                .verify_integrity(false)
                .trace(Arc::clone(&trace))
                .scheme("Baseline", || Box::new(RawCodec::new()))
                .threads(2)
        };
        let sharded = plan().intra_trace_shards(4).run();
        let stats = &sharded.cells[0];
        assert_eq!(stats.writes, count);
        assert_eq!(stats.workload, "endless");
        assert_eq!(stats.bank_writes.iter().sum::<u64>(), count);
        assert_eq!(stats.banks_touched(), 64, "64-line stride touches every bank");
        assert_eq!(sharded, plan().intra_trace_shards(1).run());
    }

    /// Delegates to the Baseline codec and counts its `encoder()` calls.
    struct CountingCodec {
        inner: RawCodec,
        encoders: Arc<AtomicUsize>,
    }

    impl LineCodec for CountingCodec {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn encoded_cells(&self) -> usize {
            self.inner.encoded_cells()
        }

        fn encode(
            &self,
            data: &MemoryLine,
            old: &PhysicalLine,
            energy: &EnergyModel,
        ) -> PhysicalLine {
            self.inner.encode(data, old, energy)
        }

        fn encoder(&self, energy: &EnergyModel) -> Box<dyn LineEncoder> {
            self.encoders.fetch_add(1, Ordering::Relaxed);
            self.inner.encoder(energy)
        }

        fn decode(&self, stored: &PhysicalLine) -> MemoryLine {
            self.inner.decode(stored)
        }
    }

    #[test]
    fn each_encoder_is_built_once_per_cell_shard_and_session() {
        // Two workloads, four shards on two workers: two cells and eight
        // shard runs, each building its tables once.
        let plan = |encoders: Arc<AtomicUsize>| {
            ExperimentPlan::new()
                .store_enabled(false)
                .seed(3)
                .lines_per_workload(40)
                .workload(Benchmark::Gcc.profile())
                .workload(Benchmark::Mcf.profile())
                .scheme("Counted", move || {
                    let encoders = Arc::clone(&encoders);
                    Box::new(CountingCodec { inner: RawCodec::new(), encoders })
                })
        };
        let encoders = Arc::new(AtomicUsize::new(0));
        let sharded = plan(Arc::clone(&encoders)).threads(2).intra_trace_shards(4).run();
        assert_eq!(encoders.load(Ordering::Relaxed), 8, "one encoder per (cell, shard)");
        let sequential = plan(Arc::default()).threads(1).intra_trace_shards(1).run();
        assert_eq!(sharded, sequential);

        let encoders = Arc::new(AtomicUsize::new(0));
        let codec = CountingCodec { inner: RawCodec::new(), encoders: Arc::clone(&encoders) };
        let mut session = Simulator::new().session(Box::new(codec), "gcc");
        for record in TraceStream::new(Benchmark::Gcc.profile(), 3, 120) {
            session.write(&record);
        }
        assert_eq!(encoders.load(Ordering::Relaxed), 1, "one encoder per session");
        let direct = Simulator::new()
            .run(&RawCodec::new(), TraceStream::new(Benchmark::Gcc.profile(), 3, 120));
        assert_eq!(session.stats(), direct);
    }

    #[test]
    fn each_trace_is_built_once_per_run() {
        // Three schemes, two workloads, four shards on two workers: six
        // cells and 24 shard replays share two traces, one per workload.
        let plan = || {
            ExperimentPlan::new()
                .store_enabled(false)
                .seed(3)
                .lines_per_workload(40)
                .workload(Benchmark::Gcc.profile())
                .workload(Benchmark::Mcf.profile())
                .scheme("Baseline", || Box::new(RawCodec::new()))
                .scheme("Shared", || Box::new(RawCodec::new()))
                .scheme("Remapped", remapped_raw)
        };
        let sharded_plan = plan().threads(2).intra_trace_shards(4);
        let sharded = sharded_plan.run();
        assert_eq!(sharded_plan.trace_builds.load(Ordering::Relaxed), 2, "one trace per workload");
        let sequential = plan().threads(1).intra_trace_shards(1).run();
        assert_eq!(sharded, sequential);
    }

    #[test]
    fn cells_are_ordered_workload_major() {
        let result = small_plan().threads(2).run();
        let keys: Vec<(&str, &str)> =
            result.cells.iter().map(|c| (c.workload.as_str(), c.scheme.as_str())).collect();
        assert_eq!(
            keys,
            vec![
                ("gcc", "Baseline"),
                ("gcc", "Shared"),
                ("mcf", "Baseline"),
                ("mcf", "Shared"),
                ("omne", "Baseline"),
                ("omne", "Shared"),
            ]
        );
    }

    #[test]
    fn traces_are_shared_across_schemes() {
        // Two instances of the same codec must see the same trace: identical
        // writes and identical (deterministic) energy.
        let result = small_plan().threads(3).run();
        for workload in result.workloads() {
            let a = result.get("Baseline", &workload).unwrap();
            let b = result.get("Shared", &workload).unwrap();
            assert_eq!(a.writes, b.writes);
            assert_eq!(a.data_energy_pj, b.data_energy_pj);
        }
    }

    #[test]
    fn run_grid_returns_one_result_per_config() {
        // A study over several configs runs one plan per config, as
        // Figure 14 does.
        let mut cheap = PcmConfig::table_ii();
        cheap.energy = EnergyModel::figure14_configurations().last().unwrap().clone();
        let default = small_plan().run();
        let cheap = small_plan().config(cheap).run();
        assert_eq!(default.meta.config_index, 0);
        assert_eq!(cheap.meta.config_index, 0);
        let default_energy = default.get("Baseline", "gcc").unwrap().total_energy_pj();
        let cheap_energy = cheap.get("Baseline", "gcc").unwrap().total_energy_pj();
        assert!(cheap_energy < default_energy, "{cheap_energy} vs {default_energy}");
    }

    #[test]
    fn isolated_mode_skips_address_tracking() {
        let trace = {
            let mut generator = TraceGenerator::new(Benchmark::Gcc.profile(), 5);
            Arc::new(generator.generate(30))
        };
        let plan = ExperimentPlan::new()
            .store_enabled(false)
            .seed(5)
            .trace(Arc::clone(&trace))
            .scheme("Baseline", || Box::new(RawCodec::new()))
            .isolated(true);
        let result = plan.run();
        assert_eq!(result.cells[0].writes, 30);
        assert_eq!(result.cells[0].workload, "gcc");
    }

    #[test]
    fn thread_count_parsing_rejects_garbage() {
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 16 "), Some(16));
        assert_eq!(parse_thread_count("0"), None);
        assert_eq!(parse_thread_count(""), None);
        assert_eq!(parse_thread_count("many"), None);
        assert_eq!(resolve_worker_count(Some(0)), 1);
        assert_eq!(resolve_worker_count(Some(8)), 8);
    }

    #[test]
    fn intra_shard_policy_uses_spare_workers() {
        // 6 cells on a 1-worker pool: no spare parallelism, 1 shard.
        assert_eq!(small_plan().threads(1).intra_shard_count(), 1);
        // 6 cells on a 24-worker pool: 4 shards per cell soak up the slack.
        assert_eq!(small_plan().threads(24).intra_shard_count(), 4);
        // Explicit override wins; zero clamps to 1.
        assert_eq!(small_plan().threads(24).intra_trace_shards(2).intra_shard_count(), 2);
        assert_eq!(small_plan().intra_trace_shards(0).intra_shard_count(), 1);
    }

    #[test]
    fn parallel_tasks_preserve_task_order() {
        let out = parallel_tasks(100, 7, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(parallel_tasks(0, 4, |i| i).is_empty());
    }

    /// A per-test scratch store directory removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let path = std::env::temp_dir().join(format!(
                "wlcrc-engine-test-{}-{}-{}",
                std::process::id(),
                tag,
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&path);
            Scratch(path)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A raw codec with a shuffled symbol mapping: same label as
    /// `RawCodec::new`, different behaviour — the aliasing case the codec
    /// fingerprint must separate.
    fn remapped_raw() -> Box<dyn LineCodec> {
        use wlcrc_pcm::mapping::SymbolMapping;
        use wlcrc_pcm::state::CellState;
        Box::new(wlcrc_pcm::codec::RawCodec::with_mapping(SymbolMapping::from_states([
            CellState::S4,
            CellState::S3,
            CellState::S2,
            CellState::S1,
        ])))
    }

    #[test]
    fn store_disabled_cold_and_warm_runs_are_byte_identical() {
        let scratch = Scratch::new("cold-warm");
        let plan = || small_plan().threads(2);
        let disabled = plan().store_enabled(false).run();
        let cold = plan().store(&scratch.0).store_readonly(false).run();
        let warm = plan().store(&scratch.0).store_readonly(false).run();
        let warm_parallel = plan().store(&scratch.0).store_readonly(false).threads(4).run();
        let warm_sharded =
            plan().store(&scratch.0).store_readonly(false).intra_trace_shards(4).run();
        assert_eq!(disabled, cold);
        assert_eq!(disabled, warm);
        assert_eq!(disabled, warm_parallel);
        assert_eq!(disabled, warm_sharded);
        // 3 workloads × 2 schemes cells were recorded once, plus the
        // plan-level entry.
        let store = ResultStore::open_read_only(&scratch.0);
        assert_eq!(store.entries().len(), 7);
        // Each warm run was served by exactly one plan-level hit — no
        // per-cell entry was touched.
        assert_eq!(store.hit_count(), 3);
    }

    #[test]
    fn plan_level_hits_bypass_per_cell_entries() {
        let scratch = Scratch::new("plan-hit");
        let plan = || small_plan().store(&scratch.0).store_readonly(false);
        let cold = plan().run();
        let store = ResultStore::open_read_only(&scratch.0);
        assert_eq!(store.entries().len(), 7, "6 cells + 1 plan entry");
        assert_eq!(store.hit_count(), 0);
        let plan_fp = plan().plan_fingerprint();
        let warm = plan().run();
        assert_eq!(cold, warm);
        // The journal proves the warm run touched exactly one entry: the
        // plan's.
        assert_eq!(store.hit_count(), 1);
        let uses = store.last_uses();
        assert_eq!(uses.len(), 1);
        assert!(uses.contains_key(&plan_fp), "the one journaled hit is the plan entry");
    }

    #[test]
    fn plan_cache_off_restores_per_cell_hits() {
        let scratch = Scratch::new("plan-off");
        let plan = || small_plan().store(&scratch.0).store_readonly(false).plan_cache(false);
        let cold = plan().run();
        let store = ResultStore::open_read_only(&scratch.0);
        assert_eq!(store.entries().len(), 6, "no plan entry without the plan cache");
        let warm = plan().run();
        assert_eq!(cold, warm);
        assert_eq!(store.hit_count(), 6, "every cell served individually");
        // A plan-cached run over the per-cell-warm store hits all six cells,
        // writes the plan entry, and the next run is a single plan hit.
        let adopted = small_plan().store(&scratch.0).store_readonly(false).run();
        assert_eq!(cold, adopted);
        assert_eq!(store.entries().len(), 7);
        let replayed = small_plan().store(&scratch.0).store_readonly(false).run();
        assert_eq!(cold, replayed);
        assert_eq!(store.hit_count(), 13, "6 + 6 cell hits, then 1 plan hit");
    }

    #[test]
    fn corrupt_plan_entries_fall_back_to_per_cell_hits() {
        let scratch = Scratch::new("plan-corrupt");
        let plan = || small_plan().store(&scratch.0).store_readonly(false);
        let cold = plan().run();
        let plan_fp = plan().plan_fingerprint();
        let store = ResultStore::open(&scratch.0).unwrap();
        std::fs::write(store.entry_path(plan_fp), b"garbage").unwrap();
        let rewarmed = plan().run();
        assert_eq!(cold, rewarmed);
        // The damaged plan entry was recomputed from per-cell hits and
        // atomically rewritten.
        let report = store.verify();
        assert_eq!(report.corrupt.len(), 0, "{:?}", report.corrupt);
        assert_eq!(report.valid.len(), 7);
        assert_eq!(store.hit_count(), 6, "the six cell hits that rebuilt the merge");
    }

    #[test]
    fn plan_fingerprints_ignore_execution_knobs_but_track_identity() {
        let base = small_plan().plan_fingerprint();
        // Execution knobs must not move the plan key (they cannot change
        // results, so they must not fragment the cache).
        assert_eq!(base, small_plan().threads(7).plan_fingerprint());
        assert_eq!(base, small_plan().intra_trace_shards(4).plan_fingerprint());
        // Identity edits must move it.
        assert_ne!(base, small_plan().seed(4).plan_fingerprint());
        assert_ne!(base, small_plan().lines_per_workload(41).plan_fingerprint());
        assert_ne!(base, small_plan().store_version_salt("bumped").plan_fingerprint());
        assert_ne!(base, small_plan().workload(Benchmark::Lbm.profile()).plan_fingerprint());
        assert_ne!(
            base,
            small_plan().scheme("Extra", || Box::new(RawCodec::new())).plan_fingerprint()
        );
        let mut cheap = PcmConfig::table_ii();
        cheap.energy = EnergyModel::with_intermediate_states(50.0, 80.0);
        assert_ne!(base, small_plan().config(cheap).plan_fingerprint());
    }

    #[test]
    fn partially_warm_grids_are_byte_identical() {
        let scratch = Scratch::new("mixed");
        // Populate with a two-workload subset...
        let subset = ExperimentPlan::new()
            .seed(3)
            .lines_per_workload(40)
            .workload(Benchmark::Gcc.profile())
            .workload(Benchmark::Mcf.profile())
            .scheme("Baseline", || Box::new(RawCodec::new()))
            .scheme("Shared", || Box::new(RawCodec::new()))
            .store(&scratch.0)
            .store_readonly(false)
            .run();
        // ...then run the full grid: gcc/mcf cells hit, omnetpp cells miss.
        let mixed = small_plan().store(&scratch.0).store_readonly(false).run();
        let disabled = small_plan().store_enabled(false).run();
        assert_eq!(mixed, disabled);
        for cell in &subset.cells {
            assert_eq!(Some(cell), mixed.get(&cell.scheme, &cell.workload));
        }
        // 4 subset cells + subset plan entry, then 2 omnetpp cells + the
        // full grid's own plan entry (the subset's plan key differs).
        assert_eq!(ResultStore::open_read_only(&scratch.0).entries().len(), 8);
    }

    #[test]
    fn salt_bump_forces_recomputation() {
        let scratch = Scratch::new("salt");
        let plan = || small_plan().store(&scratch.0).store_readonly(false);
        let v1 = plan().store_version_salt("wlcrc-sim-test-v1").run();
        let store = ResultStore::open_read_only(&scratch.0);
        let after_v1 = store.entries().len();
        assert_eq!(after_v1, 7, "6 cells + 1 plan entry");
        let v2 = plan().store_version_salt("wlcrc-sim-test-v2").run();
        // Same simulation, so same results — but nothing was served from the
        // v1 entries: every cell recomputed and landed at a fresh address.
        assert_eq!(v1, v2);
        assert_eq!(store.entries().len(), 2 * after_v1);
        assert_eq!(store.hit_count(), 0);
    }

    #[test]
    fn same_label_different_codec_does_not_alias() {
        let scratch = Scratch::new("codec-fp");
        let default_plan = || {
            ExperimentPlan::new()
                .seed(3)
                .lines_per_workload(40)
                .workload(Benchmark::Gcc.profile())
                .scheme("Baseline", || Box::new(RawCodec::new()))
                .store(&scratch.0)
                .store_readonly(false)
        };
        let remapped_plan = || {
            ExperimentPlan::new()
                .seed(3)
                .lines_per_workload(40)
                .workload(Benchmark::Gcc.profile())
                .scheme("Baseline", remapped_raw)
                .store(&scratch.0)
                .store_readonly(false)
        };
        let default_run = default_plan().run();
        // The remapped codec shares the "Baseline" label; a label-keyed
        // cache would wrongly serve it the default codec's stats.
        let remapped_run = remapped_plan().run();
        let remapped_disabled = remapped_plan().store_enabled(false).run();
        assert_eq!(remapped_run, remapped_disabled);
        assert_ne!(
            default_run.cells[0].data_energy_pj, remapped_run.cells[0].data_energy_pj,
            "the remapped codec must actually behave differently for this test to bite"
        );
        // One cell + one plan entry per codec: the plan keys separate too,
        // because they cover the codec fingerprints.
        assert_eq!(ResultStore::open_read_only(&scratch.0).entries().len(), 4);
    }

    #[test]
    fn corrupt_entries_are_recomputed_and_rewritten() {
        let scratch = Scratch::new("corrupt");
        // Plan cache off: this test exercises *per-cell* corruption
        // recovery, which a plan-level hit would otherwise short-circuit
        // (see `corrupt_plan_entries_fall_back_to_per_cell_hits` for that
        // layer).
        let plan = || small_plan().store(&scratch.0).store_readonly(false).plan_cache(false);
        let cold = plan().run();
        let store = ResultStore::open_read_only(&scratch.0);
        let entries = store.entries();
        assert_eq!(entries.len(), 6);
        // Truncate one entry and garble another.
        let bytes = std::fs::read(&entries[0].path).unwrap();
        std::fs::write(&entries[0].path, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(&entries[1].path, b"not a store entry").unwrap();
        let rewarmed = plan().run();
        assert_eq!(cold, rewarmed);
        // Both damaged entries were recomputed and atomically rewritten.
        let report = store.verify();
        assert_eq!(report.corrupt.len(), 0, "{:?}", report.corrupt);
        assert_eq!(report.valid.len(), 6);
    }

    #[test]
    fn re_enabling_the_store_keeps_its_explicit_path() {
        let scratch = Scratch::new("re-enabled");
        let plan = || small_plan().store(&scratch.0).store_readonly(false);
        let reenabled = plan().store_enabled(false).store_enabled(true).run();
        assert_eq!(reenabled, small_plan().run());
        let store = ResultStore::open_read_only(&scratch.0);
        assert_eq!(store.entries().len(), 7, "6 cells + 1 plan entry in the explicit store");
    }

    #[test]
    fn readonly_stores_serve_hits_but_never_write() {
        let scratch = Scratch::new("readonly");
        // A read-only store over a missing directory: every cell misses and
        // nothing is created.
        let cold = small_plan().store(&scratch.0).store_readonly(true).run();
        assert!(!scratch.0.exists());
        // Populate writable, then re-run read-only: hits, no new journal.
        let writable = small_plan().store(&scratch.0).store_readonly(false).run();
        let store = ResultStore::open_read_only(&scratch.0);
        let hits_before = store.hit_count();
        let warm = small_plan().store(&scratch.0).store_readonly(true).run();
        assert_eq!(cold, writable);
        assert_eq!(cold, warm);
        assert_eq!(store.hit_count(), hits_before, "read-only hits are not journaled");
    }

    #[test]
    fn materialised_trace_workloads_cache_by_content_digest() {
        let scratch = Scratch::new("trace-digest");
        let trace = {
            let mut generator = TraceGenerator::new(Benchmark::Gcc.profile(), 5);
            Arc::new(generator.generate(30))
        };
        let plan = |t: &Arc<Trace>| {
            ExperimentPlan::new()
                .seed(5)
                .trace(Arc::clone(t))
                .scheme("Baseline", || Box::new(RawCodec::new()))
                .store(&scratch.0)
                .store_readonly(false)
        };
        let cold = plan(&trace).run();
        let warm = plan(&trace).run();
        assert_eq!(cold, warm);
        let store = ResultStore::open_read_only(&scratch.0);
        assert_eq!(store.entries().len(), 2, "the cell and its plan entry");
        assert_eq!(store.hit_count(), 1, "the warm run was one plan-level hit");
        // A trace with one different record must miss.
        let mut records: Vec<WriteRecord> = trace.iter().copied().collect();
        records[7] =
            WriteRecord::new(records[7].address, records[7].old, records[7].new.complement());
        let edited = Arc::new(Trace::from_records("gcc", records));
        let _ = plan(&edited).run();
        assert_eq!(store.entries().len(), 4, "edited trace is a different cell and plan");
    }

    #[test]
    fn claimed_runs_match_run_grid_and_divide_work() {
        let scratch = Scratch::new("claimed");
        let plan = || small_plan().threads(2).store(&scratch.0);
        let direct = plan().store_enabled(false).run();
        // Cold claimed run: every cell claimed, computed and written back.
        let (cold, cold_report) = plan().run_grid_claimed();
        assert_eq!(direct, cold);
        assert_eq!(cold_report.computed, 6);
        assert_eq!(cold_report.loaded, 0);
        assert_eq!(cold_report.taken_over, 0);
        let store = ResultStore::open_read_only(&scratch.0);
        assert!(store.claims().is_empty(), "all claims released after compute");
        assert_eq!(store.entries().len(), 7, "6 cells + 1 plan entry");
        // Warm claimed run: one plan-level hit, nothing claimed or computed.
        let (warm, warm_report) = plan().run_grid_claimed();
        assert_eq!(direct, warm);
        assert_eq!(
            warm_report,
            ClaimedRunReport { computed: 0, loaded: 0, taken_over: 0, plan_hits: 1 }
        );
        // Per-cell-warm (plan cache off): every cell served from the store.
        let (served, served_report) = plan().plan_cache(false).run_grid_claimed();
        assert_eq!(direct, served);
        assert_eq!(served_report.computed, 0);
        assert_eq!(served_report.loaded, 6);
    }

    #[test]
    fn claimed_runs_take_over_stale_claims() {
        let scratch = Scratch::new("stale-claim");
        let plan = || {
            ExperimentPlan::new()
                .seed(3)
                .lines_per_workload(40)
                .workload(Benchmark::Gcc.profile())
                .scheme("Baseline", || Box::new(RawCodec::new()))
                .threads(1)
                .store(&scratch.0)
        };
        // Plant an unlocked claim file on the grid's one cell: what a
        // worker that died holding it leaves behind.
        let store = ResultStore::open(&scratch.0).unwrap();
        let keys = plan().cell_keys();
        let fp = Fingerprint::of_value(&keys[0].to_value());
        let path = store.claim_path(fp);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"").unwrap();
        let (claimed, report) = plan().run_grid_claimed();
        assert_eq!(claimed, plan().store_enabled(false).run());
        assert_eq!(report.computed, 1);
        assert_eq!(report.taken_over, 1);
        assert!(store.claims().is_empty(), "the taken-over claim was released");
    }

    #[test]
    fn claimed_runs_without_a_store_fall_back_to_run_grid() {
        let (result, report) = small_plan().run_grid_claimed();
        assert_eq!(result, small_plan().run());
        // 3 workloads × 2 schemes grid cells.
        assert_eq!(report.computed, 6);
        assert_eq!(report.loaded, 0);
    }

    #[test]
    fn claimed_runs_on_a_warm_read_only_store_count_the_plan_hit() {
        let scratch = Scratch::new("claimed-readonly");
        let plan = || small_plan().store(&scratch.0);
        let cold = plan().store_readonly(false).run();
        let (warm, report) = plan().store_readonly(true).run_grid_claimed();
        assert_eq!(cold, warm);
        assert_eq!(
            report,
            ClaimedRunReport { computed: 0, loaded: 0, taken_over: 0, plan_hits: 1 }
        );
    }

    #[test]
    fn cell_seeds_separate_grid_coordinates() {
        let base = cell_seed(1, "A", "w");
        assert_ne!(base, cell_seed(2, "A", "w"), "base seed must matter");
        assert_ne!(base, cell_seed(1, "B", "w"), "scheme must matter");
        assert_ne!(base, cell_seed(1, "A", "x"), "workload must matter");
        // Concatenation ambiguity: ("AB", "C") vs ("A", "BC").
        assert_ne!(cell_seed(1, "AB", "C"), cell_seed(1, "A", "BC"));
    }
}
