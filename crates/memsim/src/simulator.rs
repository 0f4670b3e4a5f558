//! The trace-driven simulator core: a streaming, bank-partitioned pipeline.
//!
//! Records are consumed from any [`TraceSource`] one at a time (peak memory
//! is O(working-set), never O(trace-length)) and routed to a *lane* per
//! memory bank. Each lane owns its stored-line map, its statistics
//! accumulator and its own disturbance-sampling RNG whose seed derives only
//! from `(options.seed, bank index)`. Because writes to different banks are
//! independent in the cost model, the lanes never interact; the final result
//! merges the lane accumulators in ascending bank order.
//!
//! This structure is what makes intra-trace sharding deterministic: a shard
//! worker that processes only the banks with `bank % shards == shard` (see
//! [`Simulator::run_shard`]) computes exactly the lanes the sequential run
//! would have computed, so merging all shards' lanes in bank order is
//! byte-identical to [`Simulator::run`] for any shard count.
//!
//! Every run encodes through one [`LineEncoder`], built by
//! [`LineCodec::encoder`] when the run (or session) starts: the codec's
//! transition tables are built once, not per write. First touches encode
//! over the codec's all-RESET [`LineCodec::initial_line`], an all-zero
//! stack value.

use crate::memory::MemoryOrganization;
use crate::stats::SchemeStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wlcrc_pcm::codec::{LineCodec, LineEncoder};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_pcm::disturb::evaluate_disturbance;
use wlcrc_pcm::physical::PhysicalLine;
use wlcrc_pcm::write::differential_write;
use wlcrc_trace::{IntoTraceSource, TraceSource, WriteRecord};

/// Options controlling a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationOptions {
    /// Base seed for the disturbance-sampling RNGs; each bank lane derives
    /// its own stream from `(seed, bank index)`.
    pub seed: u64,
    /// When `true`, every write is decoded again and compared with the
    /// original data; mismatches are counted as integrity failures.
    pub verify_integrity: bool,
    /// When `true` (the default), write disturbance is sampled per write.
    /// Disabling it skips both the sampling and the RNG draws — the degraded
    /// mode of the serve layer sheds exactly this work first — so disturbance
    /// counters stay zero and later re-enabling yields a different (still
    /// deterministic) RNG stream than an all-sampled run.
    pub sample_disturbance: bool,
}

impl Default for SimulationOptions {
    fn default() -> SimulationOptions {
        SimulationOptions { seed: 0xC0DE, verify_integrity: true, sample_disturbance: true }
    }
}

/// The statistics of one bank's lane, labelled with its flat bank index.
/// Produced by [`Simulator::run_shard`]; merge shards' lanes with
/// [`merge_bank_stats`] in ascending bank order to obtain the run's
/// [`SchemeStats`].
pub type BankStats = (usize, SchemeStats);

/// A trace-driven simulator evaluating one encoding scheme at a time against
/// the stored state of the simulated PCM array.
#[derive(Debug)]
pub struct Simulator {
    config: PcmConfig,
    options: SimulationOptions,
}

impl Simulator {
    /// Creates a simulator with the Table II configuration and default options.
    pub fn new() -> Simulator {
        Simulator { config: PcmConfig::table_ii(), options: SimulationOptions::default() }
    }

    /// Creates a simulator with a custom configuration.
    pub fn with_config(config: PcmConfig) -> Simulator {
        Simulator { config, options: SimulationOptions::default() }
    }

    /// Overrides the simulation options.
    pub fn with_options(mut self, options: SimulationOptions) -> Simulator {
        self.options = options;
        self
    }

    /// The PCM configuration in use.
    pub fn config(&self) -> &PcmConfig {
        &self.config
    }

    /// Runs `codec` over `trace` — a streaming [`TraceSource`] or a
    /// materialised `&Trace` — and returns the aggregated statistics.
    ///
    /// The simulator maintains the physically stored content of every line it
    /// has seen. The first write to an address initialises the stored content
    /// by encoding the record's *old* value (this initialisation write is not
    /// accounted, mirroring how the paper's traces provide the overwritten
    /// value for every transaction).
    pub fn run(&self, codec: &dyn LineCodec, trace: impl IntoTraceSource) -> SchemeStats {
        let source = trace.into_trace_source();
        let scheme = codec.name().to_string();
        let workload = source.workload().to_string();
        let lanes = self.run_lanes(codec, source, 0, 1, Tracking::Stored);
        merge_bank_stats(&scheme, &workload, self.config.total_banks(), lanes)
    }

    /// Runs one intra-trace shard: streams `trace`, simulating only the
    /// records whose bank satisfies `bank % shards == shard` and discarding
    /// the rest, and returns the per-bank partial statistics in ascending
    /// bank order.
    ///
    /// Concatenating the output of all `shards` shards, sorting by bank and
    /// merging with [`merge_bank_stats`] is byte-identical to
    /// [`Simulator::run`] — per-lane RNG streams, stored state and
    /// accumulation order do not depend on the shard count. Sources must be
    /// deterministic: each shard replays its own copy of the stream, which
    /// keeps shards embarrassingly parallel at O(working-set) memory each.
    pub fn run_shard(
        &self,
        codec: &dyn LineCodec,
        trace: impl IntoTraceSource,
        shard: usize,
        shards: usize,
    ) -> Vec<BankStats> {
        self.run_lanes(codec, trace.into_trace_source(), shard, shards, Tracking::Stored)
    }

    /// [`Simulator::run_shard`] without address tracking: each record is an
    /// isolated write whose stored content is the encoding of its old value.
    /// Used by the random-data studies (Figures 1, 2), where there is no
    /// reuse.
    pub fn run_isolated_shard(
        &self,
        codec: &dyn LineCodec,
        trace: impl IntoTraceSource,
        shard: usize,
        shards: usize,
    ) -> Vec<BankStats> {
        self.run_lanes(codec, trace.into_trace_source(), shard, shards, Tracking::Isolated)
    }

    /// The lane engine behind every entry point: streams the source, routes
    /// each record to its bank lane (creating lanes on demand), and returns
    /// the non-empty lanes of this shard in ascending bank order.
    fn run_lanes(
        &self,
        codec: &dyn LineCodec,
        mut source: impl TraceSource,
        shard: usize,
        shards: usize,
        tracking: Tracking,
    ) -> Vec<BankStats> {
        let shards = shards.max(1);
        let organization = MemoryOrganization::new(&self.config);
        let encoder = codec.encoder(&self.config.energy);
        let mut lanes: Vec<Option<BankLane>> = Vec::new();
        lanes.resize_with(organization.total_banks(), || None);
        for record in &mut source {
            let bank = organization.bank_index(record.address);
            if bank % shards != shard {
                continue;
            }
            let lane = lanes[bank].get_or_insert_with(|| BankLane::new(self.options.seed, bank));
            lane.feed(codec, encoder.as_ref(), &record, &self.config, &self.options, tracking);
        }
        lanes
            .into_iter()
            .enumerate()
            .filter_map(|(bank, lane)| lane.map(|lane| (bank, lane.stats)))
            .collect()
    }
}

impl Default for Simulator {
    fn default() -> Simulator {
        Simulator::new()
    }
}

/// A long-lived, incrementally fed simulation: the session-friendly face of
/// the per-bank lane core.
///
/// Where [`Simulator::run`] consumes a whole [`TraceSource`] and returns, a
/// `SimulatorSession` owns its codec, the codec's prepared [`LineEncoder`]
/// (built once, when the session opens) and its bank lanes *across calls*:
/// records arrive one at a time (a memory service's request stream), each
/// is routed to its bank lane exactly as the batch runner would route it,
/// and [`SimulatorSession::stats`] can be taken at any point without
/// disturbing the stored state.
///
/// **Equivalence guarantee:** feeding the records of a trace through
/// [`write`](SimulatorSession::write) in trace order produces statistics
/// byte-identical to [`Simulator::run`] over the same trace with the same
/// options — lanes are keyed by bank, per-lane arrival order is the trace
/// order, and per-lane RNG streams derive only from `(seed, bank)`. Records
/// of *different* banks may even be fed in any interleaving (lanes never
/// interact). The serve soak test pins this end to end over a live socket.
///
/// **Degraded mode:** [`set_degraded`](SimulatorSession::set_degraded) sheds
/// integrity verification and disturbance sampling — the two pieces of work
/// that do not affect energy/endurance accounting — so an overloaded service
/// can drain queues faster at an explicit, observable accuracy cost. While
/// degraded, disturbance RNG draws are skipped entirely; re-enabling restores
/// full accounting but the sampled-disturbance stream will differ from a
/// never-degraded run (energy and endurance numbers are RNG-free and remain
/// exact).
pub struct SimulatorSession {
    codec: Box<dyn LineCodec>,
    encoder: Box<dyn LineEncoder>,
    config: PcmConfig,
    options: SimulationOptions,
    organization: MemoryOrganization,
    lanes: Vec<Option<BankLane>>,
    workload: String,
    writes: u64,
    degraded: bool,
}

impl Simulator {
    /// Opens a long-lived session owning `codec`, labelled `workload` in its
    /// statistics. The session inherits this simulator's configuration and
    /// options.
    pub fn session(
        &self,
        codec: Box<dyn LineCodec>,
        workload: impl Into<String>,
    ) -> SimulatorSession {
        let organization = MemoryOrganization::new(&self.config);
        let mut lanes: Vec<Option<BankLane>> = Vec::new();
        lanes.resize_with(organization.total_banks(), || None);
        SimulatorSession {
            encoder: codec.encoder(&self.config.energy),
            codec,
            config: self.config.clone(),
            options: self.options.clone(),
            organization,
            lanes,
            workload: workload.into(),
            writes: 0,
            degraded: false,
        }
    }
}

impl SimulatorSession {
    /// The options in effect for the next write, with degraded mode's shed
    /// work applied.
    fn effective_options(&self) -> SimulationOptions {
        if self.degraded {
            SimulationOptions {
                verify_integrity: false,
                sample_disturbance: false,
                ..self.options.clone()
            }
        } else {
            self.options.clone()
        }
    }

    /// Feeds one write record to its bank lane.
    pub fn write(&mut self, record: &WriteRecord) {
        let bank = self.organization.bank_index(record.address);
        let seed = self.options.seed;
        let options = self.effective_options();
        let lane = self.lanes[bank].get_or_insert_with(|| BankLane::new(seed, bank));
        let (codec, encoder) = (self.codec.as_ref(), self.encoder.as_ref());
        lane.feed(codec, encoder, record, &self.config, &options, Tracking::Stored);
        self.writes += 1;
    }

    /// Enables or disables degraded mode (shed verify-integrity and
    /// disturbance sampling; see the type docs for the accuracy contract).
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// Whether the session is currently shedding optional work.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Number of records fed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The codec this session encodes with.
    pub fn codec(&self) -> &dyn LineCodec {
        self.codec.as_ref()
    }

    /// The session's PCM configuration.
    pub fn config(&self) -> &PcmConfig {
        &self.config
    }

    /// The session's simulation options.
    pub fn options(&self) -> &SimulationOptions {
        &self.options
    }

    /// The flat bank index `address` routes to.
    pub fn bank_index(&self, address: u64) -> usize {
        self.organization.bank_index(address)
    }

    /// Total number of banks in the session's organisation.
    pub fn total_banks(&self) -> usize {
        self.organization.total_banks()
    }

    /// The per-bank partial statistics accumulated so far (non-empty lanes in
    /// ascending bank order), cloned without disturbing the stored state.
    pub fn bank_stats(&self) -> Vec<BankStats> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(bank, lane)| lane.as_ref().map(|lane| (bank, lane.stats.clone())))
            .collect()
    }

    /// The session's aggregated statistics so far — byte-identical to what
    /// [`Simulator::run`] would return for the records fed to date.
    pub fn stats(&self) -> SchemeStats {
        merge_bank_stats(
            self.codec.name(),
            &self.workload,
            self.organization.total_banks(),
            self.bank_stats(),
        )
    }
}

/// Whether lanes track physically stored lines across writes or treat every
/// record as an isolated write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tracking {
    Stored,
    Isolated,
}

/// One bank's private simulation state: stored lines, statistics and RNG.
#[derive(Debug)]
struct BankLane {
    stats: SchemeStats,
    rng: StdRng,
    stored: HashMap<u64, PhysicalLine>,
}

impl BankLane {
    fn new(base_seed: u64, bank: usize) -> BankLane {
        BankLane {
            stats: SchemeStats::default(),
            rng: StdRng::seed_from_u64(derive_bank_seed(base_seed, bank)),
            stored: HashMap::new(),
        }
    }

    /// Simulates one record: encodes its old value over the codec's
    /// initial line when the lane holds nothing for the address (or tracks
    /// nothing) and its new value over the stored content; then accounts the
    /// differential-write energy, sampled disturbance, the integrity check
    /// and the statistics. The new line replaces the stored one when the
    /// lane tracks content.
    fn feed(
        &mut self,
        codec: &dyn LineCodec,
        encoder: &dyn LineEncoder,
        record: &WriteRecord,
        config: &PcmConfig,
        options: &SimulationOptions,
        tracking: Tracking,
    ) {
        let first_touch = || encoder.encode(&record.old, &codec.initial_line());
        let old = match tracking {
            Tracking::Stored => self.stored.remove(&record.address).unwrap_or_else(first_touch),
            Tracking::Isolated => first_touch(),
        };
        let new = encoder.encode(&record.new, &old);
        let outcome = differential_write(&old, &new, &config.energy);
        let disturbance = if options.sample_disturbance {
            evaluate_disturbance(&old, &new, &config.disturbance, &mut self.rng)
        } else {
            wlcrc_pcm::disturb::DisturbanceOutcome::default()
        };
        // Every codec returns exactly `encoded_cells()` cells, so the length
        // test decides and the class scan never runs: every write counts as
        // encoded, raw-fallback lines included. Counting only lines stored
        // in an encoded format would change the number, so it waits for a
        // salt bump.
        let encoded = match tracking {
            Tracking::Stored => codec.encoded_cells() == new.len() || new.aux_cells() > 0,
            Tracking::Isolated => true,
        };
        let integrity_ok =
            if options.verify_integrity { codec.decode(&new) == record.new } else { true };
        self.stats.record(outcome, disturbance, encoded, integrity_ok);
        if tracking == Tracking::Stored {
            self.stored.insert(record.address, new);
        }
    }
}

/// Derives a bank lane's disturbance-sampling seed from the run seed and the
/// flat bank index only (SplitMix64 finaliser for avalanche), so the stream a
/// bank sees is independent of which shard — or how many shards — process the
/// trace.
fn derive_bank_seed(base: u64, bank: usize) -> u64 {
    let mut h = base ^ (bank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Merges per-bank partial statistics (from one or many shards of the same
/// run) into the run's [`SchemeStats`]: lanes are merged in ascending bank
/// order — the one canonical order, whatever the shard count — and the
/// per-bank write counts are recorded in
/// [`bank_writes`](SchemeStats::bank_writes) (length `total_banks`).
pub fn merge_bank_stats(
    scheme: &str,
    workload: &str,
    total_banks: usize,
    lanes: impl IntoIterator<Item = BankStats>,
) -> SchemeStats {
    let mut lanes: Vec<BankStats> = lanes.into_iter().collect();
    lanes.sort_by_key(|(bank, _)| *bank);
    let mut merged = SchemeStats::new(scheme, workload);
    merged.bank_writes = vec![0; total_banks];
    for (bank, stats) in &lanes {
        debug_assert!(*bank < total_banks, "bank {bank} out of range {total_banks}");
        merged.merge(stats);
        merged.bank_writes[*bank] += stats.writes;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlcrc_pcm::codec::RawCodec;
    use wlcrc_pcm::line::MemoryLine;
    use wlcrc_trace::{Benchmark, Trace, TraceGenerator, TraceStream};

    #[test]
    fn identical_rewrite_costs_nothing() {
        let sim = Simulator::new();
        let codec = RawCodec::new();
        let line = MemoryLine::from_words([0xABCD; 8]);
        let mut trace = Trace::new("t");
        trace.push(WriteRecord::new(0, line, line));
        let stats = sim.run(&codec, &trace);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.total_energy_pj(), 0.0);
        assert_eq!(stats.mean_updated_cells(), 0.0);
    }

    #[test]
    fn stored_state_carries_across_writes() {
        // Second write to the same address must be differenced against the
        // first write's content, not against the trace's old value.
        let sim = Simulator::new();
        let codec = RawCodec::new();
        let a = MemoryLine::from_words([1; 8]);
        let b = MemoryLine::from_words([2; 8]);
        let mut trace = Trace::new("t");
        trace.push(WriteRecord::new(0, MemoryLine::ZERO, a));
        trace.push(WriteRecord::new(0, a, a)); // no change
        trace.push(WriteRecord::new(0, a, b));
        let stats = sim.run(&codec, &trace);
        assert_eq!(stats.writes, 3);
        // The middle write must be free.
        assert!(stats.total_energy_pj() > 0.0);
        let baseline_single = {
            let sim2 = Simulator::new();
            let mut t = Trace::new("t2");
            t.push(WriteRecord::new(0, MemoryLine::ZERO, a));
            sim2.run(&codec, &t).total_energy_pj()
        };
        // Energy of the three writes is the energy of write 1 plus write 3
        // (write 2 is free); it must exceed a single write's energy.
        assert!(stats.total_energy_pj() > baseline_single * 0.99);
    }

    #[test]
    fn integrity_is_verified_for_real_traces() {
        let sim = Simulator::new();
        let codec = RawCodec::new();
        let mut generator = TraceGenerator::new(Benchmark::Gcc.profile(), 5);
        let trace = generator.generate(300);
        let stats = sim.run(&codec, &trace);
        assert_eq!(stats.integrity_failures, 0);
        assert_eq!(stats.writes, 300);
        assert!(stats.mean_energy_pj() > 0.0);
    }

    #[test]
    fn isolated_run_matches_record_count() {
        let sim = Simulator::new();
        let codec = RawCodec::new();
        let records = (0..50).map(|i| {
            WriteRecord::new(0, MemoryLine::from_words([i; 8]), MemoryLine::from_words([i + 1; 8]))
        });
        let trace = Trace::from_records("isolated", records.collect());
        let lanes = sim.run_isolated_shard(&codec, &trace, 0, 1);
        let stats = merge_bank_stats("Baseline", "isolated", sim.config().total_banks(), lanes);
        assert_eq!(stats.writes, 50);
        assert_eq!(stats.integrity_failures, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let codec = RawCodec::new();
        let mut generator = TraceGenerator::new(Benchmark::Mcf.profile(), 9);
        let trace = generator.generate(200);
        let a = Simulator::new().run(&codec, &trace);
        let b = Simulator::new().run(&codec, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_run_is_byte_identical_to_materialised_run() {
        let codec = RawCodec::new();
        for b in [Benchmark::Gcc, Benchmark::Lbm, Benchmark::Canneal] {
            let trace = TraceGenerator::new(b.profile(), 3).generate(150);
            let materialised = Simulator::new().run(&codec, &trace);
            let streamed = Simulator::new().run(&codec, TraceStream::new(b.profile(), 3, 150));
            assert_eq!(materialised, streamed, "{b:?}");
        }
    }

    #[test]
    fn shard_union_is_byte_identical_to_sequential_run() {
        let codec = RawCodec::new();
        let trace = TraceGenerator::new(Benchmark::Soplex.profile(), 11).generate(250);
        let sim = Simulator::new();
        let sequential = sim.run(&codec, &trace);
        for shards in [1usize, 3, 4, 7] {
            let mut lanes: Vec<BankStats> = Vec::new();
            for shard in 0..shards {
                lanes.extend(sim.run_shard(&codec, &trace, shard, shards));
            }
            let merged =
                merge_bank_stats(codec.name(), &trace.workload, sim.config().total_banks(), lanes);
            assert_eq!(sequential, merged, "{shards} shards");
        }
    }

    #[test]
    fn bank_writes_cover_the_whole_trace() {
        let codec = RawCodec::new();
        let trace = TraceGenerator::new(Benchmark::Astar.profile(), 2).generate(300);
        let stats = Simulator::new().run(&codec, &trace);
        assert_eq!(stats.bank_writes.len(), Simulator::new().config().total_banks());
        assert_eq!(stats.bank_writes.iter().sum::<u64>(), stats.writes);
        assert!(stats.banks_touched() > 1, "writes must spread over banks");
        assert!(stats.write_imbalance() >= 1.0);
    }

    #[test]
    fn session_writes_match_batch_run_byte_for_byte() {
        let sim = Simulator::new();
        let trace = TraceGenerator::new(Benchmark::Gcc.profile(), 7).generate(300);
        let batch = sim.run(&RawCodec::new(), &trace);
        // Record by record.
        let mut session = sim.session(Box::new(RawCodec::new()), trace.workload.clone());
        for record in trace.iter() {
            session.write(record);
        }
        assert_eq!(session.stats(), batch);
        assert_eq!(session.writes(), 300);
        // Uneven chunks, each regrouped by bank the way the serve drain
        // feeds its per-bank queues: lanes never interact, so only the
        // per-bank order matters.
        let mut regrouped = sim.session(Box::new(RawCodec::new()), trace.workload.clone());
        let records: Vec<WriteRecord> = trace.iter().copied().collect();
        for chunk in records.chunks(37) {
            let mut chunk = chunk.to_vec();
            chunk.sort_by_key(|record| regrouped.bank_index(record.address));
            for record in &chunk {
                regrouped.write(record);
            }
        }
        assert_eq!(regrouped.stats(), batch);
    }

    #[test]
    fn session_stats_are_reusable_mid_stream() {
        let sim = Simulator::new();
        let trace = TraceGenerator::new(Benchmark::Mcf.profile(), 3).generate(120);
        let records: Vec<WriteRecord> = trace.iter().copied().collect();
        let mut session = sim.session(Box::new(RawCodec::new()), "mcf");
        records[..60].iter().for_each(|record| session.write(record));
        let midway = session.stats();
        assert_eq!(midway.writes, 60);
        records[60..].iter().for_each(|record| session.write(record));
        let full = session.stats();
        assert_eq!(full.writes, 120);
        // Taking stats mid-stream must not have perturbed the stored state.
        let mut straight = sim.session(Box::new(RawCodec::new()), "mcf");
        records.iter().for_each(|record| straight.write(record));
        assert_eq!(full, straight.stats());
    }

    #[test]
    fn degraded_mode_sheds_sampling_but_keeps_energy_exact() {
        let sim = Simulator::new();
        let trace = TraceGenerator::new(Benchmark::Lbm.profile(), 5).generate(100);
        let records: Vec<WriteRecord> = trace.iter().copied().collect();
        let mut normal = sim.session(Box::new(RawCodec::new()), "lbm");
        records.iter().for_each(|record| normal.write(record));
        let mut degraded = sim.session(Box::new(RawCodec::new()), "lbm");
        degraded.set_degraded(true);
        assert!(degraded.degraded());
        records.iter().for_each(|record| degraded.write(record));
        let n = normal.stats();
        let d = degraded.stats();
        // Energy and endurance are RNG-free and must be identical; sampled
        // disturbance and expected-disturbance accounting are shed.
        assert_eq!(d.writes, n.writes);
        assert_eq!(d.data_energy_pj, n.data_energy_pj);
        assert_eq!(d.data_cells_updated, n.data_cells_updated);
        assert_eq!(d.expected_disturb_errors, 0.0);
        assert_eq!(d.data_disturb_errors + d.aux_disturb_errors, 0);
    }

    #[test]
    fn disabling_disturbance_sampling_zeroes_disturb_counters() {
        let sim = Simulator::new().with_options(SimulationOptions {
            sample_disturbance: false,
            ..SimulationOptions::default()
        });
        let trace = TraceGenerator::new(Benchmark::Gcc.profile(), 9).generate(80);
        let stats = sim.run(&RawCodec::new(), &trace);
        assert_eq!(stats.writes, 80);
        assert_eq!(stats.data_disturb_errors + stats.aux_disturb_errors, 0);
        assert_eq!(stats.expected_disturb_errors, 0.0);
        assert!(stats.total_energy_pj() > 0.0, "energy accounting must be unaffected");
    }

    #[test]
    fn bank_seeds_separate_banks_and_base_seeds() {
        let base = derive_bank_seed(1, 0);
        assert_ne!(base, derive_bank_seed(1, 1), "bank must matter");
        assert_ne!(base, derive_bank_seed(2, 0), "base seed must matter");
    }
}
