//! The typed layer between the experiment engine and the persistent result
//! store (`wlcrc_store`): cell cache keys and `SchemeStats` records.
//!
//! # What a cell key must capture
//!
//! A cached result may only be served when *every* input that influences the
//! cell's bytes is identical. The key therefore contains:
//!
//! * the **simulator version salt** — a constant bumped whenever simulator
//!   behaviour changes (see [`SIMULATOR_VERSION_SALT`]); old entries then
//!   live at addresses no new run ever derives, so stale results can never
//!   be served. Bump it in the same commit as the behaviour change;
//! * the **scheme**: its display label *and* a behavioral codec fingerprint
//!   ([`codec_fingerprint`]) — the label alone is not trusted, because two
//!   codecs can share a name (e.g. `RawCodec::with_mapping`);
//! * the **workload identity**: the full self-describing profile (plus the
//!   derived stream seed and scaled trace length the engine will actually
//!   generate), or the content digest of a trace the plan was given;
//! * the **configuration**: the entire `PcmConfig` (energy model,
//!   disturbance model, line/bank geometry);
//! * the **seeds**: the plan's base seed and the derived per-cell
//!   disturbance seed;
//! * the **simulation options**: integrity verification and isolated mode.
//!
//! Worker count and intra-trace shard count are deliberately *absent*: the
//! engine guarantees results are byte-identical across both, so they must
//! not fragment the cache.
//!
//! # Plan-level keys
//!
//! On top of per-cell entries, the engine caches a plan's *whole
//! [`ExperimentResult`]* under a [`PlanKey`]: the run metadata (base seed,
//! trace length, grid shape) plus the ordered fingerprints of every cell
//! key in the grid. A plan key therefore changes exactly when some cell key
//! changes — salt bumps, codec edits, workload or config changes all
//! propagate through the cell fingerprints — while inheriting the same
//! worker/shard independence. A fully warm rerun is then **one** store read
//! instead of N cell reads.
//!
//! # Key bytes kept from the config and seed axes
//!
//! A plan once carried a config axis and a seed axis; it now runs one
//! config and one seed. The keys keep the bytes they had for such a plan,
//! so every entry stored before keeps its address: [`CellKey::to_value`]
//! still writes `config_index: 0`, and [`PlanKey::to_value`] still writes
//! `config_index: 0` and `seeds: [seed]`.

use crate::experiment::ExperimentResult;
use crate::stats::SchemeStats;
use serde::{Deserialize, Serialize, Value};
use wlcrc_pcm::codec::LineCodec;
use wlcrc_pcm::config::PcmConfig;
use wlcrc_pcm::line::MemoryLine;
use wlcrc_store::{Claim, Fingerprint, ResultStore, StableHasher};

/// The simulator-behaviour version salt baked into every cell key.
///
/// **Bump this string in any commit that changes what the simulator, the
/// trace generators or any codec computes** (energy accounting, RNG
/// derivation, candidate selection, ...). Entries written under the old salt
/// are then unreachable — recomputed, never served stale. Purely structural
/// changes (new fields that don't alter existing numbers) do not need a
/// bump, because the wire-level key comparison already rejects entries whose
/// key shape changed.
pub const SIMULATOR_VERSION_SALT: &str = "wlcrc-sim-v1";

/// The workload half of a cell key: what the cell will actually replay.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadIdentity {
    /// A profile workload the engine generates a trace from: the full
    /// profile, the exact stream seed and the scaled record count.
    Profile {
        /// The profile's self-describing identity value.
        profile: Value,
        /// The trace-generation seed the stream is built with.
        stream_seed: u64,
        /// The scaled number of records the stream yields.
        scaled_lines: u64,
    },
    /// A caller-provided trace replayed verbatim, identified by content
    /// digest.
    Trace {
        /// The trace's workload name.
        name: String,
        /// [`wlcrc_trace::Trace::content_fingerprint`].
        digest: Fingerprint,
    },
}

impl WorkloadIdentity {
    fn to_value(&self) -> Value {
        match self {
            WorkloadIdentity::Profile { profile, stream_seed, scaled_lines } => Value::Record {
                name: "WorkloadIdentity::Profile".to_string(),
                fields: vec![
                    ("profile".to_string(), profile.clone()),
                    ("stream_seed".to_string(), Value::U64(*stream_seed)),
                    ("scaled_lines".to_string(), Value::U64(*scaled_lines)),
                ],
            },
            WorkloadIdentity::Trace { name, digest } => Value::record(
                "WorkloadIdentity::Trace",
                vec![("name", Value::Str(name.clone())), ("digest", Value::Str(digest.to_hex()))],
            ),
        }
    }
}

/// Everything that addresses one grid cell in the store.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Version salt ([`SIMULATOR_VERSION_SALT`] unless overridden).
    pub salt: String,
    /// The scheme's display label.
    pub scheme: String,
    /// Behavioral codec fingerprint ([`codec_fingerprint`]).
    pub codec: Fingerprint,
    /// The workload the cell replays.
    pub workload: WorkloadIdentity,
    /// The full machine configuration.
    pub config: PcmConfig,
    /// The plan's base seed for this cell.
    pub base_seed: u64,
    /// The derived per-cell disturbance-sampling seed.
    pub cell_seed: u64,
    /// Whether decode-vs-original integrity verification runs.
    pub verify_integrity: bool,
    /// Whether records are simulated without address tracking.
    pub isolated: bool,
}

impl CellKey {
    /// The self-describing key value the store addresses this cell by. Its
    /// `config_index` is always 0 (see the module docs).
    pub fn to_value(&self) -> Value {
        Value::Record {
            name: "CellKey".to_string(),
            fields: vec![
                ("salt".to_string(), Value::Str(self.salt.clone())),
                ("scheme".to_string(), Value::Str(self.scheme.clone())),
                ("codec".to_string(), Value::Str(self.codec.to_hex())),
                ("workload".to_string(), self.workload.to_value()),
                ("config".to_string(), self.config.to_value()),
                ("config_index".to_string(), Value::U64(0)),
                ("base_seed".to_string(), Value::U64(self.base_seed)),
                ("cell_seed".to_string(), Value::U64(self.cell_seed)),
                ("verify_integrity".to_string(), Value::Bool(self.verify_integrity)),
                ("isolated".to_string(), Value::Bool(self.isolated)),
            ],
        }
    }
}

/// Everything that addresses a plan's [`ExperimentResult`] in the store: the
/// run metadata plus the ordered fingerprints of every cell key in the grid.
/// See the module docs, "Plan-level keys".
#[derive(Debug, Clone, PartialEq)]
pub struct PlanKey {
    /// Version salt (shared with the cell keys the fingerprints came from).
    pub salt: String,
    /// The plan's base seed.
    pub seed: u64,
    /// The plan's unscaled trace length per workload.
    pub lines_per_workload: u64,
    /// Workload-axis length (fixes how the cell fingerprints factor).
    pub workloads: u64,
    /// Scheme-axis length.
    pub schemes: u64,
    /// The fingerprint of every cell key in the grid, in grid order
    /// (workload-major, then scheme).
    pub cells: Vec<Fingerprint>,
}

impl PlanKey {
    /// The self-describing key value the store addresses this plan by. Its
    /// `config_index` is always 0 and its `seeds` is `[seed]` (see the module
    /// docs).
    pub fn to_value(&self) -> Value {
        Value::Record {
            name: "PlanKey".to_string(),
            fields: vec![
                ("salt".to_string(), Value::Str(self.salt.clone())),
                ("config_index".to_string(), Value::U64(0)),
                ("seeds".to_string(), Value::Seq(vec![Value::U64(self.seed)])),
                ("lines_per_workload".to_string(), Value::U64(self.lines_per_workload)),
                ("workloads".to_string(), Value::U64(self.workloads)),
                ("schemes".to_string(), Value::U64(self.schemes)),
                (
                    "cells".to_string(),
                    Value::Seq(self.cells.iter().map(|fp| Value::Str(fp.to_hex())).collect()),
                ),
            ],
        }
    }

    /// The store fingerprint of this plan key.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_value(&self.to_value())
    }
}

/// Looks up a plan's cached result. Any miss reason — absent entry, corrupt
/// file, wrong salt, undecodable payload — yields `None`.
pub fn load_plan(store: &ResultStore, key: &PlanKey) -> Option<ExperimentResult> {
    let payload = store.get(&key.to_value())?;
    ExperimentResult::from_value(&payload).ok()
}

/// Writes a plan's result back to the store; failures are swallowed, like
/// [`save_cell`].
pub fn save_plan(store: &ResultStore, key: &PlanKey, result: &ExperimentResult) {
    let _ = store.put(&key.to_value(), &result.to_value());
}

/// A behavioral fingerprint of a codec: its name, geometry and the physical
/// lines it produces for a fixed probe sequence.
///
/// Two codec instances that answer the probes identically are — for caching
/// purposes — treated as the same scheme. The probes chain four
/// deterministic data patterns (zeros, ones, and two fixed pseudo-random
/// lines) through `encode` **under the cell's own energy model** (candidate
/// selection is cost-driven, so two codecs can agree at one energy table
/// and diverge at another — the probe must use the energies the cell will
/// actually simulate with), covering the initial-line geometry, the symbol
/// mapping, candidate selection and auxiliary encoding; a codec whose
/// behaviour differs anywhere on real content almost surely differs on one
/// of these probes. This leans on the [`LineCodec`] contract that `encode`
/// is a pure function of `(data, old, energy)` — a codec violating that
/// contract cannot be cached correctly by *any* key.
pub fn codec_fingerprint(
    codec: &dyn LineCodec,
    energy: &wlcrc_pcm::energy::EnergyModel,
) -> Fingerprint {
    let mut hasher = StableHasher::new();
    hasher.update(codec.name().as_bytes());
    hasher.update(&[0xFF]);
    hasher.update(&(codec.encoded_cells() as u64).to_le_bytes());
    let mut old = codec.initial_line();
    hash_line(&mut hasher, &old);
    // SplitMix64-expanded probe words: fixed constants, never RNG.
    let probes = [
        MemoryLine::ZERO,
        MemoryLine::from_words([u64::MAX; 8]),
        MemoryLine::from_words(splitmix_words(0x9E37_79B9_7F4A_7C15)),
        MemoryLine::from_words(splitmix_words(0xD1B5_4A32_D192_ED03)),
    ];
    for probe in &probes {
        old = codec.encode(probe, &old, energy);
        hash_line(&mut hasher, &old);
    }
    hasher.finish()
}

fn splitmix_words(mut state: u64) -> [u64; 8] {
    let mut words = [0u64; 8];
    for word in &mut words {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *word = z ^ (z >> 31);
    }
    words
}

fn hash_line(hasher: &mut StableHasher, line: &wlcrc_pcm::physical::PhysicalLine) {
    for (_, state, class) in line.iter() {
        let class_bit = match class {
            wlcrc_pcm::physical::CellClass::Data => 0u8,
            wlcrc_pcm::physical::CellClass::Aux => 4u8,
        };
        hasher.update(&[state.index() as u8 | class_bit]);
    }
}

/// Looks up a cell's cached statistics. Any miss reason — absent entry,
/// corrupt file, wrong salt, undecodable payload — yields `None`.
pub fn load_cell(store: &ResultStore, key: &CellKey) -> Option<SchemeStats> {
    let payload = store.get(&key.to_value())?;
    SchemeStats::from_value(&payload).ok()
}

/// Writes a cell's statistics back to the store, through the cell's claim
/// when this process holds one (see [`ResultStore::put_claimed`]). Failures
/// are swallowed: a full disk or permission problem costs future
/// recomputation, never the current run.
pub fn save_cell(store: &ResultStore, key: &CellKey, stats: &SchemeStats, claim: Option<Claim>) {
    let _ = store.put_claimed(&key.to_value(), &stats.to_value(), claim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlcrc_pcm::codec::RawCodec;
    use wlcrc_pcm::mapping::SymbolMapping;
    use wlcrc_pcm::state::CellState;

    #[test]
    fn codec_fingerprints_distinguish_behaviour_not_labels() {
        let paper = wlcrc_pcm::energy::EnergyModel::paper_default();
        let default = codec_fingerprint(&RawCodec::new(), &paper);
        assert_eq!(default, codec_fingerprint(&RawCodec::new(), &paper), "deterministic");
        // Same label ("Baseline"), different symbol mapping: the probes see
        // different stored states, so the cache must not alias them.
        let remapped = RawCodec::with_mapping(SymbolMapping::from_states([
            CellState::S4,
            CellState::S3,
            CellState::S2,
            CellState::S1,
        ]));
        assert_eq!(RawCodec::new().name(), remapped.name());
        assert_ne!(default, codec_fingerprint(&remapped, &paper));
    }

    #[test]
    fn cell_keys_are_sensitive_to_every_field() {
        let key = CellKey {
            salt: SIMULATOR_VERSION_SALT.to_string(),
            scheme: "Baseline".to_string(),
            codec: codec_fingerprint(
                &RawCodec::new(),
                &wlcrc_pcm::energy::EnergyModel::paper_default(),
            ),
            workload: WorkloadIdentity::Trace { name: "t".to_string(), digest: Fingerprint(42) },
            config: PcmConfig::table_ii(),
            base_seed: 1,
            cell_seed: 2,
            verify_integrity: true,
            isolated: false,
        };
        let base_fp = Fingerprint::of_value(&key.to_value());
        let mut salted = key.clone();
        salted.salt = "wlcrc-sim-v2".to_string();
        assert_ne!(base_fp, Fingerprint::of_value(&salted.to_value()), "salt bump must move");
        let mut reseeded = key.clone();
        reseeded.cell_seed = 3;
        assert_ne!(base_fp, Fingerprint::of_value(&reseeded.to_value()));
        let mut reconfigured = key.clone();
        reconfigured.config.energy =
            wlcrc_pcm::energy::EnergyModel::with_intermediate_states(50.0, 80.0);
        assert_ne!(base_fp, Fingerprint::of_value(&reconfigured.to_value()));
        let mut unverified = key.clone();
        unverified.verify_integrity = false;
        assert_ne!(base_fp, Fingerprint::of_value(&unverified.to_value()));
    }

    #[test]
    fn stats_round_trip_through_the_store_payload() {
        let mut stats = SchemeStats::new("X", "w");
        stats.writes = 7;
        stats.data_energy_pj = f64::from_bits(0x4093_4A45_8000_0001); // an awkward mantissa
        stats.aux_energy_pj = 0.1 + 0.2; // 0.30000000000000004
        stats.expected_disturb_errors = f64::from_bits(0x3FF0_0000_0000_0001);
        stats.bank_writes = vec![3, 0, 4];
        let back = SchemeStats::from_value(&stats.to_value()).unwrap();
        assert_eq!(back, stats);
        assert_eq!(back.aux_energy_pj.to_bits(), stats.aux_energy_pj.to_bits());
    }
}
