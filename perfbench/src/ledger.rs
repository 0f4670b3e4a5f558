//! The per-layer ledger of one simulated write.
//!
//! [`replay`] feeds one cell's records through the steps the simulator's
//! bank lane takes for every write, calling the program's public functions
//! in the same order, and reads the clock between steps. The time between
//! two readings is charged to one stage:
//!
//! * `trace_gen`: the trace generator yields the next record.
//! * `first_touch`: the first write to an address encodes the record's old
//!   value over a fresh line, standing in for what the array held.
//! * `encode`: the codec encodes the new value over the stored line.
//! * `diff_write`: differential-write accounting of energy and programmed
//!   cells.
//! * `disturb`: write-disturbance sampling.
//! * `verify_decode`: the integrity check decodes the new line.
//! * `lane`: bank routing, the stored-line map and the statistics
//!   accumulator.
//! * `merge`: once per cell, merging the bank lanes into its statistics.
//!
//! The stages add up to the whole replay, and each clock reading's own cost
//! lands in the stage it closes. The cell's statistics are then written to
//! a result store and read back, each timed on its own. The program is not
//! changed: the ledger times calls into it from here. Unlike the simulator,
//! the ledger seeds each lane's disturbance sampler from the cell's stream
//! seed, so sampled disturbance counts differ from the program's; [`agrees`]
//! compares everything else.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use wlcrc_repro::{
    differential_write, evaluate_disturbance, merge_bank_stats, LineCodec, MemoryOrganization,
    PcmConfig, PhysicalLine, ResultStore, SchemeStats, TraceStream, WorkloadProfile,
};

/// The stages in pipeline order, named as the per-layer metrics report them
/// (nanoseconds per simulated write).
pub const STAGES: [&str; 8] = [
    "trace_gen_ns",
    "first_touch_ns",
    "encode_ns",
    "diff_write_ns",
    "disturb_ns",
    "verify_decode_ns",
    "lane_ns",
    "merge_ns",
];
const TRACE_GEN: usize = 0;
const FIRST_TOUCH: usize = 1;
const ENCODE: usize = 2;
const DIFF_WRITE: usize = 3;
const DISTURB: usize = 4;
const VERIFY_DECODE: usize = 5;
const LANE: usize = 6;
const MERGE: usize = 7;

/// One grid cell as the ledger replays it: a codec over one profile's
/// record stream.
pub struct Cell {
    pub codec: Box<dyn LineCodec>,
    pub profile: WorkloadProfile,
    pub stream_seed: u64,
    pub lines: usize,
}

/// Stage and store times, summed over one pass across a workload's cells.
#[derive(Default)]
pub struct Pass {
    pub stages: [Duration; 8],
    pub writes: u64,
    pub cells: u64,
    pub store_put: Duration,
    pub store_get: Duration,
}

impl Pass {
    /// `time` in nanoseconds per simulated write.
    pub fn per_write(&self, time: Duration) -> f64 {
        time.as_nanos() as f64 / self.writes as f64
    }

    /// `time` in microseconds per cell.
    pub fn per_cell(&self, time: Duration) -> f64 {
        time.as_secs_f64() * 1e6 / self.cells as f64
    }
}

/// One bank's state, as the simulator's lane keeps it.
struct Lane {
    stored: HashMap<u64, PhysicalLine>,
    stats: SchemeStats,
    sampler: StdRng,
}

/// Charges the time since its last reading to a stage.
struct Clock(Instant);

impl Clock {
    fn charge(&mut self, stage: &mut Duration) {
        let now = Instant::now();
        *stage += now - self.0;
        self.0 = now;
    }
}

/// Replays `cell`, adding its times and counts to `pass`, and returns the
/// cell's statistics as read back from `store`; `None` when the store round
/// trip failed.
pub fn replay(
    cell: &Cell,
    config: &PcmConfig,
    store: &ResultStore,
    pass: &mut Pass,
) -> Option<SchemeStats> {
    let codec = cell.codec.as_ref();
    let energy = &config.energy;
    let organization = MemoryOrganization::new(config);
    let mut lanes: Vec<Option<Lane>> = (0..organization.total_banks()).map(|_| None).collect();
    let stages = &mut pass.stages;
    let mut clock = Clock(Instant::now());
    for record in TraceStream::new(cell.profile.clone(), cell.stream_seed, cell.lines) {
        clock.charge(&mut stages[TRACE_GEN]);
        let bank = organization.bank_index(record.address);
        let lane = lanes[bank].get_or_insert_with(|| Lane {
            stored: HashMap::new(),
            stats: SchemeStats::default(),
            sampler: StdRng::seed_from_u64(cell.stream_seed ^ bank as u64),
        });
        let stored = lane.stored.remove(&record.address);
        clock.charge(&mut stages[LANE]);
        let old = match stored {
            Some(line) => line,
            None => {
                let line = codec.encode(&record.old, &codec.initial_line(), energy);
                clock.charge(&mut stages[FIRST_TOUCH]);
                line
            }
        };
        let new = codec.encode(&record.new, &old, energy);
        clock.charge(&mut stages[ENCODE]);
        let outcome = differential_write(&old, &new, energy);
        clock.charge(&mut stages[DIFF_WRITE]);
        let disturbance = evaluate_disturbance(&old, &new, &config.disturbance, &mut lane.sampler);
        clock.charge(&mut stages[DISTURB]);
        let intact = codec.decode(&new) == record.new;
        clock.charge(&mut stages[VERIFY_DECODE]);
        // The simulator's rule for a line stored in the scheme's own format.
        let encoded = new.aux_cells() > 0 || codec.encoded_cells() == new.len();
        lane.stats.record(outcome, disturbance, encoded, intact);
        lane.stored.insert(record.address, new);
        drop(old);
        pass.writes += 1;
        clock.charge(&mut stages[LANE]);
    }
    let lanes = lanes.into_iter().enumerate().filter_map(|(bank, lane)| Some((bank, lane?.stats)));
    let merged =
        merge_bank_stats(codec.name(), &cell.profile.name, organization.total_banks(), lanes);
    clock.charge(&mut stages[MERGE]);
    pass.cells += 1;
    let key = Value::Str(format!("perfbench ledger {} {}", codec.name(), cell.profile.name));
    let written = store.put(&key, &merged.to_value()).is_ok();
    clock.charge(&mut pass.store_put);
    let read = store.get(&key);
    clock.charge(&mut pass.store_get);
    let read = SchemeStats::from_value(&read?).ok()?;
    (written && read == merged).then_some(read)
}

/// Whether the ledger's statistics for a cell match the program's in every
/// respect the disturbance sampler's random stream cannot change.
pub fn agrees(ledger: &SchemeStats, program: &SchemeStats) -> bool {
    ledger.writes == program.writes
        && ledger.integrity_failures == program.integrity_failures
        && ledger.bank_writes == program.bank_writes
        && ledger.total_energy_pj() == program.total_energy_pj()
        && ledger.mean_aux_energy_pj() == program.mean_aux_energy_pj()
        && ledger.mean_updated_cells() == program.mean_updated_cells()
        && ledger.mean_updated_aux_cells() == program.mean_updated_aux_cells()
}
