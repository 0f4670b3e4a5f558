//! The salt rule, enforced by `cargo test`.
//!
//! Results in the persistent store are keyed by
//! `wlcrc_memsim::SIMULATOR_VERSION_SALT`, so a change to any simulated
//! number must bump the salt, or the store keeps serving stale entries. This
//! test runs a small fixed grid, fingerprints every field of every cell
//! bit-exactly, and pins the `(salt, fingerprint)` pair:
//!
//! * a change to the numbers without a salt bump fails here;
//! * a salt bump without a new golden fingerprint fails here too.
//!
//! When a change moves the numbers on purpose, bump the salt and replace
//! [`GOLDEN`] with the pair this test prints.

use wlcrc_repro::memsim::SIMULATOR_VERSION_SALT;
use wlcrc_repro::trace::Benchmark;
use wlcrc_repro::{standard_factories, ExperimentPlan, SchemeStats, StableHasher, WorkloadProfile};

/// The committed `(SIMULATOR_VERSION_SALT, grid fingerprint)` pair.
const GOLDEN: (&str, &str) = ("wlcrc-sim-v1", "ff6226c6e88dceed23963f68bbe1de0d");

/// 8 standard schemes × (two biased SPEC-like profiles + uniformly random
/// data), 40 lines, seed 7, one worker thread, no result store.
fn golden_grid() -> Vec<SchemeStats> {
    let profiles = vec![
        WorkloadProfile::for_benchmark(Benchmark::Gcc),
        WorkloadProfile::for_benchmark(Benchmark::Mcf),
        WorkloadProfile::random_data(64),
    ];
    let mut plan = ExperimentPlan::new()
        .seed(7)
        .lines_per_workload(40)
        .workloads(profiles)
        .threads(1)
        .intra_trace_shards(1)
        .store_enabled(false);
    for (id, factory) in standard_factories() {
        plan = plan.scheme_factory(id.label(), factory);
    }
    plan.run().cells
}

/// Absorbs every field of `stats`; f64 fields by their bit pattern. The
/// destructuring makes a new `SchemeStats` field a compile error here.
fn absorb(hasher: &mut StableHasher, stats: &SchemeStats) {
    let SchemeStats {
        scheme,
        workload,
        writes,
        data_energy_pj,
        aux_energy_pj,
        data_cells_updated,
        aux_cells_updated,
        data_disturb_errors,
        aux_disturb_errors,
        expected_disturb_errors,
        max_disturb_errors_per_write,
        encoded_lines,
        integrity_failures,
        bank_writes,
    } = stats;
    for text in [scheme, workload] {
        hasher.update(&(text.len() as u64).to_le_bytes()).update(text.as_bytes());
    }
    for value in [data_energy_pj, aux_energy_pj, expected_disturb_errors] {
        hasher.update(&value.to_bits().to_le_bytes());
    }
    for count in [
        writes,
        data_cells_updated,
        aux_cells_updated,
        data_disturb_errors,
        aux_disturb_errors,
        max_disturb_errors_per_write,
        encoded_lines,
        integrity_failures,
    ] {
        hasher.update(&count.to_le_bytes());
    }
    hasher.update(&(bank_writes.len() as u64).to_le_bytes());
    for count in bank_writes {
        hasher.update(&count.to_le_bytes());
    }
}

#[test]
fn simulated_numbers_match_the_salt() {
    let cells = golden_grid();
    assert_eq!(cells.len(), 24, "8 schemes x 3 workloads");
    assert!(cells.iter().all(|cell| cell.writes > 0 && cell.integrity_failures == 0));
    let mut hasher = StableHasher::new();
    for cell in &cells {
        absorb(&mut hasher, cell);
    }
    let actual = (SIMULATOR_VERSION_SALT, hasher.finish().to_hex());
    assert_eq!(
        (actual.0, actual.1.as_str()),
        GOLDEN,
        "simulated numbers or the salt changed: bump SIMULATOR_VERSION_SALT when the numbers \
         move on purpose and commit the new pair {actual:?}"
    );
}
