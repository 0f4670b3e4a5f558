//! Integration tests of the persistent result store against the full scheme
//! registry: cached results must be **byte-identical** to recomputation for
//! every combination of store state (disabled / cold / warm / partially
//! warm), worker count, intra-trace shard count and pipeline mode, and a
//! version-salt bump must force recomputation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use wlcrc_repro::memsim::{ExperimentPlan, ExperimentResult};
use wlcrc_repro::store::ResultStore;
use wlcrc_repro::trace::Benchmark;
use wlcrc_repro::wlcrc::schemes::standard_factories;

/// A scratch store directory under `target/tmp`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "store-cache-{}-{}-{}",
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

/// The full Figure 8 scheme registry over two workloads — every codec family
/// (baseline, flip-based, coset, compression-integrated) exercises the
/// serialized statistics, including the f64 energy sums the byte-identical
/// guarantee is most sensitive to.
fn registry_plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new()
        .seed(11)
        .lines_per_workload(30)
        .workload(Benchmark::Gcc.profile())
        .workload(Benchmark::Omnetpp.profile())
        .store_enabled(false);
    for (id, factory) in standard_factories() {
        plan = plan.scheme_factory(id.label(), factory);
    }
    plan
}

fn assert_bytes_equal(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(a, b, "{what}");
    // PartialEq on f64 admits -0.0 == 0.0; pin the energy bit patterns too.
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.data_energy_pj.to_bits(), y.data_energy_pj.to_bits(), "{what}");
        assert_eq!(x.aux_energy_pj.to_bits(), y.aux_energy_pj.to_bits(), "{what}");
        assert_eq!(
            x.expected_disturb_errors.to_bits(),
            y.expected_disturb_errors.to_bits(),
            "{what}"
        );
    }
}

#[test]
fn cached_results_are_byte_identical_across_store_states_workers_and_shards() {
    let scratch = Scratch::new("matrix");
    let disabled = registry_plan().threads(1).intra_trace_shards(1).run();

    // Cold: 1 worker, 1 shard populates the store.
    let cold = registry_plan()
        .store(&scratch.0)
        .store_readonly(false)
        .threads(1)
        .intra_trace_shards(1)
        .run();
    assert_bytes_equal(&disabled, &cold, "cold run (1 worker, 1 shard)");

    let store = ResultStore::open_read_only(&scratch.0);
    let entries = store.entries().len();
    assert_eq!(entries, 17, "8 schemes x 2 workloads, one entry per cell, plus the plan entry");

    // Warm: every (worker, shard) combination must replay the identical
    // bytes out of the cache — and with different parallelism settings.
    for (workers, shards) in [(1, 1), (4, 1), (1, 4), (4, 4)] {
        let warm = registry_plan()
            .store(&scratch.0)
            .store_readonly(false)
            .threads(workers)
            .intra_trace_shards(shards)
            .run();
        assert_bytes_equal(
            &disabled,
            &warm,
            &format!("warm run ({workers} workers, {shards} shards)"),
        );
    }
    assert_eq!(store.entries().len(), entries, "warm runs write nothing new");
    assert_eq!(store.hit_count(), 4, "four warm runs, one plan-level hit each");

    // Partially warm: evict a quarter of the *cell* entries (the plan entry
    // stays put) and rerun with the plan cache off, so the per-cell layer
    // recomputes and rewrites exactly the missing cells.
    let plan_fp = registry_plan().plan_fingerprint();
    for info in store.entries().iter().filter(|i| i.fingerprint != plan_fp).step_by(4) {
        ResultStore::open(&scratch.0).unwrap().evict(info.fingerprint).unwrap();
    }
    let partially_warm =
        registry_plan().store(&scratch.0).store_readonly(false).threads(4).plan_cache(false).run();
    assert_bytes_equal(&disabled, &partially_warm, "partially warm run");
    assert_eq!(store.entries().len(), entries, "evicted cells recomputed and rewritten");
}

#[test]
fn different_parallelism_populates_an_identical_store() {
    // Cold runs at different worker/shard counts must write byte-identical
    // entries: parallelism is excluded from the key *and* from the payload.
    let scratch_a = Scratch::new("cold-seq");
    let scratch_b = Scratch::new("cold-par");
    let a = registry_plan()
        .store(&scratch_a.0)
        .store_readonly(false)
        .threads(1)
        .intra_trace_shards(1)
        .run();
    let b = registry_plan()
        .store(&scratch_b.0)
        .store_readonly(false)
        .threads(4)
        .intra_trace_shards(4)
        .run();
    assert_bytes_equal(&a, &b, "cold runs at different parallelism");
    let entries_a = ResultStore::open_read_only(&scratch_a.0).entries();
    let entries_b = ResultStore::open_read_only(&scratch_b.0).entries();
    assert_eq!(entries_a.len(), entries_b.len());
    for (ea, eb) in entries_a.iter().zip(&entries_b) {
        assert_eq!(ea.fingerprint, eb.fingerprint);
        let bytes_a = std::fs::read(&ea.path).unwrap();
        let bytes_b = std::fs::read(&eb.path).unwrap();
        assert_eq!(bytes_a, bytes_b, "entry files must match byte for byte");
    }
}

#[test]
fn version_salt_bump_forces_recomputation_with_identical_results() {
    let scratch = Scratch::new("salt");
    let v1 = registry_plan()
        .store(&scratch.0)
        .store_readonly(false)
        .store_version_salt("itest-v1")
        .run();
    let store = ResultStore::open_read_only(&scratch.0);
    let after_v1 = store.entries().len();
    let v2 = registry_plan()
        .store(&scratch.0)
        .store_readonly(false)
        .store_version_salt("itest-v2")
        .run();
    assert_bytes_equal(&v1, &v2, "salt bump changes addresses, not results");
    assert_eq!(store.entries().len(), 2 * after_v1, "v2 recomputed every cell");
    assert_eq!(store.hit_count(), 0, "no v1 entry was served under v2");
    // Returning to the old salt serves the old entries again.
    let v1_again = registry_plan()
        .store(&scratch.0)
        .store_readonly(false)
        .store_version_salt("itest-v1")
        .run();
    assert_bytes_equal(&v1, &v1_again, "old salt still hits old entries");
    assert_eq!(store.hit_count(), 1, "the old salt's plan entry serves the whole grid");
}

#[test]
fn config_axis_cells_cache_independently() {
    use wlcrc_repro::pcm::config::PcmConfig;
    use wlcrc_repro::pcm::energy::EnergyModel;
    let scratch = Scratch::new("configs");
    let mut cheap = PcmConfig::table_ii();
    cheap.energy = EnergyModel::with_intermediate_states(50.0, 80.0);
    // One plan per config, both on one store.
    let plan = |config: &PcmConfig, store: bool| {
        let mut plan = ExperimentPlan::new()
            .seed(2)
            .lines_per_workload(30)
            .workload(Benchmark::Lbm.profile())
            .config(config.clone());
        for (id, factory) in standard_factories().into_iter().take(3) {
            plan = plan.scheme_factory(id.label(), factory);
        }
        if store {
            plan.store(&scratch.0).store_readonly(false)
        } else {
            plan.store_enabled(false)
        }
    };
    for config in [PcmConfig::table_ii(), cheap.clone()] {
        let disabled = plan(&config, false).run();
        assert_eq!(disabled, plan(&config, true).run(), "cold");
    }
    let store = ResultStore::open_read_only(&scratch.0);
    assert_eq!(store.entries().len(), 8, "3 schemes x 1 workload x 2 configs, plus 2 plan entries");
    for config in [PcmConfig::table_ii(), cheap] {
        assert_eq!(plan(&config, false).run(), plan(&config, true).run(), "warm");
    }
    assert_eq!(store.entries().len(), 8, "warm runs write nothing new");
    assert_eq!(store.hit_count(), 2, "the warm runs are two plan-level hits");
}

/// Every cell's store key carries its codec's behavioural fingerprint
/// (`codec_fingerprint`: the codec's encodes of four fixed probe lines under
/// the cell's energy table), so a change to what it hashes, or to any
/// codec's encodes of those probes, orphans every stored entry. This golden
/// pins the fingerprints of the 8 standard schemes and `3-r-cosets-16` under
/// Table II and one non-integer energy table.
#[test]
fn codec_fingerprints_match_the_golden() {
    use wlcrc_repro::coset::{Granularity, RestrictedCosetCodec};
    use wlcrc_repro::memsim::cache::codec_fingerprint;
    use wlcrc_repro::pcm::codec::LineCodec;
    use wlcrc_repro::pcm::energy::EnergyModel;
    use wlcrc_repro::wlcrc::schemes::standard_schemes;
    use wlcrc_repro::StableHasher;

    const GOLDEN: &str = "8d7c50739407f9f68d9b65df14ebb9a5";
    let mut codecs: Vec<Box<dyn LineCodec>> =
        standard_schemes().into_iter().map(|(_, codec)| codec).collect();
    codecs.push(Box::new(RestrictedCosetCodec::new(Granularity::new(16))));
    let mut hasher = StableHasher::new();
    let mut listing = String::new();
    for energy in [EnergyModel::paper_default(), EnergyModel::new(36.5, [0.1, 20.3, 307.7, 547.25])]
    {
        for codec in &codecs {
            let fingerprint = codec_fingerprint(codec.as_ref(), &energy).to_hex();
            hasher.update(fingerprint.as_bytes());
            listing.push_str(&format!("\n  {} {fingerprint}", codec.name()));
        }
    }
    assert_eq!(hasher.finish().to_hex(), GOLDEN, "codec fingerprints:{listing}");
}

/// A plan's store key covers its metadata and the fingerprint of every cell
/// key, so these goldens pin the bytes of both. A change that moves them
/// orphans every stored plan entry; the warm rerun then misses its one
/// plan-level read and writes a second plan entry. Recorded for the Figure 8
/// grid and the `perfsnap` runner grid, both under the default salt.
#[test]
fn plan_fingerprints_match_the_golden() {
    use wlcrc_repro::memsim::SIMULATOR_VERSION_SALT;
    use wlcrc_repro::trace::WorkloadProfile;

    let fingerprint = |seed: u64, workloads: Vec<WorkloadProfile>| {
        let mut plan = ExperimentPlan::new().seed(seed).lines_per_workload(40).workloads(workloads);
        for (id, factory) in standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        plan.store_version_salt(SIMULATOR_VERSION_SALT).plan_fingerprint().to_hex()
    };
    let fig08 = fingerprint(7, WorkloadProfile::all_benchmarks());
    let perfsnap = fingerprint(42, vec![Benchmark::Gcc.profile(), Benchmark::Lbm.profile()]);
    assert_eq!(fig08, "f0204e5d3b6b9e0d1f714fcc73a1e5bf", "the Figure 8 plan");
    assert_eq!(perfsnap, "cb0413ac06aa41e61d5e51719606fd0d", "the perfsnap plan");
}
