//! Criterion bench for intra-trace (per-bank) sharding: one grid cell run at
//! 1, 2 and 4 shards, each replaying the cell's shared trace, so future PRs
//! can track the bank-sharding speedup (BENCH_*.json). On a single-core
//! runner the shard points collapse to the replay overhead, which should
//! stay small.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wlcrc::schemes::standard_factories;
use wlcrc_memsim::ExperimentPlan;
use wlcrc_trace::Benchmark;

/// One WLCRC-16 cell over one big workload: the shape intra-trace sharding
/// exists for (a grid too small to fill the pool by cells alone).
fn plan(lines: usize, shards: usize) -> ExperimentPlan {
    let wlcrc16 = standard_factories().remove(7);
    // Store-less: a warm cache would measure file reads, not simulation.
    ExperimentPlan::new()
        .store_enabled(false)
        .seed(1)
        .lines_per_workload(lines)
        .threads(4)
        .intra_trace_shards(shards)
        .workload(Benchmark::Gcc.profile())
        .scheme_factory(wlcrc16.0.label(), wlcrc16.1)
}

fn stream_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_throughput");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| plan(std::hint::black_box(400), shards).run())
        });
    }
    group.finish();
}

criterion_group!(benches, stream_throughput);
criterion_main!(benches);
