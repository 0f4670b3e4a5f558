//! Trace construction helpers shared by the experiments.
//!
//! Experiments prefer the *streaming* helpers ([`biased_sources`],
//! [`random_source`]): they plug straight into
//! [`ExperimentPlan::sources`](wlcrc_memsim::ExperimentPlan::sources), which
//! builds each trace once per run, and a `Simulator` fed one directly
//! generates records lazily. The materialising variants remain for callers
//! that need to inspect a whole trace at once.

use std::sync::Arc;
use wlcrc_memsim::TraceSourceFactory;
use wlcrc_trace::{
    Benchmark, RandomTraceGenerator, RandomTraceStream, Trace, TraceGenerator, TraceSource,
    TraceStream, WorkloadProfile,
};

/// A deterministic mixed corpus of memory lines — zero words, all-ones
/// words, small values, small negatives and random words — the content mix
/// the `perfsnap` codec suite chains its writes over, and so the corpus
/// behind every codec row of the `BENCH_codec.json` trajectory.
pub fn mixed_lines(count: usize, seed: u64) -> Vec<wlcrc_pcm::line::MemoryLine> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut words = [0u64; 8];
            for w in &mut words {
                *w = match rng.gen_range(0..5) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => u64::from(rng.gen::<u16>()),
                    3 => (-(i64::from(rng.gen::<u16>()))) as u64,
                    _ => rng.gen(),
                };
            }
            wlcrc_pcm::line::MemoryLine::from_words(words)
        })
        .collect()
}

/// Generates one synthetic trace per benchmark, `lines` writes each
/// (unscaled), using deterministic per-benchmark seeds derived from `seed`.
pub fn biased_traces(lines: usize, seed: u64) -> Vec<Trace> {
    Benchmark::ALL
        .iter()
        .map(|b| {
            let profile = b.profile();
            let mut generator = TraceGenerator::new(profile, seed ^ hash(b.short_name()));
            generator.generate(lines)
        })
        .collect()
}

/// One lazy bounded stream per benchmark, yielding exactly the records of
/// [`biased_traces`] (same per-benchmark seeds) without materialising them.
pub fn biased_streams(lines: usize, seed: u64) -> Vec<TraceStream> {
    Benchmark::ALL
        .iter()
        .map(|b| TraceStream::new(b.profile(), seed ^ hash(b.short_name()), lines))
        .collect()
}

/// The streaming-workload axis of the paper's biased experiments: one
/// `(name, factory)` pair per benchmark for
/// [`ExperimentPlan::sources`](wlcrc_memsim::ExperimentPlan::sources), each
/// factory replaying the benchmark's deterministic stream.
pub fn biased_sources(lines: usize, seed: u64) -> Vec<(String, TraceSourceFactory)> {
    Benchmark::ALL
        .iter()
        .map(|b| {
            let benchmark = *b;
            let factory: TraceSourceFactory = Arc::new(move |_base| {
                Box::new(TraceStream::new(
                    benchmark.profile(),
                    seed ^ hash(benchmark.short_name()),
                    lines,
                )) as Box<dyn TraceSource + Send>
            });
            (b.short_name().to_string(), factory)
        })
        .collect()
}

/// Generates a single trace of uniformly random `(old, new)` line pairs.
pub fn random_trace(lines: usize, seed: u64) -> Trace {
    RandomTraceGenerator::new(seed).generate(lines)
}

/// The streaming form of [`random_trace`]: a `(name, factory)` pair whose
/// factory replays the same deterministic random stream.
pub fn random_source(lines: usize, seed: u64) -> (String, TraceSourceFactory) {
    let factory: TraceSourceFactory = Arc::new(move |_base| {
        Box::new(RandomTraceStream::new(seed, lines)) as Box<dyn TraceSource + Send>
    });
    ("random".to_string(), factory)
}

/// The workload profiles of the paper's twelve benchmarks.
pub fn benchmark_profiles() -> Vec<WorkloadProfile> {
    WorkloadProfile::all_benchmarks()
}

fn hash(name: &str) -> u64 {
    name.bytes()
        .fold(0x9E37_79B9_7F4A_7C15u64, |acc, b| (acc ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_trace_per_benchmark() {
        let traces = biased_traces(10, 1);
        assert_eq!(traces.len(), 12);
        assert!(traces.iter().all(|t| t.len() == 10));
    }

    #[test]
    fn random_trace_has_requested_length() {
        assert_eq!(random_trace(25, 3).len(), 25);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        assert_eq!(biased_traces(5, 7)[0], biased_traces(5, 7)[0]);
    }

    #[test]
    fn streams_match_materialised_traces() {
        // The streaming axis must replay byte-identical records for every
        // benchmark, or streamed and materialised figures would diverge.
        let materialised = biased_traces(8, 3);
        for (stream, trace) in biased_streams(8, 3).into_iter().zip(&materialised) {
            assert_eq!(&stream.collect_trace(), trace);
        }
        for ((name, factory), trace) in biased_sources(8, 3).into_iter().zip(&materialised) {
            assert_eq!(&name, &trace.workload);
            assert_eq!(&factory(99).collect_trace(), trace, "factory must ignore the base seed");
        }
        let (name, factory) = random_source(6, 5);
        assert_eq!(name, "random");
        assert_eq!(factory(0).collect_trace(), random_trace(6, 5));
    }
}
