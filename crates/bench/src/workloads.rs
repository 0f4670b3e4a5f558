//! Trace construction helpers shared by the experiments.
//!
//! The paper runs every scheme over the same records, so the helpers build
//! each trace once and hand it out as an `Arc<Trace>`, ready for
//! [`ExperimentPlan::traces`](wlcrc_memsim::ExperimentPlan::traces): the
//! engine keys such a workload by its content digest, so a figure grid
//! caches like a profile grid.

use std::sync::Arc;
use wlcrc_trace::{Benchmark, RandomTraceGenerator, Trace, TraceGenerator, WorkloadProfile};

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
pub fn biased_traces(lines: usize, seed: u64) -> Vec<Arc<Trace>> {
    Benchmark::ALL
        .iter()
        .map(|b| {
            let mut generator = TraceGenerator::new(b.profile(), seed ^ hash(b.short_name()));
            Arc::new(generator.generate(lines))
        })
        .collect()
}

/// Generates a single trace of uniformly random `(old, new)` line pairs.
pub fn random_trace(lines: usize, seed: u64) -> Arc<Trace> {
    Arc::new(RandomTraceGenerator::new(seed).generate(lines))
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
}
