//! Experiment results: the per-cell statistics grid every figure is derived
//! from, as the [`ExperimentPlan`](crate::engine::ExperimentPlan) engine
//! returns it.

use crate::stats::SchemeStats;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Provenance of an [`ExperimentResult`]: which grid produced it.
///
/// Deliberately excludes anything scheduling-related (worker count, timing):
/// two runs of the same plan must produce byte-identical results whatever the
/// parallelism.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetadata {
    /// The grid's base seed, as a one-element list: the layout of the
    /// stored plan entries, which keep their bytes.
    pub seeds: Vec<u64>,
    /// Unscaled trace length per profile workload.
    pub lines_per_workload: usize,
    /// Always 0: a plan runs one config. Kept so stored plan entries keep
    /// their bytes.
    pub config_index: usize,
    /// Number of simulated cells behind this result (workloads × schemes).
    pub grid_cells: usize,
}

/// The result of evaluating a set of schemes across a set of workloads.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// One entry per (scheme, workload) pair, in run order (workload-major).
    pub cells: Vec<SchemeStats>,
    /// Provenance of the run that produced the cells.
    pub meta: RunMetadata,
}

impl ExperimentResult {
    /// All statistics collected for `scheme`, one per workload.
    pub fn for_scheme(&self, scheme: &str) -> Vec<&SchemeStats> {
        self.cells.iter().filter(|s| s.scheme == scheme).collect()
    }

    /// The statistics for a specific scheme/workload pair, if present.
    pub fn get(&self, scheme: &str, workload: &str) -> Option<&SchemeStats> {
        self.cells.iter().find(|s| s.scheme == scheme && s.workload == workload)
    }

    /// Cross-workload average statistics for `scheme` (workloads are weighted
    /// by their number of writes, like the paper's `Ave.` bars).
    pub fn average_for_scheme(&self, scheme: &str) -> SchemeStats {
        let mut merged = SchemeStats::new(scheme, "Ave.");
        for stats in self.for_scheme(scheme) {
            merged.merge(stats);
        }
        merged
    }

    /// The distinct scheme names, in first-seen order.
    pub fn schemes(&self) -> Vec<String> {
        distinct(self.cells.iter().map(|cell| cell.scheme.as_str()))
    }

    /// The distinct workload names, in first-seen order.
    pub fn workloads(&self) -> Vec<String> {
        distinct(self.cells.iter().map(|cell| cell.workload.as_str()))
    }
}

/// First-seen-order dedup in O(n) (a seen-set instead of a `contains` scan).
fn distinct<'a>(names: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut out = Vec::new();
    for name in names {
        if seen.insert(name) {
            out.push(name.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExperimentPlan;
    use wlcrc_pcm::codec::RawCodec;
    use wlcrc_trace::{Benchmark, WorkloadProfile};

    /// A store-less plan running `schemes` RAW codecs over `workloads`.
    fn run_raw(
        schemes: &[&str],
        workloads: Vec<WorkloadProfile>,
        lines_per_workload: usize,
        seed: u64,
    ) -> ExperimentResult {
        let mut plan = ExperimentPlan::new()
            .store_enabled(false)
            .seed(seed)
            .lines_per_workload(lines_per_workload)
            .workloads(workloads);
        for &label in schemes {
            plan = plan.scheme(label, || Box::new(RawCodec::new()));
        }
        plan.run()
    }

    #[test]
    fn runs_every_combination() {
        let workloads = vec![Benchmark::Gcc.profile(), Benchmark::Mcf.profile()];
        let result = run_raw(&["Baseline", "Baseline2"], workloads, 50, 1);
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.schemes().len(), 2);
        assert_eq!(result.workloads(), vec!["gcc".to_string(), "mcf".to_string()]);
        assert!(result.get("Baseline", "gcc").is_some());
        assert_eq!(result.meta.seeds, vec![1]);
        assert_eq!(result.meta.grid_cells, 4);
    }

    #[test]
    fn intensity_scales_trace_length() {
        let workloads = vec![Benchmark::Leslie3d.profile(), Benchmark::Omnetpp.profile()];
        let result = run_raw(&["Baseline"], workloads, 100, 2);
        let hmi = result.get("Baseline", "lesl").unwrap().writes;
        let lmi = result.get("Baseline", "omne").unwrap().writes;
        assert!(hmi > lmi, "HMI workloads must issue more writes ({hmi} vs {lmi})");
    }

    #[test]
    fn averages_merge_workloads() {
        let workloads = vec![Benchmark::Gcc.profile(), Benchmark::Mcf.profile()];
        let result = run_raw(&["Baseline"], workloads, 30, 3);
        let avg = result.average_for_scheme("Baseline");
        let total: u64 = result.for_scheme("Baseline").iter().map(|s| s.writes).sum();
        assert_eq!(avg.writes, total);
        assert_eq!(avg.workload, "Ave.");
    }

    #[test]
    fn distinct_preserves_first_seen_order() {
        let names = ["b", "a", "b", "c", "a", "c", "d"];
        assert_eq!(distinct(names.into_iter()), vec!["b", "a", "c", "d"]);
        assert!(distinct(std::iter::empty()).is_empty());
    }
}
