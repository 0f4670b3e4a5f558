//! End-to-end integration tests: the trace-driven simulator combined with
//! synthetic workloads must reproduce the headline findings of the paper.

use wlcrc_repro::memsim::{ExperimentPlan, SimulationOptions, Simulator};
use wlcrc_repro::pcm::config::PcmConfig;
use wlcrc_repro::trace::{Benchmark, TraceGenerator, WorkloadProfile};
use wlcrc_repro::wlcrc::schemes::{standard_factories, standard_schemes, SchemeId};

fn small_experiment() -> wlcrc_repro::memsim::ExperimentResult {
    // Hermetic: a developer's WLCRC_STORE must not leak cached cells into
    // (or out of) the paper-findings assertions.
    let mut plan = ExperimentPlan::new()
        .store_enabled(false)
        .seed(99)
        .lines_per_workload(150)
        .workloads(WorkloadProfile::all_benchmarks());
    for (id, factory) in standard_factories() {
        plan = plan.scheme_factory(id.label(), factory);
    }
    plan.run()
}

#[test]
fn wlcrc16_has_the_lowest_average_write_energy() {
    let result = small_experiment();
    let wlcrc = result.average_for_scheme(SchemeId::Wlcrc16.label()).mean_energy_pj();
    for id in SchemeId::ALL {
        let other = result.average_for_scheme(id.label()).mean_energy_pj();
        assert!(
            wlcrc <= other + 1e-9,
            "WLCRC-16 ({wlcrc:.1} pJ) must not lose to {} ({other:.1} pJ)",
            id.label()
        );
    }
}

#[test]
fn wlcrc16_clearly_beats_baseline_and_6cosets() {
    let result = small_experiment();
    let baseline = result.average_for_scheme("Baseline").mean_energy_pj();
    let six = result.average_for_scheme("6cosets").mean_energy_pj();
    let wlcrc = result.average_for_scheme("WLCRC-16").mean_energy_pj();
    assert!(wlcrc < baseline * 0.75, "vs baseline: {wlcrc:.0} / {baseline:.0}");
    assert!(wlcrc < six * 0.95, "vs 6cosets: {wlcrc:.0} / {six:.0}");
}

#[test]
fn wlcrc16_improves_endurance_over_baseline() {
    let result = small_experiment();
    let baseline = result.average_for_scheme("Baseline").mean_updated_cells();
    let wlcrc = result.average_for_scheme("WLCRC-16").mean_updated_cells();
    assert!(wlcrc < baseline, "updated cells must drop (baseline {baseline:.1}, WLCRC {wlcrc:.1})");
}

#[test]
fn disturbance_errors_stay_in_the_papers_band() {
    // The paper reports 3-4 disturbance errors per 512-bit line on average
    // across all schemes; allow a generous band around it.
    let result = small_experiment();
    for id in SchemeId::ALL {
        let errors = result.average_for_scheme(id.label()).mean_disturb_errors();
        assert!(
            (0.5..=10.0).contains(&errors),
            "{}: {errors:.2} errors/line is outside the plausible band",
            id.label()
        );
    }
}

#[test]
fn no_scheme_ever_corrupts_data_in_simulation() {
    let result = small_experiment();
    for stats in &result.cells {
        assert_eq!(
            stats.integrity_failures, 0,
            "{} corrupted data on {}",
            stats.scheme, stats.workload
        );
    }
}

#[test]
fn hmi_workloads_consume_more_total_energy_than_lmi() {
    let result = small_experiment();
    let total_for = |bench: Benchmark| -> f64 {
        result.get("Baseline", bench.short_name()).map(|s| s.total_energy_pj()).unwrap_or(0.0)
    };
    let hmi: f64 = Benchmark::ALL
        .iter()
        .filter(|b| b.intensity() == wlcrc_repro::trace::IntensityClass::High)
        .map(|b| total_for(*b))
        .sum();
    let lmi: f64 = Benchmark::ALL
        .iter()
        .filter(|b| b.intensity() == wlcrc_repro::trace::IntensityClass::Low)
        .map(|b| total_for(*b))
        .sum();
    assert!(hmi > lmi, "HMI total {hmi:.0} should exceed LMI total {lmi:.0}");
}

#[test]
fn experiment_plan_is_deterministic_across_worker_counts() {
    // The parallel engine must produce byte-identical results whatever the
    // worker count: per-cell seeds derive from grid coordinates, never from
    // thread identity or completion order.
    let build = || {
        let mut plan = ExperimentPlan::new()
            .store_enabled(false)
            .seed(99)
            .lines_per_workload(60)
            .workload(Benchmark::Gcc.profile())
            .workload(Benchmark::Lbm.profile())
            .workload(Benchmark::Omnetpp.profile());
        for (id, factory) in standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        plan
    };
    let single = build().threads(1).run();
    let sharded = build().threads(4).run();
    assert_eq!(single, sharded);
    assert_eq!(single.cells.len(), 3 * 8);
}

#[test]
fn simulator_is_reproducible_across_runs() {
    let codec = standard_schemes().remove(7).1; // WLCRC-16
    let mut generator = TraceGenerator::new(Benchmark::Soplex.profile(), 5);
    let trace = generator.generate(400);
    let run = || {
        Simulator::with_config(PcmConfig::table_ii())
            .with_options(SimulationOptions { seed: 11, ..SimulationOptions::default() })
            .run(codec.as_ref(), &trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn streaming_pipeline_matches_materialised_baseline_for_every_scheme() {
    // For every standard scheme over all twelve standard workloads, the
    // engine, which builds each trace once and shares it across schemes and
    // shards, must be byte-identical at WLCRC_THREADS ∈ {1, 4} and 1 vs 4
    // intra-trace bank-partitions, and each of its cells must equal a
    // streamed `Simulator::run` of that cell.
    use wlcrc_repro::memsim::{cell_seed, scaled_workload_lines, workload_stream_seed};
    use wlcrc_repro::trace::TraceStream;
    let profiles = WorkloadProfile::all_benchmarks();
    let build = || {
        let mut plan = ExperimentPlan::new()
            .store_enabled(false)
            .seed(42)
            .lines_per_workload(40)
            .workloads(profiles.clone());
        for (id, factory) in standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        plan
    };
    let baseline = build().threads(1).intra_trace_shards(1).run();
    let variants = [
        build().threads(4).intra_trace_shards(1).run(),
        build().threads(4).intra_trace_shards(4).run(),
    ];
    for (i, variant) in variants.iter().enumerate() {
        assert_eq!(&baseline, variant, "variant {i} diverged from the sequential baseline");
    }
    assert_eq!(baseline.cells.len(), 12 * 8);

    let max_intensity = profiles.iter().map(|p| p.write_intensity).fold(1.0, f64::max);
    let mut cells = baseline.cells.iter();
    for profile in &profiles {
        for (id, codec) in standard_schemes() {
            let stream = TraceStream::new(
                profile.clone(),
                workload_stream_seed(42, &profile.name),
                scaled_workload_lines(40, profile, max_intensity),
            );
            let options = SimulationOptions {
                seed: cell_seed(42, id.label(), &profile.name),
                ..SimulationOptions::default()
            };
            let mut streamed = Simulator::with_config(PcmConfig::table_ii())
                .with_options(options)
                .run(codec.as_ref(), stream);
            streamed.scheme = id.label().to_string();
            assert_eq!(Some(&streamed), cells.next(), "{} on {}", id.label(), profile.name);
        }
    }
}

#[test]
fn streamed_trace_source_matches_materialised_trace_in_the_simulator() {
    // Simulator level: feeding a lazy TraceStream must be byte-identical to
    // feeding the materialised Trace holding the same records, for all
    // standard workloads.
    use wlcrc_repro::trace::TraceStream;
    let codec = standard_schemes().remove(7).1; // WLCRC-16
    let simulator = Simulator::with_config(PcmConfig::table_ii())
        .with_options(SimulationOptions { seed: 13, ..SimulationOptions::default() });
    for benchmark in Benchmark::ALL {
        let trace = TraceGenerator::new(benchmark.profile(), 8).generate(60);
        let materialised = simulator.run(codec.as_ref(), &trace);
        let streamed = simulator.run(codec.as_ref(), TraceStream::new(benchmark.profile(), 8, 60));
        assert_eq!(materialised, streamed, "{benchmark:?}");
        assert_eq!(streamed.bank_writes.iter().sum::<u64>(), 60);
    }
}
