//! End-to-end test of the `WLCRC_TRACE` pipeline: set the variable, run a
//! small experiment grid, and validate the resulting Chrome trace with the
//! same checker `tracecheck` uses.
//!
//! The trace layer latches its configuration from the environment exactly
//! once per process, so this file holds a **single** test that sets
//! `WLCRC_TRACE` before anything touches `wlcrc_obs`. Keep it that way — a
//! second test racing the first past the `Once` would make the latch
//! nondeterministic.

use std::path::PathBuf;

use wlcrc_repro::memsim::ExperimentPlan;
use wlcrc_repro::obs::check::validate_trace;
use wlcrc_repro::trace::Benchmark;
use wlcrc_repro::wlcrc::WlcCosetCodec;

#[test]
fn traced_run_produces_a_valid_chrome_trace() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("trace-pipeline-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var(wlcrc_repro::obs::TRACE_ENV, &path);
    assert!(wlcrc_repro::obs::enabled(), "the env latch must see {}", path.display());

    // A small two-cell grid, store disabled: enough to cross every engine
    // phase (simulate, per-cell shards, merge) without I/O.
    let result = ExperimentPlan::new()
        .seed(7)
        .lines_per_workload(20)
        .workload(Benchmark::Gcc.profile())
        .workload(Benchmark::Milc.profile())
        .scheme_factory("WLCRC-16", std::sync::Arc::new(|| Box::new(WlcCosetCodec::wlcrc16()) as _))
        .store_enabled(false)
        .run();
    assert_eq!(result.cells.len(), 2);

    // Spans write through unbuffered on close, so the file is complete as
    // soon as the grid returns.
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate_trace(&text).expect("trace must validate");
    assert!(summary.events > 0, "empty trace");
    assert!(summary.complete_spans > 0, "no complete spans");

    // The engine phases and the per-cell spans must all be present, and a
    // cell span cannot outlive the simulate phase that contains it.
    for name in ["engine.simulate", "engine.cell", "engine.merge"] {
        assert!(
            summary.dur_us_by_name.iter().any(|(n, _)| n == name),
            "missing {name:?} spans in trace:\n{text}"
        );
    }
    let cell_us = summary.dur_us("engine.cell");
    let simulate_us = summary.dur_us("engine.simulate");
    assert!(cell_us > 0.0, "engine.cell spans carry no duration");
    // Cells run on worker threads inside the simulate phase; with the
    // default thread pool their summed time may exceed the phase wall time,
    // but by no more than the worker count.
    let workers = wlcrc_repro::memsim::resolve_worker_count(None) as f64;
    assert!(
        cell_us <= simulate_us * workers.max(1.0) * 1.5 + 1_000.0,
        "engine.cell total {cell_us}us vs engine.simulate {simulate_us}us on {workers} workers"
    );

    // Every cell label survives into the trace args.
    for workload in ["gcc", "milc"] {
        assert!(
            text.contains(workload),
            "per-cell label for workload {workload:?} missing from trace"
        );
    }

    let _ = std::fs::remove_file(&path);
}
