//! The Section VIII-D trade-off: sweep the multi-objective threshold `T` and
//! watch WLCRC-16 trade a little write energy for fewer programmed cells
//! (better endurance).
//!
//! Run with `cargo run --release --example endurance_tradeoff`.

use std::sync::Arc;
use wlcrc_repro::{
    Benchmark, ExperimentPlan, MultiObjectiveConfig, SchemeStats, Trace, TraceGenerator,
    WlcCosetCodec,
};

fn run(traces: &[Arc<Trace>], threshold: Option<f64>) -> SchemeStats {
    // One plan per threshold: the 12 workloads run over the worker pool.
    // Every run replays the same traces, so the sweep stays paired.
    let result = ExperimentPlan::new()
        .seed(11)
        .verify_integrity(false)
        .traces(traces.iter().cloned())
        .scheme("WLCRC-16", move || match threshold {
            None => Box::new(WlcCosetCodec::wlcrc16()),
            Some(t) => Box::new(
                WlcCosetCodec::wlcrc16()
                    .with_multi_objective(MultiObjectiveConfig { threshold: t }),
            ),
        })
        .run();
    result.average_for_scheme("WLCRC-16")
}

fn main() {
    let traces: Vec<Arc<Trace>> = Benchmark::ALL
        .iter()
        .map(|benchmark| Arc::new(TraceGenerator::new(benchmark.profile(), 31).generate(800)))
        .collect();
    println!(
        "{:<12} {:>14} {:>16} {:>16}",
        "threshold T", "energy (pJ)", "updated cells", "vs plain"
    );
    let plain = run(&traces, None);
    println!(
        "{:<12} {:>14.1} {:>16.2} {:>16}",
        "off",
        plain.mean_energy_pj(),
        plain.mean_updated_cells(),
        "-"
    );
    for t in [0.005, 0.01, 0.02, 0.05, 0.10] {
        let stats = run(&traces, Some(t));
        println!(
            "{:<12} {:>14.1} {:>16.2} {:>15.1}%",
            format!("{:.1}%", t * 100.0),
            stats.mean_energy_pj(),
            stats.mean_updated_cells(),
            (1.0 - stats.mean_updated_cells() / plain.mean_updated_cells()) * 100.0
        );
    }
    println!("\nThe paper reports: T = 1% cuts updated cells by ~19% for a <1% energy increase.");
}
