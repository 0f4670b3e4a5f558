//! Inspect how the value statistics of different workloads drive write energy
//! and compression coverage: symbol histograms, WLC coverage for several `k`,
//! and the resulting WLCRC-16 saving per benchmark.
//!
//! Run with `cargo run --release --example workload_energy`.

use std::sync::Arc;
use wlcrc_repro::{
    Benchmark, Compressor, ExperimentPlan, RawCodec, Trace, TraceGenerator, Wlc, WlcCosetCodec,
};

fn main() {
    // One trace per benchmark: every scheme (and bank-partition shard)
    // replays it, and the breakdown below reads it again.
    let traces: Vec<Arc<Trace>> = Benchmark::ALL
        .iter()
        .map(|benchmark| Arc::new(TraceGenerator::new(benchmark.profile(), 99).generate(1500)))
        .collect();
    // Run the whole (2 schemes × 12 workloads) grid through the
    // ExperimentPlan engine before printing the per-benchmark breakdown.
    let result = ExperimentPlan::new()
        .seed(5)
        .verify_integrity(false)
        .traces(traces.iter().cloned())
        .scheme("Baseline", || Box::new(RawCodec::new()))
        .scheme("WLCRC-16", || Box::new(WlcCosetCodec::wlcrc16()))
        .run();

    println!(
        "{:<6} {:>6} {:>6} {:>6} {:>6}  {:>8} {:>8}  {:>10} {:>10} {:>8}",
        "bench",
        "%00",
        "%01",
        "%10",
        "%11",
        "WLC k=6",
        "WLC k=9",
        "base (pJ)",
        "wlcrc (pJ)",
        "saving"
    );
    for (benchmark, trace) in Benchmark::ALL.into_iter().zip(&traces) {
        // Symbol histogram of the written data, over the same trace.
        let mut hist = [0usize; 4];
        let mut wlc6 = 0usize;
        let mut wlc9 = 0usize;
        let mut lines = 0usize;
        for record in trace.iter() {
            lines += 1;
            let h = record.new.symbol_histogram();
            for i in 0..4 {
                hist[i] += h[i];
            }
            if Wlc::new(6).compresses_to(&record.new, 512) {
                wlc6 += 1;
            }
            if Wlc::new(9).compresses_to(&record.new, 512) {
                wlc9 += 1;
            }
        }
        let total: usize = hist.iter().sum();
        let pct = |v: usize| v as f64 / total as f64 * 100.0;

        let base = result.get("Baseline", benchmark.short_name()).expect("cell present");
        let wlcrc = result.get("WLCRC-16", benchmark.short_name()).expect("cell present");

        println!(
            "{:<6} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%  {:>7.1}% {:>7.1}%  {:>10.1} {:>10.1} {:>7.1}%",
            benchmark.short_name(),
            pct(hist[0b00]),
            pct(hist[0b01]),
            pct(hist[0b10]),
            pct(hist[0b11]),
            wlc6 as f64 / lines as f64 * 100.0,
            wlc9 as f64 / lines as f64 * 100.0,
            base.mean_energy_pj(),
            wlcrc.mean_energy_pj(),
            (1.0 - wlcrc.mean_energy_pj() / base.mean_energy_pj()) * 100.0,
        );
    }
}
