//! Inspect how the value statistics of different workloads drive write energy
//! and compression coverage: symbol histograms, WLC coverage for several `k`,
//! and the resulting WLCRC-16 saving per benchmark.
//!
//! Run with `cargo run --release --example workload_energy`.

use wlcrc_repro::{
    Benchmark, Compressor, ExperimentPlan, RawCodec, TraceSource, TraceStream, Wlc, WlcCosetCodec,
};

/// One lazy stream per benchmark: the engine builds its trace once, and
/// every scheme (and bank-partition shard) replays it.
fn stream(benchmark: Benchmark) -> TraceStream {
    TraceStream::new(benchmark.profile(), 99, 1500)
}

fn main() {
    // Run the whole (2 schemes × 12 workloads) grid through the
    // ExperimentPlan engine before printing the per-benchmark breakdown.
    let mut plan = ExperimentPlan::new().seed(5).verify_integrity(false);
    for benchmark in Benchmark::ALL {
        plan = plan.source(benchmark.short_name(), move |_base| {
            Box::new(stream(benchmark)) as Box<dyn TraceSource + Send>
        });
    }
    let result = plan
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
    for benchmark in Benchmark::ALL {
        // Symbol histogram of the written data, computed over a second pass
        // of the same deterministic stream.
        let mut hist = [0usize; 4];
        let mut wlc6 = 0usize;
        let mut wlc9 = 0usize;
        let mut lines = 0usize;
        for record in stream(benchmark) {
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
