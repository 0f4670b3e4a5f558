//! Compare every scheme of the paper's evaluation on one synthetic workload:
//! the Figure 8/9/10 experiment in miniature.
//!
//! Run with `cargo run --release --example scheme_comparison [-- <benchmark>]`
//! where `<benchmark>` is one of the paper's short names (default: `gcc`).

use std::sync::Arc;
use wlcrc_repro::{standard_factories, Benchmark, ExperimentPlan, TraceGenerator};

fn main() {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_string());
    let benchmark =
        Benchmark::ALL.into_iter().find(|b| b.short_name() == wanted).unwrap_or(Benchmark::Gcc);

    let trace = Arc::new(TraceGenerator::new(benchmark.profile(), 2024).generate(3000));
    let (writes, changed_bits) =
        trace.iter().fold((0u64, 0u64), |(n, bits), r| (n + 1, bits + u64::from(r.changed_bits())));
    println!(
        "workload {} ({}): {} writes, {:.1} changed bits per write on average\n",
        benchmark.short_name(),
        benchmark.intensity(),
        writes,
        changed_bits as f64 / writes.max(1) as f64
    );

    // All eight schemes run as one ExperimentPlan grid sharded across the
    // worker pool (WLCRC_THREADS) — and, with spare workers, across the
    // trace's banks (WLCRC_INTRA_SHARDS); every scheme replays the same
    // trace, so the comparison stays paired.
    let mut plan = ExperimentPlan::new().seed(7).trace(trace);
    for (id, factory) in standard_factories() {
        plan = plan.scheme_factory(id.label(), factory);
    }
    let result = plan.run();

    println!(
        "{:<14} {:>12} {:>14} {:>12} {:>10}",
        "scheme", "energy (pJ)", "updated cells", "disturb/line", "integrity"
    );
    let mut baseline_energy = None;
    for label in result.schemes() {
        let stats = result.get(&label, benchmark.short_name()).expect("cell present");
        if baseline_energy.is_none() {
            baseline_energy = Some(stats.mean_energy_pj());
        }
        let saving = baseline_energy
            .map(|b| format!("{:>5.1}%", (1.0 - stats.mean_energy_pj() / b) * 100.0))
            .unwrap_or_default();
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>12.2} {:>10}   saving {}",
            label,
            stats.mean_energy_pj(),
            stats.mean_updated_cells(),
            stats.mean_disturb_errors(),
            if stats.integrity_failures == 0 { "OK" } else { "FAIL" },
            saving,
        );
    }
}
