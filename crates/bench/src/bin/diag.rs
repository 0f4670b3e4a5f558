//! Internal diagnostic: per-scheme breakdown on one workload, plus the
//! Figure 5 auxiliary-region instrumentation (restricted vs unrestricted
//! coset coding).

use std::sync::Arc;
use wlcrc::schemes::standard_factories;
use wlcrc_bench::args::RunArgs;
use wlcrc_bench::workloads::biased_traces;
use wlcrc_coset::{Granularity, NCosetsCodec, RestrictedCosetCodec};
use wlcrc_memsim::ExperimentPlan;
use wlcrc_trace::{Benchmark, TraceGenerator};

fn main() {
    let args = RunArgs::from_env();
    for bench in [Benchmark::Gcc, Benchmark::Lbm, Benchmark::Astar] {
        println!("--- {} ---", bench.short_name());
        let trace = TraceGenerator::new(bench.profile(), args.seed).generate(args.lines);
        let mut plan =
            ExperimentPlan::new().seed(args.seed).verify_integrity(false).trace(Arc::new(trace));
        for (id, factory) in standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        let result = plan.run();
        for label in result.schemes() {
            let s = result.get(&label, bench.short_name()).expect("cell present");
            println!(
                "{label:14} energy={:8.0} (data {:8.0} aux {:6.0})  cells={:6.1} (d {:6.1} a {:5.1})  dist={:4.2} enc%={:.2}",
                s.mean_energy_pj(),
                s.mean_data_energy_pj(),
                s.mean_aux_energy_pj(),
                s.mean_updated_cells(),
                s.mean_updated_data_cells(),
                s.mean_updated_aux_cells(),
                s.mean_disturb_errors(),
                s.encoded_fraction(),
            );
        }
    }
    aux_region_diagnosis(args);
}

/// Figure 5 open item: why does restricted coset coding pay an
/// auxiliary-energy premium over unrestricted 3cosets? Compare the aux
/// region of both codecs at 16-bit granularity across several seeds.
fn aux_region_diagnosis(args: RunArgs) {
    println!("--- figure5 aux-region diagnosis (g=16) ---");
    println!(
        "{:>4} {:>12} {:>12} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "seed",
        "3c aux pJ",
        "3rc aux pJ",
        "ratio",
        "3c aux upd",
        "3rc aux upd",
        "3c pJ/upd",
        "3rc pJ/upd"
    );
    for seed in args.seed..args.seed + 5 {
        let g = Granularity::new(16);
        let result = ExperimentPlan::new()
            .seed(seed)
            .verify_integrity(false)
            .traces(biased_traces(args.lines / 4, seed))
            .scheme("3cosets", move || Box::new(NCosetsCodec::three_cosets(g)))
            .scheme("3-r-cosets", move || Box::new(RestrictedCosetCodec::new(g)))
            .run();
        let three = result.average_for_scheme("3cosets");
        let restricted = result.average_for_scheme("3-r-cosets");
        println!(
            "{seed:>4} {:>12.1} {:>12.1} {:>8.3} {:>12.2} {:>12.2} {:>10.1} {:>10.1}",
            three.mean_aux_energy_pj(),
            restricted.mean_aux_energy_pj(),
            restricted.mean_aux_energy_pj() / three.mean_aux_energy_pj(),
            three.mean_updated_aux_cells(),
            restricted.mean_updated_aux_cells(),
            three.mean_aux_energy_pj() / three.mean_updated_aux_cells(),
            restricted.mean_aux_energy_pj() / restricted.mean_updated_aux_cells(),
        );
    }
    println!(
        "(3cosets spreads 64 aux bits over 32 cells; restricted packs 33 bits into 17\n\
         cells, so each aux cell carries two volatile selection bits — see ROADMAP.md)"
    );
}
