//! Runs every experiment of the paper's evaluation section in sequence and
//! prints the corresponding tables. Use `--lines N` to trade accuracy for
//! runtime (the default keeps the full run to a few minutes).
//!
//! After its header line the output is the figure binaries' outputs in
//! sequence: `fig01`–`fig05`, `hw_overhead`, `fig08`–`fig10`,
//! `multi_objective`, `fig11`–`fig14`. The Figure 8–10 grid and the
//! Figure 11–13 sweep run once each and serve all three of their figures.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::*;
use wlcrc_bench::table::Table;

fn main() {
    let args = RunArgs::from_env();
    let (lines, seed) = (args.lines, args.seed);
    let started = std::time::Instant::now();
    println!(
        "WLCRC reproduction: running all experiments with {lines} lines per workload (seed {seed}, {} workers)\n",
        wlcrc_memsim::resolve_worker_count(None)
    );
    let print = |tables: Vec<Table>| tables.iter().for_each(Table::print);

    print(figure1_tables(lines, seed));
    print(figure2_tables(lines, seed));
    print(figure3_tables(lines, seed));
    print(figure4_tables(lines, seed));
    print(figure5_tables(lines, seed));
    print(hw_overhead_tables());
    let grid = figure8_9_10(lines, seed);
    print(figure8_tables(&grid));
    print(figure9_tables(&grid));
    print(figure10_tables(&grid));
    print(multi_objective_tables(lines, seed));
    let sweep = figure11_12_13(lines, seed);
    print(figure11_tables(&sweep));
    print(figure12_tables(&sweep));
    print(figure13_tables(&sweep));
    print(figure14_tables(lines, seed));

    // Wall-clock summary: compare runs with WLCRC_THREADS=1 vs =N to see the
    // parallel engine's speedup on this grid (results are byte-identical).
    println!(
        "all experiments finished in {:.2} s with {} workers",
        started.elapsed().as_secs_f64(),
        wlcrc_memsim::resolve_worker_count(None)
    );
}
