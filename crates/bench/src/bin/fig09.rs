//! Regenerates Figure 9: average number of updated cells per line write
//! (the endurance metric) for every scheme across the benchmarks.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::{figure8_9_10, figure9_tables};

fn main() {
    let args = RunArgs::from_env();
    for table in figure9_tables(&figure8_9_10(args.lines, args.seed)) {
        table.print();
    }
}
