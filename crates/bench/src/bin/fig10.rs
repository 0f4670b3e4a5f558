//! Regenerates Figure 10: average number of write-disturbance errors per
//! line write for every scheme across the benchmarks.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::{figure10_tables, figure8_9_10};

fn main() {
    let args = RunArgs::from_env();
    for table in figure10_tables(&figure8_9_10(args.lines, args.seed)) {
        table.print();
    }
}
