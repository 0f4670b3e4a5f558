//! Regenerates Figure 5: 4cosets vs 3cosets vs restricted coset coding
//! (3-r-cosets) write-energy breakdown on the biased workloads.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::figure5_tables;

fn main() {
    let args = RunArgs::from_env();
    for table in figure5_tables(args.lines, args.seed) {
        table.print();
    }
}
