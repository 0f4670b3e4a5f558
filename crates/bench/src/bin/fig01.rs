//! Regenerates Figure 1: write-energy breakdown (data blocks vs auxiliary
//! symbols) of the 6cosets encoding as the block granularity shrinks from
//! 512 to 8 bits, for random and biased workloads.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::figure1_tables;

fn main() {
    let args = RunArgs::from_env();
    for table in figure1_tables(args.lines, args.seed) {
        table.print();
    }
}
