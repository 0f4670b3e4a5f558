//! Regenerates Figure 3: 6cosets vs 4cosets write energy (auxiliary, data
//! block and total) on the biased SPEC/PARSEC-like workloads.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::figure3_tables;

fn main() {
    let args = RunArgs::from_env();
    for table in figure3_tables(args.lines, args.seed) {
        table.print();
    }
}
