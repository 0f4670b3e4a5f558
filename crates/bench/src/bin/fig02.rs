//! Regenerates Figure 2: 6cosets vs 4cosets write energy (auxiliary, data
//! block and total) on random data, for granularities 8..128 bits.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::figure2_tables;

fn main() {
    let args = RunArgs::from_env();
    for table in figure2_tables(args.lines, args.seed) {
        table.print();
    }
}
