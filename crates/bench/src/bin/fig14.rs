//! Regenerates Figure 14: sensitivity of the WLCRC-16 energy improvement to
//! the programming energy of the intermediate states S3/S4.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::figure14_tables;

fn main() {
    let args = RunArgs::from_env();
    for table in figure14_tables(args.lines, args.seed) {
        table.print();
    }
}
