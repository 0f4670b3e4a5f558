//! Regenerates Figure 4: percentage of memory lines compressed by WLC
//! (k = 4..9 MSBs), COC and FPC+BDI, per benchmark and on average.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::figure4_tables;

fn main() {
    let args = RunArgs::from_env();
    for table in figure4_tables(args.lines, args.seed) {
        table.print();
    }
}
