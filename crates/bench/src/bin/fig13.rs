//! Regenerates Figure 13: average write-disturbance errors per line for the
//! WLC-integrated schemes across 8/16/32/64-bit granularities.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::{figure11_12_13, figure13_tables};

fn main() {
    let args = RunArgs::from_env();
    for table in figure13_tables(&figure11_12_13(args.lines, args.seed)) {
        table.print();
    }
}
