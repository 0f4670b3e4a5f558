//! Regenerates Figure 12: average updated cells per line for the
//! WLC-integrated schemes across 8/16/32/64-bit granularities.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::{figure11_12_13, figure12_tables};

fn main() {
    let args = RunArgs::from_env();
    for table in figure12_tables(&figure11_12_13(args.lines, args.seed)) {
        table.print();
    }
}
