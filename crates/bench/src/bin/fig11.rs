//! Regenerates Figure 11: write energy of WLC+4cosets, WLC+3cosets and WLCRC
//! at 8/16/32/64-bit block granularities (data-block and auxiliary parts).

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::{figure11_12_13, figure11_tables};

fn main() {
    let args = RunArgs::from_env();
    for table in figure11_tables(&figure11_12_13(args.lines, args.seed)) {
        table.print();
    }
}
