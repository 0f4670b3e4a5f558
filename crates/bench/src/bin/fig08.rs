//! Regenerates Figure 8: write energy of every scheme (Baseline, FlipMin,
//! FNW, DIN, 6cosets, COC+4cosets, WLC+4cosets, WLCRC-16) across the SPEC
//! CPU2006 / PARSEC benchmark set, with HMI/LMI group averages.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::{figure8_9_10, figure8_tables};

fn main() {
    let args = RunArgs::from_env();
    for table in figure8_tables(&figure8_9_10(args.lines, args.seed)) {
        table.print();
    }
}
