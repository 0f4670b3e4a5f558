//! Regenerates the Section VIII-D multi-objective study: WLCRC-16 with and
//! without the T = 1% endurance-aware group selection.

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::multi_objective_tables;

fn main() {
    let args = RunArgs::from_env();
    for table in multi_objective_tables(args.lines, args.seed) {
        table.print();
    }
}
