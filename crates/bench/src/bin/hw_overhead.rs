//! Regenerates the Section VI-B hardware-overhead numbers from the analytical
//! model (substituting for the paper's Synopsys 45 nm synthesis).

use wlcrc_bench::args::RunArgs;
use wlcrc_bench::figures::hw_overhead_tables;

fn main() {
    // The model reads no trace: `--lines` and `--seed` are accepted like in
    // every figure binary, and a mistyped flag is refused the same way.
    RunArgs::from_env();
    for table in hw_overhead_tables() {
        table.print();
    }
}
