//! Shared harness for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in `src/bin/` (fig01 … fig14, plus the hardware table and the
//! multi-objective study), and `experiments` runs them all in sequence;
//! they all build on the helpers in this crate:
//!
//! * [`args`] — the one flag loop every bench binary reads its command line
//!   through, and [`args::RunArgs`], the `--lines N --seed S` that scales
//!   every experiment up or down;
//! * [`table`] — plain-text table printing in the same row/series layout the
//!   paper reports;
//! * [`workloads`] — biased (SPEC/PARSEC-like) and random trace construction;
//! * [`figures`] — the measurement routines themselves and the one renderer
//!   per figure that turns their rows into the tables the binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod table;
pub mod workloads;
