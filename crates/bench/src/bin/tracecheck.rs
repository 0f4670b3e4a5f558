//! `tracecheck` — validates a `WLCRC_TRACE` Chrome trace file.
//!
//! ```text
//! tracecheck FILE [--require-span NAME]... [--quiet]
//! ```
//!
//! Parses every event with the hand-rolled JSON checker in
//! [`wlcrc_obs::check`], verifies the trace-event invariants (numeric
//! ts/pid/tid, non-negative durations, matched `B`/`E` stacks per thread),
//! and prints a per-span duration summary. `--require-span NAME` (repeatable)
//! additionally fails the run unless at least one complete span with that
//! name is present — CI uses this to assert that a traced `fig08` actually
//! recorded its engine phases. Exit status: 0 valid, 1 invalid or missing a
//! required span, 2 usage error.

use wlcrc_bench::args::{self, read_flags};
use wlcrc_obs::check::validate_trace;

fn usage() -> ! {
    eprintln!("usage: tracecheck FILE [--require-span NAME]... [--quiet]");
    std::process::exit(2);
}

/// `tracecheck`'s command line.
struct CheckArgs {
    file: Option<String>,
    required: Vec<String>,
    quiet: bool,
}

impl CheckArgs {
    fn parse(args: impl Iterator<Item = String>) -> Result<CheckArgs, String> {
        let mut out = CheckArgs { file: None, required: Vec::new(), quiet: false };
        read_flags(args, |arg, value| {
            match arg {
                "--require-span" => out.required.push(value.text()?),
                "--quiet" => out.quiet = true,
                "--help" | "-h" => usage(),
                _ if arg.starts_with('-') || out.file.is_some() => return Ok(false),
                _ => out.file = Some(arg.to_string()),
            }
            Ok(true)
        })?;
        Ok(out)
    }
}

fn main() {
    let CheckArgs { file, required, quiet } = args::from_env(CheckArgs::parse);
    let Some(file) = file.as_deref() else { usage() };

    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("tracecheck: cannot read {file}: {err}");
            std::process::exit(1);
        }
    };
    let summary = match validate_trace(&text) {
        Ok(summary) => summary,
        Err(err) => {
            eprintln!("tracecheck: {file}: INVALID: {err}");
            std::process::exit(1);
        }
    };
    if !quiet {
        println!(
            "{file}: {} events ({} complete spans, {} instants, {} begin/end pairs)",
            summary.events, summary.complete_spans, summary.instants, summary.matched_pairs
        );
        for (name, dur_us) in &summary.dur_us_by_name {
            println!("  {name}: {:.3}ms total", dur_us / 1000.0);
        }
    }
    let mut missing = false;
    for name in &required {
        if !summary.dur_us_by_name.iter().any(|(n, _)| n == name) {
            eprintln!("tracecheck: {file}: required span {name:?} not present");
            missing = true;
        }
    }
    if missing {
        std::process::exit(1);
    }
}
