//! `wlcrc-gridrun` — a multi-process grid runner over the persistent store.
//!
//! Each invocation is one *worker*: it walks the plan's cell grid, claims
//! unowned cells through claim files in the shared result store, simulates
//! what it claims, and serves everything else from the store once the owning
//! worker has written it back. Any number of concurrent workers converge on
//! the same store contents, and every worker ends with the complete grid —
//! byte-identical to a single-process `run` of the same plan.
//!
//! ```text
//! wlcrc-gridrun --store DIR [--plan perfsnap|fig08] [--lines N] [--seed N]
//!               [--threads N] [--no-plan-cache] [--direct]
//! ```
//!
//! The grid is dumped to **stdout** (one full-precision line per cell,
//! shortest-roundtrip floats); **stderr** carries a progress report — a
//! periodic line while the run is live plus a final claim report (cells
//! computed / served / stolen / plan_hits), both fed by the engine's
//! `wlcrc_grid_*` registry counters — so CI can `diff` the dumps of
//! concurrent workers against each other and against `--direct` — the
//! ordinary store-less in-process engine, the ground truth the claim
//! protocol must reproduce exactly. Set `WLCRC_TRACE=<file>` to also record
//! this worker's claim/compute spans as a Chrome trace.
//!
//! A claim is a file its worker keeps locked, so a worker that exits or dies
//! frees its claims at once for the next worker to take over. A store shared
//! across machines needs working file locks (NFSv4, or NFSv3 with lockd).
//! The store directory comes from `--store`, else `$WLCRC_STORE`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wlcrc_bench::args::{self, read_flags};
use wlcrc_bench::figures::runner_plan;
use wlcrc_memsim::{ExperimentPlan, ExperimentResult, STORE_ENV};

fn usage() -> ! {
    eprintln!(
        "usage: wlcrc-gridrun [--store DIR] [--plan perfsnap|fig08] [--lines N] [--seed N] \
         [--threads N] [--no-plan-cache] [--direct]"
    );
    std::process::exit(2);
}

/// `wlcrc-gridrun`'s command line.
struct GridArgs {
    plan: String,
    lines: usize,
    seed: u64,
    threads: Option<usize>,
    plan_cache: bool,
    direct: bool,
    store: Option<String>,
}

impl GridArgs {
    fn parse(args: impl Iterator<Item = String>) -> Result<GridArgs, String> {
        let mut out = GridArgs {
            plan: "perfsnap".to_string(),
            lines: 40,
            seed: 42,
            threads: None,
            plan_cache: true,
            direct: false,
            store: None,
        };
        read_flags(args, |flag, value| {
            match flag {
                "--plan" => out.plan = value.text()?,
                "--lines" => out.lines = value.number()?,
                "--seed" => out.seed = value.number()?,
                "--threads" => out.threads = Some(value.number()?),
                "--store" => out.store = Some(value.text()?),
                "--no-plan-cache" => out.plan_cache = false,
                "--direct" => out.direct = true,
                "--help" | "-h" => usage(),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(out)
    }
}

/// The plan shapes shared with `storectl inspect --why` (see
/// [`runner_plan`]); an unknown kind is a usage error.
fn build_plan(kind: &str, lines: usize, seed: u64) -> ExperimentPlan {
    runner_plan(kind, lines, seed).unwrap_or_else(|| {
        eprintln!("wlcrc-gridrun: unknown plan {kind:?} (expected perfsnap or fig08)");
        std::process::exit(2);
    })
}

/// Deterministic full-precision dump of the grid: `{:?}` floats are
/// shortest-roundtrip, so two byte-identical result grids produce
/// byte-identical dumps and nothing less.
fn dump(result: &ExperimentResult) {
    println!(
        "config {} seeds={:?} lines={} cells={}",
        result.meta.config_index,
        result.meta.seeds,
        result.meta.lines_per_workload,
        result.cells.len()
    );
    for s in &result.cells {
        println!(
            "{}|{}|writes={} data_pj={:?} aux_pj={:?} data_cells={} aux_cells={} \
             data_dist={} aux_dist={} exp_dist={:?} max_dist={} encoded={} integrity={} \
             banks={:?}",
            s.scheme,
            s.workload,
            s.writes,
            s.data_energy_pj,
            s.aux_energy_pj,
            s.data_cells_updated,
            s.aux_cells_updated,
            s.data_disturb_errors,
            s.aux_disturb_errors,
            s.expected_disturb_errors,
            s.max_disturb_errors_per_write,
            s.encoded_lines,
            s.integrity_failures,
            s.bank_writes,
        );
    }
}

fn main() {
    let args = args::from_env(GridArgs::parse);
    let mut plan = build_plan(&args.plan, args.lines, args.seed);
    if let Some(threads) = args.threads {
        plan = plan.threads(threads);
    }
    if !args.plan_cache {
        plan = plan.plan_cache(false);
    }

    if args.direct {
        // Ground truth: the plain in-process engine with the store disabled.
        // Concurrent claimed workers must reproduce this dump byte for byte.
        dump(&plan.store_enabled(false).run());
        return;
    }

    let store = args.store.or_else(|| std::env::var(STORE_ENV).ok()).unwrap_or_else(|| {
        eprintln!("wlcrc-gridrun: no store directory (--store DIR or ${STORE_ENV})");
        std::process::exit(2);
    });

    // Progress reporter: while workers run, print the engine's registry
    // counters every couple of seconds. Short runs finish before the first
    // tick and emit only the final report.
    let running = Arc::new(AtomicBool::new(true));
    let ticker = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let metrics = wlcrc_memsim::grid_metrics();
            let mut ticks = 0u32;
            while running.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(250));
                ticks += 1;
                if ticks.is_multiple_of(8) {
                    eprintln!(
                        "wlcrc-gridrun: progress computed {} served {} stolen {} ({:.0}s)",
                        metrics.computed.get(),
                        metrics.served.get(),
                        metrics.stolen.get(),
                        started.elapsed().as_secs_f64()
                    );
                }
            }
        })
    };
    let (result, report) = plan.store(&store).run_grid_claimed();
    running.store(false, Ordering::Relaxed);
    let _ = ticker.join();
    eprintln!(
        "wlcrc-gridrun: cells computed {} served {} stolen {} plan_hits {}",
        report.computed, report.loaded, report.taken_over, report.plan_hits
    );
    dump(&result);
}
