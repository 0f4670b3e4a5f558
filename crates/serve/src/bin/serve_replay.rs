//! `serve-replay` — replays an experiment grid through a live `wlcrc-serve`
//! instance and diffs the aggregate statistics against the batch engine.
//!
//! ```text
//! serve-replay --addr HOST:PORT [--workloads gcc,lbm,mcf] [--lines N]
//!              [--seed N] [--scrape-out FILE] [--direct] [--shutdown]
//! ```
//!
//! For every (scheme, workload) cell of a fig08-shaped grid (the full
//! standard scheme registry over the chosen workloads), the tool opens a
//! session seeded exactly like the batch engine seeds that cell
//! ([`wlcrc_memsim::cell_seed`]), streams the cell's identical record stream
//! ([`wlcrc_memsim::workload_stream_seed`]) through the client, and closes.
//! With `--direct` it then runs the same grid in-process via
//! [`ExperimentPlan`] and requires **byte-identical** per-cell statistics —
//! the CI smoke gate that the service path cannot drift from the paper
//! pipeline. `--scrape-out` saves the final metrics scrape for artifact
//! upload; `--shutdown` stops the server afterwards.
//!
//! A command-line mistake (an unknown flag or workload, a missing or
//! unparsable value) exits 2 before any connection is made; a runtime
//! failure (an unreachable server, a cell that diverged) exits 1. Each is
//! reported as a message on stderr.

use std::process::ExitCode;
use wlcrc::schemes::SchemeId;
use wlcrc_memsim::{
    cell_seed, scaled_workload_lines, workload_stream_seed, ExperimentPlan, SchemeStats,
    SimulationOptions,
};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_serve::ServeClient;
use wlcrc_trace::{Benchmark, TraceStream, WorkloadProfile};

/// Why the replay stopped: a command-line mistake or a runtime failure.
enum Failure {
    Usage(String),
    Runtime(Box<dyn std::error::Error>),
}

impl<E: Into<Box<dyn std::error::Error>>> From<E> for Failure {
    fn from(err: E) -> Failure {
        Failure::Runtime(err.into())
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => {
            eprintln!("serve-replay: {message}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(err)) => {
            eprintln!("serve-replay: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Failure> {
    let mut addr = "127.0.0.1:7711".to_string();
    let mut workload_names = "gcc,lbm,mcf,omne".to_string();
    let mut lines: usize = 150;
    let mut seed: u64 = 99;
    let mut scrape_out: Option<String> = None;
    let mut direct = false;
    let mut want_shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| Failure::Usage(format!("{name} needs a value")));
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workloads" => workload_names = value("--workloads")?,
            "--lines" => lines = parse(&value("--lines")?, "--lines")?,
            "--seed" => seed = parse(&value("--seed")?, "--seed")?,
            "--scrape-out" => scrape_out = Some(value("--scrape-out")?),
            "--direct" => direct = true,
            "--shutdown" => want_shutdown = true,
            other => return Err(Failure::Usage(format!("unknown flag {other:?}"))),
        }
    }

    let profiles: Vec<WorkloadProfile> = workload_names
        .split(',')
        .map(|name| {
            Benchmark::ALL
                .iter()
                .find(|b| b.short_name() == name.trim() || b.profile().name == name.trim())
                .map(|b| b.profile())
                .ok_or_else(|| Failure::Usage(format!("unknown workload {name:?}")))
        })
        .collect::<Result<_, _>>()?;
    let max_intensity = profiles.iter().map(|p| p.write_intensity).fold(1.0f64, f64::max);

    let mut client = ServeClient::connect(&addr)?;
    // Each served cell keeps its registry label: session statistics name the
    // concrete codec (e.g. "FNW-128") while the direct plan below registers
    // schemes under their figure labels (e.g. "FNW").
    let mut served: Vec<(&'static str, SchemeStats)> = Vec::new();
    let mut total_busy = 0u64;
    for profile in &profiles {
        for id in SchemeId::ALL {
            let options = SimulationOptions {
                seed: cell_seed(seed, id.label(), &profile.name),
                ..SimulationOptions::default()
            };
            let session = client.open(id.label(), &profile.name, PcmConfig::table_ii(), options)?;
            let stream_seed = workload_stream_seed(seed, &profile.name);
            let count = scaled_workload_lines(lines, profile, max_intensity);
            let records: Vec<_> = TraceStream::new(profile.clone(), stream_seed, count).collect();
            let report = client.write_all(session, &records)?;
            total_busy += report.busy_responses;
            let (stats, _store_hit) = client.close(session)?;
            served.push((id.label(), stats));
        }
    }
    let grid_writes: u64 = served.iter().map(|(_, s)| s.writes).sum();
    println!(
        "serve-replay: {} cells, {grid_writes} writes via {addr} ({total_busy} Busy responses)",
        served.len()
    );

    let scrape = client.metrics_text()?;
    if let Some(path) = scrape_out {
        std::fs::write(&path, &scrape)?;
        println!("serve-replay: metrics scrape saved to {path}");
    }

    if direct {
        let mut plan = ExperimentPlan::new()
            .store_enabled(false)
            .seed(seed)
            .lines_per_workload(lines)
            .workloads(profiles.iter().cloned());
        for (id, factory) in wlcrc::schemes::standard_factories() {
            plan = plan.scheme_factory(id.label(), factory);
        }
        let batch = plan.run();
        let mut mismatches = 0;
        for (label, stats) in &served {
            match batch.get(label, &stats.workload) {
                Some(direct_stats) => {
                    // Everything but the scheme name must be byte-identical.
                    let mut expected = direct_stats.clone();
                    expected.scheme = stats.scheme.clone();
                    if &expected != stats {
                        eprintln!("serve-replay: MISMATCH for ({label}, {})", stats.workload);
                        mismatches += 1;
                    }
                }
                None => {
                    eprintln!(
                        "serve-replay: cell ({label}, {}) missing from direct run",
                        stats.workload
                    );
                    mismatches += 1;
                }
            }
        }
        if mismatches > 0 {
            let message = format!("{mismatches} cells diverged from the direct ExperimentPlan run");
            return Err(message.into());
        }
        println!("serve-replay: all {} cells byte-identical to the direct run", served.len());
    }

    if want_shutdown {
        client.shutdown()?;
        println!("serve-replay: server shutdown requested");
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, Failure> {
    text.parse().map_err(|_| Failure::Usage(format!("{flag}: not a number: {text:?}")))
}
