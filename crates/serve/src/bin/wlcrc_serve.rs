//! `wlcrc-serve` — the long-lived memory-service daemon.
//!
//! ```text
//! wlcrc-serve [--listen ADDR] [--unix PATH] [--store DIR]
//!             [--workers N] [--lane-capacity N] [--session-queue-cap N]
//!             [--degraded-threshold N] [--max-connections N]
//!             [--request-deadline-ms N]
//! ```
//!
//! Binds a TCP listener (default `127.0.0.1:7711`; use port 0 for an
//! ephemeral port, printed on stdout) or a Unix-domain socket, then serves
//! until a client sends `Shutdown`. With `--store DIR`, closed sessions are
//! looked up in / written back to the persistent result store, surfacing
//! the cross-run hit rate in the metrics scrape.
//!
//! A command-line mistake (an unknown flag, a missing or unparsable value)
//! exits 2 and a runtime failure (a refused configuration, a socket that
//! cannot be bound) exits 1, each with a message on stderr.

use std::process::ExitCode;
use wlcrc_serve::{Server, ServerConfig};

/// Why the daemon stopped: a command-line mistake or a runtime failure.
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
            eprintln!("wlcrc-serve: {message}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(err)) => {
            eprintln!("wlcrc-serve: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Failure> {
    let mut listen = "127.0.0.1:7711".to_string();
    let mut unix: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| Failure::Usage(format!("{name} needs a value")));
        match arg.as_str() {
            "--listen" => listen = value("--listen")?,
            "--unix" => unix = Some(value("--unix")?),
            "--store" => config.store = Some(value("--store")?.into()),
            "--workers" => config.workers = parse(&value("--workers")?, "--workers")?,
            "--lane-capacity" => {
                config.lane_capacity = parse(&value("--lane-capacity")?, "--lane-capacity")?
            }
            "--session-queue-cap" => {
                config.session_queue_cap =
                    parse(&value("--session-queue-cap")?, "--session-queue-cap")?
            }
            "--degraded-threshold" => {
                config.degraded_threshold =
                    parse(&value("--degraded-threshold")?, "--degraded-threshold")?
            }
            "--max-connections" => {
                config.max_connections = parse(&value("--max-connections")?, "--max-connections")?
            }
            "--request-deadline-ms" => {
                let millis = parse(&value("--request-deadline-ms")?, "--request-deadline-ms")?;
                config.request_deadline = Some(std::time::Duration::from_millis(millis as u64));
            }
            "--help" | "-h" => {
                println!(
                    "usage: wlcrc-serve [--listen ADDR] [--unix PATH] [--store DIR] \
                     [--workers N] [--lane-capacity N] [--session-queue-cap N] \
                     [--degraded-threshold N] [--max-connections N] [--request-deadline-ms N]"
                );
                return Ok(());
            }
            other => return Err(Failure::Usage(format!("unknown flag {other:?}"))),
        }
    }
    // A configuration the server refuses is reported before the store opens.
    config.validate()?;
    let server = Server::new(config);
    let running = match unix {
        #[cfg(unix)]
        Some(path) => {
            let running = server.serve_unix(&path)?;
            println!("wlcrc-serve listening on unix socket {path}");
            running
        }
        #[cfg(not(unix))]
        Some(_) => return Err("--unix needs a unix platform".into()),
        None => {
            let running = server.serve_tcp(&listen)?;
            match running.local_addr() {
                Some(addr) => println!("wlcrc-serve listening on {addr}"),
                None => println!("wlcrc-serve listening on {listen}"),
            }
            running
        }
    };
    running.join();
    Ok(())
}

fn parse(text: &str, flag: &str) -> Result<usize, Failure> {
    text.parse().map_err(|_| Failure::Usage(format!("{flag}: not a count: {text:?}")))
}
