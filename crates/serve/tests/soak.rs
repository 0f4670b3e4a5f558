//! Soak test: sustained mixed traffic against a live `wlcrc-serve` instance.
//!
//! Pins the three service guarantees end to end over real sockets:
//!
//! * **(a) byte-identity** — statistics served over the wire equal a direct
//!   [`Simulator`] run over the same records, bit for bit, despite chunked
//!   submission, interleaved sessions and background worker draining;
//! * **(b) bounded queues** — under deliberate overload the server answers
//!   `Busy` (backpressure observed), queue depth never exceeds the
//!   configured caps, and nothing is dropped silently (every record is
//!   eventually simulated exactly once), through every client: a
//!   [`ServeClient`] over TCP and over a Unix-domain socket, and a
//!   [`RetryClient`];
//! * **(c) metrics reconcile** — the scrape's counters and per-session
//!   gauges agree with the sessions' own [`SchemeStats`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use wlcrc::schemes::SchemeId;
use wlcrc_memsim::{SchemeStats, SimulationOptions, Simulator};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_serve::{
    scrape_value, Exchange, Response, RetryClient, RetryPolicy, RunningServer, ServeClient, Server,
    ServerConfig,
};
use wlcrc_trace::{Benchmark, TraceStream, WriteRecord};

fn records_for(benchmark: Benchmark, seed: u64, count: usize) -> Vec<WriteRecord> {
    TraceStream::new(benchmark.profile(), seed, count).collect()
}

/// A per-test scratch directory removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "wlcrc-soak-{}-{}-{}",
            std::process::id(),
            tag,
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sustained_mixed_traffic_is_byte_identical_to_direct_simulation() {
    // Degradation disabled (threshold == cap): this test holds fidelity
    // constant and checks the wire path changes nothing.
    let server = Server::new(ServerConfig {
        workers: 2,
        session_queue_cap: 8192,
        degraded_threshold: 8192,
        ..ServerConfig::default()
    });
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let addr = running.local_addr().expect("tcp addr");

    // Three concurrent sessions with different schemes/workloads, fed in
    // interleaved odd-sized chunks from separate client connections.
    let cells = [
        (SchemeId::Wlcrc16, Benchmark::Gcc, 0xA1u64, 300usize),
        (SchemeId::Baseline, Benchmark::Mcf, 0xB2, 250),
        (SchemeId::CocFourCosets, Benchmark::Omnetpp, 0xC3, 200),
    ];
    let mut clients: Vec<_> =
        cells.iter().map(|_| ServeClient::connect(addr).expect("connect")).collect();
    let sessions: Vec<u64> = cells
        .iter()
        .zip(&mut clients)
        .map(|((scheme, benchmark, seed, _), client)| {
            let options = SimulationOptions { seed: *seed, ..SimulationOptions::default() };
            client
                .open(scheme.label(), benchmark.short_name(), PcmConfig::table_ii(), options)
                .expect("open")
        })
        .collect();
    let streams: Vec<Vec<WriteRecord>> = cells
        .iter()
        .map(|(_, benchmark, seed, count)| records_for(*benchmark, *seed ^ 0x5EED, *count))
        .collect();

    // Interleave: uneven chunk sizes, round-robin over the sessions.
    let mut offsets = vec![0usize; cells.len()];
    let chunk_sizes = [7usize, 31, 13, 64, 3, 101];
    let mut turn = 0;
    loop {
        let mut progressed = false;
        for (index, records) in streams.iter().enumerate() {
            let offset = offsets[index];
            if offset >= records.len() {
                continue;
            }
            let chunk = chunk_sizes[turn % chunk_sizes.len()].min(records.len() - offset);
            turn += 1;
            let report = clients[index]
                .write_all(sessions[index], &records[offset..offset + chunk])
                .expect("write_all");
            assert_eq!(report.written, chunk as u64, "no record may be dropped");
            offsets[index] = offset + chunk;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }

    for ((scheme, benchmark, seed, count), (client, session)) in
        cells.iter().zip(clients.iter_mut().zip(&sessions))
    {
        let (served, degraded) = client.stats(*session).expect("stats");
        assert!(!degraded, "fidelity test must never degrade");
        let direct = Simulator::with_config(PcmConfig::table_ii())
            .with_options(SimulationOptions { seed: *seed, ..SimulationOptions::default() })
            .run(
                scheme.build().as_ref(),
                TraceStream::new(benchmark.profile(), *seed ^ 0x5EED, *count),
            );
        // `scheme` differs: the direct run labels stats with the codec name;
        // compare everything else bit for bit.
        let mut served_cell = served.clone();
        served_cell.scheme = direct.scheme.clone();
        assert_eq!(served_cell, direct, "{} over the wire diverged", scheme.label());
        assert_eq!(served.data_energy_pj.to_bits(), direct.data_energy_pj.to_bits());
        assert_eq!(served.aux_energy_pj.to_bits(), direct.aux_energy_pj.to_bits());
        assert_eq!(
            served.expected_disturb_errors.to_bits(),
            direct.expected_disturb_errors.to_bits()
        );
        let (closed, store_hit) = client.close(*session).expect("close");
        let mut closed_cell = closed;
        closed_cell.scheme = direct.scheme.clone();
        assert_eq!(closed_cell, direct, "close-time stats diverged");
        assert_eq!(store_hit, None, "server runs store-less here");
    }

    running.shutdown();
    running.join();
}

#[test]
fn overload_is_bounded_backpressured_and_lossless() {
    // No background workers: queues drain only on Flush/Stats/Close, so the
    // overload below is deterministic.
    let config = ServerConfig {
        workers: 0,
        lane_capacity: 8,
        session_queue_cap: 64,
        degraded_threshold: 16,
        ..ServerConfig::default()
    };
    let serve_tcp = || Server::new(config.clone()).serve_tcp("127.0.0.1:0").expect("bind");

    let running = serve_tcp();
    let addr = running.local_addr().expect("tcp addr");
    let over_tcp = overload(&mut ServeClient::connect(addr).expect("connect"), &config);
    stop(running);

    #[cfg(unix)]
    {
        let scratch = Scratch::new("unix");
        std::fs::create_dir_all(&scratch.0).expect("scratch dir");
        let path = scratch.0.join("serve.sock");
        let running = Server::new(config.clone()).serve_unix(&path).expect("bind");
        let mut client = ServeClient::connect_unix(&path).expect("connect");
        assert_eq!(overload(&mut client, &config), over_tcp, "Unix socket diverged from TCP");
        stop(running);
    }

    // The retrying client pauses through its transport after each `Busy`.
    let running = serve_tcp();
    let addr = running.local_addr().expect("tcp addr");
    let policy = RetryPolicy {
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        ..RetryPolicy::default()
    };
    let mut client = RetryClient::connect_retrying(addr.to_string(), policy).expect("connect");
    assert_eq!(overload(&mut client, &config), over_tcp, "RetryClient diverged from TCP");
    assert!(client.busy_waits() > 0, "backpressure must pause the retrying client");
    stop(running);
}

/// Overloads one bank lane of a server running `config` through `client`
/// and checks the backpressure is bounded and lossless; returns the
/// session's statistics.
fn overload<S: Exchange>(client: &mut ServeClient<S>, config: &ServerConfig) -> SchemeStats {
    let session = client
        .open(
            SchemeId::Baseline.label(),
            "hotbank",
            PcmConfig::table_ii(),
            SimulationOptions { seed: 1, ..SimulationOptions::default() },
        )
        .expect("open");

    // Every record rewrites the same line, so they all land in ONE bank
    // lane of capacity 8 — the worst-case skew for queueing.
    let hot: Vec<WriteRecord> = (0..100u64)
        .map(|i| {
            WriteRecord::new(
                0,
                wlcrc_pcm::line::MemoryLine::from_words([i; 8]),
                wlcrc_pcm::line::MemoryLine::from_words([i + 1; 8]),
            )
        })
        .collect();

    // A raw oversized write must be partially accepted: exactly the lane
    // capacity, Busy for the rest, nothing dropped.
    let response = client.write(session, &hot).expect("write");
    let Response::Busy { accepted, queued } = response else {
        panic!("expected Busy under overload, got {response:?}");
    };
    assert_eq!(accepted, config.lane_capacity as u64, "exactly one full lane fits");
    assert_eq!(queued, config.lane_capacity as u64, "backlog equals the accepted records");
    assert!(queued <= config.session_queue_cap as u64, "bounded queue depth");

    // Delivering the remainder through the retry loop observes more
    // backpressure but loses nothing.
    let report = client.write_all(session, &hot[accepted as usize..]).expect("write_all");
    assert_eq!(report.written, hot.len() as u64 - accepted, "lossless delivery");
    assert!(report.busy_responses > 0, "backpressure must be observed");
    assert!(
        report.max_queued <= config.session_queue_cap as u64,
        "queue depth stayed bounded: {}",
        report.max_queued
    );

    let writes = client.flush(session).expect("flush");
    assert_eq!(writes, hot.len() as u64, "every accepted record simulated exactly once");
    let (stats, _) = client.stats(session).expect("stats");
    assert_eq!(stats.writes, hot.len() as u64);

    // The scrape shows the backpressure and degradation counters.
    let text = client.metrics_text().expect("metrics");
    assert!(scrape_value(&text, "wlcrc_serve_busy_responses_total").unwrap() >= 1.0);
    assert_eq!(scrape_value(&text, "wlcrc_serve_lane_capacity"), Some(8.0));
    // 8 accepted into a lane is below the 16-record degraded threshold, so
    // this workload never degraded — and the counter proves it.
    assert_eq!(scrape_value(&text, "wlcrc_serve_degraded_entered_total"), Some(0.0));
    stats
}

/// Stops a server and waits for its threads.
fn stop(running: RunningServer) {
    running.shutdown();
    running.join();
}

#[test]
fn metrics_reconcile_with_scheme_stats_and_store_hit_rate() {
    let scratch = Scratch::new("store");
    let server = Server::new(ServerConfig {
        workers: 1,
        store: Some(scratch.0.clone()),
        ..ServerConfig::default()
    });
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let addr = running.local_addr().expect("tcp addr");
    let mut client = ServeClient::connect(addr).expect("connect");
    let records = records_for(Benchmark::Gcc, 0xFEED, 120);
    let options = SimulationOptions { seed: 5, ..SimulationOptions::default() };

    let run_once = |client: &mut ServeClient<std::net::TcpStream>| {
        let session = client
            .open(SchemeId::Wlcrc16.label(), "gcc", PcmConfig::table_ii(), options.clone())
            .expect("open");
        client.write_all(session, &records).expect("write_all");
        (session, client.flush(session).expect("flush"))
    };

    // First pass: hold the session open and reconcile the scrape against
    // its own statistics before closing.
    let (session, writes) = run_once(&mut client);
    assert_eq!(writes, records.len() as u64);
    let (stats, _) = client.stats(session).expect("stats");
    let text = client.metrics_text().expect("metrics");
    assert_eq!(
        scrape_value(&text, "wlcrc_serve_writes_simulated_total"),
        Some(stats.writes as f64),
        "simulated counter must equal the session's writes"
    );
    assert_eq!(
        scrape_value(&text, "wlcrc_serve_writes_accepted_total"),
        Some(records.len() as f64)
    );
    assert!(text.contains(&format!(
        "wlcrc_serve_energy_pj_per_write{{session=\"{session}\",scheme=\"WLCRC-16\"}} {:?}",
        stats.mean_energy_pj()
    )));
    assert!(text.contains(&format!(
        "wlcrc_serve_write_imbalance{{session=\"{session}\",scheme=\"WLCRC-16\"}} {:?}",
        stats.write_imbalance()
    )));
    assert!(text.contains(&format!(
        "wlcrc_serve_queue_depth{{session=\"{session}\",scheme=\"WLCRC-16\"}} 0"
    )));
    let (first_close, first_hit) = client.close(session).expect("close");
    assert_eq!(first_hit, Some(false), "cold store must miss");
    assert_eq!(first_close, stats);

    // Second identical pass: served stats identical, and the close is now a
    // store hit, which the hit-rate gauge reflects.
    let (session, _) = run_once(&mut client);
    let (second_close, second_hit) = client.close(session).expect("close");
    assert_eq!(second_hit, Some(true), "warm store must hit");
    assert_eq!(second_close, first_close, "cached close must be byte-identical");
    let text = client.metrics_text().expect("metrics");
    assert_eq!(scrape_value(&text, "wlcrc_serve_store_hits_total"), Some(1.0));
    assert_eq!(scrape_value(&text, "wlcrc_serve_store_misses_total"), Some(1.0));
    assert_eq!(scrape_value(&text, "wlcrc_serve_store_hit_rate"), Some(0.5));

    running.shutdown();
    running.join();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let server = Server::new(ServerConfig::default());
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let addr = running.local_addr().expect("tcp addr");
    let mut client = ServeClient::connect(addr).expect("connect");

    // Unknown session and unknown scheme come back as remote errors on a
    // connection that stays usable.
    assert!(client.flush(999).is_err());
    assert!(client
        .open("NoSuchScheme", "w", PcmConfig::table_ii(), SimulationOptions::default())
        .is_err());
    let session = client
        .open(SchemeId::Baseline.label(), "w", PcmConfig::table_ii(), SimulationOptions::default())
        .expect("the connection survived the errors");
    let (stats, _) = client.stats(session).expect("stats");
    assert_eq!(stats.writes, 0);

    running.shutdown();
    running.join();
}
