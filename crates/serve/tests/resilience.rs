//! Resilience of the serve path under injected faults: the connection cap
//! fails closed with `Busy`, deadline misses push sessions into degraded
//! mode, a session that shed work leaves the result store alone, a
//! session's store key covers every bit of its accepted stream, a flaky
//! client absorbed by [`RetryClient`] still produces byte-identical
//! statistics, and `Open` refuses a configuration the simulator cannot run
//! instead of panicking on its first write.
//!
//! Lives in its own integration-test binary because the `wlcrc_faults` plan
//! is process-global; every test here takes the lock (even fault-free ones,
//! so a concurrently configured plan cannot leak into them).

use serde::{Deserialize, Serialize, Value};
use std::sync::Mutex;
use std::time::Duration;
use wlcrc::schemes::SchemeId;
use wlcrc_memsim::{SimulationOptions, Simulator};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_serve::{
    scrape_value, RetryClient, RetryPolicy, ServeClient, ServeError, Server, ServerConfig,
    FAULT_CLIENT_FLAKY, FAULT_REQUEST_SLOW,
};
use wlcrc_store::ResultStore;
use wlcrc_trace::{Benchmark, TraceStream, WriteRecord};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn exclusive_faults() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn records_for(benchmark: Benchmark, seed: u64, count: usize) -> Vec<WriteRecord> {
    TraceStream::new(benchmark.profile(), seed, count).collect()
}

fn quick_policy(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
        seed: 0xF00D,
    }
}

#[test]
fn connection_cap_refuses_with_busy_then_recovers() {
    let _guard = exclusive_faults();
    wlcrc_faults::clear();
    let server = Server::new(ServerConfig { max_connections: 1, ..ServerConfig::default() });
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let addr = running.local_addr().expect("tcp addr");

    // The first connection owns the only slot.
    let mut holder = ServeClient::connect(addr).expect("connect");
    holder.metrics_text().expect("holder is live");

    // A second client is refused with a single `Busy` frame; with one
    // attempt the refusal surfaces instead of being retried away.
    let mut refused = RetryClient::connect(addr.to_string(), quick_policy(1)).expect("tcp connect");
    assert!(refused.metrics_text().is_err(), "past the cap must not be served");

    let text = holder.metrics_text().expect("metrics");
    assert!(scrape_value(&text, "wlcrc_serve_connections_rejected_total").unwrap() >= 1.0);
    assert_eq!(scrape_value(&text, "wlcrc_serve_connections_active"), Some(1.0));

    // Once the slot frees up, a patient client's backoff-and-reconnect loop
    // gets through.
    drop(holder);
    let mut patient = RetryClient::connect(addr.to_string(), quick_policy(10)).expect("connect");
    let text = patient.metrics_text().expect("retries outlast the freed slot");
    assert_eq!(scrape_value(&text, "wlcrc_serve_connections_active"), Some(1.0));

    patient.shutdown().expect("shutdown");
    running.join();
}

#[test]
fn deadline_misses_degrade_the_session_but_keep_energy_exact() {
    let _guard = exclusive_faults();
    // Dispatch order on this connection: 1 = Open, 2 = Write (stalled by
    // the injected fault -> deadline miss -> session degraded), 3+ = the
    // rest. Workers are off so every record drains inline, after the
    // degrade, making the shed work deterministic.
    wlcrc_faults::configure(&format!("seed=5;{FAULT_REQUEST_SLOW}=@2")).unwrap();
    let server = Server::new(ServerConfig {
        workers: 0,
        request_deadline: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    });
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let addr = running.local_addr().expect("tcp addr");
    let mut client = ServeClient::connect(addr).expect("connect");

    let options = SimulationOptions { seed: 3, ..SimulationOptions::default() };
    let records = records_for(Benchmark::Gcc, 0xD1E5, 50);
    let session = client
        .open(SchemeId::Baseline.label(), "gcc", PcmConfig::table_ii(), options.clone())
        .expect("open");
    let report = client.write_all(session, &records).expect("write_all");
    assert_eq!(report.written, records.len() as u64);
    assert!(wlcrc_faults::fired_count(FAULT_REQUEST_SLOW) >= 1, "the stall was injected");
    wlcrc_faults::clear();

    // Stats drains the whole backlog inline — while still degraded — and
    // degraded mode exits once the backlog hits zero, so the snapshot
    // reports a recovered session whose drained records were shed.
    let (served, degraded) = client.stats(session).expect("stats");
    assert!(!degraded, "a fully drained session must have recovered");
    let text = client.metrics_text().expect("metrics");
    assert!(scrape_value(&text, "wlcrc_serve_deadline_misses_total").unwrap() >= 1.0);
    assert!(scrape_value(&text, "wlcrc_serve_degraded_entered_total").unwrap() >= 1.0);

    // Degraded mode sheds disturbance accounting but never perturbs the
    // RNG-free energy/endurance numbers.
    let direct = Simulator::with_config(PcmConfig::table_ii()).with_options(options).run(
        SchemeId::Baseline.build().as_ref(),
        TraceStream::new(Benchmark::Gcc.profile(), 0xD1E5, records.len()),
    );
    assert_eq!(served.writes, direct.writes);
    assert_eq!(served.data_energy_pj.to_bits(), direct.data_energy_pj.to_bits());
    assert_eq!(served.aux_energy_pj.to_bits(), direct.aux_energy_pj.to_bits());
    assert_eq!(served.data_cells_updated, direct.data_cells_updated);
    assert_eq!(served.expected_disturb_errors, 0.0, "disturbance accounting was shed");

    client.shutdown().expect("shutdown");
    running.join();
}

#[test]
fn a_session_that_shed_work_neither_reads_nor_writes_the_store() {
    let _guard = exclusive_faults();
    wlcrc_faults::clear();
    let store = std::env::temp_dir().join(format!("wlcrc-resilience-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let options = SimulationOptions { seed: 4, ..SimulationOptions::default() };
    let records = records_for(Benchmark::Gcc, 0x5EED, 80);
    // Opens one server on the shared store and closes one session of
    // `records` per entry of `sessions`.
    let close_sessions = |config: ServerConfig, sessions: usize| {
        let config = ServerConfig { store: Some(store.clone()), ..config };
        let running = Server::new(config).serve_tcp("127.0.0.1:0").expect("bind");
        let mut client = ServeClient::connect(running.local_addr().expect("tcp addr")).unwrap();
        let closed: Vec<_> = (0..sessions)
            .map(|_| {
                let scheme = SchemeId::Wlcrc16.label();
                let session =
                    client.open(scheme, "gcc", PcmConfig::table_ii(), options.clone()).unwrap();
                client.write_all(session, &records).expect("write_all");
                client.close(session).expect("close")
            })
            .collect();
        client.shutdown().expect("shutdown");
        running.join();
        closed
    };

    // No workers and a threshold below the one batch: the write degrades
    // the session, which sheds work until its close drains it.
    let degraded = ServerConfig { workers: 0, degraded_threshold: 8, ..ServerConfig::default() };
    let (stats, store_hit) = close_sessions(degraded, 1).remove(0);
    assert_eq!(store_hit, None, "a session that shed work must skip the store");
    assert_eq!(stats.expected_disturb_errors, 0.0, "disturbance sampling was shed");
    assert!(ResultStore::open(&store).expect("store").entries().is_empty());

    // A clean replay of the same records misses, then hits.
    let direct = Simulator::with_config(PcmConfig::table_ii()).with_options(options.clone()).run(
        SchemeId::Wlcrc16.build().as_ref(),
        TraceStream::new(Benchmark::Gcc.profile(), 0x5EED, records.len()),
    );
    let closed = close_sessions(ServerConfig::default(), 2);
    for ((mut stats, store_hit), expect) in closed.into_iter().zip([false, true]) {
        assert_eq!(store_hit, Some(expect));
        stats.scheme = direct.scheme.clone();
        assert_eq!(stats, direct, "a clean session equals a direct run");
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn the_session_key_covers_every_packed_byte() {
    let _guard = exclusive_faults();
    wlcrc_faults::clear();
    let store = std::env::temp_dir().join(format!("wlcrc-session-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut first = records_for(Benchmark::Gcc, 0xB17, 60);
    // The last record rewrites the line of record 3.
    first.push(WriteRecord::new(first[3].address, first[3].new, first[7].new));
    let last = first.len() - 1;
    let flipped = |index: usize, flip: fn(&mut WriteRecord)| {
        let mut records = first.clone();
        flip(&mut records[index]);
        records
    };
    // One bit of one record each: an address (a new line in the same
    // bank), then `old` and `new` of the rewrite. The simulator reads
    // neither the moved address nor a rewrite's `old`, so only the key can
    // tell those two streams from the first.
    let streams = [
        first.clone(),
        flipped(10, |record| record.address ^= 1 << 40),
        flipped(last, |record| record.old.words_mut()[3] ^= 1 << 17),
        flipped(last, |record| record.new.words_mut()[5] ^= 1 << 33),
        first.clone(),
    ];
    let running =
        Server::new(ServerConfig { store: Some(store.clone()), ..ServerConfig::default() })
            .serve_tcp("127.0.0.1:0")
            .expect("bind");
    let mut client = ServeClient::connect(running.local_addr().expect("tcp addr")).unwrap();
    let options = SimulationOptions { seed: 6, ..SimulationOptions::default() };
    let closed: Vec<_> = streams
        .iter()
        .map(|records| {
            let scheme = SchemeId::Wlcrc16.label();
            let session =
                client.open(scheme, "gcc", PcmConfig::table_ii(), options.clone()).unwrap();
            client.write_all(session, records).expect("write_all");
            client.close(session).expect("close")
        })
        .collect();
    client.shutdown().expect("shutdown");
    running.join();

    let hits: Vec<_> = closed.iter().map(|(_, store_hit)| *store_hit).collect();
    let expected = [false, false, false, false, true].map(Some);
    assert_eq!(hits, expected, "one flipped bit must miss; the replay must hit");
    assert_eq!(closed[1].0, closed[0].0, "the moved address simulates like the first stream");
    assert_eq!(closed[2].0, closed[0].0, "the rewrite's old is never read");
    assert_eq!(ResultStore::open(&store).expect("store").entries().len(), 4);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn flaky_client_retries_are_byte_identical_to_a_clean_run() {
    let _guard = exclusive_faults();
    // Every fifth-ish client call fails before sending; the retry loop must
    // absorb all of them without changing a single served bit.
    wlcrc_faults::configure(&format!("seed=11;{FAULT_CLIENT_FLAKY}=0.2")).unwrap();
    let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let addr = running.local_addr().expect("tcp addr");

    let options = SimulationOptions { seed: 9, ..SimulationOptions::default() };
    let records = records_for(Benchmark::Mcf, 0xFA17, 200);
    let mut client = RetryClient::connect(addr.to_string(), quick_policy(8)).expect("connect");
    let session = client
        .open(SchemeId::Wlcrc16.label(), "mcf", PcmConfig::table_ii(), options.clone())
        .expect("open");
    // Small chunks -> many calls -> many chances for the fault to fire.
    for chunk in records.chunks(17) {
        let report = client.write_all(session, chunk).expect("write_all");
        assert_eq!(report.written, chunk.len() as u64, "no record may be dropped");
    }
    let (served, _) = client.stats(session).expect("stats");
    let (closed, _) = client.close(session).expect("close");
    let retries = client.retries();
    wlcrc_faults::clear();
    assert!(retries > 0, "the schedule must have injected at least one transient failure");

    let direct = Simulator::with_config(PcmConfig::table_ii()).with_options(options).run(
        SchemeId::Wlcrc16.build().as_ref(),
        TraceStream::new(Benchmark::Mcf.profile(), 0xFA17, records.len()),
    );
    let mut served_cell = served;
    served_cell.scheme = direct.scheme.clone();
    assert_eq!(served_cell, direct, "flaky-client stats diverged from the clean run");
    let mut closed_cell = closed;
    closed_cell.scheme = direct.scheme.clone();
    assert_eq!(closed_cell, direct, "close-time stats diverged");

    let mut closer = ServeClient::connect(addr).expect("connect");
    closer.shutdown().expect("shutdown");
    running.join();
}

/// `value` with its record field `field` replaced. The derived
/// `Deserialize` does not check, so this is how a client can send models
/// that `EnergyModel::new` and `DisturbanceModel::new` would refuse.
fn with_field<T: Serialize + Deserialize>(value: &T, field: &str, replacement: Value) -> T {
    let Value::Record { name, mut fields } = value.to_value() else { panic!("not a record") };
    fields.iter_mut().find(|(key, _)| key == field).expect("no such field").1 = replacement;
    T::from_value(&Value::Record { name, fields }).expect("deserializes unchecked")
}

#[test]
fn open_refuses_configs_the_simulator_cannot_run() {
    let _guard = exclusive_faults();
    wlcrc_faults::clear();
    let server = Server::new(ServerConfig { workers: 0, ..ServerConfig::default() });
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let mut client =
        ServeClient::connect(running.local_addr().expect("tcp addr")).expect("connect");

    let table_ii = PcmConfig::table_ii();
    let energy = |field, value: Value| PcmConfig {
        energy: with_field(&table_ii.energy, field, value),
        ..table_ii.clone()
    };
    let rates = |rates: [f64; 4]| PcmConfig {
        disturbance: with_field(&table_ii.disturbance, "rates", rates.to_value()),
        ..table_ii.clone()
    };
    let mut refused = ["channels", "dimms_per_channel", "banks_per_dimm", "line_bytes"]
        .map(|field| with_field(&table_ii, field, Value::U64(0)))
        .to_vec();
    refused.extend([
        PcmConfig { channels: usize::MAX, dimms_per_channel: 2, ..table_ii.clone() },
        // 2^33 and 4,097 banks: each fits a `usize`, but a session allocates
        // per bank.
        PcmConfig {
            channels: 2048,
            dimms_per_channel: 2048,
            banks_per_dimm: 2048,
            ..table_ii.clone()
        },
        PcmConfig { channels: 17, dimms_per_channel: 1, banks_per_dimm: 241, ..table_ii.clone() },
        energy("reset_pj", Value::F64(-1.0)),
        energy("reset_pj", Value::F64(f64::NAN)),
        energy("set_pj", [0.0, 20.0, f64::INFINITY, 547.0].to_value()),
        energy("set_pj", [0.0, -20.0, 307.0, 547.0].to_value()),
        rates([0.123, -0.1, 0.276, 0.152]),
        rates([0.123, 0.0, 1.5, 0.152]),
        rates([f64::NAN, 0.0, 0.276, 0.152]),
    ]);
    let scheme = SchemeId::Wlcrc16.label();
    for config in refused {
        match client.open(scheme, "gcc", config.clone(), SimulationOptions::default()) {
            Err(ServeError::Remote(message)) => {
                assert!(message.starts_with("session open rejected"), "{message}")
            }
            other => panic!("{config:?} was not refused: {other:?}"),
        }
    }

    // The connection outlived every refusal, no session was left behind,
    // and a valid `Open` at the 4,096-bank bound on it still serves writes.
    let text = client.metrics_text().expect("metrics");
    assert_eq!(scrape_value(&text, "wlcrc_serve_sessions"), Some(0.0));
    let records = records_for(Benchmark::Gcc, 0x0BE7, 40);
    let most_banks =
        PcmConfig { channels: 16, dimms_per_channel: 16, banks_per_dimm: 16, ..table_ii };
    let session =
        client.open(scheme, "gcc", most_banks, SimulationOptions::default()).expect("a valid open");
    client.write_all(session, &records).expect("write_all");
    let stats = client.stats(session).expect("stats").0;
    assert_eq!(stats.writes, records.len() as u64);
    assert_eq!(stats.bank_writes.len(), 4096);

    client.shutdown().expect("shutdown");
    running.join();
}
