//! Chaos soak: the full recovery story end to end.
//!
//! One run exercises every fault path this repo injects — a gridrun worker
//! crashed mid-claim (`grid.claim.crash` via `WLCRC_FAULTS`), a corrupted
//! and a torn store entry healed by recomputation, a `storectl fsck` pass
//! confirming zero remaining bad entries, and a serve replay through a
//! flaky client — and asserts the one invariant that matters throughout:
//! every dump and every served statistic stays **byte-identical** to the
//! clean, fault-free run.

use std::path::PathBuf;
use std::process::{Command, Output};
use wlcrc::schemes::SchemeId;
use wlcrc_faults::FAULTS_ENV;
use wlcrc_memsim::{SimulationOptions, Simulator, CLAIM_CRASH_EXIT_CODE, FAULT_CLAIM_CRASH};
use wlcrc_pcm::config::PcmConfig;
use wlcrc_serve::{RetryClient, RetryPolicy, Server, ServerConfig, FAULT_CLIENT_FLAKY};
use wlcrc_store::ResultStore;
use wlcrc_trace::{Benchmark, TraceStream, WriteRecord};

const GRIDRUN: &str = env!("CARGO_BIN_EXE_wlcrc-gridrun");
const STORECTL: &str = env!("CARGO_BIN_EXE_storectl");

/// A scratch store directory under `target/tmp`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("chaos-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one gridrun worker against `store`, optionally under a fault plan.
fn run_worker(store: &PathBuf, faults: Option<&str>, extra: &[&str]) -> Output {
    let mut command = Command::new(GRIDRUN);
    command
        .args(["--plan", "perfsnap", "--lines", "25", "--seed", "3", "--threads", "2"])
        .arg("--store")
        .arg(store)
        .args(extra)
        .env_remove(FAULTS_ENV);
    if let Some(spec) = faults {
        command.env(FAULTS_ENV, spec);
    }
    command.output().expect("run gridrun worker")
}

/// The final claim report a worker prints to stderr (periodic "progress"
/// lines share its counters but not its "cells" marker):
/// (computed, served, stolen, plan_hits).
fn parse_report(stderr: &str) -> (usize, usize, usize, usize) {
    let line = stderr
        .lines()
        .find(|l| l.contains("wlcrc-gridrun: cells"))
        .unwrap_or_else(|| panic!("no claim report in stderr: {stderr:?}"));
    let field = |name: &str| -> usize {
        let rest = &line[line.find(name).expect("report field") + name.len()..];
        rest.split_whitespace().next().expect("report value").parse().expect("numeric report")
    };
    (field("computed "), field("served "), field("stolen "), field("plan_hits "))
}

#[test]
fn chaos_fleet_recovers_to_byte_identical_results() {
    // Ground truth: the store-less in-process engine, no faults anywhere.
    let direct = Command::new(GRIDRUN)
        .args(["--plan", "perfsnap", "--lines", "25", "--seed", "3", "--direct"])
        .env_remove(FAULTS_ENV)
        .output()
        .expect("run gridrun --direct");
    assert!(direct.status.success());
    let truth = String::from_utf8(direct.stdout).expect("utf-8 dump");

    // ------ Phase 1: a worker crashes while holding a claim. ------
    let scratch = Scratch::new("fleet");
    let crashed = run_worker(&scratch.0, Some(&format!("seed=7;{FAULT_CLAIM_CRASH}=@3")), &[]);
    assert_eq!(
        crashed.status.code(),
        Some(CLAIM_CRASH_EXIT_CODE),
        "the injected crash must kill the worker: {crashed:?}"
    );
    let store = ResultStore::open_read_only(&scratch.0);
    let abandoned_claims = store.claims().len();
    let crashed_cells = store.entries().len();
    assert!(abandoned_claims >= 1, "the crashed worker left at least one claim behind");

    // Two clean workers inherit the half-done store; the dead owner's claims
    // lost their locks with it, are taken over, and both workers finish the
    // exact grid.
    let mut taken_over_total = 0;
    let mut computed_total = crashed_cells; // cells the crashed worker finished
    for _ in 0..2 {
        let out = run_worker(&scratch.0, None, &[]);
        assert!(out.status.success(), "clean worker failed: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            truth,
            "post-crash worker dump must match the fault-free engine"
        );
        let (computed, loaded, taken_over, plan_hits) =
            parse_report(&String::from_utf8_lossy(&out.stderr));
        // The first worker finishes the grid and records the plan entry; a
        // later worker may then serve the whole plan without touching cells.
        assert!(
            computed + loaded == 16 || plan_hits == 1,
            "each worker accounts for the whole grid (one way or the other)"
        );
        computed_total += computed;
        taken_over_total += taken_over;
    }
    assert_eq!(taken_over_total, abandoned_claims, "every abandoned claim is taken over once");
    assert_eq!(computed_total, 16, "every cell simulated exactly once across the fleet");
    assert!(store.claims().is_empty(), "no claims survive the recovered fleet");

    // ------ Phase 2: one corrupted and one torn entry on disk. ------
    // Pick two *cell* entries (the plan entry must stay intact so the final
    // warm run can still hit it) and damage them the two ways a real store
    // gets damaged: a flipped media byte and a truncated (torn) write.
    let cell_entries: Vec<_> = store
        .entries()
        .into_iter()
        .filter(|info| {
            store
                .read_entry(info.fingerprint)
                .is_ok_and(|entry| entry.key.as_record("CellKey").is_ok())
        })
        .collect();
    assert!(cell_entries.len() >= 2, "warm store holds the full cell grid");
    let corrupt_path = store.entry_path(cell_entries[0].fingerprint);
    let mut bytes = std::fs::read(&corrupt_path).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&corrupt_path, &bytes).expect("flip a byte");
    let torn_path = store.entry_path(cell_entries[1].fingerprint);
    let torn_len = std::fs::metadata(&torn_path).expect("stat entry").len() / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&torn_path)
        .and_then(|file| file.set_len(torn_len))
        .expect("tear the entry");

    // A worker forced onto the cell path (no plan shortcut) heals both:
    // damaged reads quarantine + miss, the cells recompute, the dump is
    // still byte-identical.
    let out = run_worker(&scratch.0, None, &["--no-plan-cache"]);
    assert!(out.status.success(), "healing worker failed: {out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        truth,
        "healing worker dump must match the fault-free engine"
    );
    let (computed, loaded, _, _) = parse_report(&String::from_utf8_lossy(&out.stderr));
    assert_eq!(computed, 2, "exactly the two damaged cells recompute");
    assert_eq!(loaded, 14, "every intact cell is served from the store");

    // ------ Phase 3: fsck confirms zero remaining bad entries. ------
    let fsck = Command::new(STORECTL)
        .arg("fsck")
        .arg("--store")
        .arg(&scratch.0)
        .env_remove(FAULTS_ENV)
        .output()
        .expect("run storectl fsck");
    assert!(fsck.status.success(), "fsck failed: {fsck:?}");
    let fsck_out = String::from_utf8_lossy(&fsck.stdout);
    assert!(
        fsck_out.contains("0 bad entries remaining"),
        "fsck must report a repaired store: {fsck_out}"
    );

    // A final warm worker still short-circuits through the intact plan
    // entry and reproduces the dump.
    let out = run_worker(&scratch.0, None, &[]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), truth, "warm rerun matches the dump");
    let (_, _, _, plan_hits) = parse_report(&String::from_utf8_lossy(&out.stderr));
    assert_eq!(plan_hits, 1, "the plan entry survived the chaos");

    // ------ Phase 4: serve replay through a flaky client. ------
    // In-process fault plan (the subprocesses above are already done): one
    // in five client calls dies before sending; the retry loop absorbs all
    // of them and the served statistics stay byte-identical.
    wlcrc_faults::configure(&format!("seed=13;{FAULT_CLIENT_FLAKY}=0.2")).unwrap();
    let server = Server::new(ServerConfig::default());
    let running = server.serve_tcp("127.0.0.1:0").expect("bind");
    let addr = running.local_addr().expect("tcp addr");
    let policy = RetryPolicy {
        max_attempts: 8,
        base_delay: std::time::Duration::from_millis(2),
        max_delay: std::time::Duration::from_millis(20),
        seed: 0xC0A5,
    };
    let options = SimulationOptions { seed: 11, ..SimulationOptions::default() };
    let records: Vec<WriteRecord> =
        TraceStream::new(Benchmark::Gcc.profile(), 0xCAFE, 150).collect();
    let mut client = RetryClient::connect_retrying(addr.to_string(), policy).expect("connect");
    let session = client
        .open(SchemeId::Wlcrc16.label(), "gcc", PcmConfig::table_ii(), options.clone())
        .expect("open");
    for chunk in records.chunks(13) {
        let report = client.write_all(session, chunk).expect("write_all");
        assert_eq!(report.written, chunk.len() as u64, "no record may be dropped");
    }
    let (served, _) = client.close(session).expect("close");
    let retries = client.retries();
    wlcrc_faults::clear();
    assert!(retries > 0, "the fault schedule must have hit at least one call");

    let clean = Simulator::with_config(PcmConfig::table_ii()).with_options(options).run(
        SchemeId::Wlcrc16.build().as_ref(),
        TraceStream::new(Benchmark::Gcc.profile(), 0xCAFE, records.len()),
    );
    let mut served_cell = served;
    served_cell.scheme = clean.scheme.clone();
    assert_eq!(served_cell, clean, "flaky-client serve replay diverged from the clean run");

    running.shutdown();
    running.join();
}
