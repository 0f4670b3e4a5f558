//! Fault-injected store behavior: torn writes and media corruption read as
//! misses, corrupt entries are quarantined, and `fsck` repairs the damage.
//!
//! These live in their own integration-test binary because the
//! `wlcrc_faults` plan is process-global: configuring a torn-write fault
//! here must not tear writes in unrelated unit tests. Within this binary the
//! tests serialise on a lock and clear the plan when done.

use serde::Value;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wlcrc_store::{Fingerprint, ResultStore, FAULT_READ_CORRUPT, FAULT_TORN_WRITE};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn exclusive_faults() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "wlcrc-store-faults-{}-{}-{}",
            std::process::id(),
            tag,
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn key(n: u64) -> Value {
    Value::record("Key", vec![("n", Value::U64(n))])
}

fn payload(x: f64) -> Value {
    Value::record("Payload", vec![("energy", Value::F64(x))])
}

#[test]
fn torn_write_fault_is_a_miss_and_fsck_quarantines_it() {
    let _guard = exclusive_faults();
    let scratch = Scratch::new("torn");
    let store = ResultStore::open(&scratch.0).unwrap();

    // Tear exactly the second write: entry 1 lands clean, entry 2 torn.
    wlcrc_faults::configure(&format!("seed=1;{FAULT_TORN_WRITE}=@2")).unwrap();
    assert!(store.put(&key(1), &payload(1.0)).unwrap());
    assert!(store.put(&key(2), &payload(2.0)).unwrap());
    assert_eq!(wlcrc_faults::fired_count(FAULT_TORN_WRITE), 1, "the schedule tore one write");
    wlcrc_faults::clear();

    // The torn entry exists on disk but never serves a payload.
    assert_eq!(store.entries().len(), 2);
    assert_eq!(store.get(&key(1)), Some(payload(1.0)));
    assert_eq!(store.get(&key(2)), None);

    // The failed read already quarantined the corpse; fsck confirms a clean
    // store and the quarantine preserves the evidence.
    let report = store.fsck(60).unwrap();
    assert!(report.quarantined.is_empty(), "get already moved the torn entry aside");
    assert_eq!(report.valid, 1);
    assert_eq!(store.quarantined().len(), 1);
    assert_eq!(store.quarantined()[0].fingerprint, Fingerprint::of_value(&key(2)));

    // Re-deriving (re-putting) the entry restores the hit.
    assert!(store.put(&key(2), &payload(2.0)).unwrap());
    assert_eq!(store.get(&key(2)), Some(payload(2.0)));
    assert!(store.fsck(60).unwrap().clean());
}

#[test]
fn read_corruption_fault_never_yields_a_wrong_payload() {
    let _guard = exclusive_faults();
    let scratch = Scratch::new("readcorrupt");
    let store = ResultStore::open(&scratch.0).unwrap();
    store.put(&key(7), &payload(7.5)).unwrap();

    // Every read for a while sees one flipped byte; each must be a miss (or,
    // vanishingly unlikely for a 1-byte flip, a validated identical entry) —
    // never a different payload.
    wlcrc_faults::configure(&format!("seed=3;{FAULT_READ_CORRUPT}=1.0")).unwrap();
    let first = store.get(&key(7));
    assert!(wlcrc_faults::fired_count(FAULT_READ_CORRUPT) >= 1, "corruption was injected");
    wlcrc_faults::clear();
    assert_eq!(first, None, "a flipped byte must not validate");

    // The (actually intact) entry was quarantined on the failed read: the
    // cache recomputes, it never lies.
    assert_eq!(store.quarantined().len(), 1);
    store.put(&key(7), &payload(7.5)).unwrap();
    assert_eq!(store.get(&key(7)), Some(payload(7.5)));
}

#[test]
fn fsck_repairs_journal_tails_stale_claims_and_temp_litter() {
    let _guard = exclusive_faults();
    wlcrc_faults::clear();
    let scratch = Scratch::new("fsck");
    let store = ResultStore::open(&scratch.0).unwrap();
    store.put(&key(1), &payload(1.0)).unwrap();
    store.get(&key(1)).unwrap();

    // A torn journal append: the tail line has no parsable fingerprint.
    let mut journal = fs::OpenOptions::new().append(true).open(scratch.0.join("hits.log")).unwrap();
    journal.write_all(b"deadbeef-not-a-fingerprint 12\ntorn").unwrap();
    drop(journal);

    // A claim file no live worker holds: what a worker that died right
    // after creating it leaves.
    let fp = Fingerprint::of_value(&key(2));
    let claim = store.claim_path(fp);
    fs::create_dir_all(claim.parent().unwrap()).unwrap();
    fs::write(&claim, b"").unwrap();
    // A live worker's claim, which fsck must leave alone.
    let live = Fingerprint::of_value(&key(3));
    let held = store.try_claim(live).unwrap().expect("a free cell is claimed");

    // Temp litter from a crashed writer, pre-aged past the staleness cutoff
    // by sleeping across a clock second.
    let tmp = scratch.0.join(".tmp-dead-writer");
    fs::write(&tmp, b"half an entry").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(1100));

    let report = store.fsck(0).unwrap();
    assert!(!report.clean());
    assert_eq!(report.valid, 1);
    assert!(report.quarantined.is_empty());
    assert_eq!(report.dropped_journal_lines, 2);
    assert_eq!(report.cleared_claims, vec![fp], "only the unlocked claim is cleared");
    assert_eq!(report.removed_temp_files, 1);
    assert!(store.try_claim(live).unwrap().is_none(), "the live claim is still held");
    drop(held);

    // The journal survives with its one good line; the claim and litter are
    // gone; a second pass is clean.
    assert_eq!(store.hit_count(), 1);
    assert!(store.claims().is_empty());
    assert!(!tmp.exists());
    assert!(store.fsck(0).unwrap().clean());
}

#[test]
fn readonly_fsck_touches_nothing() {
    let _guard = exclusive_faults();
    wlcrc_faults::clear();
    let scratch = Scratch::new("ro");
    let writer = ResultStore::open(&scratch.0).unwrap();
    writer.put(&key(1), &payload(1.0)).unwrap();
    let path = writer.entry_path(Fingerprint::of_value(&key(1)));
    fs::write(&path, b"garbage").unwrap();

    let reader = ResultStore::open_read_only(&scratch.0);
    assert_eq!(reader.get(&key(1)), None, "corrupt entry is a miss");
    assert!(path.exists(), "read-only stores never quarantine");
    let report = reader.fsck(0).unwrap();
    assert!(report.clean());
    assert!(path.exists());
}
