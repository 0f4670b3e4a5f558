//! Multi-process integration test of `wlcrc-gridrun`: several concurrent
//! worker processes on one cold store must divide the grid between them
//! (every cell computed exactly once), each end with the complete merged
//! grid, and produce dumps byte-identical to the direct in-process engine.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const GRIDRUN: &str = env!("CARGO_BIN_EXE_wlcrc-gridrun");

/// A scratch store directory under `target/tmp`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("gridrun-race-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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

fn spawn_worker(store: &PathBuf) -> Child {
    Command::new(GRIDRUN)
        .args(["--plan", "perfsnap", "--lines", "25", "--seed", "3", "--threads", "2"])
        .arg("--store")
        .arg(store)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gridrun worker")
}

#[test]
fn concurrent_workers_partition_the_grid_and_merge_identically() {
    // Ground truth: the plain in-process engine, store-less.
    let direct = Command::new(GRIDRUN)
        .args(["--plan", "perfsnap", "--lines", "25", "--seed", "3", "--direct"])
        .output()
        .expect("run gridrun --direct");
    assert!(direct.status.success());
    let truth = String::from_utf8(direct.stdout).expect("utf-8 dump");
    assert!(truth.contains("cells=16"), "perfsnap plan is 2 workloads x 8 schemes");

    // Three workers race on one cold store.
    let scratch = Scratch::new("cold");
    let children: Vec<Child> = (0..3).map(|_| spawn_worker(&scratch.0)).collect();
    let mut computed_total = 0;
    let mut taken_over_total = 0;
    for child in children {
        let out = child.wait_with_output().expect("wait for gridrun worker");
        assert!(out.status.success(), "worker failed: {out:?}");
        let dump = String::from_utf8(out.stdout).expect("utf-8 dump");
        assert_eq!(dump, truth, "every worker must end with the direct engine's exact dump");
        let (computed, loaded, taken_over, _) = parse_report(&String::from_utf8_lossy(&out.stderr));
        assert_eq!(computed + loaded, 16, "each worker accounts for the whole grid");
        computed_total += computed;
        taken_over_total += taken_over;
    }
    // The claim protocol hands each cell to exactly one live worker; with no
    // crashed owners there is nothing to take over.
    assert_eq!(computed_total, 16, "every cell simulated exactly once across the fleet");
    assert_eq!(taken_over_total, 0, "live workers take nothing over");

    // A fourth worker on the now-warm store is served the whole grid from
    // the plan-level entry without simulating anything.
    let out = spawn_worker(&scratch.0).wait_with_output().expect("wait for warm worker");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), truth, "warm rerun matches the dump");
    let (computed, _, _, plan_hits) = parse_report(&String::from_utf8_lossy(&out.stderr));
    assert_eq!(computed, 0, "fully warm store: nothing left to simulate");
    assert_eq!(plan_hits, 1, "the whole config is one plan-level read");
}
