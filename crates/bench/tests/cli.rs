//! The bench binaries refuse a command line they cannot read: an unknown
//! flag, a flag without its value or an unparsable value exits 2 with a
//! message naming the flag, before any table is printed or file written.

use std::path::PathBuf;
use std::process::{Command, Output};

const FIG04: &str = env!("CARGO_BIN_EXE_fig04");
const GRIDRUN: &str = env!("CARGO_BIN_EXE_wlcrc-gridrun");
const STORECTL: &str = env!("CARGO_BIN_EXE_storectl");
const PERFSNAP: &str = env!("CARGO_BIN_EXE_perfsnap");

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary).args(args).env_remove("WLCRC_STORE").output().expect("binary starts")
}

/// An empty scratch directory under `target/tmp`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn refuses_what_it_cannot_read_with_exit_2() {
    let scratch = Scratch::new("refused");
    let store = scratch.0.join("store").to_string_lossy().into_owned();
    let out = scratch.0.join("snapshot.json").to_string_lossy().into_owned();
    let cases: [(&str, &[&str], &str); 12] = [
        (FIG04, &["--lines", "abc", "--seed", "7"], "fig04: --lines: not a number: \"abc\""),
        (FIG04, &["--lines", "--seed", "7"], "fig04: --lines: not a number: \"--seed\""),
        (FIG04, &["--line", "40"], "fig04: unknown flag \"--line\""),
        (
            GRIDRUN,
            &["--plan", "fig08", "--lines", "abc", "--direct"],
            "wlcrc-gridrun: --lines: not a number: \"abc\"",
        ),
        (
            GRIDRUN,
            &["--plan", "fig08", "--line", "2000", "--direct"],
            "wlcrc-gridrun: unknown flag \"--line\"",
        ),
        (
            GRIDRUN,
            &["--plan", "fig08", "--threads", "many", "--direct"],
            "wlcrc-gridrun: --threads: not a number: \"many\"",
        ),
        (
            STORECTL,
            &["stats", "--store", &store, "--min-hit", "5"],
            "storectl: unknown flag \"--min-hit\"",
        ),
        (STORECTL, &["list", "--store", &store, "--bogus"], "storectl: unknown flag \"--bogus\""),
        (
            STORECTL,
            &["evict", "--store", &store, "--max-bytes", "lots"],
            "storectl: --max-bytes: not a size (e.g. 64m): \"lots\"",
        ),
        (
            STORECTL,
            &["stats", "--store", &store, "--min-hits"],
            "storectl: --min-hits needs a value",
        ),
        (PERFSNAP, &["--chek", "--out", &out], "perfsnap: unknown flag \"--chek\""),
        (PERFSNAP, &["--out", &out, "--note"], "perfsnap: --note needs a value"),
    ];
    for (binary, args, message) in cases {
        let output = run(binary, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), message, "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
    }
    let written: Vec<_> = std::fs::read_dir(&scratch.0).expect("scratch exists").collect();
    assert!(written.is_empty(), "a refused command line wrote {written:?}");
}

#[test]
fn runs_a_command_line_it_can_read() {
    let output = run(FIG04, &["--lines", "40", "--seed", "7"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("== Figure 4: "));
    let output = run(GRIDRUN, &["--plan", "perfsnap", "--lines", "8", "--seed", "7", "--direct"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("config 0 seeds=[7] lines=8 "));
    // An empty store has no hits: plain stats succeed and the gate fails.
    let scratch = Scratch::new("stats");
    let store = scratch.0.to_string_lossy();
    let stats = run(STORECTL, &["stats", "--store", &store]);
    assert!(String::from_utf8_lossy(&stats.stdout).contains("entries: 0\n"));
    assert!(stats.status.success(), "{}", String::from_utf8_lossy(&stats.stderr));
    let gated = run(STORECTL, &["stats", "--store", &store, "--min-hits", "5"]);
    assert_eq!(gated.status.code(), Some(1), "{}", String::from_utf8_lossy(&gated.stderr));
}
