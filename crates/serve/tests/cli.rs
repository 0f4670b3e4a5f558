//! The daemon and the replay tool report what went wrong as a message on
//! stderr, not as a debug-printed error: a command-line mistake exits 2 and
//! a refused configuration exits 1. Every case here stops before a socket
//! is bound, a connection made or a worker started.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_wlcrc-serve");
const REPLAY: &str = env!("CARGO_BIN_EXE_serve-replay");

/// Runs `bin` with `args`, killing it if it has not exited within ten
/// seconds (a daemon that got past its checks would serve forever).
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("the child can be polled").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("the child can be killed");
            panic!("{bin} {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("the child's output can be read")
}

/// Asserts the exit code, that stderr names the program and holds
/// `message`, and that it shows no `ServeError` variant or protocol
/// complaint.
fn assert_reports(output: &Output, code: i32, program: &str, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(code), "stderr: {stderr}");
    assert!(stderr.starts_with(&format!("{program}: ")), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
    for leak in ["Config(", "Protocol(", "protocol violation"] {
        assert!(!stderr.contains(leak), "stderr: {stderr}");
    }
}

#[test]
fn serve_refuses_a_zero_lane_capacity_with_exit_1() {
    for (flag, message) in [
        ("--lane-capacity", "lane_capacity must be at least 1"),
        ("--max-connections", "max_connections must be at least 1"),
    ] {
        let output = run(SERVE, &["--listen", "127.0.0.1:0", flag, "0"]);
        assert_reports(&output, 1, "wlcrc-serve", message);
        assert!(output.stdout.is_empty(), "{flag} 0 got as far as listening");
    }
}

#[test]
fn serve_reports_command_line_mistakes_with_exit_2() {
    let cases: [(&[&str], &str); 3] = [
        (&["--bogus"], "unknown flag \"--bogus\""),
        (&["--workers"], "--workers needs a value"),
        (&["--lane-capacity", "many"], "--lane-capacity: not a count: \"many\""),
    ];
    for (args, message) in cases {
        assert_reports(&run(SERVE, args), 2, "wlcrc-serve", message);
    }
}

#[test]
fn replay_reports_command_line_mistakes_with_exit_2() {
    let cases: [(&[&str], &str); 5] = [
        (&["--lane-capacity", "0"], "unknown flag \"--lane-capacity\""),
        (&["--bogus"], "unknown flag \"--bogus\""),
        (&["--addr"], "--addr needs a value"),
        (&["--lines", "many"], "--lines: not a number: \"many\""),
        (&["--workloads", "gcc,nosuch"], "unknown workload \"nosuch\""),
    ];
    for (args, message) in cases {
        assert_reports(&run(REPLAY, args), 2, "serve-replay", message);
    }
}
