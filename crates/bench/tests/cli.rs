//! A figure binary refuses a command line it cannot read: an unknown flag,
//! a flag without its value or an unparsable value exits 2 with a message
//! naming the flag, before any table is printed.

use std::process::{Command, Output};

const FIG04: &str = env!("CARGO_BIN_EXE_fig04");

fn fig04(args: &[&str]) -> Output {
    Command::new(FIG04).args(args).env_remove("WLCRC_STORE").output().expect("fig04 starts")
}

#[test]
fn refuses_what_it_cannot_read_with_exit_2() {
    let cases: [(&[&str], &str); 3] = [
        (&["--lines", "abc", "--seed", "7"], "fig04: --lines: not a number: \"abc\""),
        (&["--lines", "--seed", "7"], "fig04: --lines: not a number: \"--seed\""),
        (&["--line", "40"], "fig04: unknown flag \"--line\""),
    ];
    for (args, message) in cases {
        let output = fig04(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), message, "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn runs_a_command_line_it_can_read() {
    let output = fig04(&["--lines", "40", "--seed", "7"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).starts_with("== Figure 4: "));
}
