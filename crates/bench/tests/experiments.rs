//! `experiments` prints every figure binary's output in sequence: between
//! its header (a line and a blank line) and its wall-clock line, its stdout
//! is the figure binaries' stdouts concatenated in figure order.

use std::process::Command;

/// The figure and section binaries, in the order `experiments` prints them.
const FIGURES: [&str; 14] = [
    env!("CARGO_BIN_EXE_fig01"),
    env!("CARGO_BIN_EXE_fig02"),
    env!("CARGO_BIN_EXE_fig03"),
    env!("CARGO_BIN_EXE_fig04"),
    env!("CARGO_BIN_EXE_fig05"),
    env!("CARGO_BIN_EXE_hw_overhead"),
    env!("CARGO_BIN_EXE_fig08"),
    env!("CARGO_BIN_EXE_fig09"),
    env!("CARGO_BIN_EXE_fig10"),
    env!("CARGO_BIN_EXE_multi_objective"),
    env!("CARGO_BIN_EXE_fig11"),
    env!("CARGO_BIN_EXE_fig12"),
    env!("CARGO_BIN_EXE_fig13"),
    env!("CARGO_BIN_EXE_fig14"),
];

fn stdout_of(bin: &str) -> String {
    let output = Command::new(bin)
        .args(["--lines", "40", "--seed", "7"])
        .env_remove("WLCRC_STORE")
        .output()
        .expect("the binary starts");
    assert!(output.status.success(), "{bin}: {}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn experiments_prints_the_figure_binaries_in_sequence() {
    let all = stdout_of(env!("CARGO_BIN_EXE_experiments"));
    let lines: Vec<&str> = all.lines().collect();
    assert!(lines[0].starts_with("WLCRC reproduction: running all experiments"), "{}", lines[0]);
    assert_eq!(lines[1], "");
    assert!(lines[lines.len() - 1].starts_with("all experiments finished in "));
    let body: String = lines[2..lines.len() - 1].iter().map(|line| format!("{line}\n")).collect();
    let figures: String = FIGURES.iter().map(|bin| stdout_of(bin)).collect();
    assert_eq!(body, figures);
}
