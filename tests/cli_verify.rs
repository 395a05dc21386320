//! `deepburning verify` end to end: the binary generates the design, runs
//! the closed loop on it and reports through its exit status.

use std::process::{Command, Output};

fn deepburning(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepburning"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("deepburning runs")
}

#[test]
fn verify_runs_the_closed_loop_on_cmac() {
    let out = deepburning(&["verify", "assets/cmac.prototxt", "--budget", "small"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("full RTL run: "), "{stdout}");
    assert!(stdout.contains("static analysis: 0 error(s)"), "{stdout}");
}

#[test]
fn verify_fails_on_a_missing_script() {
    let out = deepburning(&["verify", "assets/no_such_net.prototxt"]);
    assert!(!out.status.success());
}

#[test]
fn verify_fails_on_an_unknown_budget() {
    let out = deepburning(&["verify", "assets/cmac.prototxt", "--budget", "huge"]);
    assert!(!out.status.success());
}
