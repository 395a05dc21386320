//! The `deepburning` argument parser end to end: a filter that selects
//! nothing and a flag the subcommand does not take both exit nonzero
//! with a message, zoo names match with case and punctuation ignored,
//! a script is read whatever its extension, `simulate --json` prints a
//! document that parses back, and `history` appends to, shows and
//! checks a ledger.

use deepburning_trace::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn deepburning(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepburning"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("deepburning runs")
}

fn fails_saying(args: &[&str], message: &str) {
    let out = deepburning(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn an_unknown_net_in_only_fails() {
    fails_saying(
        &["lint", "--only", "NoSuchNet"],
        "--only `NoSuchNet` names none",
    );
}

#[test]
fn a_net_outside_the_format_sweep_fails() {
    fails_saying(
        &["diff", "--formats", "Q7.8", "--only", "Hopfield"],
        "--only `Hopfield` names none",
    );
}

#[test]
fn an_unknown_flag_fails() {
    fails_saying(
        &["lint", "--only", "mnist", "--bogus"],
        "takes no flag `--bogus`",
    );
    fails_saying(&["lint", "--nett", "mnist"], "takes no flag `--nett`");
}

#[test]
fn only_and_budget_select_by_canonical_name() {
    let out = deepburning(&["lint", "--only", "Mnist", "--budget", "small"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("MNIST @ DB-S"), "{stdout}");
    assert!(stdout.contains("\n1 runs analyzed"), "{stdout}");
}

#[test]
fn simulate_json_escapes_the_network_name() {
    let script =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/assets/cmac.prototxt"))
            .expect("asset reads")
            .replacen("name: \"cmac\"", "name: \"mn\\ist\"", 1);
    let path = std::env::temp_dir().join(format!("cli-args-{}.prototxt", std::process::id()));
    std::fs::write(&path, script).expect("script writes");
    let out = deepburning(&["simulate", path.to_str().expect("utf-8 path"), "--json"]);
    std::fs::remove_file(&path).expect("script removes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let doc = Json::parse(&stdout).expect("simulate --json is valid JSON");
    assert_eq!(doc.get("network").and_then(Json::as_str), Some("mn\\ist"));
    assert!(doc
        .get("cycles")
        .and_then(Json::as_f64)
        .is_some_and(|c| c > 0.0));
}

/// A fresh path under the temp dir, unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cli-args-{tag}-{}", std::process::id()))
}

#[test]
fn a_script_is_read_whatever_its_extension() {
    let path = scratch("net.pt");
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/assets/cmac.prototxt"),
        &path,
    )
    .expect("script copies");
    let out = deepburning(&["stats", path.to_str().expect("utf-8 path")]);
    std::fs::remove_file(&path).expect("script removes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("totals:"), "{stdout}");
}

#[test]
fn history_check_fails_on_a_missing_ledger() {
    let dir = scratch("empty-ledger");
    std::fs::create_dir_all(&dir).expect("dir creates");
    let dir_arg = dir.to_str().expect("utf-8 path");
    fails_saying(
        &["history", "check", "mnist", "--dir", dir_arg],
        "no ledger for MNIST",
    );
    std::fs::remove_dir_all(&dir).expect("dir removes");
}

#[test]
fn history_append_needs_a_rev() {
    let dir = scratch("no-rev");
    let dir_arg = dir.to_str().expect("utf-8 path");
    fails_saying(
        &["history", "append", "BENCH_mnist.json", "--dir", dir_arg],
        "needs --rev",
    );
    assert!(!dir.exists(), "a refused append wrote {dir:?}");
}

#[test]
fn history_append_then_show_prints_the_series() {
    let dir = scratch("ledger");
    let dir_arg = dir.to_str().expect("utf-8 path");
    let out = deepburning(&[
        "history",
        "append",
        "BENCH_mnist.json",
        "--rev",
        "abc123",
        "--dir",
        dir_arg,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = deepburning(&["history", "show", "mnist", "--dir", dir_arg]);
    std::fs::remove_dir_all(&dir).expect("ledger removes");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("== MNIST =="), "{stdout}");
    assert!(stdout.contains("abc123"), "{stdout}");
}
