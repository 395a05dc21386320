//! `dbbench run --smoke` end to end: every workload, untraced and traced,
//! each in its own child process, then `dbbench compare` on the records.

use deepburning_perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use deepburning_trace::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn dbbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dbbench"))
}

fn scratch(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn check_metrics(record: &Json, expected: &[Metric]) {
    let metrics = record.get("metrics").expect("metrics object");
    for m in expected {
        let entry = metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("missing {} in {}", m.name, record.render()));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        let value = entry.get("value").and_then(Json::as_f64).expect("value");
        assert!(value.is_finite(), "{} = {value}", m.name);
    }
}

#[test]
fn smoke_run_reports_every_metric_for_every_workload() {
    let out = scratch("smoke-records.jsonl");
    let start = Instant::now();
    let run = dbbench()
        .args(["run", "--smoke", "--seed", "1", "--out"])
        .arg(&out)
        .output()
        .expect("dbbench runs");
    let elapsed = start.elapsed();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(elapsed < Duration::from_secs(10), "smoke took {elapsed:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("sim_digest"), "{stdout}");

    let text = std::fs::read_to_string(&out).expect("records written");
    let records: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("record parses"))
        .collect();
    assert_eq!(records.len(), 8, "four workloads, untraced and traced");
    for r in &records {
        let traced = r.get("trace") == Some(&Json::Bool(true));
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{}", r.render());
        assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
        let digest = r.get("sim_digest").and_then(Json::as_str).expect("digest");
        assert!(digest.starts_with("fnv1a:"), "{digest}");
        if traced {
            check_metrics(r, &PER_LAYER);
            let dropped = r.get("metrics").and_then(|m| m.get("trace.events_dropped"));
            assert_eq!(dropped.and_then(|d| d.get("value")?.as_f64()), Some(0.0));
        } else {
            check_metrics(r, &END_TO_END);
            let failed = r.get("metrics").and_then(|m| m.get("ops_failed_ratio"));
            assert_eq!(failed.and_then(|d| d.get("value")?.as_f64()), Some(0.0));
        }
    }

    // The same records on both sides: nothing worse, digests identical.
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let cmp = dbbench()
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .args(["--benchmark", benchmark])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("0 worse, 0 behaviour changed"), "{table}");
    assert_eq!(
        table
            .lines()
            .filter(|l| l.contains("sim_digest") && l.ends_with("identical"))
            .count(),
        4,
        "{table}"
    );
}

#[test]
fn single_run_ends_with_the_result_object() {
    let run = dbbench()
        .args([
            "run",
            "--workload",
            "random-small",
            "--smoke",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("dbbench runs");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    let keys: Vec<&str> = last
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = last.get("metrics").and_then(Json::as_obj).expect("metrics");
    assert_eq!(metrics.len(), END_TO_END.len(), "only the gated metrics");
    assert_eq!(last.get("attempted").and_then(Json::as_f64), Some(5.0));
}

#[test]
fn usage_errors_exit_nonzero_without_a_result() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["run", "--workload", "gen-zoo", "--seed", "x"],
        &["frobnicate"],
    ] {
        let run = dbbench().args(args).output().expect("dbbench runs");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
