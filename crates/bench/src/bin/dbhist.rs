//! Cross-run performance ledger tool (DESIGN.md §15).
//!
//! `dbhist` maintains the append-only JSONL ledger under
//! `bench/history/` that `dbreport --history` and the CI bench-gate job
//! feed: one line per recorded run, keyed by git rev × benchmark ×
//! budget. Where `benchgate` compares one fresh run
//! against one committed baseline (±2%), `dbhist` watches the *series*
//! — a rolling-window mean comparison that flags slow drift the point
//! gate passes step by step.
//!
//! ```text
//! dbhist append --bench-json BENCH_mnist.json --rev abc1234
//!               [--dir bench/history] [--time N]
//! dbhist show   --benchmark MNIST [--budget DB] [--dir bench/history]
//!               [--window 5] [--threshold 0.03]
//! dbhist check  ...same flags as show; exits nonzero on flagged drift
//! ```
//!
//! `append` records the flattened numeric fields of a `BENCH_*.json`
//! summary. `show` prints the trend table (first/latest/delta/sparkline
//! per watched metric) plus any drift flags; `check` does the same but
//! fails the process when drift is flagged, for use as a soft CI tripwire.

use deepburning_bench::{
    append_entry, detect_drift, load_history, render_history_table, HistoryEntry, DRIFT_THRESHOLD,
    DRIFT_WINDOW,
};
use deepburning_trace::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    dir: PathBuf,
    bench_json: Option<PathBuf>,
    rev: String,
    time: Option<u64>,
    benchmark: String,
    budget: String,
    window: usize,
    threshold: f64,
}

const USAGE: &str = "usage: dbhist <append|show|check> [--dir DIR] \
    [--bench-json FILE --rev REV [--time N]] \
    [--benchmark NAME] [--budget DB] \
    [--window 5] [--threshold 0.03]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or(USAGE)?;
    if !["append", "show", "check"].contains(&command.as_str()) {
        return Err(format!("unknown command `{command}`; {USAGE}"));
    }
    let mut args = Args {
        command,
        dir: PathBuf::from("bench/history"),
        bench_json: None,
        rev: String::new(),
        time: None,
        benchmark: String::new(),
        budget: "DB".to_string(),
        window: DRIFT_WINDOW,
        threshold: DRIFT_THRESHOLD,
    };
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--dir" => args.dir = PathBuf::from(val("--dir")?),
            "--bench-json" => args.bench_json = Some(PathBuf::from(val("--bench-json")?)),
            "--rev" => args.rev = val("--rev")?,
            "--time" => {
                args.time = Some(val("--time")?.parse().map_err(|e| format!("--time: {e}"))?);
            }
            "--benchmark" => args.benchmark = val("--benchmark")?,
            "--budget" => args.budget = val("--budget")?,
            "--window" => {
                args.window = val("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
            }
            "--threshold" => {
                args.threshold = val("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`; {USAGE}")),
        }
    }
    Ok(args)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn run_append(args: &Args) -> Result<(), String> {
    let path = args
        .bench_json
        .as_ref()
        .ok_or("append needs --bench-json FILE")?;
    if args.rev.is_empty() {
        return Err("append needs --rev REV".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
    let summary = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let entry =
        HistoryEntry::from_summary(&summary, &args.rev, args.time.unwrap_or_else(unix_now))?;
    let ledger = append_entry(&args.dir, &entry)?;
    println!(
        "appended {} x {} @ {} -> {}",
        entry.benchmark,
        entry.budget,
        entry.rev,
        ledger.display()
    );
    Ok(())
}

/// Renders the series; returns the number of flagged drifts so `check`
/// can turn them into a failing exit code.
fn run_show(args: &Args) -> Result<usize, String> {
    if args.benchmark.is_empty() {
        return Err(format!("{} needs --benchmark NAME", args.command));
    }
    let entries = load_history(&args.dir, &args.benchmark)?;
    if entries.is_empty() {
        println!(
            "no ledger for {} under {} (run `dbhist append` or `dbreport --history` first)",
            args.benchmark,
            args.dir.display()
        );
        return Ok(0);
    }
    println!("== {} ==", args.benchmark);
    print!(
        "{}",
        render_history_table(&entries, &args.budget, args.window, args.threshold)
    );
    Ok(detect_drift(&entries, &args.budget, args.window, args.threshold).len())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dbhist: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.command.as_str() {
        "append" => run_append(&args).map(|()| 0),
        _ => run_show(&args),
    };
    match outcome {
        Ok(drifts) if args.command == "check" && drifts > 0 => {
            eprintln!(
                "dbhist: {drifts} metric(s) drifted beyond the rolling window threshold \
                 — investigate or reset the ledger alongside a [bench-reset]"
            );
            ExitCode::FAILURE
        }
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dbhist: {e}");
            ExitCode::FAILURE
        }
    }
}
