//! Hard CI gate over the committed `BENCH_*.json` baselines.
//!
//! Compares each committed baseline against a freshly generated
//! `dbreport --bench-json` summary under the DESIGN.md §11 policy:
//! deterministic counters (`benchmark`, `budget`, `mac_ops`) must match
//! exactly, cycle-denominated fields (`cycles`, `stalls.*`,
//! `utilization`) may drift ±2%. Exits nonzero on any violation so the
//! `bench-gate` CI job fails the build.
//!
//! ```text
//! benchgate [--baseline-dir DIR] [--fresh-dir DIR]
//!           [--benchmarks ann0,cmac,mnist] [--tolerance 0.02]
//!           [--history-append DIR] [--rev REV] [--engine NAME]
//! ```
//!
//! To intentionally move a baseline, commit with `[bench-reset]` in the
//! message: CI then skips this gate and publishes the refreshed
//! `BENCH_*.json` files as an artifact to commit.
//!
//! `--history-append DIR` records each fresh summary into the cross-run
//! JSONL ledger (DESIGN.md §15) after a *clean* gate — regressed runs
//! never poison the trend series — keyed by `--rev` × benchmark × budget
//! × `--engine`. CI uploads the ledger as an artifact and renders it
//! with `dbhist show`.

use deepburning_bench::{append_entry, gate_bench_text, GatePolicy, HistoryEntry};
use deepburning_trace::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    baseline_dir: PathBuf,
    fresh_dir: PathBuf,
    benchmarks: Vec<String>,
    policy: GatePolicy,
    history_dir: Option<PathBuf>,
    rev: String,
    engine: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline_dir: PathBuf::from("."),
        fresh_dir: PathBuf::from("target/dbreport-baseline"),
        benchmarks: ["ann0", "cmac", "mnist"].map(String::from).to_vec(),
        policy: GatePolicy::default(),
        history_dir: None,
        rev: "local".to_string(),
        engine: "compiled".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline-dir" => {
                args.baseline_dir = PathBuf::from(it.next().ok_or("--baseline-dir needs a value")?)
            }
            "--fresh-dir" => {
                args.fresh_dir = PathBuf::from(it.next().ok_or("--fresh-dir needs a value")?)
            }
            "--benchmarks" => {
                args.benchmarks = it
                    .next()
                    .ok_or("--benchmarks needs a value")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--tolerance" => {
                args.policy.cycle_tolerance = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--history-append" => {
                args.history_dir = Some(PathBuf::from(
                    it.next().ok_or("--history-append needs a value")?,
                ));
            }
            "--rev" => args.rev = it.next().ok_or("--rev needs a value")?,
            "--engine" => args.engine = it.next().ok_or("--engine needs a value")?,
            other => {
                return Err(format!(
                    "unknown argument `{other}`; usage: benchgate [--baseline-dir DIR] \
                     [--fresh-dir DIR] [--benchmarks a,b,c] [--tolerance 0.02] \
                     [--history-append DIR] [--rev REV] [--engine NAME]"
                ))
            }
        }
    }
    if args.benchmarks.is_empty() {
        return Err("--benchmarks list is empty".into());
    }
    Ok(args)
}

/// Records every fresh summary into the cross-run ledger. Only called
/// after a clean gate, so a regressed run never enters the trend series.
fn append_history(args: &Args, dir: &std::path::Path) -> Result<(), String> {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    for name in &args.benchmarks {
        let path = args.fresh_dir.join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let summary = Json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
        let entry = HistoryEntry::from_summary(&summary, &args.rev, &args.engine, now)?;
        let ledger = append_entry(dir, &entry)?;
        println!(
            "history: appended {} x {} x {} @ {} -> {}",
            entry.benchmark,
            entry.budget,
            entry.engine,
            entry.rev,
            ledger.display()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for name in &args.benchmarks {
        let file = format!("BENCH_{name}.json");
        let baseline_path = args.baseline_dir.join(&file);
        let fresh_path = args.fresh_dir.join(&file);
        let read = |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{p:?}: {e}"));
        let verdict = read(&baseline_path)
            .and_then(|b| read(&fresh_path).and_then(|f| gate_bench_text(&b, &f, &args.policy)));
        match verdict {
            Ok(v) if v.is_empty() => println!("ok    {file}"),
            Ok(v) => {
                failures += 1;
                println!("FAIL  {file}");
                for m in v {
                    println!("      {m}");
                }
            }
            Err(e) => {
                failures += 1;
                println!("FAIL  {file}: {e}");
            }
        }
    }
    if failures == 0 {
        println!("bench gate clean: {} baselines held", args.benchmarks.len());
        if let Some(dir) = &args.history_dir {
            if let Err(e) = append_history(&args, dir) {
                eprintln!("benchgate: history append failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchgate: {failures} baseline(s) regressed — if intentional, commit with \
             [bench-reset] and refresh the BENCH_*.json files"
        );
        ExitCode::FAILURE
    }
}
