//! `dbbench` — run the DeepBurning benchmark, or compare two sets of runs.
//!
//! ```text
//! dbbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1|DIR]
//!             [--smoke] [--out FILE]
//! dbbench run --all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! dbbench run --smoke [--seed N] [--out FILE]
//! dbbench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! `run --workload` measures one workload in this process and prints a
//! summary, the run record (one JSON line starting `{"workload"`) and, as
//! the last line, the result object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 1` makes it a traced run reporting per-layer
//! metrics; any other value than `0` or `1` names a directory, and the
//! traced run also writes `trace.json` and `layers.json` there.
//! `--out FILE` appends the record to FILE for `compare`.
//!
//! `run --all` runs every workload untraced and then traced, each in its
//! own child process (so `peak_rss_mb` is per workload), and prints one
//! table. `--smoke` shrinks every workload to a handful of ops; alone it
//! implies `--all`.
//!
//! Exit status: 0 when the runs completed (failed ops are reported, not
//! fatal), 1 on a harness error, 2 on a usage error. `compare` exits 1
//! when any metric got worse.

use deepburning_perfbench::compare;
use deepburning_perfbench::metrics::{END_TO_END, EXACT};
use deepburning_perfbench::run::{run, RunConfig, TraceMode};
use deepburning_perfbench::workload::{Scale, Workload};
use deepburning_perfbench::DEFAULT_SECONDS;
use deepburning_trace::json::Json;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  dbbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1|DIR] [--smoke] [--out FILE]
  dbbench run --all [--seed N] [--seconds S] [--smoke] [--out FILE]
  dbbench run --smoke [--seed N] [--out FILE]
  dbbench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
workloads: gen-zoo, verify-zoo, rtl-fullrun, random-small";

enum Failure {
    Usage(String),
    Harness(String),
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String], switches: &[&str]) -> Result<Args, Failure> {
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it
                    .next()
                    .ok_or_else(|| usage(format!("{a} needs a value")))?;
                args.values.push((a.clone(), v.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn check_known(&self, known: &[&str]) -> Result<(), Failure> {
        match self
            .values
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(usage(format!("unknown option {f}"))),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&argv[1..]),
        Some("compare") => cmd_compare(&argv[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(usage("expected a subcommand")),
    };
    match outcome {
        Ok(code) => code,
        Err(Failure::Usage(msg)) => {
            eprintln!("dbbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Harness(msg)) => {
            eprintln!("dbbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(argv: &[String]) -> Result<ExitCode, Failure> {
    let args = Args::parse(argv, &["--all", "--smoke"])?;
    args.check_known(&["--workload", "--seed", "--seconds", "--trace", "--out"])?;
    if let Some(p) = args.positional.first() {
        return Err(usage(format!("unexpected argument {p}")));
    }
    let seed: u64 = match args.get("--seed") {
        Some(s) => s
            .parse()
            .map_err(|_| usage(format!("--seed {s}: not an unsigned integer")))?,
        None => 1,
    };
    let seconds: f64 = match args.get("--seconds") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| usage(format!("--seconds {s}: not a non-negative number")))?,
        None => DEFAULT_SECONDS,
    };
    let scale = if args.has("--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let out = args.get("--out").map(PathBuf::from);
    match args.get("--workload") {
        Some(name) => {
            let workload = Workload::from_name(name)
                .ok_or_else(|| usage(format!("unknown workload {name}")))?;
            let trace = match args.get("--trace") {
                None | Some("0") => TraceMode::Off,
                Some("1") => TraceMode::On,
                Some(dir) => TraceMode::Dir(PathBuf::from(dir)),
            };
            run_one(
                &RunConfig {
                    workload,
                    seed,
                    seconds,
                    trace,
                    scale,
                },
                out.as_ref(),
            )
        }
        None if args.has("--all") || args.has("--smoke") => {
            run_all(seed, args.get("--seconds"), scale, args.get("--out"))
        }
        None => Err(usage("run needs --workload NAME, --all or --smoke")),
    }
}

fn run_one(cfg: &RunConfig, out: Option<&PathBuf>) -> Result<ExitCode, Failure> {
    let report = run(cfg).map_err(Failure::Harness)?;
    let record = report.record_json().render();
    if let Some(path) = out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| Failure::Harness(format!("appending to {}: {e}", path.display())))?;
    }
    print!("{}", report.summary());
    println!("{record}");
    println!("{}", report.result_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload untraced, then traced, each in a child process
/// with the given seed, `--seconds`, scale and `--out`.
fn run_all(
    seed: u64,
    seconds: Option<&str>,
    scale: Scale,
    out: Option<&str>,
) -> Result<ExitCode, Failure> {
    let exe = std::env::current_exe()
        .map_err(|e| Failure::Harness(format!("locating this executable: {e}")))?;
    let seed = seed.to_string();
    let mut forwarded = vec!["--seed", &seed];
    if let Some(s) = seconds {
        forwarded.extend(["--seconds", s]);
    }
    if let Some(o) = out {
        forwarded.extend(["--out", o]);
    }
    if scale == Scale::Smoke {
        forwarded.push("--smoke");
    }
    let mut records: Vec<(Workload, Json)> = Vec::new();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let child = Command::new(&exe)
                .args(["run", "--workload", workload.name(), "--trace", trace])
                .args(&forwarded)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| Failure::Harness(format!("starting {}: {e}", exe.display())))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            if !child.status.success() {
                return Err(Failure::Harness(format!(
                    "{} run exited with {}",
                    workload.name(),
                    child.status
                )));
            }
            let record = stdout
                .lines()
                .find(|l| l.starts_with("{\"workload\""))
                .and_then(|l| Json::parse(l).ok())
                .ok_or_else(|| {
                    Failure::Harness(format!("{} run printed no record", workload.name()))
                })?;
            records.push((workload, record));
        }
    }
    print!("{}", all_table(&records));
    if let Some(o) = out {
        println!("records appended to {o}");
    }
    Ok(ExitCode::SUCCESS)
}

/// One column per workload: end-to-end and exact metrics of the untraced
/// runs, the digest, and the traced runs' completeness checks.
fn all_table(records: &[(Workload, Json)]) -> String {
    let value = |w: Workload, traced: bool, name: &str| {
        records
            .iter()
            .find(|(rw, r)| *rw == w && r.get("trace") == Some(&Json::Bool(traced)))
            .and_then(|(_, r)| r.get("metrics")?.get(name)?.get("value")?.as_f64())
    };
    let mut out = format!("\n{:<26} {:<6}", "metric", "unit");
    for w in Workload::ALL {
        out.push_str(&format!(" {:>22}", w.name()));
    }
    out.push('\n');
    let mut row = |label: &str, unit: &str, cell: &dyn Fn(Workload) -> String| {
        out.push_str(&format!("{label:<26} {unit:<6}"));
        for w in Workload::ALL {
            out.push_str(&format!(" {:>22}", cell(w)));
        }
        out.push('\n');
    };
    let num = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.6}"));
    for m in END_TO_END.iter().chain(&EXACT) {
        row(m.name, m.unit, &|w| num(value(w, false, m.name)));
    }
    row("sim_digest", "", &|w| {
        records
            .iter()
            .find(|(rw, r)| *rw == w && r.get("trace") == Some(&Json::Bool(false)))
            .and_then(|(_, r)| r.get("sim_digest")?.as_str().map(str::to_string))
            .unwrap_or_default()
    });
    row("trace.events_dropped", "count", &|w| {
        num(value(w, true, "trace.events_dropped"))
    });
    row("bench.glue share", "ratio", &|w| match (
        value(w, true, "bench.glue.self_ms"),
        value(w, true, "bench.op.ms"),
    ) {
        (Some(g), Some(op)) if op > 0.0 => format!("{:.6}", g / op),
        _ => "-".to_string(),
    });
    row("trace.overhead_ratio", "ratio", &|w| {
        num(value(w, true, "trace.overhead_ratio"))
    });
    out
}

fn cmd_compare(argv: &[String]) -> Result<ExitCode, Failure> {
    let args = Args::parse(argv, &[])?;
    args.check_known(&["--benchmark"])?;
    let [parent, change] = args.positional.as_slice() else {
        return Err(usage("compare needs PARENT and CHANGE record files"));
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| Failure::Harness(format!("reading {p}: {e}")))
    };
    let bounds = compare::parse_bounds(&read(args.get("--benchmark").unwrap_or("BENCHMARK.json"))?)
        .map_err(Failure::Harness)?;
    let records = |p: &str| {
        compare::parse_records(&read(p)?).map_err(|e| Failure::Harness(format!("{p}: {e}")))
    };
    let rows = compare::compare(&records(parent)?, &records(change)?, &bounds);
    if rows.is_empty() {
        return Err(Failure::Harness(
            "no workload has untraced records on both sides".into(),
        ));
    }
    print!("{}", compare::render(&rows));
    let worse = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Worse)
        .count();
    let changed = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::BehaviourChanged)
        .count();
    println!("{worse} worse, {changed} behaviour changed");
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
