//! Cross-run performance ledger (`deepburning history`, DESIGN.md §15).
//!
//! An append-only JSONL ledger under `bench/history/` — one file per
//! benchmark (`<canon(bench)>.jsonl`), one line per recorded run, keyed
//! by git rev × benchmark × budget. `deepburning history append` is its
//! one writer; `history show|check` render trend tables and run
//! rolling-window regression detection over it. Every line carries an
//! `engine` field, always written as `compiled`. Older lines may name
//! another engine (`tree`, `parallel`) or carry a `threads` field; they
//! parse and join their budget's series, because every engine produced
//! the same reports.
//!
//! The point gate (`deepburning gate`, ±2% against a single committed
//! baseline) cannot see slow drift: a metric that creeps +1% per PR
//! passes every individual comparison while compounding without bound.
//! The ledger closes that hole with a window rule: compare the mean of
//! the newest `window` entries against the mean of the oldest `window`
//! entries of the series (window shrinks to half the series when the
//! ledger is young) and flag when they differ by more than
//! [`DRIFT_THRESHOLD`]. Means, not endpoints, so a single noisy run
//! cannot raise or hide a flag.

use deepburning_trace::json::Json;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Default window for the rolling drift rule: entries per side.
pub const DRIFT_WINDOW: usize = 5;

/// Default relative drift that trips a flag (3%): wider than the ±2%
/// point gate so the two never disagree about a single step, tight
/// enough that three compounding in-tolerance steps get caught.
pub const DRIFT_THRESHOLD: f64 = 0.03;

/// The `engine` every new ledger line records: the compiled engine is
/// the one simulation engine.
const LEDGER_ENGINE: &str = "compiled";

/// Metrics the trend table and drift detection watch, in display
/// order. Entries may carry more (the full flattened summary is
/// recorded); extras are preserved but not rendered.
pub const WATCHED_METRICS: [&str; 6] = [
    "cycles",
    "utilization",
    "stalls.active_cycles",
    "rtl.cycles",
    "rtl.active_cycles",
    "rtl.utilization",
];

/// One recorded run: the ledger key plus every numeric field of the
/// bench summary, flattened to dotted paths.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Git revision (short hash) the run was built from.
    pub rev: String,
    /// Seconds since the Unix epoch when the entry was appended.
    pub unix_time: u64,
    /// Benchmark name as the summary reports it.
    pub benchmark: String,
    /// Budget tag (`DB`, `DB-L`, `DB-S`…).
    pub budget: String,
    /// Simulation engine that produced the run (`compiled` for every
    /// new line).
    pub engine: String,
    /// Flattened numeric metrics (`cycles`, `stalls.active_cycles`, …).
    pub metrics: Vec<(String, f64)>,
}

/// Recursively flattens the numeric leaves of a summary object into
/// dotted paths. Strings (`benchmark`, `budget`) are skipped — they
/// live in the entry key.
fn flatten_numbers(node: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    match node {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_numbers(v, &path, out);
            }
        }
        _ => {
            if let Some(n) = node.as_f64() {
                out.push((prefix.to_string(), n));
            }
        }
    }
}

impl HistoryEntry {
    /// Builds an entry from a `BENCH_*.json` bench summary.
    ///
    /// # Errors
    ///
    /// Returns an error when the summary lacks the `benchmark`/`budget`
    /// key fields.
    pub fn from_summary(summary: &Json, rev: &str, unix_time: u64) -> Result<HistoryEntry, String> {
        let field = |key: &str| {
            summary
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bench summary missing `{key}`"))
        };
        let mut metrics = Vec::new();
        flatten_numbers(summary, "", &mut metrics);
        Ok(HistoryEntry {
            rev: rev.to_string(),
            unix_time,
            benchmark: field("benchmark")?,
            budget: field("budget")?,
            engine: LEDGER_ENGINE.to_string(),
            metrics,
        })
    }

    /// One ledger line (compact JSON, no trailing newline).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rev", Json::str(self.rev.clone())),
            ("unix_time", Json::num(self.unix_time as f64)),
            ("benchmark", Json::str(self.benchmark.clone())),
            ("budget", Json::str(self.budget.clone())),
            ("engine", Json::str(self.engine.clone())),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or a missing key field — an
    /// append-only ledger should never contain either.
    pub fn parse(line: &str) -> Result<HistoryEntry, String> {
        let doc = Json::parse(line).map_err(|e| format!("ledger line: {e}"))?;
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("ledger line missing `{key}`"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("ledger line missing `metrics`")?
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect();
        Ok(HistoryEntry {
            rev: field("rev")?,
            unix_time: doc.get("unix_time").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            benchmark: field("benchmark")?,
            budget: field("budget")?,
            engine: field("engine")?,
            metrics,
        })
    }

    /// Looks up one flattened metric.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// Canonical ledger file name for a benchmark (lower-cased
/// alphanumerics, matching `deepburning report`'s `BENCH_*` naming).
pub fn canon(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Path of a benchmark's ledger inside `dir`.
pub fn history_path(dir: &Path, benchmark: &str) -> PathBuf {
    dir.join(format!("{}.jsonl", canon(benchmark)))
}

/// Appends one entry to the benchmark's ledger, creating the directory
/// and file on first use. Returns the ledger path.
///
/// # Errors
///
/// Returns an error when the directory or file cannot be written.
pub fn append_entry(dir: &Path, entry: &HistoryEntry) -> Result<PathBuf, String> {
    let path = history_path(dir, &entry.benchmark);
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {path:?}: {e}"))?;
    writeln!(file, "{}", entry.to_json().render()).map_err(|e| format!("append {path:?}: {e}"))?;
    Ok(path)
}

/// Loads a benchmark's full ledger in append order. A missing file is
/// an empty ledger, not an error.
///
/// # Errors
///
/// Returns an error on unreadable files or malformed lines.
pub fn load_history(dir: &Path, benchmark: &str) -> Result<Vec<HistoryEntry>, String> {
    let path = history_path(dir, benchmark);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {path:?}: {e}")),
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| HistoryEntry::parse(l).map_err(|e| format!("{path:?} line {}: {e}", i + 1)))
        .collect()
}

/// One flagged drift: the windowed means of a metric moved more than
/// the threshold between the oldest and newest end of the series.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Flattened metric name.
    pub metric: String,
    /// Mean over the oldest `window` entries.
    pub older_mean: f64,
    /// Mean over the newest `window` entries.
    pub newer_mean: f64,
    /// Signed relative change, `newer/older - 1`.
    pub ratio: f64,
    /// Entries per side actually used.
    pub window: usize,
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Entries of one budget's series, in append order.
#[must_use]
pub fn series<'a>(entries: &'a [HistoryEntry], budget: &str) -> Vec<&'a HistoryEntry> {
    entries.iter().filter(|e| e.budget == budget).collect()
}

/// Rolling-window drift detection over one budget's series: for each
/// watched metric, compares the mean of the newest
/// `window` entries against the mean of the oldest `window` (window
/// clamps to half the series; series shorter than 4 entries are too
/// young to judge) and flags relative changes beyond `threshold`. This
/// catches the compounding creep the ±2% single-baseline point gate
/// passes step by step.
#[must_use]
pub fn detect_drift(
    entries: &[HistoryEntry],
    budget: &str,
    window: usize,
    threshold: f64,
) -> Vec<Drift> {
    let run = series(entries, budget);
    if run.len() < 4 {
        return Vec::new();
    }
    let w = window.clamp(1, run.len() / 2);
    let mut out = Vec::new();
    for metric in WATCHED_METRICS {
        let values: Vec<f64> = run.iter().filter_map(|e| e.metric(metric)).collect();
        if values.len() < 2 * w {
            continue;
        }
        let older = mean(&values[..w]);
        let newer = mean(&values[values.len() - w..]);
        if older.abs() < f64::EPSILON {
            continue;
        }
        let ratio = newer / older - 1.0;
        if ratio.abs() > threshold {
            out.push(Drift {
                metric: metric.to_string(),
                older_mean: older,
                newer_mean: newer,
                ratio,
                window: w,
            });
        }
    }
    out
}

/// Eight-level Unicode sparkline over `values`, scaled min..max (flat
/// series render as all-low bars).
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    values
        .iter()
        .map(|&v| {
            if hi <= lo {
                BARS[0]
            } else {
                let t = (v - lo) / (hi - lo);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Renders the trend table for one budget's series:
/// per watched metric the sample count, first and latest value, total
/// relative change and a sparkline — followed by any drift flags.
#[must_use]
pub fn render_history_table(
    entries: &[HistoryEntry],
    budget: &str,
    window: usize,
    threshold: f64,
) -> String {
    let run = series(entries, budget);
    let mut out = String::new();
    let Some(latest) = run.last() else {
        let _ = writeln!(out, "  history: no entries for budget {budget}");
        return out;
    };
    let _ = writeln!(
        out,
        "  history: {} runs, {} .. {} (budget {budget})",
        run.len(),
        run[0].rev,
        latest.rev,
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>4} {:>14} {:>14} {:>8}  trend",
        "metric", "n", "first", "latest", "delta"
    );
    for metric in WATCHED_METRICS {
        let values: Vec<f64> = run.iter().filter_map(|e| e.metric(metric)).collect();
        let (Some(first), Some(last)) = (values.first(), values.last()) else {
            continue;
        };
        let delta = if first.abs() < f64::EPSILON {
            0.0
        } else {
            (last / first - 1.0) * 100.0
        };
        let _ = writeln!(
            out,
            "  {:<22} {:>4} {:>14.4} {:>14.4} {:>+7.2}%  {}",
            metric,
            values.len(),
            first,
            last,
            delta,
            sparkline(&values),
        );
    }
    let drifts = detect_drift(entries, budget, window, threshold);
    for d in &drifts {
        let _ = writeln!(
            out,
            "  DRIFT `{}`: windowed mean moved {:+.2}% ({:.4} -> {:.4}, window {}) — beyond \
             the {:.0}% rolling threshold the ±2% point gate cannot see",
            d.metric,
            d.ratio * 100.0,
            d.older_mean,
            d.newer_mean,
            d.window,
            threshold * 100.0,
        );
    }
    if drifts.is_empty() && run.len() >= 4 {
        let _ = writeln!(
            out,
            "  no drift beyond {:.0}% (rolling window)",
            threshold * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(cycles: f64) -> Json {
        Json::obj([
            ("benchmark", Json::str("MNIST")),
            ("budget", Json::str("DB")),
            ("cycles", Json::num(cycles)),
            ("mac_ops", Json::num(577000.0)),
            ("utilization", Json::num(0.31)),
            (
                "stalls",
                Json::obj([("active_cycles", Json::num(cycles / 2.0))]),
            ),
            (
                "rtl",
                Json::obj([
                    ("cycles", Json::num(cycles * 2.0)),
                    ("utilization", Json::num(0.02)),
                ]),
            ),
        ])
    }

    fn entry(rev: &str, cycles: f64) -> HistoryEntry {
        HistoryEntry::from_summary(&summary(cycles), rev, 1_000).expect("entry")
    }

    #[test]
    fn entry_round_trips_through_jsonl() {
        let e = entry("abc1234", 21321.0);
        let line = e.to_json().render();
        assert!(!line.contains('\n'));
        let back = HistoryEntry::parse(&line).expect("parses");
        assert_eq!(back, e);
        assert_eq!(back.metric("cycles"), Some(21321.0));
        assert_eq!(back.metric("stalls.active_cycles"), Some(21321.0 / 2.0));
        assert_eq!(back.metric("rtl.utilization"), Some(0.02));
    }

    /// Ledgers written while the key carried an engine and a lane count
    /// still load: a parallel-engine line with `"threads":4` and a
    /// compiled line with `"threads":1` both parse and join the budget's
    /// series, and the trend and drift passes run over the mix.
    #[test]
    fn legacy_lines_with_engines_and_threads_still_parse() {
        let compiled = entry("abc1234", 21321.0);
        let line = compiled.to_json().render();
        let legacy_compiled = line.replace(
            "\"engine\":\"compiled\"",
            "\"engine\":\"compiled\",\"threads\":1",
        );
        let legacy_parallel = line.replace(
            "\"engine\":\"compiled\"",
            "\"engine\":\"parallel\",\"threads\":4",
        );
        assert!(
            legacy_compiled.contains("\"threads\":1"),
            "{legacy_compiled}"
        );
        assert!(
            legacy_parallel.contains("\"threads\":4"),
            "{legacy_parallel}"
        );
        let entries = [legacy_parallel, legacy_compiled]
            .iter()
            .map(|l| HistoryEntry::parse(l).expect("legacy line parses"))
            .collect::<Vec<_>>();
        assert_eq!(entries[1], compiled);
        assert_eq!(entries[0].engine, "parallel");
        assert_eq!(series(&entries, "DB"), [&entries[0], &compiled]);
        let table = render_history_table(&entries, "DB", DRIFT_WINDOW, DRIFT_THRESHOLD);
        assert!(table.contains("2 runs"), "table:\n{table}");
        assert!(detect_drift(&entries, "DB", DRIFT_WINDOW, DRIFT_THRESHOLD).is_empty());
    }

    #[test]
    fn append_and_load_preserve_order() {
        let dir = std::env::temp_dir().join(format!("dbhist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (i, rev) in ["r1", "r2", "r3"].iter().enumerate() {
            append_entry(&dir, &entry(rev, 100.0 + i as f64)).expect("append");
        }
        let loaded = load_history(&dir, "MNIST").expect("load");
        assert_eq!(
            loaded.iter().map(|e| e.rev.as_str()).collect::<Vec<_>>(),
            ["r1", "r2", "r3"]
        );
        assert_eq!(load_history(&dir, "never-recorded").expect("empty"), []);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The acceptance scenario: five runs creeping +~1.2% each — every
    /// consecutive step inside the ±2% point tolerance — compound to
    /// +5%, and the rolling window flags it.
    #[test]
    fn rolling_window_flags_creep_the_point_gate_passes() {
        let steps = [21321.0f64, 21577.0, 21836.0, 22098.0, 22387.0];
        for w in steps.windows(2) {
            assert!(
                (w[1] - w[0]).abs() <= 0.02 * w[0],
                "each step must pass the ±2% point gate"
            );
        }
        assert!(steps[4] > steps[0] * 1.049, "total creep is ~5%");
        let entries: Vec<HistoryEntry> = steps
            .iter()
            .enumerate()
            .map(|(i, &c)| entry(&format!("r{i}"), c))
            .collect();
        let drifts = detect_drift(&entries, "DB", DRIFT_WINDOW, DRIFT_THRESHOLD);
        assert!(
            drifts
                .iter()
                .any(|d| d.metric == "cycles" && d.ratio > 0.03),
            "drifts: {drifts:?}"
        );
        let table = render_history_table(&entries, "DB", DRIFT_WINDOW, DRIFT_THRESHOLD);
        assert!(table.contains("DRIFT `cycles`"), "table:\n{table}");
        assert!(
            table.contains('▁') && table.contains('█'),
            "table:\n{table}"
        );
    }

    #[test]
    fn stable_series_stays_quiet_and_young_ledgers_are_not_judged() {
        let stable: Vec<HistoryEntry> = (0..8)
            .map(|i| entry(&format!("r{i}"), 21321.0 + f64::from(i % 2)))
            .collect();
        assert!(detect_drift(&stable, "DB", DRIFT_WINDOW, DRIFT_THRESHOLD).is_empty());
        let young: Vec<HistoryEntry> = (0..3)
            .map(|i| entry(&format!("r{i}"), 21321.0 * (1.0 + 0.05 * f64::from(i))))
            .collect();
        assert!(detect_drift(&young, "DB", DRIFT_WINDOW, DRIFT_THRESHOLD).is_empty());
    }

    #[test]
    fn series_are_keyed_by_budget() {
        let mut entries = vec![entry("r0", 100.0), entry("r1", 200.0), entry("r2", 300.0)];
        assert!(entries.iter().all(|e| e.engine == LEDGER_ENGINE));
        entries[1].engine = "tree".to_string();
        entries[2].budget = "DB-L".to_string();
        assert_eq!(series(&entries, "DB").len(), 2);
        assert_eq!(series(&entries, "DB-L").len(), 1);
        assert!(series(&entries, "DB-S").is_empty());
    }

    #[test]
    fn sparkline_scales_min_to_max() {
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
    }
}
