//! `dbbench compare`: parent runs against change runs, metric by metric
//! and workload by workload. A gain needs the change to win at least nine
//! tenths of the pairs and its median to move by more than the parent's
//! own interquartile range; a regression is a median worse by more than
//! the metric's bound; where the runs spread wider than the bound the
//! metric is unresolved unless every change run beats every parent run.

use crate::metrics::{Better, EXACT};
use crate::stats;
use deepburning_trace::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One untraced run record (a line `dbbench run --out` appended).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// FNV-1a digest of the first round's outputs.
    pub sim_digest: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a JSON-lines file of run records, keeping the untraced ones.
///
/// # Errors
///
/// Names the first line that is not a run record.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let doc = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no seed"))?;
        let sim_digest = doc
            .get("sim_digest")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no sim_digest"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload: workload.to_string(),
            seed: seed as u64,
            sim_digest: sim_digest.to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// Direction and bound of each end-to-end metric in `BENCHMARK.json`.
///
/// # Errors
///
/// Fails when the document has no well-formed `end_to_end` list.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<(String, Better, f64)>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b, x)),
                _ => Err(format!(
                    "BENCHMARK.json: malformed end_to_end entry {}",
                    m.render()
                )),
            }
        })
        .collect()
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of pairs and its median moved by more than
    /// the parent's interquartile range.
    Improved,
    /// The change's median is within the bound.
    NoWorse,
    /// The change's median is worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound, or share no seed.
    Unresolved,
    /// Exact values equal on every shared seed.
    Identical,
    /// Exact values or `sim_digest` differ on a shared seed.
    BehaviourChanged,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::BehaviourChanged => "behaviour changed",
        })
    }
}

/// Share of pairs `(parent[i], change[i])` the change wins; ties count
/// for neither side.
pub fn share_won(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let n = parent.len().min(change.len());
    if n == 0 {
        return 0.0;
    }
    let won = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count();
    won as f64 / n as f64
}

/// Verdict for a bounded metric (see the module docs).
pub fn bounded_verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(mp), Some(mc), Some([q1, _, q3])) = (
        stats::median(parent),
        stats::median(change),
        stats::quartiles(parent),
    ) else {
        return Verdict::Unresolved;
    };
    let gain = match better {
        Better::Lower => mp - mc,
        Better::Higher => mc - mp,
    };
    if share_won(parent, change, better) >= 0.9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let spread = stats::relative_spread(parent)
        .unwrap_or(f64::INFINITY)
        .max(stats::relative_spread(change).unwrap_or(f64::INFINITY));
    if spread > bound {
        let all_better = match better {
            Better::Lower => change.iter().all(|c| parent.iter().all(|p| c < p)),
            Better::Higher => change.iter().all(|c| parent.iter().all(|p| c > p)),
        };
        return if all_better {
            Verdict::NoWorse
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound * mp.abs() {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    }
}

/// Verdict for an exact value compared seed by seed: each side's first
/// value per seed, over the seeds both sides ran.
fn exact_verdict<T: PartialEq>(
    parent: &BTreeMap<u64, T>,
    change: &BTreeMap<u64, T>,
    changed: Verdict,
) -> Verdict {
    let shared: Vec<u64> = parent
        .keys()
        .filter(|s| change.contains_key(s))
        .copied()
        .collect();
    if shared.is_empty() {
        Verdict::Unresolved
    } else if shared.iter().all(|s| parent[s] == change[s]) {
        Verdict::Identical
    } else {
        changed
    }
}

/// Five-number summary of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        let [q1, _, q3] = stats::quartiles(values)?;
        Some(Side {
            n: values.len(),
            median: stats::median(values)?,
            q1,
            q3,
        })
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, or `sim_digest`.
    pub metric: String,
    /// Parent summary (absent for `sim_digest`).
    pub parent: Option<Side>,
    /// Change summary (absent for `sim_digest`).
    pub change: Option<Side>,
    /// Share of pairs the change won.
    pub won: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

fn values(records: &[&Record], metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn by_seed<T: Clone>(records: &[&Record], get: impl Fn(&Record) -> Option<T>) -> BTreeMap<u64, T> {
    let mut map = BTreeMap::new();
    for r in records {
        if let Some(v) = get(r) {
            map.entry(r.seed).or_insert(v);
        }
    }
    map
}

/// Compares every workload present on both sides: each bounded metric,
/// each exact metric, and `sim_digest`. Runs pair up in file order.
pub fn compare(parent: &[Record], change: &[Record], bounds: &[(String, Better, f64)]) -> Vec<Row> {
    let workloads: BTreeSet<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    let mut rows = Vec::new();
    for w in workloads {
        let p: Vec<&Record> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Record> = change.iter().filter(|r| r.workload == w).collect();
        if c.is_empty() {
            continue;
        }
        for (name, better, bound) in bounds {
            let (pv, cv) = (values(&p, name), values(&c, name));
            rows.push(Row {
                workload: w.to_string(),
                metric: name.clone(),
                parent: Side::of(&pv),
                change: Side::of(&cv),
                won: Some(share_won(&pv, &cv, *better)),
                verdict: bounded_verdict(&pv, &cv, *better, *bound),
            });
        }
        for m in &EXACT {
            let (pv, cv) = (values(&p, m.name), values(&c, m.name));
            if pv.is_empty() && cv.is_empty() {
                continue;
            }
            let get = |r: &Record| r.metrics.get(m.name).map(|v| v.to_bits());
            let (ps, cs) = (by_seed(&p, get), by_seed(&c, get));
            let mut verdict = exact_verdict(&ps, &cs, Verdict::BehaviourChanged);
            if m.name == "ops_failed_ratio" && verdict == Verdict::BehaviourChanged {
                let worst = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
                verdict = if worst(&cv) > worst(&pv) {
                    Verdict::Worse
                } else {
                    Verdict::Improved
                };
            }
            rows.push(Row {
                workload: w.to_string(),
                metric: m.name.to_string(),
                parent: Side::of(&pv),
                change: Side::of(&cv),
                won: None,
                verdict,
            });
        }
        let digest = |r: &Record| Some(r.sim_digest.clone());
        rows.push(Row {
            workload: w.to_string(),
            metric: "sim_digest".to_string(),
            parent: None,
            change: None,
            won: None,
            verdict: exact_verdict(
                &by_seed(&p, digest),
                &by_seed(&c, digest),
                Verdict::BehaviourChanged,
            ),
        });
    }
    rows
}

/// Renders rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let side = |s: &Option<Side>| {
        s.map_or_else(String::new, |s| {
            format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n)
        })
    };
    let mut out = format!(
        "{:<13} {:<24} {:<44} {:<44} {:>5}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    for r in rows {
        let won = r
            .won
            .map_or_else(String::new, |w| format!("{:.0}%", w * 100.0));
        out.push_str(&format!(
            "{:<13} {:<24} {:<44} {:<44} {:>5}  {}\n",
            r.workload,
            r.metric,
            side(&r.parent),
            side(&r.change),
            won,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_gain_is_improved() {
        let p = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2];
        let c: Vec<f64> = p.iter().map(|v| v * 0.8).collect();
        assert_eq!(share_won(&p, &c, Better::Lower), 1.0);
        assert_eq!(
            bounded_verdict(&p, &c, Better::Lower, 0.1),
            Verdict::Improved
        );
        // Higher-is-better mirror.
        assert_eq!(
            bounded_verdict(&c, &p, Better::Higher, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn small_moves_are_no_worse_large_ones_worse() {
        let p = [10.0, 10.2, 9.9, 10.1, 10.0];
        let c = [10.3, 10.4, 10.2, 10.5, 10.3];
        assert_eq!(
            bounded_verdict(&p, &c, Better::Lower, 0.1),
            Verdict::NoWorse
        );
        let c = [11.5, 11.6, 11.4, 11.7, 11.5];
        assert_eq!(bounded_verdict(&p, &c, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(
            bounded_verdict(&p, &c, Better::Higher, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let p = [5.0, 10.0, 15.0, 20.0, 8.0];
        let c = [6.0, 11.0, 14.0, 21.0, 9.0];
        assert_eq!(
            bounded_verdict(&p, &c, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        let c = [1.0, 2.0, 4.0, 3.0, 4.5];
        // Every change run beats every parent run, but not by the
        // parent's IQR: no claim of a gain, yet not unresolved.
        assert_eq!(
            bounded_verdict(&p, &c, Better::Lower, 0.1),
            Verdict::NoWorse
        );
    }

    #[test]
    fn digests_and_exact_values_compare_per_seed() {
        let rec = |seed, digest: &str, cycles: f64| Record {
            workload: "gen-zoo".into(),
            seed,
            sim_digest: digest.into(),
            metrics: [
                ("setup_s".to_string(), 1.0),
                ("model_cycles_geomean".to_string(), cycles),
            ]
            .into(),
        };
        let bounds = vec![("setup_s".to_string(), Better::Lower, 0.25)];
        let parent = vec![rec(1, "a", 5.0), rec(2, "b", 6.0)];
        let same = compare(&parent, &parent, &bounds);
        let verdict =
            |rows: &[Row], m: &str| rows.iter().find(|r| r.metric == m).expect("row").verdict;
        assert_eq!(verdict(&same, "sim_digest"), Verdict::Identical);
        assert_eq!(verdict(&same, "model_cycles_geomean"), Verdict::Identical);
        assert_eq!(verdict(&same, "setup_s"), Verdict::NoWorse);
        let changed = vec![rec(1, "a", 5.0), rec(2, "c", 7.0)];
        let rows = compare(&parent, &changed, &bounds);
        assert_eq!(verdict(&rows, "sim_digest"), Verdict::BehaviourChanged);
        assert_eq!(
            verdict(&rows, "model_cycles_geomean"),
            Verdict::BehaviourChanged
        );
        let other_seed = vec![rec(3, "a", 5.0)];
        let rows = compare(&parent, &other_seed, &bounds);
        assert_eq!(verdict(&rows, "sim_digest"), Verdict::Unresolved);
    }

    #[test]
    fn records_and_bounds_parse() {
        let line = r#"{"workload":"verify-zoo","seed":2,"trace":false,"sim_digest":"fnv1a:00","metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        let traced =
            r#"{"workload":"verify-zoo","seed":2,"trace":true,"sim_digest":"x","metrics":{}}"#;
        let recs = parse_records(&format!("{line}\n\n{traced}\n")).expect("parses");
        assert_eq!(recs.len(), 1, "traced records are skipped");
        assert_eq!(recs[0].metrics["setup_s"], 0.5);
        assert!(parse_records("{").is_err());
        let bounds = parse_bounds(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"op/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("bounds");
        assert_eq!(bounds, vec![("ops_per_s".to_string(), Better::Higher, 0.1)]);
        assert!(parse_bounds(r#"{"end_to_end":[{"name":"x"}]}"#).is_err());
    }
}
