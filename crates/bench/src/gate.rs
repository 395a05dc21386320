//! Bench-baseline gating: compares fresh `deepburning report --bench-json` output
//! against the committed `BENCH_*.json` baselines (DESIGN.md §11).
//!
//! Policy: deterministic counters must match exactly — `benchmark` and
//! `budget` (strings) and `mac_ops` (a pure function of the network) —
//! while cycle-denominated quantities may drift within a relative
//! tolerance (default ±2%): `cycles`, the `stalls.*` split and the
//! `utilization` fields, which are derived from cycles. Missing files
//! and malformed JSON are violations, never silent passes. Field
//! presence is asymmetric: a field the *baseline* lacks is skipped (a
//! newly added metric must not force a `[bench-reset]` of every
//! baseline), while a field the baseline has and the fresh summary
//! dropped is a violation (metrics must not silently disappear).
//! Fields outside the known lists are ignored on both sides.
//!
//! CI runs this as the hard `bench-gate` job via `deepburning gate`;
//! a `[bench-reset]` commit message skips the gate and publishes
//! refreshed baselines for committing instead.

use deepburning_trace::json::Json;

/// Tolerances for the baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatePolicy {
    /// Relative tolerance for cycle-denominated fields (0.02 = ±2%).
    pub cycle_tolerance: f64,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            cycle_tolerance: 0.02,
        }
    }
}

/// Fields that must match bit-for-bit: generation is deterministic, so
/// any drift here is a real counter regression. `rtl.mac_ops` is read
/// out of the fabric by the full-network run and is just as
/// deterministic as the analytic count.
const EXACT_STRINGS: [&str; 2] = ["benchmark", "budget"];
const EXACT_NUMBERS: [&str; 2] = ["mac_ops", "rtl.mac_ops"];

/// Fields allowed to drift within [`GatePolicy::cycle_tolerance`]: the
/// analytic cycle model may shift slightly as timing parameters are
/// tuned, and the `utilization` fields are derived from cycles. The
/// `rtl.*` cycle registers move whenever the fabric handshake or AGU
/// scheduling changes — intentional moves go through `[bench-reset]`.
const TOLERANCED_NUMBERS: [&str; 9] = [
    "cycles",
    "utilization",
    "stalls.active_cycles",
    "stalls.memory_bound_cycles",
    "stalls.overhead_cycles",
    "rtl.cycles",
    "rtl.active_cycles",
    "rtl.stall_cycles",
    "rtl.utilization",
];

fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    let mut node = doc;
    for seg in path.split('.') {
        node = node.get(seg)?;
    }
    Some(node)
}

/// Resolves `path` on both sides under the optional-field rule:
/// `Some((baseline, fresh))` when both carry it, `None` when the
/// baseline predates the metric (skip), a violation pushed when the
/// fresh summary dropped a metric the baseline has.
fn lookup_pair<'a>(
    baseline: &'a Json,
    fresh: &'a Json,
    path: &str,
    violations: &mut Vec<String>,
) -> Option<(&'a Json, &'a Json)> {
    let b = lookup(baseline, path)?;
    match lookup(fresh, path) {
        Some(f) => Some((b, f)),
        None => {
            violations.push(format!(
                "fresh summary dropped `{path}` (present in baseline; metrics must not \
                 silently disappear)"
            ));
            None
        }
    }
}

fn as_num(node: &Json, path: &str, side: &str, violations: &mut Vec<String>) -> Option<f64> {
    let v = node.as_f64();
    if v.is_none() {
        violations.push(format!("{side} `{path}` is not a number"));
    }
    v
}

/// Compares a fresh bench summary against its committed baseline and
/// returns the list of policy violations (empty = gate passes).
#[must_use]
pub fn compare_bench_summaries(baseline: &Json, fresh: &Json, policy: &GatePolicy) -> Vec<String> {
    let mut violations = Vec::new();
    for path in EXACT_STRINGS {
        let Some((b, f)) = lookup_pair(baseline, fresh, path, &mut violations) else {
            continue;
        };
        if b.as_str() != f.as_str() {
            violations.push(format!(
                "`{path}` changed: baseline {b:?} vs fresh {f:?} (exact match required)"
            ));
        }
    }
    for path in EXACT_NUMBERS {
        let Some((bn, fn_)) = lookup_pair(baseline, fresh, path, &mut violations) else {
            continue;
        };
        let (Some(b), Some(f)) = (
            as_num(bn, path, "baseline", &mut violations),
            as_num(fn_, path, "fresh", &mut violations),
        ) else {
            continue;
        };
        if b != f {
            violations.push(format!(
                "`{path}` regressed: baseline {b} vs fresh {f} \
                 (deterministic counter, exact match required)"
            ));
        }
    }
    for path in TOLERANCED_NUMBERS {
        let Some((bn, fn_)) = lookup_pair(baseline, fresh, path, &mut violations) else {
            continue;
        };
        let (Some(b), Some(f)) = (
            as_num(bn, path, "baseline", &mut violations),
            as_num(fn_, path, "fresh", &mut violations),
        ) else {
            continue;
        };
        if (f - b).abs() > policy.cycle_tolerance * b.abs() {
            violations.push(format!(
                "`{path}` drifted beyond ±{:.1}%: baseline {b} vs fresh {f}",
                policy.cycle_tolerance * 100.0
            ));
        }
    }
    violations
}

/// Parses both JSON texts and runs [`compare_bench_summaries`].
///
/// # Errors
///
/// Returns an error if either side is not valid JSON.
pub fn gate_bench_text(
    baseline_text: &str,
    fresh_text: &str,
    policy: &GatePolicy,
) -> Result<Vec<String>, String> {
    let baseline = Json::parse(baseline_text).map_err(|e| format!("baseline JSON: {e}"))?;
    let fresh = Json::parse(fresh_text).map_err(|e| format!("fresh JSON: {e}"))?;
    Ok(compare_bench_summaries(&baseline, &fresh, policy))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(cycles: f64, mac_ops: f64, active: f64) -> Json {
        Json::obj([
            ("benchmark", Json::str("MNIST")),
            ("budget", Json::str("DB")),
            ("cycles", Json::num(cycles)),
            ("mac_ops", Json::num(mac_ops)),
            ("utilization", Json::num(mac_ops / (64.0 * cycles))),
            (
                "stalls",
                Json::obj([
                    ("active_cycles", Json::num(active)),
                    ("memory_bound_cycles", Json::num(cycles - active - 100.0)),
                    ("overhead_cycles", Json::num(100.0)),
                ]),
            ),
            (
                "rtl",
                Json::obj([
                    ("cycles", Json::num(cycles * 2.0)),
                    ("mac_ops", Json::num(mac_ops)),
                    ("active_cycles", Json::num(active * 2.0)),
                    ("stall_cycles", Json::num(cycles - active)),
                    ("agu_bursts", Json::num(42.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn identical_summaries_pass() {
        let b = summary(21321.0, 577000.0, 10757.0);
        assert!(compare_bench_summaries(&b, &b, &GatePolicy::default()).is_empty());
    }

    #[test]
    fn cycles_within_two_percent_pass() {
        let b = summary(21321.0, 577000.0, 10757.0);
        let f = summary(21321.0 * 1.019, 577000.0, 10757.0 * 1.019);
        assert!(compare_bench_summaries(&b, &f, &GatePolicy::default()).is_empty());
    }

    #[test]
    fn cycles_beyond_two_percent_fail() {
        let b = summary(21321.0, 577000.0, 10757.0);
        let f = summary(21321.0 * 1.03, 577000.0, 10757.0);
        let v = compare_bench_summaries(&b, &f, &GatePolicy::default());
        assert!(
            v.iter().any(|m| m.contains("`cycles` drifted")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn mac_ops_regression_fails_even_off_by_one() {
        let b = summary(21321.0, 577000.0, 10757.0);
        let f = summary(21321.0, 576999.0, 10757.0);
        let v = compare_bench_summaries(&b, &f, &GatePolicy::default());
        assert!(
            v.iter().any(|m| m.contains("`mac_ops` regressed")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn fresh_dropping_a_baseline_field_is_a_violation() {
        let b = summary(21321.0, 577000.0, 10757.0);
        let f = Json::obj([("benchmark", Json::str("MNIST"))]);
        let v = compare_bench_summaries(&b, &f, &GatePolicy::default());
        assert!(
            v.iter().any(|m| m.contains("dropped `cycles`")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn baseline_missing_new_metric_is_skipped() {
        // A baseline written before `rtl.utilization` existed must not
        // fail against a fresh summary that carries it — adding metrics
        // never requires `[bench-reset]`.
        let mut b = summary(21321.0, 577000.0, 10757.0);
        let f = summary(21321.0, 577000.0, 10757.0);
        if let Json::Obj(fields) = &mut b {
            fields.retain(|(k, _)| k.as_str() != "utilization");
            for (k, v) in fields.iter_mut() {
                if k.as_str() == "rtl" {
                    if let Json::Obj(rtl) = v {
                        rtl.retain(|(k, _)| k.as_str() != "active_cycles");
                    }
                }
            }
        }
        let v = compare_bench_summaries(&b, &f, &GatePolicy::default());
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn unknown_fields_on_either_side_are_ignored() {
        let b = summary(21321.0, 577000.0, 10757.0);
        let mut f = summary(21321.0, 577000.0, 10757.0);
        if let Json::Obj(fields) = &mut f {
            fields.push(("future_metric".to_string(), Json::num(1.0)));
        }
        let v = compare_bench_summaries(&b, &f, &GatePolicy::default());
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn benchmark_rename_is_a_violation() {
        let b = summary(21321.0, 577000.0, 10757.0);
        let mut f = summary(21321.0, 577000.0, 10757.0);
        if let Json::Obj(fields) = &mut f {
            fields[0].1 = Json::str("CIFAR");
        }
        let v = compare_bench_summaries(&b, &f, &GatePolicy::default());
        assert!(
            v.iter().any(|m| m.contains("`benchmark` changed")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn text_gate_round_trips_and_rejects_garbage() {
        let b = summary(21321.0, 577000.0, 10757.0).render();
        assert!(gate_bench_text(&b, &b, &GatePolicy::default())
            .expect("parses")
            .is_empty());
        assert!(gate_bench_text(&b, "not json", &GatePolicy::default()).is_err());
    }
}
