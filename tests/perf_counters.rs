//! Acceptance tests for the performance-counter observability layer: on
//! every zoo benchmark the RTL-read counters match the analytic
//! [`deepburning_sim::CounterSet`] — deterministic counters bit-for-bit,
//! cycle counters within the documented slack (DESIGN.md §10) — and the
//! `deepburning report` JSON carries the roofline/stall schema.

use deepburning_baselines::{zoo, Benchmark};
use deepburning_bench::{bench_summary_json, build_report, report_json};
use deepburning_core::{generate, Budget};
use deepburning_sim::{verify_counters, TimingParams};
use deepburning_trace::json::Json;

fn benchmarks() -> Vec<Benchmark> {
    let mut list = zoo::all_benchmarks();
    for extra in [
        zoo::alexnet_micro(),
        zoo::nin_micro(),
        zoo::googlenet_slice(),
    ] {
        if !list.iter().any(|b| b.name == extra.name) {
            list.push(extra);
        }
    }
    list
}

/// The tentpole acceptance property: for every zoo benchmark at one
/// budget tier, replaying the compiled schedule into the design's own
/// `perf_counters` block reproduces the analytic counter set. The beat
/// cap is deliberately small so the slack path (not just the exact path)
/// is exercised on every network.
#[test]
fn rtl_counters_match_analytic_set_on_every_zoo_benchmark() {
    let params = TimingParams::default();
    for bench in benchmarks() {
        let design = generate(&bench.network, &Budget::Medium)
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", bench.name));
        let check = verify_counters(&design.design, &design.compiled, &params, 64)
            .unwrap_or_else(|e| panic!("{}: counter replay failed: {e}", bench.name));
        assert!(
            check.is_clean(),
            "{}: counter cross-check diverged: {:?}",
            bench.name,
            check.divergences
        );
        // Deterministic counters are bit-for-bit (is_clean already implies
        // this; asserted explicitly so a regression names the counter).
        assert_eq!(check.analytic.mac_ops, check.rtl.mac_ops, "{}", bench.name);
        assert_eq!(
            check.analytic.buffer_reads, check.rtl.buffer_reads,
            "{}",
            bench.name
        );
        assert_eq!(
            check.analytic.buffer_writes, check.rtl.buffer_writes,
            "{}",
            bench.name
        );
        assert_eq!(
            check.analytic.agu_bursts, check.rtl.agu_bursts,
            "{}",
            bench.name
        );
        // Cycle counters obey the documented slack rule.
        assert!(
            check.rtl.cycles <= check.analytic.cycles
                && check.analytic.cycles - check.rtl.cycles <= check.cycle_slack,
            "{}: cycles {} vs {} outside slack {}",
            bench.name,
            check.rtl.cycles,
            check.analytic.cycles,
            check.cycle_slack
        );
    }
}

/// With no beat cap the replay is cycle-accurate: zero slack, all eight
/// registers equal.
#[test]
fn uncapped_replay_is_exact_on_ann0() {
    let bench = zoo::ann0();
    let design = generate(&bench.network, &Budget::Small).expect("generates");
    let check = verify_counters(
        &design.design,
        &design.compiled,
        &TimingParams::default(),
        u64::MAX,
    )
    .expect("replays");
    assert_eq!(check.cycle_slack, 0);
    assert_eq!(check.analytic, check.rtl);
}

/// `report.json` schema: register-map counters, per-layer rows, stall
/// split, roofline placement and the counter cross-check verdict.
#[test]
fn dbreport_json_carries_roofline_and_stall_schema() {
    let bench = zoo::mnist();
    let params = TimingParams::default();
    let design = generate(&bench.network, &Budget::Medium).expect("generates");
    let mut report = build_report(bench.name, &design, &params);
    let check = verify_counters(&design.design, &design.compiled, &params, 64).expect("replays");
    report.counter_check = Some((check.is_clean(), check.cycle_slack));

    let doc = Json::parse(&report_json(&report).render()).expect("valid json");
    for key in ["benchmark", "budget", "lanes", "word_bits", "clock_hz"] {
        assert!(doc.get(key).is_some(), "missing `{key}`");
    }
    let counters = doc.get("counters").expect("counters");
    for key in [
        "cycles",
        "active_cycles",
        "stall_cycles",
        "mac_ops",
        "buffer_reads",
        "buffer_writes",
        "agu_bursts",
        "buffer_peak_words",
    ] {
        assert!(
            counters.get(key).and_then(Json::as_f64).is_some(),
            "counters missing `{key}`"
        );
    }
    let layers = doc.get("layers").and_then(Json::as_arr).expect("layers");
    assert!(!layers.is_empty());
    for l in layers {
        for key in ["layer", "cycles", "mac_ops", "utilization", "stall_cycles"] {
            assert!(l.get(key).is_some(), "layer row missing `{key}`");
        }
    }
    let stalls = doc.get("stalls").expect("stalls");
    let total = stalls
        .get("total_cycles")
        .and_then(Json::as_f64)
        .expect("total");
    let parts: f64 = ["active_cycles", "memory_bound_cycles", "overhead_cycles"]
        .iter()
        .map(|k| stalls.get(k).and_then(Json::as_f64).expect("stall part"))
        .sum();
    assert_eq!(total, parts, "stall split must account for every cycle");
    let roof = doc.get("roofline").expect("roofline");
    for key in [
        "intensity_ops_per_byte",
        "attained_ops_per_cycle",
        "lane_peak_ops_per_cycle",
        "dsp_peak_ops_per_cycle",
        "bandwidth_ops_per_cycle",
    ] {
        assert!(
            roof.get(key).and_then(Json::as_f64).is_some(),
            "roofline missing `{key}`"
        );
    }
    assert!(matches!(
        roof.get("bound").and_then(Json::as_str),
        Some("compute") | Some("memory")
    ));
    assert_eq!(
        doc.get("counter_check")
            .and_then(|c| c.get("clean"))
            .and_then(|v| match v {
                Json::Bool(b) => Some(*b),
                _ => None,
            }),
        Some(true),
        "counter cross-check must be clean"
    );

    // The committed-baseline summary derives from the same report.
    let summary = Json::parse(&bench_summary_json(&report).render()).expect("valid json");
    for key in ["benchmark", "budget", "cycles", "utilization", "stalls"] {
        assert!(summary.get(key).is_some(), "baseline missing `{key}`");
    }
}

/// The committed `BENCH_*.json` baselines at the repo root stay
/// regenerable: the current tree reproduces their cycle counts exactly
/// (the model is deterministic; a drift here must be deliberate and the
/// baseline re-committed).
#[test]
fn committed_bench_baselines_match_current_model() {
    for (file, bench) in [
        ("BENCH_ann0.json", zoo::ann0()),
        ("BENCH_cmac.json", zoo::cmac()),
        ("BENCH_mnist.json", zoo::mnist()),
    ] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/").to_string() + file;
        let committed = match std::fs::read_to_string(&path) {
            Ok(t) => Json::parse(&t).unwrap_or_else(|e| panic!("{file}: invalid json: {e}")),
            // Fresh checkouts without baselines are fine; CI's
            // `deepburning report` step regenerates them.
            Err(_) => continue,
        };
        let design = generate(&bench.network, &Budget::Medium).expect("generates");
        let report = build_report(bench.name, &design, &TimingParams::default());
        let fresh = Json::parse(&bench_summary_json(&report).render()).expect("valid json");
        assert_eq!(
            committed.get("cycles").and_then(Json::as_f64),
            fresh.get("cycles").and_then(Json::as_f64),
            "{file}: committed baseline cycles drifted — regenerate with \
             `deepburning report <bench> --bench-json` if intended"
        );
        assert_eq!(
            committed.get("mac_ops").and_then(Json::as_f64),
            fresh.get("mac_ops").and_then(Json::as_f64),
            "{file}: committed baseline mac_ops drifted"
        );
    }
}
