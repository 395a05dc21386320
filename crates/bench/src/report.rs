//! Roofline / stall reporting built on the performance-counter view.
//!
//! [`build_report`] runs the analytic timing model over a generated
//! design and folds the result into a [`PerfReport`]: the counter set of
//! the generated `perf_counters` block (DESIGN.md §10), a per-layer
//! utilisation profile, the compute-vs-memory stall split, the
//! buffer-occupancy series, and the design's roofline placement against
//! its DSP-budget compute peak and the [`TimingParams`] bandwidth
//! ceiling. `deepburning report` renders it as `report.json` plus a text table.

use deepburning_components::dsps_per_multiplier;
use deepburning_core::AcceleratorDesign;
use deepburning_sim::{
    counter_set_json, simulate_timing, CounterSet, RunTimeline, TimingParams, TimingReport,
};
use deepburning_trace::json::Json;

/// Aggregated timing profile of one network layer (all its phases).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Layer name.
    pub layer: String,
    /// Number of schedule phases the layer occupies.
    pub phases: usize,
    /// Latency contribution in cycles.
    pub cycles: u64,
    /// Datapath demand in cycles.
    pub compute_cycles: u64,
    /// DRAM-traffic demand in cycles.
    pub dram_cycles: u64,
    /// On-chip buffer demand in cycles.
    pub buffer_cycles: u64,
    /// MAC operations retired by the layer.
    pub mac_ops: u64,
    /// Cycles stalled on DRAM beyond compute/buffer overlap.
    pub stall_cycles: u64,
    /// MAC lane occupancy over the layer's latency:
    /// `mac_ops / (lanes * cycles)`.
    pub utilization: f64,
}

/// Where the cycles of a run went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallBreakdown {
    /// End-to-end latency in cycles.
    pub total_cycles: u64,
    /// Cycles the datapath was retiring work.
    pub active_cycles: u64,
    /// Cycles stalled on DRAM transfers (memory-bound slack).
    pub memory_bound_cycles: u64,
    /// Everything else: buffer-bound cycles plus per-phase fill/drain and
    /// coordinator reconnection overhead.
    pub overhead_cycles: u64,
}

/// Roofline placement of one design/run.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    /// Operational intensity: MACs per DRAM byte moved.
    pub intensity_ops_per_byte: f64,
    /// Attained throughput: MACs per cycle over the whole run.
    pub attained_ops_per_cycle: f64,
    /// Compute roof of the instantiated lanes (one MAC/lane/cycle).
    pub lane_peak_ops_per_cycle: f64,
    /// Compute roof the budget's DSP envelope could support at this word
    /// width (`envelope.dsp / dsps_per_multiplier`).
    pub dsp_peak_ops_per_cycle: f64,
    /// Bandwidth roof at this intensity:
    /// `intensity * dram_bytes_per_cycle`.
    pub bandwidth_ops_per_cycle: f64,
    /// Which roof is lower at this intensity: `"compute"` or `"memory"`.
    pub bound: &'static str,
}

/// The full observability report for one benchmark × budget run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Budget tag (`DB-S`, `DB`, `DB-L`).
    pub budget: String,
    /// Synergy lanes instantiated.
    pub lanes: u32,
    /// Datapath word width in bits.
    pub word_bits: u32,
    /// Target device clock.
    pub clock_hz: u64,
    /// The analytic performance-counter set (register-map order).
    pub counters: CounterSet,
    /// Per-layer profile in first-execution order.
    pub layers: Vec<LayerProfile>,
    /// Cycle accounting.
    pub stalls: StallBreakdown,
    /// Buffer-occupancy series: `(phase id, words written that phase)`,
    /// the write-side proxy the RTL peak counter tracks.
    pub occupancy: Vec<(usize, u64)>,
    /// Roofline placement.
    pub roofline: Roofline,
    /// `(clean, cycle_slack)` when the RTL counter cross-check ran.
    pub counter_check: Option<(bool, u64)>,
    /// The RTL-read register set from a full-network run (`perf_rdata`
    /// readback of the generated `perf_counters` block), when one ran.
    pub rtl_counters: Option<CounterSet>,
    /// What drives the roofline's attained point: `"rtl"` when
    /// [`attach_full_run`] installed hardware-read counters (the default
    /// `deepburning report` path), `"analytic"` for model-only runs.
    pub counter_source: &'static str,
}

/// Installs the RTL-read counter set from a full-network run and
/// re-derives the roofline's attained throughput from hardware registers
/// instead of the analytic model. Operational intensity (MACs per DRAM
/// byte) is a property of the compiled schedule, so the roofs and the
/// compute/memory bound classification are unchanged; only the attained
/// point moves to what the fabric actually measured. Note the fabric
/// counts one transaction per cycle with no DRAM beat model, so
/// RTL-read cycles sit on a different scale than the analytic
/// bandwidth-model cycles (DESIGN.md §13).
pub fn attach_full_run(report: &mut PerfReport, rtl: &CounterSet) {
    report.rtl_counters = Some(*rtl);
    report.counter_source = "rtl";
    report.roofline.attained_ops_per_cycle = if rtl.cycles == 0 {
        0.0
    } else {
        rtl.mac_ops as f64 / rtl.cycles as f64
    };
}

/// Builds the observability report for a generated design by running the
/// analytic timing model (the RTL counter cross-check is attached
/// separately via [`PerfReport::counter_check`]).
pub fn build_report(
    benchmark: &str,
    design: &AcceleratorDesign,
    params: &TimingParams,
) -> PerfReport {
    let timing: TimingReport = simulate_timing(&design.compiled, params);
    let cfg = &design.compiled.config;
    let folding = &design.compiled.folding;

    let mut layers: Vec<LayerProfile> = Vec::new();
    let mut occupancy = Vec::with_capacity(folding.phases.len());
    for (phase, pt) in folding.phases.iter().zip(&timing.phases) {
        occupancy.push((phase.id, phase.work.buffer_write_words));
        let stall = pt
            .dram_cycles
            .saturating_sub(pt.compute_cycles.max(pt.buffer_cycles));
        let entry = match layers.iter_mut().find(|l| l.layer == phase.layer) {
            Some(l) => l,
            None => {
                layers.push(LayerProfile {
                    layer: phase.layer.clone(),
                    phases: 0,
                    cycles: 0,
                    compute_cycles: 0,
                    dram_cycles: 0,
                    buffer_cycles: 0,
                    mac_ops: 0,
                    stall_cycles: 0,
                    utilization: 0.0,
                });
                layers.last_mut().expect("just pushed")
            }
        };
        entry.phases += 1;
        entry.cycles = entry.cycles.saturating_add(pt.latency_cycles);
        entry.compute_cycles = entry.compute_cycles.saturating_add(pt.compute_cycles);
        entry.dram_cycles = entry.dram_cycles.saturating_add(pt.dram_cycles);
        entry.buffer_cycles = entry.buffer_cycles.saturating_add(pt.buffer_cycles);
        entry.mac_ops = entry.mac_ops.saturating_add(phase.work.macs);
        entry.stall_cycles = entry.stall_cycles.saturating_add(stall);
    }
    let lane_cycles = |cycles: u64| (cfg.lanes as f64) * (cycles as f64);
    for l in &mut layers {
        l.utilization = if l.cycles == 0 {
            0.0
        } else {
            l.mac_ops as f64 / lane_cycles(l.cycles)
        };
    }

    let c = timing.counters;
    let stalls = StallBreakdown {
        total_cycles: c.cycles,
        active_cycles: c.active_cycles,
        memory_bound_cycles: c.stall_cycles,
        overhead_cycles: c
            .cycles
            .saturating_sub(c.active_cycles.saturating_add(c.stall_cycles)),
    };

    let dram_bytes: u64 = folding
        .phases
        .iter()
        .map(|p| p.work.dram_read_bytes + p.work.dram_write_bytes)
        .sum();
    let intensity = if dram_bytes == 0 {
        f64::INFINITY
    } else {
        c.mac_ops as f64 / dram_bytes as f64
    };
    let attained = if c.cycles == 0 {
        0.0
    } else {
        c.mac_ops as f64 / c.cycles as f64
    };
    let lane_peak = f64::from(cfg.lanes);
    let dsp_peak =
        f64::from(design.budget.envelope().dsp) / f64::from(dsps_per_multiplier(cfg.word_bits));
    let bandwidth_roof = intensity * params.dram_bytes_per_cycle;
    let roofline = Roofline {
        intensity_ops_per_byte: intensity,
        attained_ops_per_cycle: attained,
        lane_peak_ops_per_cycle: lane_peak,
        dsp_peak_ops_per_cycle: dsp_peak,
        bandwidth_ops_per_cycle: bandwidth_roof,
        bound: if bandwidth_roof < lane_peak.min(dsp_peak) {
            "memory"
        } else {
            "compute"
        },
    };

    PerfReport {
        benchmark: benchmark.to_string(),
        budget: design.budget.tag().to_string(),
        lanes: cfg.lanes,
        word_bits: cfg.word_bits,
        clock_hz: design.clock_hz(),
        counters: c,
        layers,
        stalls,
        occupancy,
        roofline,
        counter_check: None,
        rtl_counters: None,
        counter_source: "analytic",
    }
}

/// The `report.json` image of a [`PerfReport`].
pub fn report_json(r: &PerfReport) -> Json {
    Json::obj([
        ("benchmark", Json::str(r.benchmark.clone())),
        ("budget", Json::str(r.budget.clone())),
        ("lanes", Json::num(f64::from(r.lanes))),
        ("word_bits", Json::num(f64::from(r.word_bits))),
        ("clock_hz", Json::num(r.clock_hz as f64)),
        ("counters", counter_set_json(&r.counters)),
        (
            "layers",
            Json::Arr(
                r.layers
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("layer", Json::str(l.layer.clone())),
                            ("phases", Json::num(l.phases as f64)),
                            ("cycles", Json::num(l.cycles as f64)),
                            ("compute_cycles", Json::num(l.compute_cycles as f64)),
                            ("dram_cycles", Json::num(l.dram_cycles as f64)),
                            ("buffer_cycles", Json::num(l.buffer_cycles as f64)),
                            ("mac_ops", Json::num(l.mac_ops as f64)),
                            ("stall_cycles", Json::num(l.stall_cycles as f64)),
                            ("utilization", Json::num(l.utilization)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "stalls",
            Json::obj([
                ("total_cycles", Json::num(r.stalls.total_cycles as f64)),
                ("active_cycles", Json::num(r.stalls.active_cycles as f64)),
                (
                    "memory_bound_cycles",
                    Json::num(r.stalls.memory_bound_cycles as f64),
                ),
                (
                    "overhead_cycles",
                    Json::num(r.stalls.overhead_cycles as f64),
                ),
            ]),
        ),
        (
            "occupancy",
            Json::Arr(
                r.occupancy
                    .iter()
                    .map(|(phase, words)| {
                        Json::obj([
                            ("phase", Json::num(*phase as f64)),
                            ("words", Json::num(*words as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "roofline",
            Json::obj([
                (
                    "intensity_ops_per_byte",
                    Json::num(r.roofline.intensity_ops_per_byte),
                ),
                (
                    "attained_ops_per_cycle",
                    Json::num(r.roofline.attained_ops_per_cycle),
                ),
                (
                    "lane_peak_ops_per_cycle",
                    Json::num(r.roofline.lane_peak_ops_per_cycle),
                ),
                (
                    "dsp_peak_ops_per_cycle",
                    Json::num(r.roofline.dsp_peak_ops_per_cycle),
                ),
                (
                    "bandwidth_ops_per_cycle",
                    Json::num(r.roofline.bandwidth_ops_per_cycle),
                ),
                ("bound", Json::str(r.roofline.bound)),
            ]),
        ),
        (
            "counter_check",
            match r.counter_check {
                Some((clean, slack)) => Json::obj([
                    ("clean", Json::Bool(clean)),
                    ("cycle_slack", Json::num(slack as f64)),
                ]),
                None => Json::Null,
            },
        ),
        ("counter_source", Json::str(r.counter_source)),
        (
            "rtl_counters",
            match &r.rtl_counters {
                Some(c) => {
                    let mut j = counter_set_json(c);
                    if let Json::Obj(fields) = &mut j {
                        fields.push(("utilization".to_string(), Json::num(rtl_utilization(c))));
                    }
                    j
                }
                None => Json::Null,
            },
        ),
    ])
}

/// Derived RTL duty cycle — `active_cycles / cycles` out of the
/// fabric's own counter registers (0 when the run recorded no cycles).
fn rtl_utilization(c: &CounterSet) -> f64 {
    if c.cycles == 0 {
        0.0
    } else {
        c.active_cycles as f64 / c.cycles as f64
    }
}

/// The small committed-baseline image (`BENCH_<name>.json`): headline
/// cycles, overall utilisation and the stall split — the numbers whose
/// drift a CI diff should surface.
pub fn bench_summary_json(r: &PerfReport) -> Json {
    let util = if r.stalls.total_cycles == 0 {
        0.0
    } else {
        r.counters.mac_ops as f64 / (f64::from(r.lanes) * r.stalls.total_cycles as f64)
    };
    Json::obj([
        ("benchmark", Json::str(r.benchmark.clone())),
        ("budget", Json::str(r.budget.clone())),
        ("cycles", Json::num(r.stalls.total_cycles as f64)),
        ("mac_ops", Json::num(r.counters.mac_ops as f64)),
        ("utilization", Json::num(util)),
        (
            "stalls",
            Json::obj([
                ("active_cycles", Json::num(r.stalls.active_cycles as f64)),
                (
                    "memory_bound_cycles",
                    Json::num(r.stalls.memory_bound_cycles as f64),
                ),
                (
                    "overhead_cycles",
                    Json::num(r.stalls.overhead_cycles as f64),
                ),
            ]),
        ),
        (
            "rtl",
            match &r.rtl_counters {
                Some(c) => Json::obj([
                    ("cycles", Json::num(c.cycles as f64)),
                    ("mac_ops", Json::num(c.mac_ops as f64)),
                    ("active_cycles", Json::num(c.active_cycles as f64)),
                    ("stall_cycles", Json::num(c.stall_cycles as f64)),
                    ("agu_bursts", Json::num(c.agu_bursts as f64)),
                    ("utilization", Json::num(rtl_utilization(c))),
                ]),
                None => Json::Null,
            },
        ),
    ])
}

/// Renders the human-readable table `deepburning report` prints.
pub fn render_report_table(r: &PerfReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} @ {}: {} lanes x {} bits, {} MHz",
        r.benchmark,
        r.budget,
        r.lanes,
        r.word_bits,
        r.clock_hz / 1_000_000
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>7} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "layer", "phases", "cycles", "compute", "dram", "macs", "util"
    );
    for l in &r.layers {
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>10} {:>10} {:>10} {:>10} {:>5.1}%",
            l.layer,
            l.phases,
            l.cycles,
            l.compute_cycles,
            l.dram_cycles,
            l.mac_ops,
            l.utilization * 100.0
        );
    }
    let s = &r.stalls;
    let pct = |v: u64| {
        if s.total_cycles == 0 {
            0.0
        } else {
            v as f64 * 100.0 / s.total_cycles as f64
        }
    };
    let _ = writeln!(
        out,
        "  cycles {}: active {} ({:.1}%) | memory-bound {} ({:.1}%) | overhead {} ({:.1}%)",
        s.total_cycles,
        s.active_cycles,
        pct(s.active_cycles),
        s.memory_bound_cycles,
        pct(s.memory_bound_cycles),
        s.overhead_cycles,
        pct(s.overhead_cycles),
    );
    let rf = &r.roofline;
    let _ = writeln!(
        out,
        "  roofline: {:.3} ops/cycle attained @ {:.3} ops/byte | roofs: lanes {:.0}, \
         dsp {:.1}, bandwidth {:.1} -> {}-bound",
        rf.attained_ops_per_cycle,
        rf.intensity_ops_per_byte,
        rf.lane_peak_ops_per_cycle,
        rf.dsp_peak_ops_per_cycle,
        rf.bandwidth_ops_per_cycle,
        rf.bound,
    );
    match r.counter_check {
        Some((true, slack)) => {
            let _ = writeln!(out, "  counter cross-check: clean (cycle slack {slack})");
        }
        Some((false, slack)) => {
            let _ = writeln!(out, "  counter cross-check: DIVERGED (cycle slack {slack})");
        }
        None => {}
    }
    if let Some(c) = &r.rtl_counters {
        let _ = writeln!(
            out,
            "  rtl-read counters: {} cycles, {} macs, {} active / {} stall (roofline source: {})",
            c.cycles, c.mac_ops, c.active_cycles, c.stall_cycles, r.counter_source,
        );
    }
    out
}

/// Renders the phase-timeline tables of a full-network run (`deepburning report
/// --timeline`): one row per coordinator-FSM phase (duration, DRAM
/// transactions, stall cycles, share of the run), the log-scale
/// distribution summaries (p50/p95/max), and per-segment DRAM bandwidth
/// in words per kilocycle.
pub fn render_timeline_table(tl: &RunTimeline) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let total = tl.total_cycles();
    let _ = writeln!(
        out,
        "  timeline: {} phases over {} busy cycles",
        tl.phases.len(),
        total
    );
    let _ = writeln!(
        out,
        "  {:<6} {:<14} {:>10} {:>10} {:>8} {:>8} {:>6}",
        "phase", "layer", "start", "cycles", "xacts", "stall", "share"
    );
    for p in &tl.phases {
        let _ = writeln!(
            out,
            "  p{:<5} {:<14} {:>10} {:>10} {:>8} {:>8} {:>5.1}%",
            p.phase,
            p.layer,
            p.start_cycle,
            p.cycles,
            p.xacts,
            p.stall_cycles,
            p.cycles as f64 * 100.0 / total.max(1) as f64,
        );
    }
    for (name, h) in [
        ("phase cycles", &tl.phase_cycles),
        ("burst length", &tl.burst_lengths),
        ("stall cycles", &tl.stall_cycles),
    ] {
        // min/max are tracked exactly; p50/p95 are conservative log2
        // bucket upper edges (clamped to the exact max).
        let _ = writeln!(
            out,
            "  {:<13} min {:>8} p50 {:>8} p95 {:>8} max {:>8}  ({} samples)",
            name,
            h.min(),
            h.p50(),
            h.p95(),
            h.max(),
            h.count(),
        );
    }
    let _ = writeln!(
        out,
        "  {:<14} {:>10} {:>10} {:>10} {:>14}",
        "segment", "reads", "writes", "words", "words/kcycle"
    );
    for s in &tl.segments {
        let words = s.reads + s.writes;
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>10} {:>10} {:>14.2}",
            s.segment,
            s.reads,
            s.writes,
            words,
            words as f64 * 1000.0 / total.max(1) as f64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_baselines::zoo;
    use deepburning_core::{generate, Budget};

    fn report() -> PerfReport {
        let bench = zoo::ann0();
        let design = generate(&bench.network, &Budget::Small).expect("generates");
        build_report(bench.name, &design, &TimingParams::default())
    }

    #[test]
    fn report_accounts_all_cycles_and_layers() {
        let r = report();
        assert!(!r.layers.is_empty());
        let layer_cycles: u64 = r.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(layer_cycles, r.stalls.total_cycles);
        assert_eq!(
            r.stalls.total_cycles,
            r.stalls.active_cycles + r.stalls.memory_bound_cycles + r.stalls.overhead_cycles
        );
        assert!(r.layers.iter().all(|l| l.utilization <= 1.0));
        assert_eq!(r.occupancy.len(), r.layers.iter().map(|l| l.phases).sum());
    }

    #[test]
    fn roofline_is_sane() {
        let r = report();
        let rf = &r.roofline;
        assert!(rf.attained_ops_per_cycle <= rf.lane_peak_ops_per_cycle);
        assert!(rf.lane_peak_ops_per_cycle <= rf.dsp_peak_ops_per_cycle + 1.0);
        assert!(rf.intensity_ops_per_byte > 0.0);
        assert!(matches!(rf.bound, "compute" | "memory"));
    }

    #[test]
    fn json_round_trips_through_the_renderer() {
        let mut r = report();
        r.counter_check = Some((true, 42));
        let json = report_json(&r);
        let parsed = deepburning_trace::json::Json::parse(&json.render()).expect("valid json");
        assert_eq!(
            parsed.get("benchmark").and_then(Json::as_str),
            Some(r.benchmark.as_str())
        );
        let roof = parsed.get("roofline").expect("roofline");
        assert!(roof.get("attained_ops_per_cycle").is_some());
        assert_eq!(
            parsed
                .get("counter_check")
                .and_then(|c| c.get("cycle_slack"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
        let summary = bench_summary_json(&r);
        assert!(summary.get("stalls").is_some());
        let table = render_report_table(&r);
        assert!(table.contains("roofline"), "{table}");
        assert!(table.contains("counter cross-check: clean"), "{table}");
    }

    #[test]
    fn attach_full_run_switches_roofline_to_rtl_counters() {
        let mut r = report();
        assert_eq!(r.counter_source, "analytic");
        let rtl = CounterSet {
            cycles: 100,
            active_cycles: 60,
            stall_cycles: 10,
            mac_ops: 30,
            agu_bursts: 5,
            ..CounterSet::default()
        };
        attach_full_run(&mut r, &rtl);
        assert_eq!(r.counter_source, "rtl");
        assert_eq!(r.rtl_counters, Some(rtl));
        assert!((r.roofline.attained_ops_per_cycle - 0.3).abs() < 1e-12);
        let json = report_json(&r);
        let parsed = deepburning_trace::json::Json::parse(&json.render()).expect("valid json");
        assert_eq!(
            parsed.get("counter_source").and_then(Json::as_str),
            Some("rtl")
        );
        assert_eq!(
            parsed
                .get("rtl_counters")
                .and_then(|c| c.get("cycles"))
                .and_then(Json::as_f64),
            Some(100.0)
        );
        let summary = bench_summary_json(&r);
        assert_eq!(
            summary
                .get("rtl")
                .and_then(|c| c.get("mac_ops"))
                .and_then(Json::as_f64),
            Some(30.0)
        );
        let table = render_report_table(&r);
        assert!(table.contains("rtl-read counters"), "{table}");
    }
}
