//! Evaluation harness shared by the table/figure binaries, the
//! `deepburning` CLI's report, gate and history subcommands, and the
//! Criterion benches.
//!
//! Each paper table/figure has a `cargo run -p deepburning-bench --bin
//! <id>` binary (run with `--release` — the accuracy figure trains models)
//! and a matching Criterion bench measuring the pipeline that produces it.

mod artifacts;
mod draw;
mod gate;
mod history;
mod report;

pub use artifacts::write_divergence_bundle;
pub use draw::Draw;
pub use gate::{compare_bench_summaries, gate_bench_text, GatePolicy};
pub use history::{
    append_entry, canon, detect_drift, history_path, load_history, render_history_table, sparkline,
    Drift, HistoryEntry, DRIFT_THRESHOLD, DRIFT_WINDOW, WATCHED_METRICS,
};
pub use report::{
    attach_full_run, bench_summary_json, build_report, render_report_table, render_timeline_table,
    report_json, LayerProfile, PerfReport, Roofline, StallBreakdown,
};

use deepburning_baselines::{
    custom_design, custom_timing_params, Benchmark, CpuModel, ZhangFpga15,
};
use deepburning_core::{generate, AcceleratorDesign, Budget, GenerateError};
use deepburning_sim::{
    inference_energy, simulate_timing, EnergyParams, TimingParams, TimingReport,
};

/// One scheme's measurement for one benchmark (a bar in Figs. 8/9).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// Scheme label: `Custom`, `DB`, `DB-L`, `DB-S`, `CPU`.
    pub scheme: &'static str,
    /// Forward-propagation latency, seconds.
    pub seconds: f64,
    /// Energy per forward propagation, joules.
    pub energy_j: f64,
    /// Whether the design fit its budget envelope (always true for CPU).
    pub fits: bool,
}

/// Latency + energy of one generated design under given timing params.
pub fn measure(design: &AcceleratorDesign, timing_params: &TimingParams) -> (f64, f64) {
    let timing: TimingReport = simulate_timing(&design.compiled, timing_params);
    let seconds = timing.seconds(design.clock_hz());
    let energy = inference_energy(design, &timing, &EnergyParams::default());
    (seconds, energy.total_j)
}

/// Runs every scheme of Figs. 8/9 on one benchmark.
///
/// # Errors
///
/// Propagates generator failures.
pub fn evaluate_benchmark(bench: &Benchmark) -> Result<Vec<SchemeResult>, GenerateError> {
    let mut out = Vec::with_capacity(5);

    let cu = custom_design(bench, &Budget::Medium)?;
    let (s, e) = measure(&cu, &custom_timing_params());
    out.push(SchemeResult {
        scheme: "Custom",
        seconds: s,
        energy_j: e,
        fits: cu.fits.0,
    });

    for (budget, label) in [
        (Budget::Medium, "DB"),
        (Budget::Large, "DB-L"),
        (Budget::Small, "DB-S"),
    ] {
        let d = generate(&bench.network, &budget)?;
        let (s, e) = measure(&d, &TimingParams::default());
        out.push(SchemeResult {
            scheme: label,
            seconds: s,
            energy_j: e,
            fits: d.fits.0,
        });
    }

    let cpu = CpuModel::xeon_2_4ghz();
    let s = cpu
        .forward_time(&bench.network)
        .expect("zoo networks are valid");
    let e = cpu
        .forward_energy(&bench.network)
        .expect("zoo networks are valid");
    out.push(SchemeResult {
        scheme: "CPU",
        seconds: s,
        energy_j: e,
        fits: true,
    });
    Ok(out)
}

/// Formats seconds with an adaptive unit.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Formats joules with an adaptive unit.
pub fn fmt_joules(j: f64) -> String {
    if j >= 1.0 {
        format!("{j:.3} J")
    } else if j >= 1e-3 {
        format!("{:.3} mJ", j * 1e3)
    } else {
        format!("{:.2} uJ", j * 1e6)
    }
}

/// Prints one aligned row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", row.join("  "));
}

/// The Zhang FPGA'15 reference row for the AlexNet comparisons.
pub fn zhang_row() -> SchemeResult {
    SchemeResult {
        scheme: "[7]",
        seconds: ZhangFpga15::LATENCY_S,
        energy_j: ZhangFpga15::ENERGY_J,
        fits: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_baselines::zoo;

    #[test]
    fn evaluate_small_benchmark_has_all_schemes() {
        let rows = evaluate_benchmark(&zoo::ann0()).expect("evaluates");
        let schemes: Vec<&str> = rows.iter().map(|r| r.scheme).collect();
        assert_eq!(schemes, vec!["Custom", "DB", "DB-L", "DB-S", "CPU"]);
        assert!(rows.iter().all(|r| r.seconds > 0.0 && r.energy_j > 0.0));
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_seconds(2.0), "2.000 s");
        assert_eq!(fmt_seconds(0.0216), "21.600 ms");
        assert_eq!(fmt_seconds(12e-6), "12.0 us");
        assert_eq!(fmt_joules(0.5), "500.000 mJ");
        assert_eq!(fmt_joules(1.5), "1.500 J");
    }

    #[test]
    fn fig8_shape_holds_on_mnist() {
        // CPU slower than DB; DB-L at least as fast as DB.
        let rows = evaluate_benchmark(&zoo::mnist()).expect("evaluates");
        let get = |s: &str| rows.iter().find(|r| r.scheme == s).expect("scheme").seconds;
        assert!(get("CPU") > get("DB"), "CPU must lose to DB");
        assert!(get("DB-L") <= get("DB"), "DB-L must not lose to DB");
        assert!(get("DB-S") >= get("DB-L"), "DB-S must not beat DB-L");
    }

    #[test]
    fn fig9_shape_holds_on_mnist() {
        let rows = evaluate_benchmark(&zoo::mnist()).expect("evaluates");
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.scheme == s)
                .expect("scheme")
                .energy_j
        };
        assert!(get("CPU") > get("DB") * 5.0, "CPU energy must dwarf DB");
        assert!(
            get("Custom") <= get("DB"),
            "Custom must not burn more than DB"
        );
    }
}
