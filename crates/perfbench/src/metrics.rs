//! The metric registry: every number `dbbench` reports, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same
//! end-to-end and per-layer metrics (a unit test holds the two in step);
//! the bounds live only there, where `dbbench compare` reads them.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, work).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Host-time end-to-end metrics, measured with tracing off on every
/// workload and gated by the bounds in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 5] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "op/s"),
    lower("op_ms_p50", "ms"),
    lower("op_ms_p90", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Exact end-to-end values: deterministic for a given seed, so two
/// commits compare them for equality rather than within a bound. They
/// stay out of `BENCHMARK.json` because they are zero on a clean run
/// (`ops_failed_ratio`), absent on workloads that do not model the
/// design, or different for every seed (`random-small`).
pub const EXACT: [Metric; 3] = [
    lower("ops_failed_ratio", "ratio"),
    lower("model_cycles_geomean", "cycles"),
    lower("model_energy_uj_geomean", "uJ"),
];

/// Per-layer metrics of the traced run, per traced round. `*.self_ms` is
/// a span's time minus the time its child spans cover; `*.calls` counts
/// the span; the rest are counters the crates emit, or ratios of them.
pub const PER_LAYER: [Metric; 46] = [
    lower("model.parse.calls", "count"),
    lower("model.parse.self_ms", "ms"),
    lower("core.generate.calls", "count"),
    lower("core.generate.self_ms", "ms"),
    lower("core.constraint_iterations", "count"),
    higher("core.fit_ratio", "ratio"),
    lower("core.assemble_rtl.self_ms", "ms"),
    lower("core.lint.self_ms", "ms"),
    lower("core.emit_verilog.self_ms", "ms"),
    lower("core.estimate_resources.self_ms", "ms"),
    lower("core.verilog_bytes", "bytes"),
    lower("compiler.compile.self_ms", "ms"),
    lower("compiler.folding.self_ms", "ms"),
    lower("compiler.memory_map.self_ms", "ms"),
    lower("compiler.tiling.self_ms", "ms"),
    lower("compiler.agu_synthesis.self_ms", "ms"),
    lower("compiler.schedule.self_ms", "ms"),
    lower("compiler.lutgen.self_ms", "ms"),
    lower("compiler.weight_layout.self_ms", "ms"),
    lower("compiler.phases", "count"),
    lower("tensor.init.self_ms", "ms"),
    lower("sim.diff_design.self_ms", "ms"),
    lower("sim.diff.self_ms", "ms"),
    lower("sim.rtl_elaborate.self_ms", "ms"),
    lower("sim.verify_counters.self_ms", "ms"),
    lower("sim.counters.replayed_beats", "count"),
    lower("sim.full_rtl.calls", "count"),
    lower("sim.full_rtl.self_ms", "ms"),
    lower("fullrtl.cycles", "cycles"),
    lower("fullrtl.xacts", "count"),
    lower("sim.full_rtl.ns_per_cycle", "ns"),
    lower("rtl.evals", "count"),
    lower("rtl.settle_passes", "count"),
    lower("rtl.clock_edges", "count"),
    lower("rtl.evals_per_edge", "ratio"),
    lower("lint.analyze.self_ms", "ms"),
    lower("lint.range.self_ms", "ms"),
    lower("lint.agu.self_ms", "ms"),
    lower("lint.sched.self_ms", "ms"),
    lower("sim.timing.self_ms", "ms"),
    lower("sim.energy.self_ms", "ms"),
    lower("bench.op.ms", "ms"),
    lower("bench.glue.self_ms", "ms"),
    lower("trace.events", "count"),
    lower("trace.events_dropped", "count"),
    lower("trace.overhead_ratio", "ratio"),
];

/// True when `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Looks a metric up in every table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(&EXACT)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&EXACT).chain(&PER_LAYER) {
            assert!(valid_name(m.name), "illegal metric name `{}`", m.name);
            assert!(seen.insert(m.name), "metric `{}` listed twice", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "unit of `{}`",
                m.name
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }
}
