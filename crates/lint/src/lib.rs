//! Static netlist analyzer for generated accelerators.
//!
//! The differential harness in `deepburning-sim` only catches bugs on the
//! inputs it happens to simulate. This crate proves properties of the
//! generated artifacts *before* any simulation runs, in milliseconds:
//!
//! 1. **Structural RTL lint** ([`structural`]) — undriven/unused nets,
//!    multiple drivers, width mismatches with implicit truncation.
//! 2. **Combinational-loop diagnosis** ([`comb`]) — reports the actual
//!    cycle path that would make levelization fail.
//! 3. **FSM reachability** ([`fsm`]) — dead states and unreachable
//!    transitions in literal-encoded state machines.
//! 4. **Fixed-point range analysis** ([`range`]) — interval propagation
//!    through the quantised datapath proving per-layer no-overflow for
//!    the chosen `QFormat`.
//! 5. **AGU bounds proof** ([`agu`]) — every address pattern stays inside
//!    its DRAM segment or on-chip buffer for all fold slices, without
//!    replaying the schedule.
//! 6. **Counter/schedule consistency** ([`sched`]) — the `ctx_lanes`
//!    context-ROM contents must equal the schedule's `counter_lanes`
//!    totals, and the ROM geometry must match the phase count.
//!
//! The compiled engine's own tape invariant (every dependence edge
//! points forward) is not a pass here: `CompiledSim::compile` checks it
//! on every tape it builds (DESIGN.md §11).
//!
//! All passes produce [`Diagnostic`]s with a stable rule id, severity,
//! module/signal location, a source span into the emitted Verilog, and a
//! suggested fix where one exists. [`analyze`] runs the full pipeline.

pub mod agu;
pub mod comb;
pub mod fsm;
pub mod range;
pub mod sched;
mod span;
pub mod structural;

pub use range::{analyze_ranges, LayerNorms, RangeProof, WeightNorms};
pub use span::SpanIndex;

use deepburning_core::AcceleratorDesign;
use deepburning_model::Network;
use deepburning_trace::json::Json;
use std::fmt;

/// Severity of a diagnostic, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected behaviour worth surfacing (e.g. a streaming buffer wrap).
    Info,
    /// Suspicious but not provably wrong.
    Warning,
    /// The artifact is broken.
    Error,
}

impl Severity {
    /// Lower-case name as used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a `--deny` style threshold (`info`, `warn`/`warning`,
    /// `error`).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" | "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<deepburning_verilog::Severity> for Severity {
    fn from(s: deepburning_verilog::Severity) -> Severity {
        match s {
            deepburning_verilog::Severity::Warning => Severity::Warning,
            deepburning_verilog::Severity::Error => Severity::Error,
        }
    }
}

/// One structured finding from a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule id, `pass/rule` (e.g. `structural/undriven-net`,
    /// `range/definite-overflow`).
    pub rule: String,
    /// Severity.
    pub severity: Severity,
    /// Module (or layer/phase scope) the finding is in, when one exists.
    pub module: Option<String>,
    /// Signal (or segment/state) name the finding is about.
    pub signal: Option<String>,
    /// 1-based line in the emitted Verilog where the subject is declared,
    /// when the design text was available for span resolution.
    pub line: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// Suggested fix, when the pass can propose one.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A new diagnostic with no location or suggestion.
    pub fn new(rule: impl Into<String>, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            rule: rule.into(),
            severity,
            module: None,
            signal: None,
            line: None,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Sets the module scope.
    #[must_use]
    pub fn in_module(mut self, module: impl Into<String>) -> Self {
        self.module = Some(module.into());
        self
    }

    /// Sets the signal name.
    #[must_use]
    pub fn on_signal(mut self, signal: impl Into<String>) -> Self {
        self.signal = Some(signal.into());
        self
    }

    /// Sets the suggested fix.
    #[must_use]
    pub fn suggest(mut self, fix: impl Into<String>) -> Self {
        self.suggestion = Some(fix.into());
        self
    }

    fn to_json(&self) -> Json {
        let opt = |v: &Option<String>| match v {
            Some(s) => Json::str(s.clone()),
            None => Json::Null,
        };
        Json::obj([
            ("rule", Json::str(self.rule.clone())),
            ("severity", Json::str(self.severity.name())),
            ("module", opt(&self.module)),
            ("signal", opt(&self.signal)),
            (
                "line",
                self.line.map_or(Json::Null, |l| Json::num(l as f64)),
            ),
            ("message", Json::str(self.message.clone())),
            ("suggestion", opt(&self.suggestion)),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.rule)?;
        match (&self.module, &self.signal) {
            (Some(m), Some(s)) => write!(f, " {m}.{s}")?,
            (Some(m), None) => write!(f, " {m}")?,
            (None, Some(s)) => write!(f, " {s}")?,
            (None, None) => {}
        }
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(fix) = &self.suggestion {
            write!(f, "\n  fix: {fix}")?;
        }
        Ok(())
    }
}

/// The outcome of running the full pass pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// All diagnostics, most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-layer range proofs from the fixed-point analysis (empty when
    /// the pass ran without weights).
    pub proofs: Vec<RangeProof>,
}

impl AnalysisReport {
    /// Number of diagnostics at or above `threshold`.
    pub fn count_at(&self, threshold: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= threshold)
            .count()
    }

    /// True when no diagnostic reaches `threshold`.
    pub fn is_clean_at(&self, threshold: Severity) -> bool {
        self.count_at(threshold) == 0
    }

    /// Sorts diagnostics most-severe-first (stable within a severity).
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| std::cmp::Reverse(d.severity));
    }

    /// Resolves source spans against the emitted Verilog text. The
    /// span index is built only when some diagnostic names a module and
    /// signal but has no line yet.
    pub fn resolve_spans(&mut self, verilog: &str) {
        let unresolved =
            |d: &Diagnostic| d.line.is_none() && d.module.is_some() && d.signal.is_some();
        if !self.diagnostics.iter().any(unresolved) {
            return;
        }
        let _span = deepburning_trace::span("lint", "lint.spans");
        let index = SpanIndex::build(verilog);
        for d in self.diagnostics.iter_mut().filter(|d| unresolved(d)) {
            if let (Some(m), Some(s)) = (&d.module, &d.signal) {
                d.line = index.resolve(m, s);
            }
        }
    }

    /// The report as a JSON tree (schema documented in DESIGN.md §12).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "diagnostics",
                Json::arr(self.diagnostics.iter().map(Diagnostic::to_json)),
            ),
            (
                "counts",
                Json::obj([
                    ("error", Json::num(self.count_at(Severity::Error) as f64)),
                    (
                        "warning",
                        Json::num(
                            (self.count_at(Severity::Warning) - self.count_at(Severity::Error))
                                as f64,
                        ),
                    ),
                    (
                        "info",
                        Json::num(
                            (self.diagnostics.len() - self.count_at(Severity::Warning)) as f64,
                        ),
                    ),
                ]),
            ),
            (
                "range_proofs",
                Json::arr(self.proofs.iter().map(RangeProof::to_json)),
            ),
        ])
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            writeln!(f, "analysis clean ({} range proofs)", self.proofs.len())?;
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Runs the full six-pass pipeline over one generated accelerator.
///
/// The structural pass lifts the generator's own lint of the netlist
/// (`design.lint`) instead of re-linting it. `weights` — the design's
/// weights measured in its format (`design.compiled.config.format`) —
/// enables the fixed-point range pass (pass 4); without them the pass is
/// skipped because interval bounds need the actual quantised magnitudes.
/// Source spans resolve against `design.verilog`.
///
/// # Panics
///
/// Panics if `weights` was measured in another format than the design's.
pub fn analyze(
    design: &AcceleratorDesign,
    net: &Network,
    weights: Option<&WeightNorms>,
) -> AnalysisReport {
    let _span = deepburning_trace::span("lint", "lint.analyze");
    let (compiled, rtl) = (&design.compiled, &design.design);
    let mut report = AnalysisReport::default();
    {
        let _s = deepburning_trace::span("lint", "lint.structural");
        report
            .diagnostics
            .extend(structural::from_report(&design.lint));
    }
    {
        let _s = deepburning_trace::span("lint", "lint.comb");
        report.diagnostics.extend(comb::run(rtl));
    }
    {
        let _s = deepburning_trace::span("lint", "lint.fsm");
        report.diagnostics.extend(fsm::run(rtl));
    }
    if let Some(norms) = weights {
        assert_eq!(
            norms.format(),
            compiled.config.format,
            "weights measured in another format than the design's"
        );
        let (proofs, diags) =
            range::analyze_ranges(net, norms, Some(&compiled.luts), range::DEFAULT_INPUT_BOUND);
        report.proofs = proofs;
        report.diagnostics.extend(diags);
    }
    report.diagnostics.extend(agu::run(compiled));
    report.diagnostics.extend(sched::run(compiled, Some(rtl)));
    report.resolve_spans(&design.verilog);
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only a diagnostic that names a module and signal and lacks a line
    /// is resolved; a known line and an unlocated finding stay as they
    /// are.
    #[test]
    fn resolve_spans_fills_only_missing_lines() {
        let text = "module top (\n  input wire clk\n);\nwire t;\nendmodule\n";
        let mut report = AnalysisReport {
            diagnostics: vec![
                Diagnostic::new("a/b", Severity::Info, "x")
                    .in_module("top")
                    .on_signal("t"),
                Diagnostic {
                    line: Some(99),
                    ..Diagnostic::new("a/b", Severity::Info, "y")
                        .in_module("top")
                        .on_signal("clk")
                },
                Diagnostic::new("a/b", Severity::Info, "z").in_module("top"),
            ],
            ..AnalysisReport::default()
        };
        report.resolve_spans(text);
        let lines: Vec<Option<usize>> = report.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(lines, [Some(4), Some(99), None]);
    }
}
