//! Pass 7: tape-order proof.
//!
//! The compiled engine settles in one forward pass over its levelized
//! tape, which reaches the fixed point only when every dependence edge
//! points forward in tape order and the fanout CSR that drives dirty
//! propagation matches the bytecode's reads. This pass runs the
//! engine's own analyzer ([`deepburning_verilog::interference_check`])
//! over the design's compiled tape and converts each broken invariant
//! into an `interfere/<rule>` diagnostic, so a broken levelization is
//! caught by `dblint --deny` before any simulation runs (DESIGN.md §17).

use crate::{Diagnostic, Severity};
use deepburning_verilog::{interference_check, Design, InterferenceReport, InterferenceRule};

/// Runs the tape-order proof over the design's compiled tape.
///
/// Returns the proof outcome (for the report's `interference` field)
/// plus one diagnostic per violated invariant. When the full top is
/// outside the compiled engine's domain (generated accelerators expose
/// DRAM buses wider than 64 bits at the top), the pass proves every
/// module subtree the engine *can* compile instead and aggregates —
/// each is the tape the engine settles when that module is elaborated
/// on its own.
/// Designs with no compilable subtree yield no finding here; the
/// structural and comb-loop passes already own outright compiler
/// rejections.
pub fn run(design: &Design) -> (Option<InterferenceReport>, Vec<Diagnostic>) {
    if let Ok(report) = interference_check(design, &design.top) {
        let diags = diagnostics(&design.top, &report);
        return (Some(report), diags);
    }
    let mut agg = InterferenceReport::default();
    let mut diags = Vec::new();
    let mut proved = false;
    for module in &design.modules {
        if let Ok(report) = interference_check(design, &module.name) {
            proved = true;
            agg.instrs += report.instrs;
            agg.edges_checked += report.edges_checked;
            diags.extend(diagnostics(&module.name, &report));
            agg.violations.extend(report.violations);
        }
    }
    if proved {
        (Some(agg), diags)
    } else {
        (None, Vec::new())
    }
}

/// Converts a proof report's violations into `interfere/<rule>`
/// diagnostics. Split out from [`run`] so injected-defect tests can
/// exercise the conversion on hand-built reports (a valid design never
/// produces a violation — that is the point of the proof).
pub fn diagnostics(top: &str, report: &InterferenceReport) -> Vec<Diagnostic> {
    report
        .violations
        .iter()
        .map(|v| {
            let suggestion = match v.rule {
                InterferenceRule::TapeOrder => {
                    "the levelization invariant is broken upstream; re-run Kahn \
                     levelization over the dependence graph"
                }
                InterferenceRule::FanoutDrift => {
                    "rebuild the fanout CSR from the bytecode read sets; the engine's \
                     dirty propagation disagrees with the tape"
                }
            };
            Diagnostic::new(
                format!("interfere/{}", v.rule.tag()),
                Severity::Error,
                format!("tape[{}] vs tape[{}]: {}", v.a, v.b, v.message),
            )
            .in_module(top)
            .on_signal(v.subject.clone())
            .suggest(suggestion)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_verilog::{BinaryOp, Design, Expr, InterferenceViolation, Item, Port, VModule};

    fn adder_design() -> Design {
        let mut m = VModule::new("add");
        m.port(Port::input("a", 8))
            .port(Port::input("b", 8))
            .port(Port::output("s", 8));
        m.item(Item::Assign {
            lhs: Expr::id("s"),
            rhs: Expr::bin(BinaryOp::Add, Expr::id("a"), Expr::id("b")),
        });
        Design::new(m)
    }

    /// A valid design compiles to a proven tape: the pass
    /// records the proof and emits nothing.
    #[test]
    fn valid_design_is_proven_with_no_findings() {
        let (proof, diags) = run(&adder_design());
        let proof = proof.expect("compiles, so the proof ran");
        assert!(proof.is_proven(), "{proof}");
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// A top outside the compiled engine's domain (a >64-bit bus, as on
    /// every generated accelerator's DRAM interface) falls back to
    /// proving the compilable module subtrees.
    #[test]
    fn wide_top_falls_back_to_module_subtrees() {
        let mut top = VModule::new("wide");
        top.port(Port::input("bus", 256))
            .port(Port::output("q", 256));
        top.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("bus"),
        });
        let mut design = Design::new(top);
        design.add_module({
            let mut m = VModule::new("add");
            m.port(Port::input("a", 8))
                .port(Port::input("b", 8))
                .port(Port::output("s", 8));
            m.item(Item::Assign {
                lhs: Expr::id("s"),
                rhs: Expr::bin(BinaryOp::Add, Expr::id("a"), Expr::id("b")),
            });
            m
        });
        let (proof, diags) = run(&design);
        let proof = proof.expect("the leaf module subtree is provable");
        assert!(proof.is_proven(), "{proof}");
        assert!(proof.instrs > 0, "the proof must cover the leaf tape");
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// Injected defect: a violated obligation becomes an actionable
    /// `interfere/<rule>` error naming the contested signal.
    #[test]
    fn violation_becomes_error_diagnostic() {
        let report = InterferenceReport {
            instrs: 3,
            edges_checked: 2,
            violations: vec![InterferenceViolation {
                rule: InterferenceRule::TapeOrder,
                a: 1,
                b: 0,
                subject: "x".into(),
                message: "points backwards in tape order".into(),
            }],
        };
        let diags = diagnostics("pair", &report);
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.rule, "interfere/tape-order");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.module.as_deref(), Some("pair"));
        assert_eq!(d.signal.as_deref(), Some("x"));
        assert!(d.message.contains("tape[1] vs tape[0]"), "{}", d.message);
        assert!(d.suggestion.is_some(), "must propose a fix");
    }

    /// Every rule maps to a distinct stable id and carries a suggestion.
    #[test]
    fn every_rule_has_stable_id_and_suggestion() {
        let rules = [InterferenceRule::TapeOrder, InterferenceRule::FanoutDrift];
        let mut ids = std::collections::BTreeSet::new();
        for rule in rules {
            let report = InterferenceReport {
                violations: vec![InterferenceViolation {
                    rule,
                    a: 0,
                    b: 0,
                    subject: "s".into(),
                    message: "m".into(),
                }],
                ..InterferenceReport::default()
            };
            let diags = diagnostics("top", &report);
            assert_eq!(diags.len(), 1);
            assert!(diags[0].rule.starts_with("interfere/"), "{}", diags[0].rule);
            assert!(diags[0].suggestion.is_some());
            ids.insert(diags[0].rule.clone());
        }
        assert_eq!(ids.len(), rules.len(), "rule ids must be distinct");
    }
}
