//! Pass 1: structural RTL lint.
//!
//! Wraps the elaboration-grade lint in `deepburning-verilog`
//! ([`deepburning_verilog::lint_design`]) and lifts each finding into the
//! analyzer's diagnostic schema under the `structural/` rule namespace,
//! attaching a suggested fix per rule. A generated design already carries
//! that lint's report, so [`from_report`] lifts it without re-linting.

use crate::{Diagnostic, Severity};
use deepburning_verilog::LintReport;

/// Suggested fix per structural rule, where a generic one makes sense.
fn suggestion(rule: &str) -> Option<&'static str> {
    match rule {
        "undriven-net" | "undriven-output" => {
            Some("drive the net with an assign or always block, or delete it")
        }
        "unused-net" => Some("delete the declaration or connect a reader"),
        "multi-driver" | "mixed-driver" => {
            Some("merge the drivers into a single assign or always block")
        }
        "width-mismatch" | "port-width-mismatch" => {
            Some("make both sides the same width, or slice/zero-extend explicitly")
        }
        "assign-to-reg" => {
            Some("declare the target as a wire, or move the assignment into an always block")
        }
        "proc-assign-to-wire" => Some("declare the target as a reg"),
        "unconnected-input" => Some("bind the port or tie it to a literal"),
        "undeclared-id" => Some("declare the signal before use"),
        _ => None,
    }
}

/// Lifts the findings of a lint report (`lint_design` over every module
/// of a design).
pub fn from_report(report: &LintReport) -> Vec<Diagnostic> {
    report
        .issues
        .iter()
        .map(|i| {
            let mut d = Diagnostic::new(
                format!("structural/{}", i.rule),
                Severity::from(i.severity),
                i.message.clone(),
            )
            .in_module(i.module.clone());
            if let Some(sig) = &i.signal {
                d = d.on_signal(sig.clone());
            }
            if let Some(fix) = suggestion(i.rule) {
                d = d.suggest(fix);
            }
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_verilog::{lint_design, Design, Expr, Item, NetDecl, Port, VModule};

    fn run(design: &Design) -> Vec<Diagnostic> {
        from_report(&lint_design(design))
    }

    /// Injected defect: a wire that is read but never driven must raise
    /// `structural/undriven-net`.
    #[test]
    fn undriven_net_fires() {
        let mut m = VModule::new("broken");
        m.port(Port::output("q", 8));
        m.item(Item::Net(NetDecl::wire("ghost", 8)));
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("ghost"),
        });
        let diags = run(&Design::new(m));
        assert!(
            diags.iter().any(|d| d.rule == "structural/undriven-net"
                && d.severity == Severity::Error
                && d.signal.as_deref() == Some("ghost")),
            "{diags:?}"
        );
    }

    /// Injected defect: assigning a 16-bit source to an 8-bit sink must
    /// raise `structural/width-mismatch` and call out the truncation.
    #[test]
    fn width_truncation_fires() {
        let mut m = VModule::new("broken");
        m.port(Port::input("a", 16));
        m.port(Port::output("q", 8));
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("a"),
        });
        let diags = run(&Design::new(m));
        let hit = diags
            .iter()
            .find(|d| d.rule == "structural/width-mismatch")
            .expect("width-mismatch fires");
        assert!(hit.message.contains("truncation"), "{}", hit.message);
        assert!(hit.suggestion.is_some());
    }

    /// Injected defect: two continuous assignments to the same wire must
    /// raise `structural/multi-driver`.
    #[test]
    fn multi_driver_fires() {
        let mut m = VModule::new("broken");
        m.port(Port::input("a", 1));
        m.port(Port::output("q", 1));
        for _ in 0..2 {
            m.item(Item::Assign {
                lhs: Expr::id("q"),
                rhs: Expr::id("a"),
            });
        }
        let diags = run(&Design::new(m));
        assert!(
            diags.iter().any(|d| d.rule == "structural/multi-driver"),
            "{diags:?}"
        );
    }
}
