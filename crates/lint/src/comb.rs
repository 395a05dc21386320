//! Pass 2: combinational-loop diagnosis.
//!
//! The levelizing compiler refuses designs whose continuous assignments
//! form a cycle, but its error names only one stuck signal. This pass
//! finds the *actual* cycle path through the flattened assign graph (via
//! [`deepburning_verilog::find_comb_cycle`]) and reports it end to end,
//! so the generator bug can be read straight out of the diagnostic.

use crate::{Diagnostic, Severity};
use deepburning_verilog::{find_comb_cycle, Design};

/// Reports the first combinational cycle in the design, if any.
///
/// Flattening ignores signal widths, so generated tops with DRAM buses
/// wider than the engine's 64 bits are checked whole. Elaboration
/// failures (unknown modules, bad ports) yield no finding here — the
/// structural pass already rejects those designs.
pub fn run(design: &Design) -> Vec<Diagnostic> {
    match find_comb_cycle(design, &design.top) {
        Ok(Some(cycle)) => {
            let path = cycle.join(" -> ");
            let first = cycle.first().cloned().unwrap_or_default();
            vec![Diagnostic::new(
                "comb/loop",
                Severity::Error,
                format!("combinational cycle: {path}"),
            )
            .in_module(design.top.clone())
            .on_signal(first)
            .suggest("break the cycle with a register or restructure the assigns")]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_verilog::{BinaryOp, Design, Expr, Item, NetDecl, Port, VModule};

    /// Injected defect: `a = b & en; b = a` must raise `comb/loop` with
    /// the full cycle path in the message.
    #[test]
    fn comb_loop_fires_with_cycle_path() {
        let mut m = VModule::new("loopy");
        m.port(Port::input("en", 1));
        m.port(Port::output("q", 1));
        m.item(Item::Net(NetDecl::wire("a", 1)));
        m.item(Item::Net(NetDecl::wire("b", 1)));
        m.item(Item::Assign {
            lhs: Expr::id("a"),
            rhs: Expr::bin(BinaryOp::And, Expr::id("b"), Expr::id("en")),
        });
        m.item(Item::Assign {
            lhs: Expr::id("b"),
            rhs: Expr::id("a"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("a"),
        });
        let diags = run(&Design::new(m));
        let hit = diags.iter().find(|d| d.rule == "comb/loop").expect("fires");
        assert_eq!(hit.severity, Severity::Error);
        assert!(
            hit.message.contains("a -> b -> a") || hit.message.contains("b -> a -> b"),
            "cycle path missing: {}",
            hit.message
        );
    }

    /// A clean pipeline of assigns must produce no finding.
    #[test]
    fn acyclic_design_is_clean() {
        let mut m = VModule::new("ok");
        m.port(Port::input("a", 1));
        m.port(Port::output("q", 1));
        m.item(Item::Net(NetDecl::wire("t", 1)));
        m.item(Item::Assign {
            lhs: Expr::id("t"),
            rhs: Expr::id("a"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("t"),
        });
        assert!(run(&Design::new(m)).is_empty());
    }
}
