//! Verilog AST, emitter and structural lint for the DeepBurning RTL
//! generator.
//!
//! NN-Gen assembles accelerators as structural netlists of parameterised
//! building blocks plus behavioural FSMs. This crate provides the
//! representation ([`VModule`], [`Design`]), a Verilog-2001 pretty-printer
//! ([`emit_design`]) and a structural checker ([`lint_design`]) standing in
//! for the paper's Vivado RTL verification step.
//!
//! # Examples
//!
//! ```
//! use deepburning_verilog::{Design, Expr, Item, Port, VModule, emit_design, lint_design};
//!
//! let mut m = VModule::new("invert");
//! m.port(Port::input("a", 1)).port(Port::output("y", 1));
//! m.item(Item::Assign {
//!     lhs: Expr::id("y"),
//!     rhs: Expr::Unary(deepburning_verilog::UnaryOp::Not, Box::new(Expr::id("a"))),
//! });
//! let design = Design::new(m);
//! assert!(lint_design(&design).is_clean());
//! assert!(emit_design(&design).contains("module invert"));
//! ```

mod ast;
mod compile;
mod emit;
mod flight;
#[cfg(test)]
mod interp;
mod lint;
mod simulator;
mod testbench;
mod vcd;

pub use ast::{
    BinaryOp, Design, Expr, Item, NetDecl, NetKind, Port, PortDir, Sensitivity, Stmt, UnaryOp,
    VModule,
};
pub use compile::interfere::{
    interference_check, InterferenceReport, InterferenceRule, InterferenceViolation,
};
pub use compile::{find_comb_cycle, CompiledSim};
pub use emit::{emit_design, emit_expr, emit_module};
pub use flight::{FlightRecorder, FlightWindow};
pub use lint::{lint_design, LintIssue, LintReport, Severity};
pub use simulator::{InterpStats, SignalId, SimulateError, Simulator};
pub use testbench::{emit_testbench, TestbenchOptions};
pub use vcd::VcdRecorder;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A random chain of pass-through modules must emit and lint clean.
    fn chain_design(stages: usize, width: u32) -> Design {
        let mut leaf = VModule::new("stage");
        leaf.port(Port::input("d", width))
            .port(Port::output("q", width));
        leaf.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("d"),
        });

        let mut top = VModule::new("chain");
        top.port(Port::input("din", width))
            .port(Port::output("dout", width));
        let mut prev = "din".to_string();
        for i in 0..stages {
            let net = format!("n{i}");
            top.item(Item::Net(NetDecl::wire(&net, width)));
            top.item(Item::Instance {
                module: "stage".into(),
                name: format!("u{i}"),
                params: vec![],
                connections: vec![
                    ("d".into(), Expr::id(prev.clone())),
                    ("q".into(), Expr::id(net.clone())),
                ],
            });
            prev = net;
        }
        top.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: Expr::id(prev),
        });
        let mut d = Design::new(top);
        d.add_module(leaf);
        d
    }

    proptest! {
        #[test]
        fn generated_chains_lint_clean(stages in 1usize..12, width in 1u32..64) {
            let d = chain_design(stages, width);
            let report = lint_design(&d);
            prop_assert!(report.is_clean(), "{report}");
        }

        #[test]
        fn emitted_text_is_balanced(stages in 1usize..8, width in 1u32..32) {
            let d = chain_design(stages, width);
            let text = emit_design(&d);
            prop_assert_eq!(text.matches("module ").count(), 2);
            prop_assert_eq!(text.matches("endmodule").count(), 2);
            // Balanced parens overall.
            let opens = text.matches('(').count();
            let closes = text.matches(')').count();
            prop_assert_eq!(opens, closes);
        }

        #[test]
        fn literal_emission_roundtrips(width in 1u32..32, value in 0u64..1000) {
            let text = emit_expr(&Expr::lit(width, value));
            prop_assert_eq!(text, format!("{width}'d{value}"));
        }
    }
}
