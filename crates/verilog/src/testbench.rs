//! Self-checking Verilog testbench emission for exported designs.
//!
//! `deepburning generate` hands users a `.v` file; this module emits the
//! matching testbench (clock/reset generation, start pulse, done timeout)
//! so the RTL runs under any stock simulator (Icarus, Verilator, Vivado
//! xsim) without hand-written glue.

use crate::ast::{Design, PortDir};
use std::fmt::Write as _;

/// Options for [`emit_testbench`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestbenchOptions {
    /// Clock half-period in simulator time units.
    pub half_period: u32,
    /// Cycles to wait for `done` before declaring a timeout failure.
    pub timeout_cycles: u64,
}

impl Default for TestbenchOptions {
    fn default() -> Self {
        TestbenchOptions {
            half_period: 5,
            timeout_cycles: 1_000_000,
        }
    }
}

/// Emits a self-checking testbench for the design's top module.
///
/// The testbench assumes the NN-Gen port convention: `clk`/`rst` inputs, a
/// `start` pulse and a `done` flag; a `dram_ready` input is tied high (a
/// memory that accepts every DRAM transaction at once), every other input
/// is tied low and every output is left observable. Designs without a `done` output get a
/// fixed-length run instead of the completion check.
pub fn emit_testbench(design: &Design, options: &TestbenchOptions) -> String {
    let top = design.top_module();
    let mut out = String::new();
    let _ = writeln!(out, "`timescale 1ns/1ps");
    let _ = writeln!(
        out,
        "// Self-checking testbench for `{}` (generated).",
        top.name
    );
    let _ = writeln!(out, "module tb_{};", top.name);
    // Declarations.
    for p in &top.ports {
        let range = if p.width > 1 {
            format!("[{}:0] ", p.width - 1)
        } else {
            String::new()
        };
        match p.dir {
            PortDir::Input => {
                let _ = writeln!(out, "    reg {range}{};", p.name);
            }
            PortDir::Output => {
                let _ = writeln!(out, "    wire {range}{};", p.name);
            }
        }
    }
    // DUT instance.
    let _ = writeln!(out, "\n    {} dut (", top.name);
    for (i, p) in top.ports.iter().enumerate() {
        let comma = if i + 1 < top.ports.len() { "," } else { "" };
        let _ = writeln!(out, "        .{}({}){comma}", p.name, p.name);
    }
    let _ = writeln!(out, "    );");
    // Clock.
    let has = |name: &str| top.find_port(name).is_some();
    if has("clk") {
        let _ = writeln!(out, "\n    initial clk = 1'b0;");
        let _ = writeln!(out, "    always #{} clk = ~clk;", options.half_period);
    }
    // Stimulus.
    let _ = writeln!(out, "\n    integer cycles;");
    let _ = writeln!(out, "    initial begin");
    for p in &top.ports {
        if p.dir == PortDir::Input && p.name != "clk" {
            let level = u8::from(p.name == "dram_ready");
            let _ = writeln!(out, "        {} = {}'d{level};", p.name, p.width.max(1));
        }
    }
    if has("rst") {
        let _ = writeln!(out, "        rst = 1'b1;");
        let _ = writeln!(out, "        repeat (4) @(posedge clk);");
        let _ = writeln!(out, "        rst = 1'b0;");
    }
    if has("start") {
        let _ = writeln!(out, "        @(posedge clk);");
        let _ = writeln!(out, "        start = 1'b1;");
        let _ = writeln!(out, "        @(posedge clk);");
        let _ = writeln!(out, "        start = 1'b0;");
    }
    if has("done") {
        let _ = writeln!(out, "        cycles = 0;");
        let _ = writeln!(
            out,
            "        while (done !== 1'b1 && cycles < {}) begin",
            options.timeout_cycles
        );
        let _ = writeln!(out, "            @(posedge clk);");
        let _ = writeln!(out, "            cycles = cycles + 1;");
        let _ = writeln!(out, "        end");
        let _ = writeln!(out, "        if (done !== 1'b1) begin");
        let _ = writeln!(
            out,
            "            $display(\"FAIL: timeout after %0d cycles\", cycles);"
        );
        let _ = writeln!(out, "            $fatal(1);");
        let _ = writeln!(out, "        end");
        let _ = writeln!(
            out,
            "        $display(\"PASS: done after %0d cycles\", cycles);"
        );
    } else {
        let _ = writeln!(out, "        repeat (1000) @(posedge clk);");
        let _ = writeln!(out, "        $display(\"PASS: ran 1000 cycles\");");
    }
    let _ = writeln!(out, "        $finish;");
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Item, Port, VModule};

    fn accel_like() -> Design {
        let mut m = VModule::new("demo_accelerator");
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("start", 1))
            .port(Port::output("done", 1))
            .port(Port::input("dram_rdata", 32))
            .port(Port::input("dram_ready", 1))
            .port(Port::output("dram_addr", 32));
        m.item(Item::Assign {
            lhs: Expr::id("done"),
            rhs: Expr::lit(1, 1),
        });
        m.item(Item::Assign {
            lhs: Expr::id("dram_addr"),
            rhs: Expr::Concat(vec![Expr::lit(31, 0), Expr::id("start")]),
        });
        Design::new(m)
    }

    #[test]
    fn testbench_has_clock_reset_and_check() {
        let tb = emit_testbench(&accel_like(), &TestbenchOptions::default());
        assert!(tb.contains("module tb_demo_accelerator;"));
        assert!(tb.contains("always #5 clk = ~clk;"));
        assert!(tb.contains("rst = 1'b1;"));
        assert!(tb.contains("start = 1'b1;"));
        assert!(tb.contains("while (done !== 1'b1"));
        assert!(tb.contains("$fatal(1);"));
        assert!(tb.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn inputs_tied_low() {
        let tb = emit_testbench(&accel_like(), &TestbenchOptions::default());
        assert!(tb.contains("dram_rdata = 32'd0;"));
        // ... except the memory handshake, or the main AGU never advances.
        assert!(tb.contains("dram_ready = 1'd1;"));
    }

    #[test]
    fn custom_options_respected() {
        let tb = emit_testbench(
            &accel_like(),
            &TestbenchOptions {
                half_period: 2,
                timeout_cycles: 42,
            },
        );
        assert!(tb.contains("always #2 clk"));
        assert!(tb.contains("cycles < 42"));
    }

    #[test]
    fn design_without_done_runs_fixed_length() {
        let mut m = VModule::new("free_runner");
        m.port(Port::input("clk", 1)).port(Port::output("q", 4));
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::lit(4, 7),
        });
        let tb = emit_testbench(&Design::new(m), &TestbenchOptions::default());
        assert!(tb.contains("repeat (1000) @(posedge clk);"));
        assert!(!tb.contains("while (done"));
    }

    #[test]
    fn balanced_begin_end() {
        let tb = emit_testbench(&accel_like(), &TestbenchOptions::default());
        assert_eq!(
            tb.matches("begin").count(),
            tb.matches("end").count() - tb.matches("endmodule").count()
        );
    }
}
