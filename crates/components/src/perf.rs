//! Hardware performance counters.
//!
//! Every generated accelerator carries one `perf_counters` instance: a
//! free-running cycle counter plus event counters for datapath activity,
//! MAC operations, buffer traffic, AGU bursts and DRAM stalls, exposed
//! through a small readable register map (`sel` → `rdata`). The timing
//! simulator produces the same counter set analytically (`CounterSet` in
//! `deepburning-sim`), and the differential harness replays the compiled
//! schedule into this block to check the two views agree.

use crate::cost::{adder_luts, comparator_luts, mux_luts, ResourceCost};
use crate::Block;
use deepburning_verilog::{BinaryOp, Expr, Item, NetDecl, Port, Sensitivity, Stmt, VModule};

/// Register-map selector values, in `sel` order. Kept in sync with
/// DESIGN.md §10 and the readback order in `deepburning-sim`.
pub const PERF_REG_NAMES: [&str; 8] = [
    "cycles",
    "active_cycles",
    "stall_cycles",
    "mac_ops",
    "buffer_reads",
    "buffer_writes",
    "agu_bursts",
    "buffer_peak",
];

/// `sel` value of the free-running cycle counter.
pub const PERF_SEL_CYCLES: u64 = 0;
/// `sel` value of the neuron-array active-cycle counter.
pub const PERF_SEL_ACTIVE: u64 = 1;
/// `sel` value of the DRAM-stall cycle counter.
pub const PERF_SEL_STALL: u64 = 2;
/// `sel` value of the MAC-operation counter.
pub const PERF_SEL_MACS: u64 = 3;
/// `sel` value of the buffer-read counter.
pub const PERF_SEL_BUF_READS: u64 = 4;
/// `sel` value of the buffer-write counter.
pub const PERF_SEL_BUF_WRITES: u64 = 5;
/// `sel` value of the AGU-burst counter.
pub const PERF_SEL_BURSTS: u64 = 6;
/// `sel` value of the peak buffer-occupancy register.
pub const PERF_SEL_PEAK: u64 = 7;

/// The performance-counter block.
///
/// Eight counters behind a 3-bit register map:
///
/// | `sel` | register       | update while `en`                       |
/// |-------|----------------|-----------------------------------------|
/// | 0     | `cycles`       | +1 every clock                          |
/// | 1     | `active_cycles`| +1 when `active`                        |
/// | 2     | `stall_cycles` | +1 when `stall`                         |
/// | 3     | `mac_ops`      | +`mac_inc`                              |
/// | 4     | `buffer_reads` | +`rd_inc`                               |
/// | 5     | `buffer_writes`| +`wr_inc`                               |
/// | 6     | `agu_bursts`   | +`burst_inc`                            |
/// | 7     | `buffer_peak`  | max of `occupancy` seen so far          |
///
/// Counters hold their value while `en` is low and clear on `rst`, so a
/// host can stop the accelerator and read the map at leisure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfCounters {
    /// Counter register width (≤ 64 for simulation).
    pub width: u32,
    /// Width of the increment buses (`mac_inc`, `rd_inc`, `wr_inc`,
    /// `burst_inc`) and the `occupancy` input.
    pub inc_width: u32,
}

impl Default for PerfCounters {
    fn default() -> Self {
        // 48-bit counters never wrap within a forward pass (2^48 cycles at
        // 100 MHz ≈ 32 days); 24-bit increments cover any per-cycle event
        // count the generator can wire up.
        PerfCounters {
            width: 48,
            inc_width: 24,
        }
    }
}

impl PerfCounters {
    /// Register-select width (eight registers).
    pub fn sel_width(&self) -> u32 {
        3
    }
}

impl Block for PerfCounters {
    fn module_name(&self) -> String {
        format!("perf_counters_w{}_i{}", self.width, self.inc_width)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let iw = self.inc_width;
        let sw = self.sel_width();
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("en", 1))
            .port(Port::input("active", 1))
            .port(Port::input("stall", 1))
            .port(Port::input("mac_inc", iw))
            .port(Port::input("rd_inc", iw))
            .port(Port::input("wr_inc", iw))
            .port(Port::input("burst_inc", iw))
            .port(Port::input("occupancy", iw))
            .port(Port::input("sel", sw))
            .port(Port::output("rdata", w));

        let regs = [
            "c_cycles", "c_active", "c_stall", "c_macs", "c_rd", "c_wr", "c_burst", "c_peak",
        ];
        for r in regs {
            m.item(Item::Net(NetDecl::reg(r, w)));
        }

        let zext = |name: &str| Expr::Concat(vec![Expr::lit(w - iw, 0), Expr::id(name)]);
        let bump = |reg: &str, by: Expr| {
            Stmt::NonBlocking(Expr::id(reg), Expr::bin(BinaryOp::Add, Expr::id(reg), by))
        };
        let bump_if = |cond: &str, reg: &str| Stmt::If {
            cond: Expr::id(cond),
            then_body: vec![Stmt::NonBlocking(
                Expr::id(reg),
                Expr::bin(BinaryOp::Add, Expr::id(reg), Expr::lit(w, 1)),
            )],
            else_body: vec![],
        };

        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("rst"),
                then_body: regs
                    .iter()
                    .map(|r| Stmt::NonBlocking(Expr::id(*r), Expr::lit(w, 0)))
                    .collect(),
                else_body: vec![Stmt::If {
                    cond: Expr::id("en"),
                    then_body: vec![
                        bump("c_cycles", Expr::lit(w, 1)),
                        bump_if("active", "c_active"),
                        bump_if("stall", "c_stall"),
                        bump("c_macs", zext("mac_inc")),
                        bump("c_rd", zext("rd_inc")),
                        bump("c_wr", zext("wr_inc")),
                        bump("c_burst", zext("burst_inc")),
                        Stmt::If {
                            cond: Expr::bin(BinaryOp::Lt, Expr::id("c_peak"), zext("occupancy")),
                            then_body: vec![Stmt::NonBlocking(
                                Expr::id("c_peak"),
                                zext("occupancy"),
                            )],
                            else_body: vec![],
                        },
                    ],
                    else_body: vec![],
                }],
            }],
        });

        // Register-map readback: a select mux over the eight counters.
        let mut rdata = Expr::lit(w, 0);
        for (i, r) in regs.iter().enumerate().rev() {
            rdata = Expr::Ternary(
                Box::new(Expr::bin(
                    BinaryOp::Eq,
                    Expr::id("sel"),
                    Expr::lit(sw, i as u64),
                )),
                Box::new(Expr::id(*r)),
                Box::new(rdata),
            );
        }
        m.item(Item::Assign {
            lhs: Expr::id("rdata"),
            rhs: rdata,
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        // Eight accumulators plus the readback mux and peak comparator.
        let lut = adder_luts(self.width) * 7
            + comparator_luts(self.width)
            + mux_luts(self.width) * 8
            + comparator_luts(self.sel_width()) * 8;
        ResourceCost::logic(0, lut, self.width * 8)
    }

    fn describe(&self) -> String {
        format!(
            "perf counters: 8 x {}-bit, {}-bit increments",
            self.width, self.inc_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_verilog::{lint_design, CompiledSim, Design, Simulator};

    fn interp(pc: &PerfCounters) -> CompiledSim {
        let design = Design::new(pc.generate());
        let report = lint_design(&design);
        assert!(report.is_clean(), "{report}");
        CompiledSim::compile(&design, &pc.module_name()).expect("elaborates")
    }

    fn read_reg(it: &mut CompiledSim, sel: u64) -> u64 {
        it.poke("sel", sel).unwrap();
        it.poke("en", 0).unwrap();
        it.clock().unwrap();
        it.read("rdata").unwrap()
    }

    #[test]
    fn lints_clean_across_widths() {
        for (w, iw) in [(32u32, 8u32), (48, 24), (64, 16)] {
            let pc = PerfCounters {
                width: w,
                inc_width: iw,
            };
            let report = lint_design(&Design::new(pc.generate()));
            assert!(report.is_clean(), "w={w} iw={iw}: {report}");
        }
    }

    #[test]
    fn counts_cycles_events_and_increments() {
        let pc = PerfCounters::default();
        let mut it = interp(&pc);
        it.poke("rst", 1).unwrap();
        it.clock().unwrap();
        it.poke("rst", 0).unwrap();
        it.poke("en", 1).unwrap();
        // Beat 1: active, 5 MACs, 2 reads, 1 write, 1 burst, occupancy 7.
        for (port, v) in [
            ("active", 1),
            ("stall", 0),
            ("mac_inc", 5),
            ("rd_inc", 2),
            ("wr_inc", 1),
            ("burst_inc", 1),
            ("occupancy", 7),
        ] {
            it.poke(port, v).unwrap();
        }
        it.clock().unwrap();
        // Beat 2: stalled, occupancy falls back — peak must hold.
        for (port, v) in [
            ("active", 0),
            ("stall", 1),
            ("mac_inc", 0),
            ("rd_inc", 0),
            ("wr_inc", 3),
            ("burst_inc", 0),
            ("occupancy", 4),
        ] {
            it.poke(port, v).unwrap();
        }
        it.clock().unwrap();
        assert_eq!(read_reg(&mut it, PERF_SEL_CYCLES), 2);
        assert_eq!(read_reg(&mut it, PERF_SEL_ACTIVE), 1);
        assert_eq!(read_reg(&mut it, PERF_SEL_STALL), 1);
        assert_eq!(read_reg(&mut it, PERF_SEL_MACS), 5);
        assert_eq!(read_reg(&mut it, PERF_SEL_BUF_READS), 2);
        assert_eq!(read_reg(&mut it, PERF_SEL_BUF_WRITES), 4);
        assert_eq!(read_reg(&mut it, PERF_SEL_BURSTS), 1);
        assert_eq!(read_reg(&mut it, PERF_SEL_PEAK), 7);
    }

    #[test]
    fn counters_hold_while_disabled_and_clear_on_reset() {
        let pc = PerfCounters::default();
        let mut it = interp(&pc);
        it.poke("rst", 1).unwrap();
        it.clock().unwrap();
        it.poke("rst", 0).unwrap();
        it.poke("en", 1).unwrap();
        it.poke("mac_inc", 9).unwrap();
        it.clock().unwrap();
        // Disabled clocks must not count.
        it.poke("en", 0).unwrap();
        it.clock().unwrap();
        it.clock().unwrap();
        assert_eq!(read_reg(&mut it, PERF_SEL_CYCLES), 1);
        assert_eq!(read_reg(&mut it, PERF_SEL_MACS), 9);
        it.poke("rst", 1).unwrap();
        it.clock().unwrap();
        it.poke("rst", 0).unwrap();
        assert_eq!(read_reg(&mut it, PERF_SEL_MACS), 0);
    }

    #[test]
    fn register_names_match_map() {
        assert_eq!(PERF_REG_NAMES.len(), 8);
        assert_eq!(PERF_REG_NAMES[PERF_SEL_MACS as usize], "mac_ops");
        assert_eq!(PERF_REG_NAMES[PERF_SEL_PEAK as usize], "buffer_peak");
    }

    #[test]
    fn cost_scales_with_width() {
        let narrow = PerfCounters {
            width: 32,
            inc_width: 16,
        }
        .cost();
        let wide = PerfCounters::default().cost();
        assert!(wide.ff > narrow.ff);
        assert!(wide.lut > narrow.lut);
        assert_eq!(wide.dsp, 0);
    }
}
