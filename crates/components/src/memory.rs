//! Storage-centric building blocks: on-chip buffers, the Approx LUT, the
//! connection box crossbar and the LRN unit built on top of them.

use crate::cost::{adder_luts, comparator_luts, dsps_per_multiplier, mux_luts, ResourceCost};
use crate::datapath::{saturate_expr, sign_extend_expr};
use crate::Block;
use deepburning_fixed::{Accumulator, ApproxLut, Fx, QFormat, Rounding};
use deepburning_verilog::{
    BinaryOp, Expr, Item, NetDecl, Port, Sensitivity, Stmt, UnaryOp, VModule,
};

fn mem_read(mem: &str, index: Expr) -> Expr {
    Expr::Index(Box::new(Expr::id(mem)), Box::new(index))
}

/// Simple dual-port on-chip buffer (one write, one read port) backed by
/// block RAM. Feature and weight buffers are instances of this block with
/// widths chosen by the data-layout engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferBlock {
    /// Word width in bits (the "memory port width" of Method-1).
    pub width: u32,
    /// Number of words.
    pub depth: usize,
}

impl BufferBlock {
    /// Address width needed for `depth` words.
    pub fn addr_width(&self) -> u32 {
        usize::BITS - (self.depth.max(2) - 1).leading_zeros()
    }

    /// Capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.width as u64 * self.depth as u64
    }
}

impl Block for BufferBlock {
    fn module_name(&self) -> String {
        format!("buffer_w{}_d{}", self.width, self.depth)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let aw = self.addr_width();
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("we", 1))
            .port(Port::input("waddr", aw))
            .port(Port::input("wdata", w))
            .port(Port::input("raddr", aw))
            .port(Port::output("rdata", w));
        m.item(Item::Net(NetDecl::memory("mem", w, self.depth)));
        m.item(Item::Net(NetDecl::reg("rdata_r", w)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![
                Stmt::If {
                    cond: Expr::id("we"),
                    then_body: vec![Stmt::NonBlocking(
                        Expr::Index(Box::new(Expr::id("mem")), Box::new(Expr::id("waddr"))),
                        Expr::id("wdata"),
                    )],
                    else_body: vec![],
                },
                Stmt::NonBlocking(
                    Expr::id("rdata_r"),
                    Expr::Index(Box::new(Expr::id("mem")), Box::new(Expr::id("raddr"))),
                ),
            ],
        });
        m.item(Item::Assign {
            lhs: Expr::id("rdata"),
            rhs: Expr::id("rdata_r"),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        ResourceCost {
            dsp: 0,
            lut: 8, // address decode glue
            ff: self.width,
            bram_bits: self.capacity_bits(),
        }
    }

    fn describe(&self) -> String {
        format!("on-chip buffer: {} x {} bits", self.depth, self.width)
    }
}

/// The Approx LUT block: key/value ROMs, a comparator chain that locates
/// the surrounding segment, and a linear interpolator — serving activation
/// functions and other "complex functions that cannot be efficiently mapped
/// into logical gates".
///
/// The ROM *content* comes from the compiler (an [`ApproxLut`] image); the
/// generated datapath reproduces [`ApproxLut::eval`] bit-for-bit: clamp at
/// the range ends, exact read-out on a key hit, and
/// `v0 + (v1 - v0) * (x - k0) / (k1 - k0)` in raw integers in between.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxLutBlock {
    /// Datapath word width.
    pub width: u32,
    /// Allocated ROM depth (entries rounded up to a power of two).
    pub entries: usize,
    /// The sampled function image filled in by the compiler.
    pub image: ApproxLut,
}

impl ApproxLutBlock {
    /// Builds the block around a compiler-produced table.
    pub fn new(width: u32, image: ApproxLut) -> Self {
        let entries = image.entries().next_power_of_two();
        ApproxLutBlock {
            width,
            entries,
            image,
        }
    }

    /// Behavioural model: evaluate through the stored image.
    pub fn simulate(&self, x: Fx) -> Fx {
        self.image.eval(x)
    }

    /// Interpolator width: the slope-by-distance product carries up to
    /// `2 * width + 1` significant bits, capped at the simulator's 64-bit
    /// signal limit.
    pub fn acc_width(&self) -> u32 {
        (2 * self.width + 2).min(64)
    }

    /// The key and value ROM images as raw bus words (masked to the
    /// datapath width, padded to the allocated depth), ready for the
    /// simulator's `load_memory` backdoor — this is the "ROM content
    /// written by the compiler".
    pub fn rom_words(&self) -> (Vec<u64>, Vec<u64>) {
        let mask = if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        let pad = |v: &[Fx]| -> Vec<u64> {
            let mut words: Vec<u64> = v.iter().map(|x| x.raw() as u64 & mask).collect();
            let last = *words.last().expect("non-empty LUT image");
            words.resize(self.entries, last);
            words
        };
        (pad(self.image.keys()), pad(self.image.values()))
    }
}

impl Block for ApproxLutBlock {
    fn module_name(&self) -> String {
        format!("approx_lut_w{}_e{}", self.width, self.entries)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let n = self.image.entries();
        let aw = self.acc_width();
        let idx_bits = (self.entries.max(2) - 1).ilog2() + 1;
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("din", w))
            .port(Port::output("dout", w));
        m.item(Item::Comment(
            "key/value ROM content is written by the NN-Gen compiler".into(),
        ));
        m.item(Item::Net(NetDecl::memory("key_rom", w, self.entries)));
        m.item(Item::Net(NetDecl::memory("val_rom", w, self.entries)));
        if n == 1 {
            m.item(Item::Assign {
                lhs: Expr::id("dout"),
                rhs: mem_read("val_rom", Expr::lit(idx_bits, 0)),
            });
            return m;
        }
        // Locate the segment: count the interior keys at or below the input
        // (signed). The chain is the linearised form of the comparator tree.
        let mut cnt = Expr::lit(idx_bits, 0);
        for i in 1..n.saturating_sub(1) {
            let ge = format!("ge{i}");
            m.item(Item::Net(NetDecl::wire(&ge, 1)));
            m.item(Item::Assign {
                lhs: Expr::id(&ge),
                rhs: Expr::Unary(
                    UnaryOp::Not,
                    Box::new(Expr::bin(
                        BinaryOp::Slt,
                        Expr::id("din"),
                        mem_read("key_rom", Expr::lit(idx_bits, i as u64)),
                    )),
                ),
            });
            let wide = if idx_bits > 1 {
                Expr::Concat(vec![Expr::lit(idx_bits - 1, 0), Expr::id(&ge)])
            } else {
                Expr::id(&ge)
            };
            cnt = Expr::bin(BinaryOp::Add, cnt, wide);
        }
        m.item(Item::Net(NetDecl::wire("seg", idx_bits)));
        m.item(Item::Assign {
            lhs: Expr::id("seg"),
            rhs: cnt,
        });
        // Segment endpoints.
        for (name, mem, off) in [
            ("k_lo", "key_rom", 0u64),
            ("k_hi", "key_rom", 1),
            ("v_lo", "val_rom", 0),
            ("v_hi", "val_rom", 1),
        ] {
            m.item(Item::Net(NetDecl::wire(name, w)));
            let index = if off == 0 {
                Expr::id("seg")
            } else {
                Expr::bin(BinaryOp::Add, Expr::id("seg"), Expr::lit(idx_bits, off))
            };
            m.item(Item::Assign {
                lhs: Expr::id(name),
                rhs: mem_read(mem, index),
            });
        }
        // Wide raw interpolation: v0 + (v1 - v0) * (x - k0) / (k1 - k0),
        // truncating toward zero exactly like the behavioural model.
        for (name, hi, lo) in [
            ("dx", "din", "k_lo"),
            ("span", "k_hi", "k_lo"),
            ("dv", "v_hi", "v_lo"),
        ] {
            m.item(Item::Net(NetDecl::wire(name, aw)));
            m.item(Item::Assign {
                lhs: Expr::id(name),
                rhs: Expr::bin(
                    BinaryOp::Sub,
                    sign_extend_expr(hi, w, aw),
                    sign_extend_expr(lo, w, aw),
                ),
            });
        }
        m.item(Item::Net(NetDecl::wire("interp", aw)));
        m.item(Item::Assign {
            lhs: Expr::id("interp"),
            rhs: Expr::bin(
                BinaryOp::Add,
                sign_extend_expr("v_lo", w, aw),
                Expr::bin(
                    BinaryOp::Div,
                    Expr::bin(BinaryOp::Mul, Expr::id("dv"), Expr::id("dx")),
                    Expr::id("span"),
                ),
            ),
        });
        // Clamp at the range ends; interior hits fall out of interpolation
        // with dx = 0.
        m.item(Item::Net(NetDecl::wire("below", 1)));
        m.item(Item::Assign {
            lhs: Expr::id("below"),
            rhs: Expr::Unary(
                UnaryOp::Not,
                Box::new(Expr::bin(
                    BinaryOp::Slt,
                    mem_read("key_rom", Expr::lit(idx_bits, 0)),
                    Expr::id("din"),
                )),
            ),
        });
        m.item(Item::Net(NetDecl::wire("above", 1)));
        m.item(Item::Assign {
            lhs: Expr::id("above"),
            rhs: Expr::Unary(
                UnaryOp::Not,
                Box::new(Expr::bin(
                    BinaryOp::Slt,
                    Expr::id("din"),
                    mem_read("key_rom", Expr::lit(idx_bits, (n - 1) as u64)),
                )),
            ),
        });
        m.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: Expr::Ternary(
                Box::new(Expr::id("below")),
                Box::new(mem_read("val_rom", Expr::lit(idx_bits, 0))),
                Box::new(Expr::Ternary(
                    Box::new(Expr::id("above")),
                    Box::new(mem_read("val_rom", Expr::lit(idx_bits, (n - 1) as u64))),
                    Box::new(Expr::Slice(Box::new(Expr::id("interp")), w - 1, 0)),
                )),
            ),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        // Comparator tree of binary-search depth plus the interpolating
        // multiply/divide datapath.
        let depth = (self.entries.max(2) - 1).ilog2() + 1;
        ResourceCost {
            dsp: dsps_per_multiplier(self.width) * 2,
            lut: comparator_luts(self.width) * depth
                + adder_luts(self.width) * 3
                + mux_luts(self.width) * 2,
            ff: self.width,
            bram_bits: 2 * self.width as u64 * self.entries as u64,
        }
    }

    fn describe(&self) -> String {
        format!(
            "approx LUT: {} entries x {} bits (+slope), interpolating",
            self.entries, self.width
        )
    }
}

/// The connection box: a registered crossbar exchanging intermediate
/// values between producer and consumer blocks, plus the shifting latch
/// used for approximate division (average pooling, normalisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionBox {
    /// Word width in bits.
    pub width: u32,
    /// Crossbar input port count.
    pub inputs: u32,
    /// Crossbar output port count.
    pub outputs: u32,
}

impl ConnectionBox {
    /// Width of one output's select field.
    pub fn select_width(&self) -> u32 {
        32 - (self.inputs.max(2) - 1).leading_zeros()
    }

    /// Behavioural model: route + shift.
    ///
    /// # Panics
    ///
    /// Panics if `select` is out of range.
    pub fn simulate(&self, inputs: &[Fx], select: usize, shift: u32) -> Fx {
        assert!(select < inputs.len(), "crossbar select out of range");
        inputs[select].shift_right(shift)
    }
}

impl Block for ConnectionBox {
    fn module_name(&self) -> String {
        format!(
            "connection_box_w{}_i{}_o{}",
            self.width, self.inputs, self.outputs
        )
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let sw = self.select_width();
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("din", w * self.inputs))
            .port(Port::input("sel", sw * self.outputs))
            .port(Port::input("shift", 4 * self.outputs))
            .port(Port::output("dout", w * self.outputs));
        for o in 0..self.outputs {
            let sel = Expr::Slice(Box::new(Expr::id("sel")), (o + 1) * sw - 1, o * sw);
            let shift = Expr::Slice(Box::new(Expr::id("shift")), (o + 1) * 4 - 1, o * 4);
            // Mux chain over inputs.
            let mut val = Expr::Slice(Box::new(Expr::id("din")), w - 1, 0);
            for i in 1..self.inputs {
                val = Expr::Ternary(
                    Box::new(Expr::bin(
                        BinaryOp::Eq,
                        sel.clone(),
                        Expr::lit(sw, i as u64),
                    )),
                    Box::new(Expr::Slice(
                        Box::new(Expr::id("din")),
                        (i + 1) * w - 1,
                        i * w,
                    )),
                    Box::new(val),
                );
            }
            let routed = format!("routed{o}");
            m.item(Item::Net(NetDecl::wire(&routed, w)));
            m.item(Item::Assign {
                lhs: Expr::id(&routed),
                rhs: val,
            });
            let latched = format!("latched{o}");
            m.item(Item::Net(NetDecl::reg(&latched, w)));
            // Shifting latch: register the routed value shifted right.
            m.item(Item::Always {
                sensitivity: Sensitivity::PosEdge("clk".into()),
                body: vec![Stmt::NonBlocking(
                    Expr::id(&latched),
                    Expr::bin(
                        BinaryOp::Shr,
                        Expr::id(&routed),
                        Expr::Concat(vec![Expr::lit(w - 4, 0), shift]),
                    ),
                )],
            });
            m.item(Item::Assign {
                lhs: Expr::Slice(Box::new(Expr::id("dout")), (o + 1) * w - 1, o * w),
                rhs: Expr::id(&latched),
            });
        }
        m
    }

    fn cost(&self) -> ResourceCost {
        let mux = mux_luts(self.width) * (self.inputs - 1).max(1);
        let shifter = adder_luts(self.width); // barrel shifter approximation
        ResourceCost::logic(0, (mux + shifter) * self.outputs, self.width * self.outputs)
    }

    fn describe(&self) -> String {
        format!(
            "connection box: {}x{} crossbar, {} bits, shifting latch",
            self.inputs, self.outputs, self.width
        )
    }
}

/// LRN unit: squares and accumulates a channel neighbourhood, looks up the
/// normalisation factor `(1 + α/n · s)^{-β}` in an Approx LUT and scales
/// the centre value.
#[derive(Debug, Clone, PartialEq)]
pub struct LrnUnit {
    /// Word width in bits.
    pub width: u32,
    /// Channels in the normalisation window.
    pub local_size: usize,
    /// The normalisation-factor table (filled by the compiler).
    pub factor_lut: ApproxLut,
}

impl LrnUnit {
    /// Builds the unit with a compiler-sampled factor table.
    pub fn new(width: u32, local_size: usize, alpha: f64, beta: f64, fmt: QFormat) -> Self {
        let factor_lut = ApproxLut::sample(
            |s| (1.0 + alpha / local_size as f64 * s).powf(-beta),
            0.0,
            fmt.max_value(),
            64,
            fmt,
            deepburning_fixed::Sampling::Uniform,
        )
        .expect("LRN factor table over a non-empty range");
        LrnUnit {
            width,
            local_size,
            factor_lut,
        }
    }

    /// Behavioural model: normalise `centre` against its `window`.
    pub fn simulate(&self, centre: Fx, window: &[Fx], fmt: QFormat) -> Fx {
        let mut acc = Accumulator::new(fmt);
        for v in window {
            acc.mac(*v, *v);
        }
        let s = acc.resolve(Rounding::Truncate);
        let factor = self.factor_lut.eval(s);
        centre * factor
    }
}

impl Block for LrnUnit {
    fn module_name(&self) -> String {
        format!("lrn_w{}_n{}", self.width, self.local_size)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let aw = (2 * w + 16).min(64);
        let frac = self.factor_lut.format().frac_bits();
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("en", 1))
            .port(Port::input("din", w))
            .port(Port::input("centre", w))
            .port(Port::output("dout", w));
        // Square-and-accumulate the window stream: raw products carry 2F
        // fraction bits; alignment and saturation happen at readout, exactly
        // like the behavioural `Accumulator`.
        m.item(Item::Net(NetDecl::wire("sq", aw)));
        m.item(Item::Assign {
            lhs: Expr::id("sq"),
            rhs: Expr::bin(
                BinaryOp::Mul,
                sign_extend_expr("din", w, aw),
                sign_extend_expr("din", w, aw),
            ),
        });
        m.item(Item::Net(NetDecl::reg("energy_acc", aw)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("rst"),
                then_body: vec![Stmt::NonBlocking(Expr::id("energy_acc"), Expr::lit(aw, 0))],
                else_body: vec![Stmt::If {
                    cond: Expr::id("en"),
                    then_body: vec![Stmt::NonBlocking(
                        Expr::id("energy_acc"),
                        Expr::bin(BinaryOp::Add, Expr::id("energy_acc"), Expr::id("sq")),
                    )],
                    else_body: vec![],
                }],
            }],
        });
        m.item(Item::Net(NetDecl::wire("energy_shifted", aw)));
        m.item(Item::Assign {
            lhs: Expr::id("energy_shifted"),
            rhs: Expr::bin(
                BinaryOp::Shr,
                Expr::id("energy_acc"),
                Expr::lit(32, u64::from(frac)),
            ),
        });
        m.item(Item::Net(NetDecl::wire("energy", w)));
        m.item(Item::Assign {
            lhs: Expr::id("energy"),
            rhs: saturate_expr("energy_shifted", aw, w),
        });
        // Normalisation factor from the embedded Approx LUT instance.
        m.item(Item::Net(NetDecl::wire("factor", w)));
        let lut = ApproxLutBlock::new(w, self.factor_lut.clone());
        m.item(Item::Instance {
            module: lut.module_name(),
            name: "u_factor_lut".into(),
            params: vec![],
            connections: vec![
                ("clk".into(), Expr::id("clk")),
                ("din".into(), Expr::id("energy")),
                ("dout".into(), Expr::id("factor")),
            ],
        });
        // Scale the centre value: a fixed-point multiply with saturation,
        // mirroring `Fx::mul`.
        m.item(Item::Net(NetDecl::wire("scaled", aw)));
        m.item(Item::Assign {
            lhs: Expr::id("scaled"),
            rhs: Expr::bin(
                BinaryOp::Shr,
                Expr::bin(
                    BinaryOp::Mul,
                    sign_extend_expr("centre", w, aw),
                    sign_extend_expr("factor", w, aw),
                ),
                Expr::lit(32, u64::from(frac)),
            ),
        });
        m.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: saturate_expr("scaled", aw, w),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        let lut_block = ApproxLutBlock::new(self.width, self.factor_lut.clone());
        ResourceCost::logic(
            dsps_per_multiplier(self.width) * 2,
            adder_luts(self.width),
            self.width,
        ) + lut_block.cost()
    }

    fn describe(&self) -> String {
        format!("LRN unit: window {}, {} bits", self.local_size, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_fixed::Sampling;
    use deepburning_verilog::{lint_design, Design};

    const F: QFormat = QFormat::Q8_8;

    fn sigmoid_lut() -> ApproxLut {
        ApproxLut::sample(
            |x| 1.0 / (1.0 + (-x).exp()),
            -8.0,
            8.0,
            64,
            F,
            Sampling::Uniform,
        )
        .expect("valid lut")
    }

    #[test]
    fn buffer_rtl_lints_clean() {
        let b = BufferBlock {
            width: 64,
            depth: 512,
        };
        assert!(lint_design(&Design::new(b.generate())).is_clean());
        assert_eq!(b.addr_width(), 9);
        assert_eq!(b.capacity_bits(), 64 * 512);
    }

    #[test]
    fn buffer_cost_counts_bram() {
        let b = BufferBlock {
            width: 32,
            depth: 1024,
        };
        assert_eq!(b.cost().bram_bits, 32 * 1024);
        assert_eq!(b.cost().dsp, 0);
    }

    #[test]
    fn approx_lut_block_lints_clean() {
        let b = ApproxLutBlock::new(16, sigmoid_lut());
        let report = lint_design(&Design::new(b.generate()));
        assert!(report.is_clean(), "{report}");
        assert_eq!(b.entries, 64);
    }

    #[test]
    fn approx_lut_block_simulates_through_image() {
        let b = ApproxLutBlock::new(16, sigmoid_lut());
        let y = b.simulate(Fx::from_f64(0.0, F));
        assert!((y.to_f64() - 0.5).abs() < 0.01);
    }

    #[test]
    fn approx_lut_rtl_is_bit_exact_with_eval() {
        use deepburning_verilog::{CompiledSim, Simulator};
        for sampling in [Sampling::Uniform, Sampling::ErrorEqualizing] {
            let image =
                ApproxLut::sample(|x| x.tanh(), -4.0, 4.0, 32, F, sampling).expect("valid lut");
            let b = ApproxLutBlock::new(16, image);
            let mut sim =
                CompiledSim::compile(&Design::new(b.generate()), &b.module_name()).expect("elab");
            let (keys, vals) = b.rom_words();
            sim.load_memory("key_rom", &keys).unwrap();
            sim.load_memory("val_rom", &vals).unwrap();
            // Probe every key, every midpoint, the rails, and a dense sweep.
            let mut probes: Vec<i64> = b.image.keys().iter().map(|k| k.raw()).collect();
            let mids: Vec<i64> = probes.windows(2).map(|p| (p[0] + p[1]) / 2).collect();
            probes.extend(mids);
            probes.extend([F.min_raw(), F.max_raw(), 0, 1, -1]);
            probes.extend((-1200..1200).step_by(7).map(|r| r * 23));
            for raw in probes {
                let raw = raw.clamp(F.min_raw(), F.max_raw());
                let x = Fx::from_raw(raw, F);
                sim.poke("din", raw as u64 & 0xFFFF).unwrap();
                let got = sim.read("dout").unwrap();
                let want = b.simulate(x).raw() as u64 & 0xFFFF;
                assert_eq!(
                    got, want,
                    "{sampling:?} lut({raw}): RTL {got:#06x} vs eval {want:#06x}"
                );
            }
        }
    }

    #[test]
    fn connection_box_lints_clean() {
        let c = ConnectionBox {
            width: 16,
            inputs: 4,
            outputs: 2,
        };
        let report = lint_design(&Design::new(c.generate()));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn connection_box_routes_and_shifts() {
        let c = ConnectionBox {
            width: 16,
            inputs: 4,
            outputs: 1,
        };
        let ins: Vec<Fx> = [1.0, 8.0, 3.0, 4.0]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        assert_eq!(c.simulate(&ins, 1, 0).to_f64(), 8.0);
        // Shifting latch: divide by 4.
        assert_eq!(c.simulate(&ins, 1, 2).to_f64(), 2.0);
    }

    #[test]
    fn lrn_unit_lints_clean_with_embedded_lut() {
        let u = LrnUnit::new(16, 5, 1e-4, 0.75, F);
        let lut_block = ApproxLutBlock::new(16, u.factor_lut.clone());
        let mut d = Design::new(u.generate());
        d.add_module(lut_block.generate());
        let report = lint_design(&d);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn lrn_suppression_direction() {
        let u = LrnUnit::new(16, 3, 1.0, 0.75, F);
        let quiet: Vec<Fx> = [0.0, 1.0, 0.0]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        let loud: Vec<Fx> = [5.0, 1.0, 5.0]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        let centre = Fx::from_f64(1.0, F);
        let yq = u.simulate(centre, &quiet, F).to_f64();
        let yl = u.simulate(centre, &loud, F).to_f64();
        assert!(yl < yq, "loud {yl} should be below quiet {yq}");
    }

    #[test]
    fn lrn_rtl_matches_behavioural_model() {
        use deepburning_verilog::{CompiledSim, Simulator};
        let u = LrnUnit::new(16, 3, 1.0, 0.75, F);
        let lut_block = ApproxLutBlock::new(16, u.factor_lut.clone());
        let mut d = Design::new(u.generate());
        d.add_module(lut_block.generate());
        let mut sim = CompiledSim::compile(&d, &u.module_name()).expect("elab");
        let (keys, vals) = lut_block.rom_words();
        sim.load_memory("u_factor_lut.key_rom", &keys).unwrap();
        sim.load_memory("u_factor_lut.val_rom", &vals).unwrap();
        let window = [2.5, -1.0, 0.75];
        let centre = Fx::from_f64(-1.0, F);
        sim.poke("rst", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("rst", 0).unwrap();
        sim.poke("en", 1).unwrap();
        for v in window {
            sim.poke("din", Fx::from_f64(v, F).raw() as u64 & 0xFFFF)
                .unwrap();
            sim.clock().unwrap();
        }
        sim.poke("en", 0).unwrap();
        sim.poke("centre", centre.raw() as u64 & 0xFFFF).unwrap();
        let got = sim.read("dout").unwrap();
        let fx: Vec<Fx> = window.iter().map(|&v| Fx::from_f64(v, F)).collect();
        let want = u.simulate(centre, &fx, F).raw() as u64 & 0xFFFF;
        assert_eq!(got, want, "LRN RTL {got:#06x} vs model {want:#06x}");
    }

    #[test]
    fn costs_accumulate_sensibly() {
        let total = BufferBlock {
            width: 64,
            depth: 256,
        }
        .cost()
            + ApproxLutBlock::new(16, sigmoid_lut()).cost();
        assert!(total.bram_bits > 64 * 256);
        assert!(total.dsp >= 1);
    }
}
