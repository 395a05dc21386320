//! Arithmetic building blocks: synergy neurons, accumulators, pooling,
//! activation, drop-out and the K-sorter classifier (paper Fig. 5).

use crate::cost::{adder_luts, comparator_luts, dsps_per_multiplier, mux_luts, ResourceCost};
use crate::Block;
use deepburning_fixed::{Accumulator, Fx, QFormat, Rounding};
use deepburning_model::PoolMethod;
use deepburning_verilog::{
    BinaryOp, Expr, Item, NetDecl, Port, Sensitivity, Stmt, UnaryOp, VModule,
};

fn slice(bus: &str, lane: u32, width: u32) -> Expr {
    Expr::Slice(
        Box::new(Expr::id(bus)),
        (lane + 1) * width - 1,
        lane * width,
    )
}

/// Sign-extends the `from`-bit signal `name` to `to` bits.
pub(crate) fn sign_extend_expr(name: &str, from: u32, to: u32) -> Expr {
    if to <= from {
        return Expr::id(name);
    }
    let ext = to - from;
    let ones = if ext >= 64 {
        u64::MAX
    } else {
        (1u64 << ext) - 1
    };
    let sign = Expr::Slice(Box::new(Expr::id(name)), from - 1, from - 1);
    Expr::Ternary(
        Box::new(sign),
        Box::new(Expr::Concat(vec![Expr::lit(ext, ones), Expr::id(name)])),
        Box::new(Expr::Concat(vec![Expr::lit(ext, 0), Expr::id(name)])),
    )
}

/// Saturates the `wide`-bit two's-complement signal `src` down to `narrow`
/// bits: the value passes through when the discarded high bits all equal the
/// narrow sign bit, and clamps to the most positive / most negative
/// `narrow`-bit pattern otherwise. This mirrors `QFormat::saturate` exactly.
pub(crate) fn saturate_expr(src: &str, wide: u32, narrow: u32) -> Expr {
    if wide <= narrow {
        return Expr::id(src);
    }
    let top = Expr::Slice(Box::new(Expr::id(src)), wide - 1, narrow - 1);
    let in_range = Expr::bin(
        BinaryOp::Or,
        Expr::Unary(UnaryOp::RedAnd, Box::new(top.clone())),
        Expr::Unary(
            UnaryOp::Not,
            Box::new(Expr::Unary(UnaryOp::RedOr, Box::new(top))),
        ),
    );
    let sign = Expr::Slice(Box::new(Expr::id(src)), wide - 1, wide - 1);
    let min_pattern = 1u64 << (narrow - 1);
    Expr::Ternary(
        Box::new(in_range),
        Box::new(Expr::Slice(Box::new(Expr::id(src)), narrow - 1, 0)),
        Box::new(Expr::Ternary(
            Box::new(sign),
            Box::new(Expr::lit(narrow, min_pattern)),
            Box::new(Expr::lit(narrow, min_pattern - 1)),
        )),
    )
}

/// A bank of synergy neurons: `lanes` parallel multiply units feeding an
/// adder tree and a saturating accumulator register.
///
/// One beat consumes `lanes` feature words and `lanes` weight words and adds
/// their dot product to the running sum. The paper's convolution and FC
/// layers both map onto this block ("Full connection layer: synergy-neurons
/// + accumulators").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynergyNeuron {
    /// Datapath word width in bits.
    pub width: u32,
    /// Fraction bits of the fixed-point format (the multiplier selects the
    /// product field `[width+frac-1 : frac]`).
    pub frac_bits: u32,
    /// Parallel multiplier lanes.
    pub lanes: u32,
}

impl SynergyNeuron {
    /// Creates a neuron bank with the default balanced format
    /// (`frac_bits = width / 2`, i.e. Q7.8 at 16 bits).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `width == 0`.
    pub fn new(width: u32, lanes: u32) -> Self {
        assert!(width > 0 && lanes > 0, "degenerate neuron configuration");
        SynergyNeuron {
            width,
            frac_bits: width / 2,
            lanes,
        }
    }

    /// Returns a copy with an explicit fraction width.
    pub fn with_frac(mut self, frac_bits: u32) -> Self {
        assert!(frac_bits < self.width, "fraction must leave a sign bit");
        self.frac_bits = frac_bits;
        self
    }

    /// Width of the wide accumulator register: raw products carry `2 * width`
    /// bits, plus headroom for summation, capped at the interpreter's 64-bit
    /// signal limit. For `width <= 24` this leaves at least 16 bits of
    /// headroom, so the register tracks the behavioural [`Accumulator`]
    /// exactly over any realistic dot-product length.
    pub fn acc_width(&self) -> u32 {
        (2 * self.width + 16).min(64)
    }

    /// Fixed-point behavioural model of one beat sequence: the dot product
    /// of `features` and `weights` as the hardware computes it.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or formats disagree.
    pub fn simulate(&self, features: &[Fx], weights: &[Fx], fmt: QFormat) -> Fx {
        assert_eq!(features.len(), weights.len(), "operand length mismatch");
        let mut acc = Accumulator::new(fmt);
        for (f, w) in features.iter().zip(weights) {
            acc.mac(*f, *w);
        }
        acc.resolve(Rounding::Truncate)
    }
}

impl Block for SynergyNeuron {
    fn module_name(&self) -> String {
        format!(
            "synergy_neuron_w{}_f{}_l{}",
            self.width, self.frac_bits, self.lanes
        )
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let aw = self.acc_width();
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("en", 1))
            .port(Port::input("clear", 1))
            .port(Port::input("din", w * self.lanes))
            .port(Port::input("weight", w * self.lanes))
            .port(Port::output("sum_out", w));
        // Per-lane fixed-point products: sign-extend both operands to the
        // accumulator width and multiply. The raw product keeps all 2F
        // fraction bits — alignment and saturation happen once, at readout,
        // exactly as the behavioural `Accumulator` resolves.
        for lane in 0..self.lanes {
            let (fl, wl) = (format!("lane_f{lane}"), format!("lane_w{lane}"));
            m.item(Item::Net(NetDecl::wire(&fl, w)));
            m.item(Item::Assign {
                lhs: Expr::id(&fl),
                rhs: slice("din", lane, w),
            });
            m.item(Item::Net(NetDecl::wire(&wl, w)));
            m.item(Item::Assign {
                lhs: Expr::id(&wl),
                rhs: slice("weight", lane, w),
            });
            m.item(Item::Net(NetDecl::wire(format!("prod{lane}"), aw)));
            m.item(Item::Assign {
                lhs: Expr::id(format!("prod{lane}")),
                rhs: Expr::bin(
                    BinaryOp::Mul,
                    sign_extend_expr(&fl, w, aw),
                    sign_extend_expr(&wl, w, aw),
                ),
            });
        }
        // Linear adder chain (synthesis retimes it into a tree).
        let mut sum = Expr::id("prod0");
        for lane in 1..self.lanes {
            sum = Expr::bin(BinaryOp::Add, sum, Expr::id(format!("prod{lane}")));
        }
        m.item(Item::Net(NetDecl::wire("tree_sum", aw)));
        m.item(Item::Assign {
            lhs: Expr::id("tree_sum"),
            rhs: sum,
        });
        m.item(Item::Net(NetDecl::reg("acc", aw)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::bin(BinaryOp::LogOr, Expr::id("rst"), Expr::id("clear")),
                then_body: vec![Stmt::NonBlocking(Expr::id("acc"), Expr::lit(aw, 0))],
                else_body: vec![Stmt::If {
                    cond: Expr::id("en"),
                    then_body: vec![Stmt::NonBlocking(
                        Expr::id("acc"),
                        Expr::bin(BinaryOp::Add, Expr::id("acc"), Expr::id("tree_sum")),
                    )],
                    else_body: vec![],
                }],
            }],
        });
        // Readout: arithmetic-shift the fraction bits away, then saturate to
        // the datapath width — bit-for-bit `Accumulator::resolve(Truncate)`.
        m.item(Item::Net(NetDecl::wire("acc_shifted", aw)));
        m.item(Item::Assign {
            lhs: Expr::id("acc_shifted"),
            rhs: Expr::bin(
                BinaryOp::Shr,
                Expr::id("acc"),
                Expr::lit(32, u64::from(self.frac_bits)),
            ),
        });
        m.item(Item::Assign {
            lhs: Expr::id("sum_out"),
            rhs: saturate_expr("acc_shifted", aw, w),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        let mul_dsp = dsps_per_multiplier(self.width) * self.lanes;
        // Adder tree: lanes-1 adders; accumulator: one adder + register;
        // saturation: one mux stage.
        let lut = adder_luts(self.width) * self.lanes + 2 * mux_luts(self.width);
        let ff = self.acc_width();
        ResourceCost::logic(mul_dsp, lut, ff)
    }

    fn describe(&self) -> String {
        format!(
            "synergy neuron bank: {} lanes x {} bits",
            self.lanes, self.width
        )
    }
}

/// A standalone wrapping accumulator used to merge partial sums across
/// folds and to chain convolution partial products.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccumulatorBlock {
    /// Word width in bits.
    pub width: u32,
}

impl Block for AccumulatorBlock {
    fn module_name(&self) -> String {
        format!("accumulator_w{}", self.width)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("en", 1))
            .port(Port::input("din", w))
            .port(Port::output("acc_out", w));
        m.item(Item::Net(NetDecl::reg("acc", w)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("rst"),
                then_body: vec![Stmt::NonBlocking(Expr::id("acc"), Expr::lit(w, 0))],
                else_body: vec![Stmt::If {
                    cond: Expr::id("en"),
                    then_body: vec![Stmt::NonBlocking(
                        Expr::id("acc"),
                        Expr::bin(BinaryOp::Add, Expr::id("acc"), Expr::id("din")),
                    )],
                    else_body: vec![],
                }],
            }],
        });
        m.item(Item::Assign {
            lhs: Expr::id("acc_out"),
            rhs: Expr::id("acc"),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        ResourceCost::logic(0, adder_luts(self.width), self.width)
    }

    fn describe(&self) -> String {
        format!("accumulator: {} bits", self.width)
    }
}

/// Streaming pooling unit: max keeps a comparator-selected best value,
/// average accumulates (division happens in the connection box's shifting
/// latch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolingUnit {
    /// Word width in bits.
    pub width: u32,
    /// Reduction method.
    pub method: PoolMethod,
}

impl PoolingUnit {
    /// Width of the average-pool sum register: the datapath width plus
    /// summation headroom, capped at the interpreter's 64-bit signal limit.
    pub fn acc_width(&self) -> u32 {
        (self.width + 16).min(64)
    }

    /// Behavioural model: reduce a window of values.
    ///
    /// Average pooling divides by the window size the way the generated
    /// datapath does: a power-of-two window uses the connection box's
    /// shifting latch, anything else multiplies by the quantised reciprocal
    /// in a neuron lane — identical to the functional simulator's `pool_fx`.
    pub fn simulate(&self, window: &[Fx], fmt: QFormat) -> Fx {
        match self.method {
            PoolMethod::Max => window
                .iter()
                .copied()
                .fold(Fx::from_raw(fmt.min_raw(), fmt), Fx::max),
            PoolMethod::Average => {
                let mut acc = Accumulator::new(fmt);
                for v in window {
                    acc.add(*v);
                }
                let sum = acc.resolve(Rounding::Truncate);
                let n = window.len().max(1);
                if n.is_power_of_two() {
                    sum.shift_right(n.trailing_zeros())
                } else {
                    sum * Fx::from_f64(1.0 / n as f64, fmt)
                }
            }
        }
    }
}

impl Block for PoolingUnit {
    fn module_name(&self) -> String {
        let tag = match self.method {
            PoolMethod::Max => "max",
            PoolMethod::Average => "avg",
        };
        format!("pooling_{tag}_w{}", self.width)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("en", 1))
            .port(Port::input("clear", 1))
            .port(Port::input("din", w))
            .port(Port::output("dout", w));
        match self.method {
            PoolMethod::Max => {
                // Signed running max: reset to the most negative raw pattern
                // so negative pre-activation windows (pooling before ReLU)
                // reduce exactly like the behavioural `Fx::max` fold.
                m.item(Item::Net(NetDecl::reg("agg", w)));
                m.item(Item::Always {
                    sensitivity: Sensitivity::PosEdge("clk".into()),
                    body: vec![Stmt::If {
                        cond: Expr::bin(BinaryOp::LogOr, Expr::id("rst"), Expr::id("clear")),
                        then_body: vec![Stmt::NonBlocking(
                            Expr::id("agg"),
                            Expr::lit(w, 1u64 << (w - 1)),
                        )],
                        else_body: vec![Stmt::If {
                            cond: Expr::id("en"),
                            then_body: vec![Stmt::If {
                                cond: Expr::bin(BinaryOp::Slt, Expr::id("agg"), Expr::id("din")),
                                then_body: vec![Stmt::NonBlocking(
                                    Expr::id("agg"),
                                    Expr::id("din"),
                                )],
                                else_body: vec![],
                            }],
                            else_body: vec![],
                        }],
                    }],
                });
                m.item(Item::Assign {
                    lhs: Expr::id("dout"),
                    rhs: Expr::id("agg"),
                });
            }
            PoolMethod::Average => {
                // Wide running sum with a saturating readout, mirroring the
                // behavioural `Accumulator::add` + `resolve` pair. Division
                // happens downstream (shifting latch or reciprocal lane).
                let aw = self.acc_width();
                m.item(Item::Net(NetDecl::reg("agg", aw)));
                m.item(Item::Always {
                    sensitivity: Sensitivity::PosEdge("clk".into()),
                    body: vec![Stmt::If {
                        cond: Expr::bin(BinaryOp::LogOr, Expr::id("rst"), Expr::id("clear")),
                        then_body: vec![Stmt::NonBlocking(Expr::id("agg"), Expr::lit(aw, 0))],
                        else_body: vec![Stmt::If {
                            cond: Expr::id("en"),
                            then_body: vec![Stmt::NonBlocking(
                                Expr::id("agg"),
                                Expr::bin(
                                    BinaryOp::Add,
                                    Expr::id("agg"),
                                    sign_extend_expr("din", w, aw),
                                ),
                            )],
                            else_body: vec![],
                        }],
                    }],
                });
                m.item(Item::Assign {
                    lhs: Expr::id("dout"),
                    rhs: saturate_expr("agg", aw, w),
                });
            }
        }
        m
    }

    fn cost(&self) -> ResourceCost {
        let lut = match self.method {
            PoolMethod::Max => comparator_luts(self.width) + mux_luts(self.width),
            PoolMethod::Average => adder_luts(self.width) + mux_luts(self.width),
        };
        let ff = match self.method {
            PoolMethod::Max => self.width,
            PoolMethod::Average => self.acc_width(),
        };
        ResourceCost::logic(0, lut, ff)
    }

    fn describe(&self) -> String {
        format!("pooling unit ({}): {} bits", self.method, self.width)
    }
}

/// Combinational ReLU: a sign-bit mux. (Sigmoid/tanh route through the
/// Approx LUT block instead.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationUnit {
    /// Word width in bits.
    pub width: u32,
}

impl ActivationUnit {
    /// Behavioural model.
    pub fn simulate(&self, x: Fx) -> Fx {
        x.max(Fx::zero(x.format()))
    }
}

impl Block for ActivationUnit {
    fn module_name(&self) -> String {
        format!("relu_w{}", self.width)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("din", w)).port(Port::output("dout", w));
        m.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: Expr::Ternary(
                Box::new(Expr::Index(
                    Box::new(Expr::id("din")),
                    Box::new(Expr::lit(32, (w - 1) as u64)),
                )),
                Box::new(Expr::lit(w, 0)),
                Box::new(Expr::id("din")),
            ),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        ResourceCost::logic(0, mux_luts(self.width), 0)
    }

    fn describe(&self) -> String {
        format!("ReLU unit: {} bits", self.width)
    }
}

/// Drop-out inserter: gates lanes off during training-mode propagation.
/// At inference it is configured transparent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropOutUnit {
    /// Word width in bits.
    pub width: u32,
}

impl Block for DropOutUnit {
    fn module_name(&self) -> String {
        format!("dropout_w{}", self.width)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("din", w))
            .port(Port::input("mask", 1))
            .port(Port::output("dout", w));
        m.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: Expr::Ternary(
                Box::new(Expr::id("mask")),
                Box::new(Expr::lit(w, 0)),
                Box::new(Expr::id("din")),
            ),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        ResourceCost::logic(0, mux_luts(self.width), 0)
    }

    fn describe(&self) -> String {
        format!("drop-out inserter: {} bits", self.width)
    }
}

/// K-sorter / classifier block: an argmax comparator chain over `inputs`
/// values (implemented per Beigel & Gill's k-sorter construction in the
/// paper's library; we emit the single-pass selection network and repeat it
/// `k` times in the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KSorter {
    /// Word width of the compared values.
    pub width: u32,
    /// Number of parallel inputs.
    pub inputs: u32,
}

impl KSorter {
    /// Index width of the result.
    pub fn index_width(&self) -> u32 {
        32 - (self.inputs.max(2) - 1).leading_zeros()
    }

    /// Behavioural model: argmax.
    pub fn simulate(&self, values: &[Fx]) -> usize {
        let mut best = 0usize;
        for (i, v) in values.iter().enumerate() {
            if v.raw() > values[best].raw() {
                best = i;
            }
        }
        best
    }

    /// Behavioural model of the scheduled top-k: the coordinator replays
    /// the selection network `k` times, masking the previous winner.
    pub fn simulate_topk(&self, values: &[Fx], k: usize) -> Vec<usize> {
        let mut masked: Vec<(usize, i64)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.raw()))
            .collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k.min(values.len()) {
            // Strict compare: ties keep the earliest index, exactly like the
            // comparator chain (and the functional classifier's stable sort).
            let mut pos = 0usize;
            for (i, (_, raw)) in masked.iter().enumerate() {
                if *raw > masked[pos].1 {
                    pos = i;
                }
            }
            out.push(masked[pos].0);
            masked.remove(pos);
        }
        out
    }
}

impl Block for KSorter {
    fn module_name(&self) -> String {
        format!("ksorter_w{}_n{}", self.width, self.inputs)
    }

    fn generate(&self) -> VModule {
        let w = self.width;
        let iw = self.index_width();
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("din", w * self.inputs))
            .port(Port::output("idx_out", iw))
            .port(Port::output("val_out", w));
        m.item(Item::Net(NetDecl::wire("best_val0", w)));
        m.item(Item::Net(NetDecl::wire("best_idx0", iw)));
        m.item(Item::Assign {
            lhs: Expr::id("best_val0"),
            rhs: slice("din", 0, w),
        });
        m.item(Item::Assign {
            lhs: Expr::id("best_idx0"),
            rhs: Expr::lit(iw, 0),
        });
        for i in 1..self.inputs {
            let prev_v = format!("best_val{}", i - 1);
            let prev_i = format!("best_idx{}", i - 1);
            let cur_v = format!("best_val{i}");
            let cur_i = format!("best_idx{i}");
            m.item(Item::Net(NetDecl::wire(&cur_v, w)));
            m.item(Item::Net(NetDecl::wire(&cur_i, iw)));
            let wins = Expr::bin(BinaryOp::Slt, Expr::id(&prev_v), slice("din", i, w));
            m.item(Item::Assign {
                lhs: Expr::id(&cur_v),
                rhs: Expr::Ternary(
                    Box::new(wins.clone()),
                    Box::new(slice("din", i, w)),
                    Box::new(Expr::id(&prev_v)),
                ),
            });
            m.item(Item::Assign {
                lhs: Expr::id(&cur_i),
                rhs: Expr::Ternary(
                    Box::new(wins),
                    Box::new(Expr::lit(iw, i as u64)),
                    Box::new(Expr::id(&prev_i)),
                ),
            });
        }
        let last = self.inputs - 1;
        m.item(Item::Assign {
            lhs: Expr::id("idx_out"),
            rhs: Expr::id(format!("best_idx{last}")),
        });
        m.item(Item::Assign {
            lhs: Expr::id("val_out"),
            rhs: Expr::id(format!("best_val{last}")),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        let per_stage =
            comparator_luts(self.width) + mux_luts(self.width) + mux_luts(self.index_width());
        ResourceCost::logic(0, per_stage * (self.inputs - 1), 0)
    }

    fn describe(&self) -> String {
        format!("K-sorter: {} inputs x {} bits", self.inputs, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_verilog::{lint_design, Design, Interpreter, Simulator};

    const F: QFormat = QFormat::Q8_8;

    fn raw16(v: f64) -> u64 {
        Fx::from_f64(v, F).raw() as u64 & 0xFFFF
    }

    #[test]
    fn neuron_rtl_lints_clean() {
        for lanes in [1u32, 2, 8, 32] {
            let n = SynergyNeuron::new(16, lanes);
            let report = lint_design(&Design::new(n.generate()));
            assert!(report.is_clean(), "lanes={lanes}: {report}");
        }
    }

    #[test]
    fn neuron_simulation_matches_dot_product() {
        let n = SynergyNeuron::new(16, 4);
        let f: Vec<Fx> = [1.0, -2.0, 0.5, 3.0]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        let w: Vec<Fx> = [0.5, 0.25, -1.0, 2.0]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        let out = n.simulate(&f, &w, F);
        assert!((out.to_f64() - (0.5 - 0.5 - 0.5 + 6.0)).abs() < 0.01);
    }

    #[test]
    fn neuron_rtl_is_bit_exact_with_the_accumulator() {
        // Mixed-sign values whose running sum leaves the 16-bit window
        // mid-stream: the wide accumulator must carry the excursion and the
        // readout must land exactly on `Accumulator::resolve(Truncate)`.
        let n = SynergyNeuron::new(16, 2);
        let beats: &[([f64; 2], [f64; 2])] = &[
            ([100.0, -50.0], [100.0, 100.0]),
            ([-127.0, 3.75], [100.0, -2.5]),
            ([0.004, 90.0], [0.004, -90.0]),
        ];
        let mut sim =
            Interpreter::elaborate(&Design::new(n.generate()), &n.module_name()).expect("elab");
        sim.poke("rst", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("rst", 0).unwrap();
        sim.poke("en", 1).unwrap();
        let mut flat_f = Vec::new();
        let mut flat_w = Vec::new();
        for (fb, wb) in beats {
            sim.poke("din", raw16(fb[0]) | (raw16(fb[1]) << 16))
                .unwrap();
            sim.poke("weight", raw16(wb[0]) | (raw16(wb[1]) << 16))
                .unwrap();
            sim.clock().unwrap();
            flat_f.extend(fb.iter().map(|&v| Fx::from_f64(v, F)));
            flat_w.extend(wb.iter().map(|&v| Fx::from_f64(v, F)));
        }
        let got = sim.read("sum_out").unwrap();
        let want = n.simulate(&flat_f, &flat_w, F).raw() as u64 & 0xFFFF;
        assert_eq!(got, want, "RTL {got:#06x} vs model {want:#06x}");
    }

    /// A single-lane bank has no adder tree: its one product feeds the
    /// accumulator directly.
    #[test]
    fn single_lane_neuron_rtl_is_bit_exact() {
        let n = SynergyNeuron::new(16, 1);
        let mut sim = deepburning_verilog::SimEngine::Compiled
            .elaborate(&Design::new(n.generate()), &n.module_name())
            .expect("elab");
        sim.poke("rst", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("rst", 0).unwrap();
        sim.poke("en", 1).unwrap();
        let (f, w) = ([3.0, -2.0], [0.5, 1.5]);
        for (fv, wv) in f.iter().zip(&w) {
            sim.poke("din", raw16(*fv)).unwrap();
            sim.poke("weight", raw16(*wv)).unwrap();
            sim.clock().unwrap();
        }
        let fx = |v: &[f64]| v.iter().map(|&v| Fx::from_f64(v, F)).collect::<Vec<_>>();
        let want = n.simulate(&fx(&f), &fx(&w), F).raw() as u64 & 0xFFFF;
        assert_eq!(sim.read("sum_out").unwrap(), want);
        assert_eq!(want, raw16(-1.5));
    }

    #[test]
    fn pooling_max_rtl_handles_negative_windows() {
        // Pooling ahead of ReLU sees negative values; the comparator must be
        // signed and the reset value the most negative pattern, not zero.
        let p = PoolingUnit {
            width: 16,
            method: PoolMethod::Max,
        };
        let window = [-3.0, -1.5, -2.0];
        let mut sim =
            Interpreter::elaborate(&Design::new(p.generate()), &p.module_name()).expect("elab");
        sim.poke("rst", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("rst", 0).unwrap();
        sim.poke("en", 1).unwrap();
        for v in window {
            sim.poke("din", raw16(v)).unwrap();
            sim.clock().unwrap();
        }
        let got = sim.read("dout").unwrap();
        let fx: Vec<Fx> = window.iter().map(|&v| Fx::from_f64(v, F)).collect();
        let want = p.simulate(&fx, F).raw() as u64 & 0xFFFF;
        assert_eq!(
            got, want,
            "max of negatives: RTL {got:#06x} vs model {want:#06x}"
        );
        assert_eq!(want, raw16(-1.5));
    }

    #[test]
    fn pooling_avg_rtl_sum_saturates_like_the_model() {
        let p = PoolingUnit {
            width: 16,
            method: PoolMethod::Average,
        };
        // 16 x 120.0 overflows the 16-bit sum; the model saturates at
        // resolve, so the RTL readout must clamp to max_raw.
        let mut sim =
            Interpreter::elaborate(&Design::new(p.generate()), &p.module_name()).expect("elab");
        sim.poke("rst", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("rst", 0).unwrap();
        sim.poke("en", 1).unwrap();
        for _ in 0..16 {
            sim.poke("din", raw16(120.0)).unwrap();
            sim.clock().unwrap();
        }
        let got = sim.read("dout").unwrap();
        assert_eq!(got, F.max_raw() as u64 & 0xFFFF);
    }

    #[test]
    fn ksorter_rtl_handles_negative_scores() {
        let k = KSorter {
            width: 16,
            inputs: 3,
        };
        let vals = [-0.5, -0.25, -1.0];
        let mut sim =
            Interpreter::elaborate(&Design::new(k.generate()), &k.module_name()).expect("elab");
        let bus = raw16(vals[0]) | (raw16(vals[1]) << 16) | (raw16(vals[2]) << 32);
        sim.poke("din", bus).unwrap();
        let fx: Vec<Fx> = vals.iter().map(|&v| Fx::from_f64(v, F)).collect();
        assert_eq!(sim.read("idx_out").unwrap(), k.simulate(&fx) as u64);
        assert_eq!(k.simulate(&fx), 1);
    }

    #[test]
    fn neuron_cost_scales_with_lanes() {
        let small = SynergyNeuron::new(16, 4).cost();
        let big = SynergyNeuron::new(16, 8).cost();
        assert_eq!(big.dsp, small.dsp * 2);
        assert!(big.lut > small.lut);
    }

    #[test]
    fn wide_neuron_uses_cascaded_dsps() {
        let n = SynergyNeuron::new(24, 2);
        assert_eq!(n.cost().dsp, 4);
    }

    #[test]
    fn accumulator_rtl_lints_clean() {
        let a = AccumulatorBlock { width: 32 };
        assert!(lint_design(&Design::new(a.generate())).is_clean());
        assert_eq!(a.module_name(), "accumulator_w32");
    }

    #[test]
    fn pooling_units_lint_clean() {
        for method in [PoolMethod::Max, PoolMethod::Average] {
            let p = PoolingUnit { width: 16, method };
            let report = lint_design(&Design::new(p.generate()));
            assert!(report.is_clean(), "{method}: {report}");
        }
    }

    #[test]
    fn pooling_simulation_max_and_avg() {
        let vals: Vec<Fx> = [1.0, 4.0, 2.0, 3.0]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        let max = PoolingUnit {
            width: 16,
            method: PoolMethod::Max,
        };
        assert_eq!(max.simulate(&vals, F).to_f64(), 4.0);
        let avg = PoolingUnit {
            width: 16,
            method: PoolMethod::Average,
        };
        assert_eq!(avg.simulate(&vals, F).to_f64(), 2.5);
    }

    #[test]
    fn relu_unit_behaviour_and_rtl() {
        let r = ActivationUnit { width: 16 };
        assert!(lint_design(&Design::new(r.generate())).is_clean());
        assert_eq!(r.simulate(Fx::from_f64(-2.0, F)).to_f64(), 0.0);
        assert_eq!(r.simulate(Fx::from_f64(2.0, F)).to_f64(), 2.0);
    }

    #[test]
    fn dropout_unit_lints_clean() {
        let d = DropOutUnit { width: 16 };
        assert!(lint_design(&Design::new(d.generate())).is_clean());
    }

    #[test]
    fn ksorter_argmax_and_rtl() {
        let k = KSorter {
            width: 16,
            inputs: 10,
        };
        assert_eq!(k.index_width(), 4);
        assert!(lint_design(&Design::new(k.generate())).is_clean());
        let vals: Vec<Fx> = [0.1, 0.9, 0.3, 0.95, 0.2]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        assert_eq!(k.simulate(&vals), 3);
    }

    #[test]
    fn ksorter_topk_matches_sorting() {
        let k = KSorter {
            width: 16,
            inputs: 8,
        };
        let vals: Vec<Fx> = [0.3, 0.9, 0.1, 0.7, 0.5]
            .iter()
            .map(|&v| Fx::from_f64(v, F))
            .collect();
        assert_eq!(k.simulate_topk(&vals, 3), vec![1, 3, 4]);
        // Requesting more than available truncates.
        assert_eq!(k.simulate_topk(&vals, 10).len(), 5);
    }

    #[test]
    fn ksorter_cost_scales_with_inputs() {
        let small = KSorter {
            width: 16,
            inputs: 4,
        }
        .cost();
        let big = KSorter {
            width: 16,
            inputs: 16,
        }
        .cost();
        // 15 comparator stages vs 3, with a slightly wider index mux.
        assert!(big.lut >= small.lut * 5, "{} vs {}", big.lut, small.lut);
    }
}
