//! Control-path building blocks: the Address Generation Unit template
//! (paper Fig. 6) and the FSM coordinator that sequences folded phases.

use crate::cost::{adder_luts, comparator_luts, mux_luts, ResourceCost};
use crate::Block;
use deepburning_verilog::{BinaryOp, Expr, Item, NetDecl, Port, Sensitivity, Stmt, VModule};

/// One memory access pattern of an AGU (the key fields of Fig. 6:
/// "starting address, footprint (size), x_length, y_length, stride,
/// off-set").
///
/// The generated address stream is, in order:
///
/// ```text
/// for y in 0..y_len:
///     for x in 0..x_len:
///         yield start + offset + y * y_stride + x * x_stride
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AguPattern {
    /// Base address of the region (words).
    pub start: u64,
    /// Additive offset applied to the whole pattern (fold displacement).
    pub offset: u64,
    /// Inner-loop trip count.
    pub x_len: u32,
    /// Outer-loop trip count.
    pub y_len: u32,
    /// Inner-loop address step (words).
    pub x_stride: u64,
    /// Outer-loop address step (words).
    pub y_stride: u64,
}

impl AguPattern {
    /// A dense 1-D burst of `len` words from `start`.
    pub fn linear(start: u64, len: u32) -> Self {
        AguPattern {
            start,
            offset: 0,
            x_len: len.max(1),
            y_len: 1,
            x_stride: 1,
            y_stride: 0,
        }
    }

    /// Total addresses generated ("footprint" in Fig. 6).
    pub fn footprint(&self) -> u64 {
        self.x_len as u64 * self.y_len as u64
    }

    /// The exact address stream this pattern produces — the behavioural
    /// model the simulator replays and the property tests check the RTL
    /// increments against.
    pub fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.y_len).flat_map(move |y| {
            (0..self.x_len).map(move |x| {
                self.start
                    .wrapping_add(self.offset)
                    .wrapping_add(y as u64 * self.y_stride)
                    .wrapping_add(x as u64 * self.x_stride)
            })
        })
    }

    /// The DRAM transactions of a row-granular main pattern: one
    /// `(address, words)` pair per address of the stream, each moving
    /// `width` words except the last, which moves `tail` (the region's
    /// word-granular remainder, `1..=width`).
    pub fn rows(&self, width: u32, tail: u32) -> impl Iterator<Item = (u64, u32)> + '_ {
        let last = self.footprint().saturating_sub(1);
        self.addresses()
            .zip(0u64..)
            .map(move |(addr, i)| (addr, if i == last { tail } else { width }))
    }

    /// The incremental step applied when the inner loop wraps, as the RTL
    /// adder computes it (two's complement in `addr_width` bits).
    pub fn wrap_step(&self, addr_width: u32) -> u64 {
        let step = self.y_stride as i128 - (self.x_len as i128 - 1) * self.x_stride as i128;
        let mask = if addr_width >= 128 {
            u128::MAX
        } else {
            (1u128 << addr_width) - 1
        };
        (step as u128 & mask) as u64
    }
}

/// The class of data an AGU serves (paper §3.3: "main AGU, data AGU and
/// weight AGU").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AguClass {
    /// Moves data between off-chip DRAM and on-chip buffers.
    Main,
    /// Feeds feature data from buffers into the datapath.
    Data,
    /// Feeds weight data from buffers into the datapath.
    Weight,
}

impl AguClass {
    /// Lower-case tag used in module names.
    pub fn tag(self) -> &'static str {
        match self {
            AguClass::Main => "main",
            AguClass::Data => "data",
            AguClass::Weight => "weight",
        }
    }
}

/// An AGU specialised ("reduced from the template") to a fixed set of
/// patterns. Triggered by a one-hot event, it streams the pattern's
/// addresses one per cycle and raises `done`.
///
/// The *main* AGU class additionally chains: a multi-bit trigger word is
/// latched into a pending set and the patterns launch back-to-back, lowest
/// bit first, with `done` raised only after the whole set drains. Each
/// launch adds the runtime `offset` input (the per-phase fold displacement
/// from the context buffer) to the pattern's base address; `pat_next`
/// exposes the index of the pattern about to launch so the environment can
/// present the matching offset, and `pat_cur` the one currently streaming.
/// A phase's full DRAM program (input fetch + weight fetch + write-back)
/// therefore runs off one trigger word — firing only the lowest bit was
/// the marshalling bug that left every other stream of the phase silent.
///
/// The main AGU is also the DRAM command port, so it is flow-controlled:
/// it holds each address until the memory accepts it (`valid && ready`),
/// and `last` marks the running pattern's final transaction (the top
/// level sizes that transaction with the pattern's word-granular tail).
/// The data and weight AGUs feed on-chip buffers and advance every cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct AguBlock {
    /// Which traffic class this AGU drives.
    pub class: AguClass,
    /// Address bus width.
    pub addr_width: u32,
    /// The supported patterns, indexed by trigger bit.
    pub patterns: Vec<AguPattern>,
}

impl AguBlock {
    /// Creates an AGU for a pattern set.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty.
    pub fn new(class: AguClass, addr_width: u32, patterns: Vec<AguPattern>) -> Self {
        assert!(!patterns.is_empty(), "an AGU needs at least one pattern");
        AguBlock {
            class,
            addr_width,
            patterns,
        }
    }

    /// Width of the pattern index (`pat_next`/`pat_cur` ports).
    pub fn pattern_index_width(&self) -> u32 {
        32 - (self.patterns.len().max(2) as u32 - 1).leading_zeros()
    }

    /// Width of the `x_cnt`/`y_cnt` trip counters: wide enough for the
    /// largest trip count in the pattern set, never narrower than 16.
    /// A fixed 16-bit counter silently truncated the `x_len-1` terminal
    /// comparison for bursts past 64Ki addresses (large FC weight
    /// fetches), ending them thousands of transactions early — the first
    /// marshalling bug the full-network RTL run surfaced.
    pub fn counter_width(&self) -> u32 {
        let max_cnt = self
            .patterns
            .iter()
            .map(|p| p.x_len.max(p.y_len).max(1) - 1)
            .max()
            .unwrap_or(0);
        (32 - max_cnt.max(1).leading_zeros()).max(16)
    }

    /// Whether this AGU chains multi-bit trigger words and applies the
    /// runtime `offset` input (main class only).
    pub fn is_chained(&self) -> bool {
        self.class == AguClass::Main
    }
}

impl Block for AguBlock {
    fn module_name(&self) -> String {
        format!(
            "agu_{}_a{}_p{}",
            self.class.tag(),
            self.addr_width,
            self.patterns.len()
        )
    }

    fn generate(&self) -> VModule {
        let a = self.addr_width;
        let pn = self.patterns.len() as u32;
        let pw = self.pattern_index_width();
        let cw = self.counter_width();
        let chained = self.is_chained();
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("trigger", pn));
        if chained {
            m.port(Port::input("offset", a))
                .port(Port::input("ready", 1))
                .port(Port::output("pat_next", pw))
                .port(Port::output("pat_cur", pw))
                .port(Port::output("last", 1));
        }
        m.port(Port::output("addr", a))
            .port(Port::output("valid", 1))
            .port(Port::output("done", 1));
        m.item(Item::Net(NetDecl::reg("pat", pw)));
        m.item(Item::Net(NetDecl::reg("x_cnt", cw)));
        m.item(Item::Net(NetDecl::reg("y_cnt", cw)));
        m.item(Item::Net(NetDecl::reg("addr_r", a)));
        m.item(Item::Net(NetDecl::reg("running", 1)));
        m.item(Item::Net(NetDecl::reg("done_r", 1)));
        if chained {
            m.item(Item::Net(NetDecl::reg("pending", pn)));
            m.item(Item::Net(NetDecl::reg("last_r", 1)));
        }
        // `x_cnt == v && y_cnt == w`: the trip-position test behind `last_r`.
        let at = |x: u64, y: u64| {
            Expr::bin(
                BinaryOp::LogAnd,
                Expr::bin(BinaryOp::Eq, Expr::id("x_cnt"), Expr::lit(cw, x)),
                Expr::bin(BinaryOp::Eq, Expr::id("y_cnt"), Expr::lit(cw, y)),
            )
        };

        // Launch decode: priority chain over `src`, lowest bit wins. The
        // chained (main) AGU adds the runtime offset to the pattern base
        // and latches the remaining bits into `pending`.
        let launch_from = |src: &'static str| -> Vec<Stmt> {
            let mut launch: Vec<Stmt> = Vec::new();
            for (i, p) in self.patterns.iter().enumerate().rev() {
                let addr_init = if chained {
                    Expr::bin(
                        BinaryOp::Add,
                        Expr::lit(a, p.start & mask(a)),
                        Expr::id("offset"),
                    )
                } else {
                    Expr::lit(a, (p.start.wrapping_add(p.offset)) & mask(a))
                };
                let mut this = vec![
                    Stmt::NonBlocking(Expr::id("pat"), Expr::lit(pw, i as u64)),
                    Stmt::NonBlocking(Expr::id("x_cnt"), Expr::lit(cw, 0)),
                    Stmt::NonBlocking(Expr::id("y_cnt"), Expr::lit(cw, 0)),
                    Stmt::NonBlocking(Expr::id("addr_r"), addr_init),
                    Stmt::NonBlocking(Expr::id("running"), Expr::lit(1, 1)),
                    Stmt::NonBlocking(Expr::id("done_r"), Expr::lit(1, 0)),
                ];
                if chained {
                    let single = p.x_len <= 1 && p.y_len <= 1;
                    this.push(Stmt::NonBlocking(
                        Expr::id("last_r"),
                        Expr::lit(1, u64::from(single)),
                    ));
                    this.push(Stmt::NonBlocking(
                        Expr::id("pending"),
                        Expr::bin(
                            BinaryOp::And,
                            Expr::id(src),
                            Expr::lit(pn, !(1u64 << i) & mask(pn)),
                        ),
                    ));
                }
                if launch.is_empty() {
                    launch = this;
                } else {
                    launch = vec![Stmt::If {
                        cond: Expr::Index(
                            Box::new(Expr::id(src)),
                            Box::new(Expr::lit(32, i as u64)),
                        ),
                        then_body: this,
                        else_body: launch,
                    }];
                }
            }
            launch
        };
        let launch = launch_from("trigger");

        // What happens when the running pattern's last address retires:
        // the plain AGU stops; the chained AGU launches the next pending
        // pattern back-to-back and only stops once the set drains.
        let finish: Vec<Stmt> = if chained {
            vec![Stmt::If {
                cond: Expr::Unary(
                    deepburning_verilog::UnaryOp::RedOr,
                    Box::new(Expr::id("pending")),
                ),
                then_body: launch_from("pending"),
                else_body: vec![
                    Stmt::NonBlocking(Expr::id("running"), Expr::lit(1, 0)),
                    Stmt::NonBlocking(Expr::id("done_r"), Expr::lit(1, 1)),
                    Stmt::NonBlocking(Expr::id("last_r"), Expr::lit(1, 0)),
                ],
            }]
        } else {
            vec![
                Stmt::NonBlocking(Expr::id("running"), Expr::lit(1, 0)),
                Stmt::NonBlocking(Expr::id("done_r"), Expr::lit(1, 1)),
            ]
        };

        // Per-pattern advance logic.
        let mut arms = Vec::new();
        for (i, p) in self.patterns.iter().enumerate() {
            let x_last = Expr::bin(
                BinaryOp::Eq,
                Expr::id("x_cnt"),
                Expr::lit(cw, (p.x_len - 1) as u64),
            );
            let y_last = Expr::bin(
                BinaryOp::Eq,
                Expr::id("y_cnt"),
                Expr::lit(cw, (p.y_len - 1) as u64),
            );
            let (xl, yl) = (u64::from(p.x_len), u64::from(p.y_len));
            // The position after this advance is the final one when it
            // lands on (x_len-1, y_len-1): from (x_len-2, y_len-1) along x,
            // or, for single-column patterns, from (0, y_len-2) down y.
            let mut wrap = vec![
                Stmt::NonBlocking(Expr::id("x_cnt"), Expr::lit(cw, 0)),
                Stmt::NonBlocking(
                    Expr::id("y_cnt"),
                    Expr::bin(BinaryOp::Add, Expr::id("y_cnt"), Expr::lit(cw, 1)),
                ),
                Stmt::NonBlocking(
                    Expr::id("addr_r"),
                    Expr::bin(
                        BinaryOp::Add,
                        Expr::id("addr_r"),
                        Expr::lit(a, p.wrap_step(a)),
                    ),
                ),
            ];
            let mut step = vec![
                Stmt::NonBlocking(
                    Expr::id("x_cnt"),
                    Expr::bin(BinaryOp::Add, Expr::id("x_cnt"), Expr::lit(cw, 1)),
                ),
                Stmt::NonBlocking(
                    Expr::id("addr_r"),
                    Expr::bin(
                        BinaryOp::Add,
                        Expr::id("addr_r"),
                        Expr::lit(a, p.x_stride & mask(a)),
                    ),
                ),
            ];
            if chained {
                let wrap_last = if xl <= 1 && yl >= 2 {
                    at(0, yl - 2)
                } else {
                    Expr::lit(1, 0)
                };
                wrap.push(Stmt::NonBlocking(Expr::id("last_r"), wrap_last));
                let step_last = if xl >= 2 {
                    at(xl - 2, yl.max(1) - 1)
                } else {
                    Expr::lit(1, 0)
                };
                step.push(Stmt::NonBlocking(Expr::id("last_r"), step_last));
            }
            // The chained AGU retires its final address through `last_r`
            // (below), once, instead of through a copy of the whole
            // pending-launch chain in every arm.
            let at_x_end = if chained {
                wrap
            } else {
                vec![Stmt::If {
                    cond: y_last,
                    then_body: finish.clone(),
                    else_body: wrap,
                }]
            };
            let body = vec![Stmt::If {
                cond: x_last,
                then_body: at_x_end,
                else_body: step,
            }];
            arms.push((Expr::lit(pw, i as u64), body));
        }
        let case = Stmt::Case {
            subject: Expr::id("pat"),
            arms,
            default: vec![Stmt::NonBlocking(Expr::id("running"), Expr::lit(1, 0))],
        };
        let advance_body = if chained {
            vec![Stmt::If {
                cond: Expr::id("last_r"),
                then_body: finish,
                else_body: vec![case],
            }]
        } else {
            vec![case]
        };
        let mut reset_body = vec![
            Stmt::NonBlocking(Expr::id("running"), Expr::lit(1, 0)),
            Stmt::NonBlocking(Expr::id("done_r"), Expr::lit(1, 0)),
            Stmt::NonBlocking(Expr::id("pat"), Expr::lit(pw, 0)),
            Stmt::NonBlocking(Expr::id("x_cnt"), Expr::lit(cw, 0)),
            Stmt::NonBlocking(Expr::id("y_cnt"), Expr::lit(cw, 0)),
            Stmt::NonBlocking(Expr::id("addr_r"), Expr::lit(a, 0)),
        ];
        if chained {
            reset_body.push(Stmt::NonBlocking(Expr::id("pending"), Expr::lit(pn, 0)));
            reset_body.push(Stmt::NonBlocking(Expr::id("last_r"), Expr::lit(1, 0)));
        }
        // The main AGU holds its address until DRAM accepts it.
        let advance = if chained {
            Expr::bin(BinaryOp::LogAnd, Expr::id("running"), Expr::id("ready"))
        } else {
            Expr::id("running")
        };
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("rst"),
                then_body: reset_body,
                else_body: vec![Stmt::If {
                    cond: Expr::Unary(
                        deepburning_verilog::UnaryOp::RedOr,
                        Box::new(Expr::id("trigger")),
                    ),
                    then_body: launch,
                    else_body: vec![Stmt::If {
                        cond: advance,
                        then_body: advance_body,
                        else_body: vec![],
                    }],
                }],
            }],
        });
        m.item(Item::Assign {
            lhs: Expr::id("addr"),
            rhs: Expr::id("addr_r"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("valid"),
            rhs: Expr::id("running"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("done"),
            rhs: Expr::id("done_r"),
        });
        if chained {
            // Priority encoder over a launch source, lowest bit first.
            let encode = |src: &'static str| -> Expr {
                let mut acc = Expr::lit(pw, (pn - 1) as u64);
                for i in (0..pn.saturating_sub(1)).rev() {
                    acc = Expr::Ternary(
                        Box::new(Expr::Index(
                            Box::new(Expr::id(src)),
                            Box::new(Expr::lit(32, i as u64)),
                        )),
                        Box::new(Expr::lit(pw, i as u64)),
                        Box::new(acc),
                    );
                }
                acc
            };
            m.item(Item::Assign {
                lhs: Expr::id("pat_next"),
                rhs: Expr::Ternary(
                    Box::new(Expr::Unary(
                        deepburning_verilog::UnaryOp::RedOr,
                        Box::new(Expr::id("trigger")),
                    )),
                    Box::new(encode("trigger")),
                    Box::new(encode("pending")),
                ),
            });
            m.item(Item::Assign {
                lhs: Expr::id("pat_cur"),
                rhs: Expr::id("pat"),
            });
            m.item(Item::Assign {
                lhs: Expr::id("last"),
                rhs: Expr::id("last_r"),
            });
        }
        m
    }

    fn cost(&self) -> ResourceCost {
        // Counters + adder + per-pattern constant mux.
        let mut lut = adder_luts(self.addr_width)
            + adder_luts(16) * 2
            + comparator_luts(16) * 2
            + mux_luts(self.addr_width) * self.patterns.len() as u32;
        let mut ff = self.addr_width + 16 * 2 + self.pattern_index_width() + 2;
        if self.is_chained() {
            // Pending-set register, offset adder, launch priority encoders.
            // (The `ready` gate and the `last` flag, one flip-flop and a
            // trip-count compare, are left uncosted: the analytic energy
            // model reads this total and must not move with them.)
            lut += adder_luts(self.addr_width) + mux_luts(self.pattern_index_width()) * 2;
            ff += self.patterns.len() as u32;
        }
        ResourceCost::logic(0, lut, ff)
    }

    fn describe(&self) -> String {
        format!(
            "{} AGU: {} patterns, {}-bit addresses",
            self.class.tag(),
            self.patterns.len(),
            self.addr_width
        )
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The scheduling coordinator: walks the folded phases in order, firing the
/// AGU trigger of each phase on entry and advancing when the phase signals
/// completion (the "pre-determined phases marked by pre-defined events as
/// layer0-fold0").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coordinator {
    /// Number of phases in the schedule.
    pub phases: u32,
}

impl Coordinator {
    /// Phase counter width.
    pub fn phase_width(&self) -> u32 {
        32 - (self.phases.max(2) - 1).leading_zeros()
    }
}

impl Block for Coordinator {
    fn module_name(&self) -> String {
        format!("coordinator_p{}", self.phases)
    }

    fn generate(&self) -> VModule {
        let pw = self.phase_width();
        let last = (self.phases - 1) as u64;
        let mut m = VModule::new(self.module_name());
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("start", 1))
            .port(Port::input("phase_done", 1))
            .port(Port::output("phase", pw))
            .port(Port::output("busy", 1))
            .port(Port::output("fire", 1));
        m.item(Item::Net(NetDecl::reg("phase_r", pw)));
        m.item(Item::Net(NetDecl::reg("busy_r", 1)));
        m.item(Item::Net(NetDecl::reg("fire_r", 1)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("rst"),
                then_body: vec![
                    Stmt::NonBlocking(Expr::id("phase_r"), Expr::lit(pw, 0)),
                    Stmt::NonBlocking(Expr::id("busy_r"), Expr::lit(1, 0)),
                    Stmt::NonBlocking(Expr::id("fire_r"), Expr::lit(1, 0)),
                ],
                else_body: vec![
                    Stmt::NonBlocking(Expr::id("fire_r"), Expr::lit(1, 0)),
                    Stmt::If {
                        cond: Expr::bin(
                            BinaryOp::LogAnd,
                            Expr::id("start"),
                            Expr::Unary(
                                deepburning_verilog::UnaryOp::Not,
                                Box::new(Expr::id("busy_r")),
                            ),
                        ),
                        then_body: vec![
                            Stmt::NonBlocking(Expr::id("phase_r"), Expr::lit(pw, 0)),
                            Stmt::NonBlocking(Expr::id("busy_r"), Expr::lit(1, 1)),
                            Stmt::NonBlocking(Expr::id("fire_r"), Expr::lit(1, 1)),
                        ],
                        else_body: vec![Stmt::If {
                            cond: Expr::bin(
                                BinaryOp::LogAnd,
                                Expr::id("busy_r"),
                                Expr::id("phase_done"),
                            ),
                            then_body: vec![Stmt::If {
                                cond: Expr::bin(
                                    BinaryOp::Eq,
                                    Expr::id("phase_r"),
                                    Expr::lit(pw, last),
                                ),
                                then_body: vec![Stmt::NonBlocking(
                                    Expr::id("busy_r"),
                                    Expr::lit(1, 0),
                                )],
                                else_body: vec![
                                    Stmt::NonBlocking(
                                        Expr::id("phase_r"),
                                        Expr::bin(
                                            BinaryOp::Add,
                                            Expr::id("phase_r"),
                                            Expr::lit(pw, 1),
                                        ),
                                    ),
                                    Stmt::NonBlocking(Expr::id("fire_r"), Expr::lit(1, 1)),
                                ],
                            }],
                            else_body: vec![],
                        }],
                    },
                ],
            }],
        });
        m.item(Item::Assign {
            lhs: Expr::id("phase"),
            rhs: Expr::id("phase_r"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("busy"),
            rhs: Expr::id("busy_r"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("fire"),
            rhs: Expr::id("fire_r"),
        });
        m
    }

    fn cost(&self) -> ResourceCost {
        let pw = self.phase_width();
        ResourceCost::logic(0, adder_luts(pw) + comparator_luts(pw) + 8, pw + 2)
    }

    fn describe(&self) -> String {
        format!("coordinator FSM: {} phases", self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_verilog::{lint_design, CompiledSim, Design, Simulator};
    use proptest::prelude::*;

    #[test]
    fn pattern_addresses_2d() {
        let p = AguPattern {
            start: 100,
            offset: 4,
            x_len: 3,
            y_len: 2,
            x_stride: 1,
            y_stride: 10,
        };
        let addrs: Vec<u64> = p.addresses().collect();
        assert_eq!(addrs, vec![104, 105, 106, 114, 115, 116]);
        assert_eq!(p.footprint(), 6);
    }

    #[test]
    fn linear_pattern() {
        let p = AguPattern::linear(50, 4);
        assert_eq!(p.addresses().collect::<Vec<_>>(), vec![50, 51, 52, 53]);
    }

    #[test]
    fn wrap_step_matches_address_delta() {
        let p = AguPattern {
            start: 0,
            offset: 0,
            x_len: 4,
            y_len: 3,
            x_stride: 2,
            y_stride: 16,
        };
        // Address before wrap: 6 (x=3); after wrap: 16. Delta = 10.
        assert_eq!(p.wrap_step(32), 10);
        let addrs: Vec<u64> = p.addresses().collect();
        assert_eq!(addrs[4] - addrs[3], 10);
    }

    #[test]
    fn wrap_step_negative_wraps_two_complement() {
        let p = AguPattern {
            start: 0,
            offset: 0,
            x_len: 8,
            y_len: 2,
            x_stride: 4,
            y_stride: 1,
        };
        // step = 1 - 28 = -27 -> two's complement in 16 bits
        assert_eq!(p.wrap_step(16), (1u64 << 16) - 27);
    }

    #[test]
    fn agu_rtl_lints_clean() {
        let agu = AguBlock::new(
            AguClass::Data,
            24,
            vec![
                AguPattern::linear(0, 64),
                AguPattern {
                    start: 4096,
                    offset: 0,
                    x_len: 12,
                    y_len: 12,
                    x_stride: 1,
                    y_stride: 57,
                },
            ],
        );
        let report = lint_design(&Design::new(agu.generate()));
        assert!(report.is_clean(), "{report}");
        assert_eq!(agu.module_name(), "agu_data_a24_p2");
    }

    #[test]
    fn chained_main_agu_lints_clean() {
        let agu = AguBlock::new(
            AguClass::Main,
            32,
            vec![
                AguPattern::linear(0, 16),
                AguPattern::linear(256, 8),
                AguPattern::linear(512, 4),
            ],
        );
        assert!(agu.is_chained());
        let report = lint_design(&Design::new(agu.generate()));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn data_agu_is_not_chained() {
        let agu = AguBlock::new(AguClass::Data, 32, vec![AguPattern::linear(0, 4)]);
        assert!(!agu.is_chained());
    }

    #[test]
    fn agu_cost_grows_with_patterns() {
        let one = AguBlock::new(AguClass::Main, 32, vec![AguPattern::linear(0, 8)]).cost();
        let four = AguBlock::new(AguClass::Main, 32, vec![AguPattern::linear(0, 8); 4]).cost();
        assert!(four.lut > one.lut);
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn empty_agu_rejected() {
        let _ = AguBlock::new(AguClass::Main, 32, vec![]);
    }

    #[test]
    fn coordinator_rtl_lints_clean() {
        for phases in [1u32, 2, 7, 64] {
            let c = Coordinator { phases };
            let report = lint_design(&Design::new(c.generate()));
            assert!(report.is_clean(), "phases={phases}: {report}");
        }
    }

    #[test]
    fn coordinator_widths() {
        assert_eq!(Coordinator { phases: 1 }.phase_width(), 1);
        assert_eq!(Coordinator { phases: 2 }.phase_width(), 1);
        assert_eq!(Coordinator { phases: 3 }.phase_width(), 2);
        assert_eq!(Coordinator { phases: 64 }.phase_width(), 6);
    }

    #[test]
    fn agu_class_tags() {
        assert_eq!(AguClass::Main.tag(), "main");
        assert_eq!(AguClass::Data.tag(), "data");
        assert_eq!(AguClass::Weight.tag(), "weight");
    }

    #[test]
    fn counter_width_scales_with_trip_count() {
        let small = AguBlock::new(AguClass::Data, 32, vec![AguPattern::linear(0, 4)]);
        assert_eq!(small.counter_width(), 16);
        let big = AguBlock::new(AguClass::Weight, 32, vec![AguPattern::linear(0, 70_000)]);
        assert_eq!(big.counter_width(), 17);
        let tall = AguBlock::new(
            AguClass::Data,
            32,
            vec![AguPattern {
                start: 0,
                offset: 0,
                x_len: 2,
                y_len: 100_000,
                x_stride: 1,
                y_stride: 2,
            }],
        );
        assert_eq!(tall.counter_width(), 17);
    }

    /// The 64Ki boundary, exactly: a pattern of `2^16` trips still fits a
    /// 16-bit counter (the terminal comparison is against `x_len - 1 =
    /// 0xFFFF`), and one more trip is what forces the 17th bit. An
    /// off-by-one in either direction re-opens the truncated-burst bug.
    #[test]
    fn counter_width_is_exact_at_the_64ki_boundary() {
        let width_for = |trips: u32| {
            AguBlock::new(AguClass::Weight, 32, vec![AguPattern::linear(0, trips)]).counter_width()
        };
        assert_eq!(width_for((1 << 16) - 1), 16, "max count 0xFFFE fits");
        assert_eq!(width_for(1 << 16), 16, "max count 0xFFFF still fits");
        assert_eq!(
            width_for((1 << 16) + 1),
            17,
            "max count 0x10000 needs bit 16"
        );
        // The y counter shares the width derivation.
        let tall = AguBlock::new(
            AguClass::Data,
            32,
            vec![AguPattern {
                start: 0,
                offset: 0,
                x_len: 1,
                y_len: (1 << 16) + 1,
                x_stride: 1,
                y_stride: 1,
            }],
        );
        assert_eq!(tall.counter_width(), 17);
    }

    /// Elaborates and resets a block; a flow-controlled AGU starts with
    /// `ready` high (a memory that accepts every transaction at once).
    fn elaborate(block: &dyn Block) -> CompiledSim {
        let mut sim = CompiledSim::compile(&Design::new(block.generate()), &block.module_name())
            .expect("elaborates");
        if sim.signal_width("ready").is_some() {
            sim.poke("ready", 1).unwrap();
        }
        sim.poke("rst", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("rst", 0).unwrap();
        sim
    }

    /// Streams `addr` while `valid` is high (bounded to catch runaways),
    /// presenting each launching pattern's offset on a chained AGU as the
    /// top level does through its context offset ROM.
    fn drain(sim: &mut CompiledSim, agu: &AguBlock, bound: usize) -> Vec<u64> {
        let mut got = Vec::new();
        for _ in 0..bound {
            if sim.read("valid").unwrap() == 0 {
                break;
            }
            got.push(sim.read("addr").unwrap());
            present_offset(sim, agu);
            sim.clock().unwrap();
        }
        assert_eq!(sim.read("done").unwrap(), 1, "done after the stream");
        got
    }

    fn present_offset(sim: &mut CompiledSim, agu: &AguBlock) {
        if agu.is_chained() {
            let next = sim.read("pat_next").unwrap() as usize;
            let off = agu.patterns.get(next).map_or(0, |p| p.offset);
            sim.poke("offset", off & mask(agu.addr_width)).unwrap();
        }
    }

    fn model(agu: &AguBlock, patterns: &[AguPattern]) -> Vec<u64> {
        patterns
            .iter()
            .flat_map(AguPattern::addresses)
            .map(|a| a & mask(agu.addr_width))
            .collect()
    }

    /// Fires each pattern alone and checks the RTL stream against
    /// [`AguPattern::addresses`].
    fn check_each_pattern(agu: &AguBlock) {
        let mut sim = elaborate(agu);
        for (i, p) in agu.patterns.iter().enumerate() {
            sim.poke("trigger", 1 << i).unwrap();
            present_offset(&mut sim, agu);
            sim.clock().unwrap();
            sim.poke("trigger", 0).unwrap();
            let want = model(agu, std::slice::from_ref(p));
            let got = drain(&mut sim, agu, want.len() * 2 + 8);
            assert_eq!(got, want, "pattern {i} of {agu:?}");
        }
    }

    #[test]
    fn agu_rtl_streams_each_pattern() {
        let window = AguPattern {
            start: 4096,
            offset: 12,
            x_len: 5,
            y_len: 5,
            x_stride: 1,
            y_stride: 57,
        };
        check_each_pattern(&AguBlock::new(
            AguClass::Main,
            32,
            vec![AguPattern::linear(100, 16), window],
        ));
        check_each_pattern(&AguBlock::new(
            AguClass::Weight,
            24,
            vec![
                AguPattern::linear(0, 7),
                AguPattern {
                    start: 64,
                    offset: 0,
                    x_len: 3,
                    y_len: 4,
                    x_stride: 2,
                    y_stride: 32,
                },
                AguPattern {
                    start: 1000,
                    offset: 24,
                    x_len: 8,
                    y_len: 2,
                    x_stride: 4,
                    y_stride: 1, // negative wrap step
                },
            ],
        ));
    }

    /// One trigger word fires every pattern of a chained (main) AGU: the
    /// RTL streams the whole set back to back, lowest bit first, adding
    /// each pattern's own runtime offset at launch.
    #[test]
    fn chained_main_agu_streams_whole_trigger_word() {
        let agu = AguBlock::new(
            AguClass::Main,
            32,
            vec![
                AguPattern::linear(0, 9),
                AguPattern {
                    start: 640,
                    offset: 128,
                    x_len: 4,
                    y_len: 2,
                    x_stride: 1,
                    y_stride: 16,
                },
                AguPattern {
                    start: 2048,
                    offset: 32,
                    x_len: 5,
                    y_len: 1,
                    x_stride: 1,
                    y_stride: 0,
                },
            ],
        );
        let mut sim = elaborate(&agu);
        sim.poke("trigger", 0b111).unwrap();
        present_offset(&mut sim, &agu);
        sim.clock().unwrap();
        sim.poke("trigger", 0).unwrap();
        let want = model(&agu, &agu.patterns);
        let got = drain(&mut sim, &agu, want.len() * 2 + 24);
        assert_eq!(got, want);
    }

    /// Walks the coordinator through every phase: `fire` pulses for one
    /// cycle on entry to each phase, `phase` counts up by one per
    /// `phase_done`, and `busy` drops after the last.
    fn check_coordinator_walk(phases: u32) {
        let c = Coordinator { phases };
        let mut sim = elaborate(&c);
        assert_eq!(sim.read("busy").unwrap(), 0, "idle after reset");
        sim.poke("start", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("start", 0).unwrap();
        for phase in 0..u64::from(phases) {
            if phase > 0 {
                sim.poke("phase_done", 1).unwrap();
                sim.clock().unwrap();
                sim.poke("phase_done", 0).unwrap();
            }
            let state = ["busy", "fire", "phase"].map(|s| sim.read(s).unwrap());
            assert_eq!(state, [1, 1, phase], "{phases} phases: entry to {phase}");
            sim.clock().unwrap();
            assert_eq!(sim.read("fire").unwrap(), 0, "fire is one cycle");
        }
        sim.poke("phase_done", 1).unwrap();
        sim.clock().unwrap();
        assert_eq!(sim.read("busy").unwrap(), 0, "{phases} phases: done");
    }

    #[test]
    fn coordinator_rtl_walks_schedule() {
        for phases in [1, 2, 5, 17] {
            check_coordinator_walk(phases);
        }
    }

    fn arb_pattern() -> impl Strategy<Value = AguPattern> {
        (
            0u64..100_000,
            0u64..256,
            1u32..24,
            1u32..12,
            1u64..8,
            0u64..512,
        )
            .prop_map(
                |(start, offset, x_len, y_len, x_stride, y_stride)| AguPattern {
                    start,
                    offset,
                    x_len,
                    y_len,
                    x_stride,
                    y_stride,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random pattern sets, negative wrap steps included (`y_stride`
        /// below `(x_len - 1) * x_stride`), stream exactly the model.
        #[test]
        fn random_agu_patterns_stream_the_model(
            patterns in proptest::collection::vec(arb_pattern(), 1..4)
        ) {
            check_each_pattern(&AguBlock::new(AguClass::Data, 32, patterns));
        }

        /// A main AGU under random `ready` back-pressure streams exactly
        /// the model's `(addr, len)` rows: it holds each address until
        /// `ready` accepts it, flags the pattern's last row for the tail
        /// length, and keeps `pat_next` (and so the offset the top
        /// presents) right while stalled. `ready` also drops on the launch
        /// cycle and on the first cycle each pattern's last row waits,
        /// where the chained launch of the next pattern is pending.
        #[test]
        fn ready_gated_main_agu_streams_the_model(
            patterns in proptest::collection::vec(arb_pattern(), 1..4),
            tails in proptest::collection::vec(1u32..9, 3..4),
            readiness in proptest::collection::vec(0u8..3, 1..24),
            launch_ready in 0u8..2,
        ) {
            let width = 8u32;
            let agu = AguBlock::new(AguClass::Main, 32, patterns);
            let model: Vec<(u64, u32)> = agu
                .patterns
                .iter()
                .zip(&tails)
                .flat_map(|(p, &t)| p.rows(width, t))
                .map(|(a, len)| (a & mask(32), len))
                .collect();
            let mut sim = elaborate(&agu);
            let all = mask(agu.patterns.len() as u32);
            sim.poke("trigger", all).unwrap();
            sim.poke("ready", u64::from(launch_ready)).unwrap();
            present_offset(&mut sim, &agu);
            sim.clock().unwrap();
            sim.poke("trigger", 0).unwrap();
            // A high entry in every period bounds each stall.
            let mut readiness = readiness;
            readiness.push(1);
            let mut got = Vec::new();
            let mut dropped_at_last: Option<u64> = None;
            for cycle in 0..model.len() * (readiness.len() + 2) + 16 {
                if sim.read("valid").unwrap() == 0 {
                    break;
                }
                let pat = sim.read("pat_cur").unwrap();
                let last = sim.read("last").unwrap() == 1;
                // Low on the first cycle of each pattern's last row, then
                // the random pattern (0 = low, 1 or 2 = high).
                let ready = if last && dropped_at_last != Some(pat) {
                    dropped_at_last = Some(pat);
                    false
                } else {
                    readiness[cycle % readiness.len()] > 0
                };
                sim.poke("ready", u64::from(ready)).unwrap();
                present_offset(&mut sim, &agu);
                if ready {
                    let len = if last { tails[pat as usize] } else { width };
                    got.push((sim.read("addr").unwrap(), len));
                }
                sim.clock().unwrap();
            }
            prop_assert_eq!(sim.read("done").unwrap(), 1);
            prop_assert_eq!(got, model);
        }

        #[test]
        fn random_coordinators_walk_their_schedule(phases in 1u32..40) {
            check_coordinator_walk(phases);
        }
    }

    /// Regression for the first marshalling bug the full-network RTL run
    /// surfaced: with fixed 16-bit trip counters, a burst longer than
    /// 64Ki addresses (a large FC weight fetch) terminated early because
    /// the `x_cnt == x_len-1` literal truncated. The generated AGU must
    /// stream *every* address of an oversized pattern.
    #[test]
    fn oversized_burst_streams_to_completion() {
        let x_len: u32 = (1 << 16) + 50;
        let agu = AguBlock::new(AguClass::Weight, 32, vec![AguPattern::linear(0x100, x_len)]);
        let design = Design::new(agu.generate());
        let mut sim = CompiledSim::compile(&design, &agu.module_name()).expect("elaborates");
        sim.poke("rst", 1).unwrap();
        sim.poke("trigger", 0).unwrap();
        sim.clock().unwrap();
        sim.poke("rst", 0).unwrap();
        sim.poke("trigger", 1).unwrap();
        sim.clock().unwrap();
        sim.poke("trigger", 0).unwrap();
        let mut streamed = 0u64;
        let mut last_addr = 0u64;
        for _ in 0..(u64::from(x_len) + 8) {
            if sim.read("valid").unwrap() == 1 {
                streamed += 1;
                last_addr = sim.read("addr").unwrap();
            }
            if sim.read("done").unwrap() == 1 {
                break;
            }
            sim.clock().unwrap();
        }
        assert_eq!(streamed, u64::from(x_len), "burst truncated");
        assert_eq!(last_addr, 0x100 + u64::from(x_len) - 1);
    }
}
