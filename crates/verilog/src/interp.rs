//! The tree-walking interpreter: the test oracle for
//! [`CompiledSim`](crate::CompiledSim).
//!
//! It re-walks every continuous assign to a fixed point after each poke
//! and clock edge and resolves signals by hierarchical name — slow, but
//! plain enough to read as the semantics of the emitted Verilog subset:
//! * two-state logic (no X/Z) on vectors of at most 64 bits;
//! * continuous assigns re-evaluated to a fixed point each step;
//! * `always @(posedge clk)` blocks with non-blocking assignment
//!   semantics (all RHS evaluated against pre-edge state);
//! * `reg` memories with word read/write;
//! * module instances flattened recursively at construction.
//!
//! The random-netlist proptest in `compile` and the pinned-value tests
//! drive it beside the compiled engine through [`Simulator`]
//! ([`both_engines`]).

use crate::ast::*;
use crate::simulator::{
    err, flatten_design, mask, not_input, InterpStats, SignalId, SimulateError, Simulator,
};
use crate::vcd::VcdRecorder;
use crate::CompiledSim;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Value {
    Scalar(u64),
    Memory(Vec<u64>),
}

#[derive(Debug, Clone)]
struct Signal {
    width: u32,
    value: Value,
}

/// A flattened, executable instance of a [`Design`]'s module.
#[derive(Debug)]
pub(crate) struct Interpreter {
    signals: BTreeMap<String, Signal>,
    /// Continuous assigns, flattened, in declaration order.
    assigns: Vec<(Expr, Expr)>,
    /// `(clock name, body)` for every flattened posedge block.
    clocked: Vec<(String, Vec<Stmt>)>,
    /// Signal names in `signals` order; a [`SignalId`] indexes this.
    names: Vec<String>,
    /// Whether each signal (indexed like `names`) is a top-level input.
    input: Vec<bool>,
    cycles: u64,
    stats: InterpStats,
    /// Active waveform recorder and the dumped signal names in recorder
    /// order.
    vcd: Option<Box<VcdRecorder>>,
    vcd_names: Vec<String>,
}

/// Elaborates `top` on both engines, tagged for assertion messages: the
/// compiled engine under test and this oracle.
pub(crate) fn both_engines(design: &Design, top: &str) -> [(&'static str, Box<dyn Simulator>); 2] {
    [
        (
            "compiled",
            Box::new(CompiledSim::compile(design, top).expect("compile")),
        ),
        (
            "tree",
            Box::new(Interpreter::elaborate(design, top).expect("tree elab")),
        ),
    ]
}

impl Interpreter {
    /// Flattens `top` (instantiating submodules recursively) into an
    /// executable state machine. All signals start at zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError`] on unknown modules, unbound output ports
    /// connected to non-identifiers, signals wider than 64 bits, or
    /// assigns that do not settle.
    pub(crate) fn elaborate(design: &Design, top: &str) -> Result<Self, SimulateError> {
        let flat = flatten_design(design, top)?;
        let signals: BTreeMap<String, Signal> = flat
            .signals
            .iter()
            .map(|sig| {
                let value = match sig.depth {
                    Some(d) => Value::Memory(vec![0; d]),
                    None => Value::Scalar(0),
                };
                (
                    sig.name.clone(),
                    Signal {
                        width: sig.width,
                        value,
                    },
                )
            })
            .collect();
        let names: Vec<String> = signals.keys().cloned().collect();
        let input = names.iter().map(|n| flat.inputs.contains(n)).collect();
        let mut interp = Interpreter {
            signals,
            assigns: flat.assigns,
            clocked: flat.clocked,
            names,
            input,
            cycles: 0,
            stats: InterpStats::default(),
            vcd: None,
            vcd_names: Vec::new(),
        };
        interp.settle()?;
        Ok(interp)
    }

    fn eval(&self, e: &Expr) -> Result<(u64, u32), SimulateError> {
        Ok(match e {
            Expr::Id(n) => {
                let s = self
                    .signals
                    .get(n)
                    .ok_or_else(|| err(format!("unknown signal `{n}`")))?;
                match &s.value {
                    Value::Scalar(v) => (*v & mask(s.width), s.width),
                    Value::Memory(_) => {
                        return Err(err(format!("memory `{n}` read without index")))
                    }
                }
            }
            Expr::Lit { width, value } => (*value & mask(*width), *width),
            Expr::Unary(op, a) => {
                let (v, w) = self.eval(a)?;
                match op {
                    UnaryOp::Not => (u64::from(v == 0), 1),
                    UnaryOp::BitNot => (!v & mask(w), w),
                    UnaryOp::Neg => (v.wrapping_neg() & mask(w), w),
                    UnaryOp::RedOr => (u64::from(v != 0), 1),
                    UnaryOp::RedAnd => (u64::from(v == mask(w)), 1),
                }
            }
            Expr::Binary(op, l, r) => {
                let (lv, lw) = self.eval(l)?;
                let (rv, rw) = self.eval(r)?;
                let w = lw.max(rw);
                let m = mask(w);
                let signed = |v: u64, w: u32| -> i64 {
                    let m = mask(w);
                    let v = v & m;
                    if w < 64 && v >> (w - 1) != 0 {
                        (v | !m) as i64
                    } else {
                        v as i64
                    }
                };
                match op {
                    BinaryOp::Add => (lv.wrapping_add(rv) & m, w),
                    BinaryOp::Sub => (lv.wrapping_sub(rv) & m, w),
                    BinaryOp::Mul => (lv.wrapping_mul(rv) & m, w),
                    BinaryOp::Div => {
                        // `$signed` division truncating toward zero. Division
                        // by zero yields 0 — the two-state stand-in for `x`.
                        let d = signed(rv, rw);
                        let q = if d == 0 {
                            0
                        } else {
                            signed(lv, lw).wrapping_div(d)
                        };
                        ((q as u64) & m, w)
                    }
                    BinaryOp::And => (lv & rv, w),
                    BinaryOp::Or => (lv | rv, w),
                    BinaryOp::Xor => (lv ^ rv, w),
                    // Shifting by 64 or more moves every bit out.
                    BinaryOp::Shl => ((if rv < 64 { lv << rv } else { 0 }) & mask(lw), lw),
                    BinaryOp::Shr => {
                        // Arithmetic shift on the left operand's width;
                        // 64 or more fills with the sign, as 63 does.
                        let sv = signed(lv, lw) >> rv.min(63);
                        ((sv as u64) & mask(lw), lw)
                    }
                    BinaryOp::Eq => (u64::from((lv & m) == (rv & m)), 1),
                    BinaryOp::Ne => (u64::from((lv & m) != (rv & m)), 1),
                    BinaryOp::Lt => (u64::from(lv < rv), 1),
                    BinaryOp::Slt => (u64::from(signed(lv, lw) < signed(rv, rw)), 1),
                    BinaryOp::Ge => (u64::from(lv >= rv), 1),
                    BinaryOp::LogAnd => (u64::from(lv != 0 && rv != 0), 1),
                    BinaryOp::LogOr => (u64::from(lv != 0 || rv != 0), 1),
                }
            }
            Expr::Ternary(c, a, b) => {
                let (cv, _) = self.eval(c)?;
                if cv != 0 {
                    self.eval(a)?
                } else {
                    self.eval(b)?
                }
            }
            Expr::Index(base, idx) => {
                let root = base
                    .lvalue_root()
                    .ok_or_else(|| err("index on a non-identifier"))?;
                let (i, _) = self.eval(idx)?;
                let s = self
                    .signals
                    .get(root)
                    .ok_or_else(|| err(format!("unknown signal `{root}`")))?;
                match &s.value {
                    Value::Memory(words) => {
                        let v = words.get(i as usize).copied().unwrap_or(0);
                        (v & mask(s.width), s.width)
                    }
                    // Two-state Verilog reads 0 past the width.
                    Value::Scalar(v) if i < u64::from(s.width) => ((v >> i) & 1, 1),
                    Value::Scalar(_) => (0, 1),
                }
            }
            Expr::Slice(base, hi, lo) => {
                let (v, _) = self.eval(base)?;
                let w = hi - lo + 1;
                ((v >> lo) & mask(w), w)
            }
            Expr::Concat(es) => {
                let mut acc = 0u64;
                let mut total = 0u32;
                for part in es {
                    let (v, w) = self.eval(part)?;
                    // A 64-bit part shifts every earlier bit out.
                    acc = acc.checked_shl(w).unwrap_or(0) | (v & mask(w));
                    total += w;
                }
                (acc & mask(total), total)
            }
        })
    }

    /// Writes `value` to `lhs`, returning `false` when the write is
    /// ignored: a bit or word index out of range, or a slice of a memory.
    fn write_signal(&mut self, lhs: &Expr, value: u64) -> Result<bool, SimulateError> {
        match lhs {
            Expr::Id(n) => {
                let s = self
                    .signals
                    .get_mut(n)
                    .ok_or_else(|| err(format!("unknown signal `{n}`")))?;
                let w = s.width;
                match &mut s.value {
                    Value::Scalar(slot) => *slot = value & mask(w),
                    Value::Memory(_) => {
                        return Err(err(format!("memory `{n}` written without index")))
                    }
                }
            }
            Expr::Index(base, idx) => {
                let root = base
                    .lvalue_root()
                    .ok_or_else(|| err("index write on a non-identifier"))?
                    .to_string();
                let (i, _) = self.eval(idx)?;
                let s = self
                    .signals
                    .get_mut(&root)
                    .ok_or_else(|| err(format!("unknown signal `{root}`")))?;
                let w = s.width;
                match &mut s.value {
                    Value::Memory(words) => match words.get_mut(i as usize) {
                        Some(slot) => *slot = value & mask(w),
                        None => return Ok(false),
                    },
                    // Two-state Verilog ignores a write past the width.
                    Value::Scalar(_) if i >= u64::from(w) => return Ok(false),
                    Value::Scalar(slot) => {
                        *slot = (*slot & !(1 << i)) | ((value & 1) << i);
                    }
                }
            }
            Expr::Slice(base, hi, lo) => {
                let root = base
                    .lvalue_root()
                    .ok_or_else(|| err("slice write on a non-identifier"))?
                    .to_string();
                let s = self
                    .signals
                    .get_mut(&root)
                    .ok_or_else(|| err(format!("unknown signal `{root}`")))?;
                match &mut s.value {
                    Value::Scalar(slot) => {
                        let field = mask(hi - lo + 1);
                        *slot = (*slot & !(field << lo)) | ((value & field) << lo);
                    }
                    Value::Memory(_) => return Ok(false),
                }
            }
            _ => return Err(err("assignment to a non-lvalue")),
        }
        Ok(true)
    }

    /// Re-evaluates continuous assigns until the net values stop changing.
    fn settle(&mut self) -> Result<(), SimulateError> {
        for _ in 0..(self.assigns.len() + 2) {
            let mut changed = false;
            let assigns = self.assigns.clone();
            self.stats.settle_passes += 1;
            self.stats.assign_evals += assigns.len() as u64;
            for (lhs, rhs) in &assigns {
                let (v, _) = self.eval(rhs)?;
                // Compared at the destination's width, so a truncating
                // assign settles; an ignored write (index out of range)
                // changes nothing, as in the compiled engine.
                let unchanged =
                    matches!(self.eval_lhs_current(lhs), Some((now, w)) if now == v & mask(w));
                if !unchanged && self.write_signal(lhs, v)? {
                    changed = true;
                }
            }
            if !changed {
                return Ok(());
            }
        }
        Err(err("combinational loop: assigns did not settle"))
    }

    /// What an assign's destination holds now, with its width; `None`
    /// for a non-lvalue (whose write reports the error).
    fn eval_lhs_current(&self, lhs: &Expr) -> Option<(u64, u32)> {
        match lhs {
            Expr::Id(_) | Expr::Index(_, _) | Expr::Slice(_, _, _) => {
                Some(self.eval(lhs).unwrap_or((0, 64)))
            }
            _ => None,
        }
    }

    fn run_stmts(&self, stmts: &[Stmt], nba: &mut Vec<(Expr, u64)>) -> Result<(), SimulateError> {
        for s in stmts {
            match s {
                Stmt::NonBlocking(lhs, rhs) => {
                    let (v, _) = self.eval(rhs)?;
                    nba.push((lhs.clone(), v));
                }
                Stmt::Blocking(lhs, rhs) => {
                    // Treated as NBA too: the generated code never relies
                    // on intra-block ordering.
                    let (v, _) = self.eval(rhs)?;
                    nba.push((lhs.clone(), v));
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let (c, _) = self.eval(cond)?;
                    if c != 0 {
                        self.run_stmts(then_body, nba)?;
                    } else {
                        self.run_stmts(else_body, nba)?;
                    }
                }
                Stmt::Case {
                    subject,
                    arms,
                    default,
                } => {
                    let (sv, sw) = self.eval(subject)?;
                    let mut hit = false;
                    for (m, body) in arms {
                        let (mv, _) = self.eval(m)?;
                        if (mv & mask(sw)) == sv {
                            self.run_stmts(body, nba)?;
                            hit = true;
                            break;
                        }
                    }
                    if !hit {
                        self.run_stmts(default, nba)?;
                    }
                }
                Stmt::Comment(_) => {}
            }
        }
        Ok(())
    }

    fn vcd_capture(&mut self) {
        if let Some(mut rec) = self.vcd.take() {
            let values: Vec<u64> = self
                .vcd_names
                .iter()
                .map(|n| match self.signals.get(n).map(|s| (&s.value, s.width)) {
                    Some((Value::Scalar(v), w)) => *v & mask(w),
                    _ => 0,
                })
                .collect();
            rec.sample(&values);
            self.vcd = Some(rec);
        }
    }
}

impl Simulator for Interpreter {
    /// Ids index the sorted signal names.
    fn signal(&self, name: &str) -> Result<SignalId, SimulateError> {
        let i = self
            .names
            .binary_search_by(|n| n.as_str().cmp(name))
            .map_err(|_| err(format!("unknown signal `{name}`")))?;
        match self.signals[name].value {
            Value::Scalar(_) => Ok(SignalId::new(i)),
            Value::Memory(_) => Err(err(format!("memory `{name}` read without index"))),
        }
    }

    fn get(&self, id: SignalId) -> u64 {
        let s = &self.signals[&self.names[id.index()]];
        match s.value {
            Value::Scalar(v) => v & mask(s.width),
            Value::Memory(_) => 0,
        }
    }

    fn set(&mut self, id: SignalId, value: u64) -> Result<(), SimulateError> {
        let name = &self.names[id.index()];
        if !self.input[id.index()] {
            return Err(not_input(name));
        }
        let s = self.signals.get_mut(name).expect("ids name signals");
        s.value = Value::Scalar(value & mask(s.width));
        self.settle()
    }

    fn load_memory(&mut self, name: &str, words: &[u64]) -> Result<(), SimulateError> {
        let s = self
            .signals
            .get_mut(name)
            .ok_or_else(|| err(format!("unknown signal `{name}`")))?;
        let w = s.width;
        match &mut s.value {
            Value::Memory(slots) => {
                for (slot, word) in slots.iter_mut().zip(words) {
                    *slot = word & mask(w);
                }
                Ok(())
            }
            Value::Scalar(_) => Err(err(format!("`{name}` is not a memory"))),
        }
    }

    fn clock_named(&mut self, clk: &str) -> Result<(), SimulateError> {
        let mut nba: Vec<(Expr, u64)> = Vec::new();
        let blocks = self.clocked.clone();
        for (block_clk, body) in &blocks {
            if block_clk == clk {
                self.run_stmts(body, &mut nba)?;
            }
        }
        self.stats.nba_writes += nba.len() as u64;
        for (lhs, v) in nba {
            self.write_signal(&lhs, v)?;
        }
        self.cycles += 1;
        self.stats.clock_edges += 1;
        self.settle()?;
        self.vcd_capture();
        Ok(())
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn stats(&self) -> InterpStats {
        self.stats
    }

    fn vcd_begin(&mut self, top: &str) {
        let signals: Vec<(String, u32)> = self
            .signals
            .iter()
            .filter(|(_, s)| matches!(s.value, Value::Scalar(_)))
            .map(|(name, s)| (name.clone(), s.width))
            .collect();
        self.vcd_names = signals.iter().map(|(n, _)| n.clone()).collect();
        self.vcd = Some(Box::new(VcdRecorder::new(top, &signals, 10)));
        self.vcd_capture();
    }

    fn vcd_end(&mut self) -> Option<String> {
        self.vcd_names.clear();
        self.vcd.take().and_then(|rec| rec.finish())
    }

    fn vcd_timesteps(&self) -> u64 {
        self.vcd.as_ref().map(|r| r.timesteps()).unwrap_or(0)
    }
}

/// Each test runs on both engines: the oracle's own semantics and the
/// compiled engine's are pinned to the same values.
#[cfg(test)]
mod tests {
    use super::*;

    fn counter(width: u32) -> VModule {
        let mut m = VModule::new("counter");
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::output("q", width));
        m.item(Item::Net(NetDecl::reg("count", width)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("rst"),
                then_body: vec![Stmt::NonBlocking(Expr::id("count"), Expr::lit(width, 0))],
                else_body: vec![Stmt::NonBlocking(
                    Expr::id("count"),
                    Expr::bin(BinaryOp::Add, Expr::id("count"), Expr::lit(width, 1)),
                )],
            }],
        });
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("count"),
        });
        m
    }

    /// `top` instantiates [`counter`] as `u0` and reads its output through
    /// an adder (`total = q0 + q0`), so the top holds one real assign.
    fn counter_in_top() -> Design {
        let mut top = VModule::new("top");
        top.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::output("total", 8));
        top.item(Item::Net(NetDecl::wire("q0", 8)));
        top.item(Item::Instance {
            module: "counter".into(),
            name: "u0".into(),
            params: vec![],
            connections: vec![
                ("clk".into(), Expr::id("clk")),
                ("rst".into(), Expr::id("rst")),
                ("q".into(), Expr::id("q0")),
            ],
        });
        top.item(Item::Assign {
            lhs: Expr::id("total"),
            rhs: Expr::bin(BinaryOp::Add, Expr::id("q0"), Expr::id("q0")),
        });
        let mut d = Design::new(top);
        d.add_module(counter(8));
        d
    }

    #[test]
    fn counter_counts_and_wraps() {
        for (engine, mut sim) in both_engines(&Design::new(counter(3)), "counter") {
            for expected in 1..=7u64 {
                sim.clock().expect("clock");
                assert_eq!(sim.read("q").expect("read"), expected, "{engine}");
            }
            sim.clock().expect("clock");
            assert_eq!(sim.read("q").expect("read"), 0, "{engine}: 3-bit wrap");
        }
    }

    #[test]
    fn reset_dominates() {
        for (engine, mut sim) in both_engines(&Design::new(counter(8)), "counter") {
            sim.clock().expect("clock");
            sim.clock().expect("clock");
            sim.poke("rst", 1).expect("poke");
            sim.clock().expect("clock");
            assert_eq!(sim.read("q").expect("read"), 0, "{engine}");
            sim.poke("rst", 0).expect("poke");
            sim.clock().expect("clock");
            assert_eq!(sim.read("q").expect("read"), 1, "{engine}");
        }
    }

    #[test]
    fn nonblocking_semantics_swap() {
        // a <= b; b <= a; must swap, not duplicate. `ld` loads both
        // registers from the inputs first.
        let mut m = VModule::new("swap");
        m.port(Port::input("clk", 1))
            .port(Port::input("ld", 1))
            .port(Port::input("a_in", 4))
            .port(Port::input("b_in", 4))
            .port(Port::output("a_out", 4))
            .port(Port::output("b_out", 4));
        m.item(Item::Net(NetDecl::reg("a", 4)));
        m.item(Item::Net(NetDecl::reg("b", 4)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("ld"),
                then_body: vec![
                    Stmt::NonBlocking(Expr::id("a"), Expr::id("a_in")),
                    Stmt::NonBlocking(Expr::id("b"), Expr::id("b_in")),
                ],
                else_body: vec![
                    Stmt::NonBlocking(Expr::id("a"), Expr::id("b")),
                    Stmt::NonBlocking(Expr::id("b"), Expr::id("a")),
                ],
            }],
        });
        for (out, reg) in [("a_out", "a"), ("b_out", "b")] {
            m.item(Item::Assign {
                lhs: Expr::id(out),
                rhs: Expr::id(reg),
            });
        }
        for (engine, mut sim) in both_engines(&Design::new(m), "swap") {
            sim.poke("a_in", 3).expect("poke");
            sim.poke("b_in", 9).expect("poke");
            sim.poke("ld", 1).expect("poke");
            sim.clock().expect("clock");
            sim.poke("ld", 0).expect("poke");
            for (a, b) in [(9, 3), (3, 9)] {
                sim.clock().expect("clock");
                assert_eq!(sim.read("a_out").expect("read"), a, "{engine}");
                assert_eq!(sim.read("b_out").expect("read"), b, "{engine}");
            }
        }
    }

    #[test]
    fn memory_read_write() {
        let mut m = VModule::new("ram");
        m.port(Port::input("clk", 1))
            .port(Port::input("we", 1))
            .port(Port::input("addr", 4))
            .port(Port::input("din", 8))
            .port(Port::output("dout", 8));
        m.item(Item::Net(NetDecl::memory("mem", 8, 16)));
        m.item(Item::Net(NetDecl::reg("dout_r", 8)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![
                Stmt::If {
                    cond: Expr::id("we"),
                    then_body: vec![Stmt::NonBlocking(
                        Expr::Index(Box::new(Expr::id("mem")), Box::new(Expr::id("addr"))),
                        Expr::id("din"),
                    )],
                    else_body: vec![],
                },
                Stmt::NonBlocking(
                    Expr::id("dout_r"),
                    Expr::Index(Box::new(Expr::id("mem")), Box::new(Expr::id("addr"))),
                ),
            ],
        });
        m.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: Expr::id("dout_r"),
        });
        for (engine, mut sim) in both_engines(&Design::new(m), "ram") {
            sim.poke("we", 1).expect("poke");
            sim.poke("addr", 5).expect("poke");
            sim.poke("din", 0xAB).expect("poke");
            sim.clock().expect("clock");
            sim.poke("we", 0).expect("poke");
            sim.clock().expect("clock");
            assert_eq!(sim.read("dout").expect("read"), 0xAB, "{engine}");
        }
    }

    #[test]
    fn hierarchy_flattens_and_connects() {
        for (engine, mut sim) in both_engines(&counter_in_top(), "top") {
            sim.clock().expect("clock");
            sim.clock().expect("clock");
            sim.clock().expect("clock");
            assert_eq!(sim.read("q0").expect("read"), 3, "{engine}");
            assert_eq!(sim.read("total").expect("read"), 6, "{engine}");
            // Hierarchical read of the inner register.
            assert_eq!(sim.read("u0.count").expect("read"), 3, "{engine}");
        }
    }

    #[test]
    fn load_memory_backdoor() {
        let mut m = VModule::new("rom");
        m.port(Port::input("addr", 2)).port(Port::output("data", 8));
        m.item(Item::Net(NetDecl::memory("content", 8, 4)));
        m.item(Item::Assign {
            lhs: Expr::id("data"),
            rhs: Expr::Index(Box::new(Expr::id("content")), Box::new(Expr::id("addr"))),
        });
        for (engine, mut sim) in both_engines(&Design::new(m), "rom") {
            sim.load_memory("content", &[10, 20, 30, 40]).expect("load");
            for (a, v) in [(0u64, 10u64), (1, 20), (2, 30), (3, 40)] {
                sim.poke("addr", a).expect("poke");
                assert_eq!(sim.read("data").expect("read"), v, "{engine}");
            }
            let e = sim.load_memory("addr", &[1]).expect_err("scalar");
            assert_eq!(e.message, "`addr` is not a memory", "{engine}");
        }
    }

    #[test]
    fn arithmetic_shift_is_signed() {
        let mut m = VModule::new("shifter");
        m.port(Port::input("x", 8)).port(Port::output("y", 8));
        m.item(Item::Assign {
            lhs: Expr::id("y"),
            rhs: Expr::bin(BinaryOp::Shr, Expr::id("x"), Expr::lit(8, 1)),
        });
        for (engine, mut sim) in both_engines(&Design::new(m), "shifter") {
            sim.poke("x", 0b1000_0000).expect("poke"); // -128
            assert_eq!(sim.read("y").expect("read"), 0b1100_0000, "{engine}"); // -64
            sim.poke("x", 8).expect("poke");
            assert_eq!(sim.read("y").expect("read"), 4, "{engine}");
        }
    }

    #[test]
    fn stats_count_edges_and_evals() {
        for (engine, mut sim) in both_engines(&counter_in_top(), "top") {
            let after_elab = sim.stats();
            assert!(
                after_elab.settle_passes > 0,
                "{engine}: elaboration settles"
            );
            for _ in 0..5 {
                sim.clock().expect("clock");
            }
            let s = sim.stats();
            assert_eq!(s.clock_edges, 5, "{engine}");
            assert_eq!(sim.cycles(), 5, "{engine}");
            assert_eq!(s.nba_writes, 5, "{engine}");
            assert!(s.assign_evals > after_elab.assign_evals, "{engine}");
            assert_eq!(s.evals(), s.assign_evals + s.nba_writes, "{engine}");
        }
    }

    #[test]
    fn vcd_records_cycles_and_header() {
        for (engine, mut sim) in both_engines(&Design::new(counter(4)), "counter") {
            sim.vcd_begin("counter");
            for _ in 0..7 {
                sim.clock().expect("clock");
            }
            // Initial dump + one timestep per clock edge.
            assert_eq!(sim.vcd_timesteps(), 1 + sim.cycles(), "{engine}");
            let vcd = sim.vcd_end().expect("recording was active");
            assert!(sim.vcd_end().is_none(), "{engine}: recording stops");
            assert_eq!(sim.vcd_timesteps(), 0, "{engine}");
            assert!(vcd.starts_with("$date"), "{engine}: {vcd}");
            assert!(vcd.contains("$timescale 1 ns $end"), "{engine}: {vcd}");
            assert!(
                vcd.contains("$scope module counter $end"),
                "{engine}: {vcd}"
            );
            assert!(vcd.contains("$enddefinitions $end"), "{engine}: {vcd}");
            assert!(vcd.contains("$dumpvars"), "{engine}: {vcd}");
            // 7 clocks at 10 ns: the last change stamp is #70.
            assert!(vcd.contains("\n#70\n"), "{engine}: {vcd}");
            // The 4-bit count register is dumped as a binary vector.
            assert!(vcd.contains("b0111 "), "{engine}: {vcd}");
        }
    }

    #[test]
    fn vcd_hierarchy_scopes() {
        for (engine, mut sim) in both_engines(&counter_in_top(), "top") {
            sim.vcd_begin("top");
            sim.clock().expect("clock");
            let vcd = sim.vcd_end().expect("vcd");
            assert!(vcd.contains("$scope module u0 $end"), "{engine}: {vcd}");
            assert!(vcd.contains("$var wire 8 "), "{engine}: {vcd}");
        }
    }

    #[test]
    fn unknown_signal_is_an_error() {
        for (engine, sim) in both_engines(&Design::new(counter(4)), "counter") {
            let e = sim.read("ghost").expect_err("ghost");
            assert_eq!(e.message, "unknown signal `ghost`", "{engine}");
        }
    }

    #[test]
    fn combinational_loop_detected() {
        let mut m = VModule::new("loopy");
        m.port(Port::output("y", 1));
        m.item(Item::Net(NetDecl::wire("a", 1)));
        m.item(Item::Assign {
            lhs: Expr::id("a"),
            rhs: Expr::Unary(UnaryOp::BitNot, Box::new(Expr::id("a"))),
        });
        m.item(Item::Assign {
            lhs: Expr::id("y"),
            rhs: Expr::id("a"),
        });
        let d = Design::new(m);
        for e in [
            Interpreter::elaborate(&d, "loopy").expect_err("tree"),
            CompiledSim::compile(&d, "loopy").expect_err("compiled"),
        ] {
            assert!(e.message.contains("combinational loop"), "{}", e.message);
        }
    }
}
