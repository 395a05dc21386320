//! Levelized, event-driven compilation of the emitted Verilog subset.
//!
//! The tree-walking [`Interpreter`] re-walks every continuous assign to a
//! fixed point after each poke and clock edge, resolving signals through
//! hierarchical-name maps — faithful, but it dominates the differential
//! harness's wall time (the neuron array alone is ~99% of evaluations).
//! [`CompiledSim`] is the Verilator-style answer: elaboration flattens
//! the design once into a dense signal arena, compiles every continuous
//! assign into one instruction over arena indices, topologically
//! levelizes the instructions (statically rejecting combinational
//! loops), and schedules evaluation with per-instruction dirty bits — a
//! clock edge or poke re-evaluates only the fanout cone of the signals
//! that actually changed, in one forward pass over the levelized tape.
//!
//! Semantics are bit-identical to the interpreter by construction: the
//! expression evaluator is a port of [`Interpreter`]'s over slot ids
//! instead of names (same two-state logic, same signed compare/divide
//! and shift rules, same out-of-range and division-by-zero behaviour),
//! non-blocking commits evaluate lvalue indices at commit time against
//! the partially-committed state, and `load_memory` defers propagation
//! to the next settle exactly like the interpreter's lazy re-walk. The
//! equivalence is enforced by the proptests below and by the
//! two-engine differential run in `deepburning-sim`.
//!
//! Work is attributed per flattened instance path
//! ([`CompiledSim::evals_by_module`]), so the `rtl.evals.*` trace
//! counters keep reporting where the simulation spends its time.

use crate::ast::*;
use crate::interp::{flatten_design, InterpStats, Interpreter, SimulateError, Simulator};
use crate::vcd::VcdRecorder;
#[cfg(feature = "prof")]
use deepburning_trace::prof::{CutProf, EngineProfile, OpcodeProf, SegmentProf, SweepProf};
#[cfg(feature = "prof")]
use deepburning_trace::Histogram;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Static interference analysis over the compiled tape (DESIGN.md §17).
/// A child module so the proof reads the private tape representation
/// directly instead of a widened public surface.
#[path = "interfere.rs"]
pub mod interfere;

fn err(message: impl Into<String>) -> SimulateError {
    SimulateError {
        message: message.into(),
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Which simulation engine executes elaborated designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// The tree-walking [`Interpreter`] — the semantic reference.
    Tree,
    /// The levelized, event-driven [`CompiledSim`] (default).
    #[default]
    Compiled,
}

impl SimEngine {
    /// Elaborates `top` on this engine.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors ([`SimulateError`]).
    pub fn elaborate(
        self,
        design: &Design,
        top: &str,
    ) -> Result<Box<dyn Simulator>, SimulateError> {
        Ok(match self {
            SimEngine::Tree => Box::new(Interpreter::elaborate(design, top)?),
            SimEngine::Compiled => Box::new(CompiledSim::compile(design, top)?),
        })
    }

    /// Stable CLI tag.
    pub fn tag(self) -> &'static str {
        match self {
            SimEngine::Tree => "tree",
            SimEngine::Compiled => "compiled",
        }
    }
}

impl fmt::Display for SimEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

impl FromStr for SimEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "tree" | "interp" | "interpreter" => Ok(SimEngine::Tree),
            "compiled" | "levelized" => Ok(SimEngine::Compiled),
            other => Err(format!("unknown engine `{other}` (tree|compiled)")),
        }
    }
}

type SlotId = usize;
type MemId = usize;

/// One arena signal: scalars live in `CompiledSim::values`, memories in
/// `CompiledSim::mems`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    width: u32,
    mem: Option<MemId>,
    /// Index into the module-path table (instance attribution).
    module: u32,
}

/// One opcode of a compiled expression. Expressions lower to flat
/// postfix programs ([`Prog`]) executed over an explicit operand stack
/// of `(value, width)` pairs — no recursion, no pointer chasing, and
/// the operand stack is a reused scratch buffer. Names that fail to
/// resolve at compile time become [`Op::Fail`] so the error still
/// surfaces lazily at evaluation (a branch never taken never errors,
/// exactly like the interpreter); ternaries lower to conditional jumps
/// so the untaken arm is never executed.
#[derive(Debug, Clone)]
enum Op {
    /// Push a signal's current value.
    Sig(SlotId),
    /// Push a literal (pre-masked at lowering).
    Lit {
        width: u32,
        value: u64,
    },
    Un(UnaryOp),
    Bin(BinaryOp),
    /// Pop an index, push one bit of a scalar signal.
    BitIdx(SlotId),
    /// Pop an index, push one word of a memory.
    WordIdx(MemId),
    Slice {
        hi: u32,
        lo: u32,
    },
    /// Pop `n` parts (first part deepest), push their concatenation.
    Cat(u32),
    /// Pop the condition; jump to the absolute op index if it is zero.
    JumpIfZero(u32),
    Jump(u32),
    Fail(Box<str>),
}

/// Opcode-category names for per-opcode profiling, indexed by
/// [`opcode_index`]. Kept in variant order of [`Op`].
#[cfg(feature = "prof")]
const OPCODE_NAMES: [&str; 11] = [
    "Sig",
    "Lit",
    "Un",
    "Bin",
    "BitIdx",
    "WordIdx",
    "Slice",
    "Cat",
    "JumpIfZero",
    "Jump",
    "Fail",
];

/// Index into [`OPCODE_NAMES`] for one opcode.
#[cfg(feature = "prof")]
fn opcode_index(op: &Op) -> usize {
    match op {
        Op::Sig(_) => 0,
        Op::Lit { .. } => 1,
        Op::Un(_) => 2,
        Op::Bin(_) => 3,
        Op::BitIdx(_) => 4,
        Op::WordIdx(_) => 5,
        Op::Slice { .. } => 6,
        Op::Cat(_) => 7,
        Op::JumpIfZero(_) => 8,
        Op::Jump(_) => 9,
        Op::Fail(_) => 10,
    }
}

/// A lowered expression: a postfix op sequence leaving one
/// `(value, width)` result on the stack.
type Prog = Box<[Op]>;

/// A compiled write destination (continuous-assign lhs or NBA lvalue).
#[derive(Debug, Clone)]
enum Dst {
    Whole(SlotId),
    /// Dynamic bit write into a scalar; the index is evaluated when the
    /// write is applied (commit time for NBAs).
    Bit(SlotId, Prog),
    Slice(SlotId, u32, u32),
    /// Slice write onto a memory: the interpreter silently ignores it.
    SliceNoop,
    Word(MemId, Prog),
    Fail(Box<str>),
}

impl Dst {
    fn slot(&self) -> Option<SlotId> {
        match self {
            Dst::Whole(s) | Dst::Bit(s, _) | Dst::Slice(s, _, _) => Some(*s),
            _ => None,
        }
    }
}

/// One tape entry: a levelized continuous assign.
#[derive(Debug, Clone)]
struct Instr {
    dst: Dst,
    rhs: Prog,
    /// Module-path id for eval attribution.
    module: u32,
}

/// A compiled procedural statement (posedge body).
#[derive(Debug, Clone)]
enum CStmt {
    /// Blocking and non-blocking both commit after the block runs (the
    /// generated code never relies on intra-block ordering).
    Assign(Dst, Prog),
    If {
        cond: Prog,
        then_body: Vec<CStmt>,
        else_body: Vec<CStmt>,
    },
    Case {
        subject: Prog,
        arms: Vec<(Prog, Vec<CStmt>)>,
        default: Vec<CStmt>,
    },
}

#[derive(Debug, Clone)]
struct ClockedBlock {
    clk: String,
    body: Vec<CStmt>,
}

/// What an applied write changed, for fanout dirtying.
enum Change {
    Slot(SlotId),
    Mem(MemId),
}

/// A [`Design`] compiled to a levelized instruction tape over a dense
/// signal arena, evaluated event-driven: only the fanout cones of
/// changed signals re-evaluate.
///
/// # Examples
///
/// ```
/// use deepburning_verilog::*;
///
/// let mut m = VModule::new("inc");
/// m.port(Port::input("clk", 1)).port(Port::output("q", 8));
/// m.item(Item::Net(NetDecl::reg("count", 8)));
/// m.item(Item::Always {
///     sensitivity: Sensitivity::PosEdge("clk".into()),
///     body: vec![Stmt::NonBlocking(
///         Expr::id("count"),
///         Expr::bin(BinaryOp::Add, Expr::id("count"), Expr::lit(8, 1)),
///     )],
/// });
/// m.item(Item::Assign { lhs: Expr::id("q"), rhs: Expr::id("count") });
///
/// let mut sim = CompiledSim::compile(&Design::new(m), "inc")?;
/// sim.clock()?;
/// sim.clock()?;
/// assert_eq!(sim.read("q")?, 2);
/// # Ok::<(), deepburning_verilog::SimulateError>(())
/// ```
#[derive(Debug)]
pub struct CompiledSim {
    names: BTreeMap<String, SlotId>,
    slots: Vec<Slot>,
    /// Scalar values (masked); memory slots keep 0 here.
    values: Vec<u64>,
    mems: Vec<Vec<u64>>,
    /// Owning slot of each memory (for widths).
    mem_slot: Vec<SlotId>,
    /// Levelized combinational instructions.
    tape: Vec<Instr>,
    /// Per-slot tape indices reading the slot (CSR: `fanout_off[s]..
    /// fanout_off[s + 1]` indexes `fanout_idx`) — flat so dirtying a
    /// fanout cone allocates nothing.
    fanout_off: Box<[u32]>,
    fanout_idx: Box<[u32]>,
    /// Per-memory tape indices reading the memory (CSR, as above).
    mem_fanout_off: Box<[u32]>,
    mem_fanout_idx: Box<[u32]>,
    /// Per-instruction dirty bits (one `u64` covers 64 tape slots) plus
    /// the live range bounds — settle scans words, not instructions, so
    /// a sparse dirty set over a long tape stays cheap.
    dirty: Vec<u64>,
    dirty_lo: usize,
    dirty_hi: usize,
    clocked: Vec<ClockedBlock>,
    inputs: Vec<String>,
    cycles: u64,
    stats: InterpStats,
    /// Instance-path table and per-path eval counts.
    module_paths: Vec<String>,
    module_evals: Vec<u64>,
    /// Per-tape-slot topological level (longest dependency path from
    /// any clocked/input root). Cheap to carry unconditionally; read by
    /// the profiler's per-level segment and cut tables.
    instr_levels: Vec<u32>,
    /// Profiler state; `None` until [`CompiledSim::prof_enable`] — the
    /// settle dispatcher takes the plain (uncounted) path while unset.
    #[cfg(feature = "prof")]
    prof: Option<Box<ProfState>>,
    vcd: Option<Box<VcdRecorder>>,
    vcd_slots: Vec<SlotId>,
    /// Reused operand stack for program execution.
    scratch: Vec<(u64, u32)>,
}

/// Counter-based profiler state for the compiled engine: everything is
/// a plain accumulator bumped inline on the profiled settle path — no
/// sampling thread, no clock reads inside the eval loop.
#[cfg(feature = "prof")]
#[derive(Debug, Default)]
struct ProfState {
    /// Per-tape-slot eval counts (indexed like `tape`).
    instr_evals: Vec<u64>,
    /// Per-tape-slot executed-opcode counts (indexed like `tape`).
    instr_ops: Vec<u64>,
    /// Executed-opcode counts by opcode category ([`OPCODE_NAMES`]).
    opcode_counts: [u64; OPCODE_NAMES.len()],
    /// Settle sweeps observed while profiling.
    sweeps: u64,
    /// Evals whose destination value did not change (wasted wakeups).
    wasted: u64,
    /// Dirty-set occupancy (instructions woken) per settle sweep.
    occupancy: Histogram,
}

/// The immutable state a program executes against — split out from
/// [`CompiledSim`] so execution can borrow it while the operand stack
/// is borrowed mutably.
struct ExecCtx<'a> {
    values: &'a [u64],
    mems: &'a [Vec<u64>],
    slots: &'a [Slot],
    mem_slot: &'a [SlotId],
}

/// Executes a lowered program against `ctx` using `stack` as the
/// operand scratch (cleared on entry). This is a port of the
/// interpreter's expression evaluator — same two-state logic, same
/// masking, same signed compare/divide/shift rules, same out-of-range
/// and division-by-zero behaviour — with jumps realising lazy
/// ternaries so the untaken arm is never executed.
fn exec(
    ctx: &ExecCtx,
    ops: &[Op],
    stack: &mut Vec<(u64, u32)>,
) -> Result<(u64, u32), SimulateError> {
    stack.clear();
    let mut pc = 0usize;
    while let Some(op) = ops.get(pc) {
        match op {
            Op::Sig(s) => {
                let w = ctx.slots[*s].width;
                stack.push((ctx.values[*s] & mask(w), w));
            }
            Op::Lit { width, value } => stack.push((*value, *width)),
            Op::Un(op) => {
                let (v, w) = stack.pop().expect("unary operand");
                stack.push(match op {
                    UnaryOp::Not => (u64::from(v == 0), 1),
                    UnaryOp::BitNot => (!v & mask(w), w),
                    UnaryOp::Neg => (v.wrapping_neg() & mask(w), w),
                    UnaryOp::RedOr => (u64::from(v != 0), 1),
                    UnaryOp::RedAnd => (u64::from(v == mask(w)), 1),
                });
            }
            Op::Bin(op) => {
                let (rv, rw) = stack.pop().expect("binary rhs");
                let (lv, lw) = stack.pop().expect("binary lhs");
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
                stack.push(match op {
                    BinaryOp::Add => (lv.wrapping_add(rv) & m, w),
                    BinaryOp::Sub => (lv.wrapping_sub(rv) & m, w),
                    BinaryOp::Mul => (lv.wrapping_mul(rv) & m, w),
                    BinaryOp::Div => {
                        // `$signed` division truncating toward zero; /0
                        // yields 0 — the two-state stand-in for `x`.
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
                    BinaryOp::Shl => ((lv << (rv & 63)) & mask(lw), lw),
                    BinaryOp::Shr => {
                        // Arithmetic shift on the left operand's width.
                        let sv = signed(lv, lw) >> (rv & 63);
                        ((sv as u64) & mask(lw), lw)
                    }
                    BinaryOp::Eq => (u64::from((lv & m) == (rv & m)), 1),
                    BinaryOp::Ne => (u64::from((lv & m) != (rv & m)), 1),
                    BinaryOp::Lt => (u64::from(lv < rv), 1),
                    BinaryOp::Slt => (u64::from(signed(lv, lw) < signed(rv, rw)), 1),
                    BinaryOp::Ge => (u64::from(lv >= rv), 1),
                    BinaryOp::LogAnd => (u64::from(lv != 0 && rv != 0), 1),
                    BinaryOp::LogOr => (u64::from(lv != 0 || rv != 0), 1),
                });
            }
            Op::BitIdx(s) => {
                let (i, _) = stack.pop().expect("bit index");
                stack.push(((ctx.values[*s] >> (i & 63)) & 1, 1));
            }
            Op::WordIdx(m) => {
                let (i, _) = stack.pop().expect("word index");
                let w = ctx.slots[ctx.mem_slot[*m]].width;
                let v = ctx.mems[*m].get(i as usize).copied().unwrap_or(0);
                stack.push((v & mask(w), w));
            }
            Op::Slice { hi, lo } => {
                let (v, _) = stack.pop().expect("slice base");
                let w = hi - lo + 1;
                stack.push(((v >> lo) & mask(w), w));
            }
            Op::Cat(n) => {
                let base = stack.len() - *n as usize;
                let mut acc = 0u64;
                let mut total = 0u32;
                for &(v, w) in &stack[base..] {
                    acc = (acc << w) | (v & mask(w));
                    total += w;
                }
                stack.truncate(base);
                stack.push((acc & mask(total), total));
            }
            Op::JumpIfZero(t) => {
                let (c, _) = stack.pop().expect("ternary condition");
                if c == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::Jump(t) => {
                pc = *t as usize;
                continue;
            }
            Op::Fail(message) => return Err(err(message.to_string())),
        }
        pc += 1;
    }
    Ok(stack.pop().expect("program leaves a result"))
}

/// Profiled twin of [`exec`]: identical semantics plus per-opcode and
/// total executed-op counting. Kept as a deliberate duplicate (rather
/// than a const-generic flag threaded through the hot loop) so the
/// unprofiled path carries zero extra state; the
/// `profiled_matches_unprofiled` test pins the two to identical
/// behaviour.
#[cfg(feature = "prof")]
fn exec_prof(
    ctx: &ExecCtx,
    ops: &[Op],
    stack: &mut Vec<(u64, u32)>,
    opcode_counts: &mut [u64; OPCODE_NAMES.len()],
    ops_executed: &mut u64,
) -> Result<(u64, u32), SimulateError> {
    stack.clear();
    let mut pc = 0usize;
    while let Some(op) = ops.get(pc) {
        opcode_counts[opcode_index(op)] += 1;
        *ops_executed += 1;
        match op {
            Op::Sig(s) => {
                let w = ctx.slots[*s].width;
                stack.push((ctx.values[*s] & mask(w), w));
            }
            Op::Lit { width, value } => stack.push((*value, *width)),
            Op::Un(op) => {
                let (v, w) = stack.pop().expect("unary operand");
                stack.push(match op {
                    UnaryOp::Not => (u64::from(v == 0), 1),
                    UnaryOp::BitNot => (!v & mask(w), w),
                    UnaryOp::Neg => (v.wrapping_neg() & mask(w), w),
                    UnaryOp::RedOr => (u64::from(v != 0), 1),
                    UnaryOp::RedAnd => (u64::from(v == mask(w)), 1),
                });
            }
            Op::Bin(op) => {
                let (rv, rw) = stack.pop().expect("binary rhs");
                let (lv, lw) = stack.pop().expect("binary lhs");
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
                stack.push(match op {
                    BinaryOp::Add => (lv.wrapping_add(rv) & m, w),
                    BinaryOp::Sub => (lv.wrapping_sub(rv) & m, w),
                    BinaryOp::Mul => (lv.wrapping_mul(rv) & m, w),
                    BinaryOp::Div => {
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
                    BinaryOp::Shl => ((lv << (rv & 63)) & mask(lw), lw),
                    BinaryOp::Shr => {
                        let sv = signed(lv, lw) >> (rv & 63);
                        ((sv as u64) & mask(lw), lw)
                    }
                    BinaryOp::Eq => (u64::from((lv & m) == (rv & m)), 1),
                    BinaryOp::Ne => (u64::from((lv & m) != (rv & m)), 1),
                    BinaryOp::Lt => (u64::from(lv < rv), 1),
                    BinaryOp::Slt => (u64::from(signed(lv, lw) < signed(rv, rw)), 1),
                    BinaryOp::Ge => (u64::from(lv >= rv), 1),
                    BinaryOp::LogAnd => (u64::from(lv != 0 && rv != 0), 1),
                    BinaryOp::LogOr => (u64::from(lv != 0 || rv != 0), 1),
                });
            }
            Op::BitIdx(s) => {
                let (i, _) = stack.pop().expect("bit index");
                stack.push(((ctx.values[*s] >> (i & 63)) & 1, 1));
            }
            Op::WordIdx(m) => {
                let (i, _) = stack.pop().expect("word index");
                let w = ctx.slots[ctx.mem_slot[*m]].width;
                let v = ctx.mems[*m].get(i as usize).copied().unwrap_or(0);
                stack.push((v & mask(w), w));
            }
            Op::Slice { hi, lo } => {
                let (v, _) = stack.pop().expect("slice base");
                let w = hi - lo + 1;
                stack.push(((v >> lo) & mask(w), w));
            }
            Op::Cat(n) => {
                let base = stack.len() - *n as usize;
                let mut acc = 0u64;
                let mut total = 0u32;
                for &(v, w) in &stack[base..] {
                    acc = (acc << w) | (v & mask(w));
                    total += w;
                }
                stack.truncate(base);
                stack.push((acc & mask(total), total));
            }
            Op::JumpIfZero(t) => {
                let (c, _) = stack.pop().expect("ternary condition");
                if c == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::Jump(t) => {
                pc = *t as usize;
                continue;
            }
            Op::Fail(message) => return Err(err(message.to_string())),
        }
        pc += 1;
    }
    Ok(stack.pop().expect("program leaves a result"))
}

struct ExprCompiler<'a> {
    names: &'a BTreeMap<String, SlotId>,
    slots: &'a [Slot],
}

impl ExprCompiler<'_> {
    fn cexpr(&self, e: &Expr) -> Prog {
        let mut ops = Vec::new();
        self.emit(e, &mut ops);
        ops.into_boxed_slice()
    }

    /// Appends the postfix lowering of `e` to `ops`. Operand order
    /// mirrors the interpreter's evaluation order (left before right,
    /// index before element read) so error precedence is preserved; a
    /// ternary lowers to `cond JumpIfZero(else) then Jump(end) else`.
    fn emit(&self, e: &Expr, ops: &mut Vec<Op>) {
        match e {
            Expr::Id(n) => match self.names.get(n) {
                Some(&s) if self.slots[s].mem.is_some() => {
                    ops.push(Op::Fail(format!("memory `{n}` read without index").into()));
                }
                Some(&s) => ops.push(Op::Sig(s)),
                None => ops.push(Op::Fail(format!("unknown signal `{n}`").into())),
            },
            Expr::Lit { width, value } => ops.push(Op::Lit {
                width: *width,
                value: *value & mask(*width),
            }),
            Expr::Unary(op, a) => {
                self.emit(a, ops);
                ops.push(Op::Un(*op));
            }
            Expr::Binary(op, l, r) => {
                self.emit(l, ops);
                self.emit(r, ops);
                ops.push(Op::Bin(*op));
            }
            Expr::Ternary(c, a, b) => {
                self.emit(c, ops);
                let jz = ops.len();
                ops.push(Op::JumpIfZero(0));
                self.emit(a, ops);
                let jmp = ops.len();
                ops.push(Op::Jump(0));
                ops[jz] = Op::JumpIfZero(ops.len() as u32);
                self.emit(b, ops);
                ops[jmp] = Op::Jump(ops.len() as u32);
            }
            Expr::Index(base, idx) => match base.lvalue_root() {
                None => ops.push(Op::Fail("index on a non-identifier".into())),
                Some(root) => match self.names.get(root) {
                    None => ops.push(Op::Fail(format!("unknown signal `{root}`").into())),
                    Some(&s) => {
                        self.emit(idx, ops);
                        match self.slots[s].mem {
                            Some(m) => ops.push(Op::WordIdx(m)),
                            None => ops.push(Op::BitIdx(s)),
                        }
                    }
                },
            },
            Expr::Slice(base, hi, lo) => {
                self.emit(base, ops);
                ops.push(Op::Slice { hi: *hi, lo: *lo });
            }
            Expr::Concat(es) => {
                for part in es {
                    self.emit(part, ops);
                }
                ops.push(Op::Cat(es.len() as u32));
            }
        }
    }

    fn cdst(&self, lhs: &Expr) -> Dst {
        match lhs {
            Expr::Id(n) => match self.names.get(n) {
                Some(&s) if self.slots[s].mem.is_some() => {
                    Dst::Fail(format!("memory `{n}` written without index").into())
                }
                Some(&s) => Dst::Whole(s),
                None => Dst::Fail(format!("unknown signal `{n}`").into()),
            },
            Expr::Index(base, idx) => match base.lvalue_root() {
                None => Dst::Fail("index write on a non-identifier".into()),
                Some(root) => match self.names.get(root) {
                    None => Dst::Fail(format!("unknown signal `{root}`").into()),
                    Some(&s) => match self.slots[s].mem {
                        Some(m) => Dst::Word(m, self.cexpr(idx)),
                        None => Dst::Bit(s, self.cexpr(idx)),
                    },
                },
            },
            Expr::Slice(base, hi, lo) => match base.lvalue_root() {
                None => Dst::Fail("slice write on a non-identifier".into()),
                Some(root) => match self.names.get(root) {
                    None => Dst::Fail(format!("unknown signal `{root}`").into()),
                    Some(&s) => match self.slots[s].mem {
                        Some(_) => Dst::SliceNoop,
                        None => Dst::Slice(s, *hi, *lo),
                    },
                },
            },
            _ => Dst::Fail("assignment to a non-lvalue".into()),
        }
    }

    fn cstmts(&self, stmts: &[Stmt]) -> Vec<CStmt> {
        stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::NonBlocking(lhs, rhs) | Stmt::Blocking(lhs, rhs) => {
                    Some(CStmt::Assign(self.cdst(lhs), self.cexpr(rhs)))
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => Some(CStmt::If {
                    cond: self.cexpr(cond),
                    then_body: self.cstmts(then_body),
                    else_body: self.cstmts(else_body),
                }),
                Stmt::Case {
                    subject,
                    arms,
                    default,
                } => Some(CStmt::Case {
                    subject: self.cexpr(subject),
                    arms: arms
                        .iter()
                        .map(|(m, body)| (self.cexpr(m), self.cstmts(body)))
                        .collect(),
                    default: self.cstmts(default),
                }),
                Stmt::Comment(_) => None,
            })
            .collect()
    }
}

/// Collects arena reads (slots and memories) of a lowered program —
/// the dependency edges for levelization and fanout. Ops inside untaken
/// ternary arms count too (conservative dirtying is sound: evaluation
/// is pure).
fn collect_reads(ops: &[Op], slots: &mut Vec<SlotId>, mems: &mut Vec<MemId>) {
    for op in ops {
        match op {
            Op::Sig(s) | Op::BitIdx(s) => slots.push(*s),
            Op::WordIdx(m) => mems.push(*m),
            _ => {}
        }
    }
}

/// Reads of one instruction: the rhs plus any dynamic index on the dst.
fn instr_reads(instr: &Instr) -> (Vec<SlotId>, Vec<MemId>) {
    let mut slots = Vec::new();
    let mut mems = Vec::new();
    collect_reads(&instr.rhs, &mut slots, &mut mems);
    match &instr.dst {
        Dst::Bit(_, idx) | Dst::Word(_, idx) => collect_reads(idx, &mut slots, &mut mems),
        _ => {}
    }
    slots.sort_unstable();
    slots.dedup();
    mems.sort_unstable();
    mems.dedup();
    (slots, mems)
}

impl CompiledSim {
    /// Flattens and compiles `top` into a levelized tape, then runs the
    /// initial full evaluation (every signal starts at zero).
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError`] on unknown modules, signals wider than
    /// 64 bits, combinational loops among the continuous assigns, or
    /// evaluation errors during the initial pass.
    pub fn compile(design: &Design, top: &str) -> Result<Self, SimulateError> {
        let flat = flatten_design(design, top)?;

        // Arena construction, declaration order.
        let mut names: BTreeMap<String, SlotId> = BTreeMap::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(flat.signals.len());
        let mut mems: Vec<Vec<u64>> = Vec::new();
        let mut mem_slot: Vec<SlotId> = Vec::new();
        let mut module_paths: Vec<String> = vec![String::new()];
        let mut path_ids: BTreeMap<String, u32> = BTreeMap::new();
        path_ids.insert(String::new(), 0);
        for sig in &flat.signals {
            let path = sig.name.rsplit_once('.').map_or("", |(p, _)| p);
            let module = *path_ids.entry(path.to_string()).or_insert_with(|| {
                module_paths.push(path.to_string());
                (module_paths.len() - 1) as u32
            });
            let mem = sig.depth.map(|d| {
                mems.push(vec![0; d]);
                mem_slot.push(0); // patched below once the slot id is known
                mems.len() - 1
            });
            let slot = Slot {
                width: sig.width,
                mem,
                module,
            };
            match names.get(&sig.name) {
                // A redeclaration replaces the earlier signal, mirroring
                // the interpreter's map insert.
                Some(&existing) => {
                    slots[existing] = slot;
                    if let Some(m) = mem {
                        mem_slot[m] = existing;
                    }
                }
                None => {
                    slots.push(slot);
                    names.insert(sig.name.clone(), slots.len() - 1);
                    if let Some(m) = mem {
                        mem_slot[m] = slots.len() - 1;
                    }
                }
            }
        }

        // Compile continuous assigns.
        let comp = ExprCompiler {
            names: &names,
            slots: &slots,
        };
        let instrs: Vec<Instr> = flat
            .assigns
            .iter()
            .map(|(lhs, rhs)| {
                let dst = comp.cdst(lhs);
                let module = dst.slot().map_or(0, |s| slots[s].module);
                Instr {
                    dst,
                    rhs: comp.cexpr(rhs),
                    module,
                }
            })
            .collect();

        // Levelize: producers per slot/memory, then a stable Kahn sort
        // (declaration order within a level).
        let mut slot_writers: Vec<Vec<usize>> = vec![Vec::new(); slots.len()];
        let mut mem_writers: Vec<Vec<usize>> = vec![Vec::new(); mems.len()];
        for (i, instr) in instrs.iter().enumerate() {
            match &instr.dst {
                Dst::Whole(s) | Dst::Bit(s, _) | Dst::Slice(s, _, _) => slot_writers[*s].push(i),
                Dst::Word(m, _) => mem_writers[*m].push(i),
                Dst::SliceNoop | Dst::Fail(_) => {}
            }
        }
        let reads: Vec<(Vec<SlotId>, Vec<MemId>)> = instrs.iter().map(instr_reads).collect();
        let mut indegree = vec![0usize; instrs.len()];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); instrs.len()];
        for (r, (rslots, rmems)) in reads.iter().enumerate() {
            for &s in rslots {
                for &w in &slot_writers[s] {
                    successors[w].push(r);
                    indegree[r] += 1;
                }
            }
            for &m in rmems {
                for &w in &mem_writers[m] {
                    successors[w].push(r);
                    indegree[r] += 1;
                }
            }
        }
        let mut ready = std::collections::BinaryHeap::new();
        for (i, &d) in indegree.iter().enumerate() {
            if d == 0 {
                ready.push(std::cmp::Reverse(i));
            }
        }
        let mut order = Vec::with_capacity(instrs.len());
        // Longest-path level per instruction: every edge `i -> r` is
        // relaxed before `r` pops, so `level[r]` is final at pop time.
        let mut level = vec![0u32; instrs.len()];
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            order.push(i);
            for &r in &successors[i] {
                indegree[r] -= 1;
                level[r] = level[r].max(level[i] + 1);
                if indegree[r] == 0 {
                    ready.push(std::cmp::Reverse(r));
                }
            }
        }
        if order.len() != instrs.len() {
            // Name the module instance and local signal stuck on the
            // cycle, so the failure is actionable without rerunning the
            // full cycle diagnosis (`find_comb_cycle`).
            let stuck = indegree
                .iter()
                .position(|&d| d > 0)
                .and_then(|i| instrs[i].dst.slot())
                .and_then(|s| names.iter().find(|(_, &id)| id == s))
                .map_or_else(String::new, |(n, _)| {
                    let (path, sig) = n.rsplit_once('.').unwrap_or(("", n));
                    if path.is_empty() {
                        format!(" involving signal `{sig}` in top module `{top}`")
                    } else {
                        format!(" involving signal `{sig}` in instance `{path}`")
                    }
                });
            return Err(err(format!(
                "combinational loop: continuous assigns do not levelize{stuck}"
            )));
        }
        let mut instr_storage: Vec<Option<Instr>> = instrs.into_iter().map(Some).collect();
        let tape: Vec<Instr> = order
            .iter()
            .map(|&i| instr_storage[i].take().expect("each instr placed once"))
            .collect();
        let instr_levels: Vec<u32> = order.iter().map(|&i| level[i]).collect();

        // Fanout lists over the final tape order, flattened to CSR.
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); slots.len()];
        let mut mem_fanout: Vec<Vec<u32>> = vec![Vec::new(); mems.len()];
        for (t, &orig) in order.iter().enumerate() {
            let (rslots, rmems) = &reads[orig];
            for &s in rslots {
                fanout[s].push(t as u32);
            }
            for &m in rmems {
                mem_fanout[m].push(t as u32);
            }
        }
        let to_csr = |lists: Vec<Vec<u32>>| -> (Box<[u32]>, Box<[u32]>) {
            let mut off = Vec::with_capacity(lists.len() + 1);
            let mut idx = Vec::new();
            off.push(0);
            for list in &lists {
                idx.extend_from_slice(list);
                off.push(idx.len() as u32);
            }
            (off.into_boxed_slice(), idx.into_boxed_slice())
        };
        let (fanout_off, fanout_idx) = to_csr(fanout);
        let (mem_fanout_off, mem_fanout_idx) = to_csr(mem_fanout);

        // Compile clocked blocks.
        let clocked: Vec<ClockedBlock> = flat
            .clocked
            .iter()
            .map(|(clk, body)| ClockedBlock {
                clk: clk.clone(),
                body: comp.cstmts(body),
            })
            .collect();

        let tape_len = tape.len();
        let mut dirty = vec![u64::MAX; tape_len.div_ceil(64)];
        if let Some(last) = dirty.last_mut() {
            let used = tape_len % 64;
            if used != 0 {
                *last = u64::MAX >> (64 - used);
            }
        }
        let module_evals = vec![0; module_paths.len()];
        let mut sim = CompiledSim {
            names,
            values: vec![0; slots.len()],
            slots,
            mems,
            mem_slot,
            tape,
            fanout_off,
            fanout_idx,
            mem_fanout_off,
            mem_fanout_idx,
            dirty,
            dirty_lo: 0,
            dirty_hi: tape_len.saturating_sub(1),
            clocked,
            inputs: flat.inputs,
            cycles: 0,
            stats: InterpStats::default(),
            module_paths,
            module_evals,
            instr_levels,
            #[cfg(feature = "prof")]
            prof: None,
            vcd: None,
            vcd_slots: Vec::new(),
            scratch: Vec::with_capacity(64),
        };
        if tape_len == 0 {
            sim.dirty_lo = usize::MAX;
            sim.dirty_hi = 0;
        }
        // The invariant `settle_plain`'s single forward pass relies on
        // (DESIGN.md §17): every reader woken by a write sits strictly
        // later in tape order.
        debug_assert!(
            sim.tape
                .iter()
                .enumerate()
                .all(|(t, instr)| sim.dst_fanout(&instr.dst).iter().all(|&r| r as usize > t)),
            "levelizer emitted a dependence edge that does not point forward in tape order"
        );
        // Initial full evaluation (the interpreter settles at elaborate).
        sim.settle()?;
        Ok(sim)
    }

    fn width(&self, slot: SlotId) -> u32 {
        self.slots[slot].width
    }

    fn ctx(&self) -> ExecCtx<'_> {
        ExecCtx {
            values: &self.values,
            mems: &self.mems,
            slots: &self.slots,
            mem_slot: &self.mem_slot,
        }
    }

    /// Applies a write, reporting what changed (for fanout dirtying).
    /// Dynamic indices evaluate against the current state, matching the
    /// interpreter's commit-time lvalue evaluation.
    fn apply(
        &mut self,
        dst: &Dst,
        value: u64,
        stack: &mut Vec<(u64, u32)>,
    ) -> Result<Option<Change>, SimulateError> {
        Ok(match dst {
            Dst::Whole(s) => {
                let new = value & mask(self.width(*s));
                if self.values[*s] != new {
                    self.values[*s] = new;
                    Some(Change::Slot(*s))
                } else {
                    None
                }
            }
            Dst::Bit(s, idx) => {
                let (i, _) = exec(&self.ctx(), idx, stack)?;
                let bit = i & 63;
                let old = self.values[*s];
                let new = (old & !(1 << bit)) | ((value & 1) << bit);
                if old != new {
                    self.values[*s] = new;
                    Some(Change::Slot(*s))
                } else {
                    None
                }
            }
            Dst::Slice(s, hi, lo) => {
                let field = mask(hi - lo + 1);
                let old = self.values[*s];
                let new = (old & !(field << lo)) | ((value & field) << lo);
                if old != new {
                    self.values[*s] = new;
                    Some(Change::Slot(*s))
                } else {
                    None
                }
            }
            Dst::SliceNoop => None,
            Dst::Word(m, idx) => {
                let (i, _) = exec(&self.ctx(), idx, stack)?;
                let new = value & mask(self.width(self.mem_slot[*m]));
                match self.mems[*m].get(i as usize) {
                    Some(&old) if old != new => {
                        self.mems[*m][i as usize] = new;
                        Some(Change::Mem(*m))
                    }
                    _ => None,
                }
            }
            Dst::Fail(message) => return Err(err(message.to_string())),
        })
    }

    fn mark_instr(&mut self, t: usize) {
        self.dirty[t >> 6] |= 1u64 << (t & 63);
        if self.dirty_lo == usize::MAX {
            self.dirty_lo = t;
            self.dirty_hi = t;
        } else {
            self.dirty_lo = self.dirty_lo.min(t);
            self.dirty_hi = self.dirty_hi.max(t);
        }
    }

    /// Tape indices the fanout CSR wakes when `dst` is written (empty
    /// for destinations that commit nothing).
    fn dst_fanout(&self, dst: &Dst) -> &[u32] {
        let (off, idx, n) = match dst {
            Dst::Whole(s) | Dst::Bit(s, _) | Dst::Slice(s, _, _) => {
                (&self.fanout_off, &self.fanout_idx, *s)
            }
            Dst::Word(m, _) => (&self.mem_fanout_off, &self.mem_fanout_idx, *m),
            Dst::SliceNoop | Dst::Fail(_) => return &[],
        };
        &idx[off[n] as usize..off[n + 1] as usize]
    }

    fn mark_change(&mut self, change: Change) {
        let (lo, hi, mem) = match change {
            Change::Slot(s) => (self.fanout_off[s], self.fanout_off[s + 1], false),
            Change::Mem(m) => (self.mem_fanout_off[m], self.mem_fanout_off[m + 1], true),
        };
        for k in lo as usize..hi as usize {
            let t = if mem {
                self.mem_fanout_idx[k]
            } else {
                self.fanout_idx[k]
            } as usize;
            self.mark_instr(t);
        }
    }

    /// Drains the dirty instructions in one forward pass over the
    /// levelized tape (fanout always points forward, so a single scan
    /// reaches the fixed point the interpreter iterates toward). The
    /// scan walks dirty *words* via `trailing_zeros`, so a handful of
    /// dirty instructions on a multi-thousand-entry tape cost a few
    /// word reads, not a per-instruction sweep.
    ///
    /// The only branch is the profiler check: with profiling off (or
    /// without the `prof` feature, where the branch compiles away) this
    /// is a direct call to [`CompiledSim::settle_plain`].
    fn settle(&mut self) -> Result<(), SimulateError> {
        #[cfg(feature = "prof")]
        if self.prof.is_some() {
            return self.settle_prof();
        }
        self.settle_plain()
    }

    fn settle_plain(&mut self) -> Result<(), SimulateError> {
        self.stats.settle_passes += 1;
        if self.dirty_lo == usize::MAX {
            return Ok(());
        }
        let mut stack = std::mem::take(&mut self.scratch);
        let mut result = Ok(());
        let mut w = self.dirty_lo >> 6;
        // `dirty_hi` can grow while we drain (fanout is strictly
        // forward), so the bound is re-read each iteration.
        'words: while w <= self.dirty_hi >> 6 && w < self.dirty.len() {
            // Re-read the word after every instruction: an eval may have
            // dirtied a later bit of this same word.
            while self.dirty[w] != 0 {
                let bit = self.dirty[w].trailing_zeros() as usize;
                self.dirty[w] &= !(1u64 << bit);
                let i = (w << 6) | bit;
                self.stats.assign_evals += 1;
                // The tape is immutable during execution; take the instr
                // out to appease the borrow checker without cloning the
                // program.
                let instr = std::mem::replace(
                    &mut self.tape[i],
                    Instr {
                        dst: Dst::SliceNoop,
                        rhs: Prog::default(),
                        module: 0,
                    },
                );
                let outcome = exec(&self.ctx(), &instr.rhs, &mut stack)
                    .and_then(|(v, _)| self.apply(&instr.dst, v, &mut stack));
                self.module_evals[instr.module as usize] += 1;
                self.tape[i] = instr;
                match outcome {
                    Ok(Some(change)) => self.mark_change(change),
                    Ok(None) => {}
                    Err(e) => {
                        result = Err(e);
                        break 'words;
                    }
                }
            }
            w += 1;
        }
        self.scratch = stack;
        // On the error path some dirty bits may remain set; clear them so
        // the scheduler invariant (all-clear between settles) holds.
        if result.is_err() {
            self.dirty.iter_mut().for_each(|w| *w = 0);
        }
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
        result
    }

    /// Profiled twin of [`CompiledSim::settle_plain`]: the identical
    /// drain plus per-instruction eval/op attribution, wasted-wakeup
    /// counting and dirty-set occupancy recording. The [`ProfState`] is
    /// moved out for the duration so `apply` can still borrow `self`.
    #[cfg(feature = "prof")]
    fn settle_prof(&mut self) -> Result<(), SimulateError> {
        let mut prof = self.prof.take().expect("settle_prof requires prof state");
        self.stats.settle_passes += 1;
        prof.sweeps += 1;
        if self.dirty_lo == usize::MAX {
            prof.occupancy.record(0);
            self.prof = Some(prof);
            return Ok(());
        }
        let mut stack = std::mem::take(&mut self.scratch);
        let mut result = Ok(());
        let mut woken = 0u64;
        let mut w = self.dirty_lo >> 6;
        'words: while w <= self.dirty_hi >> 6 && w < self.dirty.len() {
            while self.dirty[w] != 0 {
                let bit = self.dirty[w].trailing_zeros() as usize;
                self.dirty[w] &= !(1u64 << bit);
                let i = (w << 6) | bit;
                self.stats.assign_evals += 1;
                woken += 1;
                prof.instr_evals[i] += 1;
                let instr = std::mem::replace(
                    &mut self.tape[i],
                    Instr {
                        dst: Dst::SliceNoop,
                        rhs: Prog::default(),
                        module: 0,
                    },
                );
                // Destination index programs inside `apply` run through
                // the plain `exec` and are not op-counted; attribution
                // covers the rhs tape, which dominates.
                let mut ops_here = 0u64;
                let outcome = exec_prof(
                    &self.ctx(),
                    &instr.rhs,
                    &mut stack,
                    &mut prof.opcode_counts,
                    &mut ops_here,
                )
                .and_then(|(v, _)| self.apply(&instr.dst, v, &mut stack));
                prof.instr_ops[i] += ops_here;
                self.module_evals[instr.module as usize] += 1;
                self.tape[i] = instr;
                match outcome {
                    Ok(Some(change)) => self.mark_change(change),
                    Ok(None) => prof.wasted += 1,
                    Err(e) => {
                        result = Err(e);
                        break 'words;
                    }
                }
            }
            w += 1;
        }
        prof.occupancy.record(woken);
        self.scratch = stack;
        if result.is_err() {
            self.dirty.iter_mut().for_each(|w| *w = 0);
        }
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
        self.prof = Some(prof);
        result
    }

    /// Starts profiling: every subsequent settle takes the counted
    /// path. Counters accumulate across calls to `clock`; idempotent
    /// (re-enabling keeps existing counts).
    #[cfg(feature = "prof")]
    pub fn prof_enable(&mut self) {
        if self.prof.is_none() {
            self.prof = Some(Box::new(ProfState {
                instr_evals: vec![0; self.tape.len()],
                instr_ops: vec![0; self.tape.len()],
                ..ProfState::default()
            }));
        }
    }

    /// Snapshots the accumulated profile, or `None` if
    /// [`CompiledSim::prof_enable`] was never called.
    #[cfg(feature = "prof")]
    pub fn prof_profile(&self) -> Option<EngineProfile> {
        let prof = self.prof.as_ref()?;
        let total_evals: u64 = prof.instr_evals.iter().sum();
        let total_ops: u64 = prof.instr_ops.iter().sum();

        // Tape segments keyed (module, level).
        let mut seg: BTreeMap<(u32, u32), (u64, u64, u64)> = BTreeMap::new();
        for (i, instr) in self.tape.iter().enumerate() {
            let e = seg.entry((instr.module, self.instr_levels[i])).or_default();
            e.0 += 1;
            e.1 += prof.instr_evals[i];
            e.2 += prof.instr_ops[i];
        }
        let segments = seg
            .into_iter()
            .map(|((module, level), (instrs, evals, ops))| SegmentProf {
                module: self.module_paths[module as usize].clone(),
                level,
                instrs,
                evals,
                ops,
            })
            .collect();

        let opcodes = OPCODE_NAMES
            .iter()
            .zip(prof.opcode_counts.iter())
            .map(|(&opcode, &count)| OpcodeProf { opcode, count })
            .collect();

        // Cross-level traffic per register-boundary cut: an eval of
        // instruction `i` feeding a strictly later level `lt` crosses
        // every cut in `(level[i], lt]`; accumulated with a difference
        // array and prefix-summed.
        let max_level = self.instr_levels.iter().copied().max().unwrap_or(0);
        let mut diff = vec![0i64; max_level as usize + 2];
        for (i, instr) in self.tape.iter().enumerate() {
            let e = prof.instr_evals[i];
            if e == 0 {
                continue;
            }
            let li = self.instr_levels[i];
            for &t in self.dst_fanout(&instr.dst) {
                let lt = self.instr_levels[t as usize];
                if lt > li {
                    diff[li as usize + 1] += e as i64;
                    diff[lt as usize + 1] -= e as i64;
                }
            }
        }
        let mut cuts = Vec::new();
        let mut acc = 0i64;
        for (cut, &d) in diff.iter().enumerate().take(max_level as usize + 1).skip(1) {
            acc += d;
            cuts.push(CutProf {
                level: cut as u32,
                cross_evals: acc.max(0) as u64,
            });
        }

        Some(EngineProfile {
            engine: "compiled".to_string(),
            total_evals,
            total_ops,
            segments,
            opcodes,
            sweeps: SweepProf {
                sweeps: prof.sweeps,
                evals: total_evals,
                wasted_wakeups: prof.wasted,
                dirty_occupancy: prof.occupancy.clone(),
            },
            cuts,
        })
    }

    /// Topological level of each tape instruction, in tape order — the
    /// longest dependency path from any clocked/input root. The
    /// profiler aggregates over this.
    pub fn instr_levels(&self) -> &[u32] {
        &self.instr_levels
    }

    /// Marks the entire tape dirty — benchmark hook for measuring a
    /// full-tape settle sweep.
    #[doc(hidden)]
    pub fn dirty_all(&mut self) {
        for t in 0..self.tape.len() {
            self.mark_instr(t);
        }
    }

    /// Benchmark hook: settles via the uncounted drain directly.
    #[doc(hidden)]
    pub fn settle_direct(&mut self) -> Result<(), SimulateError> {
        self.settle_plain()
    }

    /// Benchmark hook: settles via the profiler dispatcher, as the
    /// production paths do.
    #[doc(hidden)]
    pub fn settle_dispatch(&mut self) -> Result<(), SimulateError> {
        self.settle()
    }

    fn run_cstmts<'b>(
        &self,
        stmts: &'b [CStmt],
        nba: &mut Vec<(&'b Dst, u64)>,
        stack: &mut Vec<(u64, u32)>,
    ) -> Result<(), SimulateError> {
        let ctx = self.ctx();
        for s in stmts {
            match s {
                CStmt::Assign(dst, rhs) => {
                    let (v, _) = exec(&ctx, rhs, stack)?;
                    nba.push((dst, v));
                }
                CStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let (c, _) = exec(&ctx, cond, stack)?;
                    if c != 0 {
                        self.run_cstmts(then_body, nba, stack)?;
                    } else {
                        self.run_cstmts(else_body, nba, stack)?;
                    }
                }
                CStmt::Case {
                    subject,
                    arms,
                    default,
                } => {
                    let (sv, sw) = exec(&ctx, subject, stack)?;
                    let mut hit = false;
                    for (m, body) in arms {
                        let (mv, _) = exec(&ctx, m, stack)?;
                        if (mv & mask(sw)) == sv {
                            self.run_cstmts(body, nba, stack)?;
                            hit = true;
                            break;
                        }
                    }
                    if !hit {
                        self.run_cstmts(default, nba, stack)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// See [`Simulator::poke`].
    ///
    /// # Errors
    ///
    /// Returns an error for unknown or non-input signals.
    pub fn poke(&mut self, name: &str, value: u64) -> Result<(), SimulateError> {
        if !self.inputs.iter().any(|i| i == name) {
            return Err(err(format!("`{name}` is not a top-level input")));
        }
        let slot = *self.names.get(name).expect("inputs are declared");
        let mut stack = std::mem::take(&mut self.scratch);
        let applied = self.apply(&Dst::Whole(slot), value, &mut stack);
        self.scratch = stack;
        if let Some(change) = applied? {
            self.mark_change(change);
        }
        self.settle()
    }

    /// See [`Simulator::read`].
    ///
    /// # Errors
    ///
    /// Returns an error for unknown signals or whole-memory reads.
    pub fn read(&self, name: &str) -> Result<u64, SimulateError> {
        match self.names.get(name) {
            Some(&s) if self.slots[s].mem.is_some() => {
                Err(err(format!("memory `{name}` read without index")))
            }
            Some(&s) => Ok(self.values[s] & mask(self.width(s))),
            None => Err(err(format!("unknown signal `{name}`"))),
        }
    }

    /// See [`Simulator::load_memory`]. Propagation into dependent
    /// combinational reads happens at the next settle (poke or clock),
    /// matching the interpreter's lazy re-walk.
    ///
    /// # Errors
    ///
    /// Returns an error if the signal is not a memory.
    pub fn load_memory(&mut self, name: &str, words: &[u64]) -> Result<(), SimulateError> {
        let slot = match self.names.get(name) {
            Some(&s) => s,
            None => return Err(err(format!("unknown signal `{name}`"))),
        };
        let m = match self.slots[slot].mem {
            Some(m) => m,
            None => return Err(err(format!("`{name}` is not a memory"))),
        };
        let w = self.width(slot);
        let len = self.mems[m].len().min(words.len());
        for (dst, src) in self.mems[m][..len].iter_mut().zip(words) {
            *dst = src & mask(w);
        }
        self.mark_change(Change::Mem(m));
        Ok(())
    }

    /// See [`Simulator::clock`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn clock(&mut self) -> Result<(), SimulateError> {
        self.clock_named("clk")
    }

    /// See [`Simulator::clock_named`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn clock_named(&mut self, clk: &str) -> Result<(), SimulateError> {
        let blocks = std::mem::take(&mut self.clocked);
        let mut stack = std::mem::take(&mut self.scratch);
        let mut nba: Vec<(&Dst, u64)> = Vec::new();
        let mut result = Ok(());
        for block in blocks.iter().filter(|b| b.clk == clk) {
            if let Err(e) = self.run_cstmts(&block.body, &mut nba, &mut stack) {
                result = Err(e);
                break;
            }
        }
        if result.is_ok() {
            self.stats.nba_writes += nba.len() as u64;
            for (dst, v) in &nba {
                match self.apply(dst, *v, &mut stack) {
                    Ok(Some(change)) => {
                        if let Some(s) = dst.slot() {
                            self.module_evals[self.slots[s].module as usize] += 1;
                        }
                        self.mark_change(change);
                    }
                    Ok(None) => {
                        if let Some(s) = dst.slot() {
                            self.module_evals[self.slots[s].module as usize] += 1;
                        }
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
        }
        drop(nba);
        self.clocked = blocks;
        self.scratch = stack;
        result?;
        self.cycles += 1;
        self.stats.clock_edges += 1;
        self.settle()?;
        self.vcd_capture();
        Ok(())
    }

    /// Cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution counters accumulated so far. `clock_edges` and
    /// `nba_writes` match the interpreter bit-for-bit; `settle_passes`
    /// counts scheduler drains and `assign_evals` counts instructions
    /// actually evaluated (the event-driven engine touches only dirty
    /// fanout cones, so these are far below the tree engine's).
    pub fn stats(&self) -> InterpStats {
        self.stats
    }

    /// Number of flattened signals (diagnostics).
    pub fn signal_count(&self) -> usize {
        self.names.len()
    }

    /// Tape length (diagnostics): one instruction per flattened
    /// continuous assign.
    pub fn instr_count(&self) -> usize {
        self.tape.len()
    }

    /// Evaluations attributed per flattened instance path (`""` is the
    /// top module), descending by count — the compiled engine's answer
    /// to "which generated block is hot". Instructions map back to the
    /// module that declared their destination signal.
    pub fn evals_by_module(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .module_paths
            .iter()
            .zip(&self.module_evals)
            .filter(|(_, &n)| n > 0)
            .map(|(p, &n)| (p.clone(), n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    // -- waveform recording -------------------------------------------------

    /// Starts VCD recording; signal set and order match the interpreter
    /// (sorted hierarchical names, scalars only), so the two engines
    /// produce byte-identical dumps for identical executions.
    pub fn vcd_begin(&mut self, top: &str) {
        let signals = self.vcd_signal_list();
        self.vcd = Some(Box::new(VcdRecorder::new(top, &signals, 10)));
        self.vcd_capture();
    }

    /// Starts VCD recording that streams into `sink` instead of
    /// buffering: constant resident memory regardless of run length.
    /// [`CompiledSim::vcd_end`] then flushes the sink and returns `None`.
    pub fn vcd_begin_streaming(&mut self, top: &str, sink: Box<dyn std::io::Write + Send>) {
        let signals = self.vcd_signal_list();
        self.vcd = Some(Box::new(VcdRecorder::streaming(top, &signals, 10, sink)));
        self.vcd_capture();
    }

    fn vcd_signal_list(&mut self) -> Vec<(String, u32)> {
        let signals: Vec<(String, u32)> = self
            .names
            .iter()
            .filter(|(_, &s)| self.slots[s].mem.is_none())
            .map(|(name, &s)| (name.clone(), self.width(s)))
            .collect();
        self.vcd_slots = self
            .names
            .iter()
            .filter(|(_, &s)| self.slots[s].mem.is_none())
            .map(|(_, &s)| s)
            .collect();
        signals
    }

    /// Forces a sample outside a clock edge.
    pub fn vcd_sample_now(&mut self) {
        self.vcd_capture();
    }

    /// Stops recording. Buffered recordings return the VCD document;
    /// streamed recordings flush their sink and return `None`.
    pub fn vcd_end(&mut self) -> Option<String> {
        self.vcd_slots.clear();
        self.vcd.take().and_then(|rec| rec.finish())
    }

    /// Timesteps recorded so far, or 0 when not recording.
    pub fn vcd_timesteps(&self) -> u64 {
        self.vcd.as_ref().map(|r| r.timesteps()).unwrap_or(0)
    }

    /// Bytes the active recording has pushed through its sink.
    pub fn vcd_bytes_written(&self) -> u64 {
        self.vcd.as_ref().map(|r| r.bytes_written()).unwrap_or(0)
    }

    /// Width of a scalar signal, or `None` for unknowns and memories.
    pub fn signal_width(&self, name: &str) -> Option<u32> {
        self.names
            .get(name)
            .filter(|&&s| self.slots[s].mem.is_none())
            .map(|&s| self.width(s))
    }

    fn vcd_capture(&mut self) {
        if let Some(mut rec) = self.vcd.take() {
            let values: Vec<u64> = self
                .vcd_slots
                .iter()
                .map(|&s| self.values[s] & mask(self.width(s)))
                .collect();
            rec.sample(&values);
            self.vcd = Some(rec);
        }
    }
}

impl Simulator for CompiledSim {
    fn poke(&mut self, name: &str, value: u64) -> Result<(), SimulateError> {
        CompiledSim::poke(self, name, value)
    }

    fn read(&self, name: &str) -> Result<u64, SimulateError> {
        CompiledSim::read(self, name)
    }

    fn load_memory(&mut self, name: &str, words: &[u64]) -> Result<(), SimulateError> {
        CompiledSim::load_memory(self, name, words)
    }

    fn clock_named(&mut self, clk: &str) -> Result<(), SimulateError> {
        CompiledSim::clock_named(self, clk)
    }

    fn cycles(&self) -> u64 {
        CompiledSim::cycles(self)
    }

    fn stats(&self) -> InterpStats {
        CompiledSim::stats(self)
    }

    fn signal_count(&self) -> usize {
        CompiledSim::signal_count(self)
    }

    fn evals_by_module(&self) -> Vec<(String, u64)> {
        CompiledSim::evals_by_module(self)
    }

    fn vcd_begin(&mut self, top: &str) {
        CompiledSim::vcd_begin(self, top);
    }

    fn vcd_begin_streaming(&mut self, top: &str, sink: Box<dyn std::io::Write + Send>) {
        CompiledSim::vcd_begin_streaming(self, top, sink);
    }

    fn vcd_sample_now(&mut self) {
        CompiledSim::vcd_sample_now(self);
    }

    fn vcd_end(&mut self) -> Option<String> {
        CompiledSim::vcd_end(self)
    }

    fn vcd_timesteps(&self) -> u64 {
        CompiledSim::vcd_timesteps(self)
    }

    fn vcd_bytes_written(&self) -> u64 {
        CompiledSim::vcd_bytes_written(self)
    }

    fn signal_width(&self, name: &str) -> Option<u32> {
        CompiledSim::signal_width(self, name)
    }

    #[cfg(feature = "prof")]
    fn prof_enable(&mut self) {
        CompiledSim::prof_enable(self);
    }

    #[cfg(feature = "prof")]
    fn prof_profile(&self) -> Option<EngineProfile> {
        CompiledSim::prof_profile(self)
    }
}

/// Finds a combinational cycle among the flattened continuous assigns of
/// `top`, returning the hierarchical signal names along the cycle (the
/// first name is repeated at the end to close the loop), or `None` when
/// the assigns levelize.
///
/// Granularity matches the levelizer in [`CompiledSim::compile`]: a read
/// of any part of a signal depends on every driver of that signal, so a
/// cycle reported here is exactly a cycle the compiled engine rejects.
///
/// # Errors
///
/// Returns [`SimulateError`] when the design cannot be flattened (unknown
/// modules or over-wide signals).
pub fn find_comb_cycle(design: &Design, top: &str) -> Result<Option<Vec<String>>, SimulateError> {
    let flat = flatten_design(design, top)?;
    // Name-level dependency graph: one node per driven signal, an edge
    // dst -> src for every signal an assign driving `dst` reads.
    let mut node_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut node_names: Vec<&str> = Vec::new();
    for (lhs, _) in &flat.assigns {
        if let Some(root) = lhs.lvalue_root() {
            node_of.entry(root).or_insert_with(|| {
                node_names.push(root);
                node_names.len() - 1
            });
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); node_names.len()];
    for (lhs, rhs) in &flat.assigns {
        let Some(root) = lhs.lvalue_root() else {
            continue;
        };
        let dst = node_of[root];
        // Reads of this assign: the whole rhs plus any dynamic index on
        // the lhs (everything but the root itself).
        for id in rhs
            .idents()
            .into_iter()
            .chain(lhs.idents().into_iter().filter(|id| *id != root))
        {
            if let Some(&src) = node_of.get(id) {
                if !succs[dst].contains(&src) {
                    succs[dst].push(src);
                }
            }
        }
    }
    // Iterative 3-colour DFS; a back edge closes the cycle.
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut colour = vec![WHITE; node_names.len()];
    for start in 0..node_names.len() {
        if colour[start] != WHITE {
            continue;
        }
        // Stack of (node, next-successor index); doubles as the path.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        colour[start] = GREY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&succ) = succs[node].get(*next) {
                *next += 1;
                match colour[succ] {
                    WHITE => {
                        colour[succ] = GREY;
                        stack.push((succ, 0));
                    }
                    GREY => {
                        // Found: the cycle is the path suffix from
                        // `succ` plus the closing edge.
                        let from = stack
                            .iter()
                            .position(|&(n, _)| n == succ)
                            .expect("grey nodes are on the stack");
                        let mut cycle: Vec<String> = stack[from..]
                            .iter()
                            .map(|&(n, _)| node_names[n].to_string())
                            .collect();
                        cycle.push(node_names[succ].to_string());
                        return Ok(Some(cycle));
                    }
                    _ => {}
                }
            } else {
                colour[node] = BLACK;
                stack.pop();
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn counter_ram() -> Design {
        // A counter feeding a small RAM plus combinational decode —
        // exercises clocked blocks, memories, dynamic indices, slices
        // and concats in one design.
        let mut m = VModule::new("dut");
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::input("wen", 1))
            .port(Port::output("q", 8))
            .port(Port::output("dout", 8));
        m.item(Item::Net(NetDecl::reg("count", 8)));
        m.item(Item::Net(NetDecl::memory("ram", 8, 8)));
        m.item(Item::Net(NetDecl::wire("addr", 3)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![
                Stmt::If {
                    cond: Expr::id("rst"),
                    then_body: vec![Stmt::NonBlocking(Expr::id("count"), Expr::lit(8, 0))],
                    else_body: vec![Stmt::NonBlocking(
                        Expr::id("count"),
                        Expr::bin(BinaryOp::Add, Expr::id("count"), Expr::lit(8, 1)),
                    )],
                },
                Stmt::If {
                    cond: Expr::id("wen"),
                    then_body: vec![Stmt::NonBlocking(
                        Expr::Index(Box::new(Expr::id("ram")), Box::new(Expr::id("addr"))),
                        Expr::bin(BinaryOp::Xor, Expr::id("count"), Expr::lit(8, 0xA5)),
                    )],
                    else_body: vec![],
                },
            ],
        });
        m.item(Item::Assign {
            lhs: Expr::id("addr"),
            rhs: Expr::Slice(Box::new(Expr::id("count")), 2, 0),
        });
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("count"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: Expr::Index(Box::new(Expr::id("ram")), Box::new(Expr::id("addr"))),
        });
        Design::new(m)
    }

    fn read_all(tree: &Interpreter, compiled: &CompiledSim, names: &[&str]) {
        for n in names {
            assert_eq!(
                tree.read(n).expect("tree read"),
                compiled.read(n).expect("compiled read"),
                "signal `{n}` diverged"
            );
        }
    }

    #[test]
    fn clocked_design_matches_interpreter_including_vcd() {
        let design = counter_ram();
        let mut tree = Interpreter::elaborate(&design, "dut").expect("tree elab");
        let mut compiled = CompiledSim::compile(&design, "dut").expect("compile");
        tree.vcd_begin("dut");
        compiled.vcd_begin("dut");
        let names = ["q", "dout", "count", "addr"];
        for step in 0u64..40 {
            let rst = u64::from(step % 13 == 0);
            let wen = u64::from(step % 3 != 0);
            tree.poke("rst", rst).expect("tree poke");
            compiled.poke("rst", rst).expect("compiled poke");
            tree.poke("wen", wen).expect("tree poke");
            compiled.poke("wen", wen).expect("compiled poke");
            tree.clock().expect("tree clock");
            compiled.clock().expect("compiled clock");
            read_all(&tree, &compiled, &names);
        }
        let ts = tree.stats();
        let cs = compiled.stats();
        assert_eq!(ts.clock_edges, cs.clock_edges);
        assert_eq!(ts.nba_writes, cs.nba_writes);
        assert!(
            cs.assign_evals < ts.assign_evals,
            "event-driven engine should evaluate fewer assigns ({} vs {})",
            cs.assign_evals,
            ts.assign_evals
        );
        assert_eq!(
            tree.vcd_end().expect("tree vcd"),
            compiled.vcd_end().expect("compiled vcd"),
            "VCD dumps must be byte-identical"
        );
    }

    #[test]
    fn load_memory_defers_propagation_like_interpreter() {
        let design = counter_ram();
        let mut tree = Interpreter::elaborate(&design, "dut").expect("tree elab");
        let mut compiled = CompiledSim::compile(&design, "dut").expect("compile");
        let image: Vec<u64> = (0..8).map(|i| 0x30 + i).collect();
        tree.load_memory("ram", &image).expect("tree load");
        compiled.load_memory("ram", &image).expect("compiled load");
        // Neither engine propagates the backdoor write until the next
        // settle; the stale combinational read must agree.
        assert_eq!(
            tree.read("dout").expect("tree"),
            compiled.read("dout").expect("compiled")
        );
        tree.poke("rst", 0).expect("tree");
        compiled.poke("rst", 0).expect("compiled");
        assert_eq!(tree.read("dout").expect("tree"), 0x30);
        assert_eq!(compiled.read("dout").expect("compiled"), 0x30);
    }

    #[test]
    fn combinational_loop_is_rejected_statically() {
        let mut m = VModule::new("loopy");
        m.port(Port::input("a", 1)).port(Port::output("y", 1));
        m.item(Item::Net(NetDecl::wire("x", 1)));
        m.item(Item::Assign {
            lhs: Expr::id("x"),
            rhs: Expr::bin(BinaryOp::Xor, Expr::id("y"), Expr::id("a")),
        });
        m.item(Item::Assign {
            lhs: Expr::id("y"),
            rhs: Expr::Unary(UnaryOp::BitNot, Box::new(Expr::id("x"))),
        });
        let err = CompiledSim::compile(&Design::new(m), "loopy").expect_err("loop");
        assert!(
            err.message.contains("combinational loop"),
            "{}",
            err.message
        );
    }

    #[test]
    fn evals_attribute_to_instance_paths() {
        // Two instances of a child module: attribution must separate them.
        let mut child = VModule::new("stage");
        child
            .port(Port::input("clk", 1))
            .port(Port::input("d", 8))
            .port(Port::output("q", 8));
        child.item(Item::Net(NetDecl::reg("r", 8)));
        child.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::NonBlocking(Expr::id("r"), Expr::id("d"))],
        });
        child.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::bin(BinaryOp::Add, Expr::id("r"), Expr::lit(8, 1)),
        });
        let mut top = VModule::new("top");
        top.port(Port::input("clk", 1))
            .port(Port::input("din", 8))
            .port(Port::output("dout", 8));
        top.item(Item::Net(NetDecl::wire("mid", 8)));
        for (name, d, q) in [("u0", "din", "mid"), ("u1", "mid", "dout")] {
            top.item(Item::Instance {
                module: "stage".into(),
                name: name.into(),
                params: vec![],
                connections: vec![
                    ("clk".into(), Expr::id("clk")),
                    ("d".into(), Expr::id(d)),
                    ("q".into(), Expr::id(q)),
                ],
            });
        }
        let mut d = Design::new(top);
        d.add_module(child);
        let mut sim = CompiledSim::compile(&d, "top").expect("compile");
        sim.poke("din", 7).expect("poke");
        sim.clock().expect("clock");
        sim.clock().expect("clock");
        let by_module = sim.evals_by_module();
        let paths: Vec<&str> = by_module.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"u0"), "u0 missing from {paths:?}");
        assert!(paths.contains(&"u1"), "u1 missing from {paths:?}");
        assert!(by_module.iter().all(|(_, n)| *n > 0));
    }

    #[test]
    fn engine_parses_and_elaborates() {
        assert_eq!("tree".parse::<SimEngine>().expect("parse"), SimEngine::Tree);
        assert_eq!(
            "COMPILED".parse::<SimEngine>().expect("parse"),
            SimEngine::Compiled
        );
        for removed in ["verilator", "parallel", "parallel:4"] {
            let err = removed.parse::<SimEngine>().expect_err(removed);
            assert!(err.contains("(tree|compiled)"), "{removed}: {err}");
        }
        let design = counter_ram();
        for engine in [SimEngine::Tree, SimEngine::Compiled] {
            let mut sim = engine.elaborate(&design, "dut").expect("elaborate");
            sim.clock().expect("clock");
            assert_eq!(sim.read("q").expect("read"), 1);
        }
    }

    // -- randomized equivalence --------------------------------------------

    /// One randomly planned combinational net: an operator applied to
    /// leaves drawn from the inputs, earlier nets, an undriven wire (the
    /// two-state stand-in for x-fanin) and literals. `pub(crate)` so the
    /// interference analyzer's zero-false-positive proptest reuses the
    /// same generator.
    #[derive(Debug, Clone)]
    pub(crate) struct NetPlan {
        op: u8,
        a: u8,
        b: u8,
        lit: u64,
        width: u32,
    }

    pub(crate) fn plan_strategy() -> impl Strategy<Value = (Vec<NetPlan>, Vec<(u8, u64)>)> {
        let net = (0u8..=255, 0u8..=255, 0u8..=255, 0u64..=u64::MAX, 1u32..=16).prop_map(
            |(op, a, b, lit, width)| NetPlan {
                op,
                a,
                b,
                lit,
                width,
            },
        );
        let stimulus = proptest::collection::vec((0u8..3, 0u64..=u64::MAX), 1..24);
        (proptest::collection::vec(net, 1..24), stimulus)
    }

    /// Builds a loop-free combinational design from a plan: three inputs,
    /// one undriven wire, then one wire per plan entry reading only
    /// earlier signals (a DAG by construction).
    pub(crate) fn build_design(plans: &[NetPlan]) -> (Design, Vec<String>) {
        let inputs = ["a", "b", "c"];
        let mut m = VModule::new("rand");
        for i in &inputs {
            m.port(Port::input(*i, 12));
        }
        m.item(Item::Net(NetDecl::wire("undriven", 9)));
        let mut leaves: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        leaves.push("undriven".into());
        let mut nets = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let name = format!("n{i}");
            m.item(Item::Net(NetDecl::wire(&name, plan.width)));
            let leaf = |sel: u8| -> Expr {
                match sel as usize % (leaves.len() + 1) {
                    k if k < leaves.len() => Expr::id(leaves[k].clone()),
                    _ => Expr::lit(plan.width, plan.lit),
                }
            };
            let (la, lb) = (leaf(plan.a), leaf(plan.b));
            let ops = [
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::Xor,
                BinaryOp::Shl,
                BinaryOp::Shr,
                BinaryOp::Eq,
                BinaryOp::Ne,
                BinaryOp::Lt,
                BinaryOp::Slt,
                BinaryOp::Ge,
            ];
            let rhs = match plan.op as usize % (ops.len() + 3) {
                k if k < ops.len() => Expr::bin(ops[k], la, lb),
                k if k == ops.len() => {
                    Expr::Ternary(Box::new(leaf(plan.op)), Box::new(la), Box::new(lb))
                }
                k if k == ops.len() + 1 => Expr::Unary(UnaryOp::BitNot, Box::new(la)),
                _ => Expr::Concat(vec![la, lb]),
            };
            // Generated RTL is width-consistent; mirror that by sizing
            // the rhs to the destination net (the interpreter's settle
            // change-detection requires it).
            m.item(Item::Assign {
                lhs: Expr::id(name.clone()),
                rhs: Expr::Slice(Box::new(rhs), plan.width - 1, 0),
            });
            leaves.push(name.clone());
            nets.push(name);
        }
        (Design::new(m), nets)
    }

    /// Drives `sim` through the same mixed reset/write stimulus the
    /// equivalence tests use.
    fn drive<S: Simulator>(sim: &mut S, steps: u64) {
        for step in 0..steps {
            sim.poke("rst", u64::from(step % 13 == 0)).expect("poke");
            sim.poke("wen", u64::from(step % 3 != 0)).expect("poke");
            sim.clock().expect("clock");
        }
    }

    /// The profiled drain must be behaviourally identical to the plain
    /// one — this is the test that licenses `exec_prof` existing as a
    /// duplicate of `exec`.
    #[cfg(feature = "prof")]
    #[test]
    fn profiled_matches_unprofiled() {
        let design = counter_ram();
        let mut plain = CompiledSim::compile(&design, "dut").expect("compile");
        let mut prof = CompiledSim::compile(&design, "dut").expect("compile");
        prof.prof_enable();
        drive(&mut plain, 40);
        drive(&mut prof, 40);
        for n in ["q", "dout", "count", "addr"] {
            assert_eq!(
                plain.read(n).expect("plain read"),
                prof.read(n).expect("prof read"),
                "signal `{n}` diverged under profiling"
            );
        }
        let (ps, fs) = (plain.stats(), prof.stats());
        assert_eq!(ps.clock_edges, fs.clock_edges);
        assert_eq!(ps.settle_passes, fs.settle_passes);
        assert_eq!(ps.assign_evals, fs.assign_evals);
        assert_eq!(ps.nba_writes, fs.nba_writes);
        assert_eq!(plain.evals_by_module(), prof.evals_by_module());
    }

    /// Attribution invariants: segment evals sum to the total, opcode
    /// counts sum to the op total, and an op executes for every eval.
    #[cfg(feature = "prof")]
    #[test]
    fn profile_attribution_sums_are_consistent() {
        let design = counter_ram();
        let mut sim = CompiledSim::compile(&design, "dut").expect("compile");
        assert!(sim.prof_profile().is_none(), "no profile before enable");
        sim.prof_enable();
        drive(&mut sim, 40);
        let p = sim.prof_profile().expect("profile");
        assert_eq!(p.engine, "compiled");
        assert!(p.total_evals > 0, "stimulus must exercise the tape");
        let seg_evals: u64 = p.segments.iter().map(|s| s.evals).sum();
        let seg_ops: u64 = p.segments.iter().map(|s| s.ops).sum();
        let op_counts: u64 = p.opcodes.iter().map(|o| o.count).sum();
        assert_eq!(seg_evals, p.total_evals);
        assert_eq!(seg_ops, p.total_ops);
        assert_eq!(op_counts, p.total_ops);
        assert_eq!(p.sweeps.evals, p.total_evals);
        assert!(
            p.total_ops >= p.total_evals,
            "every eval executes at least one op"
        );
        assert!(p.sweeps.sweeps > 0);
        assert_eq!(p.sweeps.dirty_occupancy.count(), p.sweeps.sweeps);
    }

    /// The levelizer's longest-path levels respect tape dependencies:
    /// `addr` derives from `count` (level 0 sources feed it), and
    /// `dout` reads `ram[addr]` so it must sit strictly above `addr`.
    #[cfg(feature = "prof")]
    #[test]
    fn profile_levels_follow_dependencies() {
        let design = counter_ram();
        let mut sim = CompiledSim::compile(&design, "dut").expect("compile");
        sim.prof_enable();
        drive(&mut sim, 8);
        let p = sim.prof_profile().expect("profile");
        let max_level = p.segments.iter().map(|s| s.level).max().unwrap_or(0);
        assert!(max_level >= 1, "dout depends on addr: at least two levels");
        for cut in &p.cuts {
            assert!(cut.level >= 1 && cut.level <= max_level);
        }
        assert!(
            p.cuts.iter().any(|c| c.cross_evals > 0),
            "count -> addr -> dout traffic must cross a level boundary"
        );
    }

    proptest! {
        /// CompiledSim ≡ Interpreter on random combinational designs and
        /// random stimulus, covering x-fanin (the undriven leaf) and the
        /// signed compare / divide / shift operators.
        #[test]
        fn compiled_matches_interpreter_on_random_designs(
            (plans, stimulus) in plan_strategy()
        ) {
            let (design, nets) = build_design(&plans);
            let mut tree = Interpreter::elaborate(&design, "rand").expect("tree elab");
            let mut compiled = CompiledSim::compile(&design, "rand").expect("compile");
            let inputs = ["a", "b", "c"];
            for (port, value) in &stimulus {
                let port = inputs[*port as usize % inputs.len()];
                tree.poke(port, *value).expect("tree poke");
                compiled.poke(port, *value).expect("compiled poke");
                for n in &nets {
                    prop_assert_eq!(
                        tree.read(n).expect("tree read"),
                        compiled.read(n).expect("compiled read"),
                        "net `{}` diverged after poke {}={}", n, port, value
                    );
                }
                prop_assert_eq!(tree.read("undriven").expect("t"), 0);
                prop_assert_eq!(compiled.read("undriven").expect("c"), 0);
            }
        }

    }
}
