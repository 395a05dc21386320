//! Lowering, the first phase of the compiled engine: the dense signal
//! arena, expressions compiled to postfix bytecode ([`Op`]) over arena
//! indices, the levelizer that orders continuous assigns into the tape,
//! and the fanout CSR the scheduler wakes readers through.

use super::{err, mask, CompiledSim, Dirty};
use crate::ast::{BinaryOp, Design, Expr, Stmt, UnaryOp};
use crate::interp::{flatten_design, InterpStats, SimulateError};
use std::collections::BTreeMap;

pub(super) type SlotId = usize;
pub(super) type MemId = usize;

/// One arena signal: scalars live in `CompiledSim::values`, memories in
/// `CompiledSim::mems`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Slot {
    pub(super) width: u32,
    pub(super) mem: Option<MemId>,
    /// Index into the module-path table (instance attribution).
    pub(super) module: u32,
    /// A top-level input, writable through `Simulator::set`.
    pub(super) input: bool,
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
pub(super) enum Op {
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

/// A lowered expression: a postfix op sequence leaving one
/// `(value, width)` result on the stack.
pub(super) type Prog = Box<[Op]>;

/// A compiled write destination (continuous-assign lhs or NBA lvalue).
#[derive(Debug, Clone)]
pub(super) enum Dst {
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
    pub(super) fn slot(&self) -> Option<SlotId> {
        match self {
            Dst::Whole(s) | Dst::Bit(s, _) | Dst::Slice(s, _, _) => Some(*s),
            _ => None,
        }
    }
}

/// One tape entry: a levelized continuous assign.
#[derive(Debug, Clone)]
pub(super) struct Instr {
    pub(super) dst: Dst,
    pub(super) rhs: Prog,
    /// Module-path id for eval attribution.
    pub(super) module: u32,
}

/// A compiled procedural statement (posedge body).
#[derive(Debug, Clone)]
pub(super) enum CStmt {
    /// Blocking and non-blocking both commit after the block runs (the
    /// generated code never relies on intra-block ordering). The
    /// destination indexes [`Clocked::dsts`].
    Assign(u32, Prog),
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

/// The posedge logic: per clock name, the bodies of every posedge block
/// on that clock concatenated in declaration order, plus the arena of
/// their write destinations, so an edge queues plain indices.
#[derive(Debug, Default)]
pub(super) struct Clocked {
    pub(super) domains: Vec<(String, Vec<CStmt>)>,
    pub(super) dsts: Vec<Dst>,
}

/// Compressed sparse rows over tape indices: row `n` is
/// `idx[off[n]..off[n + 1]]`, flat so walking a row allocates nothing.
#[derive(Debug)]
pub(super) struct Csr {
    pub(super) off: Box<[u32]>,
    pub(super) idx: Box<[u32]>,
}

impl Csr {
    fn from_lists(lists: Vec<Vec<u32>>) -> Self {
        let mut off = Vec::with_capacity(lists.len() + 1);
        let mut idx = Vec::new();
        off.push(0);
        for list in &lists {
            idx.extend_from_slice(list);
            off.push(idx.len() as u32);
        }
        Csr {
            off: off.into_boxed_slice(),
            idx: idx.into_boxed_slice(),
        }
    }

    pub(super) fn row(&self, n: usize) -> &[u32] {
        &self.idx[self.off[n] as usize..self.off[n + 1] as usize]
    }
}

/// The tape instructions reading each scalar slot and each memory, in
/// tape order.
#[derive(Debug)]
pub(super) struct Fanout {
    pub(super) slots: Csr,
    pub(super) mems: Csr,
}

impl Fanout {
    /// Tape indices that read what a write to `dst` changes (empty for
    /// destinations that commit nothing) — the one mapping behind
    /// wakeups, the forward-edge check and the profiler's cut table.
    pub(super) fn readers(&self, dst: &Dst) -> &[u32] {
        match dst {
            Dst::Whole(s) | Dst::Bit(s, _) | Dst::Slice(s, _, _) => self.slots.row(*s),
            Dst::Word(m, _) => self.mems.row(*m),
            Dst::SliceNoop | Dst::Fail(_) => &[],
        }
    }
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

    /// Lowers posedge statements, appending their write destinations
    /// to `dsts`.
    fn cstmts(&self, stmts: &[Stmt], dsts: &mut Vec<Dst>) -> Vec<CStmt> {
        stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::NonBlocking(lhs, rhs) | Stmt::Blocking(lhs, rhs) => {
                    dsts.push(self.cdst(lhs));
                    Some(CStmt::Assign((dsts.len() - 1) as u32, self.cexpr(rhs)))
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => Some(CStmt::If {
                    cond: self.cexpr(cond),
                    then_body: self.cstmts(then_body, dsts),
                    else_body: self.cstmts(else_body, dsts),
                }),
                Stmt::Case {
                    subject,
                    arms,
                    default,
                } => Some(CStmt::Case {
                    subject: self.cexpr(subject),
                    arms: arms
                        .iter()
                        .map(|(m, body)| (self.cexpr(m), self.cstmts(body, dsts)))
                        .collect(),
                    default: self.cstmts(default, dsts),
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
                input: false,
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

        for input in &flat.inputs {
            slots[names[input]].input = true;
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
        let fanout = Fanout {
            slots: Csr::from_lists(fanout),
            mems: Csr::from_lists(mem_fanout),
        };

        // Compile clocked blocks, grouped by clock.
        let mut clocked = Clocked::default();
        for (clk, body) in &flat.clocked {
            let body = comp.cstmts(body, &mut clocked.dsts);
            match clocked.domains.iter_mut().find(|(c, _)| c == clk) {
                Some((_, domain)) => domain.extend(body),
                None => clocked.domains.push((clk.clone(), body)),
            }
        }

        let tape_len = tape.len();
        let mut bits = vec![u64::MAX; tape_len.div_ceil(64)];
        if let Some(last) = bits.last_mut() {
            let used = tape_len % 64;
            if used != 0 {
                *last = u64::MAX >> (64 - used);
            }
        }
        let dirty = Dirty {
            bits,
            lo: if tape_len == 0 { usize::MAX } else { 0 },
            hi: tape_len.saturating_sub(1),
        };
        let module_evals = vec![0; module_paths.len()];
        let mut sim = CompiledSim {
            names,
            values: vec![0; slots.len()],
            slots,
            mems,
            mem_slot,
            tape,
            fanout,
            dirty,
            clocked,
            nba: Vec::new(),
            cycles: 0,
            stats: InterpStats::default(),
            module_paths,
            module_evals,
            instr_levels,
            prof: None,
            vcd: None,
            vcd_slots: Vec::new(),
            scratch: Vec::with_capacity(64),
        };
        // The invariant `settle_with`'s single forward pass relies on
        // (DESIGN.md §17): every reader woken by a write sits strictly
        // later in tape order.
        debug_assert!(
            sim.tape.iter().enumerate().all(|(t, instr)| sim
                .fanout
                .readers(&instr.dst)
                .iter()
                .all(|&r| r as usize > t)),
            "levelizer emitted a dependence edge that does not point forward in tape order"
        );
        // Initial full evaluation (the interpreter settles at elaborate).
        sim.settle()?;
        Ok(sim)
    }
}
