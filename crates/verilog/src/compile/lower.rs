//! Lowering, the first phase of the compiled engine: the dense signal
//! arena, the alias pass that merges port copies, expressions and
//! posedge bodies compiled to flat bytecode ([`Op`]) over arena
//! indices, the levelizer that orders continuous assigns into the tape,
//! and the fanout CSR the scheduler wakes readers through.

use super::{err, mask, CompiledSim, Dirty};
use crate::ast::{BinaryOp, Design, Expr, Stmt, UnaryOp};
use crate::simulator::{flatten_design, FlatDesign, InterpStats, SimulateError};
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
    /// The slot holding this signal's value: itself, or the root of the
    /// chain of whole-signal copies it was merged into ([`merge_copies`]).
    /// Compiled programs only ever name representatives.
    pub(super) rep: SlotId,
}

/// One opcode of a compiled program. Expressions and posedge bodies
/// lower to flat postfix programs ([`Prog`]) executed over an explicit
/// operand stack
/// of `(value, width)` pairs — no recursion, no pointer chasing, and
/// the operand stack is a reused scratch buffer. Names that fail to
/// resolve at compile time become [`Op::Fail`] so the error still
/// surfaces lazily at evaluation (a branch never taken never errors,
/// exactly like the tree oracle); ternaries lower to conditional jumps
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
    // Statement ops: control flow and write queueing, found only in
    // posedge programs and not counted as expression work.
    /// `if`: pop the condition; jump to the absolute op index if it is
    /// zero.
    BranchIfZero(u32),
    /// `if` on a bare signal: `Sig` and `BranchIfZero` fused.
    BranchIfSigZero(SlotId, u32),
    /// Jump past the rest of an `if` or `case`.
    Branch(u32),
    /// `case` arm: pop the label and compare it, on the subject's width,
    /// with the subject beneath it. On a miss jump to the next arm; on a
    /// hit pop the subject and fall into the arm's body.
    CaseNe(u32),
    /// Pop the `case` subject no arm matched (before the default body).
    PopSubject,
    /// Pop a value and queue its write to `Clocked::dsts[i]`; blocking
    /// and non-blocking writes alike commit after the edge (the
    /// generated code never relies on intra-block ordering).
    Queue(u32),
    /// Queue a literal write: `Lit` and `Queue` fused.
    QueueLit(u32, u64),
}

/// A lowered program: an expression leaves one `(value, width)` result
/// on the stack; a posedge program leaves it empty, its writes queued.
pub(super) type Prog = Box<[Op]>;

/// A compiled write destination (continuous-assign lhs or NBA lvalue).
#[derive(Debug, Clone)]
pub(super) enum Dst {
    Whole(SlotId),
    /// Dynamic bit write into a scalar; the index is evaluated when the
    /// write is applied (commit time for NBAs).
    Bit(SlotId, Prog),
    Slice(SlotId, u32, u32),
    /// Slice write onto a memory: the tree oracle silently ignores it.
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

/// The posedge logic: per clock name, one flat program running the
/// bodies of every posedge block on that clock in declaration order,
/// plus the arena of their write destinations, so an edge queues plain
/// indices.
#[derive(Debug, Default)]
pub(super) struct Clocked {
    pub(super) domains: Vec<(String, Prog)>,
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

/// Points the forward jump at `ops[at]` to the current end of `ops`.
fn land(ops: &mut [Op], at: usize) {
    let here = ops.len() as u32;
    match &mut ops[at] {
        Op::JumpIfZero(t)
        | Op::Jump(t)
        | Op::BranchIfZero(t)
        | Op::BranchIfSigZero(_, t)
        | Op::Branch(t)
        | Op::CaseNe(t) => *t = here,
        op => unreachable!("{op:?} is not a jump"),
    }
}

struct ExprCompiler<'a> {
    names: &'a BTreeMap<String, SlotId>,
    slots: &'a [Slot],
}

impl ExprCompiler<'_> {
    /// The representative slot a name reads and writes.
    fn slot(&self, name: &str) -> Option<SlotId> {
        self.names.get(name).map(|&s| self.slots[s].rep)
    }

    fn cexpr(&self, e: &Expr) -> Prog {
        let mut ops = Vec::new();
        self.emit(e, &mut ops);
        ops.into_boxed_slice()
    }

    /// Appends the postfix lowering of `e` to `ops`. Operand order
    /// mirrors the tree oracle's evaluation order (left before right,
    /// index before element read) so error precedence is preserved; a
    /// ternary lowers to `cond JumpIfZero(else) then Jump(end) else`.
    fn emit(&self, e: &Expr, ops: &mut Vec<Op>) {
        match e {
            Expr::Id(n) => match self.slot(n) {
                Some(s) if self.slots[s].mem.is_some() => {
                    ops.push(Op::Fail(format!("memory `{n}` read without index").into()));
                }
                Some(s) => ops.push(Op::Sig(s)),
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
                land(ops, jz);
                self.emit(b, ops);
                land(ops, jmp);
            }
            Expr::Index(base, idx) => match base.lvalue_root() {
                None => ops.push(Op::Fail("index on a non-identifier".into())),
                Some(root) => match self.slot(root) {
                    None => ops.push(Op::Fail(format!("unknown signal `{root}`").into())),
                    Some(s) => {
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
            Expr::Id(n) => match self.slot(n) {
                Some(s) if self.slots[s].mem.is_some() => {
                    Dst::Fail(format!("memory `{n}` written without index").into())
                }
                Some(s) => Dst::Whole(s),
                None => Dst::Fail(format!("unknown signal `{n}`").into()),
            },
            Expr::Index(base, idx) => match base.lvalue_root() {
                None => Dst::Fail("index write on a non-identifier".into()),
                Some(root) => match self.slot(root) {
                    None => Dst::Fail(format!("unknown signal `{root}`").into()),
                    Some(s) => match self.slots[s].mem {
                        Some(m) => Dst::Word(m, self.cexpr(idx)),
                        None => Dst::Bit(s, self.cexpr(idx)),
                    },
                },
            },
            Expr::Slice(base, hi, lo) => match base.lvalue_root() {
                None => Dst::Fail("slice write on a non-identifier".into()),
                Some(root) => match self.slot(root) {
                    None => Dst::Fail(format!("unknown signal `{root}`").into()),
                    Some(s) => match self.slots[s].mem {
                        Some(_) => Dst::SliceNoop,
                        None => Dst::Slice(s, *hi, *lo),
                    },
                },
            },
            _ => Dst::Fail("assignment to a non-lvalue".into()),
        }
    }

    /// Appends the flat lowering of posedge statements to `ops`, and
    /// their write destinations to `dsts`. `if` becomes `cond
    /// BranchIfZero(else) then Branch(end) else`; `case` evaluates its
    /// subject once, then tests each arm with `label CaseNe(next arm)`
    /// and ends every arm body with `Branch(end)`, falling through to
    /// `PopSubject default`. A bare-signal condition and a literal write
    /// each lower to one fused op.
    fn stmts(&self, stmts: &[Stmt], ops: &mut Vec<Op>, dsts: &mut Vec<Dst>) {
        for stmt in stmts {
            match stmt {
                Stmt::NonBlocking(lhs, rhs) | Stmt::Blocking(lhs, rhs) => {
                    dsts.push(self.cdst(lhs));
                    let d = (dsts.len() - 1) as u32;
                    let start = ops.len();
                    self.emit(rhs, ops);
                    match ops[start..] {
                        [Op::Lit { value, .. }] => ops[start] = Op::QueueLit(d, value),
                        _ => ops.push(Op::Queue(d)),
                    }
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let start = ops.len();
                    self.emit(cond, ops);
                    match ops[start..] {
                        [Op::Sig(s)] => ops[start] = Op::BranchIfSigZero(s, 0),
                        _ => ops.push(Op::BranchIfZero(0)),
                    }
                    let branch = ops.len() - 1;
                    self.stmts(then_body, ops, dsts);
                    if else_body.is_empty() {
                        land(ops, branch);
                    } else {
                        let skip = ops.len();
                        ops.push(Op::Branch(0));
                        land(ops, branch);
                        self.stmts(else_body, ops, dsts);
                        land(ops, skip);
                    }
                }
                Stmt::Case {
                    subject,
                    arms,
                    default,
                } => {
                    self.emit(subject, ops);
                    let mut ends = Vec::with_capacity(arms.len());
                    for (label, body) in arms {
                        self.emit(label, ops);
                        let next = ops.len();
                        ops.push(Op::CaseNe(0));
                        self.stmts(body, ops, dsts);
                        ends.push(ops.len());
                        ops.push(Op::Branch(0));
                        land(ops, next);
                    }
                    ops.push(Op::PopSubject);
                    self.stmts(default, ops, dsts);
                    for end in ends {
                        land(ops, end);
                    }
                }
                Stmt::Comment(_) => {}
            }
        }
    }
}

/// The alias pass. Every `assign a = b;` between equal-width scalars,
/// where `a` is not a top-level input and has no other driver (no
/// second assign, no posedge write), makes `a` a second name for `b`'s
/// value: `Slot::rep` of `a` becomes `b`'s representative, so a chain
/// of port copies collapses onto its root and the copies leave the
/// tape. A loop made only of copies keeps one of them, which then reads
/// itself, so the levelizer still rejects the loop. Returns the assigns
/// that stay on the tape, in declaration order.
fn merge_copies<'f>(
    flat: &'f FlatDesign,
    names: &BTreeMap<String, SlotId>,
    slots: &mut [Slot],
) -> Vec<&'f (Expr, Expr)> {
    let slot_of = |e: &Expr| e.lvalue_root().and_then(|n| names.get(n).copied());
    let mut drivers = vec![0u32; slots.len()];
    let clocked_writes = flat
        .clocked
        .iter()
        .flat_map(|(_, body)| body.iter().flat_map(Stmt::assigned_idents));
    for s in flat
        .assigns
        .iter()
        .filter_map(|(lhs, _)| slot_of(lhs))
        .chain(clocked_writes.filter_map(|n| names.get(n).copied()))
    {
        drivers[s] += 1;
    }
    let mut parent: Vec<Option<SlotId>> = vec![None; slots.len()];
    for (lhs, rhs) in &flat.assigns {
        if let (Expr::Id(_), Expr::Id(_), Some(a), Some(b)) = (lhs, rhs, slot_of(lhs), slot_of(rhs))
        {
            let (sa, sb) = (slots[a], slots[b]);
            if !sa.input
                && drivers[a] == 1
                && sa.mem.is_none()
                && sb.mem.is_none()
                && sa.width == sb.width
            {
                parent[a] = Some(b);
            }
        }
    }
    // Walk each copy up to its root, resolving every slot on the way.
    const FRESH: u8 = 0;
    const ON_PATH: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![FRESH; slots.len()];
    let mut path: Vec<SlotId> = Vec::new();
    for start in 0..slots.len() {
        let mut s = start;
        let root = loop {
            match (state[s], parent[s]) {
                (DONE, _) => break slots[s].rep,
                // Back on this walk: a loop made only of copies. Its
                // first member stays a root, so its own copy now reads
                // itself and the levelizer still rejects the loop.
                (ON_PATH, _) | (_, None) => break s,
                (_, Some(p)) => {
                    state[s] = ON_PATH;
                    path.push(s);
                    s = p;
                }
            }
        };
        for s in path.drain(..) {
            slots[s].rep = root;
            state[s] = DONE;
        }
    }
    flat.assigns
        .iter()
        .filter(|(lhs, _)| slot_of(lhs).is_none_or(|a| slots[a].rep == a))
        .collect()
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
                rep: slots.len(),
            };
            match names.get(&sig.name) {
                // A redeclaration replaces the earlier signal, mirroring
                // the tree oracle's map insert.
                Some(&existing) => {
                    slots[existing] = Slot {
                        rep: existing,
                        ..slot
                    };
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

        // Merge port copies, then compile the continuous assigns left.
        let assigns = merge_copies(&flat, &names, &mut slots);
        let comp = ExprCompiler {
            names: &names,
            slots: &slots,
        };
        let instrs: Vec<Instr> = assigns
            .into_iter()
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
            // full cycle diagnosis (`find_comb_cycle`). A stuck
            // instruction may only read from the loop, so walk stuck
            // predecessors until one repeats: that one is on the loop.
            let stuck_writer = |i: usize| {
                let (rslots, rmems) = &reads[i];
                rslots
                    .iter()
                    .flat_map(|&s| &slot_writers[s])
                    .chain(rmems.iter().flat_map(|&m| &mem_writers[m]))
                    .copied()
                    .find(|&w| indegree[w] > 0)
                    .expect("a stuck instruction has a stuck writer")
            };
            let mut seen = vec![false; instrs.len()];
            let mut on_loop = indegree.iter().position(|&d| d > 0);
            while let Some(i) = on_loop.filter(|&i| !seen[i]) {
                seen[i] = true;
                on_loop = Some(stuck_writer(i));
            }
            let stuck = on_loop
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

        // Lower the clocked blocks to one flat program per clock.
        let mut domains: BTreeMap<&str, Vec<Op>> = BTreeMap::new();
        let mut dsts = Vec::new();
        for (clk, body) in &flat.clocked {
            comp.stmts(body, domains.entry(clk).or_default(), &mut dsts);
        }
        let clocked = Clocked {
            domains: domains
                .into_iter()
                .map(|(clk, ops)| (clk.to_string(), ops.into_boxed_slice()))
                .collect(),
            dsts,
        };

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
            vcd_row: Vec::new(),
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
        // Initial full evaluation (the tree oracle settles at elaborate).
        sim.settle()?;
        Ok(sim)
    }
}
