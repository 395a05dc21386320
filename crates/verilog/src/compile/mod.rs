//! Levelized, event-driven compilation of the emitted Verilog subset.
//!
//! [`CompiledSim`] is the one simulation engine, in the Verilator style:
//! elaboration flattens the design once into a dense signal arena, merges
//! whole-signal port copies into aliases of their source, compiles every
//! remaining continuous assign into one instruction over arena indices,
//! topologically levelizes the instructions (statically rejecting
//! combinational loops), and schedules evaluation with per-instruction
//! dirty bits — a clock edge or poke re-evaluates only the fanout cone of
//! the signals that actually changed, in one forward pass over the
//! levelized tape.
//!
//! The semantics are those of a plain fixed-point re-walk of every assign
//! after each poke and clock edge: two-state logic, signed
//! compare/divide and shift rules, out-of-range and division-by-zero
//! behaviour, non-blocking commits that evaluate lvalue indices at commit
//! time against the partially-committed state, and `load_memory` that
//! defers propagation to the next settle. The crate keeps such a re-walk,
//! a tree-walking interpreter, as a test-only oracle: the random-netlist
//! proptest below holds the two engines equal on every net, stat and VCD
//! byte, and the pinned-value tests run on both.
//!
//! Work is attributed per flattened instance path
//! ([`CompiledSim::evals_by_module`]), so the `rtl.evals.*` trace
//! counters keep reporting where the simulation spends its time.
//!
//! The engine is split by phase: `lower` builds the arena, the bytecode
//! and the levelized tape with its fanout CSR; `exec` is the one
//! bytecode loop, generic over an `Observer` whose hooks default to
//! no-ops; `prof` is the hot-spot profiler, the one non-trivial
//! observer. This module owns [`CompiledSim`] itself: settle, clock,
//! poke, VCD recording and the [`Simulator`] adapter, plus the
//! forward-edge check every compiled tape passes before it runs. The
//! fanout CSR's cross-check against the bytecode's reads is a test
//! oracle below, asserted on every random netlist.

use crate::ast::*;
use crate::simulator::{
    err, flatten_design, mask, not_input, InterpStats, SignalId, SimulateError, Simulator,
};
use crate::vcd::VcdRecorder;
use exec::{eval, exec, ExecCtx, Observer};
use lower::{Clocked, Dst, Fanout, Instr, Prog, Slot, SlotId};
use prof::ProfState;
use std::collections::BTreeMap;

mod exec;
mod lower;
mod prof;

/// Per-instruction dirty bits (one `u64` covers 64 tape slots) plus the
/// live range bounds (`lo == usize::MAX` when clear) — settle scans
/// words, not instructions, so a sparse dirty set over a long tape
/// stays cheap.
#[derive(Debug)]
struct Dirty {
    bits: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl Dirty {
    fn mark(&mut self, t: usize) {
        self.bits[t >> 6] |= 1u64 << (t & 63);
        if self.lo == usize::MAX {
            self.lo = t;
            self.hi = t;
        } else {
            self.lo = self.lo.min(t);
            self.hi = self.hi.max(t);
        }
    }
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
    fanout: Fanout,
    dirty: Dirty,
    clocked: Clocked,
    /// Reused per-edge buffer of pending non-blocking writes:
    /// `(index into clocked.dsts, value)`.
    nba: Vec<(u32, u64)>,
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
    prof: Option<Box<ProfState>>,
    vcd: Option<Box<VcdRecorder>>,
    /// Value slot of each recorded signal, in recorder order.
    vcd_slots: Vec<SlotId>,
    /// Reused row of sampled values, so a VCD sample allocates nothing.
    vcd_row: Vec<u64>,
    /// Reused operand stack for program execution.
    scratch: Vec<(u64, u32)>,
}

impl CompiledSim {
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

    /// Applies a write, reporting whether it changed anything (for
    /// fanout dirtying). Dynamic indices evaluate against the current
    /// state, matching the tree oracle's commit-time lvalue evaluation.
    fn apply(
        &mut self,
        dst: &Dst,
        value: u64,
        stack: &mut Vec<(u64, u32)>,
    ) -> Result<bool, SimulateError> {
        let (s, new) = match dst {
            Dst::Whole(s) => (*s, value & mask(self.width(*s))),
            Dst::Bit(s, idx) => {
                let (i, _) = eval(&self.ctx(), idx, stack, &mut ())?;
                // Two-state Verilog ignores a write past the width.
                if i >= u64::from(self.width(*s)) {
                    return Ok(false);
                }
                (*s, (self.values[*s] & !(1 << i)) | ((value & 1) << i))
            }
            Dst::Slice(s, hi, lo) => {
                let field = mask(hi - lo + 1) << lo;
                (*s, (self.values[*s] & !field) | ((value << lo) & field))
            }
            Dst::SliceNoop => return Ok(false),
            Dst::Word(m, idx) => {
                let (i, _) = eval(&self.ctx(), idx, stack, &mut ())?;
                let new = value & mask(self.width(self.mem_slot[*m]));
                return Ok(match self.mems[*m].get_mut(i as usize) {
                    Some(old) if *old != new => {
                        *old = new;
                        true
                    }
                    _ => false,
                });
            }
            Dst::Fail(message) => return Err(err(message.to_string())),
        };
        let changed = self.values[s] != new;
        self.values[s] = new;
        Ok(changed)
    }

    /// Marks every tape reader of what `dst` writes dirty.
    fn wake(&mut self, dst: &Dst) {
        for &t in self.fanout.readers(dst) {
            self.dirty.mark(t as usize);
        }
    }

    /// The invariant `settle_with`'s single forward pass relies on
    /// (DESIGN.md §11): every reader a write wakes sits strictly later
    /// in tape order, so the scan is still ahead of it. Linear in the
    /// dependence edges; the written signal's name is looked up only on
    /// failure.
    fn check_forward_edges(&self) -> Result<(), SimulateError> {
        for (w, instr) in self.tape.iter().enumerate() {
            let Some(&r) = self
                .fanout
                .readers(&instr.dst)
                .iter()
                .find(|&&r| r as usize <= w)
            else {
                continue;
            };
            let slot = match &instr.dst {
                Dst::Word(m, _) => self.mem_slot[*m],
                dst => dst.slot().expect("only writers have readers"),
            };
            return Err(err(format!(
                "tape[{w}] writes `{}` read by tape[{r}]: a dependence edge that \
                 does not point forward in tape order",
                self.slot_name(slot)
            )));
        }
        Ok(())
    }

    /// Hierarchical name of a slot, for diagnostics (a reverse lookup,
    /// so only error paths call it).
    fn slot_name(&self, slot: SlotId) -> String {
        self.names
            .iter()
            .find(|(_, &s)| s == slot)
            .map_or_else(|| format!("<slot {slot}>"), |(n, _)| n.clone())
    }

    /// The settle dispatcher: the counted drain while profiling, the
    /// bare one otherwise — one branch per settle, not per instruction.
    fn settle(&mut self) -> Result<(), SimulateError> {
        if let Some(mut prof) = self.prof.take() {
            let result = self.settle_with(&mut *prof);
            self.prof = Some(prof);
            return result;
        }
        self.settle_with(&mut ())
    }

    /// Drains the dirty instructions in one forward pass over the
    /// levelized tape (fanout always points forward, so a single scan
    /// reaches the fixed point the tree oracle iterates toward). The
    /// scan walks dirty *words* via `trailing_zeros`, so a handful of
    /// dirty instructions on a multi-thousand-entry tape cost a few
    /// word reads, not a per-instruction sweep.
    fn settle_with<O: Observer>(&mut self, obs: &mut O) -> Result<(), SimulateError> {
        self.stats.settle_passes += 1;
        let evals_before = self.stats.assign_evals;
        if self.dirty.lo == usize::MAX {
            obs.sweep(0);
            return Ok(());
        }
        let mut stack = std::mem::take(&mut self.scratch);
        let mut result = Ok(());
        let mut w = self.dirty.lo >> 6;
        // `dirty.hi` can grow while we drain (fanout is strictly
        // forward), so the bound is re-read each iteration.
        'words: while w <= self.dirty.hi >> 6 && w < self.dirty.bits.len() {
            // Re-read the word after every instruction: an eval may have
            // dirtied a later bit of this same word.
            while self.dirty.bits[w] != 0 {
                let bit = self.dirty.bits[w].trailing_zeros() as usize;
                self.dirty.bits[w] &= !(1u64 << bit);
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
                // Destination index programs inside `apply` run
                // unobserved; attribution covers the rhs tape, which
                // dominates.
                let outcome = eval(&self.ctx(), &instr.rhs, &mut stack, obs)
                    .and_then(|(v, _)| self.apply(&instr.dst, v, &mut stack));
                self.module_evals[instr.module as usize] += 1;
                obs.eval(i, matches!(outcome, Ok(false)));
                if let Ok(true) = outcome {
                    self.wake(&instr.dst);
                }
                self.tape[i] = instr;
                if let Err(e) = outcome {
                    result = Err(e);
                    break 'words;
                }
            }
            w += 1;
        }
        obs.sweep(self.stats.assign_evals - evals_before);
        self.scratch = stack;
        // On the error path some dirty bits may remain set; clear them so
        // the scheduler invariant (all-clear between settles) holds.
        if result.is_err() {
            self.dirty.bits.iter_mut().for_each(|w| *w = 0);
        }
        self.dirty.lo = usize::MAX;
        self.dirty.hi = 0;
        result
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
            self.dirty.mark(t);
        }
    }

    /// Benchmark hook: settles via the no-op observer directly.
    #[doc(hidden)]
    pub fn settle_direct(&mut self) -> Result<(), SimulateError> {
        self.settle_with(&mut ())
    }

    /// Benchmark hook: settles via the profiler dispatcher, as the
    /// production paths do.
    #[doc(hidden)]
    pub fn settle_dispatch(&mut self) -> Result<(), SimulateError> {
        self.settle()
    }

    /// See [`Simulator::load_memory`]. Propagation into dependent
    /// combinational reads happens at the next settle (poke or clock),
    /// matching the tree oracle's lazy re-walk.
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
        // A backdoor load wakes the same readers as a word write.
        self.wake(&Dst::Word(m, Prog::default()));
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
        // Every buffer is taken and put back, so an edge allocates
        // nothing once the NBA buffer has grown to the design's size.
        let clocked = std::mem::take(&mut self.clocked);
        let mut stack = std::mem::take(&mut self.scratch);
        let mut nba = std::mem::take(&mut self.nba);
        nba.clear();
        let mut result = Ok(());
        if let Some((_, prog)) = clocked.domains.iter().find(|(c, _)| c == clk) {
            // The domain's program runs against the pre-edge state and
            // queues its writes; while profiling, a bare op counter
            // observes it.
            let mut ops = 0u64;
            result = if self.prof.is_some() {
                exec(&self.ctx(), prog, &mut stack, &mut nba, &mut ops)
            } else {
                exec(&self.ctx(), prog, &mut stack, &mut nba, &mut ())
            };
            if let Some(prof) = self.prof.as_mut() {
                prof.clocked_ops += ops;
            }
        }
        if result.is_ok() {
            self.stats.nba_writes += nba.len() as u64;
            for &(d, v) in &nba {
                let dst = &clocked.dsts[d as usize];
                match self.apply(dst, v, &mut stack) {
                    Ok(changed) => {
                        if let Some(s) = dst.slot() {
                            self.module_evals[self.slots[s].module as usize] += 1;
                        }
                        if changed {
                            self.wake(dst);
                        }
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
        }
        self.clocked = clocked;
        self.scratch = stack;
        self.nba = nba;
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
    /// `nba_writes` match the tree oracle bit-for-bit; `settle_passes`
    /// counts scheduler drains and `assign_evals` counts instructions
    /// actually evaluated (the event-driven engine touches only dirty
    /// fanout cones, so these are far below the tree oracle's).
    pub fn stats(&self) -> InterpStats {
        self.stats
    }

    /// Tape length (diagnostics): one instruction per flattened
    /// continuous assign the alias pass left.
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

    /// Starts VCD recording; signal set and order match the tree oracle
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
            .map(|(_, &s)| self.slots[s].rep)
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

    /// Width of a scalar signal, or `None` for unknowns and memories.
    pub fn signal_width(&self, name: &str) -> Option<u32> {
        self.names
            .get(name)
            .filter(|&&s| self.slots[s].mem.is_none())
            .map(|&s| self.width(s))
    }

    fn vcd_capture(&mut self) {
        if let Some(rec) = self.vcd.as_mut() {
            self.vcd_row.clear();
            self.vcd_row.extend(
                self.vcd_slots
                    .iter()
                    .map(|&s| self.values[s] & mask(self.slots[s].width)),
            );
            rec.sample(&self.vcd_row);
        }
    }
}

impl Simulator for CompiledSim {
    /// Ids are arena slots, one per name; a merged copy reads its
    /// representative's value.
    fn signal(&self, name: &str) -> Result<SignalId, SimulateError> {
        match self.names.get(name) {
            Some(&s) if self.slots[s].mem.is_some() => {
                Err(err(format!("memory `{name}` read without index")))
            }
            Some(&s) => Ok(SignalId::new(s)),
            None => Err(err(format!("unknown signal `{name}`"))),
        }
    }

    fn get(&self, id: SignalId) -> u64 {
        let slot = &self.slots[id.index()];
        self.values[slot.rep] & mask(slot.width)
    }

    fn set(&mut self, id: SignalId, value: u64) -> Result<(), SimulateError> {
        let s = id.index();
        if !self.slots[s].input {
            let (name, _) = self
                .names
                .iter()
                .find(|(_, &n)| n == s)
                .expect("every slot is named");
            return Err(not_input(name));
        }
        let dst = Dst::Whole(s);
        let mut stack = std::mem::take(&mut self.scratch);
        let applied = self.apply(&dst, value, &mut stack);
        self.scratch = stack;
        if applied? {
            self.wake(&dst);
        }
        self.settle()
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

    fn vcd_begin(&mut self, top: &str) {
        CompiledSim::vcd_begin(self, top);
    }

    fn vcd_end(&mut self) -> Option<String> {
        CompiledSim::vcd_end(self)
    }

    fn vcd_timesteps(&self) -> u64 {
        CompiledSim::vcd_timesteps(self)
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
/// modules, combinational `always` blocks, clocks bound to expressions).
/// Signal widths are not checked: a top with buses wider than the
/// engine's 64 bits is analysed whole.
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
    use crate::interp::{both_engines, Interpreter};
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

    /// Pins shifts by 63, 64, 65 and 200 and concatenations with a
    /// 64-bit part to their Verilog values: `<<` by the full
    /// width or more clears, `>>>` fills with the sign, and a 64-bit
    /// part shifts every earlier bit out of the accumulator.
    #[test]
    fn wide_shifts_and_concat() {
        let mut m = VModule::new("wide");
        m.port(Port::input("a", 16)).port(Port::input("a64", 64));
        let mut expect = Vec::new();
        for amount in [63, 64, 65, 200] {
            for (op, want) in [(BinaryOp::Shl, 0), (BinaryOp::Shr, 0xffff)] {
                let name = format!("{op:?}{amount}");
                m.item(Item::Net(NetDecl::wire(&name, 16)));
                m.item(Item::Assign {
                    lhs: Expr::id(&name),
                    rhs: Expr::bin(op, Expr::id("a"), Expr::lit(8, amount)),
                });
                expect.push((name, want));
            }
        }
        let one = || Expr::lit(1, 1);
        for (name, parts, want) in [
            (
                "cat_hi",
                vec![one(), Expr::id("a64")],
                0x8000_0000_0000_0002,
            ),
            ("cat_lo", vec![Expr::id("a64"), one()], 0x5),
        ] {
            m.item(Item::Net(NetDecl::wire(name, 64)));
            m.item(Item::Assign {
                lhs: Expr::id(name),
                rhs: Expr::Slice(Box::new(Expr::Concat(parts)), 63, 0),
            });
            expect.push((name.to_string(), want));
        }
        for (engine, mut sim) in both_engines(&Design::new(m), "wide") {
            sim.poke("a", 0x8003).expect("poke");
            sim.poke("a64", 0x8000_0000_0000_0002).expect("poke");
            for (name, want) in &expect {
                assert_eq!(sim.read(name).expect("read"), *want, "{engine}: `{name}`");
            }
        }
    }

    /// Pins dynamic bit selects at and past an 8-bit register's width:
    /// a write there is ignored and a read gives 0, where
    /// masking the index to 6 bits would alias bit 64 onto bit 0.
    #[test]
    fn out_of_range_bit_selects() {
        let mut m = VModule::new("bits");
        m.port(Port::input("clk", 1))
            .port(Port::input("wi", 8))
            .port(Port::input("ri", 8))
            .port(Port::output("bit", 1));
        m.item(Item::Net(NetDecl::reg("r", 8)));
        let sel = |i: &str| Expr::Index(Box::new(Expr::id("r")), Box::new(Expr::id(i)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::NonBlocking(sel("wi"), Expr::lit(1, 1))],
        });
        m.item(Item::Assign {
            lhs: Expr::id("bit"),
            rhs: sel("ri"),
        });
        for (engine, mut sim) in both_engines(&Design::new(m), "bits") {
            for (wi, r) in [(9, 0), (64, 0), (3, 0b1000), (67, 0b1000), (7, 0x88)] {
                sim.poke("wi", wi).expect("poke");
                sim.clock().expect("clock");
                let got = sim.read("r").expect("read");
                assert_eq!(got, r, "{engine}: after r[{wi}] <= 1");
            }
            for (ri, bit) in [(3, 1), (7, 1), (8, 0), (9, 0), (67, 0), (71, 0), (255, 0)] {
                sim.poke("ri", ri).expect("poke");
                assert_eq!(sim.read("bit").expect("read"), bit, "{engine}: r[{ri}]");
            }
        }
    }

    /// `signal` fails exactly as `read` does, and `set` exactly as
    /// `poke` does, on both engines; a good handle reads and drives
    /// like its name.
    #[test]
    fn handles_fail_like_read_and_poke() {
        let design = counter_ram();
        for (engine, mut sim) in both_engines(&design, "dut") {
            for (name, message) in [
                ("ghost", "unknown signal `ghost`"),
                ("ram", "memory `ram` read without index"),
            ] {
                let e = sim.signal(name).expect_err(name);
                assert_eq!(e.message, message, "{engine}");
                assert_eq!(Some(e), sim.read(name).err(), "{engine}: {name}");
            }
            let count = sim.signal("count").expect("count");
            let e = sim.set(count, 1).expect_err("count is a register");
            assert_eq!(e.message, "`count` is not a top-level input", "{engine}");
            assert_eq!(Some(e), sim.poke("count", 1).err(), "{engine}");
            let e = sim.poke("ghost", 1).expect_err("ghost");
            assert_eq!(e.message, "`ghost` is not a top-level input", "{engine}");

            let (rst, q) = (sim.signal("rst").expect("rst"), sim.signal("q").expect("q"));
            sim.set(rst, 1).expect("set");
            sim.clock().expect("clock");
            sim.set(rst, 0).expect("set");
            sim.clock().expect("clock");
            assert_eq!(sim.get(rst), 0, "{engine}");
            assert_eq!(sim.get(q), 1, "{engine}");
            assert_eq!(sim.read("q").expect("read"), sim.get(q), "{engine}");
        }
    }

    /// A name merged onto a top-level input (the child's `r = rst`
    /// output and the top's copy of it) still reads the input but
    /// cannot be driven: `set` and `poke` fail as for any non-input.
    #[test]
    fn copy_of_input_is_not_an_input() {
        let mut child = VModule::new("sync");
        child.port(Port::input("rst", 1)).port(Port::output("r", 1));
        child.item(Item::Assign {
            lhs: Expr::id("r"),
            rhs: Expr::id("rst"),
        });
        let mut top = VModule::new("top");
        top.port(Port::input("rst", 1));
        top.item(Item::Net(NetDecl::wire("rst_seen", 1)));
        top.item(Item::Instance {
            module: "sync".into(),
            name: "u".into(),
            params: vec![],
            connections: vec![
                ("rst".into(), Expr::id("rst")),
                ("r".into(), Expr::id("rst_seen")),
            ],
        });
        let mut design = Design::new(top);
        design.add_module(child);
        for (engine, mut sim) in both_engines(&design, "top") {
            for name in ["u.r", "rst_seen"] {
                let message = format!("`{name}` is not a top-level input");
                let e = sim.poke(name, 1).expect_err(name);
                assert_eq!(e.message, message, "{engine}");
                let id = sim.signal(name).expect(name);
                let e = sim.set(id, 1).expect_err(name);
                assert_eq!(e.message, message, "{engine}");
            }
            sim.poke("rst", 1).expect("poke");
            for name in ["rst", "u.r", "rst_seen"] {
                assert_eq!(sim.read(name).expect(name), 1, "{engine}: `{name}`");
            }
        }
    }

    /// A `case` label wider than its subject matches on the subject's
    /// width: `3'd5` against `x[1:0]` is a match for `x[1:0] == 1`.
    #[test]
    fn wide_case_label() {
        let mut m = VModule::new("cases");
        m.port(Port::input("clk", 1))
            .port(Port::input("x", 4))
            .port(Port::output("y", 4));
        m.item(Item::Net(NetDecl::reg("y", 4)));
        let write = |v| vec![Stmt::NonBlocking(Expr::id("y"), Expr::lit(4, v))];
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::Case {
                subject: Expr::Slice(Box::new(Expr::id("x")), 1, 0),
                arms: vec![(Expr::lit(3, 5), write(1)), (Expr::lit(2, 2), write(2))],
                default: write(3),
            }],
        });
        for (engine, mut sim) in both_engines(&Design::new(m), "cases") {
            for (x, y) in [
                (1, 1),
                (5, 1),
                (13, 1),
                (2, 2),
                (6, 2),
                (0, 3),
                (3, 3),
                (4, 3),
            ] {
                sim.poke("x", x).expect("poke");
                sim.clock().expect("clock");
                assert_eq!(sim.read("y").expect("read"), y, "{engine}: x={x}");
            }
        }
    }

    /// Declares `wire [width-1:0] name; assign name = rhs;` in `m`.
    fn wire_assign(m: &mut VModule, name: &str, width: u32, rhs: Expr) {
        m.item(Item::Net(NetDecl::wire(name, width)));
        m.item(Item::Assign {
            lhs: Expr::id(name),
            rhs,
        });
    }

    /// Pins zero extension and truncation: an 8-bit input copied into a
    /// 16-bit and a 4-bit wire and, through a child's 8-bit output port,
    /// into a 16-bit net, and added to a 16-bit operand. A widened copy
    /// keeps its own width downstream: shifting it left keeps the bits
    /// an 8-bit value would lose.
    #[test]
    fn zero_extending_copies_and_assigns() {
        let mut child = VModule::new("pass");
        child.port(Port::input("d", 8)).port(Port::output("q", 8));
        child.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("d"),
        });
        let mut m = VModule::new("ext");
        m.port(Port::input("a", 8)).port(Port::input("b", 16));
        m.item(Item::Net(NetDecl::wire("port_wide", 16)));
        m.item(Item::Instance {
            module: "pass".into(),
            name: "u".into(),
            params: vec![],
            connections: vec![
                ("d".into(), Expr::id("a")),
                ("q".into(), Expr::id("port_wide")),
            ],
        });
        let shl4 = |n: &str| Expr::bin(BinaryOp::Shl, Expr::id(n), Expr::lit(3, 4));
        wire_assign(&mut m, "wide", 16, Expr::id("a"));
        wire_assign(&mut m, "narrow", 4, Expr::id("a"));
        let sum = Expr::bin(BinaryOp::Add, Expr::id("a"), Expr::id("b"));
        wire_assign(&mut m, "sum", 16, sum);
        wire_assign(&mut m, "wide_shl", 16, shl4("wide"));
        wire_assign(&mut m, "port_shl", 16, shl4("port_wide"));
        let mut design = Design::new(m);
        design.add_module(child);
        for (engine, mut sim) in both_engines(&design, "ext") {
            sim.poke("a", 0xF3).expect("poke");
            sim.poke("b", 0xFF00).expect("poke");
            for (name, want) in [
                ("wide", 0x00F3),
                ("narrow", 0x3),
                ("port_wide", 0x00F3),
                ("sum", 0xFFF3),
                ("wide_shl", 0x0F30),
                ("port_shl", 0x0F30),
            ] {
                assert_eq!(sim.read(name).expect("read"), want, "{engine}: `{name}`");
            }
        }
    }

    /// Pins the signed operators on mixed widths: `$signed` compare
    /// sign-extends each operand by its own width where `<` compares
    /// raw bits, `/` truncates toward zero at the wider operand's width
    /// and gives 0 on division by zero, and `>>>` fills with the sign.
    #[test]
    fn signed_compare_divide_and_shift() {
        let mut m = VModule::new("signs");
        m.port(Port::input("a", 8))
            .port(Port::input("b", 16))
            .port(Port::input("d", 8));
        let bin = |op, l: &str, r: &str| Expr::bin(op, Expr::id(l), Expr::id(r));
        wire_assign(&mut m, "slt", 1, bin(BinaryOp::Slt, "a", "b"));
        wire_assign(&mut m, "lt", 1, bin(BinaryOp::Lt, "a", "b"));
        wire_assign(&mut m, "quo", 8, bin(BinaryOp::Div, "a", "d"));
        wire_assign(&mut m, "quo_wide", 16, bin(BinaryOp::Div, "a", "b"));
        let sra = Expr::bin(BinaryOp::Shr, Expr::id("a"), Expr::lit(2, 3));
        wire_assign(&mut m, "sra", 8, sra);
        // (a, b, d) -> (slt, lt, quo, quo_wide, sra)
        let cases = [
            ((0xF9, 0x0002, 0x02), (1, 0, 0xFD, 0xFFFD, 0xFF)), // -7, 2, 2
            ((0x07, 0xFFFE, 0xFE), (0, 1, 0xFD, 0xFFFD, 0x00)), // 7, -2, -2
            ((0x80, 0x0000, 0x00), (1, 0, 0x00, 0x0000, 0xF0)), // -128, 0, 0
        ];
        for (engine, mut sim) in both_engines(&Design::new(m), "signs") {
            for ((a, b, d), (slt, lt, quo, quo_wide, sra)) in cases {
                sim.poke("a", a).expect("poke");
                sim.poke("b", b).expect("poke");
                sim.poke("d", d).expect("poke");
                for (name, want) in [
                    ("slt", slt),
                    ("lt", lt),
                    ("quo", quo),
                    ("quo_wide", quo_wide),
                    ("sra", sra),
                ] {
                    let got = sim.read(name).expect("read");
                    assert_eq!(
                        got, want,
                        "{engine}: `{name}` at a={a:#x} b={b:#x} d={d:#x}"
                    );
                }
            }
        }
    }

    /// Pins the ternary: any set bit of a multi-bit condition picks the
    /// first arm, the chosen arm lands in the destination's width, and
    /// nested ternaries select among three values.
    #[test]
    fn ternary_selects_on_any_set_condition_bit() {
        let mut m = VModule::new("pick");
        m.port(Port::input("sel", 2))
            .port(Port::input("a", 8))
            .port(Port::input("b", 16));
        let ternary = |c, t, e| Expr::Ternary(Box::new(c), Box::new(t), Box::new(e));
        let sel_is = |v| Expr::bin(BinaryOp::Eq, Expr::id("sel"), Expr::lit(2, v));
        wire_assign(
            &mut m,
            "y",
            16,
            ternary(Expr::id("sel"), Expr::id("a"), Expr::id("b")),
        );
        let inner = ternary(sel_is(1), Expr::lit(8, 0x55), Expr::id("b"));
        wire_assign(&mut m, "z", 8, ternary(sel_is(2), Expr::id("a"), inner));
        for (engine, mut sim) in both_engines(&Design::new(m), "pick") {
            sim.poke("a", 0xA5).expect("poke");
            sim.poke("b", 0x1234).expect("poke");
            for (sel, y, z) in [
                (0, 0x1234, 0x34),
                (1, 0x00A5, 0x55),
                (2, 0x00A5, 0xA5),
                (3, 0x00A5, 0x34),
            ] {
                sim.poke("sel", sel).expect("poke");
                assert_eq!(sim.read("y").expect("read"), y, "{engine}: sel={sel}");
                assert_eq!(sim.read("z").expect("read"), z, "{engine}: sel={sel}");
            }
        }
    }

    /// Pins non-blocking ordering within one edge: `r2 <= r1` reads `r1`
    /// from before `r1 <= r1 + 1` commits, and of two writes to `last`
    /// the later one wins (it also reads the old `r1`). The swap
    /// `a <= b; b <= a` is pinned by `interp::tests::nonblocking_semantics_swap`.
    #[test]
    fn nonblocking_reads_old_values_and_last_write_wins() {
        let mut m = VModule::new("nba");
        m.port(Port::input("clk", 1));
        for (name, width) in [("r1", 8), ("r2", 8), ("last", 4)] {
            m.item(Item::Net(NetDecl::reg(name, width)));
        }
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![
                Stmt::NonBlocking(
                    Expr::id("r1"),
                    Expr::bin(BinaryOp::Add, Expr::id("r1"), Expr::lit(8, 1)),
                ),
                Stmt::NonBlocking(Expr::id("r2"), Expr::id("r1")),
                Stmt::NonBlocking(Expr::id("last"), Expr::lit(4, 0xF)),
                Stmt::NonBlocking(
                    Expr::id("last"),
                    Expr::Slice(Box::new(Expr::id("r1")), 3, 0),
                ),
            ],
        });
        for (engine, mut sim) in both_engines(&Design::new(m), "nba") {
            for r1 in 1..=4u64 {
                sim.clock().expect("clock");
                assert_eq!(sim.read("r1").expect("read"), r1, "{engine}");
                assert_eq!(sim.read("r2").expect("read"), r1 - 1, "{engine}");
                assert_eq!(sim.read("last").expect("read"), r1 - 1, "{engine}");
            }
        }
    }

    /// A signal wider than 64 bits fails both engines' elaboration
    /// with one message, but not the name-level loop search, which
    /// still finds a loop behind the wide port.
    #[test]
    fn wide_signals_fail_elaboration_not_the_loop_search() {
        let mut m = VModule::new("wide");
        m.port(Port::input("bus", 512)).port(Port::output("q", 1));
        wire_assign(
            &mut m,
            "a",
            1,
            Expr::bin(BinaryOp::Xor, Expr::id("b"), Expr::id("bus")),
        );
        wire_assign(&mut m, "b", 1, Expr::id("a"));
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("a"),
        });
        let design = Design::new(m);
        let message = "signal `bus` is 512 bits; simulation handles at most 64";
        let e = CompiledSim::compile(&design, "wide").expect_err("too wide");
        assert_eq!(e.message, message);
        let e = Interpreter::elaborate(&design, "wide").expect_err("too wide");
        assert_eq!(e.message, message);
        let cycle = find_comb_cycle(&design, "wide").expect("flattens");
        assert_eq!(
            cycle.as_deref(),
            Some(&["a", "b", "a"].map(String::from)[..])
        );
    }

    /// A loop made only of copies still fails to compile with the
    /// levelizer's typed error, naming a signal that `find_comb_cycle`
    /// reports on the loop (not the copy leading into it).
    #[test]
    fn copy_loop_is_rejected_naming_a_loop_signal() {
        let mut m = VModule::new("loopy");
        m.port(Port::output("y", 4));
        for (lhs, rhs) in [("y", "tail"), ("tail", "a"), ("a", "b"), ("b", "a")] {
            if lhs != "y" {
                m.item(Item::Net(NetDecl::wire(lhs, 4)));
            }
            m.item(Item::Assign {
                lhs: Expr::id(lhs),
                rhs: Expr::id(rhs),
            });
        }
        let design = Design::new(m);
        let cycle = find_comb_cycle(&design, "loopy")
            .expect("flattens")
            .expect("a cycle");
        let e = CompiledSim::compile(&design, "loopy").expect_err("loop");
        assert!(e.message.contains("combinational loop"), "{}", e.message);
        let named = e
            .message
            .split('`')
            .nth(1)
            .unwrap_or_else(|| panic!("no signal named: {}", e.message));
        assert!(
            cycle.iter().any(|n| n == named),
            "`{named}` is not on the loop {cycle:?}"
        );
        assert!(["a", "b"].contains(&named), "{}", e.message);
    }

    /// A reader declared ahead of the loop it reads from is stuck too,
    /// but the error must name a signal on the loop, not the reader.
    #[test]
    fn loop_error_names_a_loop_signal_not_a_downstream_reader() {
        let mut m = VModule::new("loopy");
        m.port(Port::input("i", 4)).port(Port::output("z", 4));
        m.item(Item::Net(NetDecl::wire("a", 4)));
        m.item(Item::Net(NetDecl::wire("b", 4)));
        m.item(Item::Assign {
            lhs: Expr::id("z"),
            rhs: Expr::bin(BinaryOp::Add, Expr::id("a"), Expr::lit(4, 1)),
        });
        m.item(Item::Assign {
            lhs: Expr::id("a"),
            rhs: Expr::bin(BinaryOp::Xor, Expr::id("b"), Expr::id("i")),
        });
        m.item(Item::Assign {
            lhs: Expr::id("b"),
            rhs: Expr::id("a"),
        });
        let design = Design::new(m);
        let cycle = find_comb_cycle(&design, "loopy")
            .expect("flattens")
            .expect("a cycle");
        let e = CompiledSim::compile(&design, "loopy").expect_err("loop");
        let named = e
            .message
            .split('`')
            .nth(1)
            .unwrap_or_else(|| panic!("no signal named: {}", e.message));
        assert_ne!(named, "z", "{}", e.message);
        assert!(
            cycle.iter().any(|n| n == named),
            "`{named}` is not on the loop {cycle:?}"
        );
    }

    // -- tape invariants ---------------------------------------------------

    /// The fanout CSR re-derived from the final tape: each slot's and
    /// memory's readers are the tape indices whose `instr_reads` name
    /// it, in tape order. Returns every signal whose CSR row differs; a
    /// reader missing from its row is a wakeup the settle pass never
    /// makes.
    fn fanout_drift(sim: &CompiledSim) -> Vec<String> {
        let mut slot_readers = vec![Vec::new(); sim.slots.len()];
        let mut mem_readers = vec![Vec::new(); sim.mems.len()];
        for (t, instr) in sim.tape.iter().enumerate() {
            let (slots, mems) = lower::instr_reads(instr);
            for s in slots {
                slot_readers[s].push(t as u32);
            }
            for m in mems {
                mem_readers[m].push(t as u32);
            }
        }
        let slots = slot_readers
            .iter()
            .enumerate()
            .filter(|(s, readers)| sim.fanout.slots.row(*s) != &readers[..])
            .map(|(s, _)| s);
        let mems = mem_readers
            .iter()
            .enumerate()
            .filter(|(m, readers)| sim.fanout.mems.row(*m) != &readers[..])
            .map(|(m, _)| sim.mem_slot[m]);
        slots.chain(mems).map(|s| sim.slot_name(s)).collect()
    }

    /// Two independent assigns plus a reader of both: `x` and `y` land
    /// at the front of the tape, `z` after them.
    fn chain_design() -> Design {
        let mut m = VModule::new("pair");
        m.port(Port::input("a", 8))
            .port(Port::input("b", 8))
            .port(Port::output("x", 8))
            .port(Port::output("y", 8))
            .port(Port::output("z", 8));
        m.item(Item::Assign {
            lhs: Expr::id("x"),
            rhs: Expr::bin(BinaryOp::Add, Expr::id("a"), Expr::lit(8, 1)),
        });
        m.item(Item::Assign {
            lhs: Expr::id("y"),
            rhs: Expr::bin(BinaryOp::Xor, Expr::id("b"), Expr::lit(8, 0x5A)),
        });
        m.item(Item::Assign {
            lhs: Expr::id("z"),
            rhs: Expr::bin(BinaryOp::And, Expr::id("x"), Expr::id("y")),
        });
        Design::new(m)
    }

    /// The CSR range `fanout.slots.idx[lo..hi]` of a named scalar.
    fn fanout_range(sim: &CompiledSim, name: &str) -> (usize, usize) {
        let s = sim.names[name];
        (
            sim.fanout.slots.off[s] as usize,
            sim.fanout.slots.off[s + 1] as usize,
        )
    }

    /// Injected defect: the CSR entry waking `z` on a `y` write is moved
    /// to a tape index at or before the writer, exactly the edge the
    /// single forward scan would miss. The check `compile` runs on every
    /// tape rejects it, naming the written signal.
    #[test]
    fn backward_fanout_entry_fails_the_forward_edge_check() {
        let mut sim = CompiledSim::compile(&chain_design(), "pair").expect("compile");
        assert_eq!(sim.check_forward_edges(), Ok(()));
        let (lo, hi) = fanout_range(&sim, "y");
        assert_eq!(hi - lo, 1, "y has one reader");
        sim.fanout.slots.idx[lo] = 0;
        let e = sim.check_forward_edges().expect_err("backward edge");
        assert!(
            e.message.contains("writes `y` read by tape[0]"),
            "{}",
            e.message
        );
        assert!(
            e.message.contains("does not point forward"),
            "{}",
            e.message
        );
    }

    /// Injected defect: `x`'s only reader is dropped from the CSR, so a
    /// change of `x` would never wake `z`. Every surviving edge still
    /// points forward; only the re-derived fanout sees this.
    #[test]
    fn dropped_fanout_entry_is_fanout_drift() {
        let mut sim = CompiledSim::compile(&chain_design(), "pair").expect("compile");
        let (lo, hi) = fanout_range(&sim, "x");
        assert_eq!(hi - lo, 1, "x has one reader");
        let mut idx = sim.fanout.slots.idx.to_vec();
        idx.remove(lo);
        sim.fanout.slots.idx = idx.into_boxed_slice();
        let s = sim.names["x"];
        for off in &mut sim.fanout.slots.off[s + 1..] {
            *off -= 1;
        }
        assert_eq!(sim.check_forward_edges(), Ok(()));
        assert_eq!(fanout_drift(&sim), ["x"]);
    }

    // -- randomized equivalence --------------------------------------------

    /// One randomly planned combinational net: an operator applied to
    /// leaves drawn from the inputs, registers, copies, child outputs,
    /// earlier nets, an undriven wire (the two-state stand-in for
    /// x-fanin) and literals, or a whole-signal copy of one leaf.
    #[derive(Debug, Clone)]
    struct NetPlan {
        op: u8,
        a: u8,
        b: u8,
        lit: u64,
        width: u32,
    }

    /// A plan and its stimulus: `(0..3, v)` pokes input `a`, `b` or
    /// `c`; `(3, _)` is a clock edge.
    fn plan_strategy() -> impl Strategy<Value = (Vec<NetPlan>, Vec<(u8, u64)>)> {
        let net = (0u8..=255, 0u8..=255, 0u8..=255, 0u64..=u64::MAX, 1u32..=16).prop_map(
            |(op, a, b, lit, width)| NetPlan {
                op,
                a,
                b,
                lit,
                width,
            },
        );
        let stimulus = proptest::collection::vec((0u8..4, 0u64..=u64::MAX), 1..24);
        (proptest::collection::vec(net, 1..96), stimulus)
    }

    /// The child both random-design instances share: an accumulator
    /// register, a whole-signal output copy of it (`q = acc`) and a
    /// computed output.
    fn cell_module() -> VModule {
        let mut m = VModule::new("cell");
        m.port(Port::input("clk", 1))
            .port(Port::input("d", 8))
            .port(Port::output("q", 8))
            .port(Port::output("nq", 8));
        m.item(Item::Net(NetDecl::reg("acc", 8)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::NonBlocking(
                Expr::id("acc"),
                Expr::bin(BinaryOp::Add, Expr::id("acc"), Expr::id("d")),
            )],
        });
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("acc"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("nq"),
            rhs: Expr::Unary(UnaryOp::BitNot, Box::new(Expr::id("acc"))),
        });
        m
    }

    /// Builds a loop-free design from a plan. Around the random nets it
    /// always has: three inputs and a clock; two registers and a
    /// four-word memory written by a posedge block with nested
    /// `if`/`else` and a `case` with a wider label and a default; a
    /// continuous read of the memory at an input-driven index;
    /// whole-signal copies of an input and of a register, each copied
    /// again (chains), and a zero-extending copy that must not merge;
    /// two instances of [`cell_module`], the second fed by the first's
    /// copied output. Each net reads only earlier signals or registers,
    /// so the continuous assigns form a DAG, but the nets and the memory
    /// read are emitted in an order the plan permutes: declaration order
    /// is no topological order, so a levelizer that keeps it, or a
    /// fanout filled with pre-levelization indices, diverges. Returns
    /// the design and every scalar signal to compare.
    fn build_design(plans: &[NetPlan]) -> (Design, Vec<String>) {
        let mut m = VModule::new("rand");
        m.port(Port::input("clk", 1));
        for i in ["a", "b", "c"] {
            m.port(Port::input(i, 12));
        }
        // Every scalar a net may read, with its width.
        let mut leaves: Vec<(String, u32)> = ["a", "b", "c"]
            .iter()
            .map(|i| (i.to_string(), 12))
            .collect();
        fn declare(m: &mut VModule, net: NetDecl, leaves: &mut Vec<(String, u32)>) {
            leaves.push((net.name.clone(), net.width));
            m.item(Item::Net(net));
        }
        declare(&mut m, NetDecl::wire("undriven", 9), &mut leaves);
        declare(&mut m, NetDecl::reg("r0", 12), &mut leaves);
        declare(&mut m, NetDecl::reg("r1", 8), &mut leaves);
        m.item(Item::Net(NetDecl::memory("mem", 8, 4)));
        declare(&mut m, NetDecl::wire("mem_rd", 8), &mut leaves);
        let low = |e: Expr, hi: u32| Expr::Slice(Box::new(e), hi, 0);
        let word =
            |idx: &str| Expr::Index(Box::new(Expr::id("mem")), Box::new(low(Expr::id(idx), 1)));
        let first = &plans[0];
        // Each assign's position key: the net's random literal, and a
        // rotation of the first one for the memory read.
        let mut assigns = vec![(
            first.lit.rotate_left(32),
            Item::Assign {
                lhs: Expr::id("mem_rd"),
                rhs: word("c"),
            },
        )];
        // Driven by the instances' output ports below.
        for (name, width) in [("c0q", 8), ("c0nq", 8), ("c1q", 8), ("c1nq", 12)] {
            declare(&mut m, NetDecl::wire(name, width), &mut leaves);
        }
        for (name, width, src) in [
            ("in_copy", 12, "a"),
            ("in_chain", 12, "in_copy"),
            ("reg_copy", 8, "r1"),
            ("reg_chain", 8, "reg_copy"),
            ("reg_wide", 16, "r1"),
        ] {
            declare(&mut m, NetDecl::wire(name, width), &mut leaves);
            m.item(Item::Assign {
                lhs: Expr::id(name),
                rhs: Expr::id(src),
            });
        }
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
        for (i, plan) in plans.iter().enumerate() {
            let name = format!("n{i}");
            let pick = |sel: u8| match sel as usize % (leaves.len() + 1) {
                k if k < leaves.len() => Some(leaves[k].clone()),
                _ => None,
            };
            let leaf = |sel: u8| match pick(sel) {
                Some((n, _)) => Expr::id(n),
                None => Expr::lit(plan.width, plan.lit),
            };
            let (la, lb) = (leaf(plan.a), leaf(plan.b));
            let (width, rhs) = match plan.op as usize % (ops.len() + 5) {
                k if k < ops.len() => (plan.width, Expr::bin(ops[k], la, lb)),
                k if k == ops.len() => (
                    plan.width,
                    Expr::Ternary(Box::new(leaf(plan.op)), Box::new(la), Box::new(lb)),
                ),
                k if k == ops.len() + 1 => (plan.width, Expr::Unary(UnaryOp::BitNot, Box::new(la))),
                k if k == ops.len() + 2 => (plan.width, Expr::Concat(vec![la, lb])),
                // A whole-signal copy at the leaf's own width (merged),
                // or a zero-extending one (kept on the tape).
                k => match pick(plan.a) {
                    Some((n, w)) if k == ops.len() + 3 => (w, Expr::id(n)),
                    Some((n, w)) => ((w + 1 + plan.width % 8).min(64), Expr::id(n)),
                    None => (plan.width, Expr::lit(plan.width, plan.lit)),
                },
            };
            // Generated RTL is width-consistent; mirror that by sizing
            // a computed rhs to the destination net. Copies are never
            // narrower than their source (`zero_extending_copies_and_assigns`
            // pins truncation).
            let rhs = match rhs {
                Expr::Id(_) | Expr::Lit { .. } => rhs,
                rhs => Expr::Slice(Box::new(rhs), width - 1, 0),
            };
            declare(&mut m, NetDecl::wire(&name, width), &mut leaves);
            assigns.push((
                plan.lit,
                Item::Assign {
                    lhs: Expr::id(name),
                    rhs,
                },
            ));
        }
        assigns.sort_by_key(|(key, _)| *key);
        for (_, assign) in assigns {
            m.item(assign);
        }
        let pick = |sel: u8| Expr::id(leaves[sel as usize % leaves.len()].0.clone());
        let sum = Expr::bin(BinaryOp::Add, pick(first.a), pick(first.b));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![
                Stmt::NonBlocking(word("b"), low(sum.clone(), 7)),
                Stmt::If {
                    cond: pick(first.op),
                    then_body: vec![Stmt::If {
                        cond: Expr::bin(BinaryOp::Lt, pick(first.b), pick(first.a)),
                        then_body: vec![Stmt::NonBlocking(Expr::id("r0"), sum.clone())],
                        else_body: vec![Stmt::NonBlocking(
                            Expr::id("r0"),
                            Expr::lit(12, first.lit),
                        )],
                    }],
                    else_body: vec![Stmt::Case {
                        subject: low(pick(first.a.wrapping_add(1)), 1),
                        arms: vec![
                            (
                                Expr::lit(2, 0),
                                vec![Stmt::NonBlocking(Expr::id("r1"), low(sum, 7))],
                            ),
                            (
                                Expr::lit(3, 5),
                                vec![Stmt::NonBlocking(Expr::id("r1"), Expr::lit(8, first.lit))],
                            ),
                            (
                                Expr::lit(2, 2),
                                vec![
                                    Stmt::NonBlocking(
                                        Expr::id("r0"),
                                        Expr::bin(BinaryOp::Add, Expr::id("r0"), Expr::lit(12, 1)),
                                    ),
                                    Stmt::NonBlocking(Expr::id("r1"), Expr::id("c1q")),
                                ],
                            ),
                        ],
                        default: vec![Stmt::NonBlocking(
                            Expr::id("r1"),
                            Expr::bin(BinaryOp::Xor, Expr::id("r1"), Expr::lit(8, 0x5A)),
                        )],
                    }],
                },
            ],
        });
        for (inst, d, q, nq) in [
            ("u0", low(pick(first.b.wrapping_add(1)), 7), "c0q", "c0nq"),
            ("u1", Expr::id("c0q"), "c1q", "c1nq"),
        ] {
            m.item(Item::Instance {
                module: "cell".into(),
                name: inst.into(),
                params: vec![],
                connections: vec![
                    ("clk".into(), Expr::id("clk")),
                    ("d".into(), d),
                    ("q".into(), Expr::id(q)),
                    ("nq".into(), Expr::id(nq)),
                ],
            });
        }
        let mut names: Vec<String> = leaves.into_iter().map(|(n, _)| n).collect();
        for inst in ["u0", "u1"] {
            for sig in ["acc", "q", "nq"] {
                names.push(format!("{inst}.{sig}"));
            }
        }
        let mut d = Design::new(m);
        d.add_module(cell_module());
        (d, names)
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

    /// A child whose posedge body is an `if` on a bare signal with a
    /// literal write, else a `case` with a default, and whose output is
    /// a copy of its register; the top copies that output twice more
    /// (`q ← q_w ← u.q ← u.r`), so every continuous assign merges.
    fn case_copies() -> Design {
        let mut child = VModule::new("pick");
        child
            .port(Port::input("clk", 1))
            .port(Port::input("en", 1))
            .port(Port::input("sel", 2))
            .port(Port::input("d", 8))
            .port(Port::output("q", 8));
        child.item(Item::Net(NetDecl::reg("r", 8)));
        let write = |rhs| vec![Stmt::NonBlocking(Expr::id("r"), rhs)];
        child.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("en"),
                then_body: write(Expr::lit(8, 1)),
                else_body: vec![Stmt::Case {
                    subject: Expr::id("sel"),
                    arms: vec![
                        (Expr::lit(2, 0), write(Expr::id("d"))),
                        (
                            Expr::lit(2, 1),
                            write(Expr::bin(BinaryOp::Add, Expr::id("d"), Expr::lit(8, 1))),
                        ),
                    ],
                    default: write(Expr::lit(8, 0)),
                }],
            }],
        });
        child.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("r"),
        });
        let mut top = VModule::new("top");
        for (name, width) in [("clk", 1), ("en", 1), ("sel", 2), ("d", 8)] {
            top.port(Port::input(name, width));
        }
        top.port(Port::output("q", 8));
        top.item(Item::Net(NetDecl::wire("q_w", 8)));
        top.item(Item::Instance {
            module: "pick".into(),
            name: "u".into(),
            params: vec![],
            connections: ["clk", "en", "sel", "d"]
                .iter()
                .map(|p| (p.to_string(), Expr::id(*p)))
                .chain([("q".to_string(), Expr::id("q_w"))])
                .collect(),
        });
        top.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("q_w"),
        });
        let mut d = Design::new(top);
        d.add_module(child);
        d
    }

    /// Drives [`case_copies`] through every branch of its posedge body.
    fn drive_case<S: Simulator>(sim: &mut S, steps: u64) {
        for step in 0..steps {
            sim.poke("en", u64::from(step % 5 == 0)).expect("poke");
            sim.poke("sel", step % 4).expect("poke");
            sim.poke("d", step * 37 % 256).expect("poke");
            sim.clock().expect("clock");
        }
    }

    /// Observing the drain must not change it: the profiler sees the
    /// same evaluator the plain settle runs, on a tape design and on one
    /// made of merged copies and a `case`.
    #[test]
    fn profiled_matches_unprofiled() {
        type Drive = fn(&mut CompiledSim, u64);
        for (design, top, drive) in [
            (counter_ram(), "dut", drive as Drive),
            (case_copies(), "top", drive_case as Drive),
        ] {
            let mut plain = CompiledSim::compile(&design, top).expect("compile");
            let mut prof = CompiledSim::compile(&design, top).expect("compile");
            prof.prof_enable();
            drive(&mut plain, 40);
            drive(&mut prof, 40);
            let names: Vec<String> = plain.names.keys().cloned().collect();
            for n in names.iter().filter(|n| plain.signal_width(n).is_some()) {
                assert_eq!(
                    plain.read(n).expect("plain read"),
                    prof.read(n).expect("prof read"),
                    "{top}: signal `{n}` diverged under profiling"
                );
            }
            let (ps, fs) = (plain.stats(), prof.stats());
            assert_eq!(ps.clock_edges, fs.clock_edges);
            assert_eq!(ps.settle_passes, fs.settle_passes);
            assert_eq!(ps.assign_evals, fs.assign_evals);
            assert_eq!(ps.nba_writes, fs.nba_writes);
            assert_eq!(plain.evals_by_module(), prof.evals_by_module());
        }
    }

    /// `clocked_ops` counts the expression opcodes of posedge bodies
    /// (conditions, case subjects and labels, right-hand sides) and
    /// nothing of the flat program's control: no jump, case compare or
    /// queue op, and a fused bare-signal condition or literal write
    /// counts as its one `Sig` or `Lit`.
    #[test]
    fn clocked_ops_count_expression_opcodes_only() {
        let mut sim = CompiledSim::compile(&case_copies(), "top").expect("compile");
        assert_eq!(sim.instr_count(), 0, "every copy merges");
        sim.prof_enable();
        // (en, sel, d, expected q, expression ops of the edge)
        for (en, sel, d, q, ops) in [
            (1, 0, 9, 1, 2),  // en; 8'd1
            (0, 0, 9, 9, 4),  // en; sel; 2'd0; d
            (0, 1, 9, 10, 7), // en; sel; 2'd0; 2'd1; d + 8'd1
            (0, 2, 9, 0, 5),  // en; sel; 2'd0; 2'd1; 8'd0
            (0, 3, 9, 0, 5),
        ] {
            let before = sim.prof_profile().expect("profile").clocked_ops;
            sim.poke("en", en).expect("poke");
            sim.poke("sel", sel).expect("poke");
            sim.poke("d", d).expect("poke");
            sim.clock().expect("clock");
            assert_eq!(sim.read("q").expect("read"), q, "en={en} sel={sel}");
            let counted = sim.prof_profile().expect("profile").clocked_ops - before;
            assert_eq!(counted, ops, "en={en} sel={sel}");
        }
    }

    /// Attribution invariants: segment evals sum to the total, opcode
    /// counts sum to the op total, and an op executes for every eval.
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
        /// CompiledSim ≡ Interpreter on random designs and random
        /// stimulus, covering x-fanin (the undriven leaf), the signed
        /// compare / divide / shift operators, merged and unmerged
        /// copies, a two-instance hierarchy and a posedge block with
        /// nested `if`/`else` and a `case`, a memory read at a dynamic
        /// index, and assigns declared out of topological order: every
        /// net, read by name and by handle, the edge and NBA counts and
        /// the VCD text agree, and the fanout CSR equals the reads
        /// re-derived from the final tape ([`fanout_drift`]). A
        /// third, profiled engine pins the observer: it must see the
        /// same evaluator (identical nets, stats and attribution) and
        /// its profile must sum to its own totals.
        #[test]
        fn compiled_matches_interpreter_on_random_designs(
            (plans, stimulus) in plan_strategy()
        ) {
            let (design, nets) = build_design(&plans);
            let mut tree = Interpreter::elaborate(&design, "rand").expect("tree elab");
            let mut compiled = CompiledSim::compile(&design, "rand").expect("compile");
            let mut profiled = CompiledSim::compile(&design, "rand").expect("compile");
            profiled.prof_enable();
            // The fixed copies merge, except the zero-extending one.
            let rep = |n: &str| compiled.slots[compiled.names[n]].rep;
            prop_assert_eq!(rep("in_chain"), compiled.names["a"]);
            prop_assert_eq!(rep("reg_chain"), compiled.names["r1"]);
            prop_assert_eq!(rep("c1q"), compiled.names["u1.acc"]);
            prop_assert_eq!(rep("reg_wide"), compiled.names["reg_wide"]);
            prop_assert_eq!(rep("c1nq"), compiled.names["c1nq"]);
            let drift = fanout_drift(&compiled);
            prop_assert!(drift.is_empty(), "fanout CSR drifted from the tape's reads on {:?}", drift);
            tree.vcd_begin("rand");
            compiled.vcd_begin("rand");
            let inputs = ["a", "b", "c"];
            for (port, value) in &stimulus {
                let step = match inputs.get(*port as usize) {
                    Some(port) => {
                        tree.poke(port, *value).expect("tree poke");
                        compiled.poke(port, *value).expect("compiled poke");
                        profiled.poke(port, *value).expect("profiled poke");
                        format!("poke {port}={value}")
                    }
                    None => {
                        tree.clock().expect("tree clock");
                        compiled.clock().expect("compiled clock");
                        profiled.clock().expect("profiled clock");
                        "clock".to_string()
                    }
                };
                for n in &nets {
                    let got = compiled.read(n).expect("compiled read");
                    prop_assert_eq!(
                        tree.read(n).expect("tree read"),
                        got,
                        "net `{}` diverged after {}", n, step
                    );
                    prop_assert_eq!(profiled.read(n).expect("profiled read"), got);
                    // A handle reads exactly what the name does.
                    prop_assert_eq!(compiled.get(compiled.signal(n).expect("c")), got);
                    prop_assert_eq!(tree.get(tree.signal(n).expect("t")), got);
                }
                prop_assert_eq!(tree.read("undriven").expect("t"), 0);
                prop_assert_eq!(compiled.read("undriven").expect("c"), 0);
            }
            let (ts, cs) = (tree.stats(), compiled.stats());
            prop_assert_eq!(ts.clock_edges, cs.clock_edges);
            prop_assert_eq!(ts.nba_writes, cs.nba_writes);
            prop_assert_eq!(tree.vcd_end(), compiled.vcd_end(), "VCD text diverged");
            prop_assert_eq!(profiled.stats(), compiled.stats());
            prop_assert_eq!(profiled.evals_by_module(), compiled.evals_by_module());
            let p = profiled.prof_profile().expect("profile");
            prop_assert_eq!(p.segments.iter().map(|s| s.evals).sum::<u64>(), p.total_evals);
            prop_assert_eq!(p.opcodes.iter().map(|o| o.count).sum::<u64>(), p.total_ops);
        }
    }
}
