//! Tape-order analyzer: a machine-checked proof of the two invariants
//! the compiled engine's single forward settle pass relies on
//! (DESIGN.md §17).
//!
//! [`CompiledSim::settle`] drains the dirty set in one ascending scan of
//! the tape, waking readers through the fanout CSR as writes land. That
//! reaches the fixed point the tree oracle iterates toward only if:
//!
//! 1. **Tape order** ([`InterferenceRule::TapeOrder`]): every dependence
//!    edge — a writer to each reader the fanout CSR lists for the signal
//!    it writes — points strictly forward in tape order, so a woken
//!    reader is always still ahead of the scan.
//! 2. **No fanout drift** ([`InterferenceRule::FanoutDrift`]): the fanout
//!    CSR equals the read sets re-derived here from the postfix bytecode
//!    and the destination index programs, *not* from the levelizer's own
//!    read lists — so a drift between lowering and levelization is a
//!    reported violation rather than a silently missed wakeup.
//!
//! Together they say every reader of every written signal sits after its
//! writer and is woken by it. The levelizer `debug_assert!`s the first
//! invariant as it builds the tape; the `interfere` pass of
//! `deepburning-lint` (through `dblint --deny`) checks both.

use super::{CompiledSim, Csr, Dst, Instr, Op, SimulateError};
use crate::ast::Design;
use std::fmt;

/// The slots and memories one tape instruction reads, extracted from its
/// bytecode independently of the levelizer's own read collection. Reads
/// inside untaken ternary arms are included — the same conservative
/// closure the fanout CSR uses.
#[derive(Debug, Clone, Default)]
struct ReadSet {
    /// Sorted, deduplicated.
    slots: Vec<u32>,
    /// Sorted, deduplicated.
    mems: Vec<u32>,
}

fn scan_reads(ops: &[Op], reads: &mut ReadSet) {
    for op in ops {
        match op {
            Op::Sig(s) | Op::BitIdx(s) => reads.slots.push(*s as u32),
            Op::WordIdx(m) => reads.mems.push(*m as u32),
            _ => {}
        }
    }
}

/// Decodes the read set of one tape instruction: the rhs plus any
/// dynamic destination index program.
fn read_set(instr: &Instr) -> ReadSet {
    let mut reads = ReadSet::default();
    scan_reads(&instr.rhs, &mut reads);
    if let Dst::Bit(_, idx) | Dst::Word(_, idx) = &instr.dst {
        scan_reads(idx, &mut reads);
    }
    reads.slots.sort_unstable();
    reads.slots.dedup();
    reads.mems.sort_unstable();
    reads.mems.dedup();
    reads
}

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterferenceRule {
    /// A dependence edge points backwards (or to itself) in tape order,
    /// so the single-pass scan would miss the wakeup.
    TapeOrder,
    /// The engine's fanout CSR disagrees with the read sets extracted
    /// from the bytecode.
    FanoutDrift,
}

impl InterferenceRule {
    /// Stable rule tag (the `interfere/<tag>` lint rule id).
    pub fn tag(self) -> &'static str {
        match self {
            InterferenceRule::TapeOrder => "tape-order",
            InterferenceRule::FanoutDrift => "fanout-drift",
        }
    }
}

impl fmt::Display for InterferenceRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One broken invariant, with enough location to act on.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceViolation {
    pub rule: InterferenceRule,
    /// Tape index of the writer (0 for CSR drift).
    pub a: u32,
    /// Tape index of the reader (0 for CSR drift).
    pub b: u32,
    /// Hierarchical name of the contested signal or memory.
    pub subject: String,
    pub message: String,
}

impl fmt::Display for InterferenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] `{}`: {}", self.rule, self.subject, self.message)
    }
}

/// The proof outcome over one compiled tape. `is_proven` means both
/// invariants held: the single forward settle pass reaches the fixed
/// point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterferenceReport {
    /// Tape instructions analyzed.
    pub instrs: u64,
    /// Writer→reader dependence edges checked for tape order.
    pub edges_checked: u64,
    pub violations: Vec<InterferenceViolation>,
}

impl InterferenceReport {
    /// True when both invariants held.
    pub fn is_proven(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line proof summary for logs and reports.
    pub fn summary(&self) -> String {
        format!(
            "{} instrs / {} edges: {}",
            self.instrs,
            self.edges_checked,
            if self.is_proven() {
                "tape order proven".to_string()
            } else {
                format!("{} violations", self.violations.len())
            }
        )
    }
}

impl fmt::Display for InterferenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

impl CompiledSim {
    /// Hierarchical name of a slot, for diagnostics (reverse lookup;
    /// only runs on violations).
    fn slot_name(&self, slot: usize) -> String {
        self.names
            .iter()
            .find(|(_, &s)| s == slot)
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| format!("<slot {slot}>"))
    }

    fn mem_name(&self, mem: usize) -> String {
        self.slot_name(self.mem_slot[mem])
    }

    /// Runs the proof over the compiled tape (see the module docs). Cost
    /// is linear in tape + dependence edges — the same order as
    /// levelization itself.
    pub fn interference_report(&self) -> InterferenceReport {
        let mut report = InterferenceReport {
            instrs: self.tape.len() as u64,
            ..InterferenceReport::default()
        };

        // Invariant 1: every reader the CSR wakes for a write sits
        // strictly later in tape order.
        for (w, instr) in self.tape.iter().enumerate() {
            for &r in self.fanout.readers(&instr.dst) {
                report.edges_checked += 1;
                if r as usize <= w {
                    let subject = match &instr.dst {
                        Dst::Word(m, _) => self.mem_name(*m),
                        dst => self.slot_name(dst.slot().expect("only writers have fanout")),
                    };
                    report.violations.push(InterferenceViolation {
                        rule: InterferenceRule::TapeOrder,
                        a: w as u32,
                        b: r,
                        subject,
                        message: format!(
                            "dependence edge tape[{w}] -> tape[{r}] points backwards in tape \
                             order; the single-pass scan would miss the wakeup"
                        ),
                    });
                }
            }
        }

        // Invariant 2: the reader lists the scheduler dirties through
        // equal the read sets decoded from the bytecode. Both sides are
        // built in ascending tape order, so slice equality is set
        // equality.
        let mut slot_readers: Vec<Vec<u32>> = vec![Vec::new(); self.slots.len()];
        let mut mem_readers: Vec<Vec<u32>> = vec![Vec::new(); self.mems.len()];
        for (t, instr) in self.tape.iter().enumerate() {
            let reads = read_set(instr);
            for s in reads.slots {
                slot_readers[s as usize].push(t as u32);
            }
            for m in reads.mems {
                mem_readers[m as usize].push(t as u32);
            }
        }
        let mut drift = |csr: &Csr, readers: &[Vec<u32>], name: &dyn Fn(usize) -> String| {
            for (n, readers) in readers.iter().enumerate() {
                let listed = csr.row(n);
                if listed != &readers[..] {
                    report.violations.push(InterferenceViolation {
                        rule: InterferenceRule::FanoutDrift,
                        a: 0,
                        b: 0,
                        subject: name(n),
                        message: format!(
                            "fanout CSR lists readers {listed:?} but the bytecode reads at \
                             {readers:?}"
                        ),
                    });
                }
            }
        };
        drift(&self.fanout.slots, &slot_readers, &|s| self.slot_name(s));
        drift(&self.fanout.mems, &mem_readers, &|m| self.mem_name(m));
        report
    }
}

/// Compiles `top` and runs the tape-order proof — the entry point the
/// `deepburning-lint` `interfere` pass uses.
///
/// # Errors
///
/// Propagates elaboration errors ([`SimulateError`]); designs that do
/// not compile are covered by the structural and comb-loop passes.
pub fn interference_check(design: &Design, top: &str) -> Result<InterferenceReport, SimulateError> {
    CompiledSim::compile(design, top).map(|sim| sim.interference_report())
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_design, plan_strategy};
    use super::*;
    use crate::ast::*;
    use proptest::prelude::*;

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

    fn rules(report: &InterferenceReport) -> Vec<InterferenceRule> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_design_is_proven() {
        let sim = CompiledSim::compile(&chain_design(), "pair").expect("compile");
        let report = sim.interference_report();
        assert!(report.is_proven(), "{report}");
        assert_eq!(report.instrs, 3);
        assert_eq!(report.edges_checked, 2, "z reads x and y");
    }

    /// Injected defect: the CSR entry waking `z` on a `y` write is moved
    /// to a tape index at or before the writer — exactly the edge the
    /// single forward scan would miss.
    #[test]
    fn backward_fanout_entry_is_tape_order_violation() {
        let mut sim = CompiledSim::compile(&chain_design(), "pair").expect("compile");
        let (lo, hi) = fanout_range(&sim, "y");
        assert_eq!(hi - lo, 1, "y has one reader");
        sim.fanout.slots.idx[lo] = 0;
        let report = sim.interference_report();
        let v = report
            .violations
            .iter()
            .find(|v| v.rule == InterferenceRule::TapeOrder)
            .unwrap_or_else(|| panic!("tape-order violation expected:\n{report}"));
        assert_eq!(v.subject, "y", "names the written signal: {report}");
        assert_eq!(v.b, 0);
        assert!(v.message.contains("backwards"), "{}", v.message);
    }

    /// Injected defect: `x`'s only reader is dropped from the CSR, so a
    /// change of `x` would never wake `z`. Every surviving edge still
    /// points forward; only the drift check can see this.
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
        let report = sim.interference_report();
        assert_eq!(
            rules(&report),
            [InterferenceRule::FanoutDrift],
            "only drift: {report}"
        );
        assert_eq!(report.violations[0].subject, "x");
    }

    proptest! {
        /// Zero false positives: the analyzer accepts every tape
        /// `compile()` produces over random netlists.
        #[test]
        fn analyzer_accepts_every_compiled_tape((plans, _) in plan_strategy()) {
            let (design, _) = build_design(&plans);
            let sim = CompiledSim::compile(&design, "rand").expect("compile");
            let report = sim.interference_report();
            prop_assert!(report.is_proven(), "false positive on a valid tape:\n{report}");
            prop_assert_eq!(report.instrs as usize, sim.instr_count());
        }
    }
}
