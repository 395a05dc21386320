//! The hot-spot profiler: an [`Observer`] of the evaluator that counts
//! evals, executed opcodes, wasted wakeups and sweep occupancy, and
//! aggregates them into an [`EngineProfile`].

use super::exec::Observer;
use super::lower::Op;
use super::CompiledSim;
use deepburning_trace::prof::{CutProf, EngineProfile, OpcodeProf, SegmentProf, SweepProf};
use deepburning_trace::Histogram;
use std::collections::BTreeMap;

/// Opcode-category names for per-opcode profiling, indexed by
/// [`opcode_index`]. Kept in variant order of [`Op`].
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

/// Counter-based profiler state for the compiled engine: everything is
/// a plain accumulator bumped inline on the profiled settle path — no
/// sampling thread, no clock reads inside the eval loop.
#[derive(Debug, Default)]
pub(super) struct ProfState {
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
    /// Opcodes executed since the last `eval` hook, i.e. by the
    /// instruction being evaluated.
    pending_ops: u64,
    /// Opcodes executed by posedge bodies, counted apart from the tape.
    pub(super) clocked_ops: u64,
}

impl Observer for ProfState {
    #[inline(always)]
    fn op(&mut self, op: &Op) {
        self.opcode_counts[opcode_index(op)] += 1;
        self.pending_ops += 1;
    }

    fn eval(&mut self, i: usize, unchanged: bool) {
        self.instr_evals[i] += 1;
        self.instr_ops[i] += std::mem::take(&mut self.pending_ops);
        self.wasted += u64::from(unchanged);
    }

    fn sweep(&mut self, woken: u64) {
        self.sweeps += 1;
        self.occupancy.record(woken);
    }
}

impl CompiledSim {
    /// Starts profiling: every subsequent settle takes the counted
    /// path. Counters accumulate across calls to `clock`; idempotent
    /// (re-enabling keeps existing counts).
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
            for &t in self.fanout.readers(&instr.dst) {
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
            clocked_ops: prof.clocked_ops,
        })
    }
}
