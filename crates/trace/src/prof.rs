//! Counter-based hot-spot profiles for the simulation engines
//! (DESIGN.md §15).
//!
//! The compiled engine (`deepburning-verilog::compile`, once
//! `prof_enable` is called) fills an [`EngineProfile`] with per-instruction
//! attribution folded down to *(module, level)* tape segments, executed
//! bytecode opcode counts, settle-sweep dirty-set statistics and
//! cross-level traffic per register-boundary cut. No sampling thread, no timestamps — everything is a
//! counter bumped on the execution path, aggregated here on the cold
//! path.
//!
//! Three exports:
//!
//! * [`EngineProfile::folded_stacks`] — folded-stack text, one
//!   `engine;module;L<level> <ops>` line per segment, directly
//!   consumable by `flamegraph.pl` / speedscope;
//! * [`EngineProfile::emit_counters`] — Perfetto counter tracks merged
//!   into whichever [`Tracer`](crate::Tracer) is installed;
//! * [`EngineProfile::report_json`] — the `ProfileReport` document with
//!   the ranked JIT-candidate table (levels by attributed executed ops,
//!   the engine's unit of time) and the partition-suggestion table
//!   (cut points ranked by cross-level combinational traffic).

use crate::hist::Histogram;
use crate::json::Json;

/// Fraction of attributed engine time the ranked JIT-candidate table
/// must cover (DESIGN.md §15): candidates are taken in descending heat
/// order until their cumulative share reaches this bound.
pub const JIT_COVERAGE_TARGET: f64 = 0.80;

/// Heat attributed to one *(module, level)* tape segment: the
/// instructions of one flattened instance that landed on one
/// topological level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentProf {
    /// Flattened instance path (`""` is the top module).
    pub module: String,
    /// Topological level (longest producer chain from a tape source).
    pub level: u32,
    /// Tape instructions in the segment.
    pub instrs: u64,
    /// Instruction evaluations (dirty wakeups that ran).
    pub evals: u64,
    /// Bytecode ops executed by those evaluations — the profiler's
    /// proxy for time (every op is a constant-ish amount of work).
    pub ops: u64,
}

/// Executed-op count for one bytecode opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpcodeProf {
    /// Opcode name (`Sig`, `Bin`, `WordIdx`, …).
    pub opcode: &'static str,
    /// Times an op of this kind was executed.
    pub count: u64,
}

/// Settle-sweep statistics: how full the dirty set runs and how much
/// of the woken work was wasted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepProf {
    /// Settle sweeps (scheduler drains) observed.
    pub sweeps: u64,
    /// Instructions woken (evaluated) across all sweeps.
    pub evals: u64,
    /// Woken evaluations whose write changed nothing — pure scheduling
    /// overhead a smarter wakeup filter could skip.
    pub wasted_wakeups: u64,
    /// Distribution of dirty-set occupancy (instructions evaluated per
    /// sweep), log₂-bucketed with exact min/max.
    pub dirty_occupancy: Histogram,
}

/// Cross-level combinational traffic for the register-boundary cut
/// *before* `level`: evaluations of producers whose fanout crosses the
/// cut, i.e. the values a partitioned simulation would have to ship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutProf {
    /// Cut position: the boundary between `level - 1` and `level`.
    pub level: u32,
    /// Producer evaluations crossing the cut.
    pub cross_evals: u64,
}

/// One aggregated tape level (all modules folded together).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelProf {
    /// Topological level.
    pub level: u32,
    /// Tape instructions on the level.
    pub instrs: u64,
    /// Instruction evaluations.
    pub evals: u64,
    /// Executed bytecode ops.
    pub ops: u64,
}

/// One row of the ranked JIT-candidate table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitCandidate {
    /// Topological level.
    pub level: u32,
    /// Tape instructions on the level.
    pub instrs: u64,
    /// Instruction evaluations.
    pub evals: u64,
    /// Executed bytecode ops (the ranking key: cumulative time ×
    /// eval count collapses to this, since time-per-eval is ops).
    pub ops: u64,
    /// Fraction of all attributed ops.
    pub share: f64,
    /// Running share including this row.
    pub cum_share: f64,
}

/// A complete profile of one engine run. Filled by the engines, read by
/// the exports below; all fields are plain counters so the collection
/// path stays allocation- and syscall-free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineProfile {
    /// Engine tag (`compiled` | `tree`).
    pub engine: String,
    /// Total instruction evaluations attributed.
    pub total_evals: u64,
    /// Total executed bytecode ops attributed (the tree engine has no
    /// bytecode; it reports one op per evaluation).
    pub total_ops: u64,
    /// Per-(module, level) tape-segment heat.
    pub segments: Vec<SegmentProf>,
    /// Per-opcode executed counts (empty for the tree engine).
    pub opcodes: Vec<OpcodeProf>,
    /// Settle-sweep statistics.
    pub sweeps: SweepProf,
    /// Cross-level traffic per register-boundary cut (empty for the
    /// tree engine, which has no levelized tape).
    pub cuts: Vec<CutProf>,
    /// Bytecode ops executed by posedge bodies on clock edges, kept out
    /// of `total_ops` and the tape breakdowns (0 for the tree engine,
    /// whose one-op-per-eval proxy already counts the edge's writes).
    pub clocked_ops: u64,
}

impl EngineProfile {
    /// Tape levels aggregated across modules, ascending by level.
    pub fn levels(&self) -> Vec<LevelProf> {
        let mut out: Vec<LevelProf> = Vec::new();
        for seg in &self.segments {
            match out.iter_mut().find(|l| l.level == seg.level) {
                Some(l) => {
                    l.instrs += seg.instrs;
                    l.evals += seg.evals;
                    l.ops += seg.ops;
                }
                None => out.push(LevelProf {
                    level: seg.level,
                    instrs: seg.instrs,
                    evals: seg.evals,
                    ops: seg.ops,
                }),
            }
        }
        out.sort_by_key(|l| l.level);
        out
    }

    /// Per-module heat aggregated across levels, descending by ops.
    pub fn modules(&self) -> Vec<(String, u64, u64)> {
        let mut out: Vec<(String, u64, u64)> = Vec::new();
        for seg in &self.segments {
            match out.iter_mut().find(|(m, _, _)| *m == seg.module) {
                Some((_, evals, ops)) => {
                    *evals += seg.evals;
                    *ops += seg.ops;
                }
                None => out.push((seg.module.clone(), seg.evals, seg.ops)),
            }
        }
        out.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Every level ranked by attributed ops (descending) with running
    /// cumulative share — the full JIT-candidate ranking.
    pub fn jit_candidates(&self) -> Vec<JitCandidate> {
        let mut levels = self.levels();
        levels.sort_by(|a, b| b.ops.cmp(&a.ops).then_with(|| a.level.cmp(&b.level)));
        let total = self.total_ops.max(1) as f64;
        let mut cum = 0.0;
        levels
            .into_iter()
            .map(|l| {
                let share = l.ops as f64 / total;
                cum += share;
                JitCandidate {
                    level: l.level,
                    instrs: l.instrs,
                    evals: l.evals,
                    ops: l.ops,
                    share,
                    cum_share: cum,
                }
            })
            .collect()
    }

    /// The ranked JIT-candidate prefix covering at least `coverage` of
    /// the attributed ops (always at least one row when any level has
    /// heat).
    pub fn jit_table(&self, coverage: f64) -> Vec<JitCandidate> {
        let ranked = self.jit_candidates();
        let mut out = Vec::new();
        for row in ranked {
            if row.ops == 0 && !out.is_empty() {
                break;
            }
            let done = row.cum_share >= coverage;
            out.push(row);
            if done {
                break;
            }
        }
        out
    }

    /// Register-boundary cut suggestions, best first: ascending
    /// cross-level traffic (a partitioned simulation would ship the
    /// fewest values), ties broken toward the middle-most cut.
    pub fn partition_cuts(&self) -> Vec<CutProf> {
        let mut cuts = self.cuts.clone();
        let mid = cuts.len() as i64 / 2;
        cuts.sort_by_key(|c| (c.cross_evals, (i64::from(c.level) - mid).abs()));
        cuts
    }

    /// Folded-stack text: one `engine;module;L<level> <ops>` line per
    /// tape segment, deterministic order. Feed to `flamegraph.pl` or
    /// paste into speedscope.
    pub fn folded_stacks(&self) -> String {
        let mut rows: Vec<(String, u64)> = self
            .segments
            .iter()
            .filter(|s| s.ops > 0)
            .map(|s| {
                let module = if s.module.is_empty() {
                    "(top)"
                } else {
                    &s.module
                };
                (format!("{};{};L{}", self.engine, module, s.level), s.ops)
            })
            .collect();
        rows.sort();
        let mut out = String::new();
        for (stack, ops) in rows {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&ops.to_string());
            out.push('\n');
        }
        out
    }

    /// Merges the profile into whichever tracer is installed as
    /// `prof.*` counter tracks (rendered by the chrome sink alongside
    /// the existing trace): per-opcode executed ops, sweep statistics,
    /// and the hottest levels/modules (top 16 each, keeping the track
    /// count bounded on deep tapes).
    pub fn emit_counters(&self) {
        if !crate::active() {
            return;
        }
        let cat = "prof";
        crate::counter(cat, "prof.total_evals", self.total_evals as f64);
        crate::counter(cat, "prof.total_ops", self.total_ops as f64);
        crate::counter(cat, "prof.sweeps", self.sweeps.sweeps as f64);
        crate::counter(cat, "prof.sweep.evals", self.sweeps.evals as f64);
        crate::counter(
            cat,
            "prof.sweep.wasted_wakeups",
            self.sweeps.wasted_wakeups as f64,
        );
        for op in &self.opcodes {
            if op.count > 0 {
                crate::counter(cat, format!("prof.op.{}", op.opcode), op.count as f64);
            }
        }
        let mut levels = self.levels();
        levels.sort_by_key(|l| std::cmp::Reverse(l.ops));
        for l in levels.iter().take(16) {
            crate::counter(cat, format!("prof.level.L{}.ops", l.level), l.ops as f64);
        }
        for (module, _, ops) in self.modules().iter().take(16) {
            let module = if module.is_empty() { "(top)" } else { module };
            crate::counter(cat, format!("prof.module.{module}.ops"), *ops as f64);
        }
    }

    /// The `ProfileReport` JSON document: headline totals, sweep
    /// statistics, the ranked JIT-candidate table (prefix covering
    /// [`JIT_COVERAGE_TARGET`]), the partition-suggestion table (top 8
    /// cuts), and the full level/module/opcode breakdowns.
    pub fn report_json(&self) -> Json {
        let jit = self.jit_table(JIT_COVERAGE_TARGET);
        let jit_coverage = jit.last().map_or(0.0, |r| r.cum_share);
        let jit_rows: Vec<Json> = jit
            .iter()
            .map(|r| {
                Json::obj([
                    ("level", Json::num(f64::from(r.level))),
                    ("instrs", Json::num(r.instrs as f64)),
                    ("evals", Json::num(r.evals as f64)),
                    ("ops", Json::num(r.ops as f64)),
                    ("share", Json::num(r.share)),
                    ("cum_share", Json::num(r.cum_share)),
                ])
            })
            .collect();
        let cut_rows: Vec<Json> = self
            .partition_cuts()
            .iter()
            .take(8)
            .map(|c| {
                Json::obj([
                    ("cut_level", Json::num(f64::from(c.level))),
                    ("cross_evals", Json::num(c.cross_evals as f64)),
                ])
            })
            .collect();
        let level_rows: Vec<Json> = self
            .levels()
            .iter()
            .map(|l| {
                Json::obj([
                    ("level", Json::num(f64::from(l.level))),
                    ("instrs", Json::num(l.instrs as f64)),
                    ("evals", Json::num(l.evals as f64)),
                    ("ops", Json::num(l.ops as f64)),
                ])
            })
            .collect();
        let module_rows: Vec<Json> = self
            .modules()
            .iter()
            .map(|(m, evals, ops)| {
                Json::obj([
                    ("module", Json::str(m.clone())),
                    ("evals", Json::num(*evals as f64)),
                    ("ops", Json::num(*ops as f64)),
                ])
            })
            .collect();
        let opcode_rows: Vec<Json> = self
            .opcodes
            .iter()
            .filter(|o| o.count > 0)
            .map(|o| {
                Json::obj([
                    ("opcode", Json::str(o.opcode)),
                    ("count", Json::num(o.count as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("engine", Json::str(self.engine.clone())),
            ("total_evals", Json::num(self.total_evals as f64)),
            ("total_ops", Json::num(self.total_ops as f64)),
            ("clocked_ops", Json::num(self.clocked_ops as f64)),
            (
                "sweeps",
                Json::obj([
                    ("sweeps", Json::num(self.sweeps.sweeps as f64)),
                    ("evals", Json::num(self.sweeps.evals as f64)),
                    (
                        "wasted_wakeups",
                        Json::num(self.sweeps.wasted_wakeups as f64),
                    ),
                    ("dirty_occupancy", self.sweeps.dirty_occupancy.to_json()),
                ]),
            ),
            ("jit_coverage", Json::num(jit_coverage)),
            ("jit_candidates", Json::Arr(jit_rows)),
            ("partition_cuts", Json::Arr(cut_rows)),
            ("levels", Json::Arr(level_rows)),
            ("modules", Json::Arr(module_rows)),
            ("opcodes", Json::Arr(opcode_rows)),
        ])
    }

    /// Human-readable summary: headline totals, the JIT-candidate table
    /// and the best partition cuts.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile [{}]: {} evals, {} ops (+{} clocked), {} sweeps ({} wasted wakeups)\n",
            self.engine,
            self.total_evals,
            self.total_ops,
            self.clocked_ops,
            self.sweeps.sweeps,
            self.sweeps.wasted_wakeups
        ));
        let jit = self.jit_table(JIT_COVERAGE_TARGET);
        if !jit.is_empty() {
            out.push_str("  JIT candidates (levels by executed ops):\n");
            out.push_str("    level    instrs       evals         ops  share   cum\n");
            for r in &jit {
                out.push_str(&format!(
                    "    L{:<6} {:>7} {:>11} {:>11}  {:>5.1}% {:>5.1}%\n",
                    r.level,
                    r.instrs,
                    r.evals,
                    r.ops,
                    r.share * 100.0,
                    r.cum_share * 100.0
                ));
            }
        }
        let cuts = self.partition_cuts();
        if !cuts.is_empty() {
            out.push_str("  partition cuts (least cross-level traffic first):\n");
            for c in cuts.iter().take(4) {
                out.push_str(&format!(
                    "    before L{:<5} {:>11} crossing evals\n",
                    c.level, c.cross_evals
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, Tracer};

    fn sample() -> EngineProfile {
        let mut hist = Histogram::new();
        for n in [1u64, 4, 4, 90] {
            hist.record(n);
        }
        EngineProfile {
            engine: "compiled".into(),
            total_evals: 140,
            total_ops: 1000,
            segments: vec![
                SegmentProf {
                    module: "mac.u0".into(),
                    level: 2,
                    instrs: 4,
                    evals: 100,
                    ops: 700,
                },
                SegmentProf {
                    module: String::new(),
                    level: 0,
                    instrs: 2,
                    evals: 20,
                    ops: 200,
                },
                SegmentProf {
                    module: "mac.u0".into(),
                    level: 1,
                    instrs: 1,
                    evals: 20,
                    ops: 100,
                },
            ],
            opcodes: vec![
                OpcodeProf {
                    opcode: "Bin",
                    count: 600,
                },
                OpcodeProf {
                    opcode: "Sig",
                    count: 400,
                },
                OpcodeProf {
                    opcode: "Cat",
                    count: 0,
                },
            ],
            sweeps: SweepProf {
                sweeps: 4,
                evals: 140,
                wasted_wakeups: 9,
                dirty_occupancy: hist,
            },
            cuts: vec![
                CutProf {
                    level: 1,
                    cross_evals: 50,
                },
                CutProf {
                    level: 2,
                    cross_evals: 10,
                },
            ],
            clocked_ops: 90,
        }
    }

    #[test]
    fn levels_and_modules_aggregate_segments() {
        let p = sample();
        let levels = p.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].level, 0);
        assert_eq!(levels[2].ops, 700);
        let sum: u64 = levels.iter().map(|l| l.ops).sum();
        assert_eq!(sum, p.total_ops);
        let modules = p.modules();
        assert_eq!(modules[0].0, "mac.u0", "hottest module first");
        assert_eq!(modules[0].2, 800);
    }

    #[test]
    fn jit_table_covers_target() {
        let p = sample();
        let table = p.jit_table(JIT_COVERAGE_TARGET);
        // L2 alone is 70%; L0 brings it to 90% >= 80%.
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].level, 2);
        assert!(table.last().map_or(0.0, |r| r.cum_share) >= JIT_COVERAGE_TARGET);
        let all = p.jit_candidates();
        assert_eq!(all.len(), 3);
        assert!((all.last().map_or(0.0, |r| r.cum_share) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partition_cuts_rank_by_least_traffic() {
        let p = sample();
        let cuts = p.partition_cuts();
        assert_eq!(cuts[0].level, 2, "cheapest cut first");
        assert_eq!(cuts[0].cross_evals, 10);
    }

    #[test]
    fn folded_stacks_format() {
        let p = sample();
        let folded = p.folded_stacks();
        assert!(folded.contains("compiled;mac.u0;L2 700"), "{folded}");
        assert!(folded.contains("compiled;(top);L0 200"), "{folded}");
        for line in folded.lines() {
            let (stack, n) = line.rsplit_once(' ').expect("stack <count>");
            assert_eq!(stack.split(';').count(), 3, "{line}");
            n.parse::<u64>().expect("count parses");
        }
    }

    #[test]
    fn report_json_schema() {
        let doc = sample().report_json();
        for key in [
            "engine",
            "total_evals",
            "total_ops",
            "clocked_ops",
            "sweeps",
            "jit_coverage",
            "jit_candidates",
            "partition_cuts",
            "levels",
            "modules",
            "opcodes",
        ] {
            assert!(doc.get(key).is_some(), "missing `{key}`");
        }
        assert!(
            doc.get("jit_coverage")
                .and_then(Json::as_f64)
                .is_some_and(|c| c >= JIT_COVERAGE_TARGET),
            "ranked candidates must cover the target"
        );
        let reparsed = Json::parse(&doc.render()).expect("renders to valid json");
        assert_eq!(
            reparsed.get("engine").and_then(Json::as_str),
            Some("compiled")
        );
        // Zero-count opcodes are pruned from the report.
        let ops = reparsed
            .get("opcodes")
            .and_then(Json::as_arr)
            .expect("opcodes");
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn emit_counters_lands_in_installed_tracer() {
        let p = sample();
        let tracer = Tracer::new();
        {
            let _session = install(&tracer);
            p.emit_counters();
        }
        let m = tracer.metrics();
        let counters = m.get("counters").and_then(Json::as_obj).expect("counters");
        let get = |k: &str| {
            counters
                .iter()
                .find(|(n, _)| n == k)
                .and_then(|(_, v)| v.as_f64())
        };
        assert_eq!(get("prof.total_ops"), Some(1000.0));
        assert_eq!(get("prof.op.Bin"), Some(600.0));
        assert_eq!(get("prof.sweep.wasted_wakeups"), Some(9.0));
        assert_eq!(get("prof.level.L2.ops"), Some(700.0));
        assert_eq!(get("prof.module.mac.u0.ops"), Some(800.0));
        assert!(get("prof.op.Cat").is_none(), "zero counts are skipped");
    }

    #[test]
    fn emit_counters_without_tracer_is_noop() {
        sample().emit_counters();
    }

    #[test]
    fn render_table_lists_candidates() {
        let text = sample().render_table();
        assert!(text.contains("JIT candidates"), "{text}");
        assert!(text.contains("L2"), "{text}");
        assert!(text.contains("partition cuts"), "{text}");
    }
}
