//! Execution, the second phase: the one bytecode loop ([`exec`]) every
//! program runs through, and the [`Observer`] hooks it reports to.

use super::lower::{Op, Slot, SlotId};
use super::{err, mask};
use crate::ast::{BinaryOp, UnaryOp};
use crate::simulator::SimulateError;

/// The immutable state a program executes against — split out from
/// [`CompiledSim`](super::CompiledSim) so execution can borrow it while
/// the operand stack is borrowed mutably.
pub(super) struct ExecCtx<'a> {
    pub(super) values: &'a [u64],
    pub(super) mems: &'a [Vec<u64>],
    pub(super) slots: &'a [Slot],
    pub(super) mem_slot: &'a [SlotId],
}

/// Watches the evaluator without changing it. Every hook defaults to a
/// no-op, so `exec::<()>` and `settle_with::<()>` monomorphise to the
/// bare loop; the profiler (`ProfState`) and its clocked op counter are
/// the only other observers.
pub(super) trait Observer {
    /// An opcode is about to execute.
    #[inline(always)]
    fn op(&mut self, _op: &Op) {}

    /// Tape instruction `i` was evaluated; its opcodes were the `op`
    /// hooks since the previous `eval`. `unchanged` is set when the
    /// write left its destination as it was (a wasted wakeup).
    #[inline(always)]
    fn eval(&mut self, _i: usize, _unchanged: bool) {}

    /// A settle sweep finished after evaluating `woken` instructions.
    #[inline(always)]
    fn sweep(&mut self, _woken: u64) {}
}

impl Observer for () {}

/// Evaluates an expression program to its `(value, width)` result. A
/// bare signal or literal returns without touching the stack.
pub(super) fn eval<O: Observer>(
    ctx: &ExecCtx,
    ops: &[Op],
    stack: &mut Vec<(u64, u32)>,
    obs: &mut O,
) -> Result<(u64, u32), SimulateError> {
    match ops {
        [op @ Op::Sig(s)] => {
            obs.op(op);
            let w = ctx.slots[*s].width;
            Ok((ctx.values[*s] & mask(w), w))
        }
        [op @ Op::Lit { width, value }] => {
            obs.op(op);
            Ok((*value, *width))
        }
        _ => {
            exec(ctx, ops, stack, &mut Vec::new(), obs)?;
            Ok(stack.pop().expect("program leaves a result"))
        }
    }
}

/// Executes a lowered program against `ctx` using `stack` as the
/// operand scratch (cleared on entry): an expression leaves its result
/// on the stack, a posedge program pushes its writes onto `nba` as
/// `(index into Clocked::dsts, value)`. This is a port of the
/// interpreter's evaluator — same two-state logic, same masking, same
/// signed compare/divide/shift rules, same out-of-range and
/// division-by-zero behaviour, same `case` match on the subject's
/// width — with jumps realising lazy ternaries and statement control
/// flow, so an untaken arm is never executed.
pub(super) fn exec<O: Observer>(
    ctx: &ExecCtx,
    ops: &[Op],
    stack: &mut Vec<(u64, u32)>,
    nba: &mut Vec<(u32, u64)>,
    obs: &mut O,
) -> Result<(), SimulateError> {
    stack.clear();
    let mut pc = 0usize;
    while let Some(op) = ops.get(pc) {
        obs.op(op);
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
                });
            }
            Op::BitIdx(s) => {
                let (i, _) = stack.pop().expect("bit index");
                // Two-state Verilog reads 0 past the width.
                let bit = if i < u64::from(ctx.slots[*s].width) {
                    (ctx.values[*s] >> i) & 1
                } else {
                    0
                };
                stack.push((bit, 1));
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
                    // A 64-bit part shifts every earlier bit out.
                    acc = acc.checked_shl(w).unwrap_or(0) | (v & mask(w));
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
            Op::BranchIfZero(t) => {
                let (c, _) = stack.pop().expect("if condition");
                if c == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::BranchIfSigZero(s, t) => {
                if ctx.values[*s] & mask(ctx.slots[*s].width) == 0 {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::Branch(t) => {
                pc = *t as usize;
                continue;
            }
            Op::CaseNe(t) => {
                let (label, _) = stack.pop().expect("case label");
                let &(subject, width) = stack.last().expect("case subject");
                if label & mask(width) != subject {
                    pc = *t as usize;
                    continue;
                }
                stack.pop();
            }
            Op::PopSubject => {
                stack.pop().expect("case subject");
            }
            Op::Queue(d) => {
                let (v, _) = stack.pop().expect("queued value");
                nba.push((*d, v));
            }
            Op::QueueLit(d, v) => nba.push((*d, *v)),
        }
        pc += 1;
    }
    Ok(())
}
