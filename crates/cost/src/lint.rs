//! Performance lints (P-rules).
//!
//! Workload-free static checks over a kernel's instruction stream,
//! reported through the same [`augem_verify::diag`] machinery as the
//! verifier's correctness rules (V-rules). Every P-rule is a
//! [`Severity::Warning`](augem_verify::Severity::Warning): the kernel is correct, it just leaves cycles
//! on the table on the target machine.
//!
//! | code | rule | fires when |
//! |------|------|------------|
//! | P001 | `AccumulatorChain` | a loop-carried FP chain is longer than the body's per-iteration throughput bound (the paper's Figure-13 stall, found statically) |
//! | P002 | `PortOversubscription` | micro-ops restricted to one port dominate a loop body far beyond its fair share |
//! | P003 | `SpillInLoop` | a spill-slot access (`%rsp`-based) sits inside an innermost loop body |
//! | P004 | `NarrowSimd` | all FP arithmetic is narrower than the machine's widest SIMD mode |
//! | P005 | `MissingPrefetch` | an innermost loop strides a load stream faster than the hardware stream prefetcher can follow, with no software prefetch |
//! | P006 | `DeadRemainder` | constant propagation proves a block with real instructions unreachable |
//! | P007 | `RedundantPrefetch` | two prefetches in one innermost-loop iteration provably target the same 64-byte cache line |
//!
//! P001 and P002 consider only loops running the kernel's *widest* FP
//! arithmetic: a loop narrower than that is remainder cleanup whose
//! trip count the blocking scheme bounds by the peeled unroll/vector
//! factor, so its stalls cannot dominate the kernel.

use augem_asm::{AsmKernel, GpOrImm, XInst};
use augem_machine::MachineSpec;
use augem_verify::diag::{dedup, Diagnostic, Rule, Span};

use crate::bounds::{innermost_loops, max_carried_chain, port_bound_for_counts};
use crate::walk::{summarize_body, MemKind, Sym};

/// The stride (bytes per iteration) beyond which the simulated stream
/// prefetcher stops helping: it trains only on consecutive-line
/// accesses, so any stride of two lines (128 bytes) or more leaves
/// every access exposed to the memory latency.
const STREAM_PREFETCH_LIMIT_BYTES: i64 = 128;

/// Cache-line granularity for the redundant-prefetch lint (P007): two
/// prefetches whose addresses provably land on one line fetch it twice.
const CACHE_LINE_BYTES: i64 = 64;

/// Runs every P-rule against `kernel` as it would execute on `machine`.
/// Purely static: no arguments, no simulation.
pub fn lint(kernel: &AsmKernel, machine: &MachineSpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let loops = innermost_loops(kernel);
    let tm = &machine.timing;

    // Body summaries for stride analysis (P005) reuse the walk's affine
    // summarizer over the decoded form; decode failure just disables
    // the stride lint.
    let decoded = augem_sim::decode(kernel, true).ok();

    // Widest FP arithmetic per loop and kernel-wide. A loop narrower
    // than the kernel's widest is remainder cleanup: the blocking
    // scheme bounds its trip count by the unroll/vector factor the main
    // loop peeled off, so its dependence chains cannot dominate the
    // kernel. P001 skips such loops; P004 uses the kernel-wide width.
    let loop_lanes: Vec<usize> = loops
        .iter()
        .map(|&(branch, target)| widest_fp_lanes(&kernel.insts[target + 1..=branch]))
        .collect();
    let kernel_lanes = loop_lanes.iter().copied().max().unwrap_or(0);

    for (li, &(branch, target)) in loops.iter().enumerate() {
        let body = &kernel.insts[target + 1..=branch];
        let body_span = Span::Insts {
            first: target + 1,
            last: branch,
        };
        let ones = vec![1u64; body.len()];

        // P001: carried FP chain vs. one iteration's throughput bound.
        let chain = max_carried_chain(&kernel.insts, target, branch, machine, true);
        let port = port_bound_for_counts(body, &ones, tm, false);
        let classed = body.iter().filter(|i| i.class().is_some()).count() as u64;
        let front = if classed == 0 {
            0
        } else {
            (classed - 1) / tm.issue_width as u64 + 1
        };
        let throughput = port.max(front);
        if chain > throughput && loop_lanes[li] == kernel_lanes {
            diags.push(Diagnostic::new(
                Rule::AccumulatorChain,
                body_span,
                format!(
                    "loop-carried FP dependence chain of {chain} cycles exceeds the \
                     body's throughput bound of {throughput} cycles/iteration; \
                     split the accumulator (more unrolled partial sums) to break the chain"
                ),
            ));
        }

        // P002: micro-ops confined to a single port hogging the loop.
        let mut uops_single = [0u64; 8];
        let mut uops_total = 0u64;
        for inst in body {
            let Some((class, mode)) = inst.class() else {
                continue;
            };
            let t = tm.timing(class, mode);
            let valid: Vec<u8> = t.ports.ports().filter(|&p| p < tm.num_ports).collect();
            if valid.is_empty() {
                continue;
            }
            uops_total += t.uops as u64;
            if let [only] = valid[..] {
                uops_single[only as usize] += t.uops as u64;
            }
        }
        let fair_share = uops_total.div_ceil(tm.num_ports as u64);
        for (p, &u) in uops_single.iter().enumerate() {
            if u >= 4 && u > 2 * fair_share && loop_lanes[li] == kernel_lanes {
                diags.push(Diagnostic::new(
                    Rule::PortOversubscription,
                    body_span,
                    format!(
                        "{u} of {uops_total} micro-ops per iteration can only issue on \
                         port {p} (fair share {fair_share}); rebalance the instruction mix"
                    ),
                ));
            }
        }

        // P003: spill traffic inside the hot loop.
        for (off, inst) in body.iter().enumerate() {
            let mem = match inst {
                XInst::FLoad { mem, .. }
                | XInst::FStore { mem, .. }
                | XInst::FDup { mem, .. }
                | XInst::ILoad { mem, .. }
                | XInst::IStore { mem, .. } => mem,
                _ => continue,
            };
            if mem.base.0 == 7 {
                diags.push(Diagnostic::new(
                    Rule::SpillInLoop,
                    Span::at(target + 1 + off),
                    "spill-slot access inside an innermost loop body; raise the \
                     register budget or reduce unrolling to keep the loop in registers"
                        .to_string(),
                ));
            }
        }

        // P007: two prefetches provably targeting the same 64-byte
        // cache line within one iteration. Tracked per base register;
        // any write to the base forgets what was prefetched through it
        // (the two addresses are no longer provably on one line).
        let mut lines: Vec<(u8, i64, usize)> = Vec::new();
        for (off, inst) in body.iter().enumerate() {
            if let XInst::Prefetch { mem, .. } = inst {
                let line = mem.disp.div_euclid(CACHE_LINE_BYTES);
                match lines
                    .iter()
                    .find(|&&(b, l, _)| b == mem.base.0 && l == line)
                {
                    Some(&(_, _, first)) => diags.push(Diagnostic::new(
                        Rule::RedundantPrefetch,
                        Span::at(target + 1 + off),
                        format!(
                            "prefetch (displacement {}) hits the same \
                             {CACHE_LINE_BYTES}-byte cache line as the prefetch at \
                             instruction {} through the same base register; drop one",
                            mem.disp,
                            target + 1 + first,
                        ),
                    )),
                    None => lines.push((mem.base.0, line, off)),
                }
            } else if let Some(w) = gp_written(inst) {
                lines.retain(|&(b, _, _)| b != w);
            }
        }

        // P005: load streams striding past the hardware prefetcher.
        if let Some(prog) = &decoded {
            let has_prefetch = body.iter().any(|i| matches!(i, XInst::Prefetch { .. }));
            if !has_prefetch {
                if let Some(sum) = summarize_body(&prog.ops, target, branch) {
                    let strided = sum.mem_ops.iter().any(|m| {
                        if m.kind != MemKind::Load {
                            return false;
                        }
                        let delta = match m.addr {
                            Sym::Entry(r, _) => sum.deltas[r as usize].unwrap_or(0),
                            _ => 0,
                        };
                        delta.unsigned_abs() >= STREAM_PREFETCH_LIMIT_BYTES as u64
                    });
                    if strided {
                        diags.push(Diagnostic::new(
                            Rule::MissingPrefetch,
                            body_span,
                            format!(
                                "a load stream advances >= {STREAM_PREFETCH_LIMIT_BYTES} \
                                 bytes per iteration — beyond the stream prefetcher's \
                                 consecutive-line reach — and the body issues no \
                                 software prefetch"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // P004: widest FP arithmetic vs. what the machine offers. Kernel
    // level: a packed main loop with a scalar remainder loop is fine;
    // only a kernel whose *widest* arithmetic is narrow fires.
    let machine_lanes = machine.simd_mode().f64_lanes();
    let max_lanes = kernel_lanes;
    if max_lanes > 0 && max_lanes < machine_lanes {
        diags.push(Diagnostic::new(
            Rule::NarrowSimd,
            Span::Kernel,
            format!(
                "widest FP arithmetic uses {max_lanes} lane(s) but the machine \
                 supports {machine_lanes}; vectorize for the full SIMD width"
            ),
        ));
    }

    // P006: blocks constant propagation proves dead.
    diags.extend(dead_remainder(kernel));

    dedup(diags)
}

/// The GP register `inst` overwrites, if any — used by P007 to forget
/// which cache lines were already prefetched through that base.
fn gp_written(inst: &XInst) -> Option<u8> {
    match inst {
        XInst::IMovImm { dst, .. }
        | XInst::IMov { dst, .. }
        | XInst::IAdd { dst, .. }
        | XInst::ISub { dst, .. }
        | XInst::IMul { dst, .. }
        | XInst::Lea { dst, .. }
        | XInst::ILoad { dst, .. } => Some(dst.0),
        _ => None,
    }
}

/// Widest FP-arithmetic lane count in `insts` (0 when there is none).
fn widest_fp_lanes(insts: &[XInst]) -> usize {
    let mut max_lanes = 0usize;
    for inst in insts {
        let w = match inst {
            XInst::FMul2 { w, .. }
            | XInst::FAdd2 { w, .. }
            | XInst::FMul3 { w, .. }
            | XInst::FAdd3 { w, .. }
            | XInst::Fma3 { w, .. }
            | XInst::Fma4 { w, .. } => w,
            _ => continue,
        };
        max_lanes = max_lanes.max(w.lanes());
    }
    max_lanes
}

/// Forward constant propagation over the verifier's CFG. A block that
/// can never execute — because every branch leading toward it resolves
/// statically the other way — yet contains classed instructions is dead
/// weight from an over-general template (e.g. a remainder loop for a
/// statically-zero remainder).
fn dead_remainder(kernel: &AsmKernel) -> Vec<Diagnostic> {
    let insts = &kernel.insts;
    if insts.is_empty() {
        return Vec::new();
    }
    let blocks = augem_verify::dataflow::build_cfg(insts);

    type Env = ([Option<i64>; 16], (Option<i64>, Option<i64>));

    // Entry: every parameter register (and %rsp) is runtime-dependent.
    let entry: Env = ([None; 16], (None, None));

    fn join(a: &Env, b: &Env) -> Env {
        let mut regs = [None; 16];
        for (r, slot) in regs.iter_mut().enumerate() {
            *slot = match (a.0[r], b.0[r]) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            };
        }
        let cmp = (
            match (a.1 .0, b.1 .0) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            },
            match (a.1 .1, b.1 .1) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            },
        );
        (regs, cmp)
    }

    let mut state: Vec<Option<Env>> = vec![None; blocks.len()];
    state[0] = Some(entry);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let Some(env_in) = state[b] else {
            continue;
        };
        let mut env = env_in;
        let block = &blocks[b];
        for inst in &insts[block.start..block.end] {
            let regs = &mut env.0;
            match inst {
                XInst::IMovImm { dst, imm } => regs[(dst.0 & 15) as usize] = Some(*imm),
                XInst::IMov { dst, src } => {
                    regs[(dst.0 & 15) as usize] = regs[(src.0 & 15) as usize]
                }
                XInst::IAdd { dst, src } | XInst::ISub { dst, src } | XInst::IMul { dst, src } => {
                    let d = (dst.0 & 15) as usize;
                    let rhs = match src {
                        GpOrImm::Imm(i) => Some(*i),
                        GpOrImm::Gp(g) => regs[(g.0 & 15) as usize],
                    };
                    regs[d] = match (regs[d], rhs) {
                        (Some(a), Some(b)) => Some(match inst {
                            XInst::IAdd { .. } => a.wrapping_add(b),
                            XInst::ISub { .. } => a.wrapping_sub(b),
                            _ => a.wrapping_mul(b),
                        }),
                        _ => None,
                    };
                }
                XInst::Lea {
                    dst,
                    base,
                    idx,
                    disp,
                } => {
                    let mut v = regs[(base.0 & 15) as usize].map(|b| b.wrapping_add(*disp));
                    if let Some((ir, scale)) = idx {
                        v = match (v, regs[(ir.0 & 15) as usize]) {
                            (Some(v), Some(i)) => {
                                Some(v.wrapping_add(i.wrapping_mul(*scale as i64)))
                            }
                            _ => None,
                        };
                    }
                    regs[(dst.0 & 15) as usize] = v;
                }
                XInst::ILoad { dst, .. } => regs[(dst.0 & 15) as usize] = None,
                XInst::Cmp { a, b } => {
                    let av = regs[(a.0 & 15) as usize];
                    let bv = match b {
                        GpOrImm::Imm(i) => Some(*i),
                        GpOrImm::Gp(g) => regs[(g.0 & 15) as usize],
                    };
                    env.1 = (av, bv);
                }
                _ => {}
            }
        }
        // Statically resolved conditional branches prune a successor.
        let succs: Vec<usize> = match insts.get(block.end.wrapping_sub(1)) {
            Some(XInst::Jl(_)) | Some(XInst::Jge(_)) => {
                if let (Some(a), Some(bv)) = env.1 {
                    let taken = match insts[block.end - 1] {
                        XInst::Jl(_) => a < bv,
                        _ => a >= bv,
                    };
                    // succs order: [target, fallthrough] (fallthrough
                    // present only when the block is not last).
                    let pick = if taken { 0 } else { 1 };
                    block.succs.get(pick).copied().into_iter().collect()
                } else {
                    block.succs.clone()
                }
            }
            _ => block.succs.clone(),
        };
        for s in succs {
            let merged = match &state[s] {
                None => env,
                Some(old) => join(old, &env),
            };
            if state[s].as_ref() != Some(&merged) {
                state[s] = Some(merged);
                work.push(s);
            }
        }
    }

    let mut diags = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        if state[b].is_some() {
            continue;
        }
        let classed = insts[block.start..block.end]
            .iter()
            .any(|i| i.class().is_some());
        if classed && block.end > block.start {
            diags.push(Diagnostic::new(
                Rule::DeadRemainder,
                Span::Insts {
                    first: block.start,
                    last: block.end - 1,
                },
                "block is unreachable for every input (loop bounds resolve \
                 statically); drop the dead remainder code"
                    .to_string(),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_asm::{Mem, ParamLoc, Width};
    use augem_machine::{GpReg, VecReg};

    fn snb() -> MachineSpec {
        MachineSpec::sandy_bridge()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        let mut c: Vec<_> = diags.iter().map(|d| d.rule.code()).collect();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// A single serial accumulator chained through four FAdds per
    /// iteration: far more carried latency than the body's throughput.
    #[test]
    fn p001_fires_on_serial_accumulator() {
        let mut k = AsmKernel::new("serial_acc");
        k.params.push(("X".into(), ParamLoc::Gp(GpReg(0))));
        k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::Label("l".into()));
        for _ in 0..4 {
            k.insts.push(XInst::FAdd2 {
                dstsrc: VecReg(0),
                src: VecReg(1),
                w: Width::V4,
            });
        }
        k.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        k.insts.push(XInst::Jl("l".into()));
        k.insts.push(XInst::Ret);
        let diags = lint(&k, &snb());
        assert!(
            diags.iter().any(|d| d.rule == Rule::AccumulatorChain),
            "{diags:?}"
        );
    }

    /// Split accumulators: four independent chains of one FAdd each.
    #[test]
    fn p001_quiet_on_split_accumulators() {
        let mut k = AsmKernel::new("split_acc");
        k.params.push(("X".into(), ParamLoc::Gp(GpReg(0))));
        k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::Label("l".into()));
        for acc in 0..4u8 {
            k.insts.push(XInst::FAdd2 {
                dstsrc: VecReg(acc),
                src: VecReg(8),
                w: Width::V4,
            });
        }
        k.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        k.insts.push(XInst::Jl("l".into()));
        k.insts.push(XInst::Ret);
        let diags = lint(&k, &snb());
        assert!(
            !diags.iter().any(|d| d.rule == Rule::AccumulatorChain),
            "{diags:?}"
        );
    }

    /// Sandy Bridge multiplies issue only on port 0: a body of eight
    /// FMuls and little else oversubscribes it.
    #[test]
    fn p002_fires_on_port_zero_pileup() {
        let mut k = AsmKernel::new("mul_pile");
        k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::Label("l".into()));
        for i in 0..8u8 {
            k.insts.push(XInst::FMul2 {
                dstsrc: VecReg(i),
                src: VecReg(8),
                w: Width::V4,
            });
        }
        k.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        k.insts.push(XInst::Jl("l".into()));
        k.insts.push(XInst::Ret);
        let diags = lint(&k, &snb());
        assert!(codes(&diags).contains(&"P002"), "{diags:?}");
    }

    /// A spill reload inside the loop body.
    #[test]
    fn p003_fires_on_loop_spill() {
        let mut k = AsmKernel::new("spilly");
        k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k.stack_slots = 1;
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::Label("l".into()));
        k.insts.push(XInst::FLoad {
            dst: VecReg(0),
            mem: Mem::new(GpReg(7), 0),
            w: Width::V2,
        });
        k.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        k.insts.push(XInst::Jl("l".into()));
        k.insts.push(XInst::Ret);
        let diags = lint(&k, &snb());
        assert!(codes(&diags).contains(&"P003"), "{diags:?}");
    }

    /// SSE-width arithmetic on an AVX machine.
    #[test]
    fn p004_fires_on_narrow_simd_and_stays_quiet_with_remainder() {
        let mut k = AsmKernel::new("narrow");
        k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::Label("l".into()));
        k.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V2,
        });
        k.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        k.insts.push(XInst::Jl("l".into()));
        k.insts.push(XInst::Ret);
        let diags = lint(&k, &snb());
        assert!(codes(&diags).contains(&"P004"), "{diags:?}");

        // Add a full-width main loop: the scalar remainder no longer
        // makes the kernel "narrow".
        let mut wide = AsmKernel::new("wide_with_remainder");
        wide.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        wide.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        wide.insts.push(XInst::Label("main".into()));
        wide.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V4,
        });
        wide.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        wide.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        wide.insts.push(XInst::Jl("main".into()));
        wide.insts.push(XInst::Label("rem".into()));
        wide.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::S,
        });
        wide.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        wide.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(4)),
        });
        wide.insts.push(XInst::Jl("rem".into()));
        wide.insts.push(XInst::Ret);
        let diags = lint(&wide, &snb());
        assert!(!codes(&diags).contains(&"P004"), "{diags:?}");
    }

    /// A load stream striding two cache lines per iteration without
    /// software prefetch; adding the prefetch silences the lint.
    #[test]
    fn p005_fires_on_fast_stride_without_prefetch() {
        let build = |with_prefetch: bool| {
            let mut k = AsmKernel::new("strided");
            k.params.push(("X".into(), ParamLoc::Gp(GpReg(0))));
            k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
            k.insts.push(XInst::IMovImm {
                dst: GpReg(2),
                imm: 0,
            });
            k.insts.push(XInst::Label("l".into()));
            k.insts.push(XInst::FLoad {
                dst: VecReg(0),
                mem: Mem::new(GpReg(0), 0),
                w: Width::V2,
            });
            if with_prefetch {
                k.insts.push(XInst::Prefetch {
                    mem: Mem::new(GpReg(0), 512),
                    write: false,
                    locality: 0,
                });
            }
            k.insts.push(XInst::IAdd {
                dst: GpReg(0),
                src: GpOrImm::Imm(128),
            });
            k.insts.push(XInst::IAdd {
                dst: GpReg(2),
                src: GpOrImm::Imm(1),
            });
            k.insts.push(XInst::Cmp {
                a: GpReg(2),
                b: GpOrImm::Gp(GpReg(3)),
            });
            k.insts.push(XInst::Jl("l".into()));
            k.insts.push(XInst::Ret);
            k
        };
        let diags = lint(&build(false), &snb());
        assert!(codes(&diags).contains(&"P005"), "{diags:?}");
        let diags = lint(&build(true), &snb());
        assert!(!codes(&diags).contains(&"P005"), "{diags:?}");
    }

    /// Two prefetches on one cache line in one iteration; distinct
    /// lines, distinct bases, or an intervening base write are quiet.
    #[test]
    fn p007_fires_on_same_line_prefetch_pair() {
        // disp2 = second prefetch displacement; bump = advance the base
        // register between the two prefetches; base2 = second base reg.
        let build = |disp2: i64, bump: bool, base2: u8| {
            let mut k = AsmKernel::new("pf_pair");
            k.params.push(("X".into(), ParamLoc::Gp(GpReg(0))));
            k.params.push(("Y".into(), ParamLoc::Gp(GpReg(1))));
            k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
            k.insts.push(XInst::IMovImm {
                dst: GpReg(2),
                imm: 0,
            });
            k.insts.push(XInst::Label("l".into()));
            k.insts.push(XInst::Prefetch {
                mem: Mem::new(GpReg(0), 512),
                write: false,
                locality: 3,
            });
            if bump {
                k.insts.push(XInst::IAdd {
                    dst: GpReg(0),
                    src: GpOrImm::Imm(64),
                });
            }
            k.insts.push(XInst::Prefetch {
                mem: Mem::new(GpReg(base2), disp2),
                write: false,
                locality: 3,
            });
            k.insts.push(XInst::FLoad {
                dst: VecReg(0),
                mem: Mem::new(GpReg(0), 0),
                w: Width::V2,
            });
            k.insts.push(XInst::IAdd {
                dst: GpReg(2),
                src: GpOrImm::Imm(1),
            });
            k.insts.push(XInst::Cmp {
                a: GpReg(2),
                b: GpOrImm::Gp(GpReg(3)),
            });
            k.insts.push(XInst::Jl("l".into()));
            k.insts.push(XInst::Ret);
            k
        };
        // Same base, displacements 512 and 520: one 64-byte line.
        let diags = lint(&build(520, false, 0), &snb());
        assert!(codes(&diags).contains(&"P007"), "{diags:?}");
        // Same base, next line (576): quiet.
        let diags = lint(&build(576, false, 0), &snb());
        assert!(!codes(&diags).contains(&"P007"), "{diags:?}");
        // Different base registers: not provably the same line.
        let diags = lint(&build(520, false, 1), &snb());
        assert!(!codes(&diags).contains(&"P007"), "{diags:?}");
        // Base advanced between the two: not provably the same line.
        let diags = lint(&build(520, true, 0), &snb());
        assert!(!codes(&diags).contains(&"P007"), "{diags:?}");
    }

    /// A remainder loop guarded by a statically-false condition.
    #[test]
    fn p006_fires_on_statically_dead_block() {
        let mut k = AsmKernel::new("dead_rem");
        // i = 0; if i < 0 goto rem; ret; rem: <real work>; ret
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Imm(0),
        });
        k.insts.push(XInst::Jl("rem".into()));
        k.insts.push(XInst::Ret);
        k.insts.push(XInst::Label("rem".into()));
        k.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V2,
        });
        k.insts.push(XInst::Ret);
        let diags = lint(&k, &snb());
        assert!(codes(&diags).contains(&"P006"), "{diags:?}");

        // The same shape with a runtime bound is quiet.
        let mut k2 = AsmKernel::new("live_rem");
        k2.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k2.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k2.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        k2.insts.push(XInst::Jl("rem".into()));
        k2.insts.push(XInst::Ret);
        k2.insts.push(XInst::Label("rem".into()));
        k2.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V2,
        });
        k2.insts.push(XInst::Ret);
        let diags = lint(&k2, &snb());
        assert!(!codes(&diags).contains(&"P006"), "{diags:?}");
    }
}
