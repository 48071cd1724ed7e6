//! Static trace reconstruction: a general-purpose-register walk.
//!
//! The lower-bound model needs the *dynamic* per-pc execution counts of
//! a kernel run — how many times each instruction executes — without
//! paying for a full functional simulation. Control flow in generated
//! kernels depends only on general-purpose register state (loop
//! counters, pointers, compare flags), never on floating-point data, so
//! this module re-executes just the GP side of
//! the decoded engine's ([`mod@augem_sim::decode`]) semantics: wrapping integer
//! arithmetic, the compare tuple, branch decisions, and the hidden
//! spill stack. Floating-point operations are counted but their values
//! are never computed.
//!
//! The walk mirrors the simulator exactly, so on a run the simulator
//! completes, the returned per-pc counts equal the histogram of the
//! simulator's trace (`Trace::inst_indices`), minus the final `Ret`
//! (which the simulator executes but never traces). When the walk has
//! to stop early — step budget exhausted, a fault the simulator would
//! also raise, or a general-purpose load from user data (whose value
//! the walk does not track) — it returns the counts accumulated so far
//! with [`WalkSummary::complete`] `false`. A prefix of the trace still
//! yields *sound* lower bounds: extending a trace can only increase the
//! scoreboard's final completion cycle.
//!
//! # Affine loop acceleration
//!
//! Vector kernels iterate hundreds of thousands of times over a
//! straight-line body. The walk summarizes each backward conditional
//! branch's body symbolically: if every register's one-iteration effect
//! is `r += d` or `r = c`, the compare operands are affine in the
//! iteration number, and every memory access provably stays in bounds
//! (and stores never touch a varying spill slot), then the remaining
//! iteration count is solved in closed form and skipped in O(1). The
//! final iteration always runs concretely so fixed-slot spill state is
//! materialized. Acceleration is exact by construction — wrapping
//! register updates are applied mod 2^64, the iteration solve is done
//! in `i128` with explicit overflow bail-outs — so counts with or
//! without it are identical.

use augem_asm::AsmKernel;
use augem_sim::decode::{DecodedOp, DecodedProgram, NO_IDX};
use augem_sim::{SimError, SimValue};

const ARRAY_SHIFT: u32 = 40;

/// Result of a walk: the dynamic shape of one kernel run.
#[derive(Debug, Clone)]
pub struct WalkSummary {
    /// Executed count per static pc (equals the simulator trace's per-pc
    /// histogram when `complete`; the final `Ret` is never counted,
    /// matching the trace).
    pub counts: Vec<u64>,
    /// Simulated steps covered (including untraced `Ret` and label/comment
    /// steps, matching the simulator's step accounting).
    pub steps: u64,
    /// Whether the walk ran to completion (`Ret` or fall-off-the-end).
    /// When `false`, `counts` is a prefix of the real trace.
    pub complete: bool,
    /// Per-pc maximum consecutive-taken streak of conditional branches:
    /// `max_runs[pc]` is the largest number of back-to-back taken
    /// executions of the branch at `pc`.
    pub max_runs: Vec<u64>,
}

/// A symbolic GP value over one loop-body execution: affine in the
/// body-entry register state, or opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sym {
    /// Body-entry value of register `.0`, plus a constant offset.
    Entry(u8, i64),
    Const(i64),
    Opaque,
}

impl Sym {
    fn add_const(self, k: i64) -> Sym {
        match self {
            Sym::Entry(r, o) => Sym::Entry(r, o.wrapping_add(k)),
            Sym::Const(c) => Sym::Const(c.wrapping_add(k)),
            Sym::Opaque => Sym::Opaque,
        }
    }

    fn add(self, other: Sym) -> Sym {
        match (self, other) {
            (s, Sym::Const(c)) | (Sym::Const(c), s) => s.add_const(c),
            _ => Sym::Opaque,
        }
    }

    fn sub(self, other: Sym) -> Sym {
        match (self, other) {
            (s, Sym::Const(c)) => s.add_const(c.wrapping_neg()),
            (Sym::Entry(r1, o1), Sym::Entry(r2, o2)) if r1 == r2 => Sym::Const(o1.wrapping_sub(o2)),
            _ => Sym::Opaque,
        }
    }
}

/// What a summarized memory access does, for the skip-time legality
/// checks. Prefetches are not recorded (they cannot fault and touch no
/// architectural state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemKind {
    /// FP or GP load: bounds/alignment must hold, no state change.
    Load,
    /// FP store: poisons spill slots it hits.
    FpStore,
    /// GP spill store: rewritten by the final concrete iteration.
    GpStore,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct MemOpSum {
    pub(crate) kind: MemKind,
    pub(crate) elems: u8,
    pub(crate) addr: Sym,
}

/// One backward conditional branch's straight-line body, summarized for
/// closed-form iteration skipping.
#[derive(Debug, Clone)]
pub(crate) struct BodySummary {
    /// Per-register one-iteration effect: `Some(d)` means `r += d`.
    pub(crate) deltas: [Option<i64>; 16],
    /// `Some(c)` means the body leaves `r = c` regardless of entry state.
    pub(crate) consts: [Option<i64>; 16],
    /// Compare operands at the branch, affine in body-entry state.
    pub(crate) cmp: (Sym, Sym),
    pub(crate) mem_ops: Vec<MemOpSum>,
    /// Steps one body iteration consumes (pcs `target+1 ..= branch`).
    pub(crate) body_len: u64,
}

/// Summarizes the body of a backward conditional branch at `br` with
/// target `t`. Returns `None` when the body cannot be accelerated:
/// inner control flow, a GP load (its value would enter live state), a
/// non-affine register effect, an opaque compare or access address.
pub(crate) fn summarize_body(ops: &[DecodedOp], t: usize, br: usize) -> Option<BodySummary> {
    // Straight-line: no control flow strictly inside the body.
    if ops[t + 1..br].iter().any(|op| {
        matches!(
            op,
            DecodedOp::Jl { .. } | DecodedOp::Jge { .. } | DecodedOp::Jmp { .. } | DecodedOp::Ret
        )
    }) {
        return None;
    }
    let mut syms: [Sym; 16] = core::array::from_fn(|r| Sym::Entry(r as u8, 0));
    let mut cmp = (Sym::Opaque, Sym::Opaque);
    let mut mem_ops = Vec::new();
    for op in &ops[t + 1..br] {
        match *op {
            DecodedOp::IMovImm { dst, imm } => syms[dst as usize] = Sym::Const(imm),
            DecodedOp::IMov { dst, src } => syms[dst as usize] = syms[src as usize],
            DecodedOp::IAddR { dst, src } => {
                syms[dst as usize] = syms[dst as usize].add(syms[src as usize])
            }
            DecodedOp::IAddI { dst, imm } => syms[dst as usize] = syms[dst as usize].add_const(imm),
            DecodedOp::ISubR { dst, src } => {
                syms[dst as usize] = syms[dst as usize].sub(syms[src as usize])
            }
            DecodedOp::ISubI { dst, imm } => {
                syms[dst as usize] = syms[dst as usize].add_const(imm.wrapping_neg())
            }
            DecodedOp::IMulR { dst, src } => {
                syms[dst as usize] = match (syms[dst as usize], syms[src as usize]) {
                    (Sym::Const(a), Sym::Const(b)) => Sym::Const(a.wrapping_mul(b)),
                    _ => Sym::Opaque,
                }
            }
            DecodedOp::IMulI { dst, imm } => {
                syms[dst as usize] = match syms[dst as usize] {
                    Sym::Const(c) => Sym::Const(c.wrapping_mul(imm)),
                    _ => Sym::Opaque,
                }
            }
            DecodedOp::Lea {
                dst,
                base,
                idx,
                scale,
                disp,
            } => {
                let mut v = syms[base as usize].add_const(disp);
                if idx != NO_IDX {
                    v = match syms[idx as usize] {
                        Sym::Const(c) => v.add_const(c.wrapping_mul(scale as i64)),
                        s if scale == 1 => v.add(s),
                        _ => Sym::Opaque,
                    };
                }
                syms[dst as usize] = v;
            }
            // A GP load's value would flow into live state the skip
            // cannot reproduce; refuse the whole body.
            DecodedOp::ILoad { .. } => return None,
            DecodedOp::IStore { base, disp, .. } => mem_ops.push(MemOpSum {
                kind: MemKind::GpStore,
                elems: 1,
                addr: syms[base as usize].add_const(disp),
            }),
            DecodedOp::CmpR { a, b } => cmp = (syms[a as usize], syms[b as usize]),
            DecodedOp::CmpI { a, imm } => cmp = (syms[a as usize], Sym::Const(imm)),
            DecodedOp::FLoad {
                base, disp, lanes, ..
            } => mem_ops.push(MemOpSum {
                kind: MemKind::Load,
                elems: lanes,
                addr: syms[base as usize].add_const(disp),
            }),
            DecodedOp::FLoad4 { base, disp, .. } => mem_ops.push(MemOpSum {
                kind: MemKind::Load,
                elems: 4,
                addr: syms[base as usize].add_const(disp),
            }),
            DecodedOp::FDup { base, disp, .. } | DecodedOp::FDup4 { base, disp, .. } => mem_ops
                .push(MemOpSum {
                    kind: MemKind::Load,
                    elems: 1,
                    addr: syms[base as usize].add_const(disp),
                }),
            DecodedOp::FStore { base, disp, .. } => mem_ops.push(MemOpSum {
                kind: MemKind::FpStore,
                elems: 1,
                addr: syms[base as usize].add_const(disp),
            }),
            DecodedOp::FStore2 { base, disp, .. } => mem_ops.push(MemOpSum {
                kind: MemKind::FpStore,
                elems: 2,
                addr: syms[base as usize].add_const(disp),
            }),
            DecodedOp::FStore4 { base, disp, .. } => mem_ops.push(MemOpSum {
                kind: MemKind::FpStore,
                elems: 4,
                addr: syms[base as usize].add_const(disp),
            }),
            // No GP, compare, or memory effect.
            DecodedOp::Nop
            | DecodedOp::FMov { .. }
            | DecodedOp::FZero { .. }
            | DecodedOp::FBin2 { .. }
            | DecodedOp::FBin3 { .. }
            | DecodedOp::FBin34 { .. }
            | DecodedOp::Fma3 { .. }
            | DecodedOp::Fma34 { .. }
            | DecodedOp::Fma4 { .. }
            | DecodedOp::Shuf2 { .. }
            | DecodedOp::Shuf3 { .. }
            | DecodedOp::SwapHalves { .. }
            | DecodedOp::Perm2f128 { .. }
            | DecodedOp::ExtractHi { .. }
            | DecodedOp::Prefetch { .. } => {}
            DecodedOp::Jl { .. }
            | DecodedOp::Jge { .. }
            | DecodedOp::Jmp { .. }
            | DecodedOp::Ret => return None,
        }
    }
    // Every register's net effect must be `r += d` or `r = c`; the
    // compare and every access address must be affine.
    let mut deltas = [None; 16];
    let mut consts = [None; 16];
    for (r, s) in syms.iter().enumerate() {
        match *s {
            Sym::Entry(er, d) if er as usize == r => deltas[r] = Some(d),
            Sym::Const(c) => consts[r] = Some(c),
            _ => return None,
        }
    }
    if matches!(cmp.0, Sym::Opaque) || matches!(cmp.1, Sym::Opaque) {
        return None;
    }
    if mem_ops.iter().any(|m| matches!(m.addr, Sym::Opaque)) {
        return None;
    }
    Some(BodySummary {
        deltas,
        consts,
        cmp: (cmp.0, cmp.1),
        mem_ops,
        body_len: (br - t) as u64,
    })
}

/// Mirror of the simulator's address resolution: array index, alignment,
/// bounds. `lens[arr]` is the element count of array `arr`.
fn resolve(lens: &[usize], addr: i64, elems: usize) -> Option<(usize, usize)> {
    let arr = ((addr >> ARRAY_SHIFT) as u64).wrapping_sub(1) as usize;
    if arr >= lens.len() || addr & 7 != 0 {
        return None;
    }
    let elem = ((addr & ((1i64 << ARRAY_SHIFT) - 1)) >> 3) as usize;
    if elem + elems > lens[arr] {
        return None;
    }
    Some((arr, elem))
}

struct WalkState {
    gp: [i64; 16],
    cmp: (i64, i64),
    /// Element counts of every array (user arrays then the spill stack).
    lens: Vec<usize>,
    /// Index of the spill-stack array in `lens`, if the kernel has one.
    stack_arr: Option<usize>,
    /// Spill-slot contents as raw bits (the simulator stores f64 bit
    /// patterns; GP loads reinterpret them).
    stack: Vec<u64>,
    /// Slots written by FP stores: their bits are unknown to the walk.
    poison: Vec<bool>,
}

/// Binds arguments the way [`augem_sim::FuncSim`] does (same order, same
/// compatibility rules) but keeps only what the walk needs: GP values,
/// array lengths, and the hidden spill stack.
fn setup(kernel: &AsmKernel, args: &[SimValue]) -> Result<WalkState, SimError> {
    use augem_asm::ParamLoc;
    if args.len() != kernel.params.len() {
        return Err(SimError::BadArgs(format!(
            "expected {} args, got {}",
            kernel.params.len(),
            args.len()
        )));
    }
    let mut st = WalkState {
        gp: [0; 16],
        cmp: (0, 0),
        lens: Vec::new(),
        stack_arr: None,
        stack: Vec::new(),
        poison: Vec::new(),
    };
    for ((_, loc), arg) in kernel.params.iter().zip(args) {
        match (loc, arg) {
            (ParamLoc::Gp(r), SimValue::Int(v)) => st.gp[r.0 as usize] = *v,
            (ParamLoc::Gp(r), SimValue::Array(data)) => {
                let id = st.lens.len();
                st.lens.push(data.len());
                st.gp[r.0 as usize] = ((id as i64) + 1) << ARRAY_SHIFT;
            }
            (ParamLoc::Vec(_), SimValue::F64(_))
            | (ParamLoc::VecBroadcast(_), SimValue::F64(_)) => {}
            (loc, arg) => {
                return Err(SimError::BadArgs(format!(
                    "argument {arg:?} incompatible with location {loc:?}"
                )))
            }
        }
    }
    if kernel.stack_slots > 0 {
        let id = st.lens.len();
        st.lens.push(kernel.stack_slots);
        st.stack_arr = Some(id);
        st.stack = vec![0f64.to_bits(); kernel.stack_slots];
        st.poison = vec![false; kernel.stack_slots];
        st.gp[7] = ((id as i64) + 1) << ARRAY_SHIFT; // %rsp
    }
    Ok(st)
}

/// Evaluates an affine sym against concrete entry state, in `i128` so
/// the iteration solve can detect overflow instead of mis-predicting a
/// wrapped comparison. Returns `(value, per-iteration delta)`.
fn eval_affine(sym: Sym, gp: &[i64; 16], sum: &BodySummary) -> (i128, i128) {
    match sym {
        Sym::Const(c) => (c as i128, 0),
        Sym::Entry(r, o) => {
            let base = gp[r as usize] as i128 + o as i128;
            // A const-effect register is already settled (the body just
            // ran), so its entry value never changes across iterations.
            let d = sum.deltas[r as usize].unwrap_or(0) as i128;
            (base, d)
        }
        Sym::Opaque => (0, 0), // unreachable: summaries reject opaque syms
    }
}

const I64_MIN: i128 = i64::MIN as i128;
const I64_MAX: i128 = i64::MAX as i128;

fn fits_i64(v: i128) -> bool {
    (I64_MIN..=I64_MAX).contains(&v)
}

/// Solves how many more body iterations run before the branch falls
/// through, given affine compare operands. Returns the total number of
/// upcoming iterations `j_exit >= 1` (iteration `j_exit` is the first
/// whose branch is not taken), or `None` when the loop provably never
/// exits, exits immediately in a way skipping cannot help, or the
/// operands would overflow `i64` on the way (fall back to stepping).
fn solve_exit(a1: i128, da: i128, b1: i128, db: i128, is_jl: bool) -> Option<i128> {
    let diff1 = a1 - b1;
    let dd = da - db;
    // taken(j): Jl => diff < 0; Jge => diff >= 0, with
    // diff(j) = diff1 + (j-1)*dd.
    let exits_at = |diff: i128| if is_jl { diff >= 0 } else { diff < 0 };
    if exits_at(diff1) {
        return Some(1);
    }
    if dd == 0 {
        return None; // never exits; let the budget handle it
    }
    let j_exit = if is_jl {
        if dd < 0 {
            return None; // diff only decreases: never exits
        }
        // smallest j with diff1 + (j-1)*dd >= 0; diff1 < 0 here.
        1 + (-diff1 + dd - 1) / dd
    } else {
        if dd > 0 {
            return None;
        }
        // smallest j with diff1 + (j-1)*dd < 0; diff1 >= 0, dd < 0.
        1 + diff1 / (-dd) + 1
    };
    // The concrete machine compares wrapped i64 values; the solve is
    // only valid if neither operand wraps before the exit.
    let last = j_exit - 1;
    for (v1, dv) in [(a1, da), (b1, db)] {
        if !fits_i64(v1 + dv * last) {
            return None;
        }
    }
    Some(j_exit)
}

/// Walks `prog` (decoded from `kernel`) on `args`, mirroring the
/// simulator's control flow and GP arithmetic. `budget` bounds the
/// *concretely executed* steps; closed-form skips do not consume it.
pub fn walk(
    prog: &DecodedProgram,
    kernel: &AsmKernel,
    args: &[SimValue],
    budget: u64,
) -> Result<WalkSummary, SimError> {
    let mut st = setup(kernel, args)?;
    let ops = &prog.ops[..];
    let n = ops.len();
    let mut counts = vec![0u64; n];
    let mut cur_run = vec![0u64; n];
    let mut max_run = vec![0u64; n];
    // Bodies of backward conditional branches, summarized once.
    let mut summaries: Vec<Option<BodySummary>> = vec![None; n];
    for (pc, op) in ops.iter().enumerate() {
        if let DecodedOp::Jl { target } | DecodedOp::Jge { target } = *op {
            let t = target as usize;
            if t < pc {
                summaries[pc] = summarize_body(ops, t, pc);
            }
        }
    }

    let mut pc = 0usize;
    let mut steps = 0u64;
    let mut spent = 0u64;
    let mut complete = true;
    'walk: while pc < n {
        if spent >= budget {
            complete = false;
            break;
        }
        spent += 1;
        steps += 1;
        let mut fault = false;
        let mut next_pc = pc + 1;
        match ops[pc] {
            DecodedOp::Nop
            | DecodedOp::FMov { .. }
            | DecodedOp::FZero { .. }
            | DecodedOp::FBin2 { .. }
            | DecodedOp::FBin3 { .. }
            | DecodedOp::FBin34 { .. }
            | DecodedOp::Fma3 { .. }
            | DecodedOp::Fma34 { .. }
            | DecodedOp::Fma4 { .. }
            | DecodedOp::Shuf2 { .. }
            | DecodedOp::Shuf3 { .. }
            | DecodedOp::SwapHalves { .. }
            | DecodedOp::Perm2f128 { .. }
            | DecodedOp::ExtractHi { .. }
            | DecodedOp::Prefetch { .. } => {}
            DecodedOp::FLoad {
                base, lanes, disp, ..
            } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                fault = resolve(&st.lens, addr, lanes as usize).is_none();
            }
            DecodedOp::FLoad4 { base, disp, .. } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                fault = resolve(&st.lens, addr, 4).is_none();
            }
            DecodedOp::FDup { base, disp, .. } | DecodedOp::FDup4 { base, disp, .. } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                fault = resolve(&st.lens, addr, 1).is_none();
            }
            DecodedOp::FStore { base, disp, .. }
            | DecodedOp::FStore2 { base, disp, .. }
            | DecodedOp::FStore4 { base, disp, .. } => {
                let elems = match ops[pc] {
                    DecodedOp::FStore4 { .. } => 4,
                    DecodedOp::FStore2 { .. } => 2,
                    _ => 1,
                };
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                match resolve(&st.lens, addr, elems) {
                    Some((arr, elem)) => {
                        if Some(arr) == st.stack_arr {
                            for p in &mut st.poison[elem..elem + elems] {
                                *p = true;
                            }
                        }
                    }
                    None => fault = true,
                }
            }
            DecodedOp::IMovImm { dst, imm } => st.gp[(dst & 15) as usize] = imm,
            DecodedOp::IMov { dst, src } => st.gp[(dst & 15) as usize] = st.gp[(src & 15) as usize],
            DecodedOp::IAddR { dst, src } => {
                let v = st.gp[(src & 15) as usize];
                let d = &mut st.gp[(dst & 15) as usize];
                *d = d.wrapping_add(v);
            }
            DecodedOp::IAddI { dst, imm } => {
                let d = &mut st.gp[(dst & 15) as usize];
                *d = d.wrapping_add(imm);
            }
            DecodedOp::ISubR { dst, src } => {
                let v = st.gp[(src & 15) as usize];
                let d = &mut st.gp[(dst & 15) as usize];
                *d = d.wrapping_sub(v);
            }
            DecodedOp::ISubI { dst, imm } => {
                let d = &mut st.gp[(dst & 15) as usize];
                *d = d.wrapping_sub(imm);
            }
            DecodedOp::IMulR { dst, src } => {
                let v = st.gp[(src & 15) as usize];
                let d = &mut st.gp[(dst & 15) as usize];
                *d = d.wrapping_mul(v);
            }
            DecodedOp::IMulI { dst, imm } => {
                let d = &mut st.gp[(dst & 15) as usize];
                *d = d.wrapping_mul(imm);
            }
            DecodedOp::Lea {
                dst,
                base,
                idx,
                scale,
                disp,
            } => {
                let mut v = st.gp[(base & 15) as usize].wrapping_add(disp);
                if idx != NO_IDX {
                    v = v.wrapping_add(st.gp[(idx & 15) as usize].wrapping_mul(scale as i64));
                }
                st.gp[(dst & 15) as usize] = v;
            }
            DecodedOp::ILoad { dst, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                match resolve(&st.lens, addr, 1) {
                    Some((arr, elem)) if Some(arr) == st.stack_arr => {
                        if st.poison[elem] {
                            // FP-written slot: bits unknown to the walk.
                            complete = false;
                            break 'walk;
                        }
                        st.gp[(dst & 15) as usize] = st.stack[elem] as i64;
                    }
                    Some(_) => {
                        // A GP load from user data: value untracked.
                        complete = false;
                        break 'walk;
                    }
                    None => fault = true,
                }
            }
            DecodedOp::IStore { src, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                match resolve(&st.lens, addr, 1) {
                    Some((arr, elem)) => {
                        if Some(arr) == st.stack_arr {
                            st.stack[elem] = st.gp[(src & 15) as usize] as u64;
                            st.poison[elem] = false;
                        }
                    }
                    None => fault = true,
                }
            }
            DecodedOp::CmpR { a, b } => {
                st.cmp = (st.gp[(a & 15) as usize], st.gp[(b & 15) as usize]);
            }
            DecodedOp::CmpI { a, imm } => {
                st.cmp = (st.gp[(a & 15) as usize], imm);
            }
            DecodedOp::Jl { target } | DecodedOp::Jge { target } => {
                let is_jl = matches!(ops[pc], DecodedOp::Jl { .. });
                let taken = if is_jl {
                    st.cmp.0 < st.cmp.1
                } else {
                    st.cmp.0 >= st.cmp.1
                };
                if taken {
                    cur_run[pc] += 1;
                    if max_run[pc] < cur_run[pc] {
                        max_run[pc] = cur_run[pc];
                    }
                    let t = target as usize;
                    // Accelerate only once a full straight-line body run
                    // precedes us (run >= 2), so const-effect registers
                    // are settled to their fixed values.
                    if cur_run[pc] >= 2 {
                        if let Some(sum) = &summaries[pc] {
                            if let Some(skip) = try_skip(sum, &mut st, is_jl) {
                                for c in &mut counts[t + 1..=pc] {
                                    *c += skip;
                                }
                                steps = steps.saturating_add(skip.saturating_mul(sum.body_len));
                                cur_run[pc] += skip;
                                if max_run[pc] < cur_run[pc] {
                                    max_run[pc] = cur_run[pc];
                                }
                            }
                        }
                    }
                    // Mirror exec: pc = target, then the shared +1 below
                    // (the target label pc itself is skipped).
                    next_pc = t + 1;
                } else {
                    cur_run[pc] = 0;
                }
            }
            DecodedOp::Jmp { target } => next_pc = target as usize + 1,
            DecodedOp::Ret => break,
        }
        if fault {
            // The simulator errors here without tracing this step.
            complete = false;
            break;
        }
        counts[pc] += 1;
        pc = next_pc;
    }
    Ok(WalkSummary {
        counts,
        steps,
        complete,
        max_runs: max_run,
    })
}

/// Attempts a closed-form skip at a just-taken backward branch. On
/// success, advances `st` past all but the last remaining iteration and
/// returns how many iterations were skipped (their counts and spill
/// poisons already applied). Returns `None` — leaving `st` untouched —
/// when the body's accesses cannot be proven safe or the exit cannot be
/// solved.
fn try_skip(sum: &BodySummary, st: &mut WalkState, is_jl: bool) -> Option<u64> {
    let (a1, da) = eval_affine(sum.cmp.0, &st.gp, sum);
    let (b1, db) = eval_affine(sum.cmp.1, &st.gp, sum);
    let j_exit = solve_exit(a1, da, b1, db, is_jl)?;
    let skip = j_exit - 1;
    if skip <= 0 {
        return None;
    }
    // Every skipped iteration's accesses must be provably legal: affine
    // addresses are monotone, so checking the first and last skipped
    // iteration covers the range.
    let mut poisons: Vec<(usize, usize)> = Vec::new();
    for m in &sum.mem_ops {
        let (addr1, dm) = eval_affine(m.addr, &st.gp, sum);
        let addr_last = addr1 + dm * (skip - 1);
        if !fits_i64(addr1) || !fits_i64(addr_last) || dm % 8 != 0 {
            return None;
        }
        let first = resolve(&st.lens, addr1 as i64, m.elems as usize)?;
        let last = resolve(&st.lens, addr_last as i64, m.elems as usize)?;
        if first.0 != last.0 {
            return None;
        }
        let on_stack = Some(first.0) == st.stack_arr;
        match m.kind {
            MemKind::Load => {}
            MemKind::FpStore => {
                if on_stack {
                    // Only a fixed slot is reproducible; poison it.
                    if dm != 0 {
                        return None;
                    }
                    poisons.push((first.1, m.elems as usize));
                }
            }
            MemKind::GpStore => {
                // A varying spill-slot store would leave intermediate
                // values the walk cannot reproduce. A fixed slot is
                // rewritten by the final concrete iteration.
                if on_stack && dm != 0 {
                    return None;
                }
            }
        }
    }
    let skip_u = u64::try_from(skip).ok()?;
    for (elem, elems) in poisons {
        for p in &mut st.poison[elem..elem + elems] {
            *p = true;
        }
    }
    // Apply the per-register affine effect of `skip` iterations; the
    // wrapping multiply is exact mod 2^64, matching concrete stepping.
    for r in 0..16 {
        if let Some(d) = sum.deltas[r] {
            st.gp[r] = st.gp[r].wrapping_add(d.wrapping_mul(skip_u as i64));
        } else if let Some(c) = sum.consts[r] {
            st.gp[r] = c;
        }
    }
    Some(skip_u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_asm::{GpOrImm, Mem, ParamLoc, Width, XInst};
    use augem_machine::{GpReg, IsaFeature, IsaSet, VecReg};
    use augem_sim::FuncSim;

    fn decode(kernel: &AsmKernel) -> DecodedProgram {
        augem_sim::decode(kernel, true).expect("decode")
    }

    /// Per-pc histogram of a real simulator trace.
    fn trace_histogram(kernel: &AsmKernel, args: Vec<SimValue>, pcs: usize) -> Vec<u64> {
        let sim = FuncSim::new(IsaSet::new(&[IsaFeature::Avx])).with_trace();
        let (_, trace) = sim.run(kernel, args).expect("sim run");
        let mut h = vec![0u64; pcs];
        for &i in &trace.inst_indices {
            h[i as usize] += 1;
        }
        h
    }

    /// A counted loop: sums x[0..n] into y[0] via an accumulator, with
    /// the canonical cmp/jl backedge.
    fn axpy_like(n: i64, stride_elems: i64) -> AsmKernel {
        let rx = GpReg(0);
        let ry = GpReg(1);
        let ri = GpReg(2);
        let rn = GpReg(3);
        let mut k = AsmKernel::new("walk_loop");
        k.params.push(("X".into(), ParamLoc::Gp(rx)));
        k.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k.params.push(("N".into(), ParamLoc::Gp(rn)));
        let _ = n;
        k.insts.push(XInst::IMovImm { dst: ri, imm: 0 });
        k.insts.push(XInst::FZero {
            dst: VecReg(0),
            w: Width::V2,
        });
        k.insts.push(XInst::Label("loop".into()));
        k.insts.push(XInst::FLoad {
            dst: VecReg(1),
            mem: Mem::new(rx, 0),
            w: Width::V2,
        });
        k.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V2,
        });
        k.insts.push(XInst::IAdd {
            dst: rx,
            src: GpOrImm::Imm(stride_elems * 8),
        });
        k.insts.push(XInst::IAdd {
            dst: ri,
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: ri,
            b: GpOrImm::Gp(rn),
        });
        k.insts.push(XInst::Jl("loop".into()));
        k.insts.push(XInst::FStore {
            src: VecReg(0),
            mem: Mem::new(ry, 0),
            w: Width::V2,
        });
        k.insts.push(XInst::Ret);
        k
    }

    fn axpy_args(n: i64, stride: i64) -> Vec<SimValue> {
        vec![
            SimValue::Array(vec![1.0; (n * stride + 2) as usize]),
            SimValue::Array(vec![0.0; 2]),
            SimValue::Int(n),
        ]
    }

    #[test]
    fn walk_matches_trace_histogram_on_simple_loop() {
        for n in [1i64, 2, 3, 17, 1000] {
            let k = axpy_like(n, 2);
            let prog = decode(&k);
            let w = walk(&prog, &k, &axpy_args(n, 2), 1_000_000).expect("walk");
            assert!(w.complete, "n={n}");
            let h = trace_histogram(&k, axpy_args(n, 2), prog.len());
            assert_eq!(w.counts, h, "n={n}");
            // Branch streak: the backedge is taken n-1 times in a row.
            let br = k
                .insts
                .iter()
                .position(|i| matches!(i, XInst::Jl(_)))
                .unwrap();
            assert_eq!(w.max_runs[br], (n - 1) as u64);
        }
    }

    #[test]
    fn acceleration_is_exact_and_cheap() {
        let n = 200_000i64;
        let k = axpy_like(n, 2);
        let prog = decode(&k);
        // A budget far below the dynamic step count: only acceleration
        // can cover the full run.
        let w = walk(&prog, &k, &axpy_args(n, 2), 10_000).expect("walk");
        assert!(w.complete, "acceleration must cover the loop");
        let h = trace_histogram(&k, axpy_args(n, 2), prog.len());
        assert_eq!(w.counts, h);
    }

    #[test]
    fn budget_exhaustion_yields_sound_prefix() {
        // Stride 3 per iteration defeats nothing in the walk itself, but
        // a tiny budget with acceleration disabled by a non-affine body
        // does: make the body non-affine via IMul by a register.
        let n = 5_000i64;
        let mut k = axpy_like(n, 2);
        // Replace the counter add with a multiply-by-register to defeat
        // the affine summary (IMulR on two entry values is opaque).
        let pos = k
            .insts
            .iter()
            .position(|i| {
                matches!(
                    i,
                    XInst::IAdd {
                        src: GpOrImm::Imm(1),
                        ..
                    }
                )
            })
            .unwrap();
        k.insts.insert(
            pos,
            XInst::IMul {
                dst: GpReg(4),
                src: GpOrImm::Gp(GpReg(4)),
            },
        );
        let prog = decode(&k);
        let w = walk(&prog, &k, &axpy_args(n, 2), 500).expect("walk");
        assert!(!w.complete);
        let h = trace_histogram(&k, axpy_args(n, 2), prog.len());
        for (pc, (&got, &real)) in w.counts.iter().zip(&h).enumerate() {
            assert!(got <= real, "pc {pc}: walk {got} > trace {real}");
        }
    }

    #[test]
    fn spill_slots_round_trip_and_fp_stores_poison() {
        let ry = GpReg(0);
        let mut k = AsmKernel::new("spill");
        k.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k.stack_slots = 2;
        let rsp = GpReg(7);
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 41,
        });
        k.insts.push(XInst::IStore {
            src: GpReg(2),
            mem: Mem::new(rsp, 0),
        });
        k.insts.push(XInst::ILoad {
            dst: GpReg(3),
            mem: Mem::new(rsp, 0),
        });
        k.insts.push(XInst::Ret);
        let prog = decode(&k);
        let args = vec![SimValue::Array(vec![0.0; 2])];
        let w = walk(&prog, &k, &args, 1000).expect("walk");
        assert!(w.complete);
        assert_eq!(w.counts[..3], [1, 1, 1]);

        // An FP store to the slot poisons it; a GP load then bails.
        let mut k2 = AsmKernel::new("spill_poison");
        k2.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k2.stack_slots = 2;
        k2.insts.push(XInst::FZero {
            dst: VecReg(0),
            w: Width::V2,
        });
        k2.insts.push(XInst::FStore {
            src: VecReg(0),
            mem: Mem::new(rsp, 0),
            w: Width::S,
        });
        k2.insts.push(XInst::ILoad {
            dst: GpReg(3),
            mem: Mem::new(rsp, 0),
        });
        k2.insts.push(XInst::Ret);
        let prog2 = decode(&k2);
        let args2 = vec![SimValue::Array(vec![0.0; 2])];
        let w2 = walk(&prog2, &k2, &args2, 1000).expect("walk");
        assert!(!w2.complete, "poisoned slot read must bail");
        assert_eq!(w2.counts[..3], [1, 1, 0], "the bailing load is uncounted");
    }

    #[test]
    fn nested_loops_match_trace() {
        // Outer loop over rows, inner accelerable loop over columns.
        let rx = GpReg(0);
        let ri = GpReg(2);
        let rj = GpReg(3);
        let rn = GpReg(4);
        let mut k = AsmKernel::new("nested");
        k.params.push(("X".into(), ParamLoc::Gp(rx)));
        k.params.push(("N".into(), ParamLoc::Gp(rn)));
        k.insts.push(XInst::IMovImm { dst: ri, imm: 0 });
        k.insts.push(XInst::Label("outer".into()));
        k.insts.push(XInst::IMovImm { dst: rj, imm: 0 });
        k.insts.push(XInst::Label("inner".into()));
        k.insts.push(XInst::FLoad {
            dst: VecReg(1),
            mem: Mem::new(rx, 0),
            w: Width::S,
        });
        k.insts.push(XInst::IAdd {
            dst: rj,
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: rj,
            b: GpOrImm::Gp(rn),
        });
        k.insts.push(XInst::Jl("inner".into()));
        k.insts.push(XInst::IAdd {
            dst: ri,
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: ri,
            b: GpOrImm::Imm(7),
        });
        k.insts.push(XInst::Jl("outer".into()));
        k.insts.push(XInst::Ret);
        let prog = decode(&k);
        let args = || vec![SimValue::Array(vec![1.0; 4]), SimValue::Int(900)];
        let w = walk(&prog, &k, &args(), 100_000).expect("walk");
        assert!(w.complete);
        let h = trace_histogram(&k, args(), prog.len());
        assert_eq!(w.counts, h);
        // Inner streaks never merge across outer iterations: max run is
        // n-1 takens, not 7*(n-1).
        let inner_br = 7;
        assert_eq!(w.max_runs[inner_br], 899);
    }
}
