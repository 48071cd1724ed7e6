//! Pre-decoded execution engine.
//!
//! [`decode`] lowers a kernel's `Vec<XInst>` once into a dense,
//! string-free [`DecodedProgram`]: labels are resolved to pc indices at
//! decode time (so [`SimError::UndefinedLabel`] is impossible during
//! execution), operand registers shrink to masked `u8` indices (the
//! `& 15` lets the compiler elide bounds checks on the `[_; 16]`
//! register files), widths collapse to lane counts, and the VEX vs
//! legacy-SSE upper-lane rules are baked into per-op flags. The result
//! is a table of small `Copy` ops driven by a tight dispatch loop —
//! no per-step `HashMap` lookups, `String` clones, or heap traffic.
//!
//! The decoded table stays 1:1 index-aligned with `kernel.insts`
//! (labels and comments decode to [`DecodedOp::Nop`]), so pc values,
//! step counts, `StepLimit` behavior and recorded [`Trace`] contents
//! are bit-for-bit identical to the legacy interpreter's by
//! construction. `tests/sim_decoded_differential.rs` proves it.
//!
//! The loop hands every executed step to one `StepSink`: nothing for
//! the untraced run, a [`Trace`] to record it, or the timing model's
//! scoreboard to time it as it happens.

use crate::func::{MemAccess, SimError, State, Trace};
use augem_asm::{AsmKernel, GpOrImm, Width, XInst};

const ARRAY_SHIFT: u32 = 40;

/// Which two-address / three-address FP ALU operation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpOp {
    Mul,
    Add,
}

/// One decoded instruction. All register fields are pre-masked to
/// `0..16`; branch targets are instruction indices; `lanes` is the
/// operand width in f64 lanes (1, 2 or 4); `zhi` carries the baked-in
/// VEX rule "zero lanes 2..4 of the destination".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodedOp {
    /// Labels and comments: architecturally inert, but still one
    /// executed step (and one trace entry), exactly like the legacy
    /// interpreter.
    Nop,
    /// Narrow load (1 or 2 lanes). Full-width loads decode to the
    /// specialized [`DecodedOp::FLoad4`] so the copy length is a
    /// compile-time constant in the dispatch loop.
    FLoad {
        dst: u8,
        base: u8,
        lanes: u8,
        zhi: bool,
        disp: i64,
    },
    /// 256-bit load: width baked into the opcode (no per-step lane
    /// dispatch, no variable-length `memcpy`).
    FLoad4 {
        dst: u8,
        base: u8,
        disp: i64,
    },
    /// Scalar store (1 lane).
    FStore {
        src: u8,
        base: u8,
        disp: i64,
    },
    /// 128-bit store.
    FStore2 {
        src: u8,
        base: u8,
        disp: i64,
    },
    /// 256-bit store.
    FStore4 {
        src: u8,
        base: u8,
        disp: i64,
    },
    /// Narrow broadcast (fills 2 lanes). The 4-lane broadcast decodes
    /// to [`DecodedOp::FDup4`].
    FDup {
        dst: u8,
        base: u8,
        zhi: bool,
        disp: i64,
    },
    /// 4-lane broadcast.
    FDup4 {
        dst: u8,
        base: u8,
        disp: i64,
    },
    FMov {
        dst: u8,
        src: u8,
        full: bool,
        zhi: bool,
    },
    FZero {
        dst: u8,
    },
    FBin2 {
        op: FpOp,
        dstsrc: u8,
        src: u8,
        lanes: u8,
    },
    /// Narrow three-address FP ALU op (1 or 2 lanes); the 4-lane form
    /// decodes to [`DecodedOp::FBin34`].
    FBin3 {
        op: FpOp,
        dst: u8,
        a: u8,
        b: u8,
        lanes: u8,
    },
    /// Full-width (4-lane) three-address FP ALU op.
    FBin34 {
        op: FpOp,
        dst: u8,
        a: u8,
        b: u8,
    },
    /// Narrow fused multiply-add (1 or 2 lanes); the 4-lane form
    /// decodes to [`DecodedOp::Fma34`].
    Fma3 {
        acc: u8,
        a: u8,
        b: u8,
        lanes: u8,
    },
    /// Full-width (4-lane) fused multiply-add.
    Fma34 {
        acc: u8,
        a: u8,
        b: u8,
    },
    Fma4 {
        dst: u8,
        a: u8,
        b: u8,
        c: u8,
        lanes: u8,
    },
    Shuf2 {
        dstsrc: u8,
        src: u8,
        imm: u8,
    },
    Shuf3 {
        dst: u8,
        a: u8,
        b: u8,
        imm: u8,
        wide: bool,
    },
    SwapHalves {
        dst: u8,
        src: u8,
    },
    Perm2f128 {
        dst: u8,
        a: u8,
        b: u8,
        imm: u8,
    },
    ExtractHi {
        dst: u8,
        src: u8,
    },
    IMovImm {
        dst: u8,
        imm: i64,
    },
    IMov {
        dst: u8,
        src: u8,
    },
    IAddR {
        dst: u8,
        src: u8,
    },
    IAddI {
        dst: u8,
        imm: i64,
    },
    ISubR {
        dst: u8,
        src: u8,
    },
    ISubI {
        dst: u8,
        imm: i64,
    },
    IMulR {
        dst: u8,
        src: u8,
    },
    IMulI {
        dst: u8,
        imm: i64,
    },
    Lea {
        dst: u8,
        base: u8,
        /// Index register, or `NO_IDX` when absent.
        idx: u8,
        scale: u8,
        disp: i64,
    },
    ILoad {
        dst: u8,
        base: u8,
        disp: i64,
    },
    IStore {
        src: u8,
        base: u8,
        disp: i64,
    },
    CmpR {
        a: u8,
        b: u8,
    },
    CmpI {
        a: u8,
        imm: i64,
    },
    Jl {
        target: u32,
    },
    Jge {
        target: u32,
    },
    Jmp {
        target: u32,
    },
    Ret,
    Prefetch {
        base: u8,
        write: bool,
        disp: i64,
    },
}

/// Sentinel for [`DecodedOp::Lea`]'s absent index register.
pub const NO_IDX: u8 = 0xFF;

/// A kernel lowered by [`decode`]: one [`DecodedOp`] per source
/// instruction, same indices.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub ops: Vec<DecodedOp>,
    /// The VEX flag the program was decoded under (AVX present).
    pub vex: bool,
}

impl DecodedProgram {
    pub fn len(&self) -> usize {
        self.ops.len()
    }
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Lowers `kernel.insts` for execution under `vex` upper-lane rules.
/// The only possible failure is a branch to an undefined label — the
/// one error class the legacy interpreter could raise mid-run.
pub fn decode(kernel: &AsmKernel, vex: bool) -> Result<DecodedProgram, SimError> {
    let insts = &kernel.insts;
    // Resolve every label once.
    let mut labels: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    for (i, inst) in insts.iter().enumerate() {
        if let XInst::Label(l) = inst {
            labels.insert(l.as_str(), i as u32);
        }
    }
    let target = |l: &str| -> Result<u32, SimError> {
        labels
            .get(l)
            .copied()
            .ok_or_else(|| SimError::UndefinedLabel(l.to_string()))
    };

    let mut ops = Vec::with_capacity(insts.len());
    for inst in insts {
        let op = match inst {
            XInst::FLoad { dst, mem, w } => match w {
                Width::V4 => DecodedOp::FLoad4 {
                    dst: dst.0 & 15,
                    base: mem.base.0 & 15,
                    disp: mem.disp,
                },
                _ => DecodedOp::FLoad {
                    dst: dst.0 & 15,
                    base: mem.base.0 & 15,
                    lanes: w.lanes() as u8,
                    zhi: vex,
                    disp: mem.disp,
                },
            },
            XInst::FStore { src, mem, w } => match w {
                Width::V4 => DecodedOp::FStore4 {
                    src: src.0 & 15,
                    base: mem.base.0 & 15,
                    disp: mem.disp,
                },
                Width::V2 => DecodedOp::FStore2 {
                    src: src.0 & 15,
                    base: mem.base.0 & 15,
                    disp: mem.disp,
                },
                Width::S => DecodedOp::FStore {
                    src: src.0 & 15,
                    base: mem.base.0 & 15,
                    disp: mem.disp,
                },
            },
            XInst::FDup { dst, mem, w } => match w {
                Width::V4 => DecodedOp::FDup4 {
                    dst: dst.0 & 15,
                    base: mem.base.0 & 15,
                    disp: mem.disp,
                },
                _ => DecodedOp::FDup {
                    dst: dst.0 & 15,
                    base: mem.base.0 & 15,
                    zhi: vex,
                    disp: mem.disp,
                },
            },
            XInst::FMov { dst, src, w } => DecodedOp::FMov {
                dst: dst.0 & 15,
                src: src.0 & 15,
                full: matches!(w, Width::V4),
                zhi: vex && !matches!(w, Width::V4),
            },
            XInst::FZero { dst, .. } => DecodedOp::FZero { dst: dst.0 & 15 },
            XInst::FMul2 { dstsrc, src, w } => DecodedOp::FBin2 {
                op: FpOp::Mul,
                dstsrc: dstsrc.0 & 15,
                src: src.0 & 15,
                lanes: w.lanes() as u8,
            },
            XInst::FAdd2 { dstsrc, src, w } => DecodedOp::FBin2 {
                op: FpOp::Add,
                dstsrc: dstsrc.0 & 15,
                src: src.0 & 15,
                lanes: w.lanes() as u8,
            },
            XInst::FMul3 { dst, a, b, w } => match w {
                Width::V4 => DecodedOp::FBin34 {
                    op: FpOp::Mul,
                    dst: dst.0 & 15,
                    a: a.0 & 15,
                    b: b.0 & 15,
                },
                _ => DecodedOp::FBin3 {
                    op: FpOp::Mul,
                    dst: dst.0 & 15,
                    a: a.0 & 15,
                    b: b.0 & 15,
                    lanes: w.lanes() as u8,
                },
            },
            XInst::FAdd3 { dst, a, b, w } => match w {
                Width::V4 => DecodedOp::FBin34 {
                    op: FpOp::Add,
                    dst: dst.0 & 15,
                    a: a.0 & 15,
                    b: b.0 & 15,
                },
                _ => DecodedOp::FBin3 {
                    op: FpOp::Add,
                    dst: dst.0 & 15,
                    a: a.0 & 15,
                    b: b.0 & 15,
                    lanes: w.lanes() as u8,
                },
            },
            XInst::Fma3 { acc, a, b, w } => match w {
                Width::V4 => DecodedOp::Fma34 {
                    acc: acc.0 & 15,
                    a: a.0 & 15,
                    b: b.0 & 15,
                },
                _ => DecodedOp::Fma3 {
                    acc: acc.0 & 15,
                    a: a.0 & 15,
                    b: b.0 & 15,
                    lanes: w.lanes() as u8,
                },
            },
            XInst::Fma4 { dst, a, b, c, w } => DecodedOp::Fma4 {
                dst: dst.0 & 15,
                a: a.0 & 15,
                b: b.0 & 15,
                c: c.0 & 15,
                lanes: w.lanes() as u8,
            },
            XInst::Shuf2 {
                dstsrc, src, imm, ..
            } => DecodedOp::Shuf2 {
                dstsrc: dstsrc.0 & 15,
                src: src.0 & 15,
                imm: *imm,
            },
            XInst::Shuf3 { dst, a, b, imm, w } => DecodedOp::Shuf3 {
                dst: dst.0 & 15,
                a: a.0 & 15,
                b: b.0 & 15,
                imm: *imm,
                wide: matches!(w, Width::V4),
            },
            XInst::SwapHalves { dst, src } => DecodedOp::SwapHalves {
                dst: dst.0 & 15,
                src: src.0 & 15,
            },
            XInst::Perm2f128 { dst, a, b, imm } => DecodedOp::Perm2f128 {
                dst: dst.0 & 15,
                a: a.0 & 15,
                b: b.0 & 15,
                imm: *imm,
            },
            XInst::ExtractHi { dst, src } => DecodedOp::ExtractHi {
                dst: dst.0 & 15,
                src: src.0 & 15,
            },
            XInst::IMovImm { dst, imm } => DecodedOp::IMovImm {
                dst: dst.0 & 15,
                imm: *imm,
            },
            XInst::IMov { dst, src } => DecodedOp::IMov {
                dst: dst.0 & 15,
                src: src.0 & 15,
            },
            XInst::IAdd { dst, src } => match src {
                GpOrImm::Gp(r) => DecodedOp::IAddR {
                    dst: dst.0 & 15,
                    src: r.0 & 15,
                },
                GpOrImm::Imm(i) => DecodedOp::IAddI {
                    dst: dst.0 & 15,
                    imm: *i,
                },
            },
            XInst::ISub { dst, src } => match src {
                GpOrImm::Gp(r) => DecodedOp::ISubR {
                    dst: dst.0 & 15,
                    src: r.0 & 15,
                },
                GpOrImm::Imm(i) => DecodedOp::ISubI {
                    dst: dst.0 & 15,
                    imm: *i,
                },
            },
            XInst::IMul { dst, src } => match src {
                GpOrImm::Gp(r) => DecodedOp::IMulR {
                    dst: dst.0 & 15,
                    src: r.0 & 15,
                },
                GpOrImm::Imm(i) => DecodedOp::IMulI {
                    dst: dst.0 & 15,
                    imm: *i,
                },
            },
            XInst::Lea {
                dst,
                base,
                idx,
                disp,
            } => {
                let (ir, sc) = match idx {
                    Some((r, s)) => (r.0 & 15, *s),
                    None => (NO_IDX, 0),
                };
                DecodedOp::Lea {
                    dst: dst.0 & 15,
                    base: base.0 & 15,
                    idx: ir,
                    scale: sc,
                    disp: *disp,
                }
            }
            XInst::ILoad { dst, mem } => DecodedOp::ILoad {
                dst: dst.0 & 15,
                base: mem.base.0 & 15,
                disp: mem.disp,
            },
            XInst::IStore { src, mem } => DecodedOp::IStore {
                src: src.0 & 15,
                base: mem.base.0 & 15,
                disp: mem.disp,
            },
            XInst::Cmp { a, b } => match b {
                GpOrImm::Gp(r) => DecodedOp::CmpR {
                    a: a.0 & 15,
                    b: r.0 & 15,
                },
                GpOrImm::Imm(i) => DecodedOp::CmpI {
                    a: a.0 & 15,
                    imm: *i,
                },
            },
            XInst::Jl(l) => DecodedOp::Jl { target: target(l)? },
            XInst::Jge(l) => DecodedOp::Jge { target: target(l)? },
            XInst::Jmp(l) => DecodedOp::Jmp { target: target(l)? },
            XInst::Ret => DecodedOp::Ret,
            XInst::Prefetch { mem, write, .. } => DecodedOp::Prefetch {
                base: mem.base.0 & 15,
                write: *write,
                disp: mem.disp,
            },
            XInst::Label(_) | XInst::Comment(_) => DecodedOp::Nop,
        };
        ops.push(op);
    }
    Ok(DecodedProgram { ops, vex })
}

/// Hot-loop memory fault, kept `String`-free; formatted into a
/// [`SimError`] once, at the boundary.
#[derive(Clone, Copy)]
enum Fault {
    NoArray {
        addr: i64,
        arr: i64,
    },
    Range {
        addr: i64,
        arr: i64,
        elem: usize,
        end: usize,
        len: usize,
    },
    Misaligned(i64),
}

impl Fault {
    fn into_error(self) -> SimError {
        match self {
            Fault::NoArray { addr, arr } => SimError::OutOfBounds {
                addr,
                detail: format!("no array for address (arr index {arr})"),
            },
            Fault::Range {
                addr,
                arr,
                elem,
                end,
                len,
            } => SimError::OutOfBounds {
                addr,
                detail: format!("elements {elem}..{end} of array {arr} (len {len})"),
            },
            Fault::Misaligned(a) => SimError::Misaligned(a),
        }
    }
}

#[inline(always)]
fn resolve(arrays: &[Vec<f64>], addr: i64, elems: usize) -> Result<(usize, usize), Fault> {
    // `(addr >> 40) - 1 < 0` and `>= len` collapse into one unsigned
    // compare; the error arms recompute the signed index for the
    // message. Alignment only looks at the low 3 bits, so testing
    // `addr` directly is equivalent to testing the in-array offset.
    let arr = ((addr >> ARRAY_SHIFT) as u64).wrapping_sub(1) as usize;
    if arr >= arrays.len() {
        return Err(Fault::NoArray {
            addr,
            arr: (addr >> ARRAY_SHIFT) - 1,
        });
    }
    if addr & 7 != 0 {
        return Err(Fault::Misaligned(addr));
    }
    let elem = ((addr & ((1i64 << ARRAY_SHIFT) - 1)) >> 3) as usize;
    let len = arrays[arr].len();
    if elem + elems > len {
        return Err(Fault::Range {
            addr,
            arr: arr as i64,
            elem,
            end: elem + elems,
            len,
        });
    }
    Ok((arr, elem))
}

/// Consumer of the decoded engine's executed steps: one call per
/// executed instruction, in execution order, with the memory access it
/// performed. [`Trace`] records the steps; the timing model's
/// scoreboard consumes them as they happen, so a timed run never
/// materializes a trace.
pub(crate) trait StepSink {
    /// Whether the engine must compute each step's [`MemAccess`]. A
    /// sink that ignores them lets the loop skip that bookkeeping.
    const ACCESSES: bool = true;
    fn step(&mut self, pc: u32, access: Option<MemAccess>);
}

/// The untraced run: no per-step work at all.
impl StepSink for () {
    const ACCESSES: bool = false;
    #[inline(always)]
    fn step(&mut self, _pc: u32, _access: Option<MemAccess>) {}
}

impl StepSink for Trace {
    #[inline(always)]
    fn step(&mut self, pc: u32, access: Option<MemAccess>) {
        self.inst_indices.push(pc);
        self.accesses.push(access);
    }
}

/// Executes a decoded program against prepared [`State`], feeding every
/// executed step to `sink`. Semantics — step counting, recorded steps,
/// error variants — match the legacy interpreter loop exactly.
///
/// Monomorphized per sink, so the untraced path (`()`) carries no
/// per-step bookkeeping at all.
pub(crate) fn exec<S: StepSink>(
    prog: &DecodedProgram,
    st: &mut State,
    step_limit: u64,
    sink: &mut S,
) -> Result<(), SimError> {
    let ops = &prog.ops[..];
    let n = ops.len();
    let mut pc = 0usize;
    // Count down so the per-step budget check is a single decrement
    // and zero test; `remaining` hits 0 on step `step_limit + 1`,
    // matching the legacy loop's `steps > step_limit` exactly.
    let mut remaining = step_limit.saturating_add(1);
    while pc < n {
        remaining -= 1;
        if remaining == 0 {
            return Err(SimError::StepLimit(step_limit));
        }
        let cur = pc;
        let mut access: Option<MemAccess> = None;
        match ops[pc] {
            DecodedOp::Nop => {}
            DecodedOp::FLoad {
                dst,
                base,
                lanes,
                zhi,
                disp,
            } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let lanes = lanes as usize;
                let (arr, elem) = resolve(&st.arrays, addr, lanes).map_err(|f| f.into_error())?;
                let src = &st.arrays[arr][elem..elem + lanes];
                let d = &mut st.vec[(dst & 15) as usize];
                if lanes == 1 {
                    d[0] = src[0];
                    d[1] = 0.0;
                } else {
                    d[0] = src[0];
                    d[1] = src[1];
                }
                if zhi {
                    d[2] = 0.0;
                    d[3] = 0.0;
                }
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: (lanes * 8) as u8,
                        write: false,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::FLoad4 { dst, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let (arr, elem) = resolve(&st.arrays, addr, 4).map_err(|f| f.into_error())?;
                let src = &st.arrays[arr][elem..elem + 4];
                let d = &mut st.vec[(dst & 15) as usize];
                *d = [src[0], src[1], src[2], src[3]];
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 32,
                        write: false,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::FStore { src, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let (arr, elem) = resolve(&st.arrays, addr, 1).map_err(|f| f.into_error())?;
                st.arrays[arr][elem] = st.vec[(src & 15) as usize][0];
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 8,
                        write: true,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::FStore2 { src, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let (arr, elem) = resolve(&st.arrays, addr, 2).map_err(|f| f.into_error())?;
                let s = st.vec[(src & 15) as usize];
                let d = &mut st.arrays[arr][elem..elem + 2];
                d[0] = s[0];
                d[1] = s[1];
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 16,
                        write: true,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::FStore4 { src, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let (arr, elem) = resolve(&st.arrays, addr, 4).map_err(|f| f.into_error())?;
                let s = st.vec[(src & 15) as usize];
                let d = &mut st.arrays[arr][elem..elem + 4];
                d[0] = s[0];
                d[1] = s[1];
                d[2] = s[2];
                d[3] = s[3];
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 32,
                        write: true,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::FDup {
                dst,
                base,
                zhi,
                disp,
            } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let (arr, elem) = resolve(&st.arrays, addr, 1).map_err(|f| f.into_error())?;
                let v = st.arrays[arr][elem];
                let d = &mut st.vec[(dst & 15) as usize];
                d[0] = v;
                d[1] = v;
                if zhi {
                    d[2] = 0.0;
                    d[3] = 0.0;
                }
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 8,
                        write: false,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::FDup4 { dst, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let (arr, elem) = resolve(&st.arrays, addr, 1).map_err(|f| f.into_error())?;
                let v = st.arrays[arr][elem];
                st.vec[(dst & 15) as usize] = [v; 4];
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 8,
                        write: false,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::FMov {
                dst,
                src,
                full,
                zhi,
            } => {
                let s = st.vec[(src & 15) as usize];
                let d = &mut st.vec[(dst & 15) as usize];
                if full {
                    *d = s;
                } else {
                    d[0] = s[0];
                    d[1] = s[1];
                    if zhi {
                        d[2] = 0.0;
                        d[3] = 0.0;
                    }
                }
            }
            DecodedOp::FZero { dst } => st.vec[(dst & 15) as usize] = [0.0; 4],
            DecodedOp::FBin2 {
                op,
                dstsrc,
                src,
                lanes,
            } => {
                let s = st.vec[(src & 15) as usize];
                let d = &mut st.vec[(dstsrc & 15) as usize];
                // Legacy SSE: untouched lanes preserved.
                match op {
                    FpOp::Mul => {
                        for l in 0..lanes as usize {
                            d[l] *= s[l];
                        }
                    }
                    FpOp::Add => {
                        for l in 0..lanes as usize {
                            d[l] += s[l];
                        }
                    }
                }
            }
            DecodedOp::FBin3 {
                op,
                dst,
                a,
                b,
                lanes,
            } => {
                let va = st.vec[(a & 15) as usize];
                let vb = st.vec[(b & 15) as usize];
                let d = &mut st.vec[(dst & 15) as usize];
                let f = |x: f64, y: f64| match op {
                    FpOp::Mul => x * y,
                    FpOp::Add => x + y,
                };
                if lanes == 1 {
                    d[0] = f(va[0], vb[0]);
                    d[1] = va[1];
                } else {
                    d[0] = f(va[0], vb[0]);
                    d[1] = f(va[1], vb[1]);
                }
                d[2] = 0.0;
                d[3] = 0.0;
            }
            DecodedOp::FBin34 { op, dst, a, b } => {
                let va = st.vec[(a & 15) as usize];
                let vb = st.vec[(b & 15) as usize];
                let d = &mut st.vec[(dst & 15) as usize];
                match op {
                    FpOp::Mul => {
                        for l in 0..4 {
                            d[l] = va[l] * vb[l];
                        }
                    }
                    FpOp::Add => {
                        for l in 0..4 {
                            d[l] = va[l] + vb[l];
                        }
                    }
                }
            }
            DecodedOp::Fma3 { acc, a, b, lanes } => {
                let va = st.vec[(a & 15) as usize];
                let vb = st.vec[(b & 15) as usize];
                let d = &mut st.vec[(acc & 15) as usize];
                if lanes == 1 {
                    d[0] += va[0] * vb[0];
                    // DEST[127:64] unchanged; VEX zeroes 255:128.
                } else {
                    d[0] += va[0] * vb[0];
                    d[1] += va[1] * vb[1];
                }
                d[2] = 0.0;
                d[3] = 0.0;
            }
            DecodedOp::Fma34 { acc, a, b } => {
                let va = st.vec[(a & 15) as usize];
                let vb = st.vec[(b & 15) as usize];
                let d = &mut st.vec[(acc & 15) as usize];
                for l in 0..4 {
                    d[l] += va[l] * vb[l];
                }
            }
            DecodedOp::Fma4 {
                dst,
                a,
                b,
                c,
                lanes,
            } => {
                let va = st.vec[(a & 15) as usize];
                let vb = st.vec[(b & 15) as usize];
                let vc = st.vec[(c & 15) as usize];
                let d = &mut st.vec[(dst & 15) as usize];
                match lanes {
                    1 => {
                        d[0] = va[0] * vb[0] + vc[0];
                        d[1] = va[1];
                        d[2] = 0.0;
                        d[3] = 0.0;
                    }
                    2 => {
                        d[0] = va[0] * vb[0] + vc[0];
                        d[1] = va[1] * vb[1] + vc[1];
                        d[2] = 0.0;
                        d[3] = 0.0;
                    }
                    _ => {
                        for l in 0..4 {
                            d[l] = va[l] * vb[l] + vc[l];
                        }
                    }
                }
            }
            DecodedOp::Shuf2 { dstsrc, src, imm } => {
                // shufpd: dst[0] = dst[imm&1]; dst[1] = src[(imm>>1)&1].
                let s = st.vec[(src & 15) as usize];
                let d = &mut st.vec[(dstsrc & 15) as usize];
                let new0 = d[(imm & 1) as usize];
                let new1 = s[((imm >> 1) & 1) as usize];
                d[0] = new0;
                d[1] = new1;
                // legacy SSE: upper lanes preserved
            }
            DecodedOp::Shuf3 {
                dst,
                a,
                b,
                imm,
                wide,
            } => {
                let va = st.vec[(a & 15) as usize];
                let vb = st.vec[(b & 15) as usize];
                let d = &mut st.vec[(dst & 15) as usize];
                if wide {
                    let mut out = [0.0; 4];
                    for half in 0..2 {
                        let base = half * 2;
                        out[base] = va[base + ((imm >> (2 * half)) & 1) as usize];
                        out[base + 1] = vb[base + ((imm >> (2 * half + 1)) & 1) as usize];
                    }
                    *d = out;
                } else {
                    d[0] = va[(imm & 1) as usize];
                    d[1] = vb[((imm >> 1) & 1) as usize];
                    d[2] = 0.0;
                    d[3] = 0.0;
                }
            }
            DecodedOp::SwapHalves { dst, src } => {
                let s = st.vec[(src & 15) as usize];
                st.vec[(dst & 15) as usize] = [s[2], s[3], s[0], s[1]];
            }
            DecodedOp::Perm2f128 { dst, a, b, imm } => {
                let va = st.vec[(a & 15) as usize];
                let vb = st.vec[(b & 15) as usize];
                let pick = |sel: u8| -> [f64; 2] {
                    let src = if sel & 2 == 0 { va } else { vb };
                    if sel & 1 == 0 {
                        [src[0], src[1]]
                    } else {
                        [src[2], src[3]]
                    }
                };
                let lo = pick(imm & 0x3);
                let hi = pick((imm >> 4) & 0x3);
                st.vec[(dst & 15) as usize] = [lo[0], lo[1], hi[0], hi[1]];
            }
            DecodedOp::ExtractHi { dst, src } => {
                let s = st.vec[(src & 15) as usize];
                st.vec[(dst & 15) as usize] = [s[2], s[3], 0.0, 0.0];
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
                let (arr, elem) = resolve(&st.arrays, addr, 1).map_err(|f| f.into_error())?;
                st.gp[(dst & 15) as usize] = st.arrays[arr][elem].to_bits() as i64;
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 8,
                        write: false,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::IStore { src, base, disp } => {
                let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                let v = f64::from_bits(st.gp[(src & 15) as usize] as u64);
                let (arr, elem) = resolve(&st.arrays, addr, 1).map_err(|f| f.into_error())?;
                st.arrays[arr][elem] = v;
                if S::ACCESSES {
                    access = Some(MemAccess {
                        addr,
                        bytes: 8,
                        write: true,
                        prefetch: false,
                    });
                }
            }
            DecodedOp::CmpR { a, b } => {
                st.cmp = (st.gp[(a & 15) as usize], st.gp[(b & 15) as usize]);
            }
            DecodedOp::CmpI { a, imm } => {
                st.cmp = (st.gp[(a & 15) as usize], imm);
            }
            DecodedOp::Jl { target } => {
                if st.cmp.0 < st.cmp.1 {
                    pc = target as usize;
                }
            }
            DecodedOp::Jge { target } => {
                if st.cmp.0 >= st.cmp.1 {
                    pc = target as usize;
                }
            }
            DecodedOp::Jmp { target } => pc = target as usize,
            DecodedOp::Ret => break,
            DecodedOp::Prefetch { base, write, disp } => {
                // No architectural effect; recorded for the cache model.
                if S::ACCESSES {
                    let addr = st.gp[(base & 15) as usize].wrapping_add(disp);
                    access = Some(MemAccess {
                        addr,
                        bytes: 64,
                        write,
                        prefetch: true,
                    });
                }
            }
        }
        sink.step(cur as u32, access);
        pc += 1;
    }
    Ok(())
}
