//! Closed-form cycle lower bounds over a reconstructed trace.
//!
//! Each bound is provably `<=` the timing simulator's reported cycle
//! count for the same run, by construction against the scoreboard
//! semantics in `augem_sim::timing`:
//!
//! * **Front-end bound** — the simulator fetches at most `issue_width`
//!   instructions per cycle, so the `N`-th dynamic instruction issues no
//!   earlier than cycle `(N-1)/issue_width` and (with latency >= 1)
//!   completes no earlier than `(N-1)/issue_width + 1`.
//!
//! * **Port bound** — every micro-op occupies exactly one `(port,
//!   cycle)` slot, and each micro-op is restricted to its class's port
//!   set. For any subset `S` of ports, the micro-ops that can *only*
//!   issue inside `S` need at least `ceil(U_S / |S|)` distinct cycles;
//!   the last of them completes no earlier than that (its occupancy
//!   slot's cycle plus latency >= 1 exceeds the slot index of every
//!   earlier slot in the densest packing).
//!
//! * **Memory-port bound** — the port bound restricted to memory-class
//!   micro-ops (loads, stores, broadcasts, prefetches). Always `<=` the
//!   full port bound; reported separately as a diagnostic for
//!   memory-saturated kernels. Note a DRAM *bandwidth* term would be
//!   unsound here: the cache model is latency-only, so a simulated run
//!   can sustain arbitrary bandwidth.
//!
//! * **Dependency bound** — for a backward conditional branch whose
//!   body is straight-line, a streak of `R` consecutive taken
//!   executions implies `R` complete body executions follow one
//!   another. A register carried around the body with per-iteration
//!   chain latency `delta` forces execution `i+1`'s chain to start no
//!   earlier than execution `i`'s chain result, giving
//!   `(R-1)*delta + 1` cycles end to end (the final `+1` because the
//!   first chain link itself completes no earlier than cycle 1). Load
//!   and broadcast links are weighted with the L1 latency — the
//!   *minimum* the cache model can return — keeping the chain sound
//!   whatever the hit pattern.

use augem_asm::{AsmKernel, XInst};
use augem_machine::{InstClass, MachineSpec, TimingModel};
use std::collections::HashMap;

/// The dependency bound contribution of one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBound {
    /// pc of the backward conditional branch.
    pub branch_pc: usize,
    /// pc of the loop-top label the branch targets.
    pub target_pc: usize,
    /// Longest streak of consecutive taken executions (= guaranteed
    /// back-to-back full body executions).
    pub body_execs: u64,
    /// Longest carried-dependence chain latency of one body execution,
    /// in cycles.
    pub chain_latency: u64,
    /// `(body_execs - 1) * chain_latency + 1` when both are nonzero.
    pub dep_bound: u64,
}

/// All four bounds for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bounds {
    pub front_bound: u64,
    pub port_bound: u64,
    pub mem_bound: u64,
    pub dep_bound: u64,
    pub loops: Vec<LoopBound>,
}

impl Bounds {
    pub fn lower_bound_cycles(&self) -> u64 {
        self.front_bound
            .max(self.port_bound)
            .max(self.mem_bound)
            .max(self.dep_bound)
    }
}

fn is_mem_class(class: InstClass) -> bool {
    matches!(
        class,
        InstClass::Load | InstClass::Store | InstClass::Broadcast | InstClass::Prefetch
    )
}

/// Accumulates per-port-mask micro-op counts for `insts` weighted by
/// `counts`, then maximizes `ceil(U_S / |S|)` over all port subsets:
/// once over every micro-op (the port bound) and once over
/// memory-class micro-ops only (the memory-port bound).
pub(crate) fn port_bounds(insts: &[XInst], counts: &[u64], tm: &TimingModel) -> (u64, u64) {
    let mut all_by_mask = [0u64; 256];
    let mut mem_by_mask = [0u64; 256];
    for (inst, &count) in insts.iter().zip(counts) {
        if count == 0 {
            continue;
        }
        let Some((class, mode)) = inst.class() else {
            continue;
        };
        let t = tm.timing(class, mode);
        // Mirror the scoreboard's issue loop: ports >= num_ports are
        // filtered out, and a micro-op with no valid port is dropped.
        let mask: u8 = t
            .ports
            .ports()
            .filter(|&p| p < tm.num_ports)
            .fold(0, |m, p| m | (1 << p));
        if mask == 0 {
            continue;
        }
        let uops = (t.uops as u64).saturating_mul(count);
        let slot = &mut all_by_mask[mask as usize];
        *slot = slot.saturating_add(uops);
        if is_mem_class(class) {
            let slot = &mut mem_by_mask[mask as usize];
            *slot = slot.saturating_add(uops);
        }
    }
    (
        subset_bound(&all_by_mask, tm.num_ports),
        subset_bound(&mem_by_mask, tm.num_ports),
    )
}

/// `max over port subsets S of ceil(U_S / |S|)`, where `U_S` sums the
/// micro-ops whose port mask lies inside `S`.
fn subset_bound(uops_by_mask: &[u64; 256], num_ports: u8) -> u64 {
    // Only a handful of distinct port masks ever occur; maximize over
    // subsets against that sparse set rather than all 256 mask slots.
    let present: Vec<(u32, u64)> = uops_by_mask
        .iter()
        .enumerate()
        .filter(|&(_, &uops)| uops != 0)
        .map(|(mask, &uops)| (mask as u32, uops))
        .collect();
    let full: u32 = (1u32 << num_ports) - 1;
    let mut bound = 0u64;
    for s in 1..=full {
        let mut in_s = 0u64;
        for &(mask, uops) in &present {
            if mask & !s == 0 {
                in_s = in_s.saturating_add(uops);
            }
        }
        let width = s.count_ones() as u64;
        bound = bound.max(in_s.div_ceil(width));
    }
    bound
}

/// Chain-link latency: the cycles a dependent micro-op must wait for
/// this instruction's result. Memory reads are floored at the L1
/// latency — the smallest value `CacheSim::access` can return.
fn chain_latency(inst: &XInst, machine: &MachineSpec) -> Option<u64> {
    let (class, mode) = inst.class()?;
    let t = machine.timing.timing(class, mode);
    Some(match class {
        InstClass::Load | InstClass::Broadcast => machine.caches.l1d.latency as u64,
        _ => t.latency as u64,
    })
}

/// One body instruction reduced to what a chain walk reads: its link
/// latency and its register uses and defs (uses as bit sets; a register
/// used twice feeds the chain once).
struct Link {
    lat: u64,
    vec_uses: u16,
    gp_uses: u16,
    vec_def: Option<usize>,
    gp_def: Option<usize>,
}

/// Longest chain value among the registers in `uses`, if any is chained.
fn chained(mut uses: u16, regs: &[Option<u64>; 16]) -> Option<u64> {
    let mut val = None;
    while uses != 0 {
        let r = uses.trailing_zeros() as usize;
        uses &= uses - 1;
        val = val.max(regs[r]);
    }
    val
}

/// Longest dependence chain, in cycles, from the body-entry value of one
/// candidate register to its body-exit value, maximized over candidates.
/// `vec_only` restricts candidates to vector registers (used by the
/// accumulator-chain lint, which targets FP recurrences specifically).
///
/// The body is `insts[target+1 ..= branch]` — the simulator skips the
/// target label's own pc on a taken branch.
pub(crate) fn max_carried_chain(
    insts: &[XInst],
    target: usize,
    branch: usize,
    machine: &MachineSpec,
    vec_only: bool,
) -> u64 {
    let body = &insts[target + 1..=branch];
    // Decode the body once; every candidate's walk reuses it.
    let links: Vec<Link> = body
        .iter()
        .filter_map(|inst| {
            let lat = chain_latency(inst, machine)?;
            Some(Link {
                lat,
                vec_uses: inst.vec_uses().iter().fold(0, |m, v| m | 1 << (v.0 & 15)),
                gp_uses: inst.gp_uses().iter().fold(0, |m, g| m | 1 << (g.0 & 15)),
                vec_def: inst.vec_def().map(|v| (v.0 & 15) as usize),
                gp_def: inst.gp_def().map(|g| (g.0 & 15) as usize),
            })
        })
        .collect();
    // Candidates: registers the body writes (a register it never writes
    // carries no latency around the backedge) and that a link reads
    // before any link writes them (otherwise that write cuts the chain
    // from the entry value, and the walk would return 0).
    let (mut cand_vec, mut cand_gp) = (0u16, 0u16);
    for inst in body {
        if let Some(v) = inst.vec_def() {
            cand_vec |= 1 << (v.0 & 15);
        }
        if let Some(g) = inst.gp_def() {
            cand_gp |= 1 << (g.0 & 15);
        }
    }
    let (mut read_first_vec, mut read_first_gp) = (0u16, 0u16);
    let (mut linked_vec, mut linked_gp) = (0u16, 0u16);
    for l in &links {
        read_first_vec |= l.vec_uses & !linked_vec;
        read_first_gp |= l.gp_uses & !linked_gp;
        if let Some(v) = l.vec_def {
            linked_vec |= 1 << v;
        }
        if let Some(g) = l.gp_def {
            linked_gp |= 1 << g;
        }
    }
    cand_vec &= read_first_vec;
    cand_gp &= read_first_gp;
    let run = |seed_vec: Option<usize>, seed_gp: Option<usize>| -> u64 {
        let mut vec = [None; 16];
        let mut gp = [None; 16];
        if let Some(v) = seed_vec {
            vec[v] = Some(0);
        }
        if let Some(g) = seed_gp {
            gp[g] = Some(0);
        }
        for l in &links {
            // Longest chain feeding this instruction, if any input is
            // itself chained from the seed.
            let val = match (chained(l.vec_uses, &vec), chained(l.gp_uses, &gp)) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            let out = val.map(|v| v.saturating_add(l.lat));
            // A def either extends the chain or (seeded from no chained
            // input) breaks it.
            if let Some(v) = l.vec_def {
                vec[v] = out;
            }
            if let Some(g) = l.gp_def {
                gp[g] = out;
            }
        }
        let end_vec = seed_vec.and_then(|v| vec[v]).unwrap_or(0);
        let end_gp = seed_gp.and_then(|g| gp[g]).unwrap_or(0);
        end_vec.max(end_gp)
    };
    let mut best = 0u64;
    for v in (0..16).filter(|v| cand_vec & (1 << v) != 0) {
        best = best.max(run(Some(v), None));
    }
    if !vec_only {
        for g in (0..16).filter(|g| cand_gp & (1 << g) != 0) {
            best = best.max(run(None, Some(g)));
        }
    }
    best
}

/// Backward conditional branches with straight-line bodies: the loops
/// both the dependency bound and the loop-shaped lints reason about.
/// Returns `(branch_pc, target_pc)` pairs.
pub(crate) fn simple_loops(kernel: &AsmKernel) -> Vec<(usize, usize)> {
    // First definition wins, as in `AsmKernel::label_index`.
    let mut labels: HashMap<&str, usize> = HashMap::new();
    for (pc, inst) in kernel.insts.iter().enumerate() {
        if let XInst::Label(l) = inst {
            labels.entry(l.as_str()).or_insert(pc);
        }
    }
    let mut loops = Vec::new();
    for (pc, inst) in kernel.insts.iter().enumerate() {
        let label = match inst {
            XInst::Jl(l) | XInst::Jge(l) => l,
            _ => continue,
        };
        let Some(&t) = labels.get(label.as_str()) else {
            continue;
        };
        if t >= pc {
            continue;
        }
        let straight = !kernel.insts[t + 1..pc]
            .iter()
            .any(|i| matches!(i, XInst::Jl(_) | XInst::Jge(_) | XInst::Jmp(_) | XInst::Ret));
        if straight {
            loops.push((pc, t));
        }
    }
    loops
}

/// Innermost simple loops: simple loops whose body no other simple loop
/// nests inside. With straight-line bodies every simple loop is already
/// innermost; this filter additionally drops loops that *contain*
/// another loop's branch, which cannot happen for straight-line bodies,
/// so it is the identity today — kept for clarity at call sites.
pub(crate) fn innermost_loops(kernel: &AsmKernel) -> Vec<(usize, usize)> {
    simple_loops(kernel)
}

/// Computes all four bounds from a kernel, its per-pc dynamic counts,
/// and the per-branch maximum taken streaks (both from the walk).
pub fn compute_bounds(
    kernel: &AsmKernel,
    counts: &[u64],
    max_runs: &[u64],
    machine: &MachineSpec,
) -> Bounds {
    let tm = &machine.timing;
    // Front-end: classed dynamic instructions through a width-limited fetch.
    let dyn_classed: u64 = kernel
        .insts
        .iter()
        .zip(counts)
        .filter(|(i, _)| i.class().is_some())
        .map(|(_, &c)| c)
        .fold(0u64, |a, c| a.saturating_add(c));
    let front_bound = if dyn_classed == 0 {
        0
    } else {
        (dyn_classed - 1) / tm.issue_width as u64 + 1
    };
    let (port_bound, mem_bound) = port_bounds(&kernel.insts, counts, tm);

    let mut loops = Vec::new();
    let mut dep_bound = 0u64;
    for (branch_pc, target_pc) in simple_loops(kernel) {
        let execs = max_runs.get(branch_pc).copied().unwrap_or(0);
        if execs == 0 {
            continue;
        }
        let delta = max_carried_chain(&kernel.insts, target_pc, branch_pc, machine, false);
        let bound = if delta == 0 {
            0
        } else {
            (execs - 1).saturating_mul(delta).saturating_add(1)
        };
        dep_bound = dep_bound.max(bound);
        loops.push(LoopBound {
            branch_pc,
            target_pc,
            body_execs: execs,
            chain_latency: delta,
            dep_bound: bound,
        });
    }
    Bounds {
        front_bound,
        port_bound,
        mem_bound,
        dep_bound,
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_asm::{GpOrImm, Mem, ParamLoc, Width};
    use augem_machine::{GpReg, VecReg};

    fn snb() -> MachineSpec {
        MachineSpec::sandy_bridge()
    }

    /// An FAdd recurrence: 10 iterations of `acc += acc` must serialize
    /// on the adder's 3-cycle latency on Sandy Bridge.
    #[test]
    fn dep_bound_measures_fadd_recurrence() {
        let mut k = AsmKernel::new("rec");
        k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::Label("l".into()));
        k.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(0),
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
        let mut counts = vec![0u64; k.insts.len()];
        // 10 iterations: body pcs 2..=5 execute 10x (branch taken 9x,
        // counted on all 10 executions), prologue once.
        for c in &mut counts[2..=5] {
            *c = 10;
        }
        counts[0] = 1;
        counts[6] = 1;
        let mut runs = vec![0u64; k.insts.len()];
        runs[5] = 9;
        let b = compute_bounds(&k, &counts, &runs, &snb());
        // Chain: one FAdd at latency 3 per iteration; vec candidate
        // wins over the 1-cycle counter chain.
        assert_eq!(b.loops.len(), 1);
        assert_eq!(b.loops[0].chain_latency, 3);
        assert_eq!(b.loops[0].dep_bound, (9 - 1) * 3 + 1);
        assert_eq!(b.dep_bound, 25);
    }

    /// Load -> FAdd chains weight the load at L1 latency.
    #[test]
    fn chain_weights_loads_at_l1_latency() {
        let mut k = AsmKernel::new("ld");
        k.insts.push(XInst::Label("l".into()));
        // acc += x[i]: load feeds the add, but the *carried* register is
        // acc, so the per-iteration chain is just the FAdd (3).
        k.insts.push(XInst::FLoad {
            dst: VecReg(1),
            mem: Mem::new(GpReg(0), 0),
            w: Width::V2,
        });
        k.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V2,
        });
        k.insts.push(XInst::Jl("l".into()));
        assert_eq!(max_carried_chain(&k.insts, 0, 3, &snb(), true), 3);

        // Pointer-chasing shape: the loaded value becomes the carried
        // register itself -> the load's L1 latency enters the chain.
        let mut k2 = AsmKernel::new("ptr");
        k2.insts.push(XInst::Label("l".into()));
        k2.insts.push(XInst::FLoad {
            dst: VecReg(0),
            mem: Mem::new(GpReg(0), 0),
            w: Width::V2,
        });
        k2.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(0),
            w: Width::V2,
        });
        // The load redefines acc from memory each iteration with no
        // chained register input, so there is NO carried chain: the
        // simulator can overlap iterations freely and claiming latency
        // here would be unsound.
        assert_eq!(max_carried_chain(&k2.insts, 0, 2, &snb(), true), 0);
    }

    /// Port bound: FMul on Sandy Bridge issues only on port 0; N of them
    /// need N cycles no matter what the other ports do.
    #[test]
    fn port_bound_single_port_saturation() {
        let mut k = AsmKernel::new("mul");
        k.insts.push(XInst::FMul2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V2,
        });
        let counts = vec![37u64];
        let b = port_bounds(&k.insts, &counts, &snb().timing).0;
        assert_eq!(b, 37);
        // Memory-only bound ignores the multiplies entirely.
        let m = port_bounds(&k.insts, &counts, &snb().timing).1;
        assert_eq!(m, 0);
    }

    /// Loads on Sandy Bridge pick either port 2 or 3: 10 loads need 5
    /// cycles, not 10.
    #[test]
    fn port_bound_splits_across_shared_ports() {
        let k = {
            let mut k = AsmKernel::new("lds");
            k.insts.push(XInst::FLoad {
                dst: VecReg(0),
                mem: Mem::new(GpReg(0), 0),
                w: Width::V2,
            });
            k
        };
        let counts = vec![10u64];
        assert_eq!(port_bounds(&k.insts, &counts, &snb().timing).0, 5);
        assert_eq!(port_bounds(&k.insts, &counts, &snb().timing).1, 5);
    }

    #[test]
    fn front_bound_counts_classed_insts_only() {
        let mut k = AsmKernel::new("fe");
        k.insts.push(XInst::Label("l".into()));
        k.insts.push(XInst::IMovImm {
            dst: GpReg(0),
            imm: 1,
        });
        k.insts.push(XInst::Ret);
        // Label counted by the walk but classless: excluded from fetch.
        let counts = vec![9u64, 9, 1];
        let runs = vec![0u64; 3];
        let b = compute_bounds(&k, &counts, &runs, &snb());
        // 10 classed instructions at width 4: ceil-ish (10-1)/4+1 = 3.
        assert_eq!(b.front_bound, 3);
    }
}
