//! Machine-checked soundness of the static cost model.
//!
//! The contract `augem-cost` ships is a *lower bound*: for any kernel
//! the pipeline can build, `CostReport::lower_bound_cycles` never
//! exceeds the cycle count the timing simulator reports for the same
//! run. This suite pins that claim over the tuner's entire candidate
//! space — every GEMM configuration and every vector-kernel
//! configuration, on both paper machines, in the same evaluation
//! regime the tuner scores them (steady/pre-warmed cache for GEMM,
//! cold cache for vector kernels). Zero exceptions: one violated
//! candidate fails the suite.

use augem_machine::MachineSpec;
use augem_tune::{
    gemm_candidates, gemm_eval_args, vector_candidates, vector_eval_args, Candidate, VectorKernel,
};

fn machines() -> [MachineSpec; 2] {
    [MachineSpec::sandy_bridge(), MachineSpec::piledriver()]
}

const VECTOR_KERNELS: [VectorKernel; 5] = [
    VectorKernel::Axpy,
    VectorKernel::Dot,
    VectorKernel::Gemv,
    VectorKernel::Ger,
    VectorKernel::Scal,
];

#[test]
fn gemm_bound_is_sound_for_every_candidate_on_both_machines() {
    for m in machines() {
        let mut checked = 0usize;
        for cfg in gemm_candidates(&m) {
            // Shapes the register allocator rejects are not evaluable
            // candidates; the tuner skips them too.
            let Ok(asm) = cfg.build_traced(&m, augem_obs::null()) else {
                continue;
            };
            let (args, _) = gemm_eval_args(&cfg);
            let report = augem_cost::analyze(&asm, &args, &m).unwrap_or_else(|e| {
                panic!("analyze failed for {} on {:?}: {e:?}", cfg.tag(), m.arch)
            });
            let (timing, _) = augem_sim::simulate_timing_steady(&asm, args, &m)
                .unwrap_or_else(|e| panic!("sim failed for {} on {:?}: {e:?}", cfg.tag(), m.arch));
            assert!(
                report.lower_bound_cycles <= timing.cycles,
                "UNSOUND bound for gemm {} on {:?}: bound {} > simulated {} \
                 (dep={} port={} front={} mem={})",
                cfg.tag(),
                m.arch,
                report.lower_bound_cycles,
                timing.cycles,
                report.dep_bound,
                report.port_bound,
                report.front_bound,
                report.mem_bound,
            );
            checked += 1;
        }
        assert!(
            checked >= 20,
            "suspiciously few gemm candidates checked on {:?}: {checked}",
            m.arch
        );
    }
}

#[test]
fn vector_bound_is_sound_for_every_candidate_on_both_machines() {
    for m in machines() {
        for kernel in VECTOR_KERNELS {
            let mut checked = 0usize;
            for cfg in vector_candidates(kernel, &m) {
                let Ok(asm) = cfg.build_traced(&m, augem_obs::null()) else {
                    continue;
                };
                let (args, _) = vector_eval_args(&cfg);
                let report = augem_cost::analyze(&asm, &args, &m).unwrap_or_else(|e| {
                    panic!("analyze failed for {} on {:?}: {e:?}", cfg.tag(), m.arch)
                });
                // Vector kernels are scored cold, like the tuner does.
                let (timing, _) = augem_sim::simulate_timing(&asm, args, &m).unwrap_or_else(|e| {
                    panic!("sim failed for {} on {:?}: {e:?}", cfg.tag(), m.arch)
                });
                assert!(
                    report.lower_bound_cycles <= timing.cycles,
                    "UNSOUND bound for {} {} on {:?}: bound {} > simulated {} \
                     (dep={} port={} front={} mem={})",
                    kernel.name(),
                    cfg.tag(),
                    m.arch,
                    report.lower_bound_cycles,
                    timing.cycles,
                    report.dep_bound,
                    report.port_bound,
                    report.front_bound,
                    report.mem_bound,
                );
                checked += 1;
            }
            assert!(
                checked >= 4,
                "suspiciously few {} candidates checked on {:?}: {checked}",
                kernel.name(),
                m.arch
            );
        }
    }
}

/// The walk behind every bound reproduces the simulator's control flow
/// exactly, closed-form loop skips included: per-pc execution counts
/// and per-branch taken streaks equal those of a traced functional run,
/// for every candidate of every kernel family on both machines.
#[test]
fn walk_counts_match_the_simulated_trace_for_every_candidate() {
    fn check(
        asm: &augem_asm::AsmKernel,
        args: Vec<augem_sim::SimValue>,
        m: &MachineSpec,
        at: &str,
    ) {
        let prog = augem_sim::decode(asm, m.isa.has(augem_machine::IsaFeature::Avx))
            .unwrap_or_else(|e| panic!("decode failed for {at}: {e:?}"));
        let w = augem_cost::walk::walk(&prog, asm, &args, augem_cost::DEFAULT_WALK_BUDGET)
            .unwrap_or_else(|e| panic!("walk failed for {at}: {e:?}"));
        assert!(w.complete, "walk incomplete for {at}");
        let (_, trace) = augem_sim::FuncSim::new(m.isa)
            .with_trace()
            .run_decoded(&prog, asm, args)
            .unwrap_or_else(|e| panic!("sim failed for {at}: {e:?}"));
        let pcs = &trace.inst_indices;
        let mut counts = vec![0u64; prog.len()];
        let (mut run, mut max_run) = (vec![0u64; prog.len()], vec![0u64; prog.len()]);
        for (k, &pc) in pcs.iter().enumerate() {
            let pc = pc as usize;
            counts[pc] += 1;
            if matches!(
                asm.insts[pc],
                augem_asm::XInst::Jl(_) | augem_asm::XInst::Jge(_)
            ) {
                // Taken iff the next traced pc is not the fall-through;
                // a run that ends on a branch jumped past the last pc.
                let taken = pcs
                    .get(k + 1)
                    .map_or(pc + 1 < prog.len(), |&next| next as usize != pc + 1);
                if taken {
                    run[pc] += 1;
                    max_run[pc] = max_run[pc].max(run[pc]);
                } else {
                    run[pc] = 0;
                }
            }
        }
        assert_eq!(w.counts, counts, "per-pc counts differ for {at}");
        assert_eq!(w.max_runs, max_run, "taken streaks differ for {at}");
    }
    for m in machines() {
        for cfg in gemm_candidates(&m) {
            if let Ok(asm) = cfg.build_traced(&m, augem_obs::null()) {
                check(&asm, gemm_eval_args(&cfg).0, &m, &cfg.tag());
            }
        }
        for kernel in VECTOR_KERNELS {
            for cfg in vector_candidates(kernel, &m) {
                if let Ok(asm) = cfg.build_traced(&m, augem_obs::null()) {
                    check(&asm, vector_eval_args(&cfg).0, &m, &cfg.tag());
                }
            }
        }
    }
}
