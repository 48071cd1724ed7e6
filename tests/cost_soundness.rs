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
