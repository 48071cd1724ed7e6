//! Bound-based sweep pruning never changes the answer.
//!
//! The pruned sweep (`ResilOptions::prune`) uses the static lower bound to
//! skip candidates whose best-case Mflops cannot beat the incumbent.
//! Because the bound is sound (see `cost_soundness.rs`), the winner —
//! and its exact measured cycles — must be identical to the
//! exhaustive sweep's, on every kernel and both machines. This suite
//! also pins that the bound actually earns its keep: on at least one
//! kernel the prune rate clears 25%.

use augem_machine::MachineSpec;
use augem_resil::Injector;
use augem_tune::{
    gemm_candidates, sweep, tune_gemm, tune_vector, vector_candidates, Candidate, EvalCache,
    ResilOptions, TuneResult, VectorKernel,
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

/// The plain sweep with bound pruning, through a fresh cache.
fn pruned_sweep<C: Candidate + Copy>(candidates: Vec<C>, m: &MachineSpec) -> TuneResult<C> {
    let opts = ResilOptions {
        prune: true,
        ..ResilOptions::plain()
    };
    let cache = EvalCache::new();
    sweep(
        candidates,
        m,
        &opts,
        None,
        &Injector::disabled(),
        augem_obs::null(),
        &cache,
    )
    .expect("pruned sweep")
}

#[test]
fn pruned_sweeps_keep_the_exhaustive_winner_on_every_kernel_and_machine() {
    let mut best_rate = 0.0f64;
    for m in machines() {
        let plain = tune_gemm(&m).expect("exhaustive gemm sweep");
        let pruned = pruned_sweep(gemm_candidates(&m), &m);
        let stats = pruned.stats;
        assert_eq!(
            plain.best.tag(),
            pruned.best.tag(),
            "gemm winner changed under pruning on {:?}",
            m.arch
        );
        assert_eq!(
            plain.best_eval.report.cycles, pruned.best_eval.report.cycles,
            "gemm winner cycles changed under pruning on {:?}",
            m.arch
        );
        assert_eq!(
            plain.best_eval.mflops.to_bits(),
            pruned.best_eval.mflops.to_bits(),
            "gemm winner Mflops not bit-identical on {:?}",
            m.arch
        );
        assert!(stats.pruned > 0, "gemm pruning did nothing on {:?}", m.arch);
        best_rate = best_rate.max(stats.pruned as f64 / stats.analyzed.max(1) as f64);

        for kernel in VECTOR_KERNELS {
            let plain = tune_vector(kernel, &m).expect("exhaustive vector sweep");
            let pruned = pruned_sweep(vector_candidates(kernel, &m), &m);
            let stats = pruned.stats;
            assert_eq!(
                plain.best.tag(),
                pruned.best.tag(),
                "{} winner changed under pruning on {:?}",
                kernel.name(),
                m.arch
            );
            assert_eq!(
                plain.best_eval.report.cycles,
                pruned.best_eval.report.cycles,
                "{} winner cycles changed under pruning on {:?}",
                kernel.name(),
                m.arch
            );
            assert_eq!(
                plain.best_eval.mflops.to_bits(),
                pruned.best_eval.mflops.to_bits(),
                "{} winner Mflops not bit-identical on {:?}",
                kernel.name(),
                m.arch
            );
            best_rate = best_rate.max(stats.pruned as f64 / stats.analyzed.max(1) as f64);
        }
    }
    assert!(
        best_rate >= 0.25,
        "no kernel reached a 25% prune rate (best {best_rate:.2})"
    );
}
