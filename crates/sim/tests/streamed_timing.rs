//! Differential suite for the streamed timing path.
//!
//! `simulate_timing*` feeds the decoded engine's steps straight into
//! the timing scoreboard and never records a trace. This suite proves
//! that is only a change of plumbing: for every tuner candidate of
//! every kernel family on both paper machines, in the cache regime the
//! tuner times it in (steady state for dgemm, cold for the vector
//! kernels), the streamed report equals [`replay`] of the recorded
//! trace field for field, the final arrays match, and the profiled
//! twins agree with both. Under a step budget the streamed path fails
//! with the same [`SimError::StepLimit`] as the recorded one.

use augem_asm::AsmKernel;
use augem_machine::{IsaFeature, MachineSpec};
use augem_sim::{
    decode, replay, replay_profiled, simulate_timing, simulate_timing_budgeted,
    simulate_timing_profiled, simulate_timing_steady, simulate_timing_steady_budgeted, FuncSim,
    SimError, SimValue, TimingReport, Trace,
};
use augem_tune::{
    gemm_candidates, gemm_eval_args, vector_candidates, vector_eval_args, Candidate, VectorKernel,
};

const VECTOR_KERNELS: [VectorKernel; 5] = [
    VectorKernel::Axpy,
    VectorKernel::Dot,
    VectorKernel::Gemv,
    VectorKernel::Ger,
    VectorKernel::Scal,
];

/// The recorded path: one traced run of the decoded engine, then a
/// replay of the trace.
fn recorded(
    asm: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
    warm: bool,
    step_limit: Option<u64>,
) -> Result<(TimingReport, Vec<Vec<f64>>, Trace), SimError> {
    let prog = decode(asm, machine.isa.has(IsaFeature::Avx))?;
    let mut sim = FuncSim::new(machine.isa).with_trace();
    if let Some(limit) = step_limit {
        sim = sim.with_step_limit(limit);
    }
    let (arrays, trace) = sim.run_decoded(&prog, asm, args)?;
    Ok((replay(asm, &trace, machine, warm), arrays, trace))
}

/// The streamed entry point the tuner calls for this regime and budget.
fn streamed(
    asm: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
    warm: bool,
    step_limit: Option<u64>,
) -> Result<(TimingReport, Vec<Vec<f64>>), SimError> {
    match (warm, step_limit) {
        (true, None) => simulate_timing_steady(asm, args, machine),
        (true, Some(limit)) => simulate_timing_steady_budgeted(asm, args, machine, limit),
        (false, None) => simulate_timing(asm, args, machine),
        (false, Some(limit)) => simulate_timing_budgeted(asm, args, machine, limit),
    }
}

fn check_candidate(tag: &str, asm: &AsmKernel, args: Vec<SimValue>, m: &MachineSpec, warm: bool) {
    let (report, arrays, trace) =
        recorded(asm, args.clone(), m, warm, None).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let (s_report, s_arrays) =
        streamed(asm, args.clone(), m, warm, None).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_eq!(s_report, report, "{tag}: streamed report != replayed trace");
    assert_eq!(s_arrays, arrays, "{tag}: streamed arrays differ");

    let (p_report, p_prof) = replay_profiled(asm, &trace, m, warm);
    assert_eq!(p_report, report, "{tag}: replay_profiled report differs");
    let (sp_report, sp_prof, sp_arrays) =
        simulate_timing_profiled(asm, args.clone(), m, warm, None)
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_eq!(sp_report, report, "{tag}: streamed profiled report differs");
    assert_eq!(
        sp_prof, p_prof,
        "{tag}: streamed profile != replayed profile"
    );
    assert_eq!(sp_arrays, arrays, "{tag}: streamed profiled arrays differ");

    // Budgets: half the run exhausts on both paths with the same error;
    // the exact step count (every recorded step plus the final `ret`)
    // still completes with the unbudgeted result.
    let steps = trace.len() as u64;
    let half = recorded(asm, args.clone(), m, warm, Some(steps / 2)).map(|(r, a, _)| (r, a));
    assert_eq!(
        half,
        Err(SimError::StepLimit(steps / 2)),
        "{tag}: half budget"
    );
    assert_eq!(
        streamed(asm, args.clone(), m, warm, Some(steps / 2)),
        half,
        "{tag}: half budget of {steps} steps"
    );
    assert_eq!(
        streamed(asm, args, m, warm, Some(steps + 1)),
        Ok((report, arrays)),
        "{tag}: exact budget of {steps} steps"
    );
}

/// dgemm candidates are timed in the steady-state (warm) regime.
fn gemm_on(machine: MachineSpec) {
    let cands = gemm_candidates(&machine);
    assert!(!cands.is_empty());
    for cfg in cands {
        let tag = format!("{} {cfg:?}", machine.arch.short_name());
        let asm = cfg
            .build(&machine)
            .unwrap_or_else(|e| panic!("{tag}: {e:?}"));
        check_candidate(&tag, &asm, gemm_eval_args(&cfg).0, &machine, true);
    }
}

/// Vector-kernel candidates are timed cold: streaming is the objective.
fn vector_on(machine: MachineSpec) {
    for kernel in VECTOR_KERNELS {
        let cands = vector_candidates(kernel, &machine);
        assert!(!cands.is_empty());
        for cfg in cands {
            let tag = format!("{} {cfg:?}", machine.arch.short_name());
            let asm = cfg
                .build(&machine)
                .unwrap_or_else(|e| panic!("{tag}: {e:?}"));
            check_candidate(&tag, &asm, vector_eval_args(&cfg).0, &machine, false);
        }
    }
}

#[test]
fn gemm_candidates_stream_identically_on_sandy_bridge() {
    gemm_on(MachineSpec::sandy_bridge());
}

#[test]
fn gemm_candidates_stream_identically_on_piledriver() {
    gemm_on(MachineSpec::piledriver());
}

#[test]
fn vector_candidates_stream_identically_on_sandy_bridge() {
    vector_on(MachineSpec::sandy_bridge());
}

#[test]
fn vector_candidates_stream_identically_on_piledriver() {
    vector_on(MachineSpec::piledriver());
}

#[test]
fn setup_errors_match_the_recorded_path() {
    // Wrong arity fails before any step runs, on both paths and in both
    // regimes (the warm regime's training pass reports it).
    let machine = MachineSpec::sandy_bridge();
    let cfg = gemm_candidates(&machine).remove(0);
    let asm = cfg.build(&machine).unwrap();
    for warm in [false, true] {
        let want = recorded(&asm, vec![], &machine, warm, None).map(|(r, a, _)| (r, a));
        assert!(matches!(want, Err(SimError::BadArgs(_))));
        assert_eq!(streamed(&asm, vec![], &machine, warm, None), want);
    }
}
