//! Candidate evaluation on the timing simulator.
//!
//! Each configuration is exercised on a cache-resident steady-state
//! micro-problem (packed operands sized to the paper's blocking) so the
//! measured cycles reflect the kernel's compute behavior — the quantity
//! the micro-kernel contributes to full-problem performance.

use crate::cache::EvalCache;
use crate::config::{BuildError, Candidate, GemmConfig, LoggedBuild, VectorConfig, VectorKernel};
use augem_machine::MachineSpec;
use augem_opt::CodegenError;
use augem_sim::{PcProfile, SimError, SimValue, TimingReport};
use std::sync::Arc;

/// Evaluation failure.
#[derive(Debug)]
pub enum EvalError {
    Build(BuildError),
    Sim(SimError),
    /// The candidate's dynamic trace exceeded the per-candidate
    /// instruction budget (the limit is carried along).
    Budget(u64),
    /// The evaluation panicked; caught by the sandbox, payload attached.
    Panicked(String),
}

impl EvalError {
    /// Wraps a simulator error, promoting a blown step limit to the
    /// budget class.
    pub fn from_sim(e: SimError) -> Self {
        match e {
            SimError::StepLimit(n) => EvalError::Budget(n),
            other => EvalError::Sim(other),
        }
    }

    /// This failure's class — which bucket of `resil.*` telemetry it
    /// lands in and whether retrying can help.
    pub fn class(&self) -> EvalClass {
        match self {
            EvalError::Panicked(_) => EvalClass::Panic,
            EvalError::Budget(_) | EvalError::Sim(SimError::StepLimit(_)) => EvalClass::Budget,
            // Register-pressure and unvectorizable shapes are the search
            // space telling us "no", not the pipeline failing.
            EvalError::Build(BuildError::Codegen(
                CodegenError::Alloc(_) | CodegenError::Unsupported(_),
            )) => EvalClass::Prune,
            EvalError::Build(_) | EvalError::Sim(_) => EvalClass::Build,
        }
    }
}

/// Failure classes the resilience layer distinguishes (see
/// `augem_resil::counter` for the telemetry each maps to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalClass {
    /// A caught panic — possibly transient, worth a bounded retry.
    Panic,
    /// Step/instruction budget exhausted — deterministic, never retried.
    Budget,
    /// Build or simulator defect — deterministic, never retried.
    Build,
    /// Legitimate search pruning (register pressure, shapes the ISA
    /// cannot vectorize) — an expected outcome, not a fault.
    Prune,
}

impl EvalClass {
    /// The `resil.*` counter this class increments per occurrence.
    pub fn counter(self) -> &'static str {
        match self {
            EvalClass::Panic => augem_resil::counter::EVAL_PANIC,
            EvalClass::Budget => augem_resil::counter::EVAL_BUDGET,
            EvalClass::Build => augem_resil::counter::EVAL_BUILD,
            EvalClass::Prune => augem_resil::counter::EVAL_PRUNE,
        }
    }

    /// Can a retry plausibly succeed? Only panics qualify: budget and
    /// build failures are deterministic functions of the candidate, and
    /// pruning is a *correct* answer, not a failure.
    pub fn retryable(self) -> bool {
        matches!(self, EvalClass::Panic)
    }
}

impl augem_resil::Transient for EvalError {
    fn transient(&self) -> bool {
        self.class().retryable()
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Build(e) => write!(f, "build: {e}"),
            EvalError::Sim(e) => write!(f, "simulation: {e}"),
            EvalError::Budget(n) => write!(f, "budget: exceeded {n} simulated instructions"),
            EvalError::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// One candidate's measured performance.
#[derive(Debug, Clone)]
pub struct Evaluation {
    pub report: TimingReport,
    /// Useful Mflops at the machine's turbo clock.
    pub mflops: f64,
    /// Useful flops the micro-problem performs.
    pub useful_flops: u64,
}

/// Steady-state micro-problem for GEMM evaluation: a packed block sized
/// like one (Mr-strip x Kc) pass of the Goto algorithm.
pub fn gemm_eval_dims(cfg: &GemmConfig) -> (usize, usize, usize) {
    let mr = (cfg.mu * 2).max(8);
    let nr = (cfg.nu * 2).max(4);
    let kc = 128;
    (mr, nr, kc)
}

/// The micro-problem arguments and useful-flop count of a GEMM
/// evaluation — shared by the plain measurement and the profiled one so
/// both exercise the identical workload.
pub fn gemm_eval_args(cfg: &GemmConfig) -> (Vec<SimValue>, u64) {
    let (mr, nr, kc) = gemm_eval_dims(cfg);
    let (mc, ldb, ldc) = (mr, nr, mr);
    let a: Vec<f64> = (0..mc * kc).map(|v| (v % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..kc * ldb).map(|v| (v % 13) as f64 * 0.5).collect();
    let c: Vec<f64> = vec![0.0; ldc * nr];
    let args = vec![
        SimValue::Int(mr as i64),
        SimValue::Int(nr as i64),
        SimValue::Int(kc as i64),
        SimValue::Int(mc as i64),
        SimValue::Int(ldb as i64),
        SimValue::Int(ldc as i64),
        SimValue::Array(a),
        SimValue::Array(b),
        SimValue::Array(c),
    ];
    (args, (2 * mr * nr * kc) as u64)
}

impl EvalCache {
    /// Evaluates a candidate on its micro-problem: the build goes
    /// through the build cache, the whole measurement through the
    /// evaluation cache (key: config tag + machine fingerprint + step
    /// budget). A hit returns the stored [`Evaluation`] bit-for-bit and
    /// replays the build's labels; only successes are stored. The build
    /// stages and the simulation are traced (the simulator run is a `sim`
    /// span; its counters land under `sim.*`). Exceeding `step_limit`
    /// fails the candidate with [`EvalError::Budget`].
    pub fn evaluate<C: Candidate + ?Sized>(
        &self,
        c: &C,
        machine: &MachineSpec,
        tracer: &dyn augem_obs::Tracer,
        step_limit: Option<u64>,
    ) -> Result<Evaluation, EvalError> {
        let tag = c.tag();
        if let Some(hit) = self.eval_lookup(&tag, machine, step_limit, tracer) {
            return Ok(hit);
        }
        let build = self.logged(c, machine, tracer).map_err(EvalError::Build)?;
        let (args, useful) = c.eval_args();
        let report = {
            let _s = augem_obs::span(tracer, augem_obs::stage::SIM);
            let (asm, warm) = (&build.asm, c.warm_cache());
            let (report, _) = match (warm, step_limit) {
                (true, Some(limit)) => {
                    augem_sim::simulate_timing_steady_budgeted(asm, args, machine, limit)
                }
                (true, None) => augem_sim::simulate_timing_steady(asm, args, machine),
                (false, Some(limit)) => {
                    augem_sim::simulate_timing_budgeted(asm, args, machine, limit)
                }
                (false, None) => augem_sim::simulate_timing(asm, args, machine),
            }
            .map_err(EvalError::from_sim)?;
            report
        };
        record_sim_counters(tracer, &report);
        let mflops = report.useful_mflops(useful, machine.turbo_ghz);
        let e = Evaluation {
            report,
            mflops,
            useful_flops: useful,
        };
        self.eval_store(&tag, machine, step_limit, &e);
        Ok(e)
    }

    /// Profiles a candidate: the same workload and cache regime as
    /// [`evaluate`](EvalCache::evaluate), replayed with per-pc
    /// attribution on. The build goes through the build cache; the
    /// profiled replay is keyed like an evaluation, so a hit replays the
    /// stored profile instead of re-simulating.
    pub fn profile<C: Candidate + ?Sized>(
        &self,
        c: &C,
        machine: &MachineSpec,
        tracer: &dyn augem_obs::Tracer,
        step_limit: Option<u64>,
    ) -> Result<Arc<ProfiledEvaluation>, EvalError> {
        let tag = c.tag();
        if let Some(hit) = self.profile_lookup(&tag, machine, step_limit, tracer) {
            return Ok(hit);
        }
        let build = self.logged(c, machine, tracer).map_err(EvalError::Build)?;
        let (args, useful) = c.eval_args();
        let (report, pcs) = {
            let _s = augem_obs::span(tracer, augem_obs::stage::PROF);
            let (report, pcs, _) = augem_sim::simulate_timing_profiled(
                &build.asm,
                args,
                machine,
                c.warm_cache(),
                step_limit,
            )
            .map_err(EvalError::from_sim)?;
            (report, pcs)
        };
        let mflops = report.useful_mflops(useful, machine.turbo_ghz);
        let pe = Arc::new(ProfiledEvaluation {
            build,
            report,
            pcs,
            mflops,
            useful_flops: useful,
        });
        self.profile_store(&tag, machine, step_limit, &pe);
        Ok(pe)
    }
}

/// Aggregate simulator counters (summed over every simulated candidate).
fn record_sim_counters(tracer: &dyn augem_obs::Tracer, report: &TimingReport) {
    tracer.add("sim.cycles", report.cycles);
    tracer.add("sim.dyn_insts", report.dyn_insts);
    tracer.add("sim.flops", report.flops);
    tracer.add("sim.mem_accesses", report.mem_accesses);
    tracer.add("sim.l1_hits", report.l1_hits());
    tracer.add("sim.l1_misses", report.l1_misses);
    tracer.add("sim.llc_misses", report.llc_misses);
}

/// Micro-problem sizes for the vector kernels. Unlike GEMM (whose packed
/// operands are cache-resident by construction), the Level-1/2 kernels run
/// in a *streaming* regime at the paper's benchmark sizes, so candidates
/// are sized past L2 and evaluated cold — that is where unrolling and
/// software prefetch actually pay.
pub fn vector_eval_n(kernel: VectorKernel) -> (usize, usize) {
    match kernel {
        VectorKernel::Axpy | VectorKernel::Dot | VectorKernel::Scal => (1 << 18, 1),
        VectorKernel::Gemv | VectorKernel::Ger => (2048, 192), // m, n
    }
}

/// The micro-problem arguments and useful-flop count of a vector-kernel
/// evaluation (see [`gemm_eval_args`]).
pub fn vector_eval_args(cfg: &VectorConfig) -> (Vec<SimValue>, u64) {
    let (n0, n1) = vector_eval_n(cfg.kernel);
    match cfg.kernel {
        VectorKernel::Axpy => {
            let n = n0;
            (
                vec![
                    SimValue::Int(n as i64),
                    SimValue::F64(1.5),
                    SimValue::Array(vec![0.5; n]),
                    SimValue::Array(vec![1.0; n]),
                ],
                (2 * n) as u64,
            )
        }
        VectorKernel::Dot => {
            let n = n0;
            (
                vec![
                    SimValue::Int(n as i64),
                    SimValue::Array(vec![0.5; n]),
                    SimValue::Array(vec![1.0; n]),
                    SimValue::Array(vec![0.0]),
                ],
                (2 * n) as u64,
            )
        }
        VectorKernel::Gemv => {
            let (m, n) = (n0, n1);
            let lda = m;
            (
                vec![
                    SimValue::Int(m as i64),
                    SimValue::Int(n as i64),
                    SimValue::Int(lda as i64),
                    SimValue::Array(vec![0.5; lda * n]),
                    SimValue::Array(vec![0.25; n]),
                    SimValue::Array(vec![0.0; m]),
                ],
                (2 * m * n) as u64,
            )
        }
        VectorKernel::Ger => {
            let (m, n) = (n0, n1);
            let lda = m;
            (
                vec![
                    SimValue::Int(m as i64),
                    SimValue::Int(n as i64),
                    SimValue::Int(lda as i64),
                    SimValue::Array(vec![0.5; m]),
                    SimValue::Array(vec![0.25; n]),
                    SimValue::Array(vec![1.0; lda * n]),
                ],
                (2 * m * n) as u64,
            )
        }
        VectorKernel::Scal => {
            let n = n0;
            (
                vec![
                    SimValue::Int(n as i64),
                    SimValue::F64(0.99),
                    SimValue::Array(vec![1.0; n]),
                ],
                n as u64,
            )
        }
    }
}

/// A configuration's *profiled* measurement: the same workload as the
/// plain evaluation, replayed with per-pc attribution on, bundled with
/// the build artifacts (`asm` + binding log) that `augem-prof` needs to
/// turn the raw counters into regions and an annotated listing.
#[derive(Debug, Clone)]
pub struct ProfiledEvaluation {
    pub build: Arc<LoggedBuild>,
    pub report: TimingReport,
    pub pcs: PcProfile,
    pub mflops: f64,
    pub useful_flops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_machine::SimdMode;
    use augem_opt::StrategyPref;

    fn evaluate(c: &impl Candidate, m: &MachineSpec) -> Result<Evaluation, EvalError> {
        EvalCache::disabled().evaluate(c, m, augem_obs::null(), None)
    }

    #[test]
    fn gemm_avx_beats_sse_by_roughly_two() {
        let avx = MachineSpec::sandy_bridge();
        let sse = avx.with_isa_clamped(SimdMode::Sse);
        let cfg_avx = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cfg_sse = GemmConfig {
            mu: 4,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let ea = evaluate(&cfg_avx, &avx).unwrap();
        let es = evaluate(&cfg_sse, &sse).unwrap();
        let ratio = ea.mflops / es.mflops;
        assert!(
            ratio > 1.4 && ratio < 2.6,
            "AVX/SSE ratio {ratio} (avx {} sse {})",
            ea.mflops,
            es.mflops
        );
    }

    #[test]
    fn fma_helps_on_piledriver() {
        let pd = MachineSpec::piledriver();
        let with = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let without = GemmConfig {
            fma: augem_opt::FmaPolicy::NoFma,
            ..with
        };
        let ew = evaluate(&with, &pd).unwrap();
        let eo = evaluate(&without, &pd).unwrap();
        assert!(
            ew.mflops > eo.mflops * 1.2,
            "FMA {} vs mul+add {}",
            ew.mflops,
            eo.mflops
        );
    }

    #[test]
    fn bigger_unroll_beats_fig13_minimum() {
        // 2x2 on AVX cannot vectorize (falls back to scalar); 8x4 can.
        let m = MachineSpec::sandy_bridge();
        let small = evaluate(&GemmConfig::fig13(), &m).unwrap();
        let big = evaluate(
            &GemmConfig {
                mu: 8,
                nu: 4,
                ..GemmConfig::fig13()
            },
            &m,
        )
        .unwrap();
        assert!(
            big.mflops > small.mflops * 1.5,
            "8x4 {} vs 2x2 {}",
            big.mflops,
            small.mflops
        );
    }

    #[test]
    fn shuf_and_vdup_both_work_on_sse() {
        let m = MachineSpec::sandy_bridge().with_isa_clamped(SimdMode::Sse);
        let vdup = GemmConfig {
            mu: 2,
            nu: 2,
            ..GemmConfig::fig13()
        };
        let shuf = GemmConfig {
            strategy: StrategyPref::Shuf,
            ..vdup
        };
        let ev = evaluate(&vdup, &m).unwrap();
        let es = evaluate(&shuf, &m).unwrap();
        assert!(ev.mflops > 0.0 && es.mflops > 0.0);
        // Both within 3x of each other (they compute the same thing).
        let r = ev.mflops / es.mflops;
        assert!(r > 0.33 && r < 3.0, "vdup/shuf ratio {r}");
    }

    #[test]
    fn classification_covers_every_failure_class() {
        use augem_opt::binding::AllocError;
        use augem_resil::Transient as _;

        let panic = EvalError::Panicked("index out of bounds".into());
        let budget = EvalError::Budget(1000);
        let sim_budget = EvalError::Sim(SimError::StepLimit(1000));
        let build = EvalError::Build(BuildError::Codegen(CodegenError::Malformed(
            "bad annotation".into(),
        )));
        let sim_fault = EvalError::Sim(SimError::Misaligned(3));
        let prune = EvalError::Build(BuildError::Codegen(CodegenError::Alloc(
            AllocError::OutOfVecRegs("acc".into()),
        )));
        let unsupported = EvalError::Build(BuildError::Codegen(CodegenError::Unsupported(
            "scalar tail".into(),
        )));

        assert_eq!(panic.class(), EvalClass::Panic);
        assert_eq!(budget.class(), EvalClass::Budget);
        assert_eq!(sim_budget.class(), EvalClass::Budget, "StepLimit is budget");
        assert_eq!(build.class(), EvalClass::Build);
        assert_eq!(sim_fault.class(), EvalClass::Build);
        assert_eq!(prune.class(), EvalClass::Prune);
        assert_eq!(unsupported.class(), EvalClass::Prune);

        // Only panics are worth retrying.
        assert!(panic.transient());
        for fatal in [
            &budget,
            &sim_budget,
            &build,
            &sim_fault,
            &prune,
            &unsupported,
        ] {
            assert!(!fatal.transient(), "{fatal} must be fatal");
        }
    }

    #[test]
    fn classes_map_to_their_resil_counters() {
        assert_eq!(EvalClass::Panic.counter(), "resil.eval.panic");
        assert_eq!(EvalClass::Budget.counter(), "resil.eval.budget");
        assert_eq!(EvalClass::Build.counter(), "resil.eval.build");
        assert_eq!(EvalClass::Prune.counter(), "resil.eval.prune");
        assert!(EvalClass::Panic.retryable());
        assert!(!EvalClass::Budget.retryable());
        assert!(!EvalClass::Build.retryable());
        assert!(!EvalClass::Prune.retryable());
    }

    #[test]
    fn from_sim_promotes_step_limit_to_budget() {
        assert!(matches!(
            EvalError::from_sim(SimError::StepLimit(7)),
            EvalError::Budget(7)
        ));
        assert!(matches!(
            EvalError::from_sim(SimError::Misaligned(8)),
            EvalError::Sim(SimError::Misaligned(8))
        ));
    }

    #[test]
    fn tiny_budget_fails_with_budget_class() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let err = EvalCache::disabled()
            .evaluate(&cfg, &m, augem_obs::null(), Some(10))
            .unwrap_err();
        assert_eq!(err.class(), EvalClass::Budget);
        assert!(err.to_string().contains("budget"), "{err}");
        // A generous budget changes nothing about the measurement.
        let unbudgeted = evaluate(&cfg, &m).unwrap();
        let budgeted = EvalCache::disabled()
            .evaluate(&cfg, &m, augem_obs::null(), Some(1 << 32))
            .unwrap();
        assert_eq!(unbudgeted.mflops.to_bits(), budgeted.mflops.to_bits());
    }

    #[test]
    fn vector_kernels_evaluate() {
        let m = MachineSpec::sandy_bridge();
        for k in [VectorKernel::Axpy, VectorKernel::Dot, VectorKernel::Gemv] {
            let cfg = VectorConfig {
                kernel: k,
                unroll: 8,
                prefetch: augem_transforms::PrefetchConfig::default(),
                schedule: true,
            };
            let e = evaluate(&cfg, &m).unwrap();
            assert!(e.mflops > 0.0, "{}: {}", k.name(), e.mflops);
        }
    }
}
