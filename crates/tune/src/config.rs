//! Tunable kernel configurations and candidate generation.

use crate::evaluate::{gemm_eval_args, vector_eval_args};
use augem_asm::AsmKernel;
use augem_ir::Kernel;
use augem_kernels::{
    axpy_simple, dot_simple, gemm_simple, gemv_simple, ger_simple, scal_simple, DlaKernel,
};
use augem_machine::{MachineSpec, SimdMode};
use augem_opt::{CodegenError, CodegenOptions, FmaPolicy, StrategyPref};
use augem_sim::SimValue;
use augem_transforms::{OptimizeConfig, PrefetchConfig, TransformError};
use augem_verify::{EquivArg, EquivSpec};

/// A point in the GEMM tuning space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmConfig {
    /// unroll&jam factor of the column loop `j` (Nr direction).
    pub nu: usize,
    /// unroll&jam factor of the row loop `i` (Mr direction).
    pub mu: usize,
    /// inner (`l`) unrolling factor (1 = off, as in Figure 13).
    pub ku: usize,
    pub strategy: StrategyPref,
    pub fma: FmaPolicy,
    pub prefetch: PrefetchConfig,
    pub schedule: bool,
}

impl GemmConfig {
    /// The paper's Figure 13 starting point.
    pub fn fig13() -> Self {
        GemmConfig {
            nu: 2,
            mu: 2,
            ku: 1,
            strategy: StrategyPref::Vdup,
            fma: FmaPolicy::Auto,
            prefetch: PrefetchConfig::default(),
            schedule: true,
        }
    }

    /// Human-readable tag for reports.
    pub fn tag(&self) -> String {
        format!(
            "{}x{}x{} {:?} {:?} pf={} sched={}",
            self.mu,
            self.nu,
            self.ku,
            self.strategy,
            self.fma,
            self.prefetch
                .read_dist
                .map(|d| d.to_string())
                .unwrap_or_else(|| "off".into()),
            self.schedule
        )
    }

    /// The transform half of the pipeline this configuration drives: the
    /// simple source kernel and the optimization recipe. What the depan
    /// legality filter checks without paying for code generation.
    pub fn transform_inputs(&self) -> (Kernel, OptimizeConfig) {
        let mut cfg = OptimizeConfig::gemm(self.nu, self.mu, self.ku);
        cfg.prefetch = self.prefetch;
        (gemm_simple(), cfg)
    }

    /// [`Candidate::build_logged_traced`] without tracing — kept inherent
    /// so callers need not import the trait.
    pub fn build_logged(&self, machine: &MachineSpec) -> Result<LoggedBuild, BuildError> {
        self.build_logged_traced(machine, augem_obs::null())
    }

    /// The translation-validation problem instance for this
    /// configuration: the smallest shape that drives every unrolled body
    /// *and* every remainder path (each unrolled dimension gets
    /// `2*factor + 1` iterations — two main-loop trips plus a nonzero
    /// remainder), with symbolic array contents.
    ///
    /// Parameter order matches `gemm_simple`:
    /// `(Mr, Nr, Kc, Mc, LDB, LDC, A, B, C)`.
    pub fn equiv_spec(&self) -> EquivSpec {
        let mr = 2 * self.mu + 1;
        let nr = 2 * self.nu + 1;
        let kc = 2 * self.ku.max(1) + 1;
        // Leading dimensions strictly larger than the accessed extents,
        // so stride bugs shift results instead of hiding.
        let mc = mr + 1;
        let ldb = nr + 2;
        let ldc = mr + 3;
        EquivSpec::new(vec![
            EquivArg::Int(mr as i64),
            EquivArg::Int(nr as i64),
            EquivArg::Int(kc as i64),
            EquivArg::Int(mc as i64),
            EquivArg::Int(ldb as i64),
            EquivArg::Int(ldc as i64),
            EquivArg::Array(mc * kc),
            EquivArg::Array(kc * ldb),
            EquivArg::Array(ldc * nr),
        ])
    }
}

/// Which vector-style kernel a [`VectorConfig`] tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorKernel {
    Axpy,
    Dot,
    Gemv,
    Ger,
    Scal,
}

impl VectorKernel {
    pub fn name(self) -> &'static str {
        match self {
            VectorKernel::Axpy => "daxpy",
            VectorKernel::Dot => "ddot",
            VectorKernel::Gemv => "dgemv",
            VectorKernel::Ger => "dger",
            VectorKernel::Scal => "dscal",
        }
    }
}

/// A point in the Level-1/2 tuning space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorConfig {
    pub kernel: VectorKernel,
    pub unroll: usize,
    pub prefetch: PrefetchConfig,
    pub schedule: bool,
}

impl VectorConfig {
    pub fn tag(&self) -> String {
        format!(
            "{} u{} pf={} sched={}",
            self.kernel.name(),
            self.unroll,
            self.prefetch
                .read_dist
                .map(|d| d.to_string())
                .unwrap_or_else(|| "off".into()),
            self.schedule
        )
    }

    /// [`Candidate::build_logged_traced`] without tracing (see
    /// [`GemmConfig::build_logged`]).
    pub fn build_logged(&self, machine: &MachineSpec) -> Result<LoggedBuild, BuildError> {
        self.build_logged_traced(machine, augem_obs::null())
    }

    /// The translation-validation problem instance for this
    /// configuration. The unrolled direction gets `2*unroll + 3`
    /// iterations — at least two main-loop trips plus a nonzero
    /// remainder — and matrix kernels get a small second extent with a
    /// leading dimension one past the accessed rows.
    pub fn equiv_spec(&self) -> EquivSpec {
        let u = 2 * self.unroll + 3;
        let args = match self.kernel {
            // daxpy(n, alpha, X, Y)
            VectorKernel::Axpy => vec![
                EquivArg::Int(u as i64),
                EquivArg::SymF64,
                EquivArg::Array(u),
                EquivArg::Array(u),
            ],
            // ddot(n, X, Y, R)
            VectorKernel::Dot => vec![
                EquivArg::Int(u as i64),
                EquivArg::Array(u),
                EquivArg::Array(u),
                EquivArg::Array(1),
            ],
            // dgemv(m, n, LDA, A, X, Y) — inner (unrolled) loop over m.
            VectorKernel::Gemv => {
                let (m, n, lda) = (u, 3usize, u + 1);
                vec![
                    EquivArg::Int(m as i64),
                    EquivArg::Int(n as i64),
                    EquivArg::Int(lda as i64),
                    EquivArg::Array(lda * n),
                    EquivArg::Array(n),
                    EquivArg::Array(m),
                ]
            }
            // dger(m, n, LDA, X, Y, A) — inner (unrolled) loop over m.
            VectorKernel::Ger => {
                let (m, n, lda) = (u, 3usize, u + 1);
                vec![
                    EquivArg::Int(m as i64),
                    EquivArg::Int(n as i64),
                    EquivArg::Int(lda as i64),
                    EquivArg::Array(m),
                    EquivArg::Array(n),
                    EquivArg::Array(lda * n),
                ]
            }
            // dscal(n, alpha, Y)
            VectorKernel::Scal => vec![
                EquivArg::Int(u as i64),
                EquivArg::SymF64,
                EquivArg::Array(u),
            ],
        };
        EquivSpec::new(args)
    }

    /// The transform half of the pipeline this configuration drives (see
    /// [`GemmConfig::transform_inputs`]).
    pub fn transform_inputs(&self) -> (Kernel, OptimizeConfig) {
        let (kernel, mut cfg): (Kernel, OptimizeConfig) = match self.kernel {
            VectorKernel::Axpy => (axpy_simple(), OptimizeConfig::vector(self.unroll, false)),
            VectorKernel::Dot => (dot_simple(), OptimizeConfig::vector(self.unroll, true)),
            VectorKernel::Gemv => (gemv_simple(), OptimizeConfig::gemv(self.unroll)),
            // GER's inner loop runs over i (rows); SCAL over its only loop i.
            VectorKernel::Ger => (ger_simple(), OptimizeConfig::vector(self.unroll, false)),
            VectorKernel::Scal => (scal_simple(), OptimizeConfig::vector(self.unroll, false)),
        };
        cfg.prefetch = self.prefetch;
        (kernel, cfg)
    }
}

/// One point of a tuning space: everything the sweep, the evaluation
/// cache and the facade need to know about a kernel family, and nothing
/// else. [`GemmConfig`] and [`VectorConfig`] are the two families; the
/// sweep ([`crate::sweep`]), the cache ([`EvalCache::logged`],
/// [`EvalCache::evaluate`], [`EvalCache::profile`]) and the legality
/// verdict ([`crate::reject_logged`]) are written once against this
/// trait.
///
/// The trait is object safe, so the facade can carry a winner of either
/// family as `&dyn Candidate`.
///
/// [`EvalCache::logged`]: crate::EvalCache::logged
/// [`EvalCache::evaluate`]: crate::EvalCache::evaluate
/// [`EvalCache::profile`]: crate::EvalCache::profile
pub trait Candidate: Send + Sync {
    /// Human-readable tag: the report label and the journal and cache key.
    fn tag(&self) -> String;
    /// The circuit-breaker family: candidates that share a shape and so
    /// tend to fail together.
    fn family(&self) -> String;
    /// Which DLA kernel this candidate implements.
    fn kernel(&self) -> DlaKernel;
    /// The simple source kernel and the source-to-source recipe.
    fn transform_inputs(&self) -> (Kernel, OptimizeConfig);
    /// The code-generation half of the recipe.
    fn codegen_options(&self) -> CodegenOptions;
    /// The evaluation micro-problem's arguments and useful-flop count.
    fn eval_args(&self) -> (Vec<SimValue>, u64);
    /// Is the micro-problem timed warm (cache-resident steady state) or
    /// cold (streaming)?
    fn warm_cache(&self) -> bool;
    /// The translation-validation problem instance.
    fn equiv_spec(&self) -> EquivSpec;

    /// Runs the full pipeline for this configuration.
    fn build(&self, machine: &MachineSpec) -> Result<AsmKernel, BuildError> {
        self.build_traced(machine, augem_obs::null())
    }

    /// [`build`](Candidate::build) with stage tracing.
    fn build_traced(
        &self,
        machine: &MachineSpec,
        tracer: &dyn augem_obs::Tracer,
    ) -> Result<AsmKernel, BuildError> {
        let (kernel, cfg) = self.transform_inputs();
        build_pipeline_traced(&kernel, &cfg, &self.codegen_options(), machine, tracer)
    }

    /// [`build_traced`](Candidate::build_traced) keeping every artifact
    /// the static verifier consumes — the entry point the evaluation
    /// cache fills itself through.
    fn build_logged_traced(
        &self,
        machine: &MachineSpec,
        tracer: &dyn augem_obs::Tracer,
    ) -> Result<LoggedBuild, BuildError> {
        let (kernel, cfg) = self.transform_inputs();
        build_pipeline_logged(&kernel, &cfg, &self.codegen_options(), machine, tracer)
    }
}

impl Candidate for GemmConfig {
    fn tag(&self) -> String {
        GemmConfig::tag(self)
    }
    fn family(&self) -> String {
        format!("{}x{}", self.mu, self.nu)
    }
    fn kernel(&self) -> DlaKernel {
        DlaKernel::Gemm
    }
    fn transform_inputs(&self) -> (Kernel, OptimizeConfig) {
        GemmConfig::transform_inputs(self)
    }
    fn codegen_options(&self) -> CodegenOptions {
        CodegenOptions {
            strategy: self.strategy,
            fma: self.fma,
            schedule: self.schedule,
            ..Default::default()
        }
    }
    fn eval_args(&self) -> (Vec<SimValue>, u64) {
        gemm_eval_args(self)
    }
    /// Packed GEMM operands are cache-resident by construction.
    fn warm_cache(&self) -> bool {
        true
    }
    fn equiv_spec(&self) -> EquivSpec {
        GemmConfig::equiv_spec(self)
    }
}

impl Candidate for VectorConfig {
    fn tag(&self) -> String {
        VectorConfig::tag(self)
    }
    fn family(&self) -> String {
        format!("u{}", self.unroll)
    }
    fn kernel(&self) -> DlaKernel {
        match self.kernel {
            VectorKernel::Axpy => DlaKernel::Axpy,
            VectorKernel::Dot => DlaKernel::Dot,
            VectorKernel::Gemv => DlaKernel::Gemv,
            VectorKernel::Ger => DlaKernel::Ger,
            VectorKernel::Scal => DlaKernel::Scal,
        }
    }
    fn transform_inputs(&self) -> (Kernel, OptimizeConfig) {
        VectorConfig::transform_inputs(self)
    }
    fn codegen_options(&self) -> CodegenOptions {
        CodegenOptions {
            strategy: StrategyPref::Vdup,
            fma: FmaPolicy::Auto,
            schedule: self.schedule,
            ..Default::default()
        }
    }
    fn eval_args(&self) -> (Vec<SimValue>, u64) {
        vector_eval_args(self)
    }
    /// Level-1/2 kernels stream at the paper's sizes: timed cold.
    fn warm_cache(&self) -> bool {
        false
    }
    fn equiv_spec(&self) -> EquivSpec {
        VectorConfig::equiv_spec(self)
    }
}

/// Pipeline failure (either half).
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    Transform(TransformError),
    Codegen(CodegenError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Transform(e) => write!(f, "transform: {e}"),
            BuildError::Codegen(e) => write!(f, "codegen: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Simple C → optimized C → tagged → assembly, with each stage traced
/// (`cgen` → `identify` → `akg` spans, plus their counters and gauges).
pub fn build_pipeline_traced(
    simple: &Kernel,
    cfg: &OptimizeConfig,
    opts: &CodegenOptions,
    machine: &MachineSpec,
    tracer: &dyn augem_obs::Tracer,
) -> Result<AsmKernel, BuildError> {
    let mut k = augem_transforms::generate_optimized_traced(simple, cfg, tracer)
        .map_err(BuildError::Transform)?;
    augem_templates::identify_traced(&mut k, tracer);
    augem_opt::generate_traced(&k, machine, opts, tracer).map_err(BuildError::Codegen)
}

/// One compilation with every artifact the static verifier needs: the
/// template-tagged IR kernel, the final assembly, and the allocator's
/// decision log.
#[derive(Debug, Clone)]
pub struct LoggedBuild {
    /// The *simple* pre-transform kernel — the source side of
    /// translation validation, so the proof covers the source-to-source
    /// transforms as well as code generation.
    pub source: Kernel,
    /// The optimized, template-tagged low-level C kernel.
    pub kernel: Kernel,
    /// The final (scheduled) assembly kernel.
    pub asm: AsmKernel,
    /// The register-allocation decision log.
    pub log: augem_opt::BindingLog,
    /// The transform-pass record (one step per applied pass, with
    /// before/after snapshots) — what `augem-depan` replays to prove the
    /// source-to-source half legal. Note `kernel` is post-`identify`
    /// (Regions added), so the log's chain ends one stage earlier.
    pub tlog: augem_transforms::TransformLog,
}

/// [`build_pipeline_traced`] that keeps the simple source, the tagged
/// kernel and the binding log alongside the assembly, for
/// `verify::check` and `verify::check_equivalence`.
pub fn build_pipeline_logged(
    simple: &Kernel,
    cfg: &OptimizeConfig,
    opts: &CodegenOptions,
    machine: &MachineSpec,
    tracer: &dyn augem_obs::Tracer,
) -> Result<LoggedBuild, BuildError> {
    let (mut k, tlog) = augem_transforms::generate_optimized_logged(simple, cfg, tracer)
        .map_err(BuildError::Transform)?;
    augem_templates::identify_traced(&mut k, tracer);
    let (asm, log) =
        augem_opt::generate_with_log(&k, machine, opts, tracer).map_err(BuildError::Codegen)?;
    Ok(LoggedBuild {
        source: simple.clone(),
        kernel: k,
        asm,
        log,
        tlog,
    })
}

/// GEMM candidate set for a machine's SIMD width (the tuner's search
/// space). Shapes that cannot vectorize on the machine are omitted.
pub fn gemm_candidates(machine: &MachineSpec) -> Vec<GemmConfig> {
    let w = machine.simd_mode().f64_lanes();
    let shapes: &[(usize, usize)] = if machine.simd_mode() == SimdMode::Avx {
        &[
            (4, 1),
            (4, 2),
            (4, 4),
            (8, 1),
            (8, 2),
            (8, 3),
            (8, 4),
            (12, 2),
        ]
    } else {
        &[
            (2, 1),
            (2, 2),
            (2, 4),
            (4, 2),
            (4, 3),
            (4, 4),
            (6, 2),
            (8, 2),
        ]
    };
    let mut out = Vec::new();
    for &(mu, nu) in shapes {
        for ku in [1usize, 2] {
            for strategy in [StrategyPref::Vdup, StrategyPref::Shuf] {
                if strategy == StrategyPref::Shuf && (mu != w || nu != w) {
                    continue;
                }
                for pf in [PrefetchConfig::default(), PrefetchConfig::disabled()] {
                    out.push(GemmConfig {
                        nu,
                        mu,
                        ku,
                        strategy,
                        fma: FmaPolicy::Auto,
                        prefetch: pf,
                        schedule: true,
                    });
                }
            }
        }
    }
    out
}

/// Vector-kernel candidate set.
pub fn vector_candidates(kernel: VectorKernel, machine: &MachineSpec) -> Vec<VectorConfig> {
    let w = machine.simd_mode().f64_lanes();
    let mut out = Vec::new();
    for unroll in [w, 2 * w, 4 * w] {
        for dist in [None, Some(32i64), Some(64), Some(128)] {
            let prefetch = match dist {
                None => PrefetchConfig::disabled(),
                Some(d) => PrefetchConfig {
                    read_dist: Some(d),
                    write_prefetch: false,
                    locality: 3,
                },
            };
            out.push(VectorConfig {
                kernel,
                unroll,
                prefetch,
                schedule: true,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_sets_are_nonempty_and_buildable_mostly() {
        for m in MachineSpec::paper_platforms() {
            let cands = gemm_candidates(&m);
            assert!(cands.len() >= 10);
            let ok = cands.iter().filter(|c| c.build(&m).is_ok()).count();
            assert!(
                ok * 2 >= cands.len(),
                "most GEMM candidates should build on {}: {ok}/{}",
                m.arch.short_name(),
                cands.len()
            );
        }
    }

    #[test]
    fn shuf_candidates_only_square_width_shapes() {
        let m = MachineSpec::sandy_bridge();
        for c in gemm_candidates(&m) {
            if c.strategy == StrategyPref::Shuf {
                assert_eq!(c.mu, 4);
                assert_eq!(c.nu, 4);
            }
        }
    }

    #[test]
    fn vector_candidates_build() {
        let m = MachineSpec::piledriver();
        for k in [VectorKernel::Axpy, VectorKernel::Dot, VectorKernel::Gemv] {
            let cands = vector_candidates(k, &m);
            assert_eq!(cands.len(), 12);
            for c in &cands {
                c.build(&m)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", c.tag()));
            }
        }
    }

    #[test]
    fn fig13_config_builds_everywhere() {
        for m in MachineSpec::paper_platforms() {
            GemmConfig::fig13().build(&m).unwrap();
        }
    }
}
