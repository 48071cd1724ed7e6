//! The 12 kernel × machine families the daemon serves, and the tuner
//! candidate type that rebuilds any of them from its config tag.

use augem::asm::AsmKernel;
use augem::ir::Kernel;
use augem::machine::MachineSpec;
use augem::opt::CodegenOptions;
use augem::sim::SimValue;
use augem::transforms::OptimizeConfig;
use augem::tune::config::{gemm_candidates, vector_candidates, GemmConfig, VectorConfig};
use augem::tune::evaluate::{gemm_eval_args, vector_eval_args};
use augem::tune::{LoggedBuild, VectorKernel};
use augem::verify::EquivSpec;
use augem::DlaKernel;

const KERNELS: [&str; 6] = ["dgemm", "dgemv", "dger", "daxpy", "ddot", "dscal"];
const MACHINES: [&str; 2] = ["snb", "pd"];

/// Index `2 * kernel + machine` into [`KERNELS`] × [`MACHINES`]; the two
/// dgemm families are 0 (Sandy Bridge) and 1 (Piledriver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Family(pub usize);

impl Family {
    pub const COUNT: usize = 12;

    pub fn all() -> impl Iterator<Item = Family> {
        (0..Self::COUNT).map(Family)
    }

    pub fn kernel_name(self) -> &'static str {
        KERNELS[self.0 / 2]
    }

    pub fn machine_name(self) -> &'static str {
        MACHINES[self.0 % 2]
    }

    pub fn is_gemm(self) -> bool {
        self.0 < 2
    }

    pub fn is_snb(self) -> bool {
        self.0.is_multiple_of(2)
    }

    pub fn kernel(self) -> DlaKernel {
        augem_serve::proto::parse_kernel(self.kernel_name()).expect("KERNELS are wire names")
    }

    pub fn machine(self) -> MachineSpec {
        augem_serve::proto::parse_machine(self.machine_name()).expect("MACHINES are wire names")
    }

    pub fn label(self) -> String {
        format!("{}@{}", self.kernel_name(), self.machine_name())
    }

    /// The tuner's candidate list for this family, in sweep order.
    pub fn candidates(self) -> Vec<Candidate> {
        let machine = self.machine();
        match self.kernel() {
            DlaKernel::Gemm => gemm_candidates(&machine)
                .into_iter()
                .map(Candidate::Gemm)
                .collect(),
            k => vector_candidates(vector_kernel(k), &machine)
                .into_iter()
                .map(Candidate::Vector)
                .collect(),
        }
    }

    /// The configuration whose tag the daemon served: a sweep candidate,
    /// or the paper default the degradation ladder falls back to.
    pub fn config_for_tag(self, tag: &str) -> Option<Candidate> {
        let fallback = match self.kernel() {
            DlaKernel::Gemm => Candidate::Gemm(GemmConfig::fig13()),
            k => Candidate::Vector(VectorConfig {
                kernel: vector_kernel(k),
                unroll: self.machine().simd_mode().f64_lanes(),
                prefetch: augem::transforms::PrefetchConfig::disabled(),
                schedule: true,
            }),
        };
        self.candidates()
            .into_iter()
            .chain([fallback])
            .find(|c| c.tag() == tag)
    }
}

fn vector_kernel(k: DlaKernel) -> VectorKernel {
    match k {
        DlaKernel::Axpy => VectorKernel::Axpy,
        DlaKernel::Dot => VectorKernel::Dot,
        DlaKernel::Ger => VectorKernel::Ger,
        DlaKernel::Scal => VectorKernel::Scal,
        _ => VectorKernel::Gemv,
    }
}

/// One point of a family's tuning space.
#[derive(Debug, Clone, Copy)]
pub enum Candidate {
    Gemm(GemmConfig),
    Vector(VectorConfig),
}

impl Candidate {
    pub fn tag(&self) -> String {
        match self {
            Candidate::Gemm(c) => c.tag(),
            Candidate::Vector(c) => c.tag(),
        }
    }

    /// The whole pipeline in one public call (the output check's
    /// rebuild).
    pub fn build_logged(&self, machine: &MachineSpec) -> Result<LoggedBuild, String> {
        match self {
            Candidate::Gemm(c) => c.build_logged(machine),
            Candidate::Vector(c) => c.build_logged(machine),
        }
        .map_err(|e| e.to_string())
    }

    pub fn transform_inputs(&self) -> (Kernel, OptimizeConfig) {
        match self {
            Candidate::Gemm(c) => c.transform_inputs(),
            Candidate::Vector(c) => c.transform_inputs(),
        }
    }

    /// The code-generation options `tune::config` derives from this
    /// configuration. They are private there, so the traced run rebuilds
    /// them from the public fields; the output check proves the result
    /// identical by comparing the winner's assembly with the served text.
    pub fn codegen_options(&self) -> CodegenOptions {
        match self {
            Candidate::Gemm(c) => CodegenOptions {
                strategy: c.strategy,
                fma: c.fma,
                schedule: c.schedule,
                ..Default::default()
            },
            Candidate::Vector(c) => CodegenOptions {
                schedule: c.schedule,
                ..Default::default()
            },
        }
    }

    /// The tuner's micro-problem and its useful-flop count.
    pub fn eval_args(&self) -> (Vec<SimValue>, u64) {
        match self {
            Candidate::Gemm(c) => gemm_eval_args(c),
            Candidate::Vector(c) => vector_eval_args(c),
        }
    }

    /// GEMM is timed on a pre-warmed cache (packed operands), the vector
    /// kernels cold (streaming), as in `tune::evaluate`.
    pub fn warm_cache(&self) -> bool {
        matches!(self, Candidate::Gemm(_))
    }

    pub fn equiv_spec(&self) -> EquivSpec {
        match self {
            Candidate::Gemm(c) => c.equiv_spec(),
            Candidate::Vector(c) => c.equiv_spec(),
        }
    }
}

/// The AT&T text the daemon serves for a kernel.
pub fn asm_text(asm: &AsmKernel, machine: &MachineSpec) -> String {
    augem::asm::emit::emit_att(asm, &machine.isa)
}
