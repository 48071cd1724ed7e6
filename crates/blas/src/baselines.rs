//! Comparison-library models (see DESIGN.md's substitution table).
//!
//! The paper benchmarks against binaries we cannot run (Intel MKL, AMD
//! ACML) and libraries whose defining constraints we *can* express (ATLAS,
//! GotoBLAS2 1.13). Each library is modeled as a kernel-generation
//! configuration fed through the same pipeline and simulator as AUGEM:
//!
//! * **AUGEM** — the full framework: empirically tuned unroll factors,
//!   strategy, prefetch distances (the paper's contribution).
//! * **Vendor** (MKL on Sandy Bridge / ACML with `ACML_FMA=3` on
//!   Piledriver) — expert assembly: full ISA, the known-good shape for the
//!   microarchitecture, but *fixed* parameters rather than per-machine
//!   empirical search. The paper attributes its 1–4 % win over vendors to
//!   exactly this tuning margin.
//! * **ATLAS 3.11.8** — code-generator + general-purpose compiler:
//!   vectorized but with a conservative fixed unroll, no software
//!   prefetch, no hand instruction scheduling, and a single shared
//!   register pool-style allocation discipline.
//! * **GotoBLAS2 1.13** — expert SSE2 assembly frozen before AVX/FMA
//!   existed: the same generator *clamped to SSE*, which is precisely the
//!   paper's explanation of its ~47–90 % deficit ("it lacks support for
//!   the AVX and FMA instructions since it was no longer actively
//!   maintained").

use augem_machine::{MachineSpec, Microarch, SimdMode};
use augem_opt::{FmaPolicy, StrategyPref};
use augem_transforms::PrefetchConfig;
use augem_tune::config::{GemmConfig, VectorConfig, VectorKernel};
use augem_tune::{tune_gemm, tune_vector};

/// The five libraries of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Library {
    Augem,
    Vendor,
    Atlas,
    Goto,
}

impl Library {
    pub const ALL: [Library; 4] = [
        Library::Augem,
        Library::Vendor,
        Library::Atlas,
        Library::Goto,
    ];

    /// Display name as in the paper's figure legends.
    pub fn display_name(self, machine: &MachineSpec) -> &'static str {
        match (self, machine.arch) {
            (Library::Augem, _) => "AUGEM",
            (Library::Vendor, Microarch::SandyBridge) => "MKL 11.0",
            (Library::Vendor, Microarch::Piledriver) => "ACML 5.3.0",
            (Library::Atlas, _) => "ATLAS 3.11.8",
            (Library::Goto, _) => "GotoBLAS 1.13",
        }
    }

    /// The machine view the library's kernels target (GotoBLAS never
    /// emits AVX).
    pub fn effective_machine(self, machine: &MachineSpec) -> MachineSpec {
        match self {
            Library::Goto => machine.with_isa_clamped(SimdMode::Sse),
            _ => machine.clone(),
        }
    }

    /// GEMM kernel configuration for this library on `machine`. AUGEM
    /// runs the empirical tuner; the others use fixed configurations per
    /// the model above.
    pub fn gemm_config(self, machine: &MachineSpec) -> GemmConfig {
        let eff = self.effective_machine(machine);
        let w = eff.simd_mode().f64_lanes();
        match self {
            Library::Augem => tune_gemm(&eff).unwrap_or_else(|e| panic!("{e}")).best,
            Library::Vendor => GemmConfig {
                mu: 2 * w,
                nu: 4,
                ku: 1,
                strategy: StrategyPref::Vdup,
                fma: FmaPolicy::Auto,
                prefetch: PrefetchConfig {
                    read_dist: Some(32),
                    write_prefetch: true,
                    locality: 3,
                },
                schedule: true,
            },
            Library::Atlas => GemmConfig {
                mu: 2 * w,
                nu: 4,
                ku: 2,
                strategy: StrategyPref::Vdup,
                fma: FmaPolicy::Auto,
                prefetch: PrefetchConfig::disabled(),
                schedule: false,
            },
            // GotoBLAS kernels were expertly tuned for their (pre-AVX)
            // era: give them the full empirical search, on SSE.
            Library::Goto => tune_gemm(&eff).unwrap_or_else(|e| panic!("{e}")).best,
        }
    }

    /// Vector-kernel (Level-1/2) configuration for this library.
    pub fn vector_config(self, kernel: VectorKernel, machine: &MachineSpec) -> VectorConfig {
        let eff = self.effective_machine(machine);
        let w = eff.simd_mode().f64_lanes();
        match self {
            Library::Augem => {
                tune_vector(kernel, &eff)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .best
            }
            Library::Vendor => VectorConfig {
                kernel,
                unroll: 2 * w,
                prefetch: PrefetchConfig {
                    read_dist: Some(32),
                    write_prefetch: false,
                    locality: 3,
                },
                schedule: true,
            },
            Library::Atlas => VectorConfig {
                kernel,
                unroll: 2 * w,
                prefetch: PrefetchConfig::disabled(),
                schedule: false,
            },
            Library::Goto => VectorConfig {
                kernel,
                unroll: 2 * w,
                prefetch: PrefetchConfig {
                    read_dist: Some(64),
                    write_prefetch: false,
                    locality: 3,
                },
                schedule: true,
            },
        }
    }
}

/// Convenience bundle: all four kernel configurations for one library on
/// one machine (AUGEM's entries are tuner output; the rest are fixed).
#[derive(Debug, Clone)]
pub struct LibraryKernels {
    pub library: Library,
    pub machine: MachineSpec,
    pub gemm: GemmConfig,
    pub axpy: VectorConfig,
    pub dot: VectorConfig,
    pub gemv: VectorConfig,
}

impl LibraryKernels {
    pub fn build(library: Library, machine: &MachineSpec) -> Self {
        LibraryKernels {
            library,
            machine: machine.clone(),
            gemm: library.gemm_config(machine),
            axpy: library.vector_config(VectorKernel::Axpy, machine),
            dot: library.vector_config(VectorKernel::Dot, machine),
            gemv: library.vector_config(VectorKernel::Gemv, machine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_tune::Candidate;

    #[test]
    fn goto_is_clamped_to_sse() {
        let m = MachineSpec::sandy_bridge();
        let eff = Library::Goto.effective_machine(&m);
        assert_eq!(eff.simd_mode(), SimdMode::Sse);
        assert!(!eff.isa.has_fma());
        // Everyone else keeps AVX.
        for lib in [Library::Vendor, Library::Atlas] {
            assert_eq!(lib.effective_machine(&m).simd_mode(), SimdMode::Avx);
        }
    }

    #[test]
    fn display_names_match_paper_legends() {
        let snb = MachineSpec::sandy_bridge();
        let pd = MachineSpec::piledriver();
        assert_eq!(Library::Vendor.display_name(&snb), "MKL 11.0");
        assert_eq!(Library::Vendor.display_name(&pd), "ACML 5.3.0");
        assert_eq!(Library::Goto.display_name(&snb), "GotoBLAS 1.13");
    }

    #[test]
    fn fixed_library_configs_build() {
        for m in MachineSpec::paper_platforms() {
            for lib in [Library::Vendor, Library::Atlas, Library::Goto] {
                let eff = lib.effective_machine(&m);
                let cfg = lib.gemm_config(&m);
                cfg.build(&eff)
                    .unwrap_or_else(|e| panic!("{lib:?} gemm on {}: {e}", m.arch.short_name()));
                for k in [VectorKernel::Axpy, VectorKernel::Dot, VectorKernel::Gemv] {
                    lib.vector_config(k, &m)
                        .build(&eff)
                        .unwrap_or_else(|e| panic!("{lib:?} {} : {e}", k.name()));
                }
            }
        }
    }
}
