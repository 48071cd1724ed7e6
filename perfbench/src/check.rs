//! The output check: every kernel the daemon served is rebuilt from its
//! config tag through `tune::config`, compared with the served text, and
//! run on seeded inputs in `FuncSim` against hand-written reference loops
//! (`augem_kernels::reference`, `augem_blas::naive`), never against the
//! compiler under test.

use crate::family::{asm_text, Candidate, Family};
use crate::stats::Rng;
use augem::asm::AsmKernel;
use augem::blas::naive;
use augem::kernels::{ref_axpy, ref_dot, ref_gemm_packed, ref_gemv_colmajor};
use augem::sim::{FuncSim, SimValue};
use augem::tune::VectorKernel;

/// Inputs are multiples of 1/8 in [-2, 2] and shapes stay small, so every
/// exact sum of products is representable and any summation order (split
/// accumulators, FMA) gives the reference bit-for-bit. The tolerance only
/// guards against that argument being wrong by a rounding.
const REL_TOL: f64 = 1e-12;

/// Seeded shapes per served kernel; they cover main and remainder loops.
const SHAPES: usize = 4;

/// What the daemon answered for one family (first response wins; every
/// later one must agree).
#[derive(Debug, Clone)]
pub struct Served {
    pub config: String,
    pub mflops: f64,
    /// Only `op: generate` responses carry assembly.
    pub asm: Option<String>,
}

/// Rebuilds `served` from its tag and checks it; `Err` says what differs.
pub fn check_served(fam: Family, served: &Served, seed: u64) -> Result<(), String> {
    let machine = fam.machine();
    let cand = fam
        .config_for_tag(&served.config)
        .ok_or_else(|| format!("{}: unknown config tag {:?}", fam.label(), served.config))?;
    let built = cand.build_logged(&machine)?;
    if let Some(asm) = &served.asm {
        if *asm != asm_text(&built.asm, &machine) {
            return Err(format!(
                "{}: served asm differs from the rebuild of {:?}",
                fam.label(),
                served.config
            ));
        }
    }
    let mut rng = Rng::new(seed, &format!("check {} {}", fam.label(), served.config));
    for _ in 0..SHAPES {
        run_against_reference(&cand, &built.asm, fam, &mut rng)
            .map_err(|e| format!("{} {}: {e}", fam.label(), served.config))?;
    }
    Ok(())
}

fn run_against_reference(
    cand: &Candidate,
    asm: &AsmKernel,
    fam: Family,
    rng: &mut Rng,
) -> Result<(), String> {
    let int = |v: usize| SimValue::Int(v as i64);
    let sim = FuncSim::new(fam.machine().isa);
    let run = |args: Vec<SimValue>, out: usize| -> Result<Vec<f64>, String> {
        let (arrays, _) = sim.run(asm, args).map_err(|e| format!("FuncSim: {e:?}"))?;
        arrays
            .into_iter()
            .nth(out)
            .ok_or_else(|| "missing output array".to_string())
    };
    // Extents reach past two unrolled trips, so remainder paths run too;
    // leading dimensions exceed the extents, so stride bugs show.
    let (got, want) = match cand {
        Candidate::Gemm(c) => {
            let mr = 1 + rng.below(3 * c.mu);
            let nr = 1 + rng.below(3 * c.nu);
            let kc = 1 + rng.below(4 * c.ku + 4);
            let (mc, ldb, ldc) = (mr + 2, nr + 1, mr + 3);
            let (a, b, c0) = (fill(rng, mc * kc), fill(rng, kc * ldb), fill(rng, ldc * nr));
            let mut want = c0.clone();
            ref_gemm_packed(mr, nr, kc, mc, ldb, ldc, &a, &b, &mut want);
            let args = vec![
                int(mr),
                int(nr),
                int(kc),
                int(mc),
                int(ldb),
                int(ldc),
                SimValue::Array(a),
                SimValue::Array(b),
                SimValue::Array(c0),
            ];
            (run(args, 2)?, want)
        }
        Candidate::Vector(v) => {
            let long = 1 + rng.below(8 * v.unroll + 8);
            let (m, n) = (1 + rng.below(4 * v.unroll + 8), 1 + rng.below(6));
            let lda = m + 1;
            let alpha = rng.dyadic();
            match v.kernel {
                VectorKernel::Axpy => {
                    let (x, y) = (fill(rng, long), fill(rng, long));
                    let mut want = y.clone();
                    ref_axpy(alpha, &x, &mut want);
                    let args = vec![
                        int(long),
                        SimValue::F64(alpha),
                        SimValue::Array(x),
                        SimValue::Array(y),
                    ];
                    (run(args, 1)?, want)
                }
                VectorKernel::Dot => {
                    let (x, y) = (fill(rng, long), fill(rng, long));
                    let want = vec![alpha + ref_dot(&x, &y)];
                    let args = vec![
                        int(long),
                        SimValue::Array(x),
                        SimValue::Array(y),
                        SimValue::Array(vec![alpha]),
                    ];
                    (run(args, 2)?, want)
                }
                VectorKernel::Gemv => {
                    let (a, x, y) = (fill(rng, lda * n), fill(rng, n), fill(rng, m));
                    let mut want = y.clone();
                    ref_gemv_colmajor(m, n, lda, &a, &x, &mut want);
                    let args = vec![
                        int(m),
                        int(n),
                        int(lda),
                        SimValue::Array(a),
                        SimValue::Array(x),
                        SimValue::Array(y),
                    ];
                    (run(args, 2)?, want)
                }
                VectorKernel::Ger => {
                    let (x, y, a) = (fill(rng, m), fill(rng, n), fill(rng, lda * n));
                    let mut want = a.clone();
                    naive::ger(m, n, 1.0, &x, &y, &mut want, lda);
                    let args = vec![
                        int(m),
                        int(n),
                        int(lda),
                        SimValue::Array(x),
                        SimValue::Array(y),
                        SimValue::Array(a),
                    ];
                    (run(args, 2)?, want)
                }
                VectorKernel::Scal => {
                    let y = fill(rng, long);
                    // Hand-written: neither reference module has a scale loop.
                    let want: Vec<f64> = y.iter().map(|v| v * alpha).collect();
                    let args = vec![int(long), SimValue::F64(alpha), SimValue::Array(y)];
                    (run(args, 0)?, want)
                }
            }
        }
    };
    if got.len() != want.len() {
        return Err(format!(
            "{} outputs, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if (g - w).abs() > REL_TOL * w.abs().max(1.0) {
            return Err(format!("element {i}: {g} vs reference {w}"));
        }
    }
    Ok(())
}

fn fill(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.dyadic()).collect()
}
