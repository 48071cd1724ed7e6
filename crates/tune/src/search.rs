//! What a sweep returns, and the two zero-configuration sweeps: evaluate
//! every candidate and keep the best — the paper's "selects the best
//! performing configurations based on the performance of their optimized
//! code". The sweep itself is [`crate::sweep`].

use crate::cache::EvalCache;
use crate::config::{
    gemm_candidates, vector_candidates, Candidate, GemmConfig, VectorConfig, VectorKernel,
};
use crate::evaluate::Evaluation;
use crate::resilient::{sweep, ResilOptions};
use augem_machine::MachineSpec;
use augem_obs::{Histogram, Tracer, Value};
use augem_resil::Injector;

/// The tuner's verdict for one kernel on one machine.
#[derive(Debug, Clone)]
pub struct TuneResult<C> {
    pub best: C,
    pub best_eval: Evaluation,
    /// Every evaluated `(config, mflops)` pair, best first.
    pub ranking: Vec<(C, f64)>,
    /// Candidates the generator enumerated (evaluated + pruned).
    pub generated: usize,
    /// Candidates that failed to build or simulate: `(config tag, why)`.
    /// Some shapes legitimately exceed the register file — pruning is
    /// part of the search, not an error — but the reasons are kept so a
    /// run report can show what the search rejected.
    pub failures: Vec<(String, String)>,
    /// Wall-clock latency of every candidate evaluation the sweep ran, in
    /// nanoseconds: one sample per evaluated candidate, failures
    /// included (their latency is real sweep time too). Candidates
    /// restored from the journal, pruned, rejected, skipped by the
    /// breaker or failed in a pre-build were never evaluated and have no
    /// sample.
    pub eval_latency_ns: Histogram,
    /// What the optional phases did to the sweep.
    pub stats: SweepStats,
}

/// What a sweep's optional phases did: the bound phase
/// ([`ResilOptions::prune`]) and the legality phase
/// ([`ResilOptions::check_legality`]). Fields of a phase that did not run
/// stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Candidates that built and went through the static analyzer.
    pub analyzed: usize,
    /// Evaluations skipped because the bound proved the candidate
    /// dominated.
    pub pruned: usize,
    /// Candidates the sweep evaluated (one latency sample each).
    pub evaluated: usize,
    /// Wall-clock time spent computing static bounds. Analysis only:
    /// kernel builds are shared with the evaluation phase through the
    /// [`EvalCache`] and happen in an exhaustive sweep regardless, so this
    /// is the *incremental* cost pruning adds to a sweep.
    pub bound_ns: u64,
    /// Candidates whose transform log was built and checked (the rest
    /// failed in the pipeline itself — a build failure the sweep reports,
    /// not a legality verdict).
    pub checked: usize,
    /// Candidates rejected by a `T`-rule error.
    pub rejected: usize,
    /// Wall-clock time of the legality checking alone. The builds whose
    /// logs are checked are the sweep's own, shared with evaluation
    /// through the cache, so they are not analysis cost.
    pub check_ns: u64,
}

/// Every candidate failed: the search has nothing to rank. Carries the
/// per-candidate reasons so the caller can see *why* the space was empty
/// (the usual causes: an ISA too narrow for every shape, or a machine
/// description with too few vector registers).
#[derive(Debug, Clone)]
pub struct TuneError {
    /// Kernel being tuned (e.g. `dgemm`).
    pub kernel: String,
    /// Target microarchitecture short name.
    pub machine: String,
    /// `(config tag, failure reason)` for every candidate tried.
    pub failures: Vec<(String, String)>,
    /// The sweep was cut short (simulated crash under fault injection)
    /// rather than exhausted; a checkpoint journal, if one was being
    /// written, holds the completed prefix for resumption.
    pub interrupted: bool,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.interrupted {
            writeln!(
                f,
                "{} tuning on {} interrupted ({} candidates recorded):",
                self.kernel,
                self.machine,
                self.failures.len()
            )?;
        } else {
            writeln!(
                f,
                "no {} candidate built on {} ({} tried):",
                self.kernel,
                self.machine,
                self.failures.len()
            )?;
        }
        // Each line is self-contained — kernel and machine included — so
        // a single candidate failure stays attributable when these lines
        // are grepped out of interleaved multi-kernel logs.
        for (tag, why) in &self.failures {
            writeln!(f, "  [{}@{}] {tag}: {why}", self.kernel, self.machine)?;
        }
        Ok(())
    }
}

impl std::error::Error for TuneError {}

/// Tunes the GEMM micro-kernel for `machine`: the plain sweep
/// ([`ResilOptions::plain`]) with no checkpoint, no faults, no tracing
/// and no cache.
pub fn tune_gemm(machine: &MachineSpec) -> Result<TuneResult<GemmConfig>, TuneError> {
    plain(gemm_candidates(machine), machine)
}

/// Tunes one of the vector-style kernels for `machine` (see
/// [`tune_gemm`]).
pub fn tune_vector(
    kernel: VectorKernel,
    machine: &MachineSpec,
) -> Result<TuneResult<VectorConfig>, TuneError> {
    plain(vector_candidates(kernel, machine), machine)
}

fn plain<C: Candidate + Copy>(
    candidates: Vec<C>,
    machine: &MachineSpec,
) -> Result<TuneResult<C>, TuneError> {
    sweep(
        candidates,
        machine,
        &ResilOptions::plain(),
        None,
        &Injector::disabled(),
        augem_obs::null(),
        &EvalCache::disabled(),
    )
}

/// Sorts the evaluated candidates (given in candidate order, so the
/// stable sort breaks ties the same way on every sweep) and packages the
/// result, emitting the search telemetry along the way.
pub(crate) fn rank<C: Candidate + Copy>(
    kernel: &str,
    machine: &MachineSpec,
    evaluated: Vec<(C, Result<Evaluation, String>)>,
    tracer: &dyn Tracer,
) -> Result<TuneResult<C>, TuneError> {
    let generated = evaluated.len();
    let mut scored: Vec<(C, Evaluation)> = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    for (c, r) in evaluated {
        match r {
            Ok(e) => {
                tracer.event(
                    "tuner.candidate",
                    &[
                        ("tag", Value::from(c.tag())),
                        ("mflops", Value::from(e.mflops)),
                    ],
                );
                scored.push((c, e));
            }
            Err(why) => {
                tracer.event(
                    "tuner.candidate",
                    &[
                        ("tag", Value::from(c.tag())),
                        ("error", Value::from(why.clone())),
                    ],
                );
                failures.push((c.tag(), why));
            }
        }
    }
    tracer.add("tuner.generated", generated as u64);
    tracer.add("tuner.built", scored.len() as u64);
    tracer.add("tuner.pruned", failures.len() as u64);
    if scored.is_empty() {
        return Err(TuneError {
            kernel: kernel.to_string(),
            machine: machine.arch.short_name().to_string(),
            failures,
            interrupted: false,
        });
    }
    scored.sort_by(|a, b| b.1.mflops.partial_cmp(&a.1.mflops).unwrap());
    let ranking = scored.iter().map(|(c, e)| (*c, e.mflops)).collect();
    let (best, best_eval) = scored.into_iter().next().unwrap();
    tracer.label("tuner.best", &best.tag());
    Ok(TuneResult {
        best,
        best_eval,
        ranking,
        generated,
        failures,
        eval_latency_ns: Histogram::new(),
        stats: SweepStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::stage;

    #[test]
    fn tuned_gemm_reaches_most_of_peak_on_sandy_bridge() {
        let m = MachineSpec::sandy_bridge();
        let r = tune_gemm(&m).unwrap();
        let peak = m.peak_mflops();
        let frac = r.best_eval.mflops / peak;
        assert!(
            frac > 0.5,
            "tuned GEMM only reaches {:.1}% of peak ({} of {peak})",
            frac * 100.0,
            r.best_eval.mflops
        );
        // The winner must be a vectorizable shape on AVX.
        assert_eq!(r.best.mu % 4, 0, "winner {:?}", r.best);
        assert!(r.ranking.len() > 4);
        assert_eq!(r.generated, r.ranking.len() + r.failures.len());
    }

    #[test]
    fn tuned_gemm_on_piledriver_uses_fma_era_throughput() {
        let m = MachineSpec::piledriver();
        let r = tune_gemm(&m).unwrap();
        let frac = r.best_eval.mflops / m.peak_mflops();
        assert!(
            frac > 0.4,
            "tuned GEMM reaches {:.1}% of Piledriver peak",
            frac * 100.0
        );
    }

    #[test]
    fn tuning_orders_candidates() {
        let m = MachineSpec::sandy_bridge();
        let r = tune_vector(VectorKernel::Axpy, &m).unwrap();
        for w in r.ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(r.best_eval.mflops, r.ranking[0].1);
    }

    #[test]
    fn empty_search_space_reports_every_failure() {
        // A machine with almost no vector registers cannot build any
        // candidate; the error must name each one with a reason.
        let mut m = MachineSpec::sandy_bridge();
        m.regs.vector_regs = 1;
        match tune_gemm(&m) {
            Err(e) => {
                assert!(!e.failures.is_empty());
                assert_eq!(e.kernel, "dgemm");
                for (tag, why) in &e.failures {
                    assert!(!tag.is_empty() && !why.is_empty());
                }
                let msg = e.to_string();
                assert!(msg.contains("no dgemm candidate"), "{msg}");
            }
            Ok(r) => {
                // If some candidate still builds with one register, the
                // search must at least have pruned most of the space.
                assert!(r.failures.len() > r.ranking.len());
            }
        }
    }

    #[test]
    fn traced_search_emits_candidate_events() {
        let m = MachineSpec::sandy_bridge();
        let c = augem_obs::Collector::new();
        let r = sweep(
            vector_candidates(VectorKernel::Axpy, &m),
            &m,
            &ResilOptions::plain(),
            None,
            &Injector::disabled(),
            &c,
            &EvalCache::disabled(),
        )
        .unwrap();
        let snap = c.snapshot();
        let events: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "tuner.candidate")
            .collect();
        assert_eq!(events.len(), r.generated);
        // One latency sample per enumerated candidate, successes and
        // failures alike: the plain sweep simulates every one of them.
        assert_eq!(r.eval_latency_ns.count(), r.generated as u64);
        assert_eq!(r.stats.evaluated, r.generated);
        assert!(r.eval_latency_ns.p50() <= r.eval_latency_ns.p99());
        assert_eq!(snap.counters["tuner.generated"], r.generated as u64);
        assert_eq!(snap.counters["tuner.built"], r.ranking.len() as u64);
        assert!(snap.stages().iter().any(|s| s.name == stage::TUNE));
        assert!(snap.stages().iter().any(|s| s.name == stage::SIM));
    }
}
