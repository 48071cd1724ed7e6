//! The sweep: the one tuning loop every caller runs.
//!
//! [`sweep`] evaluates every candidate of a tuning space and keeps the
//! fastest (paper §2.1). It assumes a badly behaved evaluation oracle:
//! each candidate is evaluated inside a panic sandbox under a
//! per-candidate instruction budget, transient failures get a bounded
//! retry, repeatedly failing candidate *families* are circuit-broken,
//! and every completed measurement is checkpointed to a [`TuneJournal`]
//! so a crashed run resumes where it stopped — reproducing the
//! uninterrupted run's winner bit-for-bit (measurements are replayed
//! from the journal, never re-simulated, and the journal stores the
//! exact `f64`). [`ResilOptions::plain`] turns the breaker and the
//! budget off; that is the plain exhaustive sweep.
//!
//! The journal is append-ordered, the breaker counts consecutive
//! failures, and resume must replay decisions in the order they were
//! made — so *committing* results is strictly sequential. Evaluation,
//! however, is pure when no faults are being injected, and runs
//! speculatively in parallel: workers measure candidates into private
//! [`Collector`]s, and the sequential commit loop merges each worker's
//! telemetry ([`replay_into`]) at the candidate's slot in commit order.
//! Journal bytes, rankings, counters and events are bit-for-bit
//! identical to a sequential sweep. With an enabled [`Injector`] the
//! sweep stays fully sequential, because injected faults (`Trigger::Nth`
//! counters in particular) are order-dependent by design.
//!
//! Two optional phases run before the commit loop, over candidates
//! built through the [`EvalCache`] in parallel beforehand (each build's
//! telemetry is replayed at the candidate's commit, and the evaluation
//! that follows is a cache hit):
//!
//! * **Legality** ([`ResilOptions::check_legality`]). Each candidate's
//!   recorded transform log is replayed through `augem-depan`'s
//!   proof-carrying checker ([`reject_logged`]), in parallel; a `T`-rule
//!   error rejects the candidate before it is simulated.
//! * **Bounds** ([`ResilOptions::prune`]). `augem-cost` computes a
//!   provable lower bound on every candidate's simulated cycles, which
//!   converts into a provable *upper* bound on its Mflops. Candidates
//!   are then committed best-first (descending bound) and each one whose
//!   bound falls strictly below the best measurement committed so far is
//!   pruned unsimulated. Because the bound is sound and the cut strict,
//!   every candidate whose true Mflops equals the sweep maximum
//!   survives; results are re-assembled in candidate order before
//!   ranking, so the winner, the tie-breaking and the best measurement
//!   are bit-for-bit those of the exhaustive sweep
//!   (`tests/cost_pruning.rs`). Pruning depends on commit order, so it
//!   disables speculation, like an enabled injector does.
//!
//! A candidate whose pre-build failed is committed with that build
//! failure; its pipeline is not run again.

use crate::cache::EvalCache;
use crate::config::{BuildError, Candidate, LoggedBuild};
use crate::evaluate::{EvalClass, EvalError, Evaluation};
use crate::search::{rank, SweepStats, TuneError, TuneResult};
use augem_machine::MachineSpec;
use augem_obs::{replay_into, span, stage, Collector, Histogram, Tracer, Value};
use augem_resil::{
    counter, journal_header, sandboxed, with_retry, CircuitBreaker, Fault, Injector, RetryPolicy,
    Site, TuneJournal,
};
use augem_sim::TimingReport;
use augem_verify::Severity;
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// One speculative worker's output: the measurement (or typed failure),
/// its wall time in nanoseconds, and the telemetry it recorded, replayed
/// at commit time.
type Speculated = (Result<Evaluation, EvalError>, u64, Collector);

/// Default per-candidate instruction budget: far above any healthy
/// micro-problem trace (worst evaluator runs a few million dynamic
/// instructions), far below the functional simulator's own runaway
/// backstop.
pub const DEFAULT_STEP_BUDGET: u64 = 1 << 26;

/// Knobs for the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ResilOptions {
    /// Retry policy for transient (panic-class) failures.
    pub retry: RetryPolicy,
    /// Consecutive failures before a candidate family is circuit-broken
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Per-candidate instruction budget (`None` = simulator default).
    pub step_limit: Option<u64>,
    /// Commit candidates best-first by their static Mflops upper bound
    /// (`augem-cost`) and skip each one whose bound falls strictly below
    /// the best measurement committed so far. The winner and its
    /// measurement are unchanged (the bound is sound and the cut
    /// strict); pruned candidates are journaled with outcome `"pruned"`,
    /// and the journal follows the best-first commit order, so a resumed
    /// sweep replays the same decisions bit-for-bit. Pruning depends on
    /// commit order, so it disables the speculative parallel phase, like
    /// an enabled injector does.
    pub prune: bool,
    /// Reject candidates whose transform chain `augem-depan` cannot
    /// prove legal, before they are simulated. The verdicts come from a
    /// parallel phase over the sweep's own cached builds. Rejections are
    /// journaled with outcome `"rejected"` and replayed on resume exactly
    /// like prunes; like a prune, a rejection never touches the breaker.
    pub check_legality: bool,
}

impl Default for ResilOptions {
    fn default() -> Self {
        ResilOptions {
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            step_limit: Some(DEFAULT_STEP_BUDGET),
            prune: false,
            check_legality: false,
        }
    }
}

impl ResilOptions {
    /// Options for deterministic tests: no backoff sleeps.
    pub fn fast() -> Self {
        ResilOptions {
            retry: RetryPolicy::no_backoff(2),
            ..Self::default()
        }
    }

    /// The plain exhaustive sweep: no breaker, so every candidate reports
    /// its own failure reason, and no instruction budget.
    pub fn plain() -> Self {
        ResilOptions {
            breaker_threshold: 0,
            step_limit: None,
            ..Self::default()
        }
    }
}

/// Converts a cycle lower bound into the Mflops *upper* bound implied by
/// the evaluator's own formula (`TimingReport::useful_mflops` at the
/// turbo clock). Mirrors that formula term-for-term so the comparison
/// against measured Mflops is monotone even at f64 granularity: a
/// division by a larger (correctly-rounded) denominator never yields a
/// larger quotient.
fn ub_mflops(bound_cycles: u64, useful_flops: u64, ghz: f64) -> f64 {
    if bound_cycles == 0 {
        // No lower bound on time means no upper bound on rate: never
        // prune on it. (The evaluator maps zero cycles to 0.0 Mflops,
        // which infinity also never prunes.)
        return f64::INFINITY;
    }
    let secs = bound_cycles as f64 / (ghz * 1e9);
    useful_flops as f64 / secs / 1e6
}

/// The legality verdict for a built candidate: its recorded transform
/// log is checked against its source kernel, and the first `T`-rule
/// error becomes a `rejected(depan): ...` reason. `logged.kernel` is
/// post-`identify` (Regions added after the last logged pass), so the
/// snapshot chain is checked without a final kernel.
pub fn reject_logged(logged: &LoggedBuild, tracer: &dyn Tracer) -> Option<String> {
    let diags = augem_depan::check_transforms_traced(&logged.source, &logged.tlog, None, tracer);
    diags
        .iter()
        .find(|d| d.severity == Severity::Error)
        .map(|d| format!("rejected(depan): {} {}", d.rule.code(), d.message))
}

fn class_name(class: EvalClass) -> &'static str {
    match class {
        EvalClass::Panic => "panic",
        EvalClass::Budget => "budget",
        EvalClass::Build => "build",
        EvalClass::Prune => "prune",
    }
}

fn report_to_json(e: &Evaluation) -> augem_obs::Json {
    use augem_obs::Json;
    let r = &e.report;
    Json::obj(vec![
        ("cycles", Json::uint(r.cycles)),
        ("dyn_insts", Json::uint(r.dyn_insts)),
        ("flops", Json::uint(r.flops)),
        ("mem_accesses", Json::uint(r.mem_accesses)),
        ("l1_misses", Json::uint(r.l1_misses)),
        ("llc_misses", Json::uint(r.llc_misses)),
        (
            "port_uops",
            Json::Arr(r.port_uops.iter().map(|&u| Json::uint(u)).collect()),
        ),
    ])
}

fn evaluation_from_json(entry: &augem_obs::Json) -> Option<Evaluation> {
    let report = entry.get("report")?;
    Some(Evaluation {
        report: TimingReport {
            cycles: report.get("cycles")?.as_u64()?,
            dyn_insts: report.get("dyn_insts")?.as_u64()?,
            flops: report.get("flops")?.as_u64()?,
            mem_accesses: report.get("mem_accesses")?.as_u64()?,
            l1_misses: report.get("l1_misses")?.as_u64()?,
            llc_misses: report.get("llc_misses")?.as_u64()?,
            port_uops: report
                .get("port_uops")?
                .as_arr()?
                .iter()
                .map(|j| j.as_u64())
                .collect::<Option<Vec<u64>>>()?,
        },
        // The journal stores the exact f64 (the JSON layer round-trips
        // doubles through the shortest representation), so a resumed
        // ranking is bit-identical to the uninterrupted one.
        mflops: entry.get("mflops")?.as_f64()?,
        useful_flops: entry.get("useful_flops")?.as_u64()?,
    })
}

/// Can this journal entry be restored without re-evaluation? Mirrors the
/// commit loop's replay logic: everything but a well-formed "ok" line
/// with a mangled payload is final.
fn journal_replayable(journal: &TuneJournal, tag: &str) -> bool {
    use augem_obs::Json;
    match journal.get(tag) {
        None => false,
        Some(entry) => match entry.get("outcome").and_then(Json::as_str) {
            Some("ok") => evaluation_from_json(entry).is_some(),
            _ => true,
        },
    }
}

/// What the phases before the commit loop learned about one candidate.
#[derive(Default)]
struct Pre {
    /// Telemetry of the candidate's pre-build and legality check,
    /// replayed at its commit.
    telemetry: Option<Collector>,
    /// The legality verdict: `Some(reason)` rejects the candidate.
    rejection: Option<String>,
    /// Static Mflops upper bound; `None` (unboundable) is never pruned.
    bound: Option<f64>,
    /// The pre-build failed: the candidate's evaluation failure.
    build_error: Option<BuildError>,
    /// The speculative evaluation.
    speculated: Option<Speculated>,
}

/// Sweeps `candidates` on `machine` and ranks them: the one tuning loop.
/// `opts` selects the resilience knobs and the optional legality and
/// bound phases (see the module docs). `journal` checkpoints the sweep
/// and restores a previous run's outcomes; `None` keeps a private
/// in-memory journal. Builds and measurements go through `cache`; with a
/// disabled cache the optional phases build every candidate twice.
#[allow(clippy::too_many_arguments)]
pub fn sweep<C: Candidate + Copy>(
    candidates: Vec<C>,
    machine: &MachineSpec,
    opts: &ResilOptions,
    journal: Option<&mut TuneJournal>,
    injector: &Injector,
    tracer: &dyn Tracer,
    cache: &EvalCache,
) -> Result<TuneResult<C>, TuneError> {
    use augem_obs::Json;

    let kernel = candidates.first().map_or("?", |c| c.kernel().name());
    let mut scratch = None;
    let journal = match journal {
        Some(j) => j,
        None => scratch.insert(TuneJournal::in_memory(journal_header(
            kernel,
            machine.arch.short_name(),
        ))),
    };

    let _t = span(tracer, stage::TUNE);
    let _r = span(tracer, stage::RESIL);

    if journal.corrupt_dropped() > 0 {
        tracer.add(counter::JOURNAL_CORRUPT, journal.corrupt_dropped() as u64);
        tracer.event(
            "resil.journal.corrupt",
            &[("dropped", Value::from(journal.corrupt_dropped()))],
        );
    }

    let n = candidates.len();
    let tags: Vec<String> = candidates.iter().map(|c| c.tag()).collect();
    // Journaled outcomes are final: those candidates are restored at
    // commit, never checked or evaluated again.
    let fresh: Vec<bool> = tags
        .iter()
        .map(|t| !journal_replayable(journal, t))
        .collect();
    let mut pre: Vec<Pre> = (0..n).map(|_| Pre::default()).collect();
    let mut stats = SweepStats::default();

    // Pre-build phase, for the legality and bound phases: candidates are
    // built through the cache in parallel, each into a private collector
    // replayed at its commit. The bound phase needs every candidate —
    // journaled ones included, so a resumed sweep commits in the original
    // order — the legality phase only the fresh ones.
    let mut built: Vec<(usize, Arc<LoggedBuild>, Collector)> = Vec::new();
    if opts.prune || opts.check_legality {
        let wanted: Vec<usize> = (0..n).filter(|&i| opts.prune || fresh[i]).collect();
        let builds: Vec<_> = wanted
            .par_iter()
            .map(|&i| {
                let local = Collector::new();
                (i, cache.logged(&candidates[i], machine, &local), local)
            })
            .collect();
        for (i, build, local) in builds {
            match build {
                Ok(b) => built.push((i, b, local)),
                Err(e) => {
                    pre[i].build_error = Some(e);
                    pre[i].telemetry = Some(local);
                }
            }
        }
    }

    // Legality phase: the parallel checking block, which alone is timed —
    // the builds happen with or without the filter.
    if opts.check_legality {
        let checked: Vec<&(usize, Arc<LoggedBuild>, Collector)> =
            built.iter().filter(|(i, _, _)| fresh[*i]).collect();
        let c0 = Instant::now();
        let verdicts: Vec<Option<String>> = checked
            .par_iter()
            .map(|(_, build, local)| reject_logged(build, local))
            .collect();
        stats.check_ns = c0.elapsed().as_nanos() as u64;
        stats.checked = checked.len();
        for ((i, _, _), verdict) in checked.into_iter().zip(verdicts) {
            stats.rejected += usize::from(verdict.is_some());
            pre[*i].rejection = verdict;
        }
        tracer.add("depan.checked", stats.checked as u64);
        tracer.add("depan.rejected", stats.rejected as u64);
        tracer.add("depan.check_ns", stats.check_ns);
    }

    // Bound phase: a static bound for every built candidate. Only the
    // analysis is timed; the builds are shared with the evaluation.
    if opts.prune {
        let _c = span(tracer, stage::COST);
        for (i, build, _) in &built {
            let (args, useful) = candidates[*i].eval_args();
            let a0 = Instant::now();
            // The analyzer declining to bound a kernel is not a candidate
            // failure — it just can't be pruned.
            pre[*i].bound = augem_cost::analyze(&build.asm, &args, machine)
                .ok()
                .map(|r| ub_mflops(r.lower_bound_cycles, useful, machine.turbo_ghz));
            stats.bound_ns += a0.elapsed().as_nanos() as u64;
        }
        stats.analyzed = built.len();
        tracer.add("cost.analyzed", stats.analyzed as u64);
        tracer.add("cost.bound_ns", stats.bound_ns);
    }
    for (i, _, local) in built {
        pre[i].telemetry = Some(local);
    }

    // Commit order: candidate order, or best-first when pruning
    // (unboundable candidates first, since they can never be pruned; the
    // stable sort keeps candidate order among ties).
    let mut order: Vec<usize> = (0..n).collect();
    if opts.prune {
        let key = |i: usize| pre[i].bound.unwrap_or(f64::INFINITY);
        order.sort_by(|&a, &b| key(b).total_cmp(&key(a)));
    }

    // Speculative parallel evaluation. Injected faults are
    // order-dependent (`Trigger::Nth` counters advance per probe), and
    // pruning decisions depend on the best measurement committed *so
    // far*, so either keeps the sweep sequential; otherwise evaluation
    // is pure and fans out. Candidates a tripped breaker later skips are
    // wasted speculation — their results and telemetry are discarded
    // unseen.
    if !injector.is_enabled() && !opts.prune {
        let wanted: Vec<usize> = (0..n)
            .filter(|&i| fresh[i] && pre[i].build_error.is_none() && pre[i].rejection.is_none())
            .collect();
        let done: Vec<(usize, Speculated)> = wanted
            .par_iter()
            .map(|&i| {
                let c = &candidates[i];
                let local = Collector::new();
                let t0 = Instant::now();
                let outcome = with_retry(&opts.retry, &local, &tags[i], |_attempt| {
                    let r = sandboxed(|| cache.evaluate(c, machine, &local, opts.step_limit))
                        .map_err(EvalError::Panicked)
                        .and_then(|r| r);
                    if let Err(e) = &r {
                        local.add(e.class().counter(), 1);
                    }
                    r
                });
                (i, (outcome, t0.elapsed().as_nanos() as u64, local))
            })
            .collect();
        for (i, s) in done {
            pre[i].speculated = Some(s);
        }
    }

    let breaker = CircuitBreaker::new(opts.breaker_threshold);
    let mut slots: Vec<Option<Result<Evaluation, String>>> = (0..n).map(|_| None).collect();
    let mut latency = Histogram::new();
    let mut interrupted = false;
    // Best Mflops committed so far — the pruning incumbent. Replayed
    // "ok" entries feed it too, so a resumed sweep reaches each pruning
    // decision with exactly the state the original sweep had.
    let mut best_mflops = f64::NEG_INFINITY;

    for &i in &order {
        let c = &candidates[i];
        let tag = tags[i].as_str();
        let family = c.family();
        let p = std::mem::take(&mut pre[i]);

        // Checkpoint replay: a journaled outcome is final — restore it
        // (and its effect on the breaker) without re-simulating.
        if let Some(entry) = journal.get(tag) {
            let outcome = entry.get("outcome").and_then(Json::as_str).unwrap_or("?");
            let error = |default: &str| {
                entry
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or(default)
                    .to_string()
            };
            let replayed = match outcome {
                "ok" => match evaluation_from_json(entry) {
                    Some(e) => {
                        breaker.record(&family, true);
                        best_mflops = best_mflops.max(e.mflops);
                        Some(Ok(e))
                    }
                    None => {
                        // A well-formed line with a mangled payload: treat
                        // it like a corrupt line — drop and re-evaluate.
                        tracer.add(counter::JOURNAL_CORRUPT, 1);
                        None
                    }
                },
                "skipped" => Some(Err(error("circuit open"))),
                // A pruned or depan-rejected candidate was never simulated
                // and never touched the breaker; restoring it must not
                // either. Its verdict is final either way.
                "pruned" => Some(Err(error("pruned(bound)"))),
                "rejected" => Some(Err(error("rejected(depan)"))),
                _ => {
                    if breaker.record(&family, false) {
                        tracer.add(counter::BREAKER_TRIP, 1);
                    }
                    Some(Err(error("journaled failure")))
                }
            };
            if let Some(r) = replayed {
                tracer.add(counter::JOURNAL_RESUMED, 1);
                slots[i] = Some(r);
                continue;
            }
        }

        // Legality verdict: a candidate whose transform chain cannot be
        // proved legal never reaches the simulator. Like a prune, not a
        // failure — the breaker never sees it.
        if let Some(local) = p.telemetry {
            replay_into(tracer, &local.snapshot());
        }
        if let Some(why) = p.rejection {
            tracer.event(
                "depan.rejected",
                &[
                    ("tag", Value::from(tag)),
                    ("reason", Value::from(why.as_str())),
                ],
            );
            let entry = Json::obj(vec![
                ("tag", Json::str(tag)),
                ("outcome", Json::str("rejected")),
                ("error", Json::str(&why)),
            ]);
            append_maybe_corrupted(journal, injector, tag, entry);
            slots[i] = Some(Err(why));
            continue;
        }

        // Circuit check: a family past its failure threshold is skipped,
        // recorded as a pruned candidate (an expected search outcome).
        if breaker.is_open(&family) {
            let why = format!("skipped: circuit open for family {family}");
            tracer.add(counter::BREAKER_SKIPPED, 1);
            tracer.event(
                "resil.breaker.skipped",
                &[
                    ("tag", Value::from(tag)),
                    ("family", Value::from(family.as_str())),
                ],
            );
            let _ = journal.append(Json::obj(vec![
                ("tag", Json::str(tag)),
                ("outcome", Json::str("skipped")),
                ("error", Json::str(&why)),
            ]));
            slots[i] = Some(Err(why));
            continue;
        }

        // Bound check: a candidate the static analyzer proves strictly
        // slower than the incumbent is skipped without simulation. Not a
        // failure — the breaker never sees it.
        if let Some(ub) = p.bound.filter(|&ub| ub < best_mflops) {
            let why = format!(
                "pruned(bound): static bound {ub:.1} Mflops below incumbent {best_mflops:.1} Mflops"
            );
            stats.pruned += 1;
            tracer.event(
                "cost.pruned",
                &[("tag", Value::from(tag)), ("bound_mflops", Value::from(ub))],
            );
            let entry = Json::obj(vec![
                ("tag", Json::str(tag)),
                ("outcome", Json::str("pruned")),
                ("error", Json::str(&why)),
            ]);
            append_maybe_corrupted(journal, injector, tag, entry);
            slots[i] = Some(Err(why));
            continue;
        }

        let outcome = if let Some(e) = p.build_error {
            // A phase already ran this candidate's pipeline and it failed:
            // commit that failure instead of building it again.
            let e = EvalError::Build(e);
            tracer.add(e.class().counter(), 1);
            Err(e)
        } else if let Some((outcome, ns, local)) = p.speculated {
            // Speculatively evaluated: merge the worker's telemetry at
            // this candidate's slot in the commit order, then proceed
            // exactly as if it had just been evaluated inline.
            replay_into(tracer, &local.snapshot());
            latency.record(ns);
            outcome
        } else {
            // Sandboxed, budgeted, retried inline evaluation. A `Crash`
            // fault simulates the process dying mid-sweep: the sweep
            // aborts with `interrupted`, leaving the journal's completed
            // prefix behind.
            let crashed = Cell::new(false);
            let eval = |limit| {
                sandboxed(|| cache.evaluate(c, machine, tracer, limit))
                    .map_err(EvalError::Panicked)
                    .and_then(|r| r)
            };
            // Every failed attempt is counted by class — including
            // failures a later retry recovers from, which would
            // otherwise vanish from the telemetry.
            let count_class = |r: Result<Evaluation, EvalError>| {
                if let Err(e) = &r {
                    if !crashed.get() {
                        tracer.add(e.class().counter(), 1);
                    }
                }
                r
            };
            let t0 = Instant::now();
            let outcome = with_retry(&opts.retry, tracer, tag, |attempt| {
                count_class(match injector.fault(Site::Eval, tag, attempt) {
                    Some(Fault::Crash) => {
                        crashed.set(true);
                        // Fatal class: stops the retry loop immediately.
                        Err(EvalError::Budget(0))
                    }
                    Some(Fault::Panic) => sandboxed(|| -> Evaluation {
                        panic!("injected fault: evaluation of {tag} panicked")
                    })
                    .map_err(EvalError::Panicked),
                    // A one-instruction budget genuinely exhausts.
                    Some(Fault::Budget) => eval(Some(1)),
                    // A fault injected at the simulator layer shows up to
                    // the tuner as either a panic inside the timing model
                    // or a budget exhausted on the first instruction.
                    Some(Fault::CorruptEntry) | None => {
                        match injector.fault(Site::Sim, tag, attempt) {
                            Some(Fault::Panic) => sandboxed(|| -> Evaluation {
                                panic!("injected fault: simulator panicked on {tag}")
                            })
                            .map_err(EvalError::Panicked),
                            Some(Fault::Budget) => eval(Some(1)),
                            _ => eval(opts.step_limit),
                        }
                    }
                })
            });
            if crashed.get() {
                interrupted = true;
                tracer.event("resil.crash", &[("tag", Value::from(tag))]);
                break;
            }
            latency.record(t0.elapsed().as_nanos() as u64);
            outcome
        };

        match outcome {
            Ok(e) => {
                breaker.record(&family, true);
                best_mflops = best_mflops.max(e.mflops);
                let entry = Json::obj(vec![
                    ("tag", Json::str(tag)),
                    ("outcome", Json::str("ok")),
                    ("mflops", Json::Num(e.mflops)),
                    ("useful_flops", Json::uint(e.useful_flops)),
                    ("report", report_to_json(&e)),
                ]);
                append_maybe_corrupted(journal, injector, tag, entry);
                slots[i] = Some(Ok(e));
            }
            Err(e) => {
                // The class counter was already bumped per attempt; here
                // we only record the terminal event.
                let class = e.class();
                let why = e.to_string();
                tracer.event(
                    "resil.eval.failed",
                    &[
                        ("tag", Value::from(tag)),
                        ("class", Value::from(class_name(class))),
                        ("error", Value::from(why.as_str())),
                    ],
                );
                if breaker.record(&family, false) {
                    tracer.add(counter::BREAKER_TRIP, 1);
                    tracer.event(
                        "resil.breaker.trip",
                        &[("family", Value::from(family.as_str()))],
                    );
                }
                let entry = Json::obj(vec![
                    ("tag", Json::str(tag)),
                    ("outcome", Json::str("err")),
                    ("class", Json::str(class_name(class))),
                    ("error", Json::str(&why)),
                ]);
                append_maybe_corrupted(journal, injector, tag, entry);
                slots[i] = Some(Err(why));
            }
        }
    }
    if opts.prune {
        tracer.add("cost.pruned", stats.pruned as u64);
    }

    if interrupted {
        return Err(TuneError {
            kernel: kernel.to_string(),
            machine: machine.arch.short_name().to_string(),
            failures: tags
                .into_iter()
                .zip(slots)
                .filter_map(|(tag, slot)| {
                    let why = match slot? {
                        Ok(e) => format!("ok: {:.1} Mflops", e.mflops),
                        Err(why) => why,
                    };
                    Some((tag, why))
                })
                .collect(),
            interrupted: true,
        });
    }

    // Re-assemble in candidate order: `rank`'s stable sort then resolves
    // ties the same way whatever the commit order was.
    let evaluated = candidates
        .into_iter()
        .zip(slots)
        .map(|(c, s)| (c, s.unwrap_or_else(|| Err("sweep lost a candidate".into()))))
        .collect();
    let mut result = rank(kernel, machine, evaluated, tracer)?;
    stats.evaluated = latency.count() as usize;
    result.eval_latency_ns = latency;
    result.stats = stats;
    Ok(result)
}

/// Journal append with the corruption fault-site applied: when the
/// injector fires, garbage is written *instead of* the record — exactly
/// what a crash mid-write leaves — and the candidate will be
/// re-evaluated on resume.
fn append_maybe_corrupted(
    journal: &mut TuneJournal,
    injector: &Injector,
    tag: &str,
    entry: augem_obs::Json,
) {
    if let Some(Fault::CorruptEntry) = injector.fault(Site::JournalAppend, tag, 0) {
        let _ = journal.append_corrupt(&format!("{{\"tag\":\"{tag}\",\"outcome\":\"o"));
    } else {
        let _ = journal.append(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{gemm_candidates, vector_candidates, VectorKernel};
    use crate::search::{tune_gemm, tune_vector};
    use augem_resil::{InjectionPlan, Trigger};

    fn mem_journal(kernel: &str, machine: &MachineSpec) -> TuneJournal {
        TuneJournal::in_memory(journal_header(kernel, machine.arch.short_name()))
    }

    /// The sweep over the whole GEMM space, checkpointed into `journal`.
    fn gemm(
        m: &MachineSpec,
        opts: &ResilOptions,
        journal: &mut TuneJournal,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<TuneResult<crate::config::GemmConfig>, TuneError> {
        let cache = EvalCache::new();
        sweep(
            gemm_candidates(m),
            m,
            opts,
            Some(journal),
            injector,
            tracer,
            &cache,
        )
    }

    /// The sweep over the whole daxpy space, checkpointed into `journal`.
    fn axpy(
        m: &MachineSpec,
        opts: &ResilOptions,
        journal: &mut TuneJournal,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<TuneResult<crate::config::VectorConfig>, TuneError> {
        let cache = EvalCache::new();
        let cands = vector_candidates(VectorKernel::Axpy, m);
        sweep(cands, m, opts, Some(journal), injector, tracer, &cache)
    }

    #[test]
    fn resilient_matches_plain_tuner_without_faults() {
        let m = MachineSpec::sandy_bridge();
        let plain = tune_gemm(&m).unwrap();
        let mut j = mem_journal("dgemm", &m);
        let r = gemm(
            &m,
            &ResilOptions::fast(),
            &mut j,
            &Injector::disabled(),
            augem_obs::null(),
        )
        .unwrap();
        assert_eq!(r.best.tag(), plain.best.tag());
        assert_eq!(
            r.best_eval.mflops.to_bits(),
            plain.best_eval.mflops.to_bits(),
            "sequential resilient sweep must measure identically"
        );
        assert_eq!(r.generated, plain.generated);
    }

    #[test]
    fn injected_panics_cost_candidates_not_the_sweep() {
        let m = MachineSpec::sandy_bridge();
        let c = Collector::new();
        let mut j = mem_journal("daxpy", &m);
        // Panic on every first attempt; retries are injected again, so
        // with a 30% per-attempt rate most candidates still succeed.
        let inj = Injector::new(InjectionPlan::new(11).with(
            Site::Eval,
            Fault::Panic,
            Trigger::Rate(0.3),
        ));
        let r = axpy(&m, &ResilOptions::fast(), &mut j, &inj, &c);
        let snap = c.snapshot();
        assert!(
            snap.counters.get("resil.retry").copied().unwrap_or(0) > 0,
            "a 30% panic rate must cause retries"
        );
        // The sweep terminated with a typed outcome either way.
        if let Ok(r) = r {
            assert!(r.best_eval.mflops > 0.0);
        }
        assert!(snap.stages().iter().any(|s| s.name == stage::RESIL));
    }

    #[test]
    fn crash_interrupts_and_resume_completes_bit_for_bit() {
        let m = MachineSpec::sandy_bridge();
        let path = std::env::temp_dir().join(format!(
            "augem-resil-unit-resume-{}.jsonl",
            std::process::id()
        ));
        let header = journal_header("dgemm", m.arch.short_name());

        // Uninterrupted reference run.
        let mut jref = TuneJournal::in_memory(header.clone());
        let reference = gemm(
            &m,
            &ResilOptions::fast(),
            &mut jref,
            &Injector::disabled(),
            augem_obs::null(),
        )
        .unwrap();

        // Crash at the 4th evaluated candidate.
        let mut j1 = TuneJournal::create(&path, header.clone()).unwrap();
        let crash =
            Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(4)));
        let err = gemm(
            &m,
            &ResilOptions::fast(),
            &mut j1,
            &crash,
            augem_obs::null(),
        )
        .unwrap_err();
        assert!(err.interrupted, "{err}");
        assert_eq!(err.failures.len(), 3, "three candidates completed");

        // Resume from the journal on disk.
        let c = Collector::new();
        let mut j2 = TuneJournal::load(&path).unwrap();
        assert_eq!(j2.len(), 3);
        let resumed = gemm(
            &m,
            &ResilOptions::fast(),
            &mut j2,
            &Injector::disabled(),
            &c,
        )
        .unwrap();
        assert_eq!(resumed.best.tag(), reference.best.tag());
        assert_eq!(
            resumed.best_eval.mflops.to_bits(),
            reference.best_eval.mflops.to_bits(),
            "resumed winner must be bit-identical"
        );
        assert_eq!(c.snapshot().counters["resil.journal.resumed"], 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pruned_resilient_keeps_winner_and_resumes_bit_for_bit() {
        let m = MachineSpec::sandy_bridge();
        let plain = tune_gemm(&m).unwrap();
        let opts = ResilOptions {
            prune: true,
            ..ResilOptions::fast()
        };

        // Uninterrupted pruned run: winner and measurement unchanged.
        let c = Collector::new();
        let mut jref = mem_journal("dgemm", &m);
        let reference = gemm(&m, &opts, &mut jref, &Injector::disabled(), &c).unwrap();
        assert_eq!(reference.best.tag(), plain.best.tag());
        assert_eq!(
            reference.best_eval.mflops.to_bits(),
            plain.best_eval.mflops.to_bits(),
            "pruning must not change the winning measurement"
        );
        let snap = c.snapshot();
        assert!(snap.counters["cost.analyzed"] > 0);
        let pruned_count = snap.counters.get("cost.pruned").copied().unwrap_or(0);

        // Crash partway through, then resume: decisions replay from the
        // journal, including the pruned ones, bit-for-bit.
        let path = std::env::temp_dir().join(format!(
            "augem-resil-unit-prune-resume-{}.jsonl",
            std::process::id()
        ));
        let header = journal_header("dgemm", m.arch.short_name());
        let mut j1 = TuneJournal::create(&path, header).unwrap();
        let crash =
            Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(4)));
        let err = gemm(&m, &opts, &mut j1, &crash, augem_obs::null()).unwrap_err();
        assert!(err.interrupted);

        let c2 = Collector::new();
        let mut j2 = TuneJournal::load(&path).unwrap();
        let resumed = gemm(&m, &opts, &mut j2, &Injector::disabled(), &c2).unwrap();
        assert_eq!(resumed.best.tag(), reference.best.tag());
        assert_eq!(
            resumed.best_eval.mflops.to_bits(),
            reference.best_eval.mflops.to_bits(),
            "resumed pruned sweep must be bit-identical"
        );
        // Failure lists (which include every pruned tag and reason)
        // must match entry for entry — the resumed sweep made the same
        // pruning decisions with the same incumbents.
        assert_eq!(resumed.failures, reference.failures);
        let snap2 = c2.snapshot();
        assert!(snap2.counters["resil.journal.resumed"] > 0);
        // Prunes re-decided after the crash point can't exceed the
        // uninterrupted run's total.
        assert!(snap2.counters.get("cost.pruned").copied().unwrap_or(0) <= pruned_count);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legality_checked_resilient_matches_plain_sweep() {
        // Every current candidate is provably legal, so the filter must
        // reject nothing and leave the winner bit-for-bit unchanged.
        let m = MachineSpec::sandy_bridge();
        let plain = tune_vector(VectorKernel::Axpy, &m).unwrap();
        let opts = ResilOptions {
            check_legality: true,
            ..ResilOptions::fast()
        };
        let c = Collector::new();
        let mut j = mem_journal("daxpy", &m);
        let r = axpy(&m, &opts, &mut j, &Injector::disabled(), &c).unwrap();
        assert_eq!(r.best.tag(), plain.best.tag());
        assert_eq!(
            r.best_eval.mflops.to_bits(),
            plain.best_eval.mflops.to_bits()
        );
        let snap = c.snapshot();
        assert!(snap.stages().iter().any(|s| s.name == stage::DEPAN));
        assert_eq!(snap.counters.get("depan.rejected").copied().unwrap_or(0), 0);
    }

    #[test]
    fn journaled_rejection_is_replayed_without_rechecking() {
        use augem_obs::Json;
        let m = MachineSpec::sandy_bridge();
        let mut j = mem_journal("daxpy", &m);
        let cands = vector_candidates(VectorKernel::Axpy, &m);
        let tag0 = cands[0].tag();
        j.append(Json::obj(vec![
            ("tag", Json::str(&tag0)),
            ("outcome", Json::str("rejected")),
            (
                "error",
                Json::str("rejected(depan): T004 synthetic (journaled)"),
            ),
        ]))
        .unwrap();
        let c = Collector::new();
        let r = axpy(&m, &ResilOptions::fast(), &mut j, &Injector::disabled(), &c).unwrap();
        assert!(
            r.failures
                .iter()
                .any(|(t, why)| t == &tag0 && why.contains("T004")),
            "journaled rejection must be restored verbatim: {:?}",
            r.failures
        );
        assert_eq!(c.snapshot().counters["resil.journal.resumed"], 1);
    }

    #[test]
    fn breaker_skips_rest_of_failing_family() {
        let m = MachineSpec::sandy_bridge();
        let c = Collector::new();
        let mut j = mem_journal("dgemm", &m);
        // Tiny budget: every candidate blows it. Families have >threshold
        // members, so the breaker must trip and start skipping.
        let opts = ResilOptions {
            step_limit: Some(1),
            breaker_threshold: 2,
            ..ResilOptions::fast()
        };
        let err = gemm(&m, &opts, &mut j, &Injector::disabled(), &c).unwrap_err();
        assert!(!err.interrupted);
        let snap = c.snapshot();
        assert!(snap.counters["resil.breaker.trip"] > 0);
        assert!(snap.counters["resil.breaker.skipped"] > 0);
        assert!(snap.counters["resil.eval.budget"] > 0);
        // Budget failures and skips cover the whole space.
        assert_eq!(
            err.failures.len(),
            gemm_candidates(&m).len(),
            "every candidate accounted for"
        );
    }

    #[test]
    fn journal_corruption_is_survived_on_resume() {
        let m = MachineSpec::sandy_bridge();
        let path = std::env::temp_dir().join(format!(
            "augem-resil-unit-corrupt-{}.jsonl",
            std::process::id()
        ));
        let header = journal_header("daxpy", m.arch.short_name());
        let mut j1 = TuneJournal::create(&path, header).unwrap();
        // Corrupt the 2nd journal append, then crash at the 4th eval.
        let inj = Injector::new(
            InjectionPlan::new(0)
                .with(Site::JournalAppend, Fault::CorruptEntry, Trigger::Nth(2))
                .with(Site::Eval, Fault::Crash, Trigger::Nth(4)),
        );
        let err = axpy(&m, &ResilOptions::fast(), &mut j1, &inj, augem_obs::null()).unwrap_err();
        assert!(err.interrupted);

        let c = Collector::new();
        let mut j2 = TuneJournal::load(&path).unwrap();
        assert_eq!(j2.corrupt_dropped(), 1, "the corrupted line is dropped");
        let resumed = axpy(
            &m,
            &ResilOptions::fast(),
            &mut j2,
            &Injector::disabled(),
            &c,
        )
        .unwrap();
        let snap = c.snapshot();
        assert_eq!(snap.counters["resil.journal.corrupt"], 1);
        // 2 clean entries restored; the corrupted one re-evaluated.
        assert_eq!(snap.counters["resil.journal.resumed"], 2);
        let plain = tune_vector(VectorKernel::Axpy, &m).unwrap();
        assert_eq!(resumed.best.tag(), plain.best.tag());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pruned_gemm_matches_exhaustive_winner_bit_for_bit() {
        let opts = ResilOptions {
            prune: true,
            ..ResilOptions::plain()
        };
        for m in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
            let plain = tune_gemm(&m).unwrap();
            let mut j = mem_journal("dgemm", &m);
            let pruned = gemm(&m, &opts, &mut j, &Injector::disabled(), augem_obs::null()).unwrap();
            let stats = pruned.stats;
            assert_eq!(pruned.best.tag(), plain.best.tag());
            assert_eq!(
                pruned.best_eval.mflops.to_bits(),
                plain.best_eval.mflops.to_bits(),
                "pruning must not change the measurement"
            );
            assert_eq!(
                pruned.best_eval.report.cycles,
                plain.best_eval.report.cycles
            );
            assert_eq!(pruned.generated, plain.generated);
            assert_eq!(
                pruned.generated,
                stats.pruned + stats.evaluated + (pruned.generated - stats.analyzed)
            );
            assert_eq!(pruned.eval_latency_ns.count(), stats.evaluated as u64);
            // Build failures must surface with the exhaustive sweep's
            // exact reasons; prunes are additional failures.
            assert_eq!(pruned.failures.len(), plain.failures.len() + stats.pruned);
        }
    }

    #[test]
    fn pruned_vector_sweep_preserves_winner_and_prunes_something() {
        let m = MachineSpec::sandy_bridge();
        let plain = tune_vector(VectorKernel::Axpy, &m).unwrap();
        let opts = ResilOptions {
            prune: true,
            ..ResilOptions::plain()
        };
        let mut j = mem_journal("daxpy", &m);
        let pruned = axpy(&m, &opts, &mut j, &Injector::disabled(), augem_obs::null()).unwrap();
        assert_eq!(pruned.best.tag(), plain.best.tag());
        assert_eq!(
            pruned.best_eval.mflops.to_bits(),
            plain.best_eval.mflops.to_bits()
        );
        assert_eq!(
            pruned.stats.analyzed,
            pruned.stats.pruned + pruned.stats.evaluated
        );
        assert!(pruned.stats.pruned > 0);
        assert!(pruned.stats.bound_ns > 0);
    }

    #[test]
    fn bound_is_an_upper_bound_on_every_measured_candidate() {
        // The inequality behind the whole scheme, checked end-to-end on
        // the axpy space: static ub >= measured Mflops, per candidate.
        let machine = MachineSpec::sandy_bridge();
        let cache = EvalCache::new();
        for cfg in vector_candidates(VectorKernel::Axpy, &machine) {
            let Ok(build) = cache.logged(&cfg, &machine, augem_obs::null()) else {
                continue;
            };
            let (args, useful) = cfg.eval_args();
            let report = augem_cost::analyze(&build.asm, &args, &machine).unwrap();
            let ub = ub_mflops(report.lower_bound_cycles, useful, machine.turbo_ghz);
            let e = cache
                .evaluate(&cfg, &machine, augem_obs::null(), None)
                .unwrap();
            assert!(
                e.mflops <= ub,
                "{}: measured {} exceeds static upper bound {}",
                cfg.tag(),
                e.mflops,
                ub
            );
        }
    }

    #[test]
    fn checked_gemm_matches_plain_winner_bit_for_bit() {
        // The acceptance invariant: every current candidate is provably
        // legal, so the filter rejects nothing and the sweep is the
        // exhaustive sweep.
        let opts = ResilOptions {
            check_legality: true,
            ..ResilOptions::plain()
        };
        for m in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
            let plain = tune_gemm(&m).unwrap();
            let mut j = mem_journal("dgemm", &m);
            let checked =
                gemm(&m, &opts, &mut j, &Injector::disabled(), augem_obs::null()).unwrap();
            assert_eq!(
                checked.stats.rejected, 0,
                "false rejection on a legal candidate"
            );
            assert_eq!(checked.stats.checked, checked.generated);
            assert_eq!(checked.best.tag(), plain.best.tag());
            assert_eq!(
                checked.best_eval.mflops.to_bits(),
                plain.best_eval.mflops.to_bits()
            );
            assert_eq!(checked.failures, plain.failures);
        }
    }

    #[test]
    fn checked_vector_sweep_traces_depan_stage() {
        let m = MachineSpec::sandy_bridge();
        let plain = tune_vector(VectorKernel::Dot, &m).unwrap();
        let opts = ResilOptions {
            check_legality: true,
            ..ResilOptions::plain()
        };
        let tracer = Collector::new();
        let cache = EvalCache::new();
        let cands = vector_candidates(VectorKernel::Dot, &m);
        let checked = sweep(
            cands,
            &m,
            &opts,
            None,
            &Injector::disabled(),
            &tracer,
            &cache,
        )
        .unwrap();
        assert_eq!(checked.stats.rejected, 0);
        assert_eq!(checked.best.tag(), plain.best.tag());
        let snap = tracer.snapshot();
        assert!(snap.stages().iter().any(|s| s.name == stage::DEPAN));
        assert_eq!(snap.counters["depan.checked"], checked.generated as u64);
        assert_eq!(snap.counters["depan.rejected"], 0);
        assert!(snap.counters["depan.check_ns"] > 0);
        // The legality phase's builds are the evaluation's cache hits.
        assert_eq!(snap.counters["cache.build.miss"], checked.generated as u64);
    }
}
