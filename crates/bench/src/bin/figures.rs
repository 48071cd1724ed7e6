//! Regenerates the paper's figures and tables.
//!
//! ```text
//! cargo run --release -p augem-bench --bin figures -- all
//! cargo run --release -p augem-bench --bin figures -- fig18 fig19
//! cargo run --release -p augem-bench --bin figures -- table6 ablations
//! cargo run --release -p augem-bench --bin figures -- asm      # dump tuned kernels
//! cargo run --release -p augem-bench --bin figures -- pipeline # BENCH_pipeline.json
//! cargo run --release -p augem-bench --bin figures -- verify   # BENCH_verify.json
//! cargo run --release -p augem-bench --bin figures -- tune     # BENCH_tune.json
//! cargo run --release -p augem-bench --bin figures -- prof     # BENCH_prof.json
//! cargo run --release -p augem-bench --bin figures -- cost     # BENCH_cost.json
//! cargo run --release -p augem-bench --bin figures -- depan    # BENCH_depan.json
//! cargo run --release -p augem-bench --bin figures -- serve    # BENCH_serve.json
//! ```

use augem::obs::Json;
use augem::resil::write_atomic;
use augem::Augem;
use augem_asm::AsmKernel;
use augem_bench::{ablations, format_figure, Models};
use augem_kernels::DlaKernel;
use augem_machine::MachineSpec;
use augem_sim::{FuncSim, SimValue};
use augem_tune::{
    gemm_candidates, vector_candidates, Candidate, EvalCache, GemmConfig, ResilOptions, TuneResult,
    VectorConfig, VectorKernel,
};
use std::time::Instant;

/// Runs a traced generation per kernel × platform and writes the run
/// reports to `BENCH_pipeline.json` — the machine-readable perf
/// trajectory (stage wall times, tuner telemetry, sim counters).
fn emit_pipeline_reports(platforms: &[MachineSpec]) {
    let mut entries = Vec::new();
    for machine in platforms {
        let driver = Augem::new(machine.clone());
        for k in DlaKernel::ALL {
            match driver.generate_report(k) {
                Ok((_, run)) => entries.push(run.to_json()),
                Err(e) => eprintln!(
                    "pipeline report failed for {} on {}: {e}",
                    k.name(),
                    machine.arch.short_name()
                ),
            }
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-pipeline/v1")),
        ("runs", Json::Arr(entries)),
    ]);
    let path = "BENCH_pipeline.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Runs both verifier stages — the structural checks and the
/// translation validator — over a representative configuration per
/// kernel × platform, and writes per-kernel wall times and finding
/// counts to `BENCH_verify.json` (`augem.bench-verify/v1`).
fn emit_verify_reports(platforms: &[MachineSpec]) {
    let mut entries = Vec::new();
    for machine in platforms {
        let configs: Vec<(DlaKernel, GemmConfig)> = vec![(DlaKernel::Gemm, GemmConfig::fig13())];
        for (k, cfg) in configs {
            match cfg.build_logged(machine) {
                Ok(build) => entries.push(verify_entry(
                    k,
                    machine,
                    &cfg.tag(),
                    &build,
                    &cfg.equiv_spec(),
                )),
                Err(e) => eprintln!("verify bench: gemm build failed: {e}"),
            }
        }
        for vk in [
            VectorKernel::Gemv,
            VectorKernel::Ger,
            VectorKernel::Axpy,
            VectorKernel::Dot,
            VectorKernel::Scal,
        ] {
            let cfg = VectorConfig {
                kernel: vk,
                unroll: 2 * machine.simd_mode().f64_lanes(),
                prefetch: augem::transforms::PrefetchConfig::default(),
                schedule: true,
            };
            let k = match vk {
                VectorKernel::Gemv => DlaKernel::Gemv,
                VectorKernel::Ger => DlaKernel::Ger,
                VectorKernel::Axpy => DlaKernel::Axpy,
                VectorKernel::Dot => DlaKernel::Dot,
                VectorKernel::Scal => DlaKernel::Scal,
            };
            match cfg.build_logged(machine) {
                Ok(build) => entries.push(verify_entry(
                    k,
                    machine,
                    &cfg.tag(),
                    &build,
                    &cfg.equiv_spec(),
                )),
                Err(e) => eprintln!("verify bench: {} build failed: {e}", k.name()),
            }
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-verify/v1")),
        ("kernels", Json::Arr(entries)),
    ]);
    let path = "BENCH_verify.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn verify_entry(
    kernel: DlaKernel,
    machine: &MachineSpec,
    tag: &str,
    build: &augem_tune::LoggedBuild,
    spec: &augem_verify::EquivSpec,
) -> Json {
    let t0 = std::time::Instant::now();
    let structural = augem_verify::check(&build.kernel, &build.asm, &build.log);
    let check_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let equiv = augem_verify::check_equivalence(&build.source, &build.asm, machine.isa, spec);
    let equiv_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "verify {:>6} on {:<12} {:7.2} ms structural, {:7.2} ms equivalence ({} finding(s))",
        kernel.name(),
        machine.arch.short_name(),
        check_ms,
        equiv_ms,
        structural.len() + equiv.len(),
    );
    Json::obj(vec![
        ("kernel", Json::str(kernel.name())),
        ("machine", Json::str(machine.arch.short_name())),
        ("config", Json::str(tag)),
        ("insts", Json::uint(build.asm.insts.len() as u64)),
        ("check_ms", Json::Num(check_ms)),
        ("equiv_ms", Json::Num(equiv_ms)),
        (
            "errors",
            Json::uint(structural.iter().filter(|d| d.is_error()).count() as u64),
        ),
        (
            "warnings",
            Json::uint(structural.iter().filter(|d| !d.is_error()).count() as u64),
        ),
        ("equiv_findings", Json::uint(equiv.len() as u64)),
    ])
}

/// Fastest observed run time of `f` over ~400 invocations. Each run's
/// argument clone happens outside the timed window (harness cost, not
/// engine cost); the minimum sheds scheduler and frequency noise.
fn secs_per_run(args: &[SimValue], mut f: impl FnMut(Vec<SimValue>)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..400 {
        let a = args.to_vec();
        let t0 = Instant::now();
        f(a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times the pre-decoded engine ([`FuncSim::run_decoded`], decode done
/// once up front — the engine's designed amortization) against the
/// legacy string-dispatch interpreter ([`FuncSim::run_legacy`]) on one
/// built kernel. Returns the JSON entry plus both steps/sec figures.
fn engine_entry(
    kernel: &str,
    machine: &MachineSpec,
    asm: &AsmKernel,
    args: &[SimValue],
) -> Option<(Json, f64, f64)> {
    let traced = FuncSim::new(machine.isa).with_trace();
    let (_, trace) = match traced.run(asm, args.to_vec()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune bench: {kernel} functional run failed: {e}");
            return None;
        }
    };
    let steps = trace.len() as f64;
    let sim = FuncSim::new(machine.isa);
    let prog = augem_sim::decode(asm, machine.isa.has(augem_machine::IsaFeature::Avx))
        .expect("decode of a built kernel cannot fail");
    let decoded_s = secs_per_run(args, |a| {
        sim.run_decoded(&prog, asm, a).unwrap();
    });
    let legacy_s = secs_per_run(args, |a| {
        sim.run_legacy(asm, a).unwrap();
    });
    let decoded_sps = steps / decoded_s;
    let legacy_sps = steps / legacy_s;
    println!(
        "engine {:>6} on {:<12} {:>7.0} steps: decoded {:>6.1} Msteps/s, legacy {:>6.1} Msteps/s ({:.2}x)",
        kernel,
        machine.arch.short_name(),
        steps,
        decoded_sps / 1e6,
        legacy_sps / 1e6,
        decoded_sps / legacy_sps,
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("dyn_steps", Json::uint(steps as u64)),
        ("decoded_steps_per_sec", Json::Num(decoded_sps)),
        ("legacy_steps_per_sec", Json::Num(legacy_sps)),
        ("speedup", Json::Num(decoded_sps / legacy_sps)),
    ]);
    Some((entry, decoded_sps, legacy_sps))
}

/// One cached verified generation: sweep wall time plus the evaluation
/// cache's per-stage hit/miss counters from the driver's run report.
fn sweep_entry(machine: &MachineSpec, kernel: DlaKernel) -> Option<Json> {
    let driver = Augem::new(machine.clone());
    let t0 = Instant::now();
    let (g, report, _findings) = match driver.generate_report_verified(kernel) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "tune bench: verified generation failed for {} on {}: {e}",
                kernel.name(),
                machine.arch.short_name()
            );
            return None;
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let c = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let (bh, bm) = (c("cache.build.hit"), c("cache.build.miss"));
    let (eh, em) = (c("cache.eval.hit"), c("cache.eval.miss"));
    println!(
        "sweep  {:>6} on {:<12} {:>8.0} ms: build cache {bh} hit / {bm} miss, eval cache {eh} hit / {em} miss",
        kernel.name(),
        machine.arch.short_name(),
        wall_ms,
    );
    Some(Json::obj(vec![
        ("kernel", Json::str(kernel.name())),
        ("machine", Json::str(machine.arch.short_name())),
        ("config", Json::str(g.config_tag.clone())),
        ("mflops", Json::Num(g.mflops)),
        ("wall_ms", Json::Num(wall_ms)),
        (
            "cache",
            Json::obj(vec![
                ("build_hits", Json::uint(bh)),
                ("build_misses", Json::uint(bm)),
                ("build_hit_rate", Json::Num(rate(bh, bm))),
                ("eval_hits", Json::uint(eh)),
                ("eval_misses", Json::uint(em)),
                ("eval_hit_rate", Json::Num(rate(eh, em))),
            ]),
        ),
    ]))
}

/// Benchmarks the tuning substrate itself and writes `BENCH_tune.json`
/// (`augem.bench-tune/v1`): pre-decoded vs legacy simulator throughput
/// per kernel × platform, and cached verified-generation sweeps with
/// per-stage cache hit rates. Returns `false` — the CI regression gate —
/// if the decoded engine is slower than the legacy interpreter anywhere.
fn emit_tune_report(platforms: &[MachineSpec]) -> bool {
    let mut engine = Vec::new();
    let mut ok = true;
    for machine in platforms {
        let gemm_cfg = GemmConfig::fig13();
        match gemm_cfg.build_logged(machine) {
            Ok(build) => {
                let (mr, nr, kc) = augem_tune::evaluate::gemm_eval_dims(&gemm_cfg);
                let (mc, ldb, ldc) = (mr, nr, mr);
                let args = vec![
                    SimValue::Int(mr as i64),
                    SimValue::Int(nr as i64),
                    SimValue::Int(kc as i64),
                    SimValue::Int(mc as i64),
                    SimValue::Int(ldb as i64),
                    SimValue::Int(ldc as i64),
                    SimValue::Array((0..mc * kc).map(|v| (v % 17) as f64 * 0.25).collect()),
                    SimValue::Array((0..kc * ldb).map(|v| (v % 13) as f64 * 0.5).collect()),
                    SimValue::Array(vec![0.0; ldc * nr]),
                ];
                if let Some((entry, d, l)) = engine_entry("dgemm", machine, &build.asm, &args) {
                    ok &= d >= l;
                    engine.push(entry);
                }
            }
            Err(e) => eprintln!("tune bench: gemm build failed: {e}"),
        }
        let axpy_cfg = VectorConfig {
            kernel: VectorKernel::Axpy,
            unroll: 2 * machine.simd_mode().f64_lanes(),
            prefetch: augem::transforms::PrefetchConfig::default(),
            schedule: true,
        };
        match axpy_cfg.build_logged(machine) {
            Ok(build) => {
                // Cache-resident: the engine comparison should measure
                // dispatch throughput, not the host's DRAM bandwidth.
                let n = 2_048usize;
                let args = vec![
                    SimValue::Int(n as i64),
                    SimValue::F64(1.5),
                    SimValue::Array(vec![0.5; n]),
                    SimValue::Array(vec![1.0; n]),
                ];
                if let Some((entry, d, l)) = engine_entry("daxpy", machine, &build.asm, &args) {
                    ok &= d >= l;
                    engine.push(entry);
                }
            }
            Err(e) => eprintln!("tune bench: axpy build failed: {e}"),
        }
    }

    let mut sweeps = Vec::new();
    for machine in platforms {
        for kernel in [DlaKernel::Gemm, DlaKernel::Axpy] {
            if let Some(entry) = sweep_entry(machine, kernel) {
                sweeps.push(entry);
            }
        }
    }

    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-tune/v1")),
        ("engine", Json::Arr(engine)),
        ("sweeps", Json::Arr(sweeps)),
    ]);
    let path = "BENCH_tune.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    if !ok {
        eprintln!("tune bench FAILED: decoded engine slower than the legacy interpreter");
    }
    ok
}

/// Minimum observed wall time of `f` over ~200 invocations. The replay
/// is deterministic, so the minimum sheds scheduler and frequency noise.
fn secs_per_replay(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..200 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times the plain timing replay against the profiled replay on one
/// pre-built kernel trace, then rolls the profiled counters up into the
/// region summary that goes into the report entry. Returns the JSON
/// entry plus both per-replay wall times.
fn prof_entry(
    kernel: &str,
    machine: &MachineSpec,
    build: &augem_tune::LoggedBuild,
    args: &[SimValue],
    warm: bool,
) -> Option<(Json, f64, f64)> {
    let traced = FuncSim::new(machine.isa).with_trace();
    let (_, trace) = match traced.run(&build.asm, args.to_vec()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prof bench: {kernel} functional run failed: {e}");
            return None;
        }
    };
    let plain_s = secs_per_replay(|| {
        let _ = augem_sim::replay(&build.asm, &trace, machine, warm);
    });
    let profiled_s = secs_per_replay(|| {
        let _ = augem_sim::replay_profiled(&build.asm, &trace, machine, warm);
    });
    let (report, pcs) = augem_sim::replay_profiled(&build.asm, &trace, machine, warm);
    let profile = augem_prof::Profile::build(&build.asm, machine, &report, &pcs, Some(&build.log));
    let overhead = profiled_s / plain_s;
    println!(
        "prof   {:>6} on {:<12} {:>8} cycles: plain {:>8.1} us, profiled {:>8.1} us ({:.2}x)",
        kernel,
        machine.arch.short_name(),
        report.cycles,
        plain_s * 1e6,
        profiled_s * 1e6,
        overhead,
    );
    let regions: Vec<Json> = profile
        .regions
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::str(r.name.clone())),
                ("cycles", Json::uint(r.cycles)),
                ("pct", Json::Num(r.pct)),
            ])
        })
        .collect();
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("cycles", Json::uint(report.cycles)),
        ("dyn_insts", Json::uint(report.dyn_insts)),
        ("plain_replay_s", Json::Num(plain_s)),
        ("profiled_replay_s", Json::Num(profiled_s)),
        ("overhead", Json::Num(overhead)),
        ("regions", Json::Arr(regions)),
    ]);
    Some((entry, plain_s, profiled_s))
}

/// Benchmarks the profiler itself and writes `BENCH_prof.json`
/// (`augem.bench-prof/v1`): plain vs profiled timing-replay wall time
/// per kernel × platform plus each kernel's region rollup. Returns
/// `false` — the CI overhead gate — when the profiled replay costs more
/// than 2x the plain replay anywhere.
fn emit_prof_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut ok = true;
    for machine in platforms {
        let gemm_cfg = GemmConfig::fig13();
        match gemm_cfg.build_logged(machine) {
            Ok(build) => {
                let (args, _) = augem_tune::gemm_eval_args(&gemm_cfg);
                if let Some((entry, p, q)) = prof_entry("dgemm", machine, &build, &args, true) {
                    ok &= q <= 2.0 * p;
                    entries.push(entry);
                }
            }
            Err(e) => eprintln!("prof bench: gemm build failed: {e}"),
        }
        let axpy_cfg = VectorConfig {
            kernel: VectorKernel::Axpy,
            unroll: 2 * machine.simd_mode().f64_lanes(),
            prefetch: augem::transforms::PrefetchConfig::default(),
            schedule: true,
        };
        match axpy_cfg.build_logged(machine) {
            Ok(build) => {
                let (args, _) = augem_tune::vector_eval_args(&axpy_cfg);
                if let Some((entry, p, q)) = prof_entry("daxpy", machine, &build, &args, false) {
                    ok &= q <= 2.0 * p;
                    entries.push(entry);
                }
            }
            Err(e) => eprintln!("prof bench: axpy build failed: {e}"),
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-prof/v1")),
        ("kernels", Json::Arr(entries)),
    ]);
    let path = "BENCH_prof.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    if !ok {
        eprintln!("prof bench FAILED: profiled replay more than 2x the plain replay");
    }
    ok
}

/// The six kernel families of the cost and depan benches, in report
/// order: GEMM, then the vector kernels.
const VECTOR_KERNELS: [VectorKernel; 5] = [
    VectorKernel::Axpy,
    VectorKernel::Dot,
    VectorKernel::Gemv,
    VectorKernel::Ger,
    VectorKernel::Scal,
];

/// One timed exhaustive sweep and one timed sweep under `opts` (through
/// a fresh cache) over the same candidates: the comparison behind the
/// cost and depan benches. `Err` describes whichever sweep failed.
#[allow(clippy::type_complexity)]
fn sweep_pair<C: Candidate + Copy>(
    candidates: Vec<C>,
    machine: &MachineSpec,
    opts: &ResilOptions,
) -> Result<((TuneResult<C>, f64), (TuneResult<C>, f64)), String> {
    let timed = |opts: &ResilOptions, cache: &EvalCache| {
        let t0 = Instant::now();
        let r = augem_tune::sweep(
            candidates.clone(),
            machine,
            opts,
            None,
            &augem::resil::Injector::disabled(),
            augem::obs::null(),
            cache,
        );
        r.map(|r| (r, t0.elapsed().as_secs_f64()))
            .map_err(|e| e.to_string())
    };
    let kernel = candidates.first().map_or("?", |c| c.kernel().name());
    match (
        timed(&ResilOptions::plain(), &EvalCache::disabled()),
        timed(opts, &EvalCache::new()),
    ) {
        (Ok(plain), Ok(with)) => Ok((plain, with)),
        (plain, with) => Err(format!(
            "{kernel} sweep failed on {}: plain={:?} with options={:?}",
            machine.arch.short_name(),
            plain.err(),
            with.err()
        )),
    }
}

/// Did the sweep under options keep the exhaustive winner, down to its
/// simulated cycles?
fn winner_preserved<C: Candidate>(plain: &TuneResult<C>, with: &TuneResult<C>) -> bool {
    plain.best.tag() == with.best.tag()
        && plain.best_eval.report.cycles == with.best_eval.report.cycles
}

/// One pruned-vs-exhaustive sweep comparison. Returns the JSON entry
/// plus the gate ingredients: winner preservation, the prune rate, the
/// bound phase's seconds and the exhaustive sweep's seconds. `naive` is
/// an extra configuration whose bound tightness is reported next to
/// the winner's.
fn cost_sweep<C: Candidate + Copy>(
    candidates: Vec<C>,
    machine: &MachineSpec,
    naive: Option<C>,
) -> Result<(Json, bool, f64, f64, f64), String> {
    let opts = ResilOptions {
        prune: true,
        ..ResilOptions::plain()
    };
    let ((plain, exhaustive_s), (pruned, pruned_s)) = sweep_pair(candidates, machine, &opts)?;
    let stats = pruned.stats;
    let kernel = pruned.best.kernel().name();
    let tightness: Vec<(String, f64)> = naive
        .iter()
        .chain([&pruned.best])
        .filter_map(|c| tightness(c, machine))
        .collect();
    let preserved = winner_preserved(&plain, &pruned);
    let prune_rate = stats.pruned as f64 / stats.analyzed.max(1) as f64;
    let bound_s = stats.bound_ns as f64 / 1e9;
    let bound_frac = bound_s / exhaustive_s.max(1e-12);
    println!(
        "cost   {:>6} on {:<12} {:>3}/{:<3} pruned ({:>4.0}%): sweep {:>7.1} ms -> {:>7.1} ms, bounds {:>6.2} ms ({:.2}% of sweep){}",
        kernel,
        machine.arch.short_name(),
        stats.pruned,
        stats.analyzed,
        prune_rate * 100.0,
        exhaustive_s * 1e3,
        pruned_s * 1e3,
        bound_s * 1e3,
        bound_frac * 100.0,
        if preserved { "" } else { "  WINNER CHANGED" },
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("generated", Json::uint(pruned.generated as u64)),
        ("analyzed", Json::uint(stats.analyzed as u64)),
        ("pruned", Json::uint(stats.pruned as u64)),
        ("evaluated", Json::uint(stats.evaluated as u64)),
        ("prune_rate", Json::Num(prune_rate)),
        ("exhaustive_sweep_s", Json::Num(exhaustive_s)),
        ("pruned_sweep_s", Json::Num(pruned_s)),
        ("bound_phase_s", Json::Num(bound_s)),
        ("bound_phase_frac_of_sweep", Json::Num(bound_frac)),
        ("winner", Json::str(pruned.best.tag())),
        ("winner_preserved", Json::Bool(preserved)),
        (
            "tightness",
            Json::Arr(
                tightness
                    .iter()
                    .map(|(tag, t)| {
                        Json::obj(vec![
                            ("config", Json::str(tag.clone())),
                            ("bound_over_actual", Json::Num(*t)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok((entry, preserved, prune_rate, bound_s, exhaustive_s))
}

/// Bound tightness (static bound / simulated cycles) for one built
/// configuration, timed in its own cache regime; `None` when the shape
/// cannot build.
fn tightness<C: Candidate>(cfg: &C, machine: &MachineSpec) -> Option<(String, f64)> {
    let asm = cfg.build(machine).ok()?;
    let (args, _) = cfg.eval_args();
    let r = augem::cost::analyze(&asm, &args, machine).ok()?;
    let (t, _) = if cfg.warm_cache() {
        augem_sim::simulate_timing_steady(&asm, args, machine)
    } else {
        augem_sim::simulate_timing(&asm, args, machine)
    }
    .ok()?;
    Some((
        cfg.tag(),
        r.lower_bound_cycles as f64 / t.cycles.max(1) as f64,
    ))
}

/// Benchmarks bound-based sweep pruning and writes `BENCH_cost.json`
/// (`augem.bench-cost/v1`): per kernel × platform prune rates, sweep
/// wall time with and without pruning, the bound phase's cost, and
/// bound tightness (static bound / simulated cycles) for the naive and
/// winning configurations. Returns `false` — the CI gate — when
/// pruning changes any winner, when the bound phases cost 1% or more
/// of the exhaustive sweeps overall (per-sweep fractions are reported
/// in the JSON; the gate is the aggregate, since the steady-regime
/// GEMM sweep is milliseconds long and its denominator tells us
/// nothing about analyzer cost), or when no kernel reaches a 25%
/// prune rate.
fn emit_cost_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut winners_ok = true;
    let mut total_bound_s = 0.0f64;
    let mut total_exhaustive_s = 0.0f64;
    let mut best_rate = 0.0f64;

    for machine in platforms {
        let gemm = cost_sweep(gemm_candidates(machine), machine, Some(GemmConfig::fig13()));
        let vector = VECTOR_KERNELS
            .iter()
            .map(|&vk| cost_sweep(vector_candidates(vk, machine), machine, None));
        for sweep in std::iter::once(gemm).chain(vector) {
            match sweep {
                Ok((entry, ok, rate, bound_s, exhaustive_s)) => {
                    entries.push(entry);
                    winners_ok &= ok;
                    total_bound_s += bound_s;
                    total_exhaustive_s += exhaustive_s;
                    best_rate = best_rate.max(rate);
                }
                Err(why) => {
                    eprintln!("cost bench: {why}");
                    winners_ok = false;
                }
            }
        }
    }

    let total_frac = total_bound_s / total_exhaustive_s.max(1e-12);
    let bound_cheap = total_frac < 0.01;
    let rate_ok = best_rate >= 0.25;
    let ok = winners_ok && bound_cheap && rate_ok;
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-cost/v1")),
        ("winners_preserved", Json::Bool(winners_ok)),
        ("bound_phase_under_1pct", Json::Bool(bound_cheap)),
        ("bound_phase_total_frac", Json::Num(total_frac)),
        ("best_prune_rate", Json::Num(best_rate)),
        ("sweeps", Json::Arr(entries)),
    ]);
    let path = "BENCH_cost.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return false;
        }
    }
    if !winners_ok {
        eprintln!("cost bench FAILED: pruning changed a sweep winner");
    }
    if !bound_cheap {
        eprintln!(
            "cost bench FAILED: bound phases cost {:.2}% of the exhaustive sweeps (gate: <1%)",
            total_frac * 100.0
        );
    }
    if !rate_ok {
        eprintln!("cost bench FAILED: best prune rate {best_rate:.2} below 25%");
    }
    ok
}

/// One legality-checked sweep's JSON entry plus its gate ingredients:
/// winner preservation, zero rejections, the legality phase's seconds
/// and the checked sweep's seconds.
fn depan_sweep<C: Candidate + Copy>(
    candidates: Vec<C>,
    machine: &MachineSpec,
) -> Result<(Json, bool, bool, f64, f64), String> {
    let opts = ResilOptions {
        check_legality: true,
        ..ResilOptions::plain()
    };
    let ((plain, _), (checked, sweep_s)) = sweep_pair(candidates, machine, &opts)?;
    let stats = checked.stats;
    let kernel = checked.best.kernel().name();
    let preserved = winner_preserved(&plain, &checked);
    let no_rejections = stats.rejected == 0;
    let check_s = stats.check_ns as f64 / 1e9;
    let check_frac = check_s / sweep_s.max(1e-12);
    println!(
        "depan  {:>6} on {:<12} {:>3}/{:<3} checked, {} rejected: legality {:>6.2} ms of {:>7.1} ms sweep ({:.2}%){}{}",
        kernel,
        machine.arch.short_name(),
        stats.checked,
        checked.generated,
        stats.rejected,
        check_s * 1e3,
        sweep_s * 1e3,
        check_frac * 100.0,
        if preserved { "" } else { "  WINNER CHANGED" },
        if no_rejections { "" } else { "  FALSE REJECTION" },
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("generated", Json::uint(checked.generated as u64)),
        ("checked", Json::uint(stats.checked as u64)),
        ("rejected", Json::uint(stats.rejected as u64)),
        ("check_phase_s", Json::Num(check_s)),
        ("sweep_s", Json::Num(sweep_s)),
        ("check_frac_of_sweep", Json::Num(check_frac)),
        ("winner", Json::str(checked.best.tag())),
        ("winner_preserved", Json::Bool(preserved)),
    ]);
    Ok((entry, preserved, no_rejections, check_s, sweep_s))
}

/// Benchmarks the depan transform-legality filter and writes
/// `BENCH_depan.json` (`augem.bench-depan/v1`): per kernel × platform,
/// how many candidates the checker replayed, how many it rejected, and
/// what the legality phase cost relative to the whole sweep. Returns
/// `false` — the CI gate — when any tuner candidate is rejected (every
/// enumerated candidate is legal by construction, so any rejection is a
/// false positive), when checking changes a winner, or when the
/// legality phases cost 1% or more of the checked sweeps overall (the
/// aggregate, for the same reason as the cost gate: millisecond GEMM
/// sweeps make per-sweep fractions noise).
fn emit_depan_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut winners_ok = true;
    let mut rejections_ok = true;
    let mut total_check_s = 0.0f64;
    let mut total_sweep_s = 0.0f64;

    for machine in platforms {
        let gemm = depan_sweep(gemm_candidates(machine), machine);
        let vector = VECTOR_KERNELS
            .iter()
            .map(|&vk| depan_sweep(vector_candidates(vk, machine), machine));
        for sweep in std::iter::once(gemm).chain(vector) {
            match sweep {
                Ok((entry, wok, rok, check_s, sweep_s)) => {
                    entries.push(entry);
                    winners_ok &= wok;
                    rejections_ok &= rok;
                    total_check_s += check_s;
                    total_sweep_s += sweep_s;
                }
                Err(why) => {
                    eprintln!("depan bench: {why}");
                    rejections_ok = false;
                }
            }
        }
    }

    let total_frac = total_check_s / total_sweep_s.max(1e-12);
    let check_cheap = total_frac < 0.01;
    let ok = winners_ok && rejections_ok && check_cheap;
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-depan/v1")),
        ("zero_false_rejections", Json::Bool(rejections_ok)),
        ("winners_preserved", Json::Bool(winners_ok)),
        ("check_phase_under_1pct", Json::Bool(check_cheap)),
        ("check_phase_total_frac", Json::Num(total_frac)),
        ("sweeps", Json::Arr(entries)),
    ]);
    let path = "BENCH_depan.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return false;
        }
    }
    if !rejections_ok {
        eprintln!("depan bench FAILED: a legal tuner candidate was rejected (false positive)");
    }
    if !winners_ok {
        eprintln!("depan bench FAILED: the legality filter changed a sweep winner");
    }
    if !check_cheap {
        eprintln!(
            "depan bench FAILED: legality phases cost {:.2}% of the checked sweeps (gate: <1%)",
            total_frac * 100.0
        );
    }
    ok
}

/// One daemon request for the serve benchmark.
fn serve_request(
    id: String,
    op: augem_serve::Op,
    kernel: DlaKernel,
    machine: &MachineSpec,
) -> augem_serve::Request {
    augem_serve::Request {
        id,
        op,
        kernel,
        machine: machine.clone(),
        deadline_ms: None,
        step_limit: None,
    }
}

/// Byte-for-byte comparison of two kernel-store directories (journal +
/// entries). Prints the first difference found.
fn stores_bit_identical(a: &std::path::Path, b: &std::path::Path) -> bool {
    let ja = std::fs::read(a.join("journal.jsonl")).unwrap_or_default();
    let jb = std::fs::read(b.join("journal.jsonl")).unwrap_or_default();
    if ja != jb {
        eprintln!(
            "serve bench: journals differ ({} vs {})",
            a.display(),
            b.display()
        );
        return false;
    }
    let list = |d: &std::path::Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d.join("entries"))
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().to_string())
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    };
    let (la, lb) = (list(a), list(b));
    if la != lb {
        eprintln!("serve bench: entry sets differ: {la:?} vs {lb:?}");
        return false;
    }
    for name in la {
        let ea = std::fs::read(a.join("entries").join(&name)).unwrap_or_default();
        let eb = std::fs::read(b.join("entries").join(&name)).unwrap_or_default();
        if ea != eb {
            eprintln!("serve bench: entry {name} differs");
            return false;
        }
    }
    true
}

/// Benchmarks the kernel-compilation daemon and writes
/// `BENCH_serve.json` (`augem.bench-serve/v1`). Three phases:
///
/// 1. **Cold** — every kernel × paper platform tuned once through the
///    worker pool into a persistent store.
/// 2. **Repeat** — thousands of mixed generate/tune requests across the
///    warm families; gates the cache hit rate at ≥ 90% and records
///    p50/p99 latency and requests/sec.
/// 3. **Crash-restart** — a fresh store with an injected kill in the
///    commit window (after the journal append, before the entry
///    write); gates zero lost and zero duplicated responses once the
///    restarted daemon re-serves the pending requests, and that the
///    recovered store is bit-identical to a never-crashed run.
fn emit_serve_report(platforms: &[MachineSpec]) -> bool {
    use augem::obs::hash::splitmix64;
    use augem::resil::{Fault, InjectionPlan, Injector, Site, Trigger};
    use augem_obs::Histogram;
    use augem_serve::{Op, ServeConfig, Server, ServerPool};
    use std::sync::Arc;

    let root = std::env::temp_dir().join(format!("augem-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let families: Vec<(DlaKernel, &MachineSpec)> = platforms
        .iter()
        .flat_map(|m| DlaKernel::ALL.into_iter().map(move |k| (k, m)))
        .collect();

    // Phase 1: cold — tune every family once through the pool.
    let store_dir = root.join("main");
    let cold_t0 = Instant::now();
    let (cold_misses, cold_total) = {
        let config = ServeConfig {
            workers: 4,
            queue_capacity: 4096,
            cache_dir: Some(store_dir.clone()),
            ..ServeConfig::default()
        };
        let server = match Server::open(config, Injector::disabled()) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("serve bench: cannot open store: {e}");
                return false;
            }
        };
        let pool = ServerPool::start(Arc::clone(&server));
        let rxs: Vec<_> = families
            .iter()
            .enumerate()
            .map(|(i, (k, m))| pool.request(serve_request(format!("cold-{i}"), Op::Tune, *k, m)))
            .collect();
        let mut misses = 0usize;
        for rx in &rxs {
            match rx.recv() {
                Ok(r) if r.cache == Some("miss") => misses += 1,
                Ok(_) => {}
                Err(_) => {
                    eprintln!("serve bench: a cold request got no response");
                    return false;
                }
            }
        }
        pool.shutdown();
        (misses, rxs.len())
    };
    let cold_s = cold_t0.elapsed().as_secs_f64();

    // Phase 2: repeat — a warm-started daemon (fresh process image,
    // same store) floods with mixed requests.
    const REPEAT: usize = 2000;
    let mut hist = Histogram::new(); // end-to-end (queue wait included)
    let mut service = Histogram::new(); // worker dequeue → response
    let mut hits = 0usize;
    let repeat_t0 = Instant::now();
    {
        let config = ServeConfig {
            workers: 4,
            queue_capacity: 4096,
            cache_dir: Some(store_dir.clone()),
            ..ServeConfig::default()
        };
        let server = match Server::open(config, Injector::disabled()) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("serve bench: cannot reopen store: {e}");
                return false;
            }
        };
        let pool = ServerPool::start(Arc::clone(&server));
        let submitted: Vec<(Instant, std::sync::mpsc::Receiver<_>)> = (0..REPEAT)
            .map(|i| {
                let r = splitmix64(0xBE9C ^ i as u64);
                let (k, m) = families[(r % families.len() as u64) as usize];
                let op = if r.is_multiple_of(4) {
                    Op::Generate
                } else {
                    Op::Tune
                };
                (
                    Instant::now(),
                    pool.request(serve_request(format!("r-{i}"), op, k, m)),
                )
            })
            .collect();
        for (t0, rx) in &submitted {
            match rx.recv() {
                Ok(r) => {
                    hist.record(t0.elapsed().as_micros() as u64);
                    service.record(r.work_ns.unwrap_or(0) / 1000);
                    if r.cache == Some("hit") {
                        hits += 1;
                    }
                }
                Err(_) => {
                    eprintln!("serve bench: a repeat request got no response");
                    return false;
                }
            }
        }
        pool.shutdown();
    }
    let repeat_s = repeat_t0.elapsed().as_secs_f64();
    let hit_rate = hits as f64 / REPEAT as f64;
    let rps = REPEAT as f64 / repeat_s.max(1e-12);

    // Phase 3: crash-restart with exactly-once accounting.
    let crash_dir = root.join("crash");
    let ref_dir = root.join("reference");
    let crash_requests: Vec<(DlaKernel, &MachineSpec)> = families.clone();
    let mut answered: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let run = |dir: &std::path::Path,
               injector: Injector,
               ids: &[usize],
               answered: &mut std::collections::HashMap<String, usize>|
     -> Option<bool> {
        let config = ServeConfig {
            workers: 1, // deterministic commit order for the byte comparison
            queue_capacity: 4096,
            cache_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let server = Server::open(config, injector).ok()?;
        let pool = ServerPool::start(Arc::new(server));
        let rxs: Vec<_> = ids
            .iter()
            .map(|i| {
                let (k, m) = crash_requests[*i];
                (
                    format!("x-{i}"),
                    pool.request(serve_request(format!("x-{i}"), Op::Tune, k, m)),
                )
            })
            .collect();
        for (id, rx) in &rxs {
            if rx.recv().is_ok() {
                *answered.entry(id.clone()).or_insert(0) += 1;
            }
        }
        Some(pool.shutdown())
    };
    let all: Vec<usize> = (0..crash_requests.len()).collect();

    // Reference: a clean run over the same request sequence.
    let mut ref_answered = std::collections::HashMap::new();
    if run(&ref_dir, Injector::disabled(), &all, &mut ref_answered) != Some(false) {
        eprintln!("serve bench: reference run failed");
        return false;
    }

    // Crash run: die in the 5th commit window, then restart and
    // re-serve exactly the unanswered requests.
    let crash =
        Injector::new(InjectionPlan::new(0).with(Site::StoreCommit, Fault::Crash, Trigger::Nth(5)));
    let crashed = run(&crash_dir, crash, &all, &mut answered);
    if crashed != Some(true) {
        eprintln!("serve bench: injected crash did not fire (got {crashed:?})");
        return false;
    }
    let lost_at_crash = all.len() - answered.len();
    let pending: Vec<usize> = all
        .iter()
        .copied()
        .filter(|i| !answered.contains_key(&format!("x-{i}")))
        .collect();
    if run(&crash_dir, Injector::disabled(), &pending, &mut answered) != Some(false) {
        eprintln!("serve bench: restart run failed");
        return false;
    }
    let lost = all
        .iter()
        .filter(|i| !answered.contains_key(&format!("x-{i}")))
        .count();
    let duplicated = answered.values().filter(|&&c| c > 1).count();
    let bit_identical = stores_bit_identical(&crash_dir, &ref_dir);

    let hit_gate = hit_rate >= 0.90;
    let exactly_once = lost == 0 && duplicated == 0;
    let ok = hit_gate && exactly_once && bit_identical;
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-serve/v1")),
        (
            "cold",
            Json::obj(vec![
                ("requests", Json::uint(cold_total as u64)),
                ("misses", Json::uint(cold_misses as u64)),
                ("seconds", Json::Num(cold_s)),
            ]),
        ),
        (
            "repeat",
            Json::obj(vec![
                ("requests", Json::uint(REPEAT as u64)),
                ("hits", Json::uint(hits as u64)),
                ("hit_rate", Json::Num(hit_rate)),
                ("p50_us", Json::uint(hist.p50())),
                ("p99_us", Json::uint(hist.p99())),
                ("service_p50_us", Json::uint(service.p50())),
                ("service_p99_us", Json::uint(service.p99())),
                ("requests_per_sec", Json::Num(rps)),
                ("seconds", Json::Num(repeat_s)),
            ]),
        ),
        (
            "crash_restart",
            Json::obj(vec![
                ("requests", Json::uint(all.len() as u64)),
                ("lost_at_crash", Json::uint(lost_at_crash as u64)),
                ("reserved_after_restart", Json::uint(pending.len() as u64)),
                ("lost", Json::uint(lost as u64)),
                ("duplicated", Json::uint(duplicated as u64)),
                ("store_bit_identical", Json::Bool(bit_identical)),
            ]),
        ),
        (
            "gates",
            Json::obj(vec![
                ("hit_rate_ge_90pct", Json::Bool(hit_gate)),
                ("exactly_once_across_crash", Json::Bool(exactly_once)),
                ("recovery_bit_identical", Json::Bool(bit_identical)),
            ]),
        ),
        ("ok", Json::Bool(ok)),
    ]);
    let path = "BENCH_serve.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return false;
        }
    }
    if !hit_gate {
        eprintln!("serve bench FAILED: repeat-phase hit rate {hit_rate:.3} (gate: >= 0.90)");
    }
    if !exactly_once {
        eprintln!("serve bench FAILED: {lost} lost / {duplicated} duplicated responses across crash-restart");
    }
    if !bit_identical {
        eprintln!("serve bench FAILED: recovered store differs from the never-crashed reference");
    }
    let _ = std::fs::remove_dir_all(&root);
    ok
}

/// A `BENCH_*.json` writer over the paper platforms; it returns its CI
/// gate, and `false` exits 1.
type Writer = fn(&[MachineSpec]) -> bool;

/// The writers, each run when named or under `all`.
const WRITERS: [(&str, Writer); 7] = [
    ("pipeline", |p| {
        emit_pipeline_reports(p);
        true
    }),
    ("verify", |p| {
        emit_verify_reports(p);
        true
    }),
    ("tune", emit_tune_report),
    ("prof", emit_prof_report),
    ("cost", emit_cost_report),
    ("depan", emit_depan_report),
    ("serve", emit_serve_report),
];

/// What the figure and table printers answer to; no arguments at all
/// prints every one of them.
const PRINTED: [&str; 7] = [
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "table6",
    "ablations",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = |name: &str| args.iter().any(|a| a == name);
    let want = |name: &str| args.is_empty() || named(name) || named("all");

    let platforms = MachineSpec::paper_platforms();

    for (name, write) in WRITERS {
        if (named(name) || named("all")) && !write(&platforms) {
            std::process::exit(1);
        }
    }

    if named("asm") {
        for machine in &platforms {
            let driver = Augem::new(machine.clone());
            for k in DlaKernel::ALL {
                let g = driver.generate(k).expect("generation");
                println!(
                    "### {} on {} ({}, {:.0} Mflops steady-state)\n",
                    k.name(),
                    machine.arch.name(),
                    g.config_tag,
                    g.mflops
                );
                println!("{}", g.assembly_text());
            }
        }
    }

    if !args.is_empty() && !PRINTED.iter().any(|p| named(p)) {
        return;
    }

    let needs_models = ["fig18", "fig19", "fig20", "fig21", "table6"]
        .iter()
        .any(|f| want(f));

    for machine in &platforms {
        println!("==================================================================");
        println!("Platform: {}", machine.arch.name());
        println!("==================================================================\n");

        if needs_models {
            let models = Models::build(machine);
            if want("fig18") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 18 ({}): DGEMM Mflops, m=n sweep, k=256",
                            machine.arch.short_name()
                        ),
                        &models.fig18()
                    )
                );
                println!();
            }
            if want("fig19") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 19 ({}): DGEMV Mflops, m=n sweep",
                            machine.arch.short_name()
                        ),
                        &models.fig19()
                    )
                );
                println!();
            }
            if want("fig20") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 20 ({}): DAXPY Mflops, vector-length sweep",
                            machine.arch.short_name()
                        ),
                        &models.fig20()
                    )
                );
                println!();
            }
            if want("fig21") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 21 ({}): DDOT Mflops, vector-length sweep",
                            machine.arch.short_name()
                        ),
                        &models.fig21()
                    )
                );
                println!();
            }
            if want("table6") {
                println!(
                    "## Table 6 ({}): higher-level routines, average Mflops\n",
                    machine.arch.short_name()
                );
                let table = models.table6();
                print!("{:>8}", "routine");
                for (lib, _) in &table[0].1 {
                    print!("{:>16}", lib);
                }
                println!();
                for (kind, row) in &table {
                    print!("{:>8}", kind.name());
                    for (_, v) in row {
                        print!("{:>16.0}", v);
                    }
                    println!();
                }
                println!();
            }
        }

        if want("ablations") {
            println!(
                "## Ablations ({}): GEMM micro-kernel steady-state Mflops\n",
                machine.arch.short_name()
            );
            for a in ablations(machine) {
                println!("{:>10.0}  {}", a.mflops, a.name);
            }
            println!();
        }
    }
}
