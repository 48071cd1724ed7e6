//! End-to-end telemetry: a traced GEMM generation must account for every
//! pipeline stage and produce a valid `augem.run-report/v1` document.

use augem::machine::MachineSpec;
use augem::obs::{stage, Collector, Json, RunReport};
use augem::resil::{Fault, InjectionPlan, Injector, Site, Trigger};
use augem::tune::ResilOptions;
use augem::{Augem, Degradation, DegradationPolicy, DlaKernel};

#[test]
fn traced_gemm_reports_all_four_pipeline_stages() {
    let driver = Augem::new(MachineSpec::sandy_bridge());
    let collector = Collector::new();
    let g = driver
        .generate_traced(DlaKernel::Gemm, &collector)
        .expect("traced generation");
    assert!(g.mflops > 0.0);

    let snap = collector.snapshot();
    let stages = snap.stages();
    for name in [stage::CGEN, stage::IDENTIFY, stage::AKG, stage::SIM] {
        let s = stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("stage `{name}` missing from {stages:?}"));
        assert!(s.wall_ns > 0, "stage `{name}` has zero wall time");
        assert!(s.calls > 0, "stage `{name}` has zero calls");
    }
    // The tuner sweep wraps everything; each candidate runs each stage, so
    // the per-stage call counts track the number of evaluated candidates.
    let tune = stages.iter().find(|s| s.name == stage::TUNE).unwrap();
    assert_eq!(tune.calls, 1);
    let cgen = stages.iter().find(|s| s.name == stage::CGEN).unwrap();
    assert!(cgen.calls > 1, "tuning should run cgen per candidate");

    // Pipeline counters accumulated across the sweep.
    assert!(snap.counters["cgen.stmts.before"] > 0);
    assert!(snap.counters["cgen.stmts.after"] >= snap.counters["cgen.stmts.before"]);
    assert!(snap.counters["identify.regions"] > 0);
    assert!(snap.counters["sim.cycles"] > 0);
    assert!(snap.hwm["regs.vec"] > 0);
    // The winner's strategy label survives the final rebuild.
    assert!(!snap.labels["opt.simd_strategy"].is_empty());
}

#[test]
fn run_report_document_is_complete_and_round_trips() {
    let driver = Augem::new(MachineSpec::sandy_bridge());
    let (g, run) = driver
        .generate_report(DlaKernel::Gemm)
        .expect("report generation");

    assert_eq!(run.kernel, "dgemm");
    assert_eq!(run.machine, "sandybridge");
    assert_eq!(run.config, g.config_tag);
    assert!(run.mflops > 0.0);
    assert!(!run.simd_strategy.is_empty());
    for name in [stage::CGEN, stage::IDENTIFY, stage::AKG, stage::SIM] {
        assert!(run.stage_wall_ns(name).unwrap_or(0) > 0, "stage {name}");
    }

    let tuner = run.tuner.as_ref().expect("tuner telemetry");
    assert!(tuner.ranking.len() >= 2, "expected a real search space");
    assert_eq!(tuner.built as usize, tuner.ranking.len());
    assert_eq!(tuner.generated, tuner.built + tuner.pruned);
    assert!(tuner.best_mflops >= tuner.median_mflops);
    assert!((tuner.best_mflops - run.mflops).abs() < 1e-9);

    let sim = run.sim.as_ref().expect("sim counters");
    assert!(sim.cycles > 0 && sim.flops > 0);
    assert_eq!(sim.cycles, g.report.cycles);
    assert_eq!(sim.l1_hits + sim.l1_misses, sim.mem_accesses);

    // The emitted JSON parses back into an identical report.
    let text = run.to_json().render_pretty();
    let parsed = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed, run);
}

#[test]
fn resilient_run_reports_fault_counters_under_the_resil_stage() {
    let driver = Augem::new(MachineSpec::sandy_bridge());
    let policy = DegradationPolicy {
        resil: ResilOptions::fast(),
        ..DegradationPolicy::default()
    };
    // One injected evaluation panic: absorbed by a retry, and every
    // step of that recovery must be visible in the run report.
    let inj = Injector::new(InjectionPlan::new(1).with(Site::Eval, Fault::Panic, Trigger::Nth(1)));
    let r = driver.generate_degradable(DlaKernel::Axpy, &policy, &inj);
    assert_eq!(r.degradation, Degradation::None);

    let counters = &r.report.counters;
    assert_eq!(counters["resil.eval.panic"], 1, "{counters:?}");
    assert!(counters["resil.retry"] >= 1, "{counters:?}");
    assert!(
        !counters.contains_key("resil.degraded"),
        "a recovered run is not degraded: {counters:?}"
    );
    // The fault-tolerance envelope is a stage of its own in the report.
    assert!(
        r.report.stage_wall_ns(stage::RESIL).unwrap_or(0) > 0,
        "resil stage missing from report"
    );

    // A clean resilient run reports no resil fault counters at all.
    let clean = driver.generate_degradable(DlaKernel::Axpy, &policy, &Injector::disabled());
    assert_eq!(clean.degradation, Degradation::None);
    assert!(
        !clean
            .report
            .counters
            .keys()
            .any(|k| { k.starts_with("resil.") && k != "resil.journal.resumed" }),
        "clean run leaked fault counters: {:?}",
        clean.report.counters
    );
}

#[test]
fn degradable_run_report_samples_latency_once_per_simulated_candidate() {
    let augem = Augem::new(MachineSpec::sandy_bridge());
    let path = std::env::temp_dir().join(format!("augem-obs-latency-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let policy = DegradationPolicy {
        resil: ResilOptions::fast(),
        checkpoint: Some(path.clone()),
        ..DegradationPolicy::default()
    };
    // A clean daxpy sweep simulates every candidate: nothing is pruned,
    // rejected, skipped by the breaker or restored from a journal.
    let fresh = augem.generate_degradable(DlaKernel::Axpy, &policy, &Injector::disabled());
    assert_eq!(fresh.degradation, Degradation::None);
    let tuner = fresh.report.tuner.as_ref().expect("tuner telemetry");
    assert!(tuner.failures.is_empty(), "{:?}", tuner.failures);
    assert_eq!(tuner.eval_latency_ns.count(), tuner.generated);

    // Resuming from the complete journal restores every outcome and
    // simulates none of them: no samples.
    let resumed = augem.generate_degradable(
        DlaKernel::Axpy,
        &DegradationPolicy {
            resume: true,
            ..policy
        },
        &Injector::disabled(),
    );
    let tuner = resumed.report.tuner.as_ref().expect("tuner telemetry");
    assert_eq!(
        resumed.report.counters["resil.journal.resumed"],
        tuner.generated
    );
    assert_eq!(tuner.eval_latency_ns.count(), 0);
    let _ = std::fs::remove_file(&path);
}
