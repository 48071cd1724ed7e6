//! The traced run: each layer's public functions are called in-process
//! from this file, and every call is wrapped in a span (name, start,
//! end, parent, request id) kept in memory and written out at the end.
//!
//! A miss is replayed sequentially the way the daemon serves it: per
//! candidate `transforms` → `templates` → `opt` → `sim` decode, exec and
//! timing replay; then the winner's `verify` check and equivalence proof,
//! its assembly text, and the `KernelStore` commit. Layers the serve path
//! leaves off today (`depan`, `cost`, `prof`) are timed under a separate
//! root, so the `miss` root mirrors the daemon. A hit is `parse_request`
//! → `Server::handle` → `Response::to_json().render()`.

use crate::check::Served;
use crate::family::{asm_text, Candidate, Family};
use crate::load::{strip_line, Run};
use crate::stats::{median, quantile, ratio, Rng};
use augem::obs::{null, Json};
use augem::resil::Injector;
use augem::sim::{FuncSim, TimingReport};
use augem::tune::resilient::DEFAULT_STEP_BUDGET;
use augem::tune::LoggedBuild;
use augem::{Augem, Degradation, DegradationPolicy};
use augem_serve::{parse_request, store_key, KernelStore, ServeConfig, Server, StoredKernel};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// In-process hits per block; blocks alternate untraced and traced.
const HIT_BLOCK: usize = 500;
const HIT_BLOCKS: usize = 10;
/// `KernelStore::open` repetitions over the workload's store.
const STORE_OPENS: usize = 15;

/// One recorded call.
pub struct SpanRec {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Off, it runs the calls and records nothing, which
/// gives the untraced twin that `trace.overhead_frac` compares against.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
    requests: RefCell<Vec<String>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
            requests: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the root span of a new request `id`.
    pub fn root<T>(&self, name: &'static str, id: &str, f: impl FnOnce() -> T) -> T {
        if self.on {
            self.requests.borrow_mut().push(id.to_string());
        }
        self.time(name, f)
    }

    /// Runs `f` inside a child span of the innermost open span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                request: self.requests.borrow().len().saturating_sub(1),
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per span name: calls, total and self time (ns). Self time is the
    /// span's duration minus what its child spans cover.
    fn table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += s.dur_ns().saturating_sub(*c);
        }
        rows
    }

    /// The spans as JSON lines' worth of objects.
    fn to_json(&self) -> Json {
        let requests = self.requests.borrow();
        Json::Arr(
            self.spans
                .borrow()
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("request", Json::str(requests[s.request].clone())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                        ),
                        ("start_ns", Json::uint(s.start_ns)),
                        ("end_ns", Json::uint(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// What the traced phase found: per-layer figures, failures, and the
/// document written out at the end.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
    pub document: Json,
    pub table: String,
}

/// One replayed sweep.
struct Replayed {
    builds: Vec<(Candidate, LoggedBuild)>,
    winner: usize,
    mflops: f64,
    asm: String,
    dyn_insts: u64,
}

/// Replays one miss of `fam` the way the daemon serves it.
fn replay_miss(rec: &Recorder, fam: Family, store: &mut KernelStore) -> Result<Replayed, String> {
    let machine = fam.machine();
    let vex = machine.isa.has(augem::machine::IsaFeature::Avx);
    let mut builds = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    let mut dyn_insts = 0;
    for cand in fam.candidates() {
        // Candidates that fail to build or simulate drop out of the
        // ranking, as in the tuner.
        let (source, cfg) = cand.transform_inputs();
        let Ok((mut kernel, tlog)) = rec.time("transforms.cgen", || {
            augem::transforms::generate_optimized_logged(&source, &cfg, null())
        }) else {
            continue;
        };
        rec.time("templates.identify", || {
            augem::templates::identify(&mut kernel)
        });
        let opts = cand.codegen_options();
        let Ok((asm, log)) = rec.time("opt.akg", || {
            augem::opt::generate_with_log(&kernel, &machine, &opts, null())
        }) else {
            continue;
        };
        let (args, useful) = rec.time("tune.eval_args", || cand.eval_args());
        let Ok(prog) = rec.time("sim.decode", || augem::sim::decode(&asm, vex)) else {
            continue;
        };
        let sim = FuncSim::new(machine.isa)
            .with_trace()
            .with_step_limit(DEFAULT_STEP_BUDGET);
        let Ok((_, trace)) = rec.time("sim.exec", || sim.run_decoded(&prog, &asm, args)) else {
            continue;
        };
        let report: TimingReport = rec.time("sim.replay", || {
            augem::sim::replay(&asm, &trace, &machine, cand.warm_cache())
        });
        dyn_insts += report.dyn_insts;
        let mflops = report.useful_mflops(useful, machine.turbo_ghz);
        // The tuner's stable sort keeps the first of equal scores.
        if best.is_none_or(|(_, m)| mflops > m) {
            best = Some((builds.len(), mflops));
        }
        builds.push((
            cand,
            LoggedBuild {
                source,
                kernel,
                asm,
                log,
                tlog,
            },
        ));
    }
    let (winner, mflops) = best.ok_or_else(|| format!("{}: no candidate built", fam.label()))?;
    let (cand, build) = &builds[winner];
    let diags = rec.time("verify.check", || {
        augem::verify::check(&build.kernel, &build.asm, &build.log)
    });
    let proof = rec.time("verify.equiv", || {
        augem::verify::check_equivalence(&build.source, &build.asm, machine.isa, &cand.equiv_spec())
    });
    let errors = augem::verify::errors(&diags).len() + augem::verify::errors(&proof).len();
    if errors > 0 {
        return Err(format!("{}: winner fails verification", fam.label()));
    }
    let asm = rec.time("asm.emit", || asm_text(&build.asm, &machine));
    let entry = StoredKernel {
        key: store_key(fam.kernel_name(), &machine, Some(DEFAULT_STEP_BUDGET)),
        kernel: fam.kernel_name().to_string(),
        machine: machine.fingerprint_tag(),
        config_tag: cand.tag(),
        mflops,
        asm: asm.clone(),
    };
    rec.time("store.commit", || {
        store.commit(entry, &Injector::disabled(), null())
    })
    .map_err(|e| format!("store commit: {e}"))?;
    Ok(Replayed {
        builds,
        winner,
        mflops,
        asm,
        dyn_insts,
    })
}

/// The legality check and cost bound of every candidate, and the
/// profile of the winner: layers the serve path leaves off today.
fn off_path(rec: &Recorder, fam: Family, r: &Replayed) {
    let machine = fam.machine();
    for (cand, build) in &r.builds {
        rec.time("depan.check", || {
            augem::depan::check_transforms(&build.source, &build.tlog, None)
        });
        let (args, _) = cand.eval_args();
        let _ = rec.time("cost.analyze", || {
            augem::cost::analyze(&build.asm, &args, &machine)
        });
    }
    let (cand, build) = &r.builds[r.winner];
    let (args, _) = cand.eval_args();
    let _ = rec.time("prof.profile", || {
        augem_prof::profile_kernel(
            &build.asm,
            args,
            &machine,
            cand.warm_cache(),
            Some(DEFAULT_STEP_BUDGET),
            Some(&build.log),
        )
    });
}

fn open_store(dir: &Path) -> Result<KernelStore, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    KernelStore::open(dir, null()).map_err(|e| format!("open {}: {e}", dir.display()))
}

fn same_winner(
    fam: Family,
    served: &Served,
    tag: &str,
    mflops: f64,
    asm: &str,
) -> Result<(), String> {
    let asm_ok = served.asm.as_deref().is_none_or(|a| a == asm);
    if served.config == tag && served.mflops.to_bits() == mflops.to_bits() && asm_ok {
        Ok(())
    } else {
        Err(format!(
            "{}: replay picked {tag} ({mflops}), daemon served {} ({})",
            fam.label(),
            served.config,
            served.mflops
        ))
    }
}

/// Runs the traced phase over what the timed phase `run` served, within
/// `budget` (at least one dgemm and one vector miss are always replayed).
pub fn traced(run: &Run, work: &Path, seed: u64, budget: Duration) -> Result<Traced, String> {
    let start = Instant::now();
    let rec = Recorder::new(true);
    let mut failures = BTreeSet::new();
    let last = run
        .last_store
        .as_deref()
        .ok_or("the timed phase left no store")?;

    // store.open over a copy of the workload's final store.
    let copy = work.join("trace-store");
    for i in 0..STORE_OPENS {
        crate::load::copy_dir(last, &copy)?;
        rec.root("store.open", &format!("open.{i}"), || {
            KernelStore::open(&copy, null())
        })
        .map_err(|e| format!("reopen store: {e}"))?;
    }

    // The hit path, in-process, over the families in that store.
    let in_store = KernelStore::open(&copy, null()).map_err(|e| e.to_string())?;
    let mut kinds: Vec<(Family, bool)> = run
        .hit_lines
        .keys()
        .copied()
        .filter(|(f, _)| {
            let key = store_key(f.kernel_name(), &f.machine(), Some(DEFAULT_STEP_BUDGET));
            in_store.get(&key).is_some()
        })
        .collect();
    kinds.sort();
    drop(in_store);
    let config = ServeConfig {
        cache_dir: Some(copy.clone()),
        ..ServeConfig::default()
    };
    let server = Server::open(config, Injector::disabled()).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed, "trace hits");
    let (mut hit_plain, mut hit_traced) = (Duration::ZERO, Duration::ZERO);
    if !kinds.is_empty() {
        let untraced = Recorder::new(false);
        for block in 0..HIT_BLOCKS * 2 {
            let r = if block % 2 == 0 { &untraced } else { &rec };
            let t = Instant::now();
            for i in 0..HIT_BLOCK {
                let (fam, generate) = kinds[rng.below(kinds.len())];
                let op = if generate { "generate" } else { "tune" };
                let id = format!("h{block}.{i}");
                let line = format!(
                    r#"{{"id":"{id}","op":"{op}","kernel":"{}","machine":"{}"}}"#,
                    fam.kernel_name(),
                    fam.machine_name()
                );
                let out = r.root("hit", &id, || {
                    let req = r.time("serve.parse", || parse_request(&line))?;
                    let resp = r
                        .time("serve.handle", || server.handle(&req))
                        .map_err(|_| "injected crash".to_string())?;
                    Ok::<String, String>(r.time("serve.render", || resp.to_json().render()))
                })?;
                let rest = strip_line(&out).map(|(_, rest, _)| rest);
                if rest.as_ref() != run.hit_lines.get(&(fam, generate)) {
                    failures.insert(format!(
                        "{}: in-process hit differs from the daemon's",
                        fam.label()
                    ));
                }
            }
            *(if block % 2 == 0 {
                &mut hit_plain
            } else {
                &mut hit_traced
            }) += t.elapsed();
        }
    }
    drop(server);

    // Misses: one dgemm and one vector family served, so both kinds
    // always replay, then the rest in seeded order while the budget lasts.
    let mut fams: Vec<Family> = run.served.keys().copied().collect();
    Rng::new(seed, "trace misses").shuffle(&mut fams);
    for (lead, gemm) in [(0, true), (1, false)] {
        if let Some(i) = fams.iter().skip(lead).position(|f| f.is_gemm() == gemm) {
            fams.swap(lead, lead + i);
        }
    }
    let (mut replayed, mut dyn_insts, mut degraded) = (0u64, 0u64, 0u64);
    for (n, &fam) in fams.iter().enumerate() {
        if n >= 2 && start.elapsed() > budget {
            break;
        }
        let served = &run.served[&fam];
        let id = format!("miss.{}", fam.label());
        let mut store = open_store(&work.join("trace-commit"))?;
        let r = rec.root("miss", &id, || replay_miss(&rec, fam, &mut store))?;
        let tag = r.builds[r.winner].0.tag();
        if let Err(why) = same_winner(fam, served, &tag, r.mflops, &r.asm) {
            failures.insert(why);
        }
        replayed += 1;
        dyn_insts += r.dyn_insts;
        rec.root("offpath", &id, || off_path(&rec, fam, &r));
        let result = rec.root("augem.degradable", &id, || {
            Augem::new(fam.machine()).generate_degradable(
                fam.kernel(),
                &DegradationPolicy::default(),
                &Injector::disabled(),
            )
        });
        match &result.generated {
            Some(g) => {
                if let Err(why) =
                    same_winner(fam, served, &g.config_tag, g.mflops, &g.assembly_text())
                {
                    failures.insert(format!("generate_degradable: {why}"));
                }
            }
            None => {
                failures.insert(format!(
                    "{}: generate_degradable shipped nothing",
                    fam.label()
                ));
            }
        }
        if result.degradation != Degradation::None {
            degraded += 1;
        }
    }

    let table = rec.table();
    let med = |name: &str, scale: f64| median(&rec.durations(name)) / scale;
    let total_s = |name: &str| table.get(name).map_or(0.0, |r| r.1 as f64 / 1e9);
    let (mut root_ns, mut root_self_ns) = (0u64, 0u64);
    for name in ["miss", "hit"] {
        if let Some(&(_, total, own)) = table.get(name) {
            root_ns += total;
            root_self_ns += own;
        }
    }
    // Spans are densest on the hit path (four per ~30 µs request), so its
    // A/B blocks bound the recorder's cost; on a miss it is below noise.
    let plain = hit_plain.as_secs_f64();
    let overhead = ratio(hit_traced.as_secs_f64() - plain, plain);
    let c = |k: &str| *run.miss_counters.get(k).unwrap_or(&0) as f64;
    let s = |k: &str| *run.serve_counters.get(k).unwrap_or(&0) as f64;
    let misses = run.misses_reported as f64;
    let rejected = ["queue_full", "deadline", "breaker"].map(|r| s(&format!("serve.reject.{r}")));
    let metrics = vec![
        ("transforms.cgen_us", med("transforms.cgen", 1e3), "us"),
        (
            "templates.identify_us",
            med("templates.identify", 1e3),
            "us",
        ),
        ("opt.akg_us", med("opt.akg", 1e3), "us"),
        ("depan.check_us", med("depan.check", 1e3), "us"),
        ("cost.analyze_us", med("cost.analyze", 1e3), "us"),
        ("sim.decode_us", med("sim.decode", 1e3), "us"),
        ("sim.exec_ms", med("sim.exec", 1e6), "ms"),
        ("sim.replay_ms", med("sim.replay", 1e6), "ms"),
        (
            "sim.dyn_insts",
            ratio(dyn_insts as f64, replayed as f64),
            "count",
        ),
        (
            "sim.exec_msteps_per_s",
            ratio(dyn_insts as f64 / 1e6, total_s("sim.exec")),
            "Msteps/s",
        ),
        (
            "sim.replay_msteps_per_s",
            ratio(dyn_insts as f64 / 1e6, total_s("sim.replay")),
            "Msteps/s",
        ),
        ("verify.check_ms", med("verify.check", 1e6), "ms"),
        ("verify.equiv_ms", med("verify.equiv", 1e6), "ms"),
        ("prof.profile_ms", med("prof.profile", 1e6), "ms"),
        ("augem.degradable_ms", med("augem.degradable", 1e6), "ms"),
        ("augem.degraded", degraded as f64, "count"),
        (
            "tune.candidates",
            ratio(c("tuner.generated"), misses),
            "count",
        ),
        ("tune.built", ratio(c("tuner.built"), misses), "count"),
        ("tune.pruned", ratio(c("tuner.pruned"), misses), "count"),
        (
            "cost.prune_ratio",
            ratio(c("cost.pruned"), c("cost.analyzed")),
            "ratio",
        ),
        (
            "depan.reject_ratio",
            ratio(c("depan.rejected"), c("tuner.generated")),
            "ratio",
        ),
        (
            "tune.build_cache_hit_ratio",
            ratio(
                c("cache.build.hit"),
                c("cache.build.hit") + c("cache.build.miss"),
            ),
            "ratio",
        ),
        (
            "tune.eval_cache_hit_ratio",
            ratio(
                c("cache.eval.hit"),
                c("cache.eval.hit") + c("cache.eval.miss"),
            ),
            "ratio",
        ),
        ("store.open_ms", med("store.open", 1e6), "ms"),
        ("store.commit_ms", med("store.commit", 1e6), "ms"),
        (
            "store.hit_ratio",
            ratio(
                s("serve.store.hit"),
                s("serve.store.hit") + s("serve.store.miss"),
            ),
            "ratio",
        ),
        ("serve.parse_us", med("serve.parse", 1e3), "us"),
        ("serve.handle_hit_us", med("serve.handle", 1e3), "us"),
        ("serve.render_us", med("serve.render", 1e3), "us"),
        // Tail and throughput of hits through the daemon, per window as in
        // `hit_us_p50`. They follow the host's contention more than the
        // program (see README), so they are reported here, without a bound.
        (
            "hit_us_p99",
            run.over_windows(|w| quantile(&w.lat_us, 0.99)),
            "us",
        ),
        (
            "hit_rps",
            run.over_windows(|w| ratio(w.lat_us.len() as f64, w.secs)),
            "req/s",
        ),
        ("serve.work_us", median(&run.hit_work_us), "us"),
        ("serve.wait_us", median(&run.hit_wait_us), "us"),
        ("serve.rejected", rejected.iter().sum(), "count"),
        ("serve.rejected.queue_full", rejected[0], "count"),
        ("serve.rejected.deadline", rejected[1], "count"),
        ("serve.rejected.breaker", rejected[2], "count"),
        (
            "serve.dup_miss_ratio",
            ratio(s("serve.store.miss"), run.distinct_missed as f64),
            "ratio",
        ),
        (
            "trace.unattributed_frac",
            ratio(root_self_ns as f64, root_ns as f64),
            "ratio",
        ),
        ("trace.overhead_frac", overhead, "ratio"),
        ("loadgen.late_ms", quantile(&run.late_ms, 0.99), "ms"),
    ];

    let mut text = format!(
        "{:<22} {:>7} {:>12} {:>12} {:>8}\n",
        "span", "calls", "total_ms", "self_ms", "self_%"
    );
    let all_self: u64 = table.values().map(|r| r.2).sum();
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.2));
    for (name, (calls, total, own)) in rows {
        text.push_str(&format!(
            "{name:<22} {calls:>7} {:>12.3} {:>12.3} {:>7.1}%\n",
            *total as f64 / 1e6,
            *own as f64 / 1e6,
            100.0 * ratio(*own as f64, all_self as f64)
        ));
    }
    let document = Json::obj(vec![
        ("schema", Json::str("perfbench.trace/v1")),
        (
            "layers",
            Json::Arr(
                table
                    .iter()
                    .map(|(name, (calls, total, own))| {
                        Json::obj(vec![
                            ("name", Json::str(*name)),
                            ("calls", Json::uint(*calls)),
                            ("total_ns", Json::uint(*total)),
                            ("self_ns", Json::uint(*own)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans", rec.to_json()),
    ]);
    Ok(Traced {
        metrics,
        failures: failures.into_iter().collect(),
        document,
        table: text,
    })
}
