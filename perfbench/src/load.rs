//! The timed workloads: request streams generated from the seed, driven
//! closed-loop through real `augem-serve` processes, every response
//! checked.
//!
//! - `cold`: rounds of one fresh daemon on an empty store, one caller, one
//!   dgemm plus two vector families, every tuning request a miss; each
//!   round ends with a short hit probe of the families it just tuned.
//! - `warm`: a daemon on a store that set-up filled with all 12 families;
//!   4 closed-loop hit callers share the pipe.
//! - `mixed`: epochs of one daemon on a store pre-filled with the six
//!   Sandy Bridge families; 4 hit callers on those, beside 2 miss callers
//!   walking the six Piledriver families in lockstep.

use crate::check::Served;
use crate::daemon::{Arrival, Daemon};
use crate::family::Family;
use crate::stats::{median, Rng};
use augem::obs::Json;
use augem_serve::Op;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Closed-loop hit callers multiplexed over the one pipe, in every
/// workload: one per daemon worker (`--workers` defaults to 4). More
/// callers only queue behind workers the host has preempted: with 16 on
/// a 2-vCPU machine, `warm`'s p99 moved by 83% from seed to seed.
const HIT_CALLERS: usize = 4;
/// Hits the probe that ends a `cold` round sends in all.
const COLD_PROBE_HITS: usize = 500;
/// Hit traffic is cut into windows of about this length (a `cold` probe
/// is one window). The hit metrics are medians over windows, so a burst
/// of host scheduling noise moves only the windows it falls in.
const WINDOW: Duration = Duration::from_secs(1);
/// Extra daemon starts over a filled store, so `setup_s` is a median.
const SETUP_RESTARTS: usize = 10;
/// Failure messages kept for the report.
const KEPT_ERRORS: usize = 8;

/// Where and how to run a workload.
pub struct Ctx<'a> {
    pub bin: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Run {
    /// Spawn → first `op: stats` answer, per daemon started.
    pub setup_s: Vec<f64>,
    /// Miss latencies (ms) of the workload's timed misses.
    pub miss_ms: Vec<(Family, f64)>,
    /// Hit latencies (µs), and their `work_ns` and the rest (queue plus
    /// transport), both in µs.
    pub hit_us: Vec<f64>,
    pub hit_work_us: Vec<f64>,
    pub hit_wait_us: Vec<f64>,
    pub hit_windows: Vec<HitWindow>,
    /// How late the generator sent each request after it became due.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The first answer per family; later answers must agree with it.
    pub served: BTreeMap<Family, Served>,
    /// Good responses per family (an output-check failure fails them all).
    pub good_by_family: BTreeMap<Family, u64>,
    /// Counters of the embedded run reports of all misses, summed.
    pub miss_counters: BTreeMap<String, u64>,
    pub misses_reported: u64,
    /// `serve.*` counters of every daemon's final `op: stats`, summed.
    pub serve_counters: BTreeMap<String, u64>,
    /// Distinct families missed, summed over daemons.
    pub distinct_missed: u64,
    /// A checked hit line per (family, generate?) with `id` and
    /// `work_ns` cut out; later hits must match it byte-for-byte.
    pub hit_lines: HashMap<(Family, bool), String>,
    /// The store directory of the last daemon (the traced run reopens it).
    pub last_store: Option<PathBuf>,
}

/// The hits of one stretch of hit traffic.
#[derive(Default)]
pub struct HitWindow {
    pub secs: f64,
    pub lat_us: Vec<f64>,
}

#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Miss,
    Hit,
    Either,
}

/// One request on the wire.
struct Pending {
    fam: Family,
    op: Op,
    expect: Expect,
    /// Whether a miss answer counts towards the miss latency metrics.
    timed: bool,
    sent: Instant,
}

impl Run {
    /// The median over hit windows of a per-window figure.
    pub fn over_windows(&self, per: fn(&HitWindow) -> f64) -> f64 {
        median(&self.hit_windows.iter().map(per).collect::<Vec<_>>())
    }

    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        }
    }

    /// Sends `stats` to a fresh daemon and records its set-up time.
    fn setup(&mut self, d: &mut Daemon) -> Result<(), String> {
        let (_, a) = d.call(r#"{"id":"setup","op":"stats"}"#)?;
        control_ok(&a.line)?;
        self.setup_s.push((a.at - d.spawned).as_secs_f64());
        Ok(())
    }

    /// Harvests the daemon's lifetime `serve.*` counters (when it served
    /// timed traffic) and shuts it down.
    fn finish(
        &mut self,
        mut d: Daemon,
        missed: &BTreeSet<Family>,
        timed: bool,
    ) -> Result<(), String> {
        let (_, a) = d.call(r#"{"id":"final","op":"stats"}"#)?;
        let report = control_ok(&a.line)?;
        if timed {
            add_counters(&mut self.serve_counters, &report);
            self.distinct_missed += missed.len() as u64;
        }
        d.shutdown()
    }

    /// Sends one request and waits for its answer (single-caller phases).
    fn call(
        &mut self,
        d: &mut Daemon,
        mut p: Pending,
        due: Instant,
        missed: &mut BTreeSet<Family>,
    ) -> Result<Instant, String> {
        let id = format!("s.{}", self.attempted);
        let result = d.call(&request(&id, &p));
        match result {
            Ok((sent, a)) => {
                p.sent = sent;
                self.late_ms.push(ms(sent - due));
                self.settle(&p, &a, missed);
                Ok(a.at)
            }
            Err(why) => {
                self.fail(format!("{}: {why}", p.fam.label()));
                Err(why)
            }
        }
    }

    /// Judges one answer and files its latency; returns the latency (µs)
    /// of a good hit.
    fn settle(&mut self, p: &Pending, a: &Arrival, missed: &mut BTreeSet<Family>) -> Option<f64> {
        self.attempted += 1;
        match self.judge(p, &a.line) {
            Ok((cache_hit, work_ns)) => {
                *self.good_by_family.entry(p.fam).or_default() += 1;
                let latency = a.at - p.sent;
                if cache_hit {
                    let us = latency.as_secs_f64() * 1e6;
                    self.hit_us.push(us);
                    if let Some(w) = work_ns {
                        self.hit_work_us.push(w as f64 / 1e3);
                        self.hit_wait_us.push(us - w as f64 / 1e3);
                    }
                    return Some(us);
                }
                missed.insert(p.fam);
                if p.timed {
                    self.miss_ms.push((p.fam, ms(latency)));
                }
            }
            Err(why) => {
                self.failed += 1;
                self.note(why);
            }
        }
        None
    }

    /// `Ok((is_hit, work_ns))` for a good answer, `Err` for a bad one.
    fn judge(&mut self, p: &Pending, line: &str) -> Result<(bool, Option<u64>), String> {
        let generate = p.op == Op::Generate;
        let stripped = strip_line(line);
        if let Some((_, rest, work_ns)) = &stripped {
            if self.hit_lines.get(&(p.fam, generate)) == Some(rest) {
                return Ok((true, *work_ns));
            }
        }
        let fam = p.fam.label();
        let doc = Json::parse(line).map_err(|e| format!("{fam}: unparseable answer: {e}"))?;
        let field = |k: &str| doc.get(k).and_then(Json::as_str);
        if field("status") != Some("ok") {
            return Err(format!(
                "{fam}: status {:?} ({})",
                field("status"),
                field("rejected").or(field("error")).unwrap_or("")
            ));
        }
        let hit = match (field("cache"), p.expect) {
            (Some("hit"), Expect::Hit | Expect::Either) => true,
            (Some("miss"), Expect::Miss | Expect::Either) => false,
            (other, _) => return Err(format!("{fam}: unexpected cache outcome {other:?}")),
        };
        let answer = Served {
            config: field("config")
                .ok_or(format!("{fam}: no config"))?
                .to_string(),
            mflops: doc
                .get("mflops")
                .and_then(Json::as_f64)
                .ok_or(format!("{fam}: no mflops"))?,
            asm: field("asm").map(str::to_string),
        };
        if answer.asm.is_some() != generate {
            let has = if generate { "lacks" } else { "carries" };
            return Err(format!("{fam}: op {} answer {has} asm", p.op.name()));
        }
        let first = self.served.entry(p.fam).or_insert_with(|| answer.clone());
        if first.config != answer.config || first.mflops.to_bits() != answer.mflops.to_bits() {
            return Err(format!(
                "{fam}: answered {} ({}) after {} ({})",
                answer.config, answer.mflops, first.config, first.mflops
            ));
        }
        match (&first.asm, answer.asm) {
            (Some(a), Some(b)) if *a != b => return Err(format!("{fam}: asm changed")),
            (None, Some(b)) => first.asm = Some(b),
            _ => {}
        }
        if hit {
            if let Some((_, rest, _)) = stripped {
                self.hit_lines.insert((p.fam, generate), rest);
            }
        } else if let Some(report) = doc.get("report") {
            add_counters(&mut self.miss_counters, report);
            self.misses_reported += 1;
        }
        Ok((hit, doc.get("work_ns").and_then(Json::as_u64)))
    }
}

/// Splits a response line into its `id`, the line without `id` and
/// `work_ns` (identical for every hit on one family and op), and
/// `work_ns`. String values are JSON-escaped, so the first unescaped
/// `"id":"` and `,"work_ns":` are the top-level fields.
pub fn strip_line(line: &str) -> Option<(&str, String, Option<u64>)> {
    let id_at = line.find(r#""id":""#)? + 6;
    let id_len = line[id_at..].find('"')?;
    let id = &line[id_at..id_at + id_len];
    let mut rest = String::with_capacity(line.len());
    rest.push_str(&line[..id_at]);
    rest.push_str(&line[id_at + id_len..]);
    let mut work_ns = None;
    if let Some(at) = rest.find(r#","work_ns":"#) {
        let digits = at + 11;
        let end = digits + rest[digits..].find(|c: char| !c.is_ascii_digit())?;
        work_ns = rest[digits..end].parse().ok();
        rest.replace_range(at..end, "");
    }
    Some((id, rest, work_ns))
}

/// Checks a control (`stats`) answer; returns its embedded report.
fn control_ok(line: &str) -> Result<Json, String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable stats answer: {e}"))?;
    if doc.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("stats answer not ok: {line}"));
    }
    doc.get("report")
        .cloned()
        .ok_or_else(|| "stats answer without report".to_string())
}

fn add_counters(into: &mut BTreeMap<String, u64>, report: &Json) {
    if let Some(Json::Obj(pairs)) = report.get("counters") {
        for (k, v) in pairs {
            *into.entry(k.clone()).or_default() += v.as_u64().unwrap_or(0);
        }
    }
}

fn request(id: &str, p: &Pending) -> String {
    format!(
        r#"{{"id":"{id}","op":"{}","kernel":"{}","machine":"{}"}}"#,
        p.op.name(),
        p.fam.kernel_name(),
        p.fam.machine_name()
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The 3:1 `tune`:`generate` mix.
fn pick_op(rng: &mut Rng) -> Op {
    if rng.below(4) == 0 {
        Op::Generate
    } else {
        Op::Tune
    }
}

fn pending(fam: Family, rng: &mut Rng, expect: Expect, timed: bool) -> Pending {
    Pending {
        fam,
        op: pick_op(rng),
        expect,
        timed,
        sent: Instant::now(),
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Copies a store directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for e in entries {
        let e = e.map_err(|e| e.to_string())?;
        let target = to.join(e.file_name());
        if e.path().is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), &target).map_err(|e| format!("copy store: {e}"))?;
        }
    }
    Ok(())
}

/// Fills `store` through one daemon, one sequential request per family.
fn prefill(
    ctx: &Ctx,
    run: &mut Run,
    store: &Path,
    fams: &[Family],
    rng: &mut Rng,
    timed: bool,
) -> Result<(), String> {
    fresh_dir(store)?;
    let mut d = Daemon::spawn(ctx.bin, store)?;
    run.setup(&mut d)?;
    let mut missed = BTreeSet::new();
    let mut due = Instant::now();
    for &fam in fams {
        due = run.call(
            &mut d,
            pending(fam, rng, Expect::Miss, timed),
            due,
            &mut missed,
        )?;
    }
    run.finish(d, &missed, timed)
}

/// Restarts a daemon over `store` a few times for `setup_s` samples.
fn restarts(ctx: &Ctx, run: &mut Run, store: &Path) -> Result<(), String> {
    for _ in 0..SETUP_RESTARTS {
        let mut d = Daemon::spawn(ctx.bin, store)?;
        run.setup(&mut d)?;
        run.finish(d, &BTreeSet::new(), false)?;
    }
    Ok(())
}

pub fn cold(ctx: &Ctx, seconds: f64) -> Result<Run, String> {
    let mut rng = Rng::new(ctx.seed, "cold");
    let mut run = Run::default();
    let start = Instant::now();
    let mut gemm_machine = rng.below(2);
    let mut rounds = 0u32;
    'cycles: loop {
        // Every vector family once per five rounds, in seeded order.
        let mut vector: Vec<Family> = Family::all().filter(|f| !f.is_gemm()).collect();
        rng.shuffle(&mut vector);
        for pair in vector.chunks(2) {
            let mut fams = vec![Family(gemm_machine), pair[0], pair[1]];
            gemm_machine ^= 1;
            rng.shuffle(&mut fams);
            let store = ctx.work.join(format!("cold-{rounds}"));
            if let Err(why) = cold_round(ctx, &mut run, &store, &fams, &mut rng) {
                run.note(why);
            }
            if let Some(prev) = run.last_store.replace(store) {
                let _ = std::fs::remove_dir_all(prev);
            }
            rounds += 1;
            // Start another round only if one of average length still fits.
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed * (1.0 + 1.0 / f64::from(rounds)) > seconds {
                break 'cycles;
            }
        }
    }
    Ok(run)
}

fn cold_round(
    ctx: &Ctx,
    run: &mut Run,
    store: &Path,
    fams: &[Family],
    rng: &mut Rng,
) -> Result<(), String> {
    fresh_dir(store)?;
    let mut d = Daemon::spawn(ctx.bin, store)?;
    run.setup(&mut d)?;
    let mut missed = BTreeSet::new();
    let mut due = Instant::now();
    for &fam in fams {
        due = run.call(
            &mut d,
            pending(fam, rng, Expect::Miss, true),
            due,
            &mut missed,
        )?;
    }
    let probe = Traffic {
        hit_callers: HIT_CALLERS,
        hit_fams: fams,
        walk: &[],
        deadline: Instant::now() + Duration::from_secs(3600),
        hit_limit: COLD_PROBE_HITS,
    };
    let probe = multiplex(&mut d, run, rng, &probe)?;
    missed.extend(probe);
    run.finish(d, &missed, true)
}

pub fn warm(ctx: &Ctx, seconds: f64) -> Result<Run, String> {
    let mut rng = Rng::new(ctx.seed, "warm");
    let mut run = Run::default();
    let store = ctx.work.join("warm");
    let mut order: Vec<Family> = Family::all().collect();
    rng.shuffle(&mut order);
    prefill(ctx, &mut run, &store, &order, &mut rng, true)?;
    restarts(ctx, &mut run, &store)?;
    // The hit phase runs in two halves. The fill above and a sequential
    // miss pass over all 12 families on a fresh store after each half are
    // this workload's only misses: spread over the run, not bunched into
    // its first seconds, they are what its miss metrics report.
    let all: Vec<Family> = Family::all().collect();
    for half in 0..2 {
        let mut d = Daemon::spawn(ctx.bin, &store)?;
        run.setup(&mut d)?;
        let traffic = Traffic {
            hit_callers: HIT_CALLERS,
            hit_fams: &all,
            walk: &[],
            deadline: Instant::now() + Duration::from_secs_f64(seconds / 2.0),
            hit_limit: usize::MAX,
        };
        let missed = multiplex(&mut d, &mut run, &mut rng, &traffic)?;
        run.finish(d, &missed, true)?;
        rng.shuffle(&mut order);
        let pass = ctx.work.join(format!("warm-pass-{half}"));
        prefill(ctx, &mut run, &pass, &order, &mut rng, true)?;
        let _ = std::fs::remove_dir_all(pass);
    }
    run.last_store = Some(store);
    Ok(run)
}

pub fn mixed(ctx: &Ctx, seconds: f64) -> Result<Run, String> {
    let mut rng = Rng::new(ctx.seed, "mixed");
    let mut run = Run::default();
    let base = ctx.work.join("mixed-base");
    let (mut snb, mut pd): (Vec<Family>, Vec<Family>) = Family::all().partition(|f| f.is_snb());
    rng.shuffle(&mut snb);
    prefill(ctx, &mut run, &base, &snb, &mut rng, false)?;
    restarts(ctx, &mut run, &base)?;
    let start = Instant::now();
    let mut epochs = 0u32;
    loop {
        let store = ctx.work.join(format!("mixed-{epochs}"));
        copy_dir(&base, &store)?;
        rng.shuffle(&mut pd);
        let epoch = (|| {
            let mut d = Daemon::spawn(ctx.bin, &store)?;
            run.setup(&mut d)?;
            let traffic = Traffic {
                hit_callers: HIT_CALLERS,
                hit_fams: &snb,
                walk: &pd,
                deadline: Instant::now() + Duration::from_secs(3600),
                hit_limit: usize::MAX,
            };
            let missed = multiplex(&mut d, &mut run, &mut rng, &traffic)?;
            run.finish(d, &missed, true)
        })();
        if let Err(why) = epoch {
            run.note(why);
        }
        if let Some(prev) = run.last_store.replace(store) {
            let _ = std::fs::remove_dir_all(prev);
        }
        epochs += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (1.0 + 1.0 / f64::from(epochs)) > seconds {
            break;
        }
    }
    Ok(run)
}

/// The closed-loop traffic [`multiplex`] puts on one daemon.
struct Traffic<'a> {
    /// Callers that request `hit_fams` until `deadline` passes, until
    /// `hit_limit` hits were sent, or until the walk ends.
    hit_callers: usize,
    hit_fams: &'a [Family],
    /// When non-empty, two more callers request these families in
    /// lockstep: both send family `k + 1` only once both have their
    /// answer for family `k`.
    walk: &'a [Family],
    deadline: Instant,
    hit_limit: usize,
}

/// Runs `t`'s callers over the one pipe; returns the families that
/// missed.
fn multiplex(
    d: &mut Daemon,
    run: &mut Run,
    rng: &mut Rng,
    t: &Traffic,
) -> Result<BTreeSet<Family>, String> {
    let (hit_callers, hit_fams, walk) = (t.hit_callers, t.hit_fams, t.walk);
    let miss_callers = if walk.is_empty() { 0 } else { 2 };
    let mut inflight: Vec<Option<Pending>> =
        (0..hit_callers + miss_callers).map(|_| None).collect();
    let mut seq = 0u64;
    let mut missed = BTreeSet::new();
    let mut send = |d: &mut Daemon, run: &mut Run, caller: usize, mut p: Pending, due: Instant| {
        seq += 1;
        let sent = d.send(&request(&format!("{caller}.{seq}"), &p))?;
        run.late_ms.push(ms(sent - due));
        p.sent = sent;
        Ok::<Pending, String>(p)
    };
    let start = Instant::now();
    let mut hits_sent = hit_callers;
    for (c, slot) in inflight.iter_mut().enumerate() {
        let p = if c < hit_callers {
            pending(hit_fams[rng.below(hit_fams.len())], rng, Expect::Hit, true)
        } else {
            // Each walk caller may see either outcome for a key the other
            // is tuning; `serve.dup_miss_ratio` counts how often both missed.
            pending(walk[0], rng, Expect::Either, true)
        };
        *slot = Some(send(d, run, c, p, start)?);
    }
    let (mut step, mut answered) = (0, 0);
    let first_window = run.hit_windows.len();
    let mut window = HitWindow::default();
    let (mut window_start, mut last_hit) = (start, start);
    while inflight.iter().any(Option::is_some) {
        let a = match d.recv() {
            Ok(a) => a,
            Err(why) => {
                for p in inflight.iter_mut().filter_map(Option::take) {
                    run.fail(format!("{}: {why}", p.fam.label()));
                }
                return Err(why);
            }
        };
        let caller = strip_line(&a.line)
            .and_then(|(id, _, _)| id.split('.').next()?.parse::<usize>().ok())
            .filter(|&c| c < inflight.len() && inflight[c].is_some());
        let Some(caller) = caller else {
            run.fail(format!("answer with an unknown id: {:.120}", a.line));
            continue;
        };
        let p = inflight[caller]
            .take()
            .expect("caller has a request in flight");
        if let Some(us) = run.settle(&p, &a, &mut missed) {
            window.lat_us.push(us);
            last_hit = a.at;
            if a.at - window_start >= WINDOW {
                window.secs = (a.at - window_start).as_secs_f64();
                run.hit_windows.push(std::mem::take(&mut window));
                window_start = a.at;
            }
        }
        let walking = step < walk.len();
        if caller < hit_callers {
            if a.at < t.deadline && hits_sent < t.hit_limit && (walk.is_empty() || walking) {
                hits_sent += 1;
                let fam = hit_fams[rng.below(hit_fams.len())];
                let next = pending(fam, rng, Expect::Hit, true);
                inflight[caller] = Some(send(d, run, caller, next, a.at)?);
            }
        } else {
            answered += 1;
            if answered == miss_callers {
                answered = 0;
                step += 1;
                if step < walk.len() {
                    for (c, slot) in inflight.iter_mut().enumerate().skip(hit_callers) {
                        let p = pending(walk[step], rng, Expect::Either, true);
                        *slot = Some(send(d, run, c, p, a.at)?);
                    }
                }
            }
        }
    }
    if !window.lat_us.is_empty() {
        // A short last stretch joins the window before it in this phase.
        window.secs = (last_hit - window_start).as_secs_f64();
        let merge = run.hit_windows.len() > first_window && window.secs < 0.5;
        match run.hit_windows.last_mut() {
            Some(prev) if merge => {
                prev.secs += window.secs;
                prev.lat_us.append(&mut window.lat_us);
            }
            _ => run.hit_windows.push(window),
        }
    }
    Ok(missed)
}
