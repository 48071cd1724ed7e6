//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold|warm|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! It builds `augem-serve` from the checkout, drives it over its
//! stdin/stdout pipe with a seeded closed-loop request stream, checks
//! every answer, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (see `load`); with `--trace 1` the run
//! spends half its time on the same workload and half on the in-process
//! traced replay (see `layers`), and the metrics are per layer.

mod check;
mod daemon;
mod family;
mod layers;
mod load;
mod stats;

use augem::obs::Json;
use family::Family;
use load::{Ctx, Run};
use stats::{geomean, median, quantile, ratio};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload cold|warm|mixed --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = format!("{flag}: bad value {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" if ["cold", "warm", "mixed"].contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("unexpected {flag} {value}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(USAGE.to_string()),
    }
}

/// Builds the daemon binary from the checkout; returns its path.
fn build_daemon(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "augem-serve",
        ])
        .args(["--bin", "augem-serve", "--message-format", "json"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building augem-serve failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .find_map(|m| m.get("executable")?.as_str().map(PathBuf::from))
        .ok_or_else(|| "cargo reported no augem-serve executable".to_string())
}

fn misses(run: &Run, keep: impl Fn(Family) -> bool) -> Vec<f64> {
    run.miss_ms
        .iter()
        .filter(|(f, _)| keep(*f))
        .map(|(_, ms)| *ms)
        .collect()
}

fn end_to_end(run: &Run) -> Vec<(&'static str, f64, &'static str, usize)> {
    let (gemm, vector) = (misses(run, |f| f.is_gemm()), misses(run, |f| !f.is_gemm()));
    let all = misses(run, |_| true);
    let mflops: Vec<f64> = run.served.values().map(|s| s.mflops).collect();
    vec![
        ("setup_s", median(&run.setup_s), "s", run.setup_s.len()),
        ("gemm_miss_ms_p50", median(&gemm), "ms", gemm.len()),
        ("vector_miss_ms_p50", median(&vector), "ms", vector.len()),
        ("miss_ms_p50", median(&all), "ms", all.len()),
        ("miss_ms_p90", quantile(&all, 0.9), "ms", all.len()),
        (
            "kernel_mflops_geomean",
            geomean(&mflops),
            "Mflops",
            mflops.len(),
        ),
        (
            "hit_us_p50",
            run.over_windows(|w| median(&w.lat_us)),
            "us",
            run.hit_windows.len(),
        ),
        (
            "good_frac",
            1.0 - ratio(run.failed as f64, run.attempted as f64),
            "ratio",
            run.attempted as usize,
        ),
    ]
}

/// The latency distributions at a few more quantiles, for the report.
fn distributions(run: &Run) -> Json {
    let qs = |v: &[f64]| {
        Json::obj(vec![
            ("n", Json::uint(v.len() as u64)),
            ("p10", Json::Num(quantile(v, 0.1))),
            ("p50", Json::Num(quantile(v, 0.5))),
            ("p90", Json::Num(quantile(v, 0.9))),
            ("p99", Json::Num(quantile(v, 0.99))),
            ("max", Json::Num(quantile(v, 1.0))),
        ])
    };
    let by_family = run
        .served
        .keys()
        .map(|&fam| (fam.label(), Json::Num(median(&misses(run, |f| f == fam)))))
        .collect();
    Json::obj(vec![
        ("miss_ms", qs(&misses(run, |_| true))),
        ("hit_us", qs(&run.hit_us)),
        (
            "setup_ms",
            qs(&run.setup_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        ),
        ("late_ms", qs(&run.late_ms)),
        ("miss_ms_p50_by_family", Json::Obj(by_family)),
    ])
}

fn main() -> ExitCode {
    match bench() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn bench() -> Result<(), String> {
    let args = parse_args()?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark package has no parent directory")?
        .to_path_buf();
    let bin = build_daemon(&root)?;
    let work = root.join(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let started = Instant::now();
    let ctx = Ctx {
        bin: &bin,
        work: &work,
        seed: args.seed,
    };
    // A traced run gives the workload half its time and the in-process
    // replay the rest.
    let timed_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let outcome = run_workload(&ctx, &args, timed_s, started);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run still uses it.
    let _ = work.parent().map(std::fs::remove_dir);
    let (mut run, traced) = outcome?;

    let mut problems = std::mem::take(&mut run.errors);
    for (fam, served) in &run.served {
        if let Err(why) = check::check_served(*fam, served, args.seed) {
            run.failed += run.good_by_family.get(fam).copied().unwrap_or(1);
            problems.push(why);
        }
    }
    if run.served.len() != Family::COUNT {
        problems.push(format!("only {} of 12 families served", run.served.len()));
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut samples = Vec::new();
    match &traced {
        Some(t) => {
            problems.extend(t.failures.iter().cloned());
            run.failed += t.failures.len() as u64;
            metrics.extend(t.metrics.iter().copied());
            eprint!(
                "perfbench: per-layer self time, {} {}\n{}",
                args.workload, args.seed, t.table
            );
            let out = root.join(".perfbench_out");
            let file = out.join(format!("trace-{}-{}.json", args.workload, args.seed));
            std::fs::create_dir_all(&out)
                .and_then(|()| std::fs::write(&file, t.document.render()))
                .map_err(|e| format!("write {}: {e}", file.display()))?;
        }
        None => {
            for (name, value, unit, n) in end_to_end(&run) {
                if !(value.is_finite() && value > 0.0) {
                    problems.push(format!("{name}: no value from {n} samples"));
                }
                metrics.push((name, value, unit));
                samples.push((name, Json::uint(n as u64)));
            }
        }
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let num = |v: f64| {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Num(0.0)
        }
    };
    let report = Json::obj(vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::uint(args.seed)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("samples", Json::obj(samples)),
        ("distributions", distributions(&run)),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::str(p.clone())).collect()),
        ),
    ]);
    println!("perfbench: {}", report.render());
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(problems.is_empty() && run.failed == 0),
        ),
        ("attempted", Json::uint(run.attempted.max(1))),
        ("failed", Json::uint(run.failed)),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            *name,
                            Json::obj(vec![("value", num(*value)), ("unit", Json::str(*unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn run_workload(
    ctx: &Ctx,
    args: &Args,
    timed_s: f64,
    started: Instant,
) -> Result<(Run, Option<layers::Traced>), String> {
    let run = match args.workload.as_str() {
        "cold" => load::cold(ctx, timed_s)?,
        "warm" => load::warm(ctx, timed_s)?,
        _ => load::mixed(ctx, timed_s)?,
    };
    let traced = if args.trace {
        let left = Duration::from_secs_f64(args.seconds).saturating_sub(started.elapsed());
        Some(layers::traced(
            &run,
            ctx.work,
            args.seed,
            left.max(Duration::from_secs(1)),
        )?)
    } else {
        None
    };
    Ok((run, traced))
}
