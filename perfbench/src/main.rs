//! The benchmark command:
//!
//! ```text
//! perfbench --workload <shallow|deep|batch> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up several times,
//! then runs passes over the inputs for at least `S` seconds (and, without
//! tracing, at least [`MIN_PASSES`] passes). It prints
//! one line per metric, then as its last line a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. It exits
//! non-zero when any goal failed.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use perfbench::{analyze_inputs, parse_inputs, thread_cpu, Kind, Pass, Runner, Workload};

/// Set-up repeats at least this often and for at least this long;
/// `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.5;
/// Passes an untraced run makes at least: each request's time is its best
/// over the passes.
const MIN_PASSES: usize = 4;
/// The safety net: past this, every running and later search is cancelled
/// and counts as a failure.
const SAFETY_NET: Duration = Duration::from_secs(150);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

type Metric = (&'static str, &'static str, f64);

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage =
        "usage: perfbench --workload <shallow|deep|batch> --seed N --seconds S --trace <0|1>";
    Ok(Args {
        kind: kind.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    // Set-up: generate the inputs, parse every program, build the engine.
    let mut setups = Vec::new();
    let mut parses = Vec::new();
    let mut set_up = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_REPS || setup_start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let t = thread_cpu();
        let workload = Workload::generate(args.kind, args.seed)?;
        let parse = thread_cpu();
        let modules = parse_inputs(&workload)?;
        parses.push((thread_cpu() - parse).as_secs_f64());
        let runner = Runner::new(workload);
        setups.push((thread_cpu() - t).as_secs_f64());
        set_up = Some((runner, modules));
    }
    let (runner, modules) = set_up.ok_or("no set-up ran")?;
    let diagnose_s = analyze_inputs(&modules)?;
    drop(modules);

    let (done, wait) = mpsc::channel::<()>();
    let cancel = runner.cancel_token();
    let watchdog = thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(SAFETY_NET) {
            cancel.cancel();
        }
    });
    let (passes, metrics) = if args.trace {
        traced(&runner, &args, median(&parses), diagnose_s)
    } else {
        untraced(&runner, &args, &setups)?
    };
    drop(done);
    watchdog.join().map_err(|_| "the safety net panicked")?;
    if runner.cancel_token().is_cancelled() {
        eprintln!("perfbench: the {SAFETY_NET:?} safety net cancelled the run");
    }

    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failures: Vec<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    for failure in failures.iter().take(20) {
        eprintln!("perfbench: failed: {failure}");
    }
    let failed = failures.len();
    let correct = failed == 0 && attempted > 0;
    println!(
        "workload {} seed {} passes {} attempted {attempted} failed {failed} failed_frac {}",
        args.kind.name(),
        args.seed,
        passes.len(),
        failed as f64 / attempted.max(1) as f64,
    );
    for (name, unit, value) in &metrics {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// Makes passes until the time is up and at least [`MIN_PASSES`] are
/// made, then computes the end-to-end metrics.
fn untraced(
    runner: &Runner,
    args: &Args,
    setups: &[f64],
) -> Result<(Vec<Pass>, Vec<Metric>), String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = runner.pass();
        eprintln!(
            "pass {} cpu_s {} wall_s {}",
            passes.len() + 1,
            pass.cpu.as_secs_f64(),
            pass.wall.as_secs_f64()
        );
        passes.push(pass);
        let done = start.elapsed().as_secs_f64() >= args.seconds && passes.len() >= MIN_PASSES;
        if done || runner.cancel_token().is_cancelled() {
            break;
        }
    }
    // Other tenants of a shared machine slow the benchmark's CPU for
    // seconds to minutes at a time (by up to 80 %, even in CPU time).
    // Every pass repeats the same requests, so each request's (and each
    // certificate's) time is its best over the passes. A request needs
    // only its own few milliseconds to fall in a quiet moment, a whole
    // pass needs a quiet second, so no metric takes a pass's time.
    let goals = best_per_problem(passes.iter().flat_map(|p| &p.goal_times));
    let checks = best_per_problem(passes.iter().flat_map(|p| &p.check_times));
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.failures.len()).sum();
    println!(
        "samples passes={} requests={} certificates={}",
        passes.len(),
        goals.len(),
        checks.len()
    );
    let metrics = vec![
        ("setup_s", "s", median(setups)),
        (
            "goal_mean_ms",
            "ms",
            goals.iter().sum::<f64>() / goals.len().max(1) as f64,
        ),
        ("goal_p50_ms", "ms", quantile(&goals, 0.5)),
        ("goal_p90_ms", "ms", quantile(&goals, 0.9)),
        ("check_p50_ms", "ms", quantile(&checks, 0.5)),
        ("proved", "count", median_of(&passes, |p| p.proved as f64)),
        (
            "ok_frac",
            "ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
        ),
        ("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    Ok((passes, metrics))
}

/// Alternates untraced and traced passes until the time is up, then the
/// per-layer metrics of the traced passes.
fn traced(runner: &Runner, args: &Args, parse_s: f64, diagnose_s: f64) -> (Vec<Pass>, Vec<Metric>) {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    loop {
        plain.push(runner.pass());
        cycleq::trace::set_enabled(true);
        traced.push(runner.pass());
        cycleq::trace::set_enabled(false);
        if start.elapsed().as_secs_f64() >= args.seconds || runner.cancel_token().is_cancelled() {
            break;
        }
    }
    let mut metrics = vec![
        ("lang.parse_s", "s", parse_s),
        ("analysis.diagnose_s", "s", diagnose_s),
    ];
    let per_pass: Vec<Vec<Metric>> = traced.iter().map(|p| p.layers.metrics()).collect();
    for (i, &(name, unit, _)) in per_pass[0].iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|m| m[i].2).collect();
        metrics.push((name, unit, median(&values)));
    }
    let cpu = |passes: &[Pass]| median_of(passes, |p| p.cpu.as_secs_f64());
    metrics.push((
        "trace.overhead_frac",
        "ratio",
        cpu(&traced) / cpu(&plain) - 1.0,
    ));
    plain.append(&mut traced);
    (plain, metrics)
}

/// Each problem's best time, in milliseconds.
fn best_per_problem<'a>(times: impl Iterator<Item = &'a (&'static str, Duration)>) -> Vec<f64> {
    let mut best: HashMap<&str, f64> = HashMap::new();
    for (problem, t) in times {
        let t = t.as_secs_f64() * 1e3;
        best.entry(problem)
            .and_modify(|b| *b = b.min(t))
            .or_insert(t);
    }
    best.into_values().collect()
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile, interpolating linearly between the closest ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
