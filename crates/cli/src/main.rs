//! The `cycleq` command-line prover.
//!
//! Reads a program in the Haskell-like CycleQ input language, attempts to
//! prove the requested goals (all declared goals by default) and prints
//! each verdict with the rendered proof tree and search statistics.
//!
//! Exit status: 0 when every attempted goal is proved; 3 when any goal is
//! *refuted* (a ground counterexample exists — distinct so scripts can tell
//! "false" from "unknown"); 1 when the search gives up on any goal
//! (exhausted, timeout, node budget, or a failed hint) and none is refuted;
//! 2 on usage or load errors; 141 when the reader of stdout closed the
//! pipe (see [`output`]).

mod output;

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cycleq::{
    analyze_source, analyze_with_fixes, check_certificate, unified_diff, BatchReport,
    BatchScheduler, Budget, CancelToken, Diagnostic, Engine, Outcome, ProveEvent, SearchConfig,
    SearchStats, Session, Verdict,
};
use output::{errln, out, outln};

/// Some goal was not proved, but none was refuted (exhausted / timeout /
/// node budget / failed hint).
const EXIT_GAVE_UP: u8 = 1;
/// Usage or load error.
const EXIT_USAGE: u8 = 2;
/// Some goal was refuted: a ground counterexample exists.
const EXIT_REFUTED: u8 = 3;

const USAGE: &str = "\
cycleq — cyclic equational prover (CycleQ, PLDI 2022)

USAGE:
    cycleq [prove] [OPTIONS] <FILE> [GOAL]...
    cycleq check [--jobs N] <FILE>...
    cycleq lint [--format json] [--deny-warnings] [--fix [--dry-run]] [--jobs N] <FILE>...

ARGS:
    <FILE>      Program in the CycleQ input language (data decls,
                function equations, `goal name: lhs === rhs`)
    [GOAL]...   Goals to prove; defaults to every declared goal

SUBCOMMANDS:
    prove       Explicit alias for the default mode: `cycleq prove FILE`
                and `cycleq FILE` are equivalent. Either streams one
                progress line per finished goal to stderr, in completion
                order, while stdout keeps the declaration-ordered verdicts
    check       Re-validate exported proof certificates. Each file is
                parsed, its embedded program fingerprint-checked and
                re-elaborated, and the proof re-run through the
                independent checker; files are validated in parallel
                with `--jobs`. Exits 0 when every certificate is valid,
                3 when any is invalid or unreadable (reported per file,
                never aborting the rest), 2 on usage errors.
    lint        Statically analyse programs without proving: pattern
                coverage (CQ001), clause overlaps classified by critical-
                pair joinability (joinable CQ002 warnings, non-joinable
                CQ009 errors), left-linearity (CQ003), the size-change
                termination pre-screen (CQ004) and a dead-code sweep
                (CQ005-CQ007), each diagnostic with a stable code and
                source line. Some diagnostics carry a machine-applicable
                fix: `--fix` applies them in place to a fixed point
                (`--dry-run` prints unified diffs instead of writing).
                Files lint in parallel with `--jobs`; `--format json`
                emits one NDJSON object per diagnostic (including its
                fix, if any) plus a summary. Exits 0 when clean, 1 when
                only warnings were found and `--deny-warnings` is set,
                3 when any file has errors or is unreadable (reported
                per file, never aborting the rest) — `--fix` does not
                mask unfixable errors — and 2 on usage errors.

OPTIONS:
    --dot               Render proofs as Graphviz DOT instead of text
    --no-proof          Print verdicts only, without proof trees
    --stats             Print search statistics for each goal
    --hints g1,g2       Prove the named goals first and provide them as
                        (Subst) lemmas for every requested goal
    --jobs N            Prove goals in parallel on N worker threads
                        (0 = one per hardware thread; default 1), each
                        idle worker taking the largest goal not yet
                        started. Output stays in declaration order, and
                        only the wall time changes: verdicts, proofs and
                        --stats counters are the same at any N, unless
                        --timeout-ms cuts a goal short. A batch summary
                        line is printed at the end
    --format FMT        Output format: `text` (default) or `json` — one
                        machine-readable JSON object per goal plus a batch
                        summary object, one per line, on stdout
    --emit-certs DIR    Export a self-contained certificate for every
                        proved goal to DIR/<goal>.cqc, re-validatable
                        later with `cycleq check`
    --max-nodes N       Cap proof nodes created during search
    --max-depth N       Cap DFS depth (rule applications per branch)
    --timeout-ms N      Wall-clock budget per goal; 0 means unbounded
    --trace-out FILE    Record hierarchical spans (prove_goal > round >
                        expand / normalize / closure_update / check) and
                        write them as Chrome trace-event JSON — loadable
                        in Perfetto or chrome://tracing, one track per
                        worker thread
    --metrics-out FILE  Write this run's counts (goal verdicts, the
                        --stats counters summed over the goals, re-check
                        and phase times) in Prometheus text exposition
                        format
    -h, --help          Print this help
    -V, --version       Print version

EXIT STATUS:
    0   every attempted goal was proved
    1   the search gave up on a goal (exhausted, timeout, node budget,
        a hint failed, or the search panicked and was isolated) and no
        goal was refuted
    2   usage or load error, or stdout could not be written
    3   a goal was refuted (a ground counterexample exists)
    141 stdout was closed before the report was written (a reader such
        as `head` quit early); nothing further is printed. Every
        subcommand exits so. Lines on stderr are advisory: a closed
        stderr changes no verdict and no exit status
";

/// Output format for verdicts and summaries.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Options {
    file: String,
    goals: Vec<String>,
    hints: Vec<String>,
    dot: bool,
    proof: bool,
    stats: bool,
    emit_certs: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    format: Format,
    /// `Some(n)` when `--jobs` was passed: the batch summary line is
    /// printed even for `--jobs 1`, exactly as the help text promises.
    jobs: Option<usize>,
    config: SearchConfig,
}

/// Parses the command line; `Ok(None)` means help/version was printed and
/// the process should exit successfully. `Err` carries a usage message.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        file: String::new(),
        goals: Vec::new(),
        hints: Vec::new(),
        dot: false,
        proof: true,
        stats: false,
        emit_certs: None,
        trace_out: None,
        metrics_out: None,
        format: Format::Text,
        jobs: None,
        config: SearchConfig::default(),
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut numeric = |name: &str| -> Result<usize, String> {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))?
                .parse()
                .map_err(|_| format!("{name} requires an integer value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                out!("{USAGE}");
                return Ok(None);
            }
            "-V" | "--version" => {
                outln!("cycleq {}", env!("CARGO_PKG_VERSION"));
                return Ok(None);
            }
            "--dot" => opts.dot = true,
            "--no-proof" => opts.proof = false,
            "--stats" => opts.stats = true,
            "--emit-certs" => {
                let dir = it.next().ok_or("--emit-certs requires a value")?;
                opts.emit_certs = Some(dir.clone());
            }
            "--trace-out" => {
                let path = it.next().ok_or("--trace-out requires a value")?;
                opts.trace_out = Some(path.clone());
            }
            "--metrics-out" => {
                let path = it.next().ok_or("--metrics-out requires a value")?;
                opts.metrics_out = Some(path.clone());
            }
            "--hints" => {
                let list = it.next().ok_or("--hints requires a value")?;
                opts.hints.extend(list.split(',').map(str::to_string));
            }
            "--jobs" => opts.jobs = Some(numeric("--jobs")?),
            "--format" => {
                let fmt = it.next().ok_or("--format requires a value")?;
                opts.format = match fmt.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            "--max-nodes" => opts.config.max_nodes = numeric("--max-nodes")?,
            "--max-depth" => opts.config.max_depth = numeric("--max-depth")?,
            "--timeout-ms" => {
                let ms = numeric("--timeout-ms")?;
                opts.config.timeout = (ms > 0).then(|| Duration::from_millis(ms as u64));
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                return Err(format!("unknown option `{flag}`"));
            }
            _ => positional.push(arg.clone()),
        }
    }
    if opts.format == Format::Json && opts.dot {
        return Err("--format json and --dot are mutually exclusive".to_string());
    }
    let mut positional = positional.into_iter();
    opts.file = positional.next().ok_or("missing <FILE> argument")?;
    opts.goals = positional.collect();
    Ok(Some(opts))
}

/// Escapes a string for a JSON string literal (RFC 8259 §7).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The verdict word of the text output (`goal NAME: WORD`).
fn status_word(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Proved { .. } => "Proved",
        Outcome::Refuted => "Refuted",
        Outcome::Panicked { .. } => "Panicked",
        Outcome::Exhausted
        | Outcome::Timeout
        | Outcome::NodeBudget
        | Outcome::Cancelled
        | Outcome::HintFailed { .. } => "GaveUp",
    }
}

/// The granular verdict word for `--format json`.
fn verdict_word(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Proved { .. } => "proved",
        Outcome::Refuted => "refuted",
        Outcome::Exhausted => "exhausted",
        Outcome::Timeout => "timeout",
        Outcome::NodeBudget => "node-budget",
        Outcome::Cancelled => "cancelled",
        Outcome::HintFailed { .. } => "hint-failed",
        Outcome::Panicked { .. } => "panicked",
    }
}

/// The NDJSON `stats` object, generated from [`SearchStats::entries`] — the
/// same single source that feeds the `--stats` line and the
/// `--metrics-out` families, so the three surfaces cannot drift (schema
/// pinned by `tests/stats_schema.rs`).
fn json_stats(s: &SearchStats) -> String {
    let fields: Vec<String> = s
        .entries()
        .into_iter()
        .map(|(key, value)| format!("\"{key}\":{value}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// One NDJSON object per goal: verdict, stats, recheck counters, elapsed.
/// The `recheck_*` keys are always present; they are zero when re-checking
/// did not run (unproved goals, or rechecking disabled).
fn print_goal_json(verdict: &Verdict, time: Duration) {
    let recheck = verdict.recheck.unwrap_or_default();
    outln!(
        "{{\"type\":\"goal\",\"goal\":\"{}\",\"verdict\":\"{}\",\"time_ms\":{:.3},\
         \"recheck_ms\":{:.3},\"recheck_reducts\":{},\"recheck_memo_hits\":{},\"stats\":{}}}",
        json_escape(&verdict.goal),
        verdict_word(&verdict.result.outcome),
        time.as_secs_f64() * 1000.0,
        recheck.elapsed.as_secs_f64() * 1000.0,
        recheck.reducts_checked,
        recheck.memo_hits,
        json_stats(&verdict.result.stats),
    );
}

/// The NDJSON batch summary object.
fn print_batch_json(report: &BatchReport) {
    outln!(
        "{{\"type\":\"batch\",\"proved\":{},\"total\":{},\"jobs\":{},\"panicked\":{},\
         \"recheck_ms\":{:.3},\"elapsed_ms\":{:.3}}}",
        report.proved(),
        report.goals.len(),
        report.jobs,
        report.panicked(),
        report.recheck.as_secs_f64() * 1000.0,
        report.stats.elapsed.as_secs_f64() * 1000.0,
    );
}

fn print_verdict(opts: &Options, verdict: &Verdict) {
    let status = status_word(&verdict.result.outcome);
    // In DOT mode only graphs go to stdout, so the output pipes straight
    // into `dot`; verdict and stats lines move to stderr.
    let annotate = |line: &str| {
        if opts.dot {
            errln!("{line}");
        } else {
            outln!("{line}");
        }
    };
    annotate(&format!("goal {}: {status}", verdict.goal));
    if opts.proof && verdict.is_proved() {
        let rendered = if opts.dot {
            verdict.render_dot()
        } else {
            verdict.render_proof()
        };
        match rendered {
            Ok(text) => outln!("{text}"),
            Err(e) => annotate(&format!("  (proof rendering failed: {e})")),
        }
    }
    if opts.stats {
        // Generated from the same `entries()` list as the NDJSON stats
        // object and the `--metrics-out` families (see `json_stats`).
        let s = &verdict.result.stats;
        let fields: Vec<String> = s
            .entries()
            .into_iter()
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        annotate(&format!(
            "  stats: {} elapsed={:?}",
            fields.join(" "),
            s.elapsed
        ));
        if let Some(r) = &verdict.recheck {
            annotate(&format!(
                "  recheck: nodes={} reducts={} memo_hits={} elapsed={:?}",
                r.nodes, r.reducts_checked, r.memo_hits, r.elapsed,
            ));
        }
    }
}

/// Aggregate verdict over every attempted goal, for the exit status.
#[derive(Copy, Clone, Default)]
struct Tally {
    refuted: bool,
    gave_up: bool,
}

impl Tally {
    fn exit_code(self) -> ExitCode {
        if self.refuted {
            ExitCode::from(EXIT_REFUTED)
        } else if self.gave_up {
            ExitCode::from(EXIT_GAVE_UP)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Proves the requested goals; `Err` carries a load/prove error message.
fn run(opts: &Options) -> Result<Tally, String> {
    let source = std::fs::read_to_string(&opts.file)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.file))?;
    // Live per-goal progress to stderr, streamed in completion order
    // while stdout keeps the declaration-ordered verdicts.
    let done = AtomicUsize::new(0);
    let engine = Engine::builder()
        .config(opts.config.clone())
        .jobs(opts.jobs.unwrap_or(1))
        .on_event(move |ev: &ProveEvent| {
            if let ProveEvent::GoalFinished {
                goal, status, time, ..
            } = ev
            {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                errln!(
                    "[{n}] goal {goal}: {status} ({:.1}ms)",
                    time.as_secs_f64() * 1000.0
                );
            }
        })
        .build();
    let session = engine
        .load(&source)
        .map_err(|e| format!("{}: {e}", opts.file))?;
    // Static-analysis findings go to stderr before any proving, without
    // affecting the verdicts or the exit code: an overlapping or
    // non-terminating program is still *attempted* (matching the paper's
    // tool), just no longer silently.
    for d in session.analyze() {
        match d.line {
            Some(line) => errln!("{}:{line}: {d}", opts.file),
            None => errln!("{}: {d}", opts.file),
        }
    }
    let goals: Vec<&str> = if opts.goals.is_empty() {
        session.goal_names()
    } else {
        opts.goals.iter().map(String::as_str).collect()
    };
    if goals.is_empty() {
        return Err(format!("`{}` declares no goals", opts.file));
    }
    let hints: Vec<&str> = opts.hints.iter().map(String::as_str).collect();
    if let Some(dir) = &opts.emit_certs {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    }
    // Span recording and metric export are opt-in: the atomic stays off —
    // and the span! sites stay near-free — unless one of the flags asks.
    if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        cycleq::trace::set_enabled(true);
    }
    if opts.trace_out.is_some() {
        cycleq::trace::start_collect();
    }
    let report = session
        .prove_many_with(&goals, &hints, &Budget::unlimited(), &CancelToken::new())
        .map_err(|e| e.to_string())?;
    let tally = print_report(opts, &session, &report)?;
    write_observability(opts, &session, &report)?;
    Ok(tally)
}

/// Writes the `--trace-out` (Chrome trace-event JSON) and `--metrics-out`
/// (Prometheus text, from the run's report and profile) artifacts, when
/// requested.
fn write_observability(
    opts: &Options,
    session: &Session,
    report: &BatchReport,
) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        let trace = cycleq::trace::finish_collect();
        std::fs::write(path, trace.to_chrome_json())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(path) = &opts.metrics_out {
        let profile = session.profile().unwrap_or_default();
        std::fs::write(path, report.to_prometheus(&profile))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

/// Writes the verdict's certificate to `<dir>/<goal>.cqc`; unproved goals
/// have no certificate and are skipped.
fn emit_certificate(dir: &str, session: &Session, verdict: &Verdict) -> Result<(), String> {
    if !verdict.is_proved() {
        return Ok(());
    }
    let text = session
        .export_certificate(verdict)
        .map_err(|e| e.to_string())?;
    let safe: String = verdict
        .goal
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let path = std::path::Path::new(dir).join(format!("{safe}.cqc"));
    std::fs::write(&path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

/// Prints a batch's verdicts in declaration order, then the batch summary
/// when `--jobs` or `--format json` asked for it. The exit code is the
/// worst verdict.
fn print_report(opts: &Options, session: &Session, report: &BatchReport) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for g in &report.goals {
        match &g.outcome {
            Ok(verdict) => {
                if verdict.is_refuted() {
                    tally.refuted = true;
                } else if !verdict.is_proved() {
                    // Exhausted, Timeout, NodeBudget, Cancelled, HintFailed
                    // or Panicked (isolated by the panic boundary).
                    tally.gave_up = true;
                }
                match opts.format {
                    Format::Json => print_goal_json(verdict, g.time),
                    Format::Text => print_verdict(opts, verdict),
                }
                if let Some(dir) = &opts.emit_certs {
                    emit_certificate(dir, session, verdict)?;
                }
            }
            Err(e) => return Err(format!("goal `{}`: {e}", g.goal)),
        }
    }
    match opts.format {
        Format::Json => print_batch_json(report),
        Format::Text if opts.jobs.is_none() => {}
        Format::Text => {
            let summary = format!(
                "batch: proved {}/{} | jobs={} | panicked={} | \
                 elapsed={:?} | recheck={:?}",
                report.proved(),
                report.goals.len(),
                report.jobs,
                report.panicked(),
                report.stats.elapsed,
                report.recheck,
            );
            if opts.dot {
                errln!("{summary}");
            } else {
                outln!("{summary}");
            }
        }
    }
    Ok(tally)
}

/// Renders one diagnostic as `FILE:LINE: severity[CODE]: message` plus
/// indented notes.
fn print_diagnostic_text(file: &str, d: &Diagnostic) {
    match d.line {
        Some(line) => outln!("{file}:{line}: {d}"),
        None => outln!("{file}: {d}"),
    }
    for note in &d.notes {
        outln!("  note: {note}");
    }
}

/// One NDJSON object per diagnostic. `fix` is `null` or
/// `{"title": …, "edits": [{"line": …, "kind": …, "text": …}, …]}`.
fn print_diagnostic_json(file: &str, d: &Diagnostic) {
    let line = d.line.map_or_else(|| "null".to_string(), |l| l.to_string());
    let notes: Vec<String> = d
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    let fix = match &d.fix {
        None => "null".to_string(),
        Some(f) => {
            let edits: Vec<String> = f
                .edits
                .iter()
                .map(|e| {
                    format!(
                        "{{\"line\":{},\"kind\":\"{}\",\"text\":\"{}\"}}",
                        e.line,
                        e.kind.as_str(),
                        json_escape(&e.text),
                    )
                })
                .collect();
            format!(
                "{{\"title\":\"{}\",\"edits\":[{}]}}",
                json_escape(&f.title),
                edits.join(","),
            )
        }
    };
    outln!(
        "{{\"type\":\"diagnostic\",\"file\":\"{}\",\"line\":{line},\"code\":\"{}\",\
         \"severity\":\"{}\",\"message\":\"{}\",\"notes\":[{}],\"fix\":{fix}}}",
        json_escape(file),
        d.code,
        d.severity,
        json_escape(&d.message),
        notes.join(","),
    );
}

/// `cycleq lint [OPTIONS] <FILES>...`: static analysis without proving.
/// Prints diagnostics per file plus a greppable `lint:` summary.
fn run_lint(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut jobs = 1usize;
    let mut deny_warnings = false;
    let mut fix = false;
    let mut dry_run = false;
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                out!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--deny-warnings" => deny_warnings = true,
            "--fix" => fix = true,
            "--dry-run" => dry_run = true,
            "--jobs" => {
                let n = it.next().and_then(|v| v.parse::<usize>().ok());
                let Some(n) = n else {
                    errln!("error: --jobs requires an integer value\n\n{USAGE}");
                    return ExitCode::from(EXIT_USAGE);
                };
                jobs = n;
            }
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let other = other.unwrap_or("<missing>");
                        errln!("error: unknown format `{other}` (text|json)\n\n{USAGE}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                };
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                errln!("error: unknown option `{flag}`\n\n{USAGE}");
                return ExitCode::from(EXIT_USAGE);
            }
            _ => files.push(arg.clone()),
        }
    }
    if dry_run && !fix {
        errln!("error: --dry-run requires --fix\n\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    if files.is_empty() {
        errln!("error: cycleq lint requires at least one program file\n\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    // An unreadable file gets a per-file error line and the error exit
    // code, but never aborts the rest of the batch: the readable files are
    // still linted (and fixed) normally.
    let mut io_errors = 0usize;
    let mut readable = Vec::with_capacity(files.len());
    let mut texts = Vec::with_capacity(files.len());
    for f in files {
        match std::fs::read_to_string(&f) {
            Ok(text) => {
                readable.push(f);
                texts.push(text);
            }
            Err(e) => {
                errln!("error: cannot read `{f}`: {e}");
                io_errors += 1;
            }
        }
    }
    let files = readable;
    let start = Instant::now();
    let tasks: Vec<_> = texts
        .iter()
        .map(|text| {
            move |_worker: usize| {
                let file_start = Instant::now();
                let linted = if fix {
                    let out = analyze_with_fixes(text);
                    (out.diagnostics, out.applied, Some(out.source))
                } else {
                    (analyze_source(text), 0, None)
                };
                (linted, file_start.elapsed())
            }
        })
        .collect();
    let scheduler = BatchScheduler::new(jobs);
    let (results, times): (Vec<_>, Vec<_>) = scheduler.run(tasks).into_iter().unzip();
    let (file_total_ms, file_max_ms) = total_and_max_ms(&times);
    // Write repaired sources back (or collect diffs), then report.
    let mut fixed = 0usize;
    let mut diffs = String::new();
    for ((file, text), (_, applied, repaired)) in files.iter().zip(&texts).zip(&results) {
        fixed += applied;
        let Some(repaired) = repaired else { continue };
        if repaired == text {
            continue;
        }
        if dry_run {
            diffs.push_str(&unified_diff(text, repaired, file));
        } else if let Err(e) = std::fs::write(file, repaired) {
            errln!("error: cannot write `{file}`: {e}");
            io_errors += 1;
        }
    }
    // Flatten and sort all diagnostics by (file, line, code) so output is
    // stable regardless of how files were scheduled across workers.
    let mut flat: Vec<(&String, &Diagnostic)> = Vec::new();
    for (file, (diagnostics, _, _)) in files.iter().zip(&results) {
        for d in diagnostics {
            flat.push((file, d));
        }
    }
    flat.sort_by(|(fa, da), (fb, db)| {
        (fa.as_str(), da.line.unwrap_or(u32::MAX), da.code).cmp(&(
            fb.as_str(),
            db.line.unwrap_or(u32::MAX),
            db.code,
        ))
    });
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (file, d) in &flat {
        if d.is_error() {
            errors += 1;
        } else {
            warnings += 1;
        }
        match format {
            Format::Text => print_diagnostic_text(file, d),
            Format::Json => print_diagnostic_json(file, d),
        }
    }
    if dry_run && !diffs.is_empty() {
        out!("{diffs}");
    }
    let fixed_field = if fix {
        format!("fixed={fixed} ")
    } else {
        String::new()
    };
    match format {
        Format::Text => outln!(
            "lint: files={} {fixed_field}errors={errors} warnings={warnings} | jobs={} | \
             file total={file_total_ms:.1}ms max={file_max_ms:.1}ms | elapsed={:?}",
            files.len(),
            scheduler.jobs(),
            start.elapsed(),
        ),
        Format::Json => outln!(
            "{{\"type\":\"lint\",\"files\":{},{}\"errors\":{errors},\"warnings\":{warnings},\
             \"jobs\":{},\"file_total_ms\":{file_total_ms:.3},\
             \"file_max_ms\":{file_max_ms:.3},\"elapsed_ms\":{:.3}}}",
            files.len(),
            if fix {
                format!("\"fixed\":{fixed},")
            } else {
                String::new()
            },
            scheduler.jobs(),
            start.elapsed().as_secs_f64() * 1000.0,
        ),
    }
    if errors > 0 || io_errors > 0 {
        ExitCode::from(EXIT_REFUTED)
    } else if deny_warnings && warnings > 0 {
        ExitCode::from(EXIT_GAVE_UP)
    } else {
        ExitCode::SUCCESS
    }
}

/// The total and the maximum of per-file times, in milliseconds.
fn total_and_max_ms(times: &[Duration]) -> (f64, f64) {
    let total: Duration = times.iter().sum();
    let max = times.iter().max().copied().unwrap_or_default();
    (total.as_secs_f64() * 1000.0, max.as_secs_f64() * 1000.0)
}

/// `cycleq check <FILES>... [--jobs N]`: re-validates certificate files in
/// parallel. Prints one line per file plus a greppable `check:` summary.
fn run_check(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                out!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--jobs" => {
                let n = it.next().and_then(|v| v.parse::<usize>().ok());
                let Some(n) = n else {
                    errln!("error: --jobs requires an integer value\n\n{USAGE}");
                    return ExitCode::from(EXIT_USAGE);
                };
                jobs = n;
            }
            flag if flag.starts_with('-') && flag.len() > 1 => {
                errln!("error: unknown option `{flag}`\n\n{USAGE}");
                return ExitCode::from(EXIT_USAGE);
            }
            _ => files.push(arg.clone()),
        }
    }
    if files.is_empty() {
        errln!("error: cycleq check requires at least one certificate file\n\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }
    // An unreadable certificate is reported per-file as invalid (so the
    // exit code reflects it) and never aborts the rest of the batch.
    let texts: Vec<Result<String, String>> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).map_err(|e| format!("cannot read: {e}")))
        .collect();
    let start = Instant::now();
    let tasks: Vec<_> = texts
        .iter()
        .map(|text| {
            move |_worker: usize| match text {
                Ok(text) => {
                    let file_start = Instant::now();
                    let checked = check_certificate(text).map_err(|e| e.to_string());
                    (checked, file_start.elapsed())
                }
                Err(e) => (Err(e.clone()), Duration::ZERO),
            }
        })
        .collect();
    let scheduler = BatchScheduler::new(jobs);
    let (results, times): (Vec<_>, Vec<_>) = scheduler.run(tasks).into_iter().unzip();
    let (file_total_ms, file_max_ms) = total_and_max_ms(&times);
    let mut valid = 0usize;
    for (file, result) in files.iter().zip(&results) {
        match result {
            Ok(checked) => {
                valid += 1;
                outln!(
                    "cert {file}: valid goal {} ({} nodes, {} reducts, {} memo hits, {:?})",
                    checked.goal,
                    checked.report.nodes,
                    checked.report.reducts_checked,
                    checked.report.memo_hits,
                    checked.report.elapsed,
                );
            }
            Err(e) => outln!("cert {file}: INVALID ({e})"),
        }
    }
    outln!(
        "check: valid {}/{} | jobs={} | file total={file_total_ms:.1}ms \
         max={file_max_ms:.1}ms | elapsed={:?}",
        valid,
        files.len(),
        scheduler.jobs(),
        start.elapsed(),
    );
    if valid == files.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_REFUTED)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        return run_check(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("lint") {
        return run_lint(&args[1..]);
    }
    // `cycleq prove FILE` spells out the default mode like the other
    // subcommands do; both forms take the same options.
    let args: &[String] = if args.first().map(String::as_str) == Some("prove") {
        &args[1..]
    } else {
        &args
    };
    let opts = match parse_args(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            errln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match run(&opts) {
        Ok(tally) => tally.exit_code(),
        Err(msg) => {
            errln!("error: {msg}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicked_outcomes_have_their_own_words() {
        let panicked = Outcome::Panicked {
            message: "boom".to_string(),
        };
        assert_eq!(status_word(&panicked), "Panicked");
        assert_eq!(verdict_word(&panicked), "panicked");
        assert_eq!(status_word(&Outcome::Timeout), "GaveUp");
        assert_eq!(status_word(&Outcome::Refuted), "Refuted");
    }
}
