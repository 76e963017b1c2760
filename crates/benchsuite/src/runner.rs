//! Suite runner and reporting: regenerates the evaluation artifacts of §6.1
//! (Figure 7 and the in-text statistics).

use std::fmt::Write as _;
use std::time::Duration;

use cycleq::{Budget, CancelToken, Engine, Outcome, SearchConfig, SearchStats};
use cycleq_batch::BatchScheduler;

use crate::problems::{Category, Expectation, Problem};

/// How to run the suite.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Per-problem search configuration (timeout lives here).
    pub search: SearchConfig,
    /// Supply the registered hint lemmas for `NeedsLemma` problems.
    pub with_hints: bool,
    /// Re-check proofs with the independent checker.
    pub recheck: bool,
    /// Worker threads for [`run_suite`] (1 = sequential, no threads;
    /// 0 = one per hardware thread). Each problem loads its own program,
    /// so workers share nothing; for problems that finish comfortably
    /// within [`SearchConfig::timeout`] the statuses are identical to a
    /// sequential run. Per-problem `time` fields include any contention
    /// between workers, so near the timeout boundary a heavily loaded
    /// machine can flip a borderline problem to `Timeout` — benchmark
    /// timings (Figure 7 regeneration) should use `jobs: 1`.
    pub jobs: usize,
    /// Export a `<problem.id>.cqc` certificate into this directory for
    /// every proved problem (the corpus `cycleq check` re-validates). The
    /// directory must already exist; export failures surface as
    /// [`RunStatus::Error`] so CI cannot silently produce a partial corpus.
    pub emit_certs: Option<std::path::PathBuf>,
    /// Capture a per-problem phase-time breakdown ([`RunOutcome::profile`],
    /// rendered by [`profile_table`]) by enabling the `cycleq_trace` span
    /// machinery. Each profile holds its own problem's spans only, at any
    /// `jobs`.
    pub profile: bool,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            search: SearchConfig {
                timeout: Some(Duration::from_secs(2)),
                ..SearchConfig::default()
            },
            with_hints: false,
            recheck: true,
            jobs: 1,
            emit_certs: None,
            profile: false,
        }
    }
}

/// The status of one run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Proved (and, if configured, re-checked).
    Proved,
    /// Refuted with a ground counterexample — indicates a mis-encoded
    /// property.
    Refuted,
    /// Search space exhausted within bounds.
    Exhausted,
    /// Timed out.
    Timeout,
    /// Node budget exceeded.
    NodeBudget,
    /// Cancelled through a [`cycleq::CancelToken`].
    Cancelled,
    /// Conditional property: out of scope (§6.2).
    OutOfScope,
    /// A hint lemma failed to prove first.
    HintFailed,
    /// Frontend or checker error.
    Error(String),
}

impl RunStatus {
    /// Whether the run produced a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, RunStatus::Proved)
    }
}

/// The outcome of running one problem.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The problem.
    pub problem: &'static Problem,
    /// What happened.
    pub status: RunStatus,
    /// Wall-clock search time (excluding parsing).
    pub time: Duration,
    /// Search statistics, when a search ran.
    pub stats: Option<SearchStats>,
    /// Phase-time breakdown of the search, when [`RunConfig::profile`]
    /// was set and a search ran.
    pub profile: Option<cycleq::Profile>,
}

/// Runs a single problem.
pub fn run_problem(problem: &'static Problem, config: &RunConfig) -> RunOutcome {
    if config.profile {
        cycleq::trace::set_enabled(true);
    }
    let Some(src) = problem.source() else {
        return RunOutcome {
            problem,
            status: RunStatus::OutOfScope,
            time: Duration::ZERO,
            stats: None,
            profile: None,
        };
    };
    let engine = Engine::builder()
        .config(config.search.clone())
        .recheck(config.recheck)
        .build();
    let session = match engine.load(&src) {
        Ok(s) => s,
        Err(e) => {
            return RunOutcome {
                problem,
                status: RunStatus::Error(e.to_string()),
                time: Duration::ZERO,
                stats: None,
                profile: None,
            }
        }
    };
    let goal_name = problem.goal_name();
    let hints: Vec<&str> = if config.with_hints {
        problem.hint_names()
    } else {
        Vec::new()
    };
    let verdict = match session.prove_with_budget(
        &goal_name,
        &hints,
        &Budget::unlimited(),
        &CancelToken::new(),
    ) {
        Ok(v) => v,
        Err(e) => {
            return RunOutcome {
                problem,
                status: RunStatus::Error(e.to_string()),
                time: Duration::ZERO,
                stats: None,
                profile: None,
            }
        }
    };
    let mut status = match verdict.result.outcome {
        Outcome::Proved { .. } => RunStatus::Proved,
        Outcome::Refuted => RunStatus::Refuted,
        Outcome::Exhausted => RunStatus::Exhausted,
        Outcome::Timeout => RunStatus::Timeout,
        Outcome::NodeBudget => RunStatus::NodeBudget,
        Outcome::Cancelled => RunStatus::Cancelled,
        Outcome::HintFailed { .. } => RunStatus::HintFailed,
        Outcome::Panicked { ref message } => RunStatus::Error(format!("panicked: {message}")),
    };
    if status.is_proved() {
        if let Some(dir) = &config.emit_certs {
            if let Err(e) = emit_certificate(dir, problem.id, &session, &verdict) {
                status = RunStatus::Error(e);
            }
        }
    }
    RunOutcome {
        problem,
        status,
        time: verdict.result.stats.elapsed,
        stats: Some(verdict.result.stats),
        profile: config.profile.then(|| session.profile()).flatten(),
    }
}

/// Writes the proved problem's certificate as `<dir>/<id>.cqc`, with the
/// id sanitized the same way the CLI sanitizes goal names (anything but
/// alphanumerics becomes `_`) so awkward ids cannot escape the directory.
fn emit_certificate(
    dir: &std::path::Path,
    id: &str,
    session: &cycleq::Session,
    verdict: &cycleq::Verdict,
) -> Result<(), String> {
    let text = session
        .export_certificate(verdict)
        .map_err(|e| format!("certificate export failed: {e}"))?;
    let safe: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("{safe}.cqc"));
    std::fs::write(&path, text)
        .map_err(|e| format!("cannot write certificate {}: {e}", path.display()))
}

/// Runs a set of problems, fanning them out across [`RunConfig::jobs`]
/// workers (sequentially, with no threads, when `jobs` is 1).
///
/// The returned outcomes are **always in the order of `problems`**
/// (declaration order), never completion order: each outcome is tagged
/// with its input index and the batch is explicitly sorted by that index
/// before returning, so reporters ([`text_table`], [`csv`],
/// [`cactus_series`]) see the same deterministic sequence whatever the
/// parallelism.
pub fn run_suite(problems: &[&'static Problem], config: &RunConfig) -> Vec<RunOutcome> {
    let tasks: Vec<_> = problems
        .iter()
        .enumerate()
        .map(|(index, &p)| move |_worker: usize| (index, run_problem(p, config)))
        .collect();
    let mut indexed = BatchScheduler::new(config.jobs).run(tasks);
    // The scheduler already returns results in task order; the sort makes
    // declaration ordering an invariant of this function rather than of
    // the scheduler implementation.
    indexed.sort_by_key(|(index, _)| *index);
    indexed.into_iter().map(|(_, out)| out).collect()
}

/// Aggregate statistics matching the numbers reported in §6.1.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Problems attempted (in-scope).
    pub attempted: usize,
    /// Problems proved.
    pub proved: usize,
    /// Out-of-scope (conditional) problems.
    pub out_of_scope: usize,
    /// Proved in under 100 ms.
    pub proved_under_100ms: usize,
    /// Mean time over proved problems, in milliseconds.
    pub mean_proved_ms: f64,
    /// Maximum time over proved problems, in milliseconds.
    pub max_proved_ms: f64,
}

/// Summarises a batch of outcomes.
pub fn summarize(outcomes: &[RunOutcome]) -> Summary {
    let out_of_scope = outcomes
        .iter()
        .filter(|o| o.status == RunStatus::OutOfScope)
        .count();
    let attempted = outcomes.len() - out_of_scope;
    let proved: Vec<&RunOutcome> = outcomes.iter().filter(|o| o.status.is_proved()).collect();
    let times_ms: Vec<f64> = proved
        .iter()
        .map(|o| o.time.as_secs_f64() * 1000.0)
        .collect();
    Summary {
        attempted,
        proved: proved.len(),
        out_of_scope,
        proved_under_100ms: times_ms.iter().filter(|t| **t < 100.0).count(),
        mean_proved_ms: if times_ms.is_empty() {
            0.0
        } else {
            times_ms.iter().sum::<f64>() / times_ms.len() as f64
        },
        max_proved_ms: times_ms.iter().copied().fold(0.0, f64::max),
    }
}

/// The cumulative-solved series of Figure 7: for each proved problem, its
/// solve time in milliseconds paired with the cumulative count, sorted by
/// time.
pub fn cactus_series(outcomes: &[RunOutcome]) -> Vec<(f64, usize)> {
    let mut times: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.status.is_proved())
        .map(|o| o.time.as_secs_f64() * 1000.0)
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, i + 1))
        .collect()
}

/// Renders outcomes as an aligned text table.
pub fn text_table(outcomes: &[RunOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<11} {:<12} {:>10}  note",
        "id", "suite", "status", "time"
    );
    for o in outcomes {
        let status = match &o.status {
            RunStatus::Proved => "proved".to_string(),
            RunStatus::Refuted => "REFUTED".to_string(),
            RunStatus::Exhausted => "exhausted".to_string(),
            RunStatus::Timeout => "timeout".to_string(),
            RunStatus::NodeBudget => "budget".to_string(),
            RunStatus::Cancelled => "cancelled".to_string(),
            RunStatus::OutOfScope => "out-of-scope".to_string(),
            RunStatus::HintFailed => "hint-failed".to_string(),
            RunStatus::Error(e) => format!("ERROR: {e}"),
        };
        let suite = match o.problem.category {
            Category::IsaPlanner => "isaplanner",
            Category::Mutual => "mutual",
            Category::Figure => "figure",
        };
        let _ = writeln!(
            out,
            "{:<6} {:<11} {:<12} {:>8.2}ms  {}",
            o.problem.id,
            suite,
            status,
            o.time.as_secs_f64() * 1000.0,
            o.problem.note.unwrap_or("")
        );
    }
    out
}

/// Renders the per-problem phase-time breakdown captured with
/// [`RunConfig::profile`] as an aligned text table: one row per profiled
/// problem, one column per span phase (total milliseconds across that
/// problem's spans). Totals are inclusive of child spans — `prove_goal`
/// covers the whole search, `round` the deepening rounds inside it, and so
/// on down the taxonomy — so columns overlap rather than sum to the time.
/// The leaf spans `normalize`, `subst`, `case`, `closure_update` and
/// `undo` enclose none of each other.
pub fn profile_table(outcomes: &[RunOutcome]) -> String {
    const PHASES: [&str; 9] = [
        "prove_goal",
        "round",
        "expand",
        "normalize",
        "subst",
        "case",
        "closure_update",
        "undo",
        "check",
    ];
    let mut out = String::new();
    let _ = write!(out, "{:<6} {:>10}", "id", "time");
    for phase in PHASES {
        let _ = write!(out, " {:>14}", phase);
    }
    let _ = writeln!(out);
    for o in outcomes {
        let Some(profile) = &o.profile else { continue };
        let _ = write!(
            out,
            "{:<6} {:>8.2}ms",
            o.problem.id,
            o.time.as_secs_f64() * 1000.0
        );
        for name in PHASES {
            let ms = profile
                .phase(name)
                .map(|p| p.total_seconds * 1000.0)
                .unwrap_or(0.0);
            let _ = write!(out, " {:>12.2}ms", ms);
        }
        let _ = writeln!(out);
    }
    out
}

/// Quotes a CSV field when it contains a comma, quote or newline (RFC
/// 4180: wrap in double quotes, double any embedded quotes). Problem ids
/// and error messages are the fields that can need this; plain fields pass
/// through untouched.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders outcomes as CSV (`id,suite,status,time_ms,nodes`), with fields
/// escaped per RFC 4180 so ids or error messages containing commas/quotes
/// cannot produce malformed rows.
pub fn csv(outcomes: &[RunOutcome]) -> String {
    let mut out = String::from("id,suite,status,time_ms,nodes\n");
    for o in outcomes {
        let status = match &o.status {
            RunStatus::Proved => "proved".to_string(),
            RunStatus::Refuted => "refuted".to_string(),
            RunStatus::Exhausted => "exhausted".to_string(),
            RunStatus::Timeout => "timeout".to_string(),
            RunStatus::NodeBudget => "budget".to_string(),
            RunStatus::Cancelled => "cancelled".to_string(),
            RunStatus::OutOfScope => "out-of-scope".to_string(),
            RunStatus::HintFailed => "hint-failed".to_string(),
            RunStatus::Error(e) => format!("error: {e}"),
        };
        let suite = match o.problem.category {
            Category::IsaPlanner => "isaplanner",
            Category::Mutual => "mutual",
            Category::Figure => "figure",
        };
        let _ = writeln!(
            out,
            "{},{},{},{:.3},{}",
            csv_field(o.problem.id),
            suite,
            csv_field(&status),
            o.time.as_secs_f64() * 1000.0,
            o.stats.as_ref().map(|s| s.nodes_created).unwrap_or(0)
        );
    }
    out
}

/// Problems whose expectation matches the filter.
pub fn by_expectation(
    problems: &[&'static Problem],
    expectation: Expectation,
) -> Vec<&'static Problem> {
    problems
        .iter()
        .copied()
        .filter(|p| p.expectation == expectation)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{FIGURES, ISAPLANNER, MUTUAL};

    #[test]
    fn runs_fig4_problem() {
        let p = &FIGURES[0];
        let out = run_problem(p, &RunConfig::default());
        assert!(out.status.is_proved(), "{:?}", out.status);
        assert!(out.time < Duration::from_secs(2));
    }

    #[test]
    fn conditional_problems_are_out_of_scope() {
        let p = ISAPLANNER.iter().find(|p| p.id == "IP05").unwrap();
        let out = run_problem(p, &RunConfig::default());
        assert_eq!(out.status, RunStatus::OutOfScope);
    }

    #[test]
    fn mutual_problem_runs_quickly() {
        let p = &MUTUAL[0];
        let out = run_problem(p, &RunConfig::default());
        assert!(out.status.is_proved(), "{:?}", out.status);
    }

    #[test]
    fn parallel_profiles_hold_each_problems_own_spans() {
        let quick: Vec<&'static Problem> = crate::all_problems()
            .into_iter()
            .filter(|p| p.category != Category::IsaPlanner)
            .collect();
        let config = RunConfig {
            jobs: 2,
            profile: true,
            with_hints: true,
            ..RunConfig::default()
        };
        let outcomes = run_suite(&quick, &config);
        for o in &outcomes {
            // A problem proves one goal; its hints, if any, are proved
            // inside that goal's own search.
            let profile = o.profile.as_ref().expect("profiled");
            assert_eq!(
                profile.phase("prove_goal").map(|p| p.count),
                Some(1),
                "{}: one prove_goal span",
                o.problem.id
            );
        }
    }

    #[test]
    fn summary_and_cactus_are_consistent() {
        let ps: Vec<&'static Problem> = vec![&FIGURES[0], &FIGURES[1], &MUTUAL[0]];
        let outcomes = run_suite(&ps, &RunConfig::default());
        let summary = summarize(&outcomes);
        assert_eq!(summary.attempted, 3);
        assert_eq!(summary.proved, 3);
        let series = cactus_series(&outcomes);
        assert_eq!(series.len(), 3);
        assert_eq!(series.last().unwrap().1, 3);
        // Times are sorted.
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn tables_render() {
        let ps: Vec<&'static Problem> = vec![&FIGURES[0]];
        let outcomes = run_suite(&ps, &RunConfig::default());
        let table = text_table(&outcomes);
        assert!(table.contains("F04"));
        let csv_out = csv(&outcomes);
        assert!(csv_out.starts_with("id,suite,status"));
        assert!(csv_out.contains("proved"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes_in_fields() {
        static AWKWARD: Problem = Problem {
            id: "IP,\"evil\",01",
            category: Category::IsaPlanner,
            expectation: Expectation::InScope,
            goal: None,
            hints: &[],
            note: None,
        };
        let outcomes = vec![
            RunOutcome {
                problem: &AWKWARD,
                status: RunStatus::Proved,
                time: Duration::from_millis(1),
                stats: None,
                profile: None,
            },
            RunOutcome {
                problem: &AWKWARD,
                status: RunStatus::Error("load failed: expected `,`, got `=`".to_string()),
                time: Duration::ZERO,
                stats: None,
                profile: None,
            },
        ];
        let rendered = csv(&outcomes);
        let mut lines = rendered.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 5);
        // The awkward id must come out as one RFC 4180-quoted field…
        let row = lines.next().unwrap();
        assert!(
            row.starts_with("\"IP,\"\"evil\"\",01\",isaplanner,proved,"),
            "bad row: {row}"
        );
        // …so that un-escaping yields exactly the header's column count.
        for row in rendered.lines().skip(1) {
            let mut cols = 0;
            let mut in_quotes = false;
            for c in row.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => cols += 1,
                    _ => {}
                }
            }
            assert_eq!(cols, 4, "row has wrong column count: {row}");
        }
        // The error message (which contains commas and backticks) is
        // carried in the status field, quoted.
        assert!(rendered.contains("\"error: load failed: expected `,`, got `=`\""));
    }

    #[test]
    fn parallel_suite_matches_sequential_statuses_and_order() {
        let ps: Vec<&'static Problem> = FIGURES.iter().chain(MUTUAL.iter()).collect();
        let sequential = run_suite(&ps, &RunConfig::default());
        let parallel = run_suite(
            &ps,
            &RunConfig {
                jobs: 4,
                ..RunConfig::default()
            },
        );
        assert_eq!(sequential.len(), parallel.len());
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.problem.id, ps[i].id,
                "sequential order is declaration order"
            );
            assert_eq!(
                p.problem.id, ps[i].id,
                "parallel order is declaration order"
            );
            assert_eq!(s.status, p.status, "{}: verdicts must agree", ps[i].id);
        }
        // The reporters therefore agree row-for-row on everything but
        // timing, e.g. the id column of the text table.
        let ids = |t: &str| -> Vec<String> {
            t.lines()
                .skip(1)
                .map(|l| l.split_whitespace().next().unwrap().to_string())
                .collect()
        };
        assert_eq!(ids(&text_table(&sequential)), ids(&text_table(&parallel)));
    }

    #[test]
    fn emit_certs_writes_a_validating_corpus() {
        let dir = std::env::temp_dir().join(format!("cycleq_certs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = &FIGURES[0];
        let out = run_problem(
            p,
            &RunConfig {
                emit_certs: Some(dir.clone()),
                ..RunConfig::default()
            },
        );
        assert!(out.status.is_proved(), "{:?}", out.status);
        let text = std::fs::read_to_string(dir.join(format!("{}.cqc", p.id))).unwrap();
        let checked = cycleq::check_certificate(&text).expect("exported certificate validates");
        assert_eq!(checked.goal, p.goal_name());
        assert!(checked.report.nodes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hints_flip_ip54() {
        let p = ISAPLANNER.iter().find(|p| p.id == "IP54").unwrap();
        let without = run_problem(p, &RunConfig::default());
        assert!(!without.status.is_proved(), "{:?}", without.status);
        let with = run_problem(
            p,
            &RunConfig {
                with_hints: true,
                ..RunConfig::default()
            },
        );
        assert!(with.status.is_proved(), "{:?}", with.status);
    }
}
