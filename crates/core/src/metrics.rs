//! Bridges per-goal [`SearchStats`] / [`CheckReport`] values into the
//! process-wide `cycleq_trace` metrics registry.
//!
//! Every finished goal is absorbed exactly once, from its final report in
//! `Session::prove_many_with`: counters sum across goals, gauge keys
//! (end-of-search sizes) keep the latest goal's value. The family names are
//! generated from [`SearchStats::entries`] — the same single source that
//! feeds the CLI `--stats` line and the NDJSON `stats` object — so the
//! three surfaces can never drift (pinned by `crates/cli/tests/stats_schema.rs`).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use cycleq_proof::CheckReport;
use cycleq_search::SearchStats;
use cycleq_trace::{metrics, Counter, Gauge, Histogram};

use crate::engine::GoalStatus;
use crate::GoalReport;

pub(crate) struct GoalMetrics {
    by_status: Vec<(GoalStatus, Counter)>,
    goal_seconds: Histogram,
    search_counters: BTreeMap<&'static str, Counter>,
    search_gauges: BTreeMap<&'static str, Gauge>,
    check_seconds: Histogram,
    check_reducts: Counter,
    check_memo_hits: Counter,
    goal_panics: Counter,
}

impl std::fmt::Debug for GoalMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoalMetrics").finish_non_exhaustive()
    }
}

/// Leaks a `String` into a `&'static str`: family names must be `'static`,
/// and there is a fixed, small set of them (one per stats key), registered
/// once per process.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

pub(crate) fn goal_metrics() -> &'static GoalMetrics {
    static METRICS: OnceLock<GoalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = metrics();
        let by_status = [
            GoalStatus::Proved,
            GoalStatus::Refuted,
            GoalStatus::GaveUp,
            GoalStatus::Cancelled,
            GoalStatus::Panicked,
            GoalStatus::Error,
        ]
        .into_iter()
        .map(|status| {
            (
                status,
                registry.counter_labeled(
                    "cycleq_goals_total",
                    "Goals finished, by compact verdict.",
                    leak(format!("status=\"{status}\"")),
                ),
            )
        })
        .collect();
        let mut search_counters = BTreeMap::new();
        let mut search_gauges = BTreeMap::new();
        for (key, _) in SearchStats::default().entries() {
            if SearchStats::GAUGE_KEYS.contains(&key) {
                search_gauges.insert(
                    key,
                    registry.gauge(
                        leak(format!("cycleq_search_{key}")),
                        "End-of-search size from the most recently finished goal (see SearchStats).",
                    ),
                );
            } else {
                search_counters.insert(
                    key,
                    registry.counter(
                        leak(format!("cycleq_search_{key}_total")),
                        "Per-goal search counter, summed across finished goals (see SearchStats).",
                    ),
                );
            }
        }
        GoalMetrics {
            by_status,
            goal_seconds: registry.histogram(
                "cycleq_goal_seconds",
                "End-to-end search time per finished goal.",
            ),
            search_counters,
            search_gauges,
            check_seconds: registry.histogram(
                "cycleq_check_seconds",
                "Time per proof re-check / certificate check.",
            ),
            check_reducts: registry.counter(
                "cycleq_check_reducts_total",
                "Reducts derived by the proof checker.",
            ),
            check_memo_hits: registry.counter(
                "cycleq_check_memo_hits_total",
                "Checker reduct derivations served from its memo table.",
            ),
            goal_panics: registry.counter(
                "cycleq_goal_panics_total",
                "Goal searches that panicked and were isolated by a panic boundary.",
            ),
        }
    })
}

/// Records one finished goal under the status its report carries: its
/// compact verdict and, when it ran to a verdict, its search counters and
/// (when the proof was re-checked) the checker's report.
pub(crate) fn record_goal(report: &GoalReport) {
    let m = goal_metrics();
    let status = GoalStatus::of(&report.outcome);
    if let Some((_, c)) = m.by_status.iter().find(|(s, _)| *s == status) {
        c.inc();
    }
    let Ok(verdict) = &report.outcome else {
        return;
    };
    let stats = &verdict.result.stats;
    m.goal_seconds.observe(stats.elapsed);
    for (key, value) in stats.entries() {
        if let Some(c) = m.search_counters.get(key) {
            c.add(value);
        } else if let Some(g) = m.search_gauges.get(key) {
            g.set(value);
        }
    }
    if let Some(report) = &verdict.recheck {
        record_check(report);
    }
}

/// Records one goal search that panicked and was isolated by a panic
/// boundary (`catch_unwind` in `Session::prove_goal`, or the batch
/// scheduler around each task).
pub(crate) fn record_goal_panic() {
    goal_metrics().goal_panics.inc();
}

/// Records one checker run (re-check or certificate validation).
pub(crate) fn record_check(report: &CheckReport) {
    let m = goal_metrics();
    m.check_seconds.observe(report.elapsed);
    m.check_reducts.add(report.reducts_checked);
    m.check_memo_hits.add(report.memo_hits);
}
