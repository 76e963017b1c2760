//! Prometheus text for a finished prove call, rendered from the values the
//! call returned: its [`BatchReport`] and its [`Profile`].

use cycleq_search::SearchStats;
use cycleq_trace::{Exposition, Histogram, Profile};

use crate::engine::GoalStatus;
use crate::{BatchReport, GoalReport};

impl BatchReport {
    /// Renders the batch in Prometheus text exposition format:
    ///
    /// - `cycleq_goals_total{status}` and `cycleq_goal_panics_total`, from
    ///   the goals' statuses;
    /// - `cycleq_goal_seconds`, from each goal's search time;
    /// - one `cycleq_search_<key>_total` counter or `cycleq_search_<key>`
    ///   gauge per [`SearchStats::entries`] key, equal to
    ///   [`BatchReport::stats`];
    /// - `cycleq_check_seconds`, `cycleq_check_reducts_total` and
    ///   `cycleq_check_memo_hits_total`, from the re-check reports;
    /// - `cycleq_phase_seconds{phase}`, from `profile` (the call's
    ///   [`Session::profile`](crate::Session::profile));
    /// - `cycleq_lock_poison_recoveries_total`, the process-wide
    ///   [`poison_recoveries`](cycleq_trace::poison_recoveries) count.
    pub fn to_prometheus(&self, profile: &Profile) -> String {
        let mut out = Exposition::default();
        for status in [
            GoalStatus::Proved,
            GoalStatus::Refuted,
            GoalStatus::GaveUp,
            GoalStatus::Cancelled,
            GoalStatus::Panicked,
            GoalStatus::Error,
        ] {
            let goals = self
                .goals
                .iter()
                .filter(|g| GoalStatus::of(&g.outcome) == status)
                .count();
            out.counter(
                "cycleq_goals_total",
                "Goals finished, by compact verdict.",
                &format!("status=\"{status}\""),
                goals as u64,
            );
        }
        out.counter(
            "cycleq_goal_panics_total",
            "Goal searches that panicked and were isolated by a panic boundary.",
            "",
            self.panicked() as u64,
        );
        let mut goal_seconds = Histogram::default();
        let mut check_seconds = Histogram::default();
        let (mut reducts, mut memo_hits) = (0, 0);
        for verdict in self.goals.iter().filter_map(GoalReport::verdict) {
            goal_seconds.observe(verdict.result.stats.elapsed);
            if let Some(check) = &verdict.recheck {
                check_seconds.observe(check.elapsed);
                reducts += check.reducts_checked;
                memo_hits += check.memo_hits;
            }
        }
        out.histogram(
            "cycleq_goal_seconds",
            "End-to-end search time per finished goal.",
            "",
            &goal_seconds,
        );
        out.histogram(
            "cycleq_check_seconds",
            "Time per proof re-check.",
            "",
            &check_seconds,
        );
        out.counter(
            "cycleq_check_reducts_total",
            "Reducts derived by the proof checker.",
            "",
            reducts,
        );
        out.counter(
            "cycleq_check_memo_hits_total",
            "Checker reduct derivations served from its memo table.",
            "",
            memo_hits,
        );
        for (key, value) in self.stats.entries() {
            if SearchStats::GAUGE_KEYS.contains(&key) {
                out.gauge(
                    &format!("cycleq_search_{key}"),
                    "End-of-search size, summed across the batch's goals (see SearchStats).",
                    "",
                    value,
                );
            } else {
                out.counter(
                    &format!("cycleq_search_{key}_total"),
                    "Search counter, summed across the batch's goals (see SearchStats).",
                    "",
                    value,
                );
            }
        }
        out.profile(profile);
        out.poison_recoveries();
        out.to_string()
    }
}
