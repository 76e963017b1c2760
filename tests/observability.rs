//! Observability acceptance tests: streamed events under parallel batches,
//! deterministic counters across job counts, and the `Session::profile` /
//! `BatchReport::to_prometheus` surfaces.
//!
//! A profile holds the spans of one prove call and a report the counts of
//! one batch, so these tests run in parallel without a lock. Chrome-trace
//! collection is process-global; `tests/chrome_trace.rs` tests it in a
//! process of its own. No test here turns tracing off.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use cycleq::{Engine, EventSink, ProveEvent, SearchConfig, Session};
use cycleq_benchsuite::{Expectation, ISAPLANNER, PRELUDE};

const SUITE_SRC: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal addZeroRight: add x Z === x
goal addSuccRight: add x (S y) === S (add x y)
goal addComm: add x y === add y x
";

fn session(jobs: usize) -> Session {
    Engine::builder()
        .config(SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            ..SearchConfig::default()
        })
        .jobs(jobs)
        .build()
        .load(SUITE_SRC)
        .expect("suite source loads")
}

#[derive(Default)]
struct Collect(Mutex<Vec<ProveEvent>>);

impl EventSink for Collect {
    fn event(&self, event: &ProveEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

fn prove_all_collecting(jobs: usize) -> (cycleq::BatchReport, Vec<ProveEvent>) {
    let sink = Arc::new(Collect::default());
    let events = sink.clone();
    let report = Engine::builder()
        .config(SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            // Force the deepening loop to run several rounds so the batch
            // streams RoundDeepened events (the default initial depth
            // proves these goals in their first round).
            initial_depth: 1,
            depth_step: 1,
            ..SearchConfig::default()
        })
        .jobs(jobs)
        .on_event(move |ev: &ProveEvent| events.event(ev))
        .build()
        .load(SUITE_SRC)
        .expect("suite source loads")
        .prove_all();
    let log = sink.0.lock().unwrap().clone();
    (report, log)
}

#[test]
fn concurrent_events_bracket_every_goal_and_carry_round_times() {
    for jobs in [1, 4] {
        let (report, log) = prove_all_collecting(jobs);
        assert!(report.all_proved(), "jobs={jobs}");
        for idx in 0..report.goals.len() {
            let started = log
                .iter()
                .position(|e| matches!(e, ProveEvent::GoalStarted { index, .. } if *index == idx))
                .unwrap_or_else(|| panic!("jobs={jobs}: goal {idx} never started"));
            let finished = log
                .iter()
                .position(|e| matches!(e, ProveEvent::GoalFinished { index, .. } if *index == idx))
                .unwrap_or_else(|| panic!("jobs={jobs}: goal {idx} never finished"));
            assert!(
                started < finished,
                "jobs={jobs}: goal {idx} finished at {finished} before starting at {started}"
            );
            // Every round event for this goal lands inside the bracket and
            // reports non-decreasing elapsed time as the depth grows.
            let rounds: Vec<(usize, usize, Duration)> = log
                .iter()
                .enumerate()
                .filter_map(|(at, e)| match e {
                    ProveEvent::RoundDeepened {
                        index,
                        depth,
                        elapsed,
                        ..
                    } if *index == idx => Some((at, *depth, *elapsed)),
                    _ => None,
                })
                .collect();
            for w in rounds.windows(2) {
                assert!(w[0].1 < w[1].1, "jobs={jobs}: depths must increase");
                assert!(
                    w[0].2 <= w[1].2,
                    "jobs={jobs}: round elapsed must be monotonic"
                );
            }
            for (at, _, _) in &rounds {
                assert!(
                    started < *at && *at < finished,
                    "jobs={jobs}: round event outside its goal's bracket"
                );
            }
        }
        // addComm needs iterative deepening, so at least one round event
        // must have streamed with a measured duration.
        assert!(
            log.iter()
                .any(|e| matches!(e, ProveEvent::RoundDeepened { .. })),
            "jobs={jobs}: no RoundDeepened event streamed"
        );
    }
}

/// Proves every goal of `src` on one worker and on `jobs` workers, and
/// asserts that each goal's counters, and their batch totals, agree.
fn assert_counters_independent_of_jobs(src: &str, config: SearchConfig, jobs: usize) {
    let run = |jobs: usize| {
        Engine::builder()
            .config(config.clone())
            .jobs(jobs)
            .build()
            .load(src)
            .expect("source loads")
            .prove_all()
    };
    let sequential = run(1);
    let parallel = run(jobs);
    for (s, p) in sequential.goals.iter().zip(&parallel.goals) {
        assert_eq!(s.goal, p.goal);
        let (sv, pv) = (s.verdict().unwrap(), p.verdict().unwrap());
        assert_eq!(sv.result.outcome, pv.result.outcome, "goal {}", s.goal);
        assert_eq!(
            sv.result.stats.entries(),
            pv.result.stats.entries(),
            "goal {}: counters must not depend on the worker count",
            s.goal
        );
    }
    for ((key, s), (_, p)) in sequential
        .stats
        .entries()
        .into_iter()
        .zip(parallel.stats.entries())
    {
        assert_eq!(
            s, p,
            "batch total {key} must not depend on the worker count"
        );
    }
}

#[test]
fn counter_totals_are_deterministic_across_job_counts() {
    // Goals share no search state, so per-goal counters — and their batch
    // totals — must be identical whatever the worker count.
    assert_counters_independent_of_jobs(
        SUITE_SRC,
        SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            ..SearchConfig::default()
        },
        4,
    );
    // IsaPlanner goals over one prelude normalise many of the same terms,
    // node-budgeted so that no counter depends on the clock.
    assert_counters_independent_of_jobs(&isaplanner_module(24), node_budgeted(), 2);
}

/// The first `n` in-scope IsaPlanner goals without hints, over one prelude.
fn isaplanner_module(n: usize) -> String {
    let mut src = format!("{PRELUDE}\n");
    let goals = ISAPLANNER
        .iter()
        .filter(|p| p.expectation == Expectation::InScope && p.hints.is_empty())
        .take(n);
    for p in goals {
        let statement = p.goal.expect("in-scope problems state a goal");
        src.push_str(&format!("goal {}: {statement}\n", p.goal_name()));
    }
    src
}

/// A 2000-node budget and no timeout, so no verdict depends on the clock.
fn node_budgeted() -> SearchConfig {
    SearchConfig {
        max_nodes: 2000,
        timeout: None,
        ..SearchConfig::default()
    }
}

#[test]
fn session_profile_reports_the_span_taxonomy() {
    cycleq::trace::set_enabled(true);
    let session = session(1);
    let verdict = session.prove("addComm").expect("proves");
    assert!(verdict.is_proved());
    let profile = session.profile().expect("profile captured after proving");
    for phase in [
        "prove_goal",
        "round",
        "expand",
        "normalize",
        "subst",
        "case",
        "check",
    ] {
        let stat = profile
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing from profile"));
        assert!(stat.count >= 1, "{phase}: no spans recorded");
        assert!(stat.max_seconds > 0.0, "{phase}: no span took any time");
        assert!(stat.max_seconds <= stat.total_seconds, "{phase}");
    }
    // One top-level search on this session: exactly as many prove_goal
    // spans as goals proved in the call (hints included, here none).
    assert_eq!(profile.phase("prove_goal").unwrap().count, 1);
}

#[test]
fn a_profile_reports_its_own_calls_maximum() {
    cycleq::trace::set_enabled(true);
    // A heavier goal first, through another session: its spans are far
    // longer than the whole of the call below.
    let ip56 = ISAPLANNER.iter().find(|p| p.id == "IP56").expect("IP56");
    let heavy = Engine::builder()
        .config(SearchConfig {
            max_nodes: 4000,
            timeout: None,
            ..SearchConfig::default()
        })
        .build()
        .load(&ip56.source().expect("in scope"))
        .expect("IP56 loads");
    assert!(heavy.prove(&ip56.goal_name()).expect("proves").is_proved());
    let light = session(1);
    assert!(light.prove("addZeroRight").expect("proves").is_proved());
    let profile = light.profile().expect("profile captured after proving");
    assert_eq!(profile.phase("prove_goal").map(|p| p.count), Some(1));
    for stat in profile.phases() {
        assert!(
            stat.max_seconds <= stat.total_seconds,
            "{}: max {}s above this call's total {}s",
            stat.phase,
            stat.max_seconds,
            stat.total_seconds
        );
    }
}

#[test]
fn a_profile_excludes_another_sessions_concurrent_goals() {
    cycleq::trace::set_enabled(true);
    // The first session's goal starts, then waits until a goal of the
    // second session, proving 20 goals on another thread, has finished.
    let (light_started, busy_may_start) = mpsc::channel();
    let (busy_finished, light_may_go_on) = mpsc::channel();
    let light_may_go_on = Mutex::new(light_may_go_on);
    let light = Engine::builder()
        .on_event(move |event: &ProveEvent| {
            if let ProveEvent::GoalStarted { .. } = event {
                light_started.send(()).expect("the other session waits");
                let finished = light_may_go_on.lock().unwrap().recv();
                finished.expect("a goal of the other session finishes");
            }
        })
        .build()
        .load(SUITE_SRC)
        .expect("suite source loads");
    let busy = Engine::builder()
        .config(node_budgeted())
        .on_event(move |event: &ProveEvent| {
            if let ProveEvent::GoalFinished { .. } = event {
                let _ = busy_finished.send(());
            }
        })
        .build()
        .load(&isaplanner_module(20))
        .expect("source loads");
    std::thread::scope(|scope| {
        let other = scope.spawn(move || {
            busy_may_start.recv().expect("the first session starts");
            busy.prove_all()
        });
        assert!(light.prove("addZeroRight").expect("proves").is_proved());
        assert_eq!(other.join().expect("no panic").goals.len(), 20);
    });
    let profile = light.profile().expect("profile captured after proving");
    assert_eq!(
        profile.phase("prove_goal").map(|p| p.count),
        Some(1),
        "one goal proved, one prove_goal span"
    );
}

#[test]
fn rendered_metrics_count_finished_goals() {
    let session = session(1);
    let report = session.prove_all();
    assert!(report.all_proved());
    let prom = report.to_prometheus(&session.profile().expect("profile after proving"));
    let value = |sample: &str| {
        prom.lines().find_map(|l| {
            l.strip_prefix(sample)?
                .strip_prefix(' ')?
                .parse::<u64>()
                .ok()
        })
    };
    assert_eq!(
        value("cycleq_goals_total{status=\"proved\"}"),
        Some(report.goals.len() as u64),
        "every proved goal is counted exactly once"
    );
    assert_eq!(
        value("cycleq_search_nodes_created_total"),
        Some(report.stats.nodes_created as u64),
        "search counters come from the report"
    );
    assert_eq!(
        value("cycleq_goal_seconds_count"),
        Some(report.goals.len() as u64)
    );
    assert!(prom.contains("# TYPE cycleq_goals_total counter"));
    assert!(prom.contains("cycleq_goal_seconds_bucket{le=\"+Inf\"}"));
}
