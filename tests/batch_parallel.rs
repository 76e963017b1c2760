//! Parallel-vs-sequential equivalence: `prove_all` with `jobs=1` and
//! `jobs=4` must produce identical verdicts, deterministic ordering, and
//! checkable proofs — the acceptance bar for the batch subsystem. Goals are
//! independent and each goal's search owns its term store and memo table,
//! so parallelism may only change wall-clock, never outcomes. (The
//! timeout below is generous: a wall-clock budget is the one input that
//! the machine's load can move.)

use std::time::Duration;

use cycleq::{Engine, GlobalCheck, SearchConfig, Session};
use cycleq_benchsuite::{run_suite, RunConfig, FIGURES, MUTUAL};

/// A multi-goal program whose goals overlap heavily (shared lemmas and
/// repeated subterms).
const SUITE_SRC: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
mul :: Nat -> Nat -> Nat
mul Z y = Z
mul (S x) y = add y (mul x y)
goal zeroRight: add x Z === x
goal succRight: add x (S y) === S (add x y)
goal comm: add x y === add y x
goal assoc: add (add x y) z === add x (add y z)
goal mulZeroRight: mul x Z === Z
goal wrong: add x Z === Z
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
        .unwrap()
}

#[test]
fn prove_all_verdicts_are_identical_across_job_counts() {
    let sequential = session(1).prove_all();
    let parallel = session(4).prove_all();
    assert_eq!(sequential.goals.len(), parallel.goals.len());
    for (s, p) in sequential.goals.iter().zip(&parallel.goals) {
        assert_eq!(s.goal, p.goal, "declaration order is deterministic");
        assert_eq!(
            s.is_proved(),
            p.is_proved(),
            "{}: proved status must not depend on jobs",
            s.goal
        );
        assert_eq!(
            s.is_refuted(),
            p.is_refuted(),
            "{}: refuted status must not depend on jobs",
            s.goal
        );
    }
    assert_eq!(sequential.proved(), 5);
    assert!(sequential.goals.last().unwrap().is_refuted());
}

#[test]
fn parallel_proofs_are_independently_checkable() {
    // Re-check every parallel-produced proof with the independent checker
    // against the session's program (recheck is also on inside prove, so
    // this is belt and braces at the integration level).
    let s = session(4);
    let report = s.prove_all();
    let mut checked = 0;
    for g in &report.goals {
        let Some(v) = g.verdict() else {
            panic!("{}: batch error {:?}", g.goal, g.outcome.as_ref().err());
        };
        if v.is_proved() {
            cycleq::check(&v.result.proof, s.program(), GlobalCheck::VariableTraces)
                .unwrap_or_else(|e| panic!("{}: proof fails re-checking: {e}", g.goal));
            checked += 1;
        }
    }
    assert_eq!(checked, 5);
}

#[test]
fn streaming_events_cover_every_goal_and_match_the_blocking_report() {
    // Acceptance bar for the event-driven batch form: an EventSink gets
    // GoalStarted/GoalFinished for every goal (in completion order, from
    // worker threads), while the returned BatchReport stays
    // declaration-ordered and verdict-identical to the blocking path.
    use cycleq::{EventSink, GoalStatus, ProveEvent};
    use std::sync::{Arc, Mutex};

    let blocking = session(1).prove_all();

    #[derive(Default)]
    struct Collect(Mutex<Vec<ProveEvent>>);
    impl EventSink for Collect {
        fn event(&self, event: &ProveEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    for jobs in [1, 4] {
        let sink = Arc::new(Collect::default());
        let events = sink.clone();
        let streamed = Engine::builder()
            .config(SearchConfig {
                timeout: Some(Duration::from_secs(10)),
                ..SearchConfig::default()
            })
            .jobs(jobs)
            .on_event(move |ev: &ProveEvent| events.event(ev))
            .build()
            .load(SUITE_SRC)
            .unwrap()
            .prove_all();

        // Verdict-identical, declaration-ordered report.
        assert_eq!(blocking.goals.len(), streamed.goals.len());
        for (b, s) in blocking.goals.iter().zip(&streamed.goals) {
            assert_eq!(b.goal, s.goal);
            assert_eq!(b.is_proved(), s.is_proved(), "jobs={jobs}: {}", b.goal);
            assert_eq!(b.is_refuted(), s.is_refuted(), "jobs={jobs}: {}", b.goal);
        }

        // Started and Finished exactly once per goal, statuses agreeing
        // with the report; BatchFinished closes the stream.
        let log = sink.0.lock().unwrap();
        let n = streamed.goals.len();
        for idx in 0..n {
            let starts = log
                .iter()
                .filter(|e| matches!(e, ProveEvent::GoalStarted { index, .. } if *index == idx))
                .count();
            assert_eq!(starts, 1, "jobs={jobs}: goal {idx} started {starts}×");
            let finishes: Vec<&GoalStatus> = log
                .iter()
                .filter_map(|e| match e {
                    ProveEvent::GoalFinished { index, status, .. } if *index == idx => Some(status),
                    _ => None,
                })
                .collect();
            assert_eq!(finishes.len(), 1, "jobs={jobs}: goal {idx}");
            let expect = if streamed.goals[idx].is_proved() {
                GoalStatus::Proved
            } else {
                GoalStatus::Refuted
            };
            assert_eq!(*finishes[0], expect, "jobs={jobs}: goal {idx}");
        }
        assert!(
            matches!(log.last(), Some(ProveEvent::BatchFinished { total, .. }) if *total == n),
            "jobs={jobs}: stream not closed by BatchFinished: {:?}",
            log.last()
        );
    }
}

#[test]
fn quick_benchsuite_statuses_match_across_job_counts() {
    let ps: Vec<_> = FIGURES.iter().chain(MUTUAL.iter()).collect();
    let seq = run_suite(&ps, &RunConfig::default());
    let par = run_suite(
        &ps,
        &RunConfig {
            jobs: 4,
            ..RunConfig::default()
        },
    );
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(s.problem.id, p.problem.id, "ordering is deterministic");
        assert_eq!(s.status, p.status, "{}: status must agree", ps[i].id);
    }
}
