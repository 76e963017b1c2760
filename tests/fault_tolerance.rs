//! Panic isolation end to end: a goal that panics inside a parallel batch
//! becomes a structured `Panicked` verdict without perturbing any other
//! goal's verdict, at any worker count.
//!
//! The trigger is an event sink that panics on one goal's event, so no
//! library code exists to make a goal panic. `GoalStarted` and
//! `RoundDeepened` are raised inside `Session::prove_goal`'s `catch_unwind`
//! (the inner boundary), so the goal still gets its `GoalFinished` event
//! and its time. `GoalFinished` is raised after `prove_goal` returns, so a
//! panic on it escapes to the batch scheduler (the outer boundary), and the
//! goal's report carries no time.
//!
//! Each test reads its counts from its own report, so the tests run in
//! parallel without a lock.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cycleq::{BatchReport, Engine, EngineBuilder, GoalStatus, Outcome, ProveEvent, SearchConfig};

/// Eight goals over one program; `g3` (commutativity) is the one that
/// panics.
const SRC: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal g0: add Z y === y
goal g1: add x Z === x
goal g2: add x (S y) === S (add x y)
goal g3: add x y === add y x
goal g4: add (S x) y === S (add x y)
goal g5: add x Z === add Z x
goal g6: add (add x y) Z === add x y
goal g7: add Z Z === Z
";

const SEARCH_MESSAGE: &str = "sink panicked on g3's RoundDeepened";
const START_MESSAGE: &str = "sink panicked on g3's GoalStarted";
const FINISH_MESSAGE: &str = "sink panicked on g3's GoalFinished";

/// Panics from inside `g3`'s search, on its first deepening round.
fn panic_in_search(event: &ProveEvent) {
    if let ProveEvent::RoundDeepened { goal, .. } = event {
        if goal == "g3" {
            panic!("{SEARCH_MESSAGE}");
        }
    }
}

/// Panics as `g3` starts, before its search.
fn panic_on_start(event: &ProveEvent) {
    if let ProveEvent::GoalStarted { goal, .. } = event {
        if goal == "g3" {
            panic!("{START_MESSAGE}");
        }
    }
}

/// Panics in `g3`'s batch task after its verdict, outside `prove_goal`.
fn panic_on_finish(event: &ProveEvent) {
    if let ProveEvent::GoalFinished { goal, .. } = event {
        if goal == "g3" {
            panic!("{FINISH_MESSAGE}");
        }
    }
}

/// Depth 1 plus steps of 1 make `g3` run five deepening rounds, so its
/// `RoundDeepened` events fire.
fn shallow_steps() -> SearchConfig {
    SearchConfig {
        initial_depth: 1,
        depth_step: 1,
        ..SearchConfig::default()
    }
}

/// An engine searching under [`shallow_steps`] on `jobs` workers.
fn engine(jobs: usize) -> EngineBuilder {
    Engine::builder().config(shallow_steps()).jobs(jobs)
}

/// Proves every goal of [`SRC`].
fn prove_all(engine: EngineBuilder) -> BatchReport {
    engine
        .build()
        .load(SRC)
        .expect("fixture elaborates")
        .prove_all()
}

/// What one batch with a panicking sink produced.
struct PanicRun {
    report: BatchReport,
    /// The rendered `cycleq_goals_total`, summed over its statuses, and
    /// its `panicked` status.
    goals_recorded: (u64, u64),
    /// `GoalFinished { status: Panicked }` events the sink saw for `g3`.
    g3_panicked_finishes: usize,
    /// `prove_goal` spans in the call's profile.
    prove_goal_spans: u64,
}

/// Proves every goal with `sink` attached, counting the goals the rendered
/// report records, `g3`'s `Panicked` finish events and the profile's
/// `prove_goal` spans.
fn prove_all_counting_panics(jobs: usize, sink: fn(&ProveEvent)) -> PanicRun {
    let finishes = Arc::new(AtomicUsize::new(0));
    let counting = {
        let finishes = Arc::clone(&finishes);
        move |event: &ProveEvent| {
            if let ProveEvent::GoalFinished {
                goal,
                status: GoalStatus::Panicked,
                ..
            } = event
            {
                if goal == "g3" {
                    finishes.fetch_add(1, Ordering::Relaxed);
                }
            }
            sink(event);
        }
    };
    let session = engine(jobs)
        .on_event(counting)
        .build()
        .load(SRC)
        .expect("fixture elaborates");
    let report = session.prove_all();
    let profile = session.profile().expect("profile after proving");
    let prom = report.to_prometheus(&profile);
    let goals = |status: GoalStatus| {
        let sample = format!("cycleq_goals_total{{status=\"{status}\"}} ");
        prom.lines()
            .find_map(|l| l.strip_prefix(&sample)?.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {sample}sample in:\n{prom}"))
    };
    let statuses = [
        GoalStatus::Proved,
        GoalStatus::Refuted,
        GoalStatus::GaveUp,
        GoalStatus::Cancelled,
        GoalStatus::Panicked,
        GoalStatus::Error,
    ];
    PanicRun {
        report,
        goals_recorded: (
            statuses.into_iter().map(goals).sum(),
            goals(GoalStatus::Panicked),
        ),
        g3_panicked_finishes: finishes.load(Ordering::Relaxed),
        prove_goal_spans: profile.phase("prove_goal").map_or(0, |p| p.count),
    }
}

/// `g3` panicked with `message`, and every other goal's outcome equals the
/// baseline's.
fn assert_isolated(baseline: &BatchReport, report: &BatchReport, message: &str, jobs: usize) {
    assert_eq!(report.goals.len(), 8, "batch completed every goal");
    assert_eq!(report.panicked(), 1, "exactly the target goal panicked");
    assert!(report.any_gave_up() && !report.any_refuted());
    for (b, g) in baseline.goals.iter().zip(&report.goals) {
        assert_eq!(b.goal, g.goal, "order preserved at jobs={jobs}");
        let verdict = g.verdict().expect("panic was isolated, not an error");
        if g.goal == "g3" {
            assert!(g.is_panicked());
            match &verdict.result.outcome {
                Outcome::Panicked { message: m } => assert_eq!(m, message),
                other => panic!("target goal reported {other:?}"),
            }
        } else {
            // Byte-identical outcome (including the proof root) to the
            // panic-free baseline, whatever the worker count.
            assert_eq!(
                format!("{:?}", b.verdict().unwrap().result.outcome),
                format!("{:?}", verdict.result.outcome),
                "goal {} drifted under a sibling's panic at jobs={jobs}",
                g.goal
            );
        }
    }
}

#[test]
fn injected_panic_isolates_one_goal_and_preserves_the_rest() {
    let baseline = prove_all(engine(1));
    assert!(baseline.all_proved(), "fixture must prove clean");
    cycleq::trace::set_enabled(true);
    // A panic caught inside its task leaves the goal to stream its own
    // `Panicked` finish and keep its measured time; a panic that escapes
    // its task (the outer boundary) leaves a report with no time. Every
    // goal's spans reach the call's profile, except the search `g3` never
    // started when its sink panicked on `GoalStarted`. The outer boundary
    // runs first, so it is checked even when the inner one fails.
    let cases = [
        (
            "outer",
            panic_on_finish as fn(&ProveEvent),
            FINISH_MESSAGE,
            false,
            8,
        ),
        ("inner (search)", panic_in_search, SEARCH_MESSAGE, true, 8),
        ("inner (start)", panic_on_start, START_MESSAGE, true, 7),
    ];
    for (boundary, sink, message, inner, searches) in cases {
        for jobs in [1, 2, 4] {
            let run = prove_all_counting_panics(jobs, sink);
            assert_isolated(&baseline, &run.report, message, jobs);
            // Each goal is recorded once, under the status its report
            // carries, even when its sink panics after its verdict.
            assert_eq!(
                run.goals_recorded,
                (run.report.goals.len() as u64, 1),
                "{boundary} boundary at jobs={jobs}: (goals recorded, panicked goals recorded)"
            );
            assert_eq!(
                run.prove_goal_spans, searches,
                "{boundary} boundary at jobs={jobs}: prove_goal spans in the profile"
            );
            let g3 = run.report.goals.iter().find(|g| g.goal == "g3").unwrap();
            if inner {
                assert_eq!(
                    (run.g3_panicked_finishes, g3.time > Duration::ZERO),
                    (1, true),
                    "{boundary} boundary at jobs={jobs}: (g3 Panicked finishes, g3 timed)"
                );
            } else {
                assert_eq!(
                    g3.time,
                    Duration::ZERO,
                    "{boundary} boundary at jobs={jobs}: g3's task never reported"
                );
            }
        }
    }
}

/// A panic that would not recur on a second run still leaves its goal
/// `Panicked`: the engine runs each goal's search once and does not re-run
/// it after a panic.
#[test]
fn without_retry_a_panicked_goal_keeps_its_panicked_verdict() {
    let fired = Arc::new(AtomicBool::new(false));
    let g3_rounds = Arc::new(AtomicUsize::new(0));
    let sink = {
        let (fired, g3_rounds) = (Arc::clone(&fired), Arc::clone(&g3_rounds));
        move |event: &ProveEvent| {
            if let ProveEvent::RoundDeepened { goal, .. } = event {
                if goal == "g3" {
                    g3_rounds.fetch_add(1, Ordering::Relaxed);
                    if !fired.swap(true, Ordering::Relaxed) {
                        panic!("{SEARCH_MESSAGE}");
                    }
                }
            }
        }
    };
    let report = prove_all(engine(2).on_event(sink));
    assert!(fired.load(Ordering::Relaxed), "the one-shot panic fired");
    assert_eq!(report.panicked(), 1);
    let g3 = report.goals.iter().find(|g| g.goal == "g3").unwrap();
    assert!(g3.is_panicked());
    assert_eq!(
        g3_rounds.load(Ordering::Relaxed),
        1,
        "g3's search stopped at the panicking round and was not run again"
    );
}

/// Grep-pin: every shared lock in the workspace goes through the
/// poison-recovering helper, so no `.expect("... poisoned")` call site may
/// remain in non-test source (a panic while holding such a lock would
/// otherwise cascade into an abort on every later access).
#[test]
fn no_expect_poisoned_call_sites_remain_outside_tests() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut offenders = Vec::new();
    scan(&crates, &mut offenders);
    assert!(
        offenders.is_empty(),
        "lock call sites must use cycleq_trace::lock_recover, found:\n{}",
        offenders.join("\n")
    );
}

fn scan(dir: &Path, offenders: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("workspace sources readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            // Integration-test sources may poison locks on purpose.
            if path.file_name().is_some_and(|n| n == "tests") {
                continue;
            }
            scan(&path, offenders);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source readable");
            for (i, line) in text.lines().enumerate() {
                let code = line.trim_start();
                if code.starts_with("//") {
                    continue;
                }
                if code.contains(".expect(") && code.contains("poisoned") {
                    offenders.push(format!("{}:{}: {}", path.display(), i + 1, code));
                }
            }
        }
    }
}
