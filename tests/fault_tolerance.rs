//! Panic isolation end to end: a goal that panics inside a parallel batch
//! becomes a structured `Panicked` verdict without perturbing any other
//! goal's verdict, at any worker count.
//!
//! The trigger is an event sink that panics on one goal's event, so no
//! library code exists to make a goal panic. A panic on `RoundDeepened` is
//! raised from inside the search, so `Session::prove_goal`'s `catch_unwind`
//! (the inner boundary) catches it. A panic on `GoalStarted` is raised
//! before the search starts, so the batch scheduler's catching runner (the
//! outer boundary) catches it.
//!
//! The metrics registry is process-global, so every test that makes a goal
//! panic holds `PANIC_LOCK`; otherwise one test's panic lands inside
//! another's counter delta.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cycleq::{BatchReport, Engine, Outcome, ProveEvent, SearchConfig};

static PANIC_LOCK: Mutex<()> = Mutex::new(());

fn hold_panics() -> MutexGuard<'static, ()> {
    PANIC_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

const INNER_MESSAGE: &str = "sink panicked on g3's RoundDeepened";
const OUTER_MESSAGE: &str = "sink panicked on g3's GoalStarted";

/// Panics from inside `g3`'s search, on its first deepening round.
fn panic_in_search(event: &ProveEvent) {
    if let ProveEvent::RoundDeepened { goal, .. } = event {
        if goal == "g3" {
            panic!("{INNER_MESSAGE}");
        }
    }
}

/// Panics in `g3`'s batch task, before its search starts.
fn panic_before_search(event: &ProveEvent) {
    if let ProveEvent::GoalStarted { goal, .. } = event {
        if goal == "g3" {
            panic!("{OUTER_MESSAGE}");
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

/// Proves every goal under [`shallow_steps`].
fn prove_all(jobs: usize, sink: Option<fn(&ProveEvent)>) -> BatchReport {
    let mut builder = Engine::builder().config(shallow_steps()).jobs(jobs);
    if let Some(sink) = sink {
        builder = builder.on_event(sink);
    }
    builder
        .build()
        .load(SRC)
        .expect("fixture elaborates")
        .prove_all()
}

/// Proves every goal with `sink` attached, returning the report and how
/// far `cycleq_goal_panics_total` and `cycleq_batch_task_panics_total`
/// rose meanwhile.
fn prove_all_counting_panics(jobs: usize, sink: fn(&ProveEvent)) -> (BatchReport, u64, u64) {
    let before = cycleq::trace::metrics().snapshot();
    let report = prove_all(jobs, Some(sink));
    let delta = cycleq::trace::metrics().snapshot().delta(&before);
    let count = |family: &str| delta.value(family).unwrap_or(0);
    (
        report,
        count("cycleq_goal_panics_total"),
        count("cycleq_batch_task_panics_total"),
    )
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
    let _panics = hold_panics();
    let baseline = prove_all(1, None);
    assert!(baseline.all_proved(), "fixture must prove clean");
    // Each boundary records the goal's panic once; only a panic that
    // escapes its batch task also counts as a task panic. The outer
    // boundary runs first, so it is checked even when the inner one fails.
    let cases = [
        (
            "outer",
            panic_before_search as fn(&ProveEvent),
            OUTER_MESSAGE,
            (1, 1),
        ),
        ("inner", panic_in_search, INNER_MESSAGE, (1, 0)),
    ];
    for (boundary, sink, message, counts) in cases {
        for jobs in [1, 2, 4] {
            let (report, goal_panics, task_panics) = prove_all_counting_panics(jobs, sink);
            assert_isolated(&baseline, &report, message, jobs);
            assert_eq!(
                (goal_panics, task_panics),
                counts,
                "{boundary} boundary at jobs={jobs}: (goal panics, task panics)"
            );
        }
    }
}

/// A panic that would not recur on a second run still leaves its goal
/// `Panicked`: the engine runs each goal's search once and does not re-run
/// it after a panic.
#[test]
fn without_retry_a_panicked_goal_keeps_its_panicked_verdict() {
    let _panics = hold_panics();
    let fired = Arc::new(AtomicBool::new(false));
    let g3_rounds = Arc::new(AtomicUsize::new(0));
    let sink = {
        let (fired, g3_rounds) = (Arc::clone(&fired), Arc::clone(&g3_rounds));
        move |event: &ProveEvent| {
            if let ProveEvent::RoundDeepened { goal, .. } = event {
                if goal == "g3" {
                    g3_rounds.fetch_add(1, Ordering::Relaxed);
                    if !fired.swap(true, Ordering::Relaxed) {
                        panic!("{INNER_MESSAGE}");
                    }
                }
            }
        }
    };
    let report = Engine::builder()
        .config(shallow_steps())
        .jobs(2)
        .on_event(sink)
        .build()
        .load(SRC)
        .expect("fixture elaborates")
        .prove_all();
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
