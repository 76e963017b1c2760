//! The Engine API end to end: a builder-first engine with a streaming
//! event sink, a batch budget apportioned across goals, and a cancellation
//! token (unused here, but shown wired in).
//!
//! Run with `cargo run --example engine_streaming`.

use std::time::Duration;

use cycleq::{Budget, CancelToken, Engine, ProveEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
data Nat = Z | S Nat

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
";

    // The engine is configured once and can load many programs; sessions
    // are cheap per-program handles sharing its settings. The sink is
    // called from the batch's worker threads, in completion order; each
    // idle worker takes the largest goal not yet started.
    let engine = Engine::builder()
        .jobs(2)
        .on_event(|ev: &ProveEvent| match ev {
            ProveEvent::GoalStarted { index, goal } => {
                eprintln!("  → [{index}] {goal} started");
            }
            ProveEvent::RoundDeepened { goal, depth, .. } => {
                eprintln!("    … {goal} deepened to depth {depth}");
            }
            ProveEvent::GoalFinished {
                index,
                goal,
                status,
                time,
            } => {
                eprintln!(
                    "  ← [{index}] {goal}: {status} ({:.1}ms)",
                    time.as_secs_f64() * 1000.0
                );
            }
            ProveEvent::BatchFinished {
                proved,
                total,
                elapsed,
            } => {
                eprintln!("  batch done: {proved}/{total} in {elapsed:?}");
            }
        })
        .build();
    let session = engine.load(source)?;

    // A wall-clock budget for the whole batch: the engine apportions it
    // into per-goal slices, so no single goal can starve the others. The
    // token could be cancelled from another thread to abort mid-flight.
    let budget = Budget::unlimited().with_timeout(Duration::from_secs(30));
    let cancel = CancelToken::new();
    println!("proving all goals (streaming events to stderr)…");
    let report = session.prove_all_with(&budget, &cancel);

    // The report is declaration-ordered, whatever order the events
    // streamed in.
    for goal in &report.goals {
        let status = if goal.is_proved() {
            "proved"
        } else {
            "NOT proved"
        };
        println!(
            "{:>14}: {status} in {:.1}ms",
            goal.goal,
            goal.time.as_secs_f64() * 1000.0
        );
    }
    println!(
        "{} of {} goals proved | jobs={}",
        report.proved(),
        report.goals.len(),
        report.jobs,
    );
    assert!(report.all_proved());
    Ok(())
}
