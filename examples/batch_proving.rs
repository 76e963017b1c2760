//! Batch proving: prove every goal of a program in parallel, with the
//! same verdicts and counters as a sequential run.
//!
//! Run with `cargo run --example batch_proving`.

use cycleq::Engine;

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
    // `jobs(0)` means one worker per hardware thread; any fixed count
    // works too. Each goal's search owns its term store and memo table, so
    // verdicts and counters are identical to a sequential run.
    let session = Engine::builder().jobs(0).build().load(source)?;
    let report = session.prove_all();

    // Reports come back in declaration order, whatever order workers
    // finished in.
    for goal in &report.goals {
        let status = if goal.is_proved() {
            "proved"
        } else if goal.is_refuted() {
            "REFUTED"
        } else {
            "gave up"
        };
        println!("{:<14} {:<8} {:>10.2?}", goal.goal, status, goal.time);
    }
    println!(
        "\n{}/{} proved on {} workers in {:?}",
        report.proved(),
        report.goals.len(),
        report.jobs,
        report.stats.elapsed,
    );
    assert!(report.all_proved());
    Ok(())
}
