//! Quickstart: load a small program, prove a goal, print the cyclic proof.
//!
//! Run with `cargo run --example quickstart`.

use cycleq::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = "
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)

add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)

len :: List a -> Nat
len Nil = Z
len (Cons x xs) = S (len xs)

app :: List a -> List a -> List a
app Nil ys = ys
app (Cons x xs) ys = Cons x (app xs ys)

goal lenApp: len (app xs ys) === add (len xs) (len ys)
goal addZero: add x Z === x
goal bogus: len (app xs ys) === len xs
";
    let session = Session::from_source(source)?;

    // The program satisfies the paper's standing assumptions (Remark 2.1):
    // complete pattern matching, orthogonal (hence confluent) and
    // size-change terminating rules — the static analysis finds nothing.
    assert!(session.analyze().is_empty());

    for goal in ["lenApp", "addZero", "bogus"] {
        let verdict = session.prove(goal)?;
        println!("== {goal}: {:?} ==", verdict.result.outcome);
        if verdict.is_proved() {
            println!("{}", verdict.render_proof()?);
            println!(
                "search created {} nodes, {} case splits, {} subst attempts, {} unsound cycles pruned, in {:?}\n",
                verdict.result.stats.nodes_created,
                verdict.result.stats.case_splits,
                verdict.result.stats.subst_attempts,
                verdict.result.stats.unsound_cycles_pruned,
                verdict.result.stats.elapsed,
            );
        } else if verdict.is_refuted() {
            println!(
                "refuted: case analysis and reduction reached a constructor clash,\n\
                 so some ground instance is false (take ys non-empty)\n"
            );
        } else {
            println!(
                "no proof found within bounds: {:?}\n",
                verdict.result.outcome
            );
        }
    }
    Ok(())
}
