//! Chrome-trace collection end to end. Collection is process-global, so
//! this test has a binary, and so a process, of its own.

use std::time::Duration;

use cycleq::{Engine, SearchConfig};

const SRC: &str = "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal addZeroRight: add x Z === x
goal addSuccRight: add x (S y) === S (add x y)
goal addComm: add x y === add y x
";

#[test]
fn collected_trace_brackets_every_goal_per_thread() {
    let session = Engine::builder()
        .config(SearchConfig {
            timeout: Some(Duration::from_secs(10)),
            ..SearchConfig::default()
        })
        .jobs(2)
        .build()
        .load(SRC)
        .expect("source loads");
    cycleq::trace::start_collect();
    let report = session.prove_all();
    let trace = cycleq::trace::finish_collect();
    assert!(report.all_proved());
    assert_eq!(
        trace.count("prove_goal"),
        report.goals.len(),
        "one complete prove_goal span per goal"
    );
    assert!(trace.count("round") >= trace.count("prove_goal"));
    let json = trace.to_chrome_json();
    assert!(json.contains("\"ph\":\"X\""), "complete events missing");
    assert!(
        json.contains("\"name\":\"thread_name\""),
        "per-thread metadata missing"
    );
    assert!(json.contains("worker-0"), "worker thread track missing");
}
