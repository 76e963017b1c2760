//! The benchmark's counts repeat exactly, so later changes may cite them.
//!
//! Runs a reduced pass of each workload twice (and `batch` at one and at
//! two workers) and compares the counts the program reports. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{Inputs, Kind, Pass, Runner, Workload};

/// The counts that must repeat exactly: `(metric name, value)`.
fn counts(pass: &Pass) -> Vec<(&'static str, f64)> {
    assert!(pass.failures.is_empty(), "failures: {:?}", pass.failures);
    let mut counts = vec![("proved", pass.proved as f64)];
    counts.extend(
        pass.layers
            .metrics()
            .into_iter()
            .filter(|(name, _, _)| {
                matches!(
                    *name,
                    "search.nodes"
                        | "sizechange.compositions"
                        | "sizechange.memo_hits"
                        | "analysis.diagnostics"
                        | "proof.recheck_nodes"
                )
            })
            .map(|(name, _, value)| (name, value)),
    );
    counts
}

fn reduced(kind: Kind, n: usize) -> Workload {
    Workload::generate(kind, 1)
        .and_then(|w| w.truncated(n))
        .expect("the workload generates")
}

fn pass(workload: &Workload) -> Pass {
    Runner::new(workload.clone()).pass()
}

#[test]
fn shallow_counts_repeat() {
    let w = reduced(Kind::Shallow, 12);
    let first = counts(&pass(&w));
    assert!(first[0].1 > 0.0, "a reduced shallow pass proves something");
    assert_eq!(first, counts(&pass(&w)));
}

#[test]
fn deep_counts_repeat() {
    let w = reduced(Kind::Deep, 6);
    assert_eq!(counts(&pass(&w)), counts(&pass(&w)));
}

#[test]
fn batch_counts_repeat_at_one_and_two_workers() {
    let mut w = reduced(Kind::Batch, 16);
    assert_eq!(w.jobs, 2);
    let first = counts(&pass(&w));
    assert_eq!(first, counts(&pass(&w)));
    w.jobs = 1;
    assert_eq!(first, counts(&pass(&w)));
}

#[test]
fn a_seed_fixes_the_inputs() {
    let sources = |kind, seed| {
        let w = Workload::generate(kind, seed).expect("the workload generates");
        w.sources()
            .into_iter()
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    for kind in [Kind::Shallow, Kind::Deep, Kind::Batch] {
        assert_eq!(sources(kind, 7), sources(kind, 7));
        assert_ne!(sources(kind, 7), sources(kind, 8));
    }
}

#[test]
fn deep_samples_one_goal_per_stratum() {
    for seed in 0..20 {
        let w = Workload::generate(Kind::Deep, seed).expect("the workload generates");
        let Inputs::Requests(requests) = &w.inputs else {
            panic!("deep sends requests");
        };
        let ids: Vec<&str> = requests.iter().map(|r| r.goal.problem).collect();
        assert_eq!(ids.len(), 18);
        for always in ["IP56", "IP68", "IP02", "IP52", "IP03", "IP37", "IP20"] {
            assert!(ids.contains(&always), "{always} is always sampled");
        }
        assert!(ids.contains(&"IP53") != ids.contains(&"IP75"));
        for stratum in [
            &["IP78", "IP81", "IP38", "IP30"][..],
            &["IP15", "IP39", "IP29"],
        ] {
            let picked = stratum.iter().filter(|id| ids.contains(id));
            assert_eq!(picked.count(), 1);
        }
    }
}
