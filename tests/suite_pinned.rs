//! Pins the behaviour of a fast subset of the IsaPlanner suite so that
//! regressions in the prover show up as test failures rather than silent
//! drops in the benchmark numbers.

use std::time::Duration;

use cycleq::SearchConfig;
use cycleq_benchsuite::{all_problems, run_problem, Expectation, RunConfig, RunStatus, ISAPLANNER};

fn config() -> RunConfig {
    // Generous timeout so the pinned set is stable under debug builds too.
    RunConfig {
        search: SearchConfig {
            timeout: Some(Duration::from_secs(15)),
            ..SearchConfig::default()
        },
        with_hints: false,
        recheck: true,
        ..RunConfig::default()
    }
}

/// Problems that must prove (a fast, stable subset of the 45 the suite
/// currently solves).
const MUST_PROVE: &[&str] = &[
    "IP01", "IP06", "IP07", "IP08", "IP09", "IP10", "IP11", "IP12", "IP13", "IP17", "IP18", "IP19",
    "IP21", "IP22", "IP23", "IP24", "IP25", "IP31", "IP32", "IP33", "IP34", "IP35", "IP36", "IP40",
    "IP41", "IP42", "IP44", "IP45", "IP46", "IP49", "IP50", "IP51", "IP55", "IP57", "IP58", "IP64",
    "IP67", "IP79", "IP80", "IP82", "IP83", "IP84",
];

/// In-scope problems that must NOT prove without hints (conditional
/// reasoning or lemma discovery required, §6.2).
const MUST_NOT_PROVE: &[&str] = &[
    "IP04", "IP14", "IP43", "IP47", "IP54", "IP65", "IP66", "IP69", "IP73",
];

#[test]
fn pinned_proved_set() {
    let cfg = config();
    for id in MUST_PROVE {
        let p = ISAPLANNER.iter().find(|p| &p.id == id).unwrap();
        let out = run_problem(p, &cfg);
        assert_eq!(out.status, RunStatus::Proved, "{id}: {:?}", out.status);
    }
}

#[test]
fn pinned_unproved_set() {
    // These goals are unprovable without lemmas/conditional reasoning at
    // any timeout, so a short budget suffices and keeps the test fast.
    let cfg = RunConfig {
        search: SearchConfig {
            timeout: Some(Duration::from_secs(1)),
            ..SearchConfig::default()
        },
        with_hints: false,
        recheck: true,
        ..RunConfig::default()
    };
    for id in MUST_NOT_PROVE {
        let p = ISAPLANNER.iter().find(|p| &p.id == id).unwrap();
        let out = run_problem(p, &cfg);
        assert!(
            !out.status.is_proved(),
            "{id} unexpectedly proved — update EXPERIMENTS.md!"
        );
        assert_ne!(out.status, RunStatus::Refuted, "{id} must not be refuted");
    }
}

#[test]
fn conditional_problems_stay_out_of_scope() {
    let cfg = config();
    let conditionals: Vec<_> = ISAPLANNER
        .iter()
        .filter(|p| p.expectation == Expectation::Conditional)
        .collect();
    assert_eq!(conditionals.len(), 14);
    for p in conditionals {
        assert_eq!(
            run_problem(p, &cfg).status,
            RunStatus::OutOfScope,
            "{}",
            p.id
        );
    }
}

#[test]
fn no_suite_problem_is_refuted() {
    // A refutation would mean the property was mis-encoded.
    let cfg = RunConfig {
        search: SearchConfig {
            timeout: Some(Duration::from_millis(300)),
            ..SearchConfig::default()
        },
        ..config()
    };
    for p in ISAPLANNER {
        if p.goal.is_none() {
            continue;
        }
        let out = run_problem(p, &cfg);
        assert_ne!(out.status, RunStatus::Refuted, "{} was refuted!", p.id);
        if let RunStatus::Error(e) = &out.status {
            panic!("{}: {e}", p.id);
        }
    }
}

/// `(problem, node budget, status, nodes_created, subst_attempts,
/// unsound_cycles_pruned, case_splits, rounds)`.
type Counts = (
    &'static str,
    usize,
    RunStatus,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// Search counts under a node budget, with no timeout, so they do not
/// depend on the machine. The rows are every problem whose search ends
/// within 2000 nodes, IP56 at the 4000 it needs, and the give-ups IP20 and
/// IP52, which prune hundreds of unsound cycles. A change to the
/// size-change closure must leave every count as it is: the search prunes
/// exactly where it did.
const SEARCH_COUNTS: &[Counts] = {
    use RunStatus::{Exhausted, NodeBudget, Proved};
    &[
        ("IP01", 2000, Proved, 12, 2, 1, 2, 1),
        ("IP06", 2000, Proved, 10, 1, 0, 2, 1),
        ("IP07", 2000, Proved, 6, 1, 0, 1, 1),
        ("IP08", 2000, Proved, 6, 1, 0, 1, 1),
        ("IP09", 2000, Proved, 797, 415, 110, 123, 1),
        ("IP10", 2000, Proved, 6, 1, 0, 1, 1),
        ("IP11", 2000, Proved, 2, 0, 0, 0, 1),
        ("IP12", 2000, Proved, 11, 3, 2, 2, 1),
        ("IP13", 2000, Proved, 2, 0, 0, 0, 1),
        ("IP14", 2000, Exhausted, 460, 160, 4, 118, 2),
        ("IP17", 2000, Proved, 5, 0, 0, 1, 1),
        ("IP18", 2000, Proved, 6, 1, 0, 1, 1),
        ("IP19", 2000, Proved, 11, 3, 2, 2, 1),
        ("IP21", 2000, Proved, 6, 1, 0, 1, 1),
        ("IP22", 2000, Proved, 31, 13, 12, 5, 1),
        ("IP23", 2000, Proved, 20, 7, 6, 3, 1),
        ("IP24", 2000, Proved, 21, 5, 3, 4, 1),
        ("IP25", 2000, Proved, 21, 6, 4, 4, 1),
        ("IP28", 2000, Proved, 24, 5, 2, 5, 1),
        ("IP31", 2000, Proved, 31, 13, 12, 5, 1),
        ("IP32", 2000, Proved, 20, 7, 6, 3, 1),
        ("IP33", 2000, Proved, 11, 3, 2, 2, 1),
        ("IP34", 2000, Proved, 16, 4, 3, 3, 1),
        ("IP35", 2000, Proved, 5, 0, 0, 1, 1),
        ("IP36", 2000, Proved, 8, 1, 0, 1, 1),
        ("IP40", 2000, Proved, 2, 0, 0, 0, 1),
        ("IP41", 2000, Proved, 13, 3, 2, 2, 1),
        ("IP42", 2000, Proved, 2, 0, 0, 0, 1),
        ("IP43", 2000, Exhausted, 8, 0, 0, 2, 1),
        ("IP44", 2000, Proved, 5, 0, 0, 1, 1),
        ("IP45", 2000, Proved, 2, 0, 0, 0, 1),
        ("IP46", 2000, Proved, 2, 0, 0, 0, 1),
        ("IP49", 2000, Proved, 74, 42, 21, 11, 1),
        ("IP50", 2000, Proved, 13, 2, 1, 2, 1),
        ("IP51", 2000, Proved, 12, 1, 0, 2, 1),
        ("IP55", 2000, Proved, 42, 21, 5, 7, 1),
        ("IP57", 2000, Proved, 25, 6, 4, 5, 1),
        ("IP58", 2000, Proved, 25, 6, 4, 5, 1),
        ("IP61", 2000, Proved, 53, 33, 14, 9, 1),
        ("IP64", 2000, Proved, 10, 1, 0, 2, 1),
        ("IP66", 2000, Exhausted, 8, 0, 0, 2, 1),
        ("IP67", 2000, Proved, 12, 2, 1, 2, 1),
        ("IP73", 2000, Exhausted, 8, 0, 0, 2, 1),
        ("IP79", 2000, Proved, 783, 441, 131, 140, 1),
        ("IP80", 2000, Proved, 25, 5, 4, 5, 1),
        ("IP82", 2000, Proved, 19, 5, 4, 3, 1),
        ("IP83", 2000, Proved, 22, 5, 4, 4, 1),
        ("IP84", 2000, Proved, 18, 4, 3, 3, 1),
        ("M01", 2000, Proved, 15, 2, 0, 2, 1),
        ("M02", 2000, Proved, 15, 2, 0, 2, 1),
        ("M03", 2000, Proved, 13, 2, 0, 2, 1),
        ("M04", 2000, Proved, 96, 8, 0, 22, 2),
        ("M05", 2000, Proved, 13, 2, 0, 2, 1),
        ("M06", 2000, Proved, 154, 10, 0, 42, 2),
        ("M07", 2000, Proved, 15, 2, 0, 2, 1),
        ("M08", 2000, Proved, 15, 2, 0, 2, 1),
        ("F04", 2000, Proved, 22, 9, 4, 3, 1),
        ("F09", 2000, Proved, 8, 1, 0, 1, 1),
        ("IP56", 4000, Proved, 3843, 1875, 836, 631, 1),
        ("IP20", 2000, NodeBudget, 2004, 584, 558, 436, 4),
        ("IP52", 2000, NodeBudget, 2002, 935, 508, 396, 1),
    ]
};

#[test]
fn search_counts_are_pinned() {
    let mut wrong = Vec::new();
    for (id, max_nodes, status, nodes, subst, pruned, cases, rounds) in SEARCH_COUNTS {
        let p = all_problems()
            .into_iter()
            .find(|p| p.id == *id)
            .unwrap_or_else(|| panic!("unknown problem {id}"));
        let cfg = RunConfig {
            search: SearchConfig {
                max_nodes: *max_nodes,
                timeout: None,
                ..SearchConfig::default()
            },
            with_hints: false,
            recheck: true,
            ..RunConfig::default()
        };
        let out = run_problem(p, &cfg);
        let s = out.stats.expect("the search ran");
        let actual = (
            out.status,
            s.nodes_created,
            s.subst_attempts,
            s.unsound_cycles_pruned,
            s.case_splits,
            s.rounds,
        );
        if actual != (status.clone(), *nodes, *subst, *pruned, *cases, *rounds) {
            wrong.push(format!("{id}: {actual:?}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "search counts moved:\n{}",
        wrong.join("\n")
    );
}
