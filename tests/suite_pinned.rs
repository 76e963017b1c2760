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
/// unsound_cycles_pruned, case_splits, rounds, certificate)`, where
/// `certificate` is the FNV-1a-64 hash of a proved row's exported `.cqc`
/// text and `None` for a row that does not prove.
type Counts = (
    &'static str,
    usize,
    RunStatus,
    usize,
    usize,
    usize,
    usize,
    usize,
    Option<u64>,
);

/// Search counts under a node budget, with no timeout, so they do not
/// depend on the machine. The rows are every problem whose search ends
/// within 2000 nodes, IP56 at the 4000 it needs, and the give-ups IP20 and
/// IP52, which prune hundreds of unsound cycles. A change to the
/// size-change closure must leave every count as it is: the search prunes
/// exactly where it did. The certificate hash pins each proof itself: its
/// equations, fresh-variable names and types, substitutions and rules.
#[rustfmt::skip] // one row per line, like a table
const SEARCH_COUNTS: &[Counts] = {
    use RunStatus::{Exhausted, NodeBudget, Proved};
    &[
        ("IP01", 2000, Proved, 12, 2, 1, 2, 1, Some(0x73cad60f20bc78b4)),
        ("IP06", 2000, Proved, 10, 1, 0, 2, 1, Some(0xcc2d8e1eb0f514aa)),
        ("IP07", 2000, Proved, 6, 1, 0, 1, 1, Some(0xd787899e86248013)),
        ("IP08", 2000, Proved, 6, 1, 0, 1, 1, Some(0x6f1976f0ea36eb5c)),
        ("IP09", 2000, Proved, 797, 415, 110, 123, 1, Some(0x94c8020021951669)),
        ("IP10", 2000, Proved, 6, 1, 0, 1, 1, Some(0x462d04233bf47994)),
        ("IP11", 2000, Proved, 2, 0, 0, 0, 1, Some(0x54366f5314a8093e)),
        ("IP12", 2000, Proved, 11, 3, 2, 2, 1, Some(0xee07ab834aaba994)),
        ("IP13", 2000, Proved, 2, 0, 0, 0, 1, Some(0x61d217efff7e722e)),
        ("IP14", 2000, Exhausted, 460, 160, 4, 118, 2, None),
        ("IP17", 2000, Proved, 5, 0, 0, 1, 1, Some(0x42a7be140db53487)),
        ("IP18", 2000, Proved, 6, 1, 0, 1, 1, Some(0xce84baefaae44453)),
        ("IP19", 2000, Proved, 11, 3, 2, 2, 1, Some(0x9f10fe348b5346a0)),
        ("IP21", 2000, Proved, 6, 1, 0, 1, 1, Some(0xe2d63122c83d7a61)),
        ("IP22", 2000, Proved, 31, 13, 12, 5, 1, Some(0x61f93b97fb6b2b13)),
        ("IP23", 2000, Proved, 20, 7, 6, 3, 1, Some(0xbd00cc48002d0bcc)),
        ("IP24", 2000, Proved, 21, 5, 3, 4, 1, Some(0x3ee4592f35687257)),
        ("IP25", 2000, Proved, 21, 6, 4, 4, 1, Some(0x7ec6576fb870a984)),
        ("IP28", 2000, Proved, 24, 5, 2, 5, 1, Some(0x5eeef76f98482ec8)),
        ("IP31", 2000, Proved, 31, 13, 12, 5, 1, Some(0xf72706c5c43ff2bf)),
        ("IP32", 2000, Proved, 20, 7, 6, 3, 1, Some(0x192e8e93e5ecbc9f)),
        ("IP33", 2000, Proved, 11, 3, 2, 2, 1, Some(0xb9dcb518e8916964)),
        ("IP34", 2000, Proved, 16, 4, 3, 3, 1, Some(0xaf648f883b6cd72a)),
        ("IP35", 2000, Proved, 5, 0, 0, 1, 1, Some(0x1e4999edf786868c)),
        ("IP36", 2000, Proved, 8, 1, 0, 1, 1, Some(0xa03fc2264ff32ef8)),
        ("IP40", 2000, Proved, 2, 0, 0, 0, 1, Some(0x17684c013ba83e74)),
        ("IP41", 2000, Proved, 13, 3, 2, 2, 1, Some(0x841c245209f2415e)),
        ("IP42", 2000, Proved, 2, 0, 0, 0, 1, Some(0xfdb618edace0d1c7)),
        ("IP43", 2000, Exhausted, 8, 0, 0, 2, 1, None),
        ("IP44", 2000, Proved, 5, 0, 0, 1, 1, Some(0x6f1a51963f812427)),
        ("IP45", 2000, Proved, 2, 0, 0, 0, 1, Some(0xf3623f55f420e631)),
        ("IP46", 2000, Proved, 2, 0, 0, 0, 1, Some(0x1785025afe92e04e)),
        ("IP49", 2000, Proved, 74, 42, 21, 11, 1, Some(0xbcfa80866566964f)),
        ("IP50", 2000, Proved, 13, 2, 1, 2, 1, Some(0xea4e5f666875b39d)),
        ("IP51", 2000, Proved, 12, 1, 0, 2, 1, Some(0x12aeaa27dfdbbe92)),
        ("IP55", 2000, Proved, 42, 21, 5, 7, 1, Some(0x56f2ff993e1b129e)),
        ("IP57", 2000, Proved, 25, 6, 4, 5, 1, Some(0xd58a6e1f3dc9c067)),
        ("IP58", 2000, Proved, 25, 6, 4, 5, 1, Some(0x2e7cbfd3b7386241)),
        ("IP61", 2000, Proved, 53, 33, 14, 9, 1, Some(0x111072f67120cbec)),
        ("IP64", 2000, Proved, 10, 1, 0, 2, 1, Some(0x4bde4a5bbb1ded51)),
        ("IP66", 2000, Exhausted, 8, 0, 0, 2, 1, None),
        ("IP67", 2000, Proved, 12, 2, 1, 2, 1, Some(0x084aa8efd655a0a4)),
        ("IP73", 2000, Exhausted, 8, 0, 0, 2, 1, None),
        ("IP79", 2000, Proved, 783, 441, 131, 140, 1, Some(0x39b8b47940d5b903)),
        ("IP80", 2000, Proved, 25, 5, 4, 5, 1, Some(0xe0c63e5e9666a1ea)),
        ("IP82", 2000, Proved, 19, 5, 4, 3, 1, Some(0x1bbf54d3547c6027)),
        ("IP83", 2000, Proved, 22, 5, 4, 4, 1, Some(0x50f878dd4d9b6123)),
        ("IP84", 2000, Proved, 18, 4, 3, 3, 1, Some(0xeda22843ad225927)),
        ("M01", 2000, Proved, 15, 2, 0, 2, 1, Some(0xf0afb34d60f8293a)),
        ("M02", 2000, Proved, 15, 2, 0, 2, 1, Some(0x044d440b80bcb758)),
        ("M03", 2000, Proved, 13, 2, 0, 2, 1, Some(0xc9e685bd37e62340)),
        ("M04", 2000, Proved, 96, 8, 0, 22, 2, Some(0x58b6b8926e7d844a)),
        ("M05", 2000, Proved, 13, 2, 0, 2, 1, Some(0xc879e3312660677f)),
        ("M06", 2000, Proved, 154, 10, 0, 42, 2, Some(0x6a4c2fabe5957569)),
        ("M07", 2000, Proved, 15, 2, 0, 2, 1, Some(0x40aa7070531ea7f8)),
        ("M08", 2000, Proved, 15, 2, 0, 2, 1, Some(0xbdd74fa2fd4d9b50)),
        ("F04", 2000, Proved, 22, 9, 4, 3, 1, Some(0xf7c58db7fdeebff4)),
        ("F09", 2000, Proved, 8, 1, 0, 1, 1, Some(0x0b92b90314c9b1e2)),
        ("IP56", 4000, Proved, 3843, 1875, 836, 631, 1, Some(0x97f7afb37fa52c05)),
        ("IP20", 2000, NodeBudget, 2004, 584, 558, 436, 4, None),
        ("IP52", 2000, NodeBudget, 2002, 935, 508, 396, 1, None),
    ]
};

#[test]
fn search_counts_are_pinned() {
    let dir = std::env::temp_dir().join(format!("cycleq_pinned_certs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut wrong = Vec::new();
    for (id, max_nodes, status, nodes, subst, pruned, cases, rounds, cert) in SEARCH_COUNTS {
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
            emit_certs: Some(dir.clone()),
            ..RunConfig::default()
        };
        let out = run_problem(p, &cfg);
        let certificate = out.status.is_proved().then(|| {
            let text = std::fs::read_to_string(dir.join(format!("{id}.cqc"))).unwrap();
            cycleq::program_fingerprint(&text)
        });
        let s = out.stats.expect("the search ran");
        let actual = (
            s.nodes_created,
            s.subst_attempts,
            s.unsound_cycles_pruned,
            s.case_splits,
            s.rounds,
        );
        if (&out.status, actual, certificate)
            != (status, (*nodes, *subst, *pruned, *cases, *rounds), *cert)
        {
            // Printed as a table row, so an intended change is a paste.
            let (n, sa, up, cs, r) = actual;
            let cert = certificate.map_or("None".into(), |h| format!("Some(0x{h:016x})"));
            wrong.push(format!(
                "(\"{id}\", {max_nodes}, {:?}, {n}, {sa}, {up}, {cs}, {r}, {cert}),",
                out.status
            ));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        wrong.is_empty(),
        "search counts moved:\n{}",
        wrong.join("\n")
    );
}
