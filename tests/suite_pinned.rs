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
        ("IP01", 2000, Proved, 12, 2, 1, 2, 1, Some(0xa86a8ca1ca1eee1e)),
        ("IP06", 2000, Proved, 10, 1, 0, 2, 1, Some(0x44759049e5af686a)),
        ("IP07", 2000, Proved, 6, 1, 0, 1, 1, Some(0x664cd0e17d16308f)),
        ("IP08", 2000, Proved, 6, 1, 0, 1, 1, Some(0x8513a646a1d07afc)),
        ("IP09", 2000, Proved, 797, 415, 110, 123, 1, Some(0x513c790c8a79a8b3)),
        ("IP10", 2000, Proved, 6, 1, 0, 1, 1, Some(0x01caad2fd38456e4)),
        ("IP11", 2000, Proved, 2, 0, 0, 0, 1, Some(0x1d609f39b6615674)),
        ("IP12", 2000, Proved, 11, 3, 2, 2, 1, Some(0x918e4e3efbca2d47)),
        ("IP13", 2000, Proved, 2, 0, 0, 0, 1, Some(0x451dfb7ca5fab939)),
        ("IP14", 2000, Exhausted, 460, 160, 4, 118, 2, None),
        ("IP17", 2000, Proved, 5, 0, 0, 1, 1, Some(0xc3582205b2bc259d)),
        ("IP18", 2000, Proved, 6, 1, 0, 1, 1, Some(0xf453670aea13c1dd)),
        ("IP19", 2000, Proved, 11, 3, 2, 2, 1, Some(0xd0a1b62d78787031)),
        ("IP21", 2000, Proved, 6, 1, 0, 1, 1, Some(0x045fe7f6c0179d13)),
        ("IP22", 2000, Proved, 31, 13, 12, 5, 1, Some(0x1eb7a7fe09da6cde)),
        ("IP23", 2000, Proved, 20, 7, 6, 3, 1, Some(0x8797cb169960dc2a)),
        ("IP24", 2000, Proved, 21, 5, 3, 4, 1, Some(0x6e926fbf4ee06f63)),
        ("IP25", 2000, Proved, 21, 6, 4, 4, 1, Some(0x7c7f888ce9a78cd7)),
        ("IP28", 2000, Proved, 24, 5, 2, 5, 1, Some(0xd12e8b5786165508)),
        ("IP31", 2000, Proved, 31, 13, 12, 5, 1, Some(0xd90f4880c9e66dba)),
        ("IP32", 2000, Proved, 20, 7, 6, 3, 1, Some(0x17dc38509e72f5c5)),
        ("IP33", 2000, Proved, 11, 3, 2, 2, 1, Some(0xe0ee99d638aaf1c6)),
        ("IP34", 2000, Proved, 16, 4, 3, 3, 1, Some(0xde2a9e6ce0036b99)),
        ("IP35", 2000, Proved, 5, 0, 0, 1, 1, Some(0xee05d625617171d2)),
        ("IP36", 2000, Proved, 8, 1, 0, 1, 1, Some(0x6ce4dd7108e7609a)),
        ("IP40", 2000, Proved, 2, 0, 0, 0, 1, Some(0xdbe385ce99e00057)),
        ("IP41", 2000, Proved, 13, 3, 2, 2, 1, Some(0x1d8b18690c3b6e99)),
        ("IP42", 2000, Proved, 2, 0, 0, 0, 1, Some(0x5caea9a7410be457)),
        ("IP43", 2000, Exhausted, 8, 0, 0, 2, 1, None),
        ("IP44", 2000, Proved, 5, 0, 0, 1, 1, Some(0x1db9a33548caa153)),
        ("IP45", 2000, Proved, 2, 0, 0, 0, 1, Some(0x0fe715cf4f41d744)),
        ("IP46", 2000, Proved, 2, 0, 0, 0, 1, Some(0x8930c1f5efb6f12f)),
        ("IP49", 2000, Proved, 74, 42, 21, 11, 1, Some(0x464b2bd5ee92c722)),
        ("IP50", 2000, Proved, 13, 2, 1, 2, 1, Some(0xdc84ad11fa070259)),
        ("IP51", 2000, Proved, 12, 1, 0, 2, 1, Some(0x8cac84722fff766f)),
        ("IP55", 2000, Proved, 42, 21, 5, 7, 1, Some(0x28203b3ea81472a8)),
        ("IP57", 2000, Proved, 25, 6, 4, 5, 1, Some(0x2ee57355b951e7af)),
        ("IP58", 2000, Proved, 25, 6, 4, 5, 1, Some(0x580ad97dd922491d)),
        ("IP61", 2000, Proved, 53, 33, 14, 9, 1, Some(0xdce98859589f67c9)),
        ("IP64", 2000, Proved, 10, 1, 0, 2, 1, Some(0xd864d0553be18898)),
        ("IP66", 2000, Exhausted, 8, 0, 0, 2, 1, None),
        ("IP67", 2000, Proved, 12, 2, 1, 2, 1, Some(0x6538097001e37316)),
        ("IP73", 2000, Exhausted, 8, 0, 0, 2, 1, None),
        ("IP79", 2000, Proved, 783, 441, 131, 140, 1, Some(0xc48121ad0a3dee56)),
        ("IP80", 2000, Proved, 25, 5, 4, 5, 1, Some(0x8c67c2ec03868c3d)),
        ("IP82", 2000, Proved, 19, 5, 4, 3, 1, Some(0xefc912174c3e6142)),
        ("IP83", 2000, Proved, 22, 5, 4, 4, 1, Some(0x87e63208bb750bd7)),
        ("IP84", 2000, Proved, 18, 4, 3, 3, 1, Some(0x9e0e898e5662f5b0)),
        ("M01", 2000, Proved, 15, 2, 0, 2, 1, Some(0xde11ca625839195b)),
        ("M02", 2000, Proved, 15, 2, 0, 2, 1, Some(0x6f2e177e363aa454)),
        ("M03", 2000, Proved, 13, 2, 0, 2, 1, Some(0x6436df65b84af2d6)),
        ("M04", 2000, Proved, 96, 8, 0, 22, 2, Some(0x214b40fe9dd5aa3b)),
        ("M05", 2000, Proved, 13, 2, 0, 2, 1, Some(0xb118babafbdb25ff)),
        ("M06", 2000, Proved, 154, 10, 0, 42, 2, Some(0x28f33f8446c86aa3)),
        ("M07", 2000, Proved, 15, 2, 0, 2, 1, Some(0x57ecafe448e41579)),
        ("M08", 2000, Proved, 15, 2, 0, 2, 1, Some(0xbac8169b0e1488f2)),
        ("F04", 2000, Proved, 22, 9, 4, 3, 1, Some(0x2cea67088dfbd953)),
        ("F09", 2000, Proved, 8, 1, 0, 1, 1, Some(0x2ccda4b0ae3da50a)),
        ("IP56", 4000, Proved, 3843, 1875, 836, 631, 1, Some(0xd36be1b12db26414)),
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
