//! Cross-validation of the global-correctness check on real proofs: the
//! SCC-restricted `check_global` must agree with a closure over *every*
//! proof edge (Definition 5.4 / Theorem 5.2), and every proof produced by
//! the search must carry verifiable variable traces.

use cycleq::Session;
use cycleq_benchsuite::{MUTUAL, MUTUAL_PRELUDE, PRELUDE};
use cycleq_sizechange::{IncrementalClosure, Soundness};

fn proved_proofs() -> Vec<(String, cycleq::Preproof)> {
    let mut out = Vec::new();
    // A cross-section of suite goals that prove quickly.
    let goals = [
        (PRELUDE, "g1", "add x y === add y x"),
        (PRELUDE, "g2", "app (take n xs) (drop n xs) === xs"),
        (PRELUDE, "g3", "butlast xs === take (sub (len xs) (S Z)) xs"),
        (PRELUDE, "g4", "max (max a b) c === max a (max b c)"),
        (MUTUAL_PRELUDE, "g5", "mapE id e === e"),
        (MUTUAL_PRELUDE, "g6", "swapE (swapE e) === e"),
    ];
    for (prelude, name, goal) in goals {
        let src = format!("{prelude}\ngoal {name}: {goal}\n");
        let session = Session::from_source(&src).unwrap();
        let v = session.prove(name).unwrap();
        assert!(v.is_proved(), "{name}: {:?}", v.result.outcome);
        out.push((name.to_string(), v.result.proof));
    }
    out
}

#[test]
fn scc_and_full_closure_checks_agree_on_real_proofs() {
    for (name, proof) in proved_proofs() {
        let scc = cycleq::check_global(&proof);
        let mut full = IncrementalClosure::new();
        for (a, b, g) in cycleq::global_edges(&proof) {
            full.add_edge(a, b, g);
        }
        assert_eq!(scc, Soundness::Sound, "{name}");
        assert_eq!(scc, full.soundness(), "{name}");
    }
}

#[test]
fn every_back_edge_has_a_certified_cycle() {
    for (name, proof) in proved_proofs() {
        let back_edges: usize = proof
            .nodes()
            .map(|(v, n)| {
                n.premises
                    .iter()
                    .filter(|p| proof.is_back_edge(v, **p))
                    .count()
            })
            .sum();
        if back_edges == 0 {
            continue;
        }
        let witnesses = cycleq::cycle_witnesses(&proof);
        assert!(
            !witnesses.is_empty(),
            "{name}: cyclic proof must have a strict idempotent certificate"
        );
        for (_, g) in witnesses {
            assert!(g.is_idempotent());
            assert!(g.has_strict_self_edge());
        }
    }
}

#[test]
fn mutual_suite_is_fully_proved_and_checked() {
    // E3: "All the mutual induction problems were solved" (§6.1).
    for p in MUTUAL {
        let out = cycleq_benchsuite::run_problem(p, &cycleq_benchsuite::RunConfig::default());
        assert!(out.status.is_proved(), "{}: {:?}", p.id, out.status);
    }
}

#[test]
fn figure_goals_are_proved_and_checked() {
    for p in cycleq_benchsuite::FIGURES {
        let out = cycleq_benchsuite::run_problem(p, &cycleq_benchsuite::RunConfig::default());
        assert!(out.status.is_proved(), "{}: {:?}", p.id, out.status);
    }
}
