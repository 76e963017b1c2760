//! Experiment E8 (§4): rewriting induction proves orientable structural
//! goals and its derivations translate to locally checkable cyclic proofs
//! (Theorem 4.3); inherently unorientable goals fail, while the cyclic
//! search handles them.

use cycleq::{GlobalCheck, Session};
use cycleq_ri::{RiConfig, RiOutcome, RiProver};

const SRC: &str = "
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
app :: List a -> List a -> List a
app Nil ys = ys
app (Cons x xs) ys = Cons x (app xs ys)
len :: List a -> Nat
len Nil = Z
len (Cons x xs) = S (len xs)
goal zeroRight: add x Z === x
goal succRight: add x (S y) === S (add x y)
goal assoc: add (add x y) z === add x (add y z)
goal appAssoc: app (app xs ys) zs === app xs (app ys zs)
goal lenApp: len (app xs ys) === add (len xs) (len ys)
goal comm: add x y === add y x
";

#[test]
fn ri_proves_orientable_goals_and_translations_check() {
    let session = Session::from_source(SRC).unwrap();
    let module = session.module();
    let ri = RiProver::new(&module.program).unwrap();
    for goal in ["zeroRight", "succRight", "assoc", "appAssoc", "lenApp"] {
        let g = module.goal(goal).unwrap().clone();
        let res = ri.prove(g.eq, g.vars);
        assert!(res.outcome.is_proved(), "{goal}: {:?}", res.outcome);
        // Theorem 4.3: the derivation is a (partial) cyclic proof; every
        // rule instance is locally valid.
        cycleq::check(&res.proof, &module.program, GlobalCheck::TrustConstruction)
            .unwrap_or_else(|e| panic!("{goal}: {e}"));
    }
}

#[test]
fn ri_translation_variable_traces_verify_for_structural_proofs() {
    // For purely structural inductions the reduction-order progress points
    // coincide with variable traces, so even the decidable size-change
    // check passes.
    let session = Session::from_source(SRC).unwrap();
    let module = session.module();
    let ri = RiProver::new(&module.program).unwrap();
    for goal in ["zeroRight", "appAssoc"] {
        let g = module.goal(goal).unwrap().clone();
        let res = ri.prove(g.eq, g.vars);
        assert!(res.outcome.is_proved());
        cycleq::check(&res.proof, &module.program, GlobalCheck::VariableTraces)
            .unwrap_or_else(|e| panic!("{goal}: {e}"));
    }
}

#[test]
fn commutativity_is_unorientable_for_ri_but_provable_cyclically() {
    let session = Session::from_source(SRC).unwrap();
    let module = session.module();
    let ri = RiProver::new(&module.program).unwrap();
    let g = module.goal("comm").unwrap().clone();
    let res = ri.prove(g.eq, g.vars);
    assert!(
        matches!(res.outcome, RiOutcome::FailedToOrient { .. }),
        "{:?}",
        res.outcome
    );

    // The cyclic prover is ambivalent to orientation (§1.2).
    let v = session.prove("comm").unwrap();
    assert!(v.is_proved());
}

#[test]
fn ri_uses_hypotheses_as_rewrite_rules() {
    let session = Session::from_source(SRC).unwrap();
    let module = session.module();
    let ri = RiProver::new(&module.program).unwrap();
    let g = module.goal("assoc").unwrap().clone();
    let res = ri.prove(g.eq, g.vars);
    assert!(res.outcome.is_proved());
    assert!(res.stats.hyp_steps >= 1, "inductive hypotheses must fire");
    // The proof has back edges to the expanded (hypothesis) vertices.
    let report =
        cycleq::check(&res.proof, &module.program, GlobalCheck::TrustConstruction).unwrap();
    assert!(report.back_edges >= 1);
}

#[test]
fn cyclic_search_subsumes_ri_on_this_suite() {
    // Everything RI proves here, the cyclic prover proves as well
    // (Theorem 4.3 in practice).
    let session = Session::from_source(SRC).unwrap();
    for goal in ["zeroRight", "succRight", "assoc", "appAssoc", "lenApp"] {
        let v = session.prove(goal).unwrap();
        assert!(v.is_proved(), "{goal}: {:?}", v.result.outcome);
    }
}

/// One pinned rewriting-induction run: problem id, outcome kind, and the
/// run's `RiStats` (expansions, hypothesis steps, deletions, nodes).
type RiRow = (&'static str, &'static str, usize, usize, usize, usize);

/// Every LPO-orientable problem of the benchmark corpus.
const RI_CORPUS: &[RiRow] = &[
    ("IP01", "Proved", 1, 1, 3, 12),
    ("IP02", "Budget", 16, 2, 46, 219),
    ("IP03", "Budget", 16, 45, 46, 262),
    ("IP04", "Budget", 16, 0, 16, 82),
    ("IP06", "Stuck", 1, 0, 0, 3),
    ("IP07", "Stuck", 1, 0, 0, 4),
    ("IP08", "Proved", 1, 1, 2, 8),
    ("IP09", "Stuck", 1, 0, 0, 4),
    ("IP10", "Proved", 1, 1, 2, 6),
    ("IP11", "Proved", 0, 0, 1, 2),
    ("IP12", "Stuck", 1, 0, 0, 4),
    ("IP13", "Proved", 0, 0, 1, 2),
    ("IP14", "Stuck", 4, 4, 1, 26),
    ("IP15", "Budget", 16, 15, 31, 157),
    ("IP17", "Proved", 1, 0, 2, 7),
    ("IP18", "Proved", 1, 1, 2, 7),
    ("IP19", "Proved", 1, 1, 3, 12),
    ("IP20", "Budget", 16, 3, 12, 115),
    ("IP21", "Stuck", 1, 0, 0, 4),
    ("IP22", "Stuck", 1, 0, 0, 3),
    ("IP23", "FailedToOrient", 0, 0, 0, 1),
    ("IP24", "Stuck", 1, 0, 0, 3),
    ("IP25", "Stuck", 1, 0, 0, 3),
    ("IP28", "Proved", 3, 3, 6, 28),
    ("IP29", "Budget", 16, 29, 44, 222),
    ("IP30", "Budget", 16, 26, 29, 160),
    ("IP31", "Stuck", 1, 0, 0, 3),
    ("IP32", "FailedToOrient", 0, 0, 0, 1),
    ("IP33", "Stuck", 1, 0, 0, 3),
    ("IP34", "Stuck", 1, 0, 0, 3),
    ("IP35", "Proved", 1, 0, 2, 6),
    ("IP36", "Proved", 1, 1, 2, 7),
    ("IP37", "Budget", 16, 45, 46, 246),
    ("IP38", "Budget", 16, 3, 44, 211),
    ("IP39", "Budget", 16, 0, 48, 226),
    ("IP40", "Proved", 0, 0, 1, 2),
    ("IP41", "Stuck", 1, 0, 0, 4),
    ("IP42", "Proved", 0, 0, 1, 2),
    ("IP43", "Stuck", 2, 0, 1, 12),
    ("IP44", "Proved", 1, 0, 2, 7),
    ("IP45", "Proved", 0, 0, 1, 2),
    ("IP46", "Proved", 0, 0, 1, 2),
    ("IP47", "FailedToOrient", 1, 2, 1, 9),
    ("IP49", "Proved", 5, 2, 6, 30),
    ("IP50", "Proved", 1, 1, 3, 13),
    ("IP51", "Proved", 2, 1, 3, 13),
    ("IP52", "FailedToOrient", 3, 0, 2, 18),
    ("IP53", "Budget", 16, 4, 10, 109),
    ("IP54", "Stuck", 1, 0, 0, 4),
    ("IP55", "Proved", 2, 1, 4, 18),
    ("IP56", "Stuck", 1, 0, 0, 3),
    ("IP57", "Stuck", 1, 0, 0, 4),
    ("IP58", "FailedToOrient", 1, 0, 2, 10),
    ("IP61", "Proved", 5, 2, 6, 28),
    ("IP64", "Proved", 2, 1, 3, 13),
    ("IP65", "Stuck", 2, 0, 1, 7),
    ("IP66", "Stuck", 2, 0, 1, 12),
    ("IP67", "Proved", 1, 1, 3, 13),
    ("IP68", "Budget", 16, 10, 15, 131),
    ("IP69", "Stuck", 1, 0, 0, 4),
    ("IP72", "Stuck", 3, 1, 1, 19),
    ("IP73", "Stuck", 2, 0, 1, 12),
    ("IP74", "Stuck", 1, 0, 0, 4),
    ("IP75", "Budget", 16, 15, 22, 155),
    ("IP78", "Budget", 16, 2, 11, 105),
    ("IP79", "Stuck", 2, 0, 1, 9),
    ("IP80", "Stuck", 2, 0, 0, 11),
    ("IP81", "Stuck", 1, 0, 0, 4),
    ("IP82", "FailedToOrient", 2, 0, 2, 17),
    ("IP83", "Stuck", 1, 0, 0, 3),
    ("IP84", "Stuck", 1, 0, 0, 3),
    ("F04", "FailedToOrient", 0, 0, 0, 1),
    ("F09", "Proved", 1, 1, 2, 7),
];

#[test]
fn ri_corpus_outcomes_and_stats_are_pinned() {
    // Rewriting induction over every benchmark problem whose program the
    // default LPO orients, with a small expansion budget. The outcome kind
    // and counters of every run are pinned, so a change to the rewriter or
    // the blocked-variable analysis RI runs on shows up here, and every
    // proof must pass the local checker (Theorem 4.3).
    let config = RiConfig {
        max_expansions: 16,
        ..RiConfig::default()
    };
    let mut got: Vec<RiRow> = Vec::new();
    for p in cycleq_benchsuite::all_problems() {
        let Some(src) = p.source() else {
            continue;
        };
        let module = cycleq::parse_module(&src).unwrap();
        let Ok(ri) = RiProver::with_config(&module.program, config.clone()) else {
            continue;
        };
        let g = module.goal(&p.goal_name()).unwrap().clone();
        let res = ri.prove(g.eq, g.vars);
        let kind = match res.outcome {
            RiOutcome::Proved { .. } => {
                cycleq::check(&res.proof, &module.program, GlobalCheck::TrustConstruction)
                    .unwrap_or_else(|e| panic!("{}: {e}", p.id));
                "Proved"
            }
            RiOutcome::FailedToOrient { .. } => "FailedToOrient",
            RiOutcome::Stuck { .. } => "Stuck",
            RiOutcome::Budget => "Budget",
        };
        let s = &res.stats;
        got.push((p.id, kind, s.expansions, s.hyp_steps, s.deletions, s.nodes));
    }
    let table: String = got.iter().map(|row| format!("    {row:?},\n")).collect();
    assert!(
        got == RI_CORPUS,
        "the RI corpus runs changed; they now read:\n{table}"
    );
}
