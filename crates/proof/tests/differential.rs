//! Differential tests: the library's interned checker must agree with the
//! owned-term oracle *verdict for verdict* — same acceptance, same error
//! node and kind on rejection — across prover-produced proofs, hand-built
//! proofs, and randomized corruptions of valid proofs. The oracle is the
//! reference implementation; these tests are the contract that lets the
//! fast interned path be the only checker the library ships.

mod oracle;

use cycleq_proof::{check, GlobalCheck, NodeId, Preproof, RuleApp};
use cycleq_rewrite::fixtures::{nat_list_program, ProgramFixture};
use cycleq_rewrite::Program;
use cycleq_search::Prover;
use cycleq_term::{Equation, Term, VarStore};
use proptest::prelude::*;
use proptest::test_runner::Config;

/// Both checkers, both global modes: identical verdicts, identical error
/// coordinates, identical work counters.
fn assert_same_verdict(proof: &Preproof, prog: &Program) {
    for mode in [GlobalCheck::VariableTraces, GlobalCheck::TrustConstruction] {
        let owned = oracle::check(proof, prog, mode);
        let interned = check(proof, prog, mode);
        match (owned, interned) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.nodes, b.nodes, "node counts diverge ({mode:?})");
                assert_eq!(a.back_edges, b.back_edges, "back edges diverge ({mode:?})");
                assert_eq!(
                    a.global_verified, b.global_verified,
                    "global verification diverges ({mode:?})"
                );
                assert_eq!(
                    a.reducts_checked, b.reducts_checked,
                    "reduct counters diverge ({mode:?})"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.node, b.node, "error nodes diverge ({mode:?})");
                assert_eq!(a.kind, b.kind, "error kinds diverge ({mode:?})");
            }
            (a, b) => panic!("verdicts diverge ({mode:?}): oracle {a:?} vs interned {b:?}"),
        }
    }
}

/// Rebuilds a preproof from a (possibly tweaked) flat node list. The tweak
/// sees `(equation, rule, premises)` triples and may corrupt any of them.
fn rebuilt<F>(proof: &Preproof, tweak: F) -> Preproof
where
    F: FnOnce(&mut Vec<(Equation, RuleApp, Vec<NodeId>)>),
{
    let mut nodes: Vec<_> = proof
        .nodes()
        .map(|(_, n)| (n.eq.clone(), n.rule.clone(), n.premises.clone()))
        .collect();
    tweak(&mut nodes);
    let mut out = Preproof::with_vars(proof.vars().clone());
    for (eq, _, _) in &nodes {
        out.push_open(eq.clone());
    }
    for (i, (_, rule, premises)) in nodes.into_iter().enumerate() {
        if !matches!(rule, RuleApp::Open) {
            out.justify(NodeId::from_index(i), rule, premises);
        }
    }
    out
}

/// Applies one of a fixed palette of corruptions, selected by `kind`, to
/// the node picked by `sel`. Some corruptions leave the proof valid (e.g.
/// flipping an equation — equations are unordered); the assertion is always
/// *agreement*, not rejection.
fn corrupt(nodes: &mut [(Equation, RuleApp, Vec<NodeId>)], kind: usize, sel: usize) {
    if nodes.is_empty() {
        return;
    }
    let i = sel % nodes.len();
    match kind {
        // Drop the last premise: premise-count mismatch.
        0 => {
            nodes[i].2.pop();
        }
        // Duplicate the first premise: premise-count mismatch the other way.
        1 => {
            if let Some(&p) = nodes[i].2.first() {
                nodes[i].2.push(p);
            }
        }
        // Claim (Refl) while keeping the premises: usually NotReflexive or
        // a premise-count error.
        2 => {
            nodes[i].1 = RuleApp::Refl;
        }
        // Claim (Reduce): the premise equation is rarely a joint reduct.
        3 => {
            nodes[i].1 = RuleApp::Reduce;
            nodes[i].2.truncate(1);
            if nodes[i].2.is_empty() {
                let next = NodeId::from_index((i + 1) % nodes.len());
                nodes[i].2.push(next);
            }
        }
        // Steal another node's equation: breaks whatever rule justified it.
        4 => {
            let j = (i + 1) % nodes.len();
            nodes[i].0 = nodes[j].0.clone();
        }
        // Reopen the node: unjustified nodes are never checkable.
        5 => {
            nodes[i].1 = RuleApp::Open;
            nodes[i].2.clear();
        }
        // Flip the equation: legal (equations are unordered) for (Refl) and
        // (Reduce); exercises the modulo-flip paths.
        6 => {
            let eq = &nodes[i].0;
            nodes[i].0 = Equation::new(eq.rhs().clone(), eq.lhs().clone());
        }
        // Redirect every premise at the root: corrupts rule instances and
        // can manufacture bogus cycles for the global check to reject.
        _ => {
            for p in &mut nodes[i].2 {
                *p = NodeId::from_index(0);
            }
        }
    }
}

/// A proved one-variable goal: `add x (S^k Z) ≈ S^k x` forces a case
/// split, a cycle, and (Subst)/(Cong) traffic — the richest rule mix the
/// nat fixture offers.
fn one_var_proof(p: &ProgramFixture, k: usize) -> Preproof {
    let mut vars = VarStore::new();
    let x = vars.fresh("x", p.f.nat_ty());
    let mut rhs = Term::var(x);
    for _ in 0..k {
        rhs = p.f.s(rhs);
    }
    let goal = Equation::new(Term::apps(p.f.add, vec![Term::var(x), p.f.num(k)]), rhs);
    let res = Prover::new(&p.prog).prove(goal, vars);
    assert!(res.outcome.is_proved(), "k={k}: {:?}", res.outcome);
    res.proof
}

fn ground_nat(p: &ProgramFixture) -> impl Strategy<Value = Term> {
    let zero = p.f.zero;
    let succ = p.f.succ;
    let add = p.f.add;
    let leaf = Just(Term::sym(zero));
    leaf.prop_recursive(3, 16, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(move |t| Term::apps(succ, vec![t])),
            (inner.clone(), inner).prop_map(move |(a, b)| Term::apps(add, vec![a, b])),
        ]
    })
}

#[test]
fn checkers_agree_on_prover_ground_proofs() {
    let p = nat_list_program();
    proptest!(
        Config { cases: 32, ..Config::default() },
        |(a in ground_nat(&p), b in ground_nat(&p))| {
            let res = Prover::new(&p.prog).prove(Equation::new(a, b), VarStore::new());
            if res.outcome.is_proved() {
                assert_same_verdict(&res.proof, &p.prog);
            }
        }
    );
}

#[test]
fn checkers_agree_on_cyclic_one_variable_proofs() {
    let p = nat_list_program();
    for k in 0..4 {
        let proof = one_var_proof(&p, k);
        assert_same_verdict(&proof, &p.prog);
        // Sanity: these really are accepted, so agreement above is on the
        // accepting path, not vacuous double rejection.
        oracle::check(&proof, &p.prog, GlobalCheck::VariableTraces).expect("oracle accepts");
    }
}

#[test]
fn checkers_agree_on_corrupted_proofs() {
    let p = nat_list_program();
    let base = one_var_proof(&p, 2);
    proptest!(
        Config { cases: 128, ..Config::default() },
        |(kind in 0usize..8, sel in 0usize..64)| {
            let mutant = rebuilt(&base, |nodes| corrupt(nodes, kind, sel));
            assert_same_verdict(&mutant, &p.prog);
        }
    );
}

#[test]
fn both_checkers_reject_specific_corruptions_identically() {
    let p = nat_list_program();
    let base = one_var_proof(&p, 1);

    // Reopening the root must be rejected by both as an open node.
    let reopened = rebuilt(&base, |nodes| {
        nodes[0].1 = RuleApp::Open;
        nodes[0].2.clear();
    });
    let owned = oracle::check(&reopened, &p.prog, GlobalCheck::VariableTraces);
    let interned = check(&reopened, &p.prog, GlobalCheck::VariableTraces);
    assert!(owned.is_err(), "the oracle must reject an open node");
    assert_eq!(owned, interned);

    // A (Refl) claim on the root (whose sides differ) must be NotReflexive
    // from both.
    let not_refl = rebuilt(&base, |nodes| {
        nodes[0].1 = RuleApp::Refl;
        nodes[0].2.clear();
    });
    let owned = oracle::check(&not_refl, &p.prog, GlobalCheck::VariableTraces);
    let interned = check(&not_refl, &p.prog, GlobalCheck::VariableTraces);
    assert!(owned.is_err(), "the oracle must reject the bogus (Refl)");
    assert_eq!(owned, interned);
}
