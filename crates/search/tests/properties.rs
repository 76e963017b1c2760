//! Property-based tests for the prover itself: on *ground* equations the
//! prover is a decision procedure — it must prove exactly the equations
//! whose sides share a normal form and refute the rest — and everything it
//! proves must survive the independent checker.

use cycleq_proof::{check, GlobalCheck};
use cycleq_rewrite::fixtures::{nat_list_program, reference_normalize};
use cycleq_rewrite::DEFAULT_FUEL;
use cycleq_search::{Outcome, Prover, SearchConfig};
use cycleq_term::{Equation, Term, VarStore};
use proptest::prelude::*;
use proptest::test_runner::Config;

fn cfg() -> Config {
    Config {
        cases: 64,
        ..Config::default()
    }
}

fn ground_nat(p: &cycleq_rewrite::fixtures::ProgramFixture) -> impl Strategy<Value = Term> {
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
fn prover_decides_ground_nat_equations() {
    let p = nat_list_program();
    let nf = |t: &Term| reference_normalize(&p.prog.sig, &p.prog.trs, t, DEFAULT_FUEL).term;
    proptest!(cfg(), |(a in ground_nat(&p), b in ground_nat(&p))| {
        let truth = nf(&a) == nf(&b);
        let prover = Prover::new(&p.prog);
        let res = prover.prove(Equation::new(a.clone(), b.clone()), VarStore::new());
        if truth {
            prop_assert!(res.outcome.is_proved(), "valid ground equation not proved: {:?}", res.outcome);
            check(&res.proof, &p.prog, GlobalCheck::VariableTraces).expect("checker accepts");
        } else {
            prop_assert_eq!(res.outcome.clone(), Outcome::Refuted, "{:?}", res.outcome);
        }
    });
}

#[test]
fn proofs_survive_the_checker_on_random_one_variable_goals() {
    // add x (S^k Z) ≈ S^k x is valid for every k; the prover should find
    // each proof and the checker accept it.
    let p = nat_list_program();
    proptest!(Config { cases: 8, ..Config::default() }, |(k in 0usize..4)| {
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let mut rhs = Term::var(x);
        for _ in 0..k {
            rhs = p.f.s(rhs);
        }
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), p.f.num(k)]),
            rhs,
        );
        let res = Prover::new(&p.prog).prove(goal, vars);
        prop_assert!(res.outcome.is_proved(), "k={k}: {:?}", res.outcome);
        check(&res.proof, &p.prog, GlobalCheck::VariableTraces).expect("checker accepts");
    });
}

#[test]
fn node_budget_is_respected() {
    let p = nat_list_program();
    let mut vars = VarStore::new();
    let x = vars.fresh("x", p.f.nat_ty());
    let y = vars.fresh("y", p.f.nat_ty());
    // An unprovable-without-lemmas goal, with a tiny node budget.
    let goal = Equation::new(
        Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
        Term::apps(p.f.add, vec![p.f.s(Term::var(y)), Term::var(x)]),
    );
    let config = SearchConfig {
        max_nodes: 50,
        timeout: None,
        ..SearchConfig::default()
    };
    let res = Prover::with_config(&p.prog, config).prove(goal, vars);
    assert!(
        matches!(
            res.outcome,
            Outcome::NodeBudget | Outcome::Refuted | Outcome::Exhausted
        ),
        "{:?}",
        res.outcome
    );
    if matches!(res.outcome, Outcome::NodeBudget) {
        assert!(
            res.stats.nodes_created <= 50 + 8,
            "budget roughly respected"
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let p = nat_list_program();
    let run = || {
        let mut vars = VarStore::new();
        let x = vars.fresh("x", p.f.nat_ty());
        let y = vars.fresh("y", p.f.nat_ty());
        let goal = Equation::new(
            Term::apps(p.f.add, vec![Term::var(x), Term::var(y)]),
            Term::apps(p.f.add, vec![Term::var(y), Term::var(x)]),
        );
        let res = Prover::new(&p.prog).prove(goal, vars);
        (
            format!("{:?}", res.outcome),
            res.proof.len(),
            res.stats.nodes_created,
        )
    };
    assert_eq!(run(), run(), "search must be deterministic");
}
