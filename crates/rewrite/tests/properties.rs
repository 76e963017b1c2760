//! Property tests for reduction: determinism of normal forms on the
//! orthogonal fixture program (confluence in action), fuel monotonicity,
//! and agreement between narrowing and rewriting on ground terms.

use cycleq_rewrite::fixtures::nat_list_program;
use cycleq_rewrite::{
    case_candidates, check_program, critical_pairs, narrow_at, MemoRewriter, Rewriter,
};
use cycleq_term::{Position, Term, VarStore};
use proptest::prelude::*;
use proptest::test_runner::Config;

fn cfg() -> Config {
    Config {
        cases: 96,
        ..Config::default()
    }
}

/// Ground Nat terms over Z, S, add.
fn ground_nat(p: &cycleq_rewrite::fixtures::ProgramFixture) -> impl Strategy<Value = Term> {
    let zero = p.f.zero;
    let succ = p.f.succ;
    let add = p.f.add;
    let leaf = Just(Term::sym(zero));
    leaf.prop_recursive(4, 20, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(move |t| Term::apps(succ, vec![t])),
            (inner.clone(), inner).prop_map(move |(a, b)| Term::apps(add, vec![a, b])),
        ]
    })
}

/// Ground lists of Nats over Nil, Cons, app.
fn ground_list(p: &cycleq_rewrite::fixtures::ProgramFixture) -> impl Strategy<Value = Term> {
    let nil = p.f.nil;
    let cons = p.f.cons;
    let app = p.f.app;
    let elem = ground_nat(p).boxed();
    let leaf = Just(Term::sym(nil));
    (leaf.prop_recursive(4, 20, 2, move |inner| {
        prop_oneof![
            (elem.clone(), inner.clone()).prop_map(move |(x, xs)| Term::apps(cons, vec![x, xs])),
            (inner.clone(), inner).prop_map(move |(a, b)| Term::apps(app, vec![a, b])),
        ]
    }))
    .boxed()
}

fn nat_value(t: &Term, p: &cycleq_rewrite::fixtures::ProgramFixture) -> Option<usize> {
    if t.head_sym() == Some(p.f.zero) {
        Some(0)
    } else if t.head_sym() == Some(p.f.succ) {
        Some(1 + nat_value(&t.args()[0], p)?)
    } else {
        None
    }
}

fn nat_meaning(t: &Term, p: &cycleq_rewrite::fixtures::ProgramFixture) -> usize {
    if t.head_sym() == Some(p.f.zero) {
        0
    } else if t.head_sym() == Some(p.f.succ) {
        1 + nat_meaning(&t.args()[0], p)
    } else {
        // add
        nat_meaning(&t.args()[0], p) + nat_meaning(&t.args()[1], p)
    }
}

#[test]
fn normalisation_computes_addition() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_nat(&p))| {
        let n = rw.normalize(&t);
        prop_assert!(n.in_normal_form);
        prop_assert_eq!(nat_value(&n.term, &p), Some(nat_meaning(&t, &p)));
    });
}

#[test]
fn normal_forms_are_stable() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_nat(&p))| {
        let n = rw.normalize(&t);
        let again = rw.normalize(&n.term);
        prop_assert_eq!(again.steps, 0);
        prop_assert_eq!(again.term, n.term);
    });
}

#[test]
fn closed_defined_terms_are_never_stuck() {
    // The completeness assumption (Remark 2.1) in action: every closed
    // defined-head term reduces.
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_list(&p))| {
        let n = rw.normalize(&t);
        prop_assert!(n.in_normal_form);
        // A ground normal form of list type is a constructor tower.
        fn constructor_tower(t: &Term, sig: &cycleq_term::Signature) -> bool {
            t.head_sym().is_some_and(|h| !sig.is_defined(h))
                && t.args().iter().all(|a| constructor_tower(a, sig))
        }
        prop_assert!(constructor_tower(&n.term, &p.prog.sig), "stuck: {:?}", n.term);
    });
}

#[test]
fn append_preserves_length() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_list(&p))| {
        // len (t) computed via reduction equals the count of Cons cells in
        // the normal form.
        let n = rw.normalize(&t).term;
        fn cons_count(t: &Term, p: &cycleq_rewrite::fixtures::ProgramFixture) -> usize {
            if t.head_sym() == Some(p.f.cons) {
                1 + cons_count(&t.args()[1], p)
            } else {
                0
            }
        }
        let len_t = Term::apps(p.f.len, vec![t.clone()]);
        let len_nf = rw.normalize(&len_t).term;
        prop_assert_eq!(nat_value(&len_nf, &p), Some(cons_count(&n, &p)));
    });
}

/// Open Nat terms over Z, S, add and a handful of variables.
fn open_nat(
    p: &cycleq_rewrite::fixtures::ProgramFixture,
    vs: &[cycleq_term::VarId],
) -> impl Strategy<Value = Term> {
    let zero = p.f.zero;
    let succ = p.f.succ;
    let add = p.f.add;
    let vs = vs.to_vec();
    let leaf = prop_oneof![
        Just(Term::sym(zero)),
        (0..vs.len()).prop_map(move |i| Term::var(vs[i])),
    ];
    leaf.prop_recursive(4, 20, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(move |t| Term::apps(succ, vec![t])),
            (inner.clone(), inner).prop_map(move |(a, b)| Term::apps(add, vec![a, b])),
        ]
    })
}

fn open_vars(p: &cycleq_rewrite::fixtures::ProgramFixture) -> (VarStore, Vec<cycleq_term::VarId>) {
    let mut vars = VarStore::new();
    let vs = (0..3)
        .map(|i| vars.fresh(&format!("x{i}"), p.f.nat_ty()))
        .collect();
    (vars, vs)
}

#[test]
fn memoized_reduction_agrees_with_plain_on_ground_terms() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_nat(&p))| {
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let plain = rw.normalize(&t);
        let fast = memo.normalize(&t);
        prop_assert!(fast.in_normal_form);
        prop_assert_eq!(&fast.term, &plain.term);
        // Normal forms are fixpoints of the memoised rewriter too, and
        // re-normalising is a free memo hit.
        let again = memo.normalize(&plain.term);
        prop_assert_eq!(again.steps, 0);
        prop_assert_eq!(again.term, plain.term);
    });
}

#[test]
fn memoized_reduction_agrees_with_plain_on_open_terms() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    let (_vars, vs) = open_vars(&p);
    proptest!(cfg(), |(t in open_nat(&p, &vs))| {
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let plain = rw.normalize(&t);
        let fast = memo.normalize(&t);
        prop_assert!(plain.in_normal_form && fast.in_normal_form);
        prop_assert_eq!(fast.term, plain.term);
    });
}

#[test]
fn memoized_reduction_agrees_with_plain_on_lists() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_list(&p))| {
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        prop_assert_eq!(memo.normalize(&t).term, rw.normalize(&t).term);
    });
}

#[test]
fn interned_case_candidates_agree_with_owned() {
    let p = nat_list_program();
    let (_vars, vs) = open_vars(&p);
    proptest!(cfg(), |(t in open_nat(&p, &vs))| {
        let mut memo = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
        let id = memo.intern(&t);
        prop_assert_eq!(
            memo.case_candidates_id(id),
            case_candidates(&p.prog.sig, &p.prog.trs, &t)
        );
    });
}

#[test]
fn narrowing_generalises_rewriting_on_ground_redexes() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_nat(&p))| {
        // At any *innermost* ground redex (arguments free of defined
        // symbols), narrowing yields exactly the rewriting result with the
        // empty (goal-restricted) substitution. Outer redexes with defined
        // arguments need not unify with any rule head.
        for pos in rw.defined_positions(&t) {
            let sub = t.at(&pos).unwrap();
            if sub.args().iter().any(|a| a.contains_defined(&p.prog.sig)) {
                continue;
            }
            let mut vars = VarStore::new();
            let steps = narrow_at(&p.prog.sig, &p.prog.trs, &mut vars, &t, &pos);
            let direct = rw.step_at(&t, &pos);
            prop_assert_eq!(steps.len(), 1);
            prop_assert_eq!(Some(steps[0].result.clone()), direct);
            prop_assert!(steps[0].subst.restricted_to(t.vars()).is_empty());
        }
    });
}

#[test]
fn fixture_is_orthogonal_and_complete() {
    let p = nat_list_program();
    assert!(critical_pairs(&p.prog.trs).pairs.is_empty());
    assert!(p.prog.trs.rules().all(|(_, r)| r.is_left_linear()));
    assert!(check_program(&p.prog.sig, &p.prog.trs).is_empty());
}

#[test]
fn step_at_root_equals_step_root() {
    let p = nat_list_program();
    let rw = Rewriter::new(&p.prog.sig, &p.prog.trs);
    let t = Term::apps(p.f.add, vec![p.f.num(1), p.f.num(1)]);
    assert_eq!(rw.step_at(&t, &Position::root()), rw.step_root(&t));
}

#[test]
fn lpo_orients_all_fixture_rules_under_default_precedence() {
    let p = nat_list_program();
    let lpo = cycleq_rewrite::Lpo::from_signature(&p.prog.sig);
    assert_eq!(
        cycleq_rewrite::check_rules_decreasing(&p.prog.trs, &lpo),
        Ok(())
    );
}
