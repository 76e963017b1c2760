//! Property tests for reduction: normal forms compute the intended values
//! on the orthogonal fixture program (confluence in action), the memoised
//! rewriter agrees with the leftmost-outermost reference normaliser, and
//! its blocked-variable analysis agrees with an owned-term oracle.

use cycleq_rewrite::fixtures::{nat_list_program, reference_normalize};
use cycleq_rewrite::{check_program, critical_pairs, MemoRewriter, Trs, DEFAULT_FUEL};
use cycleq_term::{Head, Signature, Term, VarId, VarStore};
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
    let mut rw = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_nat(&p))| {
        let n = rw.normalize(&t);
        prop_assert!(n.in_normal_form);
        prop_assert_eq!(nat_value(&n.term, &p), Some(nat_meaning(&t, &p)));
    });
}

#[test]
fn normal_forms_are_stable() {
    let p = nat_list_program();
    let (sig, trs) = (&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_nat(&p))| {
        let n = MemoRewriter::new(sig, trs).normalize(&t);
        // A fresh rewriter, so the second run cannot answer from the memo.
        let again = MemoRewriter::new(sig, trs).normalize(&n.term);
        prop_assert_eq!(again.steps, 0);
        prop_assert_eq!(again.term, n.term);
    });
}

#[test]
fn closed_defined_terms_are_never_stuck() {
    // The completeness assumption (Remark 2.1) in action: every closed
    // defined-head term reduces.
    let p = nat_list_program();
    let mut rw = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
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
    let mut rw = MemoRewriter::new(&p.prog.sig, &p.prog.trs);
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
    let (sig, trs) = (&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_nat(&p))| {
        let mut memo = MemoRewriter::new(sig, trs);
        let plain = reference_normalize(sig, trs, &t, DEFAULT_FUEL);
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
    let (sig, trs) = (&p.prog.sig, &p.prog.trs);
    let (_vars, vs) = open_vars(&p);
    proptest!(cfg(), |(t in open_nat(&p, &vs))| {
        let mut memo = MemoRewriter::new(sig, trs);
        let plain = reference_normalize(sig, trs, &t, DEFAULT_FUEL);
        let fast = memo.normalize(&t);
        prop_assert!(plain.in_normal_form && fast.in_normal_form);
        prop_assert_eq!(fast.term, plain.term);
    });
}

#[test]
fn memoized_reduction_agrees_with_plain_on_lists() {
    let p = nat_list_program();
    let (sig, trs) = (&p.prog.sig, &p.prog.trs);
    proptest!(cfg(), |(t in ground_list(&p))| {
        let mut memo = MemoRewriter::new(sig, trs);
        prop_assert_eq!(
            memo.normalize(&t).term,
            reference_normalize(sig, trs, &t, DEFAULT_FUEL).term
        );
    });
}

/// Outcome of simulating one pattern column, in the owned oracle below.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Sim {
    Match,
    Clash,
    Blocked,
}

fn simulate_rule(pat: &Term, arg: &Term, sig: &Signature, blockers: &mut Vec<VarId>) -> Sim {
    // Clashes against defined-head arguments are downgraded to Blocked: the
    // inner redex is analysed at its own position.
    match pat.head() {
        Head::Var(_) => Sim::Match,
        Head::Sym(_) => {
            if arg.head_sym().is_some_and(|h| sig.is_defined(h)) {
                return Sim::Blocked;
            }
            match (pat.head(), arg.head()) {
                (Head::Sym(k), Head::Sym(k2))
                    if k == k2 && pat.args().len() == arg.args().len() =>
                {
                    let mut out = Sim::Match;
                    for (p, a) in pat.args().iter().zip(arg.args()) {
                        match simulate_rule(p, a, sig, blockers) {
                            Sim::Clash => return Sim::Clash,
                            Sim::Blocked => out = Sim::Blocked,
                            Sim::Match => {}
                        }
                    }
                    out
                }
                (Head::Sym(_), Head::Sym(_)) => Sim::Clash,
                (Head::Sym(_), Head::Var(v)) => {
                    if arg.args().is_empty() && !blockers.contains(&v) {
                        blockers.push(v);
                    }
                    Sim::Blocked
                }
                _ => unreachable!("pattern head is a symbol"),
            }
        }
    }
}

/// The owned-term blocked-variable analysis, the oracle of
/// `MemoRewriter::case_candidates_id`: for every stuck defined-head
/// subterm applied to at least its clauses' arity, in preorder, the
/// variables blocking its rules on that prefix, in rule order.
fn owned_case_candidates(sig: &Signature, trs: &Trs, term: &Term) -> Vec<VarId> {
    let mut out: Vec<VarId> = Vec::new();
    for (_, sub) in term.positions() {
        let Some(head) = sub.head_sym() else {
            continue;
        };
        if !sig.is_defined(head) || trs.arity_of(head).is_none_or(|n| n > sub.args().len()) {
            continue;
        }
        let rules: Vec<_> = trs.rules_for(head).iter().map(|id| trs.rule(*id)).collect();
        if rules.iter().any(|r| r.apply_root(sub).is_some()) {
            continue; // reducible, not stuck
        }
        for rule in rules {
            let mut blockers = Vec::new();
            let mut verdict = Sim::Match;
            for (p, a) in rule.params().iter().zip(sub.args()) {
                match simulate_rule(p, a, sig, &mut blockers) {
                    Sim::Clash => {
                        verdict = Sim::Clash;
                        break;
                    }
                    Sim::Blocked => verdict = Sim::Blocked,
                    Sim::Match => {}
                }
            }
            if verdict == Sim::Blocked {
                for v in blockers {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }
    out
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
            owned_case_candidates(&p.prog.sig, &p.prog.trs, &t)
        );
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
fn lpo_orients_all_fixture_rules_under_default_precedence() {
    let p = nat_list_program();
    let lpo = cycleq_rewrite::Lpo::from_signature(&p.prog.sig);
    assert_eq!(
        cycleq_rewrite::check_rules_decreasing(&p.prog.trs, &lpo),
        Ok(())
    );
}
