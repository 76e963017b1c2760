//! Differential tests of the type unifier and of type inference against the
//! map-based oracle in `oracle/`: at every step the two agree on the
//! outcome (success, constructor clash or occurs-check failure), and every
//! variable resolves to the same type up to renaming of metavariables.

mod oracle;

use std::collections::HashMap;

use cycleq_term::fixtures::NatList;
use cycleq_term::{DataId, Term, TyUnifier, TyVarId, Type, TypeError, VarStore};
use oracle::{Failure, MapUnifier};
use proptest::prelude::*;
use proptest::test_runner::Config;

/// Ids at or above this are metavariables; below it, rigid variables.
const FLOOR: u32 = 100;
/// Rigid variables `0..RIGID` appear in generated types.
const RIGID: u32 = 3;
/// Metavariables `FLOOR..FLOOR + METAS` appear in generated types; the
/// first `ALLOCATED` are allocated before a case starts, the rest only if
/// the case allocates them.
const METAS: u32 = 6;
const ALLOCATED: u32 = 4;

fn cfg() -> Config {
    Config {
        cases: 512,
        ..Config::default()
    }
}

fn data(i: usize, args: Vec<Type>) -> Type {
    Type::Data(DataId::from_index(i), args)
}

/// Types over rigid variables, metavariables, two nullary datatypes, a
/// unary and a binary one, and arrows.
fn ty() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        (0..RIGID).prop_map(|i| Type::Var(TyVarId(i))),
        (0..METAS).prop_map(|i| Type::Var(TyVarId(FLOOR + i))),
        (0usize..2).prop_map(|d| data(d, Vec::new())),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| data(2, vec![a])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| data(3, vec![a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| Type::arrow(a, b)),
        ]
    })
}

fn kind(e: TypeError) -> Failure {
    match e {
        TypeError::Mismatch { .. } => Failure::Mismatch,
        TypeError::Occurs(_) => Failure::Occurs,
        other => panic!("unexpected type error {other:?}"),
    }
}

/// A bijective renaming of metavariables between the oracle's types and
/// the library's; rigid variables must be equal.
#[derive(Default)]
struct Renaming {
    fwd: HashMap<TyVarId, TyVarId>,
    bwd: HashMap<TyVarId, TyVarId>,
}

impl Renaming {
    fn alpha_eq(&mut self, a: &Type, b: &Type) -> bool {
        match (a, b) {
            (Type::Var(v), Type::Var(w)) if v.0 < FLOOR || w.0 < FLOOR => v == w,
            (Type::Var(v), Type::Var(w)) => {
                *self.fwd.entry(*v).or_insert(*w) == *w && *self.bwd.entry(*w).or_insert(*v) == *v
            }
            (Type::Data(d, xs), Type::Data(e, ys)) => {
                d == e
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|(x, y)| self.alpha_eq(x, y))
            }
            (Type::Arrow(a1, b1), Type::Arrow(a2, b2)) => {
                self.alpha_eq(a1, a2) && self.alpha_eq(b1, b2)
            }
            _ => false,
        }
    }
}

/// Both unifiers, with the first `ALLOCATED` metavariables allocated.
fn unifiers() -> (MapUnifier, TyUnifier) {
    let mut old = MapUnifier::new(FLOOR);
    let mut new = TyUnifier::new(FLOOR);
    for _ in 0..ALLOCATED {
        assert_eq!(old.fresh(), new.fresh());
    }
    (old, new)
}

/// Every rigid variable and metavariable a case can mention resolves alike.
fn assert_same_solutions(old: &MapUnifier, new: &TyUnifier, ren: &mut Renaming) {
    let all = (0..RIGID).chain(FLOOR..FLOOR + METAS);
    for v in all.map(|i| Type::Var(TyVarId(i))) {
        let (a, b) = (old.resolve(&v), new.resolve(&v));
        assert!(ren.alpha_eq(&a, &b), "{v:?}: oracle {a:?}, library {b:?}");
    }
}

#[test]
fn unify_agrees_with_the_map_oracle() {
    let mut seen = [0usize; 3];
    proptest!(cfg(), |(steps in proptest::collection::vec((ty(), ty(), 0u8..8), 1..10))| {
        let (mut old, mut new) = unifiers();
        for (a, b, op) in &steps {
            if *op == 0 {
                // Allocation may reach an id that already has a solution.
                prop_assert_eq!(old.fresh(), new.fresh());
                continue;
            }
            let want = old.unify(a, b);
            let got = new.unify(a, b).map_err(kind);
            prop_assert_eq!(got, want, "unify {:?} with {:?}", a, b);
            seen[match want {
                Ok(()) => 0,
                Err(Failure::Mismatch) => 1,
                Err(Failure::Occurs) => 2,
            }] += 1;
            assert_same_solutions(&old, &new, &mut Renaming::default());
        }
    });
    // Every outcome must occur, or the property is vacuous.
    assert!(seen.iter().all(|&n| n > 0), "outcomes seen: {seen:?}");
}

/// Term heads for generated terms: every symbol of the fixture, and
/// variables of ground, rigid-polymorphic, functional and metavariable
/// types. As in lowering, a variable's metavariables are allocated before
/// inference starts: the two unifiers allocate different numbers of fresh
/// ones, so an id allocated later would alias different variables in each.
fn inference_fixture() -> (NatList, VarStore, Vec<Term>) {
    let f = NatList::new();
    let a = Type::Var(TyVarId(0));
    let b = Type::Var(TyVarId(1));
    let meta = |i: u32| Type::Var(TyVarId(FLOOR + i));
    let var_types = [
        f.nat_ty(),
        f.bool_ty(),
        f.list_ty(f.nat_ty()),
        a.clone(),
        f.list_ty(a.clone()),
        Type::arrow(a.clone(), b),
        Type::arrow(f.nat_ty(), f.nat_ty()),
        meta(0),
        meta(1),
        f.list_ty(meta(2)),
        Type::arrow(meta(3), meta(3)),
    ];
    let mut vars = VarStore::new();
    let mut heads: Vec<Term> = var_types
        .iter()
        .enumerate()
        .map(|(i, t)| Term::var(vars.fresh(&format!("v{i}"), t.clone())))
        .collect();
    heads.extend(
        [
            f.zero, f.succ, f.nil, f.cons, f.true_, f.false_, f.add, f.app, f.len, f.map,
        ]
        .map(Term::sym),
    );
    (f, vars, heads)
}

/// A term steered by `choices`: a head applied to up to three generated
/// arguments, whatever its type, so ill-typed terms are common.
fn term(heads: &[Term], depth: usize, choices: &mut impl Iterator<Item = usize>) -> Term {
    let head = heads[choices.next().unwrap_or(0) % heads.len()].clone();
    let argc = if depth == 0 {
        0
    } else {
        choices.next().unwrap_or(0) % 4
    };
    let args: Vec<Term> = (0..argc).map(|_| term(heads, depth - 1, choices)).collect();
    head.apply_args(args)
}

#[test]
fn infer_type_agrees_with_the_map_oracle() {
    let (f, vars, heads) = inference_fixture();
    let mut seen = [0usize; 3];
    proptest!(cfg(), |(choices in proptest::collection::vec(0usize..1024, 32))| {
        let t = term(&heads, 3, &mut choices.into_iter());
        let (mut old, mut new) = unifiers();
        let want = oracle::infer_type(&t, &f.sig, &vars, &mut old);
        let got = t.infer_type(&f.sig, &vars, &mut new);
        let mut ren = Renaming::default();
        match (&want, got) {
            (Ok(a), Ok(b)) => {
                prop_assert!(ren.alpha_eq(a, &b), "{}: oracle {:?}, library {:?}", t.display(&f.sig, &vars), a, b);
                seen[0] += 1;
            }
            (Err(k), Err(e)) => {
                prop_assert_eq!(*k, kind(e), "{}", t.display(&f.sig, &vars));
                seen[1 + usize::from(*k == Failure::Occurs)] += 1;
            }
            (want, got) => {
                prop_assert!(false, "{}: oracle {:?}, library {:?}", t.display(&f.sig, &vars), want, got);
            }
        }
        // The variables' declared types resolve alike afterwards, rigid
        // ones (which inference may solve) included.
        for (_, _, ty) in vars.iter() {
            let (a, b) = (old.resolve(ty), new.resolve(ty));
            prop_assert!(ren.alpha_eq(&a, &b), "{:?}: oracle {:?}, library {:?}", ty, a, b);
        }
    });
    assert!(seen.iter().all(|&n| n > 0), "outcomes seen: {seen:?}");
}
