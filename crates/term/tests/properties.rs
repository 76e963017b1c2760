//! Property-based tests for the term layer: substitution laws, matching and
//! unification soundness, and position round-trips.

use cycleq_term::fixtures::NatList;
use cycleq_term::{match_term, unify, Position, Subst, Term, Type, VarStore};
use proptest::prelude::*;
use proptest::test_runner::Config;

/// Number of variables available to generated terms.
const NUM_VARS: usize = 4;

fn fixture_vars() -> (NatList, VarStore, Vec<cycleq_term::VarId>) {
    let f = NatList::new();
    let mut vars = VarStore::new();
    let vs = (0..NUM_VARS)
        .map(|i| vars.fresh(&format!("x{i}"), f.nat_ty()))
        .collect();
    (f, vars, vs)
}

/// Strategy for well-typed `Nat` terms over `Z`, `S`, `add` and variables.
fn nat_term(f: &NatList, vs: &[cycleq_term::VarId]) -> impl Strategy<Value = Term> {
    let zero = f.zero;
    let succ = f.succ;
    let add = f.add;
    let vs = vs.to_vec();
    let leaf = prop_oneof![
        Just(Term::sym(zero)),
        (0..vs.len()).prop_map(move |i| Term::var(vs[i])),
    ];
    leaf.prop_recursive(4, 24, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(move |t| Term::apps(succ, vec![t])),
            (inner.clone(), inner).prop_map(move |(a, b)| Term::apps(add, vec![a, b])),
        ]
    })
}

/// Strategy for substitutions mapping the fixture variables to `Nat` terms.
fn nat_subst(f: &NatList, vs: &[cycleq_term::VarId]) -> impl Strategy<Value = Subst> {
    let term = nat_term(f, vs);
    let vs = vs.to_vec();
    proptest::collection::vec(proptest::option::of(term), vs.len()).prop_map(move |opts| {
        vs.iter()
            .zip(opts)
            .filter_map(|(v, t)| t.map(|t| (*v, t)))
            .collect()
    })
}

fn cfg() -> Config {
    Config {
        cases: 128,
        ..Config::default()
    }
}

#[test]
fn substitution_composition_agrees_with_sequential_application() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(t in nat_term(&f, &vs), s0 in nat_subst(&f, &vs), s1 in nat_subst(&f, &vs))| {
        let seq = s1.apply(&s0.apply(&t));
        let composed = s0.then(&s1).apply(&t);
        prop_assert_eq!(seq, composed);
    });
}

#[test]
fn matching_is_sound() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(pat in nat_term(&f, &vs), s in nat_subst(&f, &vs))| {
        // Build subject = pat·s, then matching must succeed and be sound.
        let subj = s.apply(&pat);
        let theta = match_term(&pat, &subj);
        prop_assert!(theta.is_some(), "pattern must match its own instance");
        let theta = theta.unwrap();
        prop_assert_eq!(theta.apply(&pat), subj);
    });
}

#[test]
fn matching_failure_means_no_instance_on_ground_subjects() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(pat in nat_term(&f, &vs), subj in nat_term(&f, &vs))| {
        prop_assume!(subj.is_ground());
        if let Some(theta) = match_term(&pat, &subj) {
            prop_assert_eq!(theta.apply(&pat), subj);
        }
    });
}

#[test]
fn unification_is_sound_and_idempotent() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(a in nat_term(&f, &vs), b in nat_term(&f, &vs))| {
        if let Ok(theta) = unify(&a, &b) {
            prop_assert_eq!(theta.apply(&a), theta.apply(&b));
            let once = theta.apply(&a);
            prop_assert_eq!(theta.apply(&once.clone()), once);
        }
    });
}

#[test]
fn unification_succeeds_on_instances() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(pat in nat_term(&f, &vs), s in nat_subst(&f, &vs))| {
        // pat and pat·s have the common instance pat·s; unification may only
        // fail when s introduces a cycle (x bound to a term containing x).
        let inst = s.apply(&pat);
        match unify(&pat, &inst) {
            Ok(theta) => prop_assert_eq!(theta.apply(&pat), theta.apply(&inst)),
            Err(e) => {
                // The occurs check also fires on *indirect* cycles
                // (x ↦ S y, y ↦ S x), so accept any cycle in the
                // dependency graph of s restricted to pat's variables.
                let pvs = pat.vars();
                let step = |v: &cycleq_term::VarId| -> Vec<cycleq_term::VarId> {
                    s.get(*v)
                        .filter(|t| t.as_var() != Some(*v))
                        .map(|t| t.vars().into_iter().filter(|w| pvs.contains(w)).collect())
                        .unwrap_or_default()
                };
                let cyclic = pvs.iter().any(|start| {
                    let mut frontier = step(start);
                    let mut seen = std::collections::BTreeSet::new();
                    while let Some(v) = frontier.pop() {
                        if v == *start {
                            return true;
                        }
                        if seen.insert(v) {
                            frontier.extend(step(&v));
                        }
                    }
                    false
                });
                prop_assert!(cyclic, "unification failed unexpectedly: {}", e);
            }
        }
    });
}

#[test]
fn positions_replace_round_trip() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(t in nat_term(&f, &vs))| {
        for (pos, sub) in t.positions() {
            // Replacing a subterm with itself is the identity.
            let same = t.replace_at(&pos, sub.clone()).unwrap();
            prop_assert_eq!(&same, &t);
            // Replacing with Z then reading back yields Z.
            let z = Term::sym(f.zero);
            let replaced = t.replace_at(&pos, z.clone()).unwrap();
            prop_assert_eq!(replaced.at(&pos), Some(&z));
        }
    });
}

#[test]
fn position_count_equals_term_size() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(t in nat_term(&f, &vs))| {
        prop_assert_eq!(t.positions().count(), t.size());
    });
}

#[test]
fn interner_round_trips_and_dedupes() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(t in nat_term(&f, &vs))| {
        let mut store = cycleq_term::TermStore::new();
        let id = store.intern(&t);
        // intern → resolve is the identity.
        prop_assert_eq!(store.resolve(id), t.clone());
        // A structurally equal term interns to the same id.
        prop_assert_eq!(store.intern(&t.clone()), id);
        // Cached metadata agrees with the owned computations.
        prop_assert_eq!(store.size(id), t.size());
        prop_assert_eq!(store.depth(id), t.depth());
        prop_assert_eq!(store.is_ground(id), t.is_ground());
        let mut acc = std::collections::BTreeSet::new();
        store.collect_vars(id, &mut acc);
        prop_assert_eq!(acc, t.vars());
        // The store never holds more nodes than the term has (sharing can
        // only shrink it).
        prop_assert!(store.len() <= t.size());
    });
}

#[test]
fn interned_subst_and_matching_agree_with_owned() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(pat in nat_term(&f, &vs), s in nat_subst(&f, &vs))| {
        let mut store = cycleq_term::TermStore::new();
        let subj = s.apply(&pat);
        let pid = store.intern(&pat);
        let sid = store.intern(&subj);
        // The interned substitution maps the instance exactly onto the
        // interned subject.
        let id_s: cycleq_term::IdSubst =
            s.iter().map(|(v, t)| (v, store.intern(t))).collect();
        prop_assert_eq!(store.subst(pid, &id_s), sid);
        // Interned matching finds a substitution that reproduces the
        // subject, like owned matching does.
        let theta = store.match_terms(pid, sid);
        prop_assert!(theta.is_some(), "pattern must match its own instance");
        let theta = theta.unwrap();
        prop_assert_eq!(store.subst(pid, &theta), sid);
        prop_assert_eq!(theta.resolve(&store).apply(&pat), subj);
    });
}

#[test]
fn interned_positions_agree_with_owned() {
    let (f, _vars, vs) = fixture_vars();
    proptest!(cfg(), |(t in nat_term(&f, &vs))| {
        let mut store = cycleq_term::TermStore::new();
        let id = store.intern(&t);
        let resolved = store.resolve(id);
        let owned: Vec<_> = resolved.positions().map(|(p, s)| (p, s.clone())).collect();
        let preorder = store.preorder(id);
        prop_assert_eq!(owned.len(), preorder.len());
        for (i, (pos, sub)) in owned.iter().enumerate() {
            // The position built on demand from the parent links is the
            // owned term's position of the same preorder index.
            prop_assert_eq!(&preorder.position(i), pos);
            prop_assert_eq!(&store.resolve(preorder.term(i)), sub);
            prop_assert_eq!(store.at(id, pos), Some(preorder.term(i)));
        }
    });
}

#[test]
fn generated_terms_are_well_typed() {
    let (f, vars, vs) = fixture_vars();
    proptest!(cfg(), |(t in nat_term(&f, &vs))| {
        let mut uni = cycleq_term::TyUnifier::new(1000);
        let ty = t.infer_type(&f.sig, &vars, &mut uni).unwrap();
        prop_assert_eq!(ty, Type::data0(f.nat));
    });
}

#[test]
fn position_display_is_stable() {
    let p = Position::from_indices(vec![0, 2, 1]);
    assert_eq!(p.to_string(), "0.2.1");
    assert_eq!(Position::root().to_string(), "ε");
}

/// A signature for the function-extensionality filter: the `NatList`
/// fixture (`add` with a datatype result, `map` taking a function) plus
/// `ite :: Bool -> a -> a -> a`, `hd :: List a -> a` (no argument carries
/// the result's `a`) and the point-free `twice :: (a -> a) -> a -> a`.
/// Returns the signature, variables of every type the generator needs
/// (several of arrow type), and `(head, monotype)` producers: each
/// polymorphic symbol at a few instances, and every variable.
fn arrow_filter_fixture() -> (
    cycleq_term::Signature,
    VarStore,
    Vec<(Term, Type)>,
    Vec<Type>,
) {
    use cycleq_term::{TyVarId, TypeScheme};

    let f = NatList::new();
    let mut sig = f.sig.clone();
    let a = Type::Var(TyVarId(0));
    let bool_ty = Type::data0(f.bool_);
    let ite = sig
        .add_defined(
            "ite",
            TypeScheme::poly(
                1,
                Type::arrows(vec![bool_ty.clone(), a.clone(), a.clone()], a.clone()),
            ),
        )
        .unwrap();
    let hd = sig
        .add_defined(
            "hd",
            TypeScheme::poly(1, Type::arrow(f.list_ty(a.clone()), a.clone())),
        )
        .unwrap();
    let twice = sig
        .add_defined(
            "twice",
            TypeScheme::poly(
                1,
                Type::arrows(vec![Type::arrow(a.clone(), a.clone()), a.clone()], a),
            ),
        )
        .unwrap();

    let nat = f.nat_ty();
    let fun = |x: &Type, y: &Type| Type::arrow(x.clone(), y.clone());
    let nat_nat = fun(&nat, &nat);
    let list_nat = f.list_ty(nat.clone());
    let list_fun = f.list_ty(nat_nat.clone());
    let list_list = fun(&list_nat, &list_nat);
    let endo_fun = fun(&nat_nat, &nat_nat);
    let types = vec![
        nat.clone(),
        bool_ty.clone(),
        list_nat.clone(),
        list_fun.clone(),
        nat_nat.clone(),
        list_list.clone(),
        endo_fun.clone(),
    ];

    let mut vars = VarStore::new();
    let mut producers: Vec<(Term, Type)> = types
        .iter()
        .enumerate()
        .map(|(i, ty)| {
            (
                Term::var(vars.fresh(&format!("v{i}"), ty.clone())),
                ty.clone(),
            )
        })
        .collect();
    let sym = |s, ty: Type| (Term::sym(s), ty);
    producers.extend([
        sym(f.zero, nat.clone()),
        sym(f.succ, nat_nat.clone()),
        sym(
            f.add,
            Type::arrows(vec![nat.clone(), nat.clone()], nat.clone()),
        ),
        sym(f.len, fun(&list_nat, &nat)),
        sym(f.true_, bool_ty.clone()),
        sym(f.false_, bool_ty.clone()),
        sym(f.nil, list_nat.clone()),
        sym(f.nil, list_fun.clone()),
        sym(
            f.cons,
            Type::arrows(vec![nat.clone(), list_nat.clone()], list_nat.clone()),
        ),
        sym(
            f.cons,
            Type::arrows(vec![nat_nat.clone(), list_fun.clone()], list_fun.clone()),
        ),
        sym(
            f.map,
            Type::arrows(vec![nat_nat.clone(), list_nat.clone()], list_nat.clone()),
        ),
    ]);
    for t in [&nat, &list_nat, &nat_nat, &list_list] {
        let ite_ty = Type::arrows(vec![bool_ty.clone(), t.clone(), t.clone()], t.clone());
        producers.push(sym(ite, ite_ty));
    }
    for t in [&nat, &nat_nat] {
        producers.push(sym(hd, fun(&f.list_ty(t.clone()), t)));
    }
    for t in [&nat, &list_nat, &nat_nat] {
        producers.push(sym(
            twice,
            Type::arrows(vec![fun(t, t), t.clone()], t.clone()),
        ));
    }
    (sig, vars, producers, types)
}

/// A well-typed term of monotype `target`, steered by `choices`: a
/// producer whose type yields `target` after `k` arguments, applied to `k`
/// generated arguments. Under-, exact and over-application all arise, since
/// a polymorphic head at an arrow instance takes more arguments than its
/// scheme has arrows. Depth 0 (or no choices left) takes `k = 0`, which a
/// variable of every type guarantees.
fn typed_term(
    producers: &[(Term, Type)],
    target: &Type,
    depth: usize,
    choices: &mut impl Iterator<Item = usize>,
) -> Term {
    let mut options: Vec<(usize, usize)> = Vec::new();
    for (i, (_, ty)) in producers.iter().enumerate() {
        for k in 0..=ty.arity() {
            if ty.result_after(k) == Some(target) && (k == 0 || depth > 0) {
                options.push((i, k));
            }
        }
    }
    let (i, k) = options[choices.next().unwrap_or(0) % options.len()];
    let (head, ty) = &producers[i];
    let (params, _) = ty.uncurry();
    let args = params[..k]
        .iter()
        .map(|p| typed_term(producers, p, depth - 1, choices))
        .collect::<Vec<_>>();
    head.clone().apply_args(args)
}

#[test]
fn arrow_filter_never_contradicts_inference() {
    let (sig, vars, producers, types) = arrow_filter_fixture();
    let (mut ruled_out, mut arrows) = (0, 0);
    proptest!(cfg(), |(target in 0..types.len(), choices in proptest::collection::vec(0usize..1024, 48))| {
        let t = typed_term(&producers, &types[target], 4, &mut choices.into_iter());
        let mut store = cycleq_term::TermStore::new();
        let id = store.intern(&t);
        let inferred = t
            .infer_type(&sig, &vars, &mut cycleq_term::TyUnifier::new(100))
            .unwrap_or_else(|e| panic!("generated an ill-typed term: {e}"));
        let is_arrow = matches!(inferred, Type::Arrow(..));
        arrows += usize::from(is_arrow);
        if store.rules_out_arrow_type(id, &sig, &vars) {
            ruled_out += 1;
            prop_assert!(
                !is_arrow,
                "filter ruled out the arrow type {:?} of {}",
                inferred,
                t.display(&sig, &vars)
            );
        }
    });
    // Both answers must occur, or the property is vacuous.
    assert!(
        ruled_out > 0 && arrows > 0,
        "{ruled_out} ruled out, {arrows} arrows"
    );
}
