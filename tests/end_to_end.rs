//! End-to-end integration tests spanning frontend, search, proof checking
//! and rendering.

use cycleq::{GlobalCheck, Outcome, Session};

const NAT_LIST: &str = "
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
app :: List a -> List a -> List a
app Nil ys = ys
app (Cons x xs) ys = Cons x (app xs ys)
rev :: List a -> List a
rev Nil = Nil
rev (Cons x xs) = app (rev xs) (Cons x Nil)
len :: List a -> Nat
len Nil = Z
len (Cons x xs) = S (len xs)
goal appAssoc: app (app xs ys) zs === app xs (app ys zs)
goal appNil: app xs Nil === xs
goal lenRev: len (rev xs) === len xs
goal revApp: rev (app xs ys) === app (rev ys) (rev xs)
goal lenApp: len (app xs ys) === add (len xs) (len ys)
";

#[test]
fn list_theory_proves_end_to_end() {
    let session = Session::from_source(NAT_LIST).unwrap();
    assert!(session.analyze().is_empty());
    for goal in ["appAssoc", "appNil", "lenApp"] {
        let v = session.prove(goal).unwrap();
        assert!(v.is_proved(), "{goal}: {:?}", v.result.outcome);
        // The session already re-checked; check again explicitly to pin the
        // behaviour.
        cycleq::check(
            &v.result.proof,
            session.program(),
            GlobalCheck::VariableTraces,
        )
        .unwrap_or_else(|e| panic!("{goal}: {e}"));
    }
}

#[test]
fn lemma_requiring_goals_fail_gracefully() {
    // rev (xs ++ ys) = rev ys ++ rev xs and len (rev xs) = len xs both need
    // auxiliary lemmas about app; without hints the prover must terminate
    // without a proof (and without wrongly refuting).
    let session = Session::from_source(NAT_LIST).unwrap();
    for goal in ["revApp", "lenRev"] {
        let v = session.prove(goal).unwrap();
        assert!(
            matches!(
                v.result.outcome,
                Outcome::Exhausted | Outcome::Timeout | Outcome::NodeBudget
            ),
            "{goal}: {:?}",
            v.result.outcome
        );
    }
}

#[test]
fn proofs_render_with_cycle_labels() {
    let session = Session::from_source(NAT_LIST).unwrap();
    let v = session.prove("appAssoc").unwrap();
    let text = v.render_proof().unwrap();
    assert!(text.contains("[Case xs]"), "{text}");
    assert!(text.contains("(0)"), "back edge reference: {text}");
    let dot = v.render_dot().unwrap();
    assert!(dot.contains("style=dashed"), "cycle edge in dot: {dot}");
}

#[test]
fn search_statistics_reflect_the_proof() {
    let session = Session::from_source(NAT_LIST).unwrap();
    let v = session.prove("lenApp").unwrap();
    let stats = &v.result.stats;
    assert!(stats.nodes_created >= v.result.proof.len());
    assert!(stats.case_splits >= 1);
    assert!(stats.closure_graphs > 0, "closure was exercised");
}

#[test]
fn polymorphic_goals_prove() {
    // Goals at type List a with a rigid: the whole pipeline handles
    // polymorphism (§6).
    let session = Session::from_source(NAT_LIST).unwrap();
    let v = session.prove("appNil").unwrap();
    assert!(v.is_proved());
}

#[test]
fn trees_and_mirror_involution() {
    let src = "
data Tree a = Leaf | Node (Tree a) a (Tree a)
mirror :: Tree a -> Tree a
mirror Leaf = Leaf
mirror (Node l x r) = Node (mirror r) x (mirror l)
goal mirrorTwice: mirror (mirror t) === t
";
    let session = Session::from_source(src).unwrap();
    let v = session.prove("mirrorTwice").unwrap();
    assert!(v.is_proved(), "{:?}", v.result.outcome);
}

#[test]
fn higher_order_goal_with_extensionality() {
    // map f ∘ nothing: goal at arrow type exercises FunExt.
    let src = "
data List a = Nil | Cons a (List a)
map :: (a -> b) -> List a -> List b
map f Nil = Nil
map f (Cons x xs) = Cons (f x) (map f xs)
id :: a -> a
id x = x
goal mapIdEta: map id === id
";
    let session = Session::from_source(src).unwrap();
    let v = session.prove("mapIdEta").unwrap();
    assert!(v.is_proved(), "{:?}", v.result.outcome);
    // The proof must contain a FunExt node.
    let uses_funext = v
        .result
        .proof
        .nodes()
        .any(|(_, n)| matches!(n.rule, cycleq::RuleApp::FunExt { .. }));
    assert!(uses_funext);
}

#[test]
fn refutation_of_false_conjectures() {
    let src = "
data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
double :: Nat -> Nat
double Z = Z
double (S x) = S (S (double x))
goal falseDouble: double x === x
";
    let session = Session::from_source(src).unwrap();
    let v = session.prove("falseDouble").unwrap();
    assert!(v.is_refuted(), "{:?}", v.result.outcome);
}

#[test]
fn unsound_self_justification_is_impossible() {
    // Example 3.2's degenerate preproof cannot be produced: the only route
    // to such a cycle fails the incremental size-change check, so the goal
    // is simply not proved.
    let src = "
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
stutter :: List a -> List a
stutter Nil = Nil
stutter (Cons x xs) = Cons x (Cons x (stutter xs))
goal consNil: stutter xs === Nil
";
    let session = Session::from_source(src).unwrap();
    let v = session.prove("consNil").unwrap();
    assert!(!v.is_proved(), "{:?}", v.result.outcome);
}

/// `twice` has one clause pattern but two arrows in its type, so `twice S Z`
/// applies it to more arguments than its clause takes.
const POINT_FREE: &str = "
data Nat = Z | S Nat
comp :: (b -> c) -> (a -> b) -> a -> c
comp f g x = f (g x)
twice :: (a -> a) -> a -> a
twice f = comp f f
goal twiceS: twice S Z === S (S Z)
goal twiceWrong: twice S Z === Z
goal compS: comp S S Z === S (S Z)
";

/// `ite`'s polymorphic result is a function when its branches are.
const ITE_MAP: &str = "
data Bool = True | False
data List a = Nil | Cons a (List a)
map :: (a -> b) -> List a -> List b
map f Nil = Nil
map f (Cons x xs) = Cons (f x) (map f xs)
ite :: Bool -> a -> a -> a
ite True x y = x
ite False x y = y
goal iteNil: ite c (map f) (map g) Nil === Nil
goal iteMap: ite c (map f) (map f) === map f
";

fn proves_and_checks(session: &Session, goal: &str) -> cycleq::Verdict {
    let v = session.prove(goal).unwrap();
    assert!(v.is_proved(), "{goal}: {:?}", v.result.outcome);
    cycleq::check(
        &v.result.proof,
        session.program(),
        GlobalCheck::VariableTraces,
    )
    .unwrap_or_else(|e| panic!("{goal}: {e}"));
    v
}

#[test]
fn over_applied_defined_symbols_reduce() {
    // The clause contracts the prefix `twice S` and re-applies `Z`, so the
    // ground goals are decided by evaluation, like the exact-arity `compS`.
    let session = Session::from_source(POINT_FREE).unwrap();
    for goal in ["twiceS", "compS"] {
        proves_and_checks(&session, goal);
    }
    let v = session.prove("twiceWrong").unwrap();
    assert!(v.is_refuted(), "{:?}", v.result.outcome);
}

#[test]
fn over_applied_defined_symbols_offer_case_splits() {
    // `ite c (map f) (map g) Nil` is stuck on `c` in its prefix `ite c _ _`.
    let session = Session::from_source(ITE_MAP).unwrap();
    let v = proves_and_checks(&session, "iteNil");
    assert!(v.render_proof().unwrap().contains("[Case c]"));
}

#[test]
fn arrow_typed_ite_takes_function_extensionality_once() {
    // `ite`'s result type is its branches' type, here `List a -> List b`:
    // the FunExt test must not rule the arrow out, and after FunExt the
    // over-applied `ite c (map f) (map f) x` splits on `c`.
    let session = Session::from_source(ITE_MAP).unwrap();
    let v = proves_and_checks(&session, "iteMap");
    let funext = v
        .result
        .proof
        .nodes()
        .filter(|(_, n)| matches!(n.rule, cycleq::RuleApp::FunExt { .. }))
        .count();
    assert_eq!(funext, 1);
}
