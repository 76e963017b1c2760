//! Appendix C: classical structural induction embeds into the cyclic
//! calculus — and the embedding's limits are exactly the paper's
//! motivation for the unrestricted system.

use cycleq::{GlobalCheck, Session};
use cycleq_benchsuite::{all_problems, MUTUAL_PRELUDE};
use cycleq_search::{structural_induction, InductionError};
use cycleq_term::VarId;

fn goal_setup(
    src: &str,
    goal: &str,
    var_name: &str,
) -> (
    cycleq::Program,
    cycleq_term::Equation,
    cycleq_term::VarStore,
    VarId,
) {
    let session = Session::from_source(src).unwrap();
    let g = session.module().goal(goal).unwrap().clone();
    let var = g
        .vars
        .iter()
        .find(|(_, n, _)| *n == var_name)
        .map(|(v, _, _)| v)
        .unwrap_or_else(|| panic!("goal has variable {var_name}"));
    (session.program().clone(), g.eq, g.vars, var)
}

const LIST_SRC: &str = "
data List a = Nil | Cons a (List a)
id :: a -> a
id x = x
map :: (a -> b) -> List a -> List b
map f Nil = Nil
map f (Cons x xs) = Cons (f x) (map f xs)
goal mapId: map id xs === xs
";

#[test]
fn fig9_map_id_by_structural_induction() {
    // Example C.1 / Fig. 9: the classical induction of Fig. 8 becomes a
    // cyclic proof with trace xs, xs', …
    let (prog, eq, vars, xs) = goal_setup(LIST_SRC, "mapId", "xs");
    let (proof, root) = structural_induction(&prog, eq, vars, xs).unwrap();
    let report = cycleq::check(&proof, &prog, GlobalCheck::VariableTraces).unwrap();
    assert!(report.back_edges >= 1);
    let text = cycleq::render_text(&proof, &prog.sig, root);
    assert!(text.contains("[Case xs]"), "{text}");
}

#[test]
fn mutual_induction_defeats_the_fixed_scheme() {
    // mapE id e ≈ e cannot be proved by structural induction on `e` alone:
    // the MkE branch needs the companion fact about mapT, which the fixed
    // scheme has no way to use (§1: provers "would have to guess,
    // heuristically, a strengthening").
    let src = format!("{MUTUAL_PRELUDE}\ngoal mapEId: mapE id e === e\n");
    let (prog, eq, vars, e) = goal_setup(&src, "mapEId", "e");
    let err = structural_induction(&prog, eq.clone(), vars.clone(), e).unwrap_err();
    assert!(matches!(err, InductionError::BranchStuck { .. }), "{err:?}");

    // ... while the unrestricted cyclic search proves it instantly.
    let session = Session::from_source(&src).unwrap();
    let v = session.prove("mapEId").unwrap();
    assert!(v.is_proved());
}

#[test]
fn everything_the_scheme_proves_the_search_proves() {
    let cases = [
        (
            "data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
goal g: add x Z === x
",
            "g",
            "x",
        ),
        (LIST_SRC, "mapId", "xs"),
    ];
    for (src, goal, var) in cases {
        let (prog, eq, vars, v) = goal_setup(src, goal, var);
        assert!(structural_induction(&prog, eq.clone(), vars.clone(), v).is_ok());
        let session = Session::from_source(src).unwrap();
        assert!(session.prove(goal).unwrap().is_proved());
    }
}

#[test]
fn corpus_inductions_terminate_and_every_proof_checks() {
    // Structural induction on every goal variable of every benchmark
    // problem: each attempt must terminate, the pairs it proves are
    // pinned, and every proof must pass the size-change check on variable
    // traces. An induction hypothesis applied at an instance of the
    // recursive argument would close a circular "proof" that this check
    // rejects.
    const PROVED: &[(&str, &str)] = &[
        ("IP07", "n"),
        ("IP08", "k"),
        ("IP10", "m"),
        ("IP11", "xs"),
        ("IP13", "n"),
        ("IP13", "xs"),
        ("IP17", "n"),
        ("IP18", "i"),
        ("IP21", "n"),
        ("IP35", "xs"),
        ("IP36", "xs"),
        ("IP40", "xs"),
        ("IP42", "n"),
        ("IP42", "xs"),
        ("IP44", "ys"),
        ("IP45", "xs"),
        ("IP45", "ys"),
        ("IP46", "ys"),
        ("F09", "xs"),
    ];
    let mut pairs = 0;
    let mut proved = Vec::new();
    for p in all_problems() {
        let Some(src) = p.source() else {
            continue;
        };
        let module = cycleq::parse_module(&src).unwrap();
        let g = module.goal(&p.goal_name()).unwrap();
        for (v, name, _) in g.vars.iter() {
            pairs += 1;
            let Ok((proof, _)) =
                structural_induction(&module.program, g.eq.clone(), g.vars.clone(), v)
            else {
                continue;
            };
            cycleq::check(&proof, &module.program, GlobalCheck::VariableTraces)
                .unwrap_or_else(|e| panic!("{} on {name}: {e}", p.id));
            proved.push((p.id, name.to_string()));
        }
    }
    assert_eq!(pairs, 171);
    let proved: Vec<(&str, &str)> = proved.iter().map(|(id, v)| (*id, v.as_str())).collect();
    assert_eq!(proved, PROVED);
}
